"""Device firmware base class: the behaviour every simulated IoT device shares.

A :class:`DeviceFirmware` is the "thing" of the paper's Figure 1: it is
provisioned onto the home Wi-Fi (SmartConfig-style), authenticates to
the cloud with whatever material its vendor's design prescribes, sends
registration/heartbeat status messages, polls for relayed commands, and
answers local traffic (SSDP discovery, the local-configuration
protocol).  Device types (plug, bulb, camera, ...) subclass it with
their telemetry and command sets.

Ground truth for attacks lives here: ``executed_commands`` records every
command the *physical* device actually carried out and who issued it —
device hijacking (A4) is confirmed only when an attacker-issued command
shows up in this list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from repro.cloud.policy import BindSchema, BindSender, DeviceAuthMode, VendorDesign
from repro.core.errors import ProtocolError, RequestRejected
from repro.core.messages import (
    BindMessage,
    DeviceFetch,
    Message,
    Origin,
    Response,
    StatusMessage,
    UnbindMessage,
)
from repro.device.local import (
    DeliverBindToken,
    DeliverDevToken,
    DeliverPostBindingToken,
    DeliverUserCredential,
    LocalAck,
)
from repro.identity.keys import KeyPair
from repro.net.discovery import SsdpDescription, SsdpSearch
from repro.net.network import Network
from repro.net.packet import Packet
from repro.net.provisioning import ProvisioningAir, WifiCredentials
from repro.sim.environment import Environment
from repro.sim.rand import DeterministicRandom


SECONDS_PER_DAY = 86400.0


def _parse_time_of_day(spec: Optional[str]) -> Optional[float]:
    """Parse "HH:MM" into seconds-of-day; None for absent/invalid specs."""
    if not spec or ":" not in spec:
        return None
    hours, _, minutes = spec.partition(":")
    try:
        h, m = int(hours), int(minutes)
    except ValueError:
        return None
    if not (0 <= h < 24 and 0 <= m < 60):
        return None
    return h * 3600.0 + m * 60.0


def _crossed_time_of_day(previous: float, now: float, due: float) -> bool:
    """Did the interval (previous, now] cross the time-of-day *due*?"""
    if now <= previous:
        return False
    if now - previous >= SECONDS_PER_DAY:
        return True
    prev_tod = previous % SECONDS_PER_DAY
    now_tod = now % SECONDS_PER_DAY
    if prev_tod < now_tod:
        return prev_tod < due <= now_tod
    return due > prev_tod or due <= now_tod  # wrapped past midnight


@dataclass(frozen=True)
class ExecutedCommand:
    """One command the physical device actually executed."""

    time: float
    command: str
    arguments: Mapping[str, Any]
    issued_by: str


class DeviceFirmware:
    """Base simulated firmware; subclass per device type."""

    #: override in subclasses
    model: str = "generic-device"
    firmware_version: str = "1.0.0"
    #: the attribute holding this type's seeded sensor, if it has one
    sensor_attribute: Optional[str] = None

    def __init__(
        self,
        env: Environment,
        network: Network,
        air: ProvisioningAir,
        design: VendorDesign,
        device_id: str,
        location: str,
        cloud_node: str = "cloud",
        keypair: Optional[KeyPair] = None,
        node_name: Optional[str] = None,
    ) -> None:
        self.env = env
        self.network = network
        self.air = air
        self.design = design
        self.device_id = device_id
        self.location = location
        self.cloud_node = cloud_node
        self.keypair = keypair
        self.node_name = node_name or f"device:{device_id}"
        network.add_node(self.node_name, self._handle_local)

        # volatile firmware state
        #: optional resilient cloud client (installed by enable_resilience)
        self._client: Optional[Any] = None

        self.powered = False
        self.wifi: Optional[WifiCredentials] = None
        self._lan_id: Optional[str] = None
        self.dev_token: Optional[str] = None
        self.post_binding_token: Optional[str] = None
        self._pending_user_credential: Optional[DeliverUserCredential] = None
        self._stop_listening = None
        self._heartbeat_handle = None
        self.connected = False
        self.last_error: Optional[str] = None
        self.executed_commands: List[ExecutedCommand] = []
        #: cloud-synced on/off schedule ({"on": "HH:MM", "off": "HH:MM"})
        self.schedule: Dict[str, str] = {}
        self._last_schedule_check: Optional[float] = None
        self.state: Dict[str, Any] = self.initial_state()

    # ------------------------------------------------------------------
    # subclass surface
    # ------------------------------------------------------------------

    def initial_state(self) -> Dict[str, Any]:
        """Initial actuator/sensor state; override per device type."""
        return {"on": False}

    def read_telemetry(self) -> Dict[str, Any]:
        """Current sensor readings sent with heartbeats; override."""
        return {}

    def sensor_stream(self) -> Optional[DeterministicRandom]:
        """The seeded stream behind this device's telemetry, if any.

        World images record its position, so a restored device reads on
        from where the captured one stopped.
        """
        if self.sensor_attribute is None:
            return None
        return getattr(self, self.sensor_attribute).rng

    def apply_command(self, command: str, arguments: Mapping[str, Any]) -> None:
        """Execute one relayed command; override for richer types."""
        if command == "on":
            self.state["on"] = True
        elif command == "off":
            self.state["on"] = False
        else:
            self.state[command] = dict(arguments) if arguments else True

    # ------------------------------------------------------------------
    # power and provisioning
    # ------------------------------------------------------------------

    def power_on(self) -> None:
        """Boot: reconnect if provisioned, else wait for provisioning."""
        if self.powered:
            return
        self.powered = True
        if self.wifi is not None:
            self._join_and_connect()
        else:
            self.enter_provisioning_mode()

    def power_off(self) -> None:
        """Cut power: stop heartbeats, drop the connection."""
        self.powered = False
        self.connected = False
        if self._heartbeat_handle is not None:
            self._heartbeat_handle.cancel()
            self._heartbeat_handle = None
        if self._stop_listening is not None:
            self._stop_listening()
            self._stop_listening = None

    def enter_provisioning_mode(self) -> None:
        """Listen on the local radio for SmartConfig/Airkiss credentials."""
        if self._stop_listening is not None:
            return

        def on_credentials(credentials: WifiCredentials) -> None:
            if not self.powered:
                return
            self.wifi = credentials
            if self._stop_listening is not None:
                self._stop_listening()
                self._stop_listening = None
            self._join_and_connect()

        self._stop_listening = self.air.listen(self.location, on_credentials)

    def _join_and_connect(self) -> None:
        """Join the Wi-Fi and register with the cloud."""
        lan_id = self._find_lan(self.wifi.ssid)
        if lan_id is None:
            self.last_error = "ssid-not-found"
            return
        try:
            self.network.join_lan(self.node_name, lan_id, self.wifi.passphrase)
        except Exception:
            self.last_error = "wifi-join-failed"
            return
        self._lan_id = lan_id
        self.register_with_cloud()
        self._start_heartbeats()

    def _find_lan(self, ssid: str) -> Optional[str]:
        return self.network.find_lan_by_ssid(ssid)

    def factory_reset(self) -> None:
        """User holds the reset button: wipe Wi-Fi and tokens.

        On designs with a Type-2 unbind endpoint, the device notifies
        the cloud to revoke its binding before dropping off (the
        convenience-over-security trade-off of Section IV-C).
        """
        if self.connected and self.design.unbind_accepts_bare_dev_id:
            try:
                self._cloud_request(
                    UnbindMessage(device_id=self.device_id, origin=Origin.DEVICE)
                )
            except (RequestRejected, Exception):
                pass
        self.power_off()
        self.wifi = None
        self.dev_token = None
        self.post_binding_token = None
        self._pending_user_credential = None
        if self._lan_id is not None:
            self.network.leave_lan(self.node_name)
            self._lan_id = None
        self.state = self.initial_state()

    # ------------------------------------------------------------------
    # cloud communication
    # ------------------------------------------------------------------

    def enable_resilience(self, policy: Any = None, breaker: Any = None) -> None:
        """Route this device's cloud traffic through a resilient client.

        Installs retries with backoff + jitter, per-request timeouts and
        a circuit breaker around every cloud call (heartbeats, polls,
        binding).  The client's jitter RNG is forked off the environment
        by node name so retry schedules never perturb the world's other
        draws.  Idempotent knob update if called again.
        """
        from repro.chaos.resilience import (
            DEFAULT_RESILIENCE,
            CircuitBreaker,
            ResilientClient,
        )

        chosen = policy if policy is not None else DEFAULT_RESILIENCE
        self._client = ResilientClient(
            self.network,
            self.node_name,
            chosen,
            self.env.rng.fork(f"resilience:{self.node_name}"),
            breaker=breaker if breaker is not None else CircuitBreaker(),
            role="device",
        )

    def _cloud_request(self, message: Message) -> Message:
        """One cloud round-trip, via the resilient client when installed."""
        if self._client is not None:
            return self._client.request(self.cloud_node, message)
        return self.network.request(self.node_name, self.cloud_node, message)

    def _auth_fields(self, payload_model: str = "") -> Dict[str, Any]:
        """Authentication material per the vendor's Figure 3 design."""
        design = self.design
        if design.device_auth is DeviceAuthMode.DEV_ID:
            return {"device_id": self.device_id}
        if design.device_auth is DeviceAuthMode.DEV_TOKEN:
            return {"device_id": self.device_id, "dev_token": self.dev_token}
        if design.device_auth is DeviceAuthMode.PUBKEY:
            if self.keypair is None:
                raise ProtocolError(f"{self.device_id}: pubkey design without a keypair")
            payload = {"device_id": self.device_id, "model": payload_model}
            return {
                "device_id": self.device_id,
                "signature": self.keypair.private.sign(payload),
            }
        raise ProtocolError(f"unhandled auth mode {design.device_auth}")  # pragma: no cover

    def register_with_cloud(self) -> bool:
        """Send the registration status message (Figure 1 step 2)."""
        message = StatusMessage(
            model=self.model,
            firmware_version=self.firmware_version,
            telemetry=self.read_telemetry(),
            is_registration=True,
            **self._auth_fields(self.model),
        )
        if not self._send_to_cloud(message):
            return False
        self.connected = True
        # Device-initiated binding happens right after registration.
        if self._pending_user_credential is not None:
            self._send_device_bind(self._pending_user_credential)
            self._pending_user_credential = None
        return True

    def heartbeat(self) -> None:
        """One heartbeat: status up, then poll for commands."""
        if not self.powered or self._lan_id is None:
            return
        message = StatusMessage(
            model=self.model,
            firmware_version=self.firmware_version,
            telemetry=self.read_telemetry(),
            **self._auth_fields(self.model),
        )
        if not self._send_to_cloud(message):
            self.connected = False
            return
        self.connected = True
        self.poll_commands()

    def poll_commands(self) -> None:
        """DeviceFetch: drain relayed commands and execute them."""
        fetch = DeviceFetch(
            post_binding_token=self.post_binding_token, **self._auth_fields()
        )
        try:
            response = self._cloud_request(fetch)
        except (RequestRejected, Exception) as exc:
            self.last_error = getattr(exc, "code", "network-error")
            return
        if not isinstance(response, Response):
            return
        for item in response.payload.get("commands", []):
            self.apply_command(item["command"], item.get("arguments", {}))
            self.executed_commands.append(
                ExecutedCommand(
                    self.env.now,
                    item["command"],
                    dict(item.get("arguments", {})),
                    item.get("issued_by", "?"),
                )
            )
        schedule = response.payload.get("schedule")
        if schedule is not None:
            self.schedule = dict(schedule)
        self._run_schedule()

    def _run_schedule(self) -> None:
        """Execute on/off schedule entries that came due since last check.

        Schedules use virtual time of day ("HH:MM" within the 86400-second
        simulated day).  The paper's A1 case study sets exactly such a
        schedule on a smart plug (Section VI-B, device #10).
        """
        now = self.env.now
        previous = self._last_schedule_check
        self._last_schedule_check = now
        if previous is None or not self.schedule:
            return
        for action in ("on", "off"):
            spec = self.schedule.get(action)
            due = _parse_time_of_day(spec)
            if due is None:
                continue
            if _crossed_time_of_day(previous, now, due):
                self.apply_command(action, {})
                self.executed_commands.append(
                    ExecutedCommand(now, action, {}, "schedule")
                )

    def press_button(self) -> bool:
        """Physical button press: sends a fresh registration status.

        Device #7's binding flow requires this within the 30-second
        window so the cloud can compare source IPs (Section VI-B).
        """
        if not self.powered or self._lan_id is None:
            return False
        return self.register_with_cloud()

    def _send_to_cloud(self, message: Message) -> bool:
        try:
            self._cloud_request(message)
            return True
        except RequestRejected as exc:
            self.last_error = exc.code
            return False
        except Exception:
            self.last_error = "network-error"
            return False

    def _send_device_bind(self, credential: DeliverUserCredential) -> None:
        """Figure 4b: the device submits the binding with user credentials.

        The cloud's response may carry the device's half of the
        post-binding token (Section IV-B); keep it for future fetches.
        """
        message = BindMessage(
            device_id=self.device_id,
            user_id=credential.user_id,
            user_pw=credential.user_pw,
            origin=Origin.DEVICE,
        )
        try:
            response = self._cloud_request(message)
        except RequestRejected as exc:
            self.last_error = exc.code
            return
        except Exception:
            self.last_error = "network-error"
            return
        if isinstance(response, Response):
            token = response.payload.get("post_binding_token")
            if token:
                self.post_binding_token = token
            fresh = response.payload.get("dev_token")
            if fresh:
                self.dev_token = fresh

    def _submit_bind_token(self, bind_token: str) -> None:
        """Figure 4c: the device confirms a capability binding."""
        if not self.connected and self.powered and self._lan_id is not None:
            self.register_with_cloud()
        message = BindMessage(
            device_id=self.device_id, bind_token=bind_token, origin=Origin.DEVICE
        )
        try:
            response = self._cloud_request(message)
        except RequestRejected as exc:
            self.last_error = exc.code
            return
        if isinstance(response, Response):
            token = response.payload.get("post_binding_token")
            if token:
                self.post_binding_token = token

    def _start_heartbeats(self) -> None:
        if self._heartbeat_handle is not None:
            return
        self._heartbeat_handle = self.env.every(
            self.design.heartbeat_interval, self.heartbeat
        )

    # ------------------------------------------------------------------
    # local (LAN) protocol
    # ------------------------------------------------------------------

    def _handle_local(self, packet: Packet) -> Message:
        """Answer SSDP and local-configuration traffic from the app."""
        message = packet.message
        if isinstance(message, SsdpSearch):
            return SsdpDescription(
                device_id=self.device_id,
                model=self.model,
                vendor=self.design.name,
                services={"binding": "1"},
            )
        if isinstance(message, DeliverDevToken):
            self.dev_token = message.dev_token
            # Fresh credentials: reconnect right away so the cloud sees
            # the device online before the user proceeds to binding.
            if self.powered and self._lan_id is not None:
                self.register_with_cloud()
            return LocalAck(device_id=self.device_id, note="dev-token-installed")
        if isinstance(message, DeliverPostBindingToken):
            self.post_binding_token = message.token
            return LocalAck(device_id=self.device_id, note="post-token-installed")
        if isinstance(message, DeliverUserCredential):
            if self.design.bind_sender is not BindSender.DEVICE:
                return LocalAck(
                    device_id=self.device_id, accepted=False, note="not-device-initiated"
                )
            if self.connected:
                self._send_device_bind(message)
            else:
                self._pending_user_credential = message
            return LocalAck(device_id=self.device_id, note="credential-installed")
        if isinstance(message, DeliverBindToken):
            if self.design.bind_schema is not BindSchema.CAPABILITY:
                return LocalAck(
                    device_id=self.device_id, accepted=False, note="not-capability"
                )
            self._submit_bind_token(message.bind_token)
            return LocalAck(device_id=self.device_id, note="bind-token-submitted")
        raise ProtocolError(f"device cannot handle {type(message).__name__}")
