"""Fleet scenarios: one vendor cloud, many customers.

Section V-C warns that sequential device IDs enable "scalable
denial-of-service attacks to the entire product series of a vendor".
A :class:`FleetDeployment` builds that world: N independent victim
households (own LAN, phone, account, device) against one cloud, plus
the usual remote attacker.  The campaign tooling in
``repro.attacks.campaign`` then measures product-line-wide damage.

Two build modes exist (``docs/parallelism.md`` discusses the trade-off):

* ``build="replay"`` (default) — every household is factory fresh and
  must run the full Figure 1 flow through :meth:`setup_all`, exactly as
  the paper's experiments did;
* ``build="clone"`` — one *template* household runs Figure 1 once
  (login + provision + bind), and the remaining households are cloned
  from its resulting state snapshot: per-household identities and
  tokens are still unique and cloud-registered, but the per-household
  message flow is skipped.  The fleet comes up already bound, which is
  what pre-deployed campaigns (mass unbind) and capacity benchmarks
  need at 100+ households.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.app.mobile import KnownDevice, MobileApp
from repro.cloud.policy import DeviceAuthMode, VendorDesign
from repro.cloud.service import CloudService
from repro.core.errors import ConfigurationError, NetworkError, RequestRejected
from repro.device import DEVICE_CLASSES
from repro.device.base import DeviceFirmware
from repro.identity.device_ids import scheme_from_name
from repro.identity.keys import cached_keypair
from repro.identity.tokens import TokenKind
from repro.net.address import FleetIpAllocator
from repro.net.network import Network
from repro.net.provisioning import ProvisioningAir, WifiCredentials
from repro.obs.observer import Observer
from repro.sim.environment import Environment

#: Addresses a fleet's router IP allocator must never hand out.
RESERVED_FLEET_IPS = ("198.51.100.99", "52.0.0.1")  # attacker host, cloud

#: Valid values for :class:`FleetDeployment`'s *build* parameter.
BUILD_MODES = ("replay", "clone")

#: Value types a device state shares rather than copies.
_ATOMS = frozenset({str, int, float, bool, type(None)})


def _copy_state(value: Any) -> Any:
    """Copy a device state tree: dicts and lists rebuilt, scalars shared.

    Device states are small JSON-like trees, so this does what
    ``copy.deepcopy`` does at a fraction of its cost; any other value
    type falls back to ``copy.deepcopy``.
    """
    kind = type(value)
    if kind in _ATOMS:
        return value
    if kind is dict:
        return {key: _copy_state(item) for key, item in value.items()}
    if kind is list:
        return [_copy_state(item) for item in value]
    return copy.deepcopy(value)


@dataclass
class Household:
    """One customer: account, phone/app, device, home network."""

    index: int
    user_id: str
    password: str
    app: MobileApp
    device: DeviceFirmware
    lan_id: str
    ssid: str
    wifi_passphrase: str
    location: str


@dataclass
class WorldImage:
    """A picklable capture of a deployed fleet, ready to warm-start.

    Taken by :meth:`FleetDeployment.capture_image` after the Figure 1
    setup and a settling :meth:`FleetDeployment.run` — i.e. at exactly
    the point a deployed campaign (mass unbind, shadow probe, mass
    rebind) begins.  :meth:`FleetDeployment.from_image` turns it back
    into a live world whose every subsequent output is bit-identical to
    the captured one's.

    The image is *not* a pickled object graph.  It carries the cloud's
    genuine snapshot-v2 state plus the volatile overlays a snapshot
    deliberately sheds (see
    :meth:`~repro.cloud.service.CloudService.capture_campaign_state`;
    the forensic history rides there already decoded), per-household
    device/app field sets with each sensor's stream position, and the
    RNG / trace-counter stream positions.  Structure comes from the
    seed (identities, keys and addresses all derive from it), state
    from the image: a restore rebuilds the client side, loads the cloud
    stores from the image once, and overlays the device and app fields.
    Worker processes cache these per world key and restore them instead
    of re-running setup for every shard (``docs/performance.md``).
    """

    design: VendorDesign
    households: int
    seed: int
    build: str
    time: float
    cloud_state: Dict[str, Any]
    env_rng_state: Any
    trace_state: Dict[str, int]
    metrics: Optional[Dict[str, Any]]
    attacker_token: Optional[str]
    device_states: List[Dict[str, Any]] = field(default_factory=list)
    app_states: List[Dict[str, Any]] = field(default_factory=list)


class FleetDeployment:
    """A vendor cloud serving *households* customers, plus an attacker."""

    def __init__(
        self,
        design: VendorDesign,
        households: int = 5,
        seed: int = 0,
        observer: Optional[Observer] = None,
        build: str = "replay",
    ) -> None:
        self._assemble(design, households, seed, observer, build, register=True)

    def _assemble(
        self,
        design: VendorDesign,
        households: int,
        seed: int,
        observer: Optional[Observer],
        build: str,
        register: bool,
    ) -> None:
        """Build the world; *register* False leaves the cloud empty.

        The constructor registers every account and device with the
        cloud (and runs a clone build's template flow).
        :meth:`from_image` passes ``register=False``: it builds only the
        client side — LANs, nodes, devices, apps and the seed's ID
        draws — and then loads the cloud from the image.
        """
        if households < 1:
            raise ConfigurationError("a fleet needs at least one household")
        if build not in BUILD_MODES:
            raise ConfigurationError(f"unknown fleet build mode {build!r}")
        self.design = design
        self.build = build
        #: True once every household is bound at construction time
        #: (clone mode); replay fleets flip this in :meth:`setup_all`.
        self.prebound = False
        self.env = Environment(seed=seed, observer=observer)
        self.network = Network(self.env)
        self.air = ProvisioningAir()
        self.cloud = CloudService(self.env, self.network, design)
        self.id_scheme = scheme_from_name(
            design.id_scheme, oui=design.id_oui, digits=design.id_serial_digits
        )
        self._ips = FleetIpAllocator(reserved=RESERVED_FLEET_IPS)
        self.households: List[Household]
        with self.env.observer.span(
            "fleet:build", kind="phase", vendor=design.name,
            households=households, build=build,
        ):
            if not register:
                self.households = [
                    self._build_client(index) for index in range(households)
                ]
            elif build == "clone":
                self.households = self._build_cloned(households)
            else:
                self.households = [
                    self._build_household(index) for index in range(households)
                ]
        # The attacker: an account and an internet-facing host, no LAN
        # access to anyone.
        self.attacker_user = "mallory@example.com"
        self.attacker_password = "mallory-pw"
        if register:
            self.cloud.accounts.register(self.attacker_user, self.attacker_password)
        self.network.add_internet_node("attacker:host", None, "198.51.100.99")
        self._attacker_token: Optional[str] = None

    # ------------------------------------------------------------------

    def _build_household(self, index: int) -> Household:
        """One factory-fresh household, registered with the cloud."""
        household = self._build_client(index)
        device = household.device
        self.cloud.accounts.register(household.user_id, household.password)
        self.cloud.manufacture_device(
            device.device_id,
            self.design.device_type,
            device.keypair.public if device.keypair is not None else None,
        )
        return household

    def _build_client(self, index: int) -> Household:
        """One household's client side: LAN, device, phone; no cloud records."""
        design = self.design
        user_id = f"user{index}@example.com"
        password = f"pw-{index}"
        lan_id = f"lan:home-{index}"
        ssid = f"home-wifi-{index}"
        passphrase = f"wifi pass {index}"
        location = f"home:{index}"
        self.network.create_lan(
            lan_id, ssid, passphrase,
            public_ip=self._ips.allocate(),
            subnet_prefix="192.168.1",
        )
        device_id = self.id_scheme.issue(self.env.rng)
        keypair = None
        if design.device_auth is DeviceAuthMode.PUBKEY:
            keypair = cached_keypair(self.env.rng.fork(f"keys-{device_id}"), device_id)
        device = DEVICE_CLASSES[design.device_type](
            env=self.env, network=self.network, air=self.air, design=design,
            device_id=device_id, location=location, keypair=keypair,
            node_name=f"device:{index}",
        )
        app = MobileApp(
            env=self.env, network=self.network, air=self.air, design=design,
            user_id=user_id, password=password, location=location,
            node_name=f"app:{index}",
        )
        app.join_wifi(lan_id, passphrase)
        return Household(index, user_id, password, app, device,
                         lan_id, ssid, passphrase, location)

    # -- template cloning (the fleet-construction fast path) -------------

    def _build_cloned(self, households: int) -> List[Household]:
        """Build one bound template household, then clone its state N-1 times."""
        template = self._build_household(0)
        if not self.setup_household(template):
            raise ConfigurationError(
                f"template household setup failed on {self.design.name}; "
                "a clone-built fleet needs a bindable design"
            )
        built = [template]
        with self.env.observer.span(
            "fleet:clone", kind="phase", clones=households - 1
        ):
            for index in range(1, households):
                built.append(self._clone_household(index, template))
        self.prebound = True
        return built

    def _clone_household(self, index: int, template: Household) -> Household:
        """One already-bound household, built without the Figure 1 flow."""
        household = self._build_household(index)
        self._install_bound_state(household, template)
        return household

    def _install_bound_state(self, household: Household, template: Household) -> None:
        """Store-level clone of the post-Figure-1 state the template reached.

        The app and firmware sides are written directly (a live session
        token, Wi-Fi membership, fresh per-clone authentication material
        — tokens are never shared between households); the *cloud* side
        goes through the state layer: the template's binding and shadow
        records are cloned per record via
        :meth:`~repro.cloud.state.protocol.RecordStoreBase.clone_record`
        with a transform that re-keys them to this household.  The
        shadow store decodes its record by replaying events, so the
        clone still takes real Figure 2 transitions (1) then (4) and
        fires the same observer hooks the message flow would.
        """
        design, cloud, env = self.design, self.cloud, self.env
        app, device = household.app, household.device
        device_id = device.device_id
        now = env.now
        t_device = template.device
        t_binding = cloud.bindings.get(t_device.device_id)
        # App side: a live session without the login round trip.
        app.user_token = cloud.accounts.login(
            household.user_id, household.password, now
        )
        # Device side: provisioned, associated, connected.
        device.powered = True
        device.wifi = WifiCredentials(household.ssid, household.wifi_passphrase)
        self.network.join_lan(
            device.node_name, household.lan_id, household.wifi_passphrase
        )
        device._lan_id = household.lan_id
        device.connected = t_device.connected
        device.state = _copy_state(t_device.state)
        device.schedule = dict(t_device.schedule)
        if design.device_auth is DeviceAuthMode.DEV_TOKEN:
            device.dev_token = cloud.registry.issue_dev_token(
                device_id, household.user_id, now
            )
        # Fresh per-clone post-binding token, drawn in the same RNG order
        # the replay flow uses (login, DevToken, then post token).
        post_token: Optional[str] = None
        if t_binding is not None and t_binding.post_token is not None:
            post_token = cloud.tokens.issue(
                TokenKind.POST_BINDING, f"{device_id}:{household.user_id}", now
            )
        lan = self.network.lan(household.lan_id)

        if t_binding is not None:

            def rekey_binding(record: dict) -> dict:
                """Re-key the template binding to this household."""
                record.update(
                    device_id=device_id,
                    user_id=household.user_id,
                    created_at=now,
                    post_token=post_token,
                )
                return record

            cloud.bindings.clone_record(t_device.device_id, rekey_binding)

        def rekey_shadow(record: dict) -> dict:
            """Re-key the template shadow; replay re-takes (1) and (4)."""
            record.update(
                device_id=device_id,
                time=now,
                connection_id=device.node_name,
                reported_model=device.model,
                reported_firmware=device.firmware_version,
            )
            if record.get("bound_user") is not None:
                record["bound_user"] = household.user_id
            record["registration"] = {
                "time": now,
                "source_ip": str(lan.router.public_ip),
            }
            return record

        cloud.shadows.clone_record(t_device.device_id, rekey_shadow)

        if t_binding is not None:
            if t_device.post_binding_token is not None:
                device.post_binding_token = post_token
            t_known = template.app.devices.get(t_device.device_id)
            if t_known is not None:
                app.devices[device_id] = KnownDevice(
                    device_id,
                    device.model,
                    post_token if t_known.post_binding_token is not None else None,
                )
            cloud.notify(household.user_id, "binding-created", device_id)
        device._start_heartbeats()

    # ------------------------------------------------------------------

    def attacker_token(self) -> str:
        if self._attacker_token is None:
            from repro.core.messages import LoginRequest

            response = self.network.request(
                "attacker:host", self.cloud.node_name,
                LoginRequest(self.attacker_user, self.attacker_password),
            )
            self._attacker_token = response.user_token
        return self._attacker_token

    def setup_household(self, household: Household) -> bool:
        """Run the Figure 1 flow for one customer; True on success."""
        obs = self.env.observer
        with obs.profile("fleet.setup_household"), obs.span(
            f"household:{household.index}", kind="phase", user=household.user_id
        ):
            return self._setup_household(household)

    def _setup_household(self, household: Household) -> bool:
        app, device = household.app, household.device
        try:
            if app.user_token is None:
                app.login()
            device.power_on()
            app.provision_wifi(household.ssid, household.wifi_passphrase)
            try:
                app.local_configure(device)
            except RequestRejected:
                return False
            if self.design.ip_match_required:
                device.press_button()
            return app.bind_device(device)
        except (RequestRejected, NetworkError):
            # Chaos (loss, partitions, brownouts) failing the Figure 1
            # flow is a real denial, not an experiment-script crash.
            return False

    def setup_all(self) -> int:
        """Set up every household; returns how many succeeded.

        Clone-built fleets come up already bound, so this is a no-op for
        them (it reports every household as succeeded).
        """
        if self.prebound:
            return len(self.households)
        with self.env.observer.span("fleet:setup", kind="phase"):
            return sum(
                1 for household in self.households if self.setup_household(household)
            )

    def run(self, seconds: float) -> None:
        """Advance the whole fleet's world by *seconds* virtual seconds."""
        with self.env.observer.span("fleet:run", kind="phase", seconds=seconds):
            self.env.run_for(seconds)

    # -- world images (campaign warm start) -----------------------------

    def capture_image(self) -> WorldImage:
        """Freeze this deployed world as a :class:`WorldImage`.

        Call after :meth:`setup_all` + :meth:`run` — the deployed-
        campaign start line.  Worlds with resilience clients installed
        (chaos shards) are refused: their retry RNGs and breaker state
        are mid-flight machinery the image format deliberately omits,
        and chaos shards always run cold anyway.
        """
        for household in self.households:
            if household.device._client is not None or household.app._client is not None:
                raise ConfigurationError(
                    "cannot capture a world image with resilience clients "
                    "installed; chaos shards run cold"
                )
        device_states: List[Dict[str, Any]] = []
        app_states: List[Dict[str, Any]] = []
        for household in self.households:
            device = household.device
            device_states.append(
                {
                    "powered": device.powered,
                    "wifi": device.wifi,
                    "lan_id": device._lan_id,
                    "dev_token": device.dev_token,
                    "post_binding_token": device.post_binding_token,
                    "pending_user_credential": device._pending_user_credential,
                    "listening": device._stop_listening is not None,
                    "connected": device.connected,
                    "last_error": device.last_error,
                    "executed_commands": list(device.executed_commands),
                    "schedule": dict(device.schedule),
                    "last_schedule_check": device._last_schedule_check,
                    "state": _copy_state(device.state),
                    "sensor": (
                        sensor.position()
                        if (sensor := device.sensor_stream()) is not None
                        else None
                    ),
                    "heartbeat_next": (
                        device._heartbeat_handle.time
                        if device._heartbeat_handle is not None
                        else None
                    ),
                }
            )
            app = household.app
            app_states.append(
                {
                    "user_token": app.user_token,
                    "devices": {
                        device_id: KnownDevice(
                            known.device_id, known.model, known.post_binding_token
                        )
                        for device_id, known in app.devices.items()
                    },
                }
            )
        observer = self.env.observer
        metrics = (
            observer.metrics.snapshot() if hasattr(observer, "metrics") else None
        )
        return WorldImage(
            design=self.design,
            households=len(self.households),
            seed=self.env.rng.seed,
            build=self.build,
            time=self.env.now,
            cloud_state=self.cloud.capture_campaign_state(),
            env_rng_state=self.env.rng.getstate(),
            trace_state=self.network.trace_state(),
            metrics=metrics,
            attacker_token=self._attacker_token,
            device_states=device_states,
            app_states=app_states,
        )

    @classmethod
    def from_image(
        cls, image: WorldImage, observer: Optional[Observer] = None
    ) -> "FleetDeployment":
        """Resume a captured world: structure from the seed, state from the image.

        Builds the client side exactly as the original build did (LANs,
        nodes, devices, apps; identities, keys and addresses all derive
        from the seed) but registers nothing with the cloud and runs no
        Figure 1 flow.  The image's cloud state then loads once into the
        empty stores, and the overlays install what setup and run
        changed: device/app fields, sensor streams, scheduler phases,
        RNG and trace-counter positions.  Finally the observer's metrics
        registry becomes the captured snapshot (the restore emits no
        transitions of its own).  A campaign run on the result is
        bit-identical to one run on the captured world.
        """
        fleet = cls.__new__(cls)
        fleet._assemble(
            image.design, image.households, image.seed, observer, image.build,
            register=False,
        )
        fleet.cloud.restore_campaign_state(image.cloud_state)
        registry = fleet.cloud.registry
        if not all(
            registry.is_registered(household.device.device_id)
            for household in fleet.households
        ):
            raise ConfigurationError(
                "world image does not match the rebuild of its seed"
            )
        now = fleet.env.now
        for household, device_state, app_state in zip(
            fleet.households, image.device_states, image.app_states
        ):
            device = household.device
            device.powered = device_state["powered"]
            device.wifi = device_state["wifi"]
            device.dev_token = device_state["dev_token"]
            device.post_binding_token = device_state["post_binding_token"]
            device._pending_user_credential = device_state["pending_user_credential"]
            device.connected = device_state["connected"]
            device.last_error = device_state["last_error"]
            device.executed_commands = list(device_state["executed_commands"])
            device.schedule = dict(device_state["schedule"])
            device._last_schedule_check = device_state["last_schedule_check"]
            device.state = _copy_state(device_state["state"])
            if device_state["sensor"] is not None:
                device.sensor_stream().resume(device_state["sensor"])
            lan_id = device_state["lan_id"]
            if lan_id is not None:
                fleet.network.join_lan(
                    device.node_name, lan_id, household.wifi_passphrase
                )
                device._lan_id = lan_id
            heartbeat_next = device_state["heartbeat_next"]
            if heartbeat_next is not None:
                device._heartbeat_handle = fleet.env.every(
                    device.design.heartbeat_interval,
                    device.heartbeat,
                    start_delay=heartbeat_next - now,
                )
            if device_state["listening"] and device.wifi is None:
                device.enter_provisioning_mode()
            app = household.app
            app.user_token = app_state["user_token"]
            app.devices = {
                device_id: KnownDevice(
                    known.device_id, known.model, known.post_binding_token
                )
                for device_id, known in app_state["devices"].items()
            }
        fleet.network.restore_trace_state(image.trace_state)
        fleet.env.rng.setstate(image.env_rng_state)
        fleet._attacker_token = image.attacker_token
        fleet.prebound = True
        obs = fleet.env.observer
        if image.metrics is not None and hasattr(obs, "restore_metrics"):
            obs.restore_metrics(image.metrics)
        return fleet

    def close(self) -> None:
        """Break the world's reference cycles so refcounting frees it.

        Call once the world's results are read (``run_shard`` closes
        every world it builds after its :class:`ShardResult` exists).
        The scheduler drops its pending callbacks, the network its node
        handlers, the provisioning air its listeners and the cloud its
        handler tables — every edge by which a device, app or cloud
        points back at itself through the shared world.  Nothing the
        world returned (reports, snapshots) points into it, so those
        stay valid; the closed world runs no further events.
        """
        self.cloud.close()
        self.network.close()
        self.env.scheduler.close()
        self.air.close()

    def bound_users(self) -> Dict[str, Optional[str]]:
        """device_id -> bound account, fleet-wide."""
        return {
            household.device.device_id: self.cloud.bound_user_of(
                household.device.device_id
            )
            for household in self.households
        }
