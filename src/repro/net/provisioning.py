"""Wi-Fi provisioning: SmartConfig / Airkiss over the local radio.

Before a wireless device can join the home LAN it must learn the SSID
and WPA2 passphrase.  SmartConfig (TI) and Airkiss (WeChat) encode the
credentials into packet-length patterns that a device in listening mode
can sniff off the air.  The simulation models the *radio locality* of
that channel: a broadcast is heard only by devices listening at the same
physical location, so a remote attacker can neither provision a
victim's device nor sniff the victim's credentials (credential-sniffing
attacks against SmartCfg are explicitly out of scope, Section VIII).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.core.errors import ProtocolError


@dataclass(frozen=True)
class WifiCredentials:
    """What a provisioning broadcast carries."""

    ssid: str
    passphrase: str


Listener = Callable[[WifiCredentials], None]


class ProvisioningAir:
    """The shared local radio medium for SmartConfig/Airkiss broadcasts."""

    def __init__(self) -> None:
        self._listeners: Dict[str, List[Listener]] = {}

    def listen(self, location: str, listener: Listener) -> Callable[[], None]:
        """Start listening at *location*; returns an unsubscribe callable."""
        if not location:
            raise ProtocolError("a listener needs a physical location")
        self._listeners.setdefault(location, []).append(listener)

        def stop() -> None:
            listeners = self._listeners.get(location, [])
            if listener in listeners:
                listeners.remove(listener)

        return stop

    def broadcast(self, location: str, credentials: WifiCredentials) -> int:
        """SmartConfig broadcast at *location*; returns listeners reached."""
        listeners = list(self._listeners.get(location, []))
        for listener in listeners:
            listener(credentials)
        return len(listeners)

    def close(self) -> None:
        """Drop every listener (each holds the device that is listening)."""
        self._listeners.clear()

    def listener_count(self, location: str) -> int:
        return len(self._listeners.get(location, []))
