"""Network addressing: IPv4 and MAC address value types.

MAC addresses matter to the paper beyond plumbing: five of the ten
studied vendors derive the *device ID* from the MAC, whose first three
bytes are the manufacturer OUI — leaving only a 3-byte search space for
an attacker (Section I, Section III-A).  :class:`MacAddress` therefore
exposes the OUI/suffix split and the exact enumeration space.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional

from repro.core.errors import ProtocolError

_MAC_RE = re.compile(r"^([0-9a-f]{2}:){5}[0-9a-f]{2}$")
_IP_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")

#: Size of the device-specific portion of a MAC (3 bytes).
MAC_SUFFIX_SPACE = 256 ** 3


@lru_cache(maxsize=None)
def _check_ip(value: str) -> None:
    """Validate one dotted quad; each valid string is checked once per process.

    Unbounded on purpose: a process only ever sees the addresses of the
    worlds it builds, and fleet allocation is deterministic, so every
    world of a given size reuses the same strings.
    """
    match = _IP_RE.match(value)
    if not match or any(int(octet) > 255 for octet in match.groups()):
        raise ProtocolError(f"invalid IPv4 address: {value!r}")


@dataclass(frozen=True, order=True)
class IpAddress:
    """A dotted-quad IPv4 address."""

    value: str

    def __post_init__(self) -> None:
        _check_ip(self.value)

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, order=True)
class MacAddress:
    """A 48-bit MAC address, lowercase colon-separated."""

    value: str

    def __post_init__(self) -> None:
        if not _MAC_RE.match(self.value):
            raise ProtocolError(f"invalid MAC address: {self.value!r}")

    @property
    def oui(self) -> str:
        """The vendor-specific first three bytes (``aa:bb:cc``)."""
        return self.value[:8]

    @property
    def suffix(self) -> str:
        """The device-specific last three bytes (``dd:ee:ff``)."""
        return self.value[9:]

    @staticmethod
    def from_parts(oui: str, suffix: str) -> "MacAddress":
        """Build a MAC from an OUI and a device suffix."""
        return MacAddress(f"{oui}:{suffix}")

    @staticmethod
    def search_space_for_oui() -> int:
        """Candidate MACs an attacker must try once the OUI is known."""
        return MAC_SUFFIX_SPACE

    def __str__(self) -> str:
        return self.value


#: Address blocks a fleet allocator may draw router IPs from, in order:
#: the three RFC 5737 documentation /24s, then the RFC 6598 shared
#: address space (100.64.0.0/10) once those are exhausted — together
#: enough for ~4.2 million households without ever leaving ranges that
#: are guaranteed not to collide with real internet hosts.
FLEET_IP_BLOCKS = (
    ("192.0.2", 0, 0),       # TEST-NET-1: fixed /24
    ("198.51.100", 0, 0),    # TEST-NET-2: fixed /24
    ("203.0.113", 0, 0),     # TEST-NET-3: fixed /24
    ("100", 64, 127),        # shared address space: 100.{64..127}.{0..255}.x
)


class FleetIpAllocator:
    """Hands out unique, always-valid public IPs for fleet routers.

    Replaces the former ``203.0.{113 + index // 200}`` arithmetic, which
    overflowed the third octet past ~28k households.  Host octets run
    1–254 (never .0 or .255), and addresses listed in *reserved* — e.g.
    the attacker host or the cloud — are skipped.
    """

    def __init__(self, reserved: Optional[Iterable[str]] = None) -> None:
        self._reserved = frozenset(reserved or ())
        self._iter = self._addresses()

    def _addresses(self) -> Iterator[str]:
        """Yield every allocatable address across the blocks, in order."""
        for prefix, lo, hi in FLEET_IP_BLOCKS:
            if lo == hi == 0:  # a fixed /24 documentation block
                for host in range(1, 255):
                    yield f"{prefix}.{host}"
            else:  # 100.64.0.0/10: iterate second and third octets too
                for second in range(lo, hi + 1):
                    for third in range(256):
                        for host in range(1, 255):
                            yield f"{prefix}.{second}.{third}.{host}"

    def allocate(self) -> str:
        """Return the next unused address (validated via IpAddress)."""
        for address in self._iter:
            if address in self._reserved:
                continue
            return str(IpAddress(address))
        raise ProtocolError("fleet IP space exhausted (~4.2M households)")
