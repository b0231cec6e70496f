"""Seeded randomness for the simulation.

A single :class:`DeterministicRandom` instance is threaded through the
environment so that token generation, MAC assignment, telemetry noise
and attack sampling are all reproducible from one seed.  Tokens are
generated from the seeded stream — they model *unguessable* secrets, not
cryptographic ones (see DESIGN.md §7).
"""

from __future__ import annotations

import random
import string
import zlib
from array import array
from typing import Optional, Sequence, Tuple, TypeVar, Union

T = TypeVar("T")

#: A stream position as :meth:`DeterministicRandom.position` marks it:
#: (words drawn since the seed, or the full state), pending Gaussian.
StreamPosition = Tuple[Union[int, array], Optional[float]]

_HEX = "0123456789abcdef"
_ALNUM = string.ascii_lowercase + string.digits


class DeterministicRandom:
    """Thin wrapper over :class:`random.Random` with domain helpers."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    # -- generic ---------------------------------------------------------

    def uniform(self, low: float, high: float) -> float:
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        return self._rng.randint(low, high)

    def choice(self, options: Sequence[T]) -> T:
        return self._rng.choice(options)

    def shuffle(self, items: list) -> None:
        self._rng.shuffle(items)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._rng.gauss(mu, sigma)

    # -- identifiers -----------------------------------------------------

    def hex_string(self, length: int) -> str:
        """A lowercase hex string of *length* characters."""
        return "".join(self._rng.choice(_HEX) for _ in range(length))

    def token(self, length: int = 32) -> str:
        """An opaque session/binding token (alphanumeric)."""
        return "".join(self._rng.choice(_ALNUM) for _ in range(length))

    def mac_suffix(self) -> str:
        """The 3 device-specific bytes of a MAC address, as ``xx:xx:xx``."""
        return ":".join(self.hex_string(2) for _ in range(3))

    def serial_digits(self, digits: int) -> str:
        """A numeric serial of exactly *digits* digits (may lead with 0)."""
        return "".join(self._rng.choice(string.digits) for _ in range(digits))

    # -- state capture ---------------------------------------------------

    def getstate(self):
        """The stream's full state (picklable; pairs with :meth:`setstate`).

        Lets a warm-started world resume the exact stream position a
        captured world had reached, so post-restore draws bit-match the
        original run's.
        """
        return (self.seed, self._rng.getstate())

    def setstate(self, state) -> None:
        """Restore a state captured by :meth:`getstate`.

        The derivation seed is restored too, so :meth:`fork` labels keep
        producing the same child streams they would have originally.
        """
        seed, rng_state = state
        self.seed = seed
        self._rng.setstate(rng_state)

    def position(self) -> StreamPosition:
        """A compact mark of how far this stream has advanced since its seed.

        A stream still inside its first Mersenne Twister block is marked
        by the number of 32-bit words drawn, which :meth:`resume` replays
        (far cheaper than installing a 625-word state).  Any other stream
        carries its full state as an ``array('I')``: 2.5 kB, where the
        tuple :meth:`getstate` returns takes about 25 kB.  Both forms keep
        the pending second Gaussian.
        """
        version, internal, gauss_next = self._rng.getstate()
        words = internal[-1] % (len(internal) - 1)
        replay = random.Random(self.seed)
        for _ in range(words):
            replay.getrandbits(32)
        if replay.getstate()[1] == internal:
            return words, gauss_next
        return array("I", internal), gauss_next

    def resume(self, position: StreamPosition) -> None:
        """Move to a :meth:`position` taken on a stream of the same seed.

        Call it on a stream nothing has drawn from since it was seeded
        (a world rebuild forks exactly those): a word-count mark is
        replayed from the current position.
        """
        mark, gauss_next = position
        if isinstance(mark, int):
            draw = self._rng.getrandbits
            for _ in range(mark):
                draw(32)
        else:
            self._rng.setstate((random.Random.VERSION, tuple(mark), None))
        self._rng.gauss_next = gauss_next

    def fork(self, label: str) -> "DeterministicRandom":
        """A derived, independent stream (stable for a given seed+label).

        Uses CRC32 rather than ``hash()`` so the derivation survives
        Python's per-process hash randomization.
        """
        derived = zlib.crc32(f"{self.seed}/{label}".encode("utf-8"))
        return DeterministicRandom(derived)
