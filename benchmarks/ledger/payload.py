"""Seeded item payloads and the delivery check.

An item is ``body | due_time f64 | sequence u64 | crc32 u32`` and is
exactly the workload's payload size.  The header sits *behind* the body so
the producer can extend a precomputed body CRC over 16 header bytes instead
of hashing a 256 KiB frame per put; the consumer hashes the whole item.
"""

from __future__ import annotations

import random
import struct
import zlib
from typing import List, Optional, Tuple

_HEADER = struct.Struct("<dQ")
_CRC = struct.Struct("<I")
_TRAILER = _HEADER.size + _CRC.size
#: Bodies are windows into one seeded buffer at this many offsets, so
#: consecutive items differ without generating fresh bytes per put.
_VARIANTS = 16
_STRIDE = 64


class PayloadFactory:
    """Builds the items of one run from ``--seed``."""

    def __init__(self, seed: int, size: int) -> None:
        if size <= _TRAILER:
            raise ValueError(f"payload size {size} leaves no body")
        self.size = size
        body_len = size - _TRAILER
        buffer = random.Random(seed).randbytes(
            body_len + _STRIDE * _VARIANTS)
        self._bodies = [buffer[i * _STRIDE:i * _STRIDE + body_len]
                        for i in range(_VARIANTS)]
        self._body_crcs = [zlib.crc32(body) for body in self._bodies]

    def make(self, sequence: int, due: float) -> bytes:
        variant = sequence % _VARIANTS
        header = _HEADER.pack(due, sequence)
        crc = zlib.crc32(header, self._body_crcs[variant])
        return b"".join((self._bodies[variant], header, _CRC.pack(crc)))


def parse(item: bytes) -> Optional[Tuple[float, int]]:
    """``(due_time, sequence)`` of *item*, or None when its CRC is wrong."""
    if len(item) <= _TRAILER:
        return None
    (crc,) = _CRC.unpack_from(item, len(item) - _CRC.size)
    if zlib.crc32(memoryview(item)[:-_CRC.size]) != crc:
        return None
    return _HEADER.unpack_from(item, len(item) - _TRAILER)


class Verifier:
    """Every item delivered exactly once, in put order, CRC intact.

    The consumer feeds each delivery as it happens; a duplicate, a
    reordering and a gap all show as "sequence is not the next one".
    """

    def __init__(self, size: int) -> None:
        self._size = size
        self._next = 0
        self.delivered = 0
        #: Count of bad deliveries; ``violations`` describes the first few.
        self.bad = 0
        self.violations: List[str] = []

    def deliver(self, timestamp: int, item: bytes) -> Optional[float]:
        """Check one delivery; returns its due time when it is good."""
        self.delivered += 1
        parsed = parse(item) if len(item) == self._size else None
        if parsed is None:
            self._flag(f"item at ts {timestamp} is corrupt "
                       f"({len(item)} bytes)")
            self._next = max(self._next, timestamp + 1)
            return None
        due, sequence = parsed
        expected, self._next = self._next, max(self._next, sequence + 1)
        if sequence != timestamp:
            self._flag(f"ts {timestamp} carries sequence {sequence}")
            return None
        if sequence != expected:
            kind = "duplicate or reordered" if sequence < expected \
                else "missing before it"
            self._flag(f"expected sequence {expected}, got {sequence} "
                       f"({kind})")
            return None
        return due

    def finish(self, put: int) -> List[str]:
        """All violations, given that *put* items were sent in total."""
        if self._next != put or self.delivered != put:
            self._flag(f"{put} items put, {self.delivered} delivered, "
                       f"next expected sequence {self._next}")
        return self.violations

    def _flag(self, message: str) -> None:
        self.bad += 1
        if len(self.violations) < 20:
            self.violations.append(message)
