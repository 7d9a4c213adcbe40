"""Exact F0 by keeping the distinct set -- the test-suite ground truth.

Implements the full :class:`~repro.streaming.base.F0Sketch` contract so
the exact counter can stand in anywhere a sketch can (chunked drivers,
parallel scatter, merge-based combines) while staying bit-exact.
"""

from __future__ import annotations

from typing import Sequence


class ExactF0:
    """Set-based exact distinct counting (O(F0) space, no error)."""

    #: Unhashed: any non-negative int is an item, however wide.
    universe_bits = None

    def __init__(self) -> None:
        self._seen: set = set()

    def process(self, x: int) -> None:
        self._seen.add(x)

    def process_batch(self, xs: Sequence[int]) -> None:
        self._seen.update(int(x) for x in xs)

    def merge(self, other: "ExactF0") -> None:
        """Set union -- the trivially exact combine."""
        self._seen |= other._seen

    def estimate(self) -> float:
        return float(len(self._seen))

    def distinct(self) -> int:
        """The exact count as an integer."""
        return len(self._seen)

    def space_bits(self) -> int:
        """Bits held: the stored elements themselves (no seeds)."""
        return sum(max(1, x.bit_length()) for x in self._seen)

    def to_bytes(self) -> bytes:
        """Serialize to the versioned wire format (see
        :mod:`repro.store.serialize`)."""
        from repro.store.serialize import dumps
        return dumps(self)

    @classmethod
    def from_bytes(cls, data: bytes) -> "ExactF0":
        """Decode a frame produced by :meth:`to_bytes`."""
        from repro.store.serialize import loads_typed
        return loads_typed(data, cls)
