"""Hash function interfaces and the paper's bit conventions.

Conventions (used consistently across the whole repository):

* A hash value is an ``int`` in ``[0, 2**out_bits)`` whose **most
  significant bit is row 0**, i.e. the paper's "first bit".  Numeric order
  on values therefore equals lexicographic order on output bit strings,
  which is what the Minimum sketch and FindMin rely on.
* The paper's prefix-slice ``h_m`` ("the first m bits of h") is
  ``value >> (out_bits - m)``.
* The Bucketing cell membership test ``h_m(x) == 0^m`` is
  ``cell_level(value) >= m`` where :func:`cell_level` counts leading zero
  rows.
* The Estimation sketch's ``TrailZero`` counts trailing (least significant)
  zero bits of the value, i.e. zero *last* rows -- exactly the paper's
  "least significant bits equal to zero" in Proposition 3.
"""

from __future__ import annotations

import abc
import threading
from typing import List, Protocol, Sequence, Tuple, runtime_checkable

import numpy as _np

from repro.common.bitvec import trailing_zeros
from repro.common.rng import RandomSource
from repro.gf2.matrix import transpose
from repro.kernels import get_kernel

#: Publication lock for the lazily built byte tables and column tables.
#: Module level (not per instance): ``LinearHash`` is ``__slots__``-lean
#: and pickled by the thousands into worker payloads, and the lock is
#: held only for the compare-and-publish, so contention is nil.
_PACK_LOCK = threading.Lock()


def int_to_words(value: int, words: int):
    """Split a hash value into ``words`` uint64 words, most significant
    first: the row layout of :meth:`LinearHash.values_batch_words`."""
    return _np.array([(value >> (64 * (words - 1 - w))) & 0xFFFFFFFFFFFFFFFF
                      for w in range(words)], dtype=_np.uint64)


def cell_level(value: int, out_bits: int) -> int:
    """Number of leading zero rows: the deepest level ``m`` such that the
    prefix-slice ``h_m(x)`` is ``0^m``."""
    if value >> out_bits:
        raise ValueError("hash value wider than out_bits")
    return out_bits - value.bit_length()


def trail_zeros_of_value(value: int, out_bits: int) -> int:
    """The paper's ``TrailZero``: trailing zero bits of the hash value."""
    return trailing_zeros(value, out_bits)


@runtime_checkable
class HashFunction(Protocol):
    """A sampled hash function ``{0,1}^in_bits -> {0,1}^out_bits``."""

    in_bits: int
    out_bits: int

    def value(self, x: int) -> int:
        """Full hash value (row 0 at the most significant bit)."""
        ...

    def prefix_value(self, x: int, m: int) -> int:
        """The paper's prefix slice ``h_m(x)`` as an ``m``-bit int."""
        ...

    @property
    def seed_bits(self) -> int:
        """Bits needed to transmit this function (distributed accounting)."""
        ...


class HashFamily(abc.ABC):
    """A distribution over hash functions; ``sample`` draws one."""

    def __init__(self, in_bits: int, out_bits: int) -> None:
        if in_bits < 0 or out_bits < 0:
            raise ValueError("hash dimensions must be non-negative")
        self.in_bits = in_bits
        self.out_bits = out_bits

    @abc.abstractmethod
    def sample(self, rng: RandomSource) -> HashFunction:
        """Draw a uniform member of the family."""

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(in_bits={self.in_bits}, "
                f"out_bits={self.out_bits})")


class LinearHash:
    """An affine GF(2) hash ``h(x) = A x + b``.

    ``rows[r]`` is row ``r`` of ``A`` (input bit ``j`` at position ``j``) and
    ``offsets[r]`` the bit ``b_r``.  Being affine is what lets the counting
    algorithms push ``h_m(x) = 0^m`` into a SAT solver as XOR constraints
    (:meth:`prefix_constraints`) and intersect with DNF terms by Gaussian
    elimination.
    """

    __slots__ = ("in_bits", "out_bits", "rows", "offsets", "_seed_bits",
                 "_pack", "_columns")

    is_linear = True

    def __init__(self, in_bits: int, rows: Sequence[int],
                 offsets: Sequence[int],
                 seed_bits: int | None = None) -> None:
        if len(rows) != len(offsets):
            raise ValueError("rows and offsets must have equal length")
        self.in_bits = in_bits
        self.out_bits = len(rows)
        self.rows = list(rows)
        self.offsets = [b & 1 for b in offsets]
        self._seed_bits = (seed_bits if seed_bits is not None
                           else self.out_bits * (in_bits + 1))
        self._pack = None  # Lazily built byte table, see _table().
        self._columns = None  # Lazily built column table, see columns().

    @property
    def seed_bits(self) -> int:
        """Bits needed to transmit this function (distributed accounting);
        ``out_bits * (in_bits + 1)`` unless the family stores a shorter
        seed, as Toeplitz hashing does."""
        return self._seed_bits

    def __getstate__(self):
        # The byte table and column table are scratch state: dropping
        # them keeps pickles (worker task payloads, sketch replicas
        # shipped to a process pool) small, and each is rebuilt lazily on
        # first use.
        return {"in_bits": self.in_bits, "out_bits": self.out_bits,
                "rows": self.rows, "offsets": self.offsets,
                "_seed_bits": self._seed_bits}

    def __setstate__(self, state) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._pack = None
        self._columns = None

    def _table(self):
        """The byte table, built once and reused across chunks.

        A ``(in_bytes, 256, W)`` uint64 array, ``W = ceil(out_bits/64)``:
        entry ``[k, v]`` is the XOR of the columns of the input bits
        ``8k .. 8k+7`` set in ``v``, as ``W`` words most significant
        first, with the offset ``b`` folded into byte 0.  ``h(x)`` is
        linear in ``x``, so it is the XOR over ``k`` of
        ``table[k, byte k of x]``: one gather per input byte instead of
        one parity sweep per output bit.

        Thread-parallel tasks share hash objects by reference (the
        ``ThreadExecutor`` ships nothing), so a cold cache can be hit
        concurrently: the table is built into a local and published
        with a single attribute assignment, making a duplicate build the
        worst case -- never a reader observing a half-filled table.
        """
        table = self._pack
        if table is None:
            m = self.out_bits
            words = max(1, -(-m // 64))
            in_bytes = max(1, -(-self.in_bits // 8))
            # bits[j, r] is input bit j of row r; row r is value bit
            # m - 1 - r, i.e. bit pos & 63 of word (W - 1 - pos // 64).
            bits = (_np.array(self.rows, dtype=_np.uint64)[_np.newaxis, :]
                    >> _np.arange(8 * in_bytes, dtype=_np.uint64)[:, None]
                    ) & _np.uint64(1)
            pos = m - 1 - _np.arange(m)
            cols = _np.zeros((8 * in_bytes, words), dtype=_np.uint64)
            for w in range(words):
                sel = (words - 1 - (pos >> 6)) == w
                cols[:, w] = _np.bitwise_or.reduce(
                    bits[:, sel] << (pos[sel] & 63).astype(_np.uint64),
                    axis=1)
            cols = cols.reshape(in_bytes, 8, words)
            table = _np.zeros((in_bytes, 256, words), dtype=_np.uint64)
            for i in range(8):  # Entries with top bit i: add column i.
                table[:, 1 << i:2 << i] = (table[:, :1 << i]
                                           ^ cols[:, i, _np.newaxis, :])
            table[0] ^= int_to_words(self.packed_offset(), words)
            with _PACK_LOCK:
                if self._pack is None:
                    self._pack = table
                else:
                    table = self._pack
        return table

    def columns(self) -> Tuple[int, ...]:
        """The linear part in column form, in value order: entry ``j`` is
        ``A e_j`` packed like :meth:`value` (row 0 at the MSB), so
        ``value(x)`` is the XOR of the columns of ``x``'s set bits with
        :meth:`packed_offset`.

        Built once per hash by one :func:`~repro.gf2.matrix.transpose`
        and published like :meth:`_table`: a cold cache hit concurrently
        costs at most a duplicate build of an equal table.
        """
        columns = self._columns
        if columns is None:
            # Row r is output bit (m - 1 - r); the transpose puts row r of
            # its argument at bit r, so feed rows in reversed order.
            columns = tuple(transpose(self.rows[::-1], self.in_bits))
            with _PACK_LOCK:
                if self._columns is None:
                    self._columns = columns
                else:
                    columns = self._columns
        return columns

    def value(self, x: int) -> int:
        """Full hash value, row 0 at the MSB."""
        m = self.out_bits
        out = 0
        for r, row in enumerate(self.rows):
            bit = ((row & x).bit_count() + self.offsets[r]) & 1
            if bit:
                out |= 1 << (m - 1 - r)
        return out

    def prefix_value(self, x: int, m: int) -> int:
        """``h_m(x)``: the first ``m`` output bits as an ``m``-bit int."""
        if not 0 <= m <= self.out_bits:
            raise ValueError("prefix length out of range")
        out = 0
        for r in range(m):
            bit = ((self.rows[r] & x).bit_count() + self.offsets[r]) & 1
            if bit:
                out |= 1 << (m - 1 - r)
        return out

    def cell_level(self, x: int) -> int:
        """Largest ``m`` with ``h_m(x) = 0^m`` (leading zero rows)."""
        return cell_level(self.value(x), self.out_bits)

    def _batchable(self) -> bool:
        """Whether the numpy table path applies (inputs fit uint64)."""
        return self.in_bits <= 64

    def _gather(self, xs):
        """Hash a chunk through :meth:`_table`: ``(N, W)`` uint64 words,
        most significant first.  Input bits beyond ``8 * in_bytes`` are
        never read; those between ``in_bits`` and there meet zero
        columns, so both are ignored exactly as :meth:`value` ignores
        them."""
        table = self._table()
        data = _np.ascontiguousarray(xs, dtype="<u8").view(_np.uint8)
        data = data.reshape(-1, 8)
        out = table[0][data[:, 0]]
        for k in range(1, table.shape[0]):
            out ^= table[k][data[:, k]]
        return out

    def values_batch(self, xs) -> "object":
        """Vectorised :meth:`value` over a numpy array of inputs.

        Requires ``out_bits <= 64`` (values are returned as uint64, row 0
        at the MSB of the ``out_bits``-wide value, same convention as the
        scalar path).  Falls back to a python loop for inputs wider than 64
        bits.
        """
        if self.out_bits > 64:
            raise ValueError("values_batch requires out_bits <= 64")
        if not self._batchable():
            return [self.value(int(x)) for x in xs]
        return self._gather(xs)[:, 0]

    def values_batch_words(self, xs) -> "object":
        """Vectorised :meth:`value` for arbitrary ``out_bits``: an
        ``(N, W)`` uint64 array with ``W = ceil(out_bits / 64)`` words per
        value, **most significant word first**, so that lexicographic order
        on rows equals numeric order on values (the Minimum sketch's wide
        3n-bit hashes flow through here).  Returns ``None`` for inputs wider
        than 64 bits (caller falls back to scalar hashing).
        """
        if not self._batchable():
            return None
        return self._gather(xs)

    @staticmethod
    def words_to_int(word_row) -> int:
        """Recombine one row of :meth:`values_batch_words` into the scalar
        hash value (most significant word first)."""
        value = 0
        for w in word_row:
            value = (value << 64) | int(w)
        return value

    def trail_zeros_batch(self, xs) -> "object":
        """Vectorised :meth:`trail_zeros` (requires ``out_bits <= 64``)."""
        if not self._batchable() or self.out_bits > 64:
            return [self.trail_zeros(int(x)) for x in xs]
        return get_kernel().trail_zeros_batch(
            self.values_batch(xs), self.out_bits)

    def cell_levels_batch(self, xs) -> "object":
        """Vectorised :meth:`cell_level`: per-element count of leading
        hash rows equal to zero (numpy uint64 in, int64 array out)."""
        if not self._batchable():
            return [self.cell_level(int(x)) for x in xs]
        words = self._gather(xs)
        n, w = words.shape
        # cell_level(v) == out_bits - bit_length(v); the bit length is
        # that of the first nonzero word plus 64 per word after it.
        lengths = get_kernel().bit_length_batch(words.ravel()).reshape(n, w)
        nonzero = lengths > 0
        first = nonzero.argmax(axis=1)
        top = lengths[_np.arange(n), first] + 64 * (w - 1 - first)
        return self.out_bits - _np.where(nonzero.any(axis=1), top, 0)

    def in_cell(self, x: int, m: int) -> bool:
        """Bucketing membership test ``h_m(x) == 0^m``."""
        return self.prefix_value(x, m) == 0

    def trail_zeros(self, x: int) -> int:
        """``TrailZero(h(x))``."""
        return trailing_zeros(self.value(x), self.out_bits)

    def prefix_constraints(self, m: int,
                           target: int = 0) -> List[Tuple[int, int]]:
        """XOR constraints asserting ``h_m(x) == target``.

        Returns ``(mask, rhs)`` pairs: each demands
        ``parity(mask & x) == rhs``.  ``target`` is an ``m``-bit value in the
        usual MSB-first row order.
        """
        if not 0 <= m <= self.out_bits:
            raise ValueError("prefix length out of range")
        if target >> m:
            raise ValueError("target wider than prefix")
        constraints = []
        for r in range(m):
            want = (target >> (m - 1 - r)) & 1
            constraints.append((self.rows[r], want ^ self.offsets[r]))
        return constraints

    def suffix_constraints(self, t: int) -> List[Tuple[int, int]]:
        """XOR constraints asserting the *last* ``t`` output bits are zero
        (the FindMaxRange query of Proposition 3 for linear hashes)."""
        if not 0 <= t <= self.out_bits:
            raise ValueError("suffix length out of range")
        constraints = []
        for r in range(self.out_bits - t, self.out_bits):
            constraints.append((self.rows[r], self.offsets[r]))
        return constraints

    def packed_offset(self) -> int:
        """The offset vector ``b`` packed in value order (row 0 at MSB)."""
        m = self.out_bits
        out = 0
        for r, b in enumerate(self.offsets):
            if b:
                out |= 1 << (m - 1 - r)
        return out

    def image_space(self, space) -> "object":
        """The image ``{h(x) : x in space}`` as an affine subspace of the
        *value* space (numeric order == lexicographic order).

        The ``p`` lexicographically smallest hash values of a term are
        ``image_space(term space).smallest_elements(p)`` (FindMin's
        prefix-search oracle and the structured streams use this; the
        DNF FindMin path reduces the hash's graph once instead).  The
        map runs in column form (:meth:`columns`), one XOR per set bit of
        the space's origin and basis vectors.
        """
        return space.image(self.columns(), self.packed_offset(),
                           self.out_bits)

    def row_slice(self, m: int) -> "LinearHash":
        """The prefix-slice ``h_m`` as a standalone hash function."""
        return LinearHash(self.in_bits, self.rows[:m], self.offsets[:m],
                          seed_bits=self._seed_bits)

    def __repr__(self) -> str:
        return (f"LinearHash(in_bits={self.in_bits}, "
                f"out_bits={self.out_bits})")
