"""The versioned binary wire format for F0 sketches and hash functions.

Every :class:`~repro.streaming.base.F0Sketch` implementation (Minimum,
Estimation, Bucketing, FlajoletMartin, Exact, Windowed) and the hash
functions they embed (:class:`~repro.hashing.base.LinearHash`,
:class:`~repro.hashing.kwise.KWiseHash`) serialize through one pair of
functions, :func:`dumps` / :func:`loads`.

Design rules:

* **Compact little-endian framing.**  A 4-byte magic (``RF0S``), a u16
  format version, a u8 kind tag, then a kind-specific payload built from
  fixed-width little-endian scalars and length-prefixed big integers
  (hash rows and hash values are ``3n``-bit quantities that overflow a
  machine word beyond 21-bit universes, so every potentially wide int is
  arbitrary-precision on the wire).
* **Bit-identical round trips.**  ``loads(dumps(sk))`` reconstructs a
  sketch whose ``estimate()`` and ``merge()`` behaviour is bit-identical
  to the original: hash seeds travel exactly (rows, offsets, GF(2^n)
  coefficients), floats travel as IEEE-754 doubles (Python's float),
  and the mutable state that estimates are a function of (kept minimum
  values, max-trail-zero vectors, bucket contents with cached cell
  levels) travels in full.  Scratch state (numpy layout caches,
  memoisation counters) is rebuilt lazily after load, like the pickle
  path.
* **Fail loudly, never garbage.**  A corrupted magic, an unknown format
  version, an unknown kind tag, a truncated payload or trailing bytes
  all raise :class:`StoreFormatError` -- a decoded sketch is either
  faithful or an exception, never a silently wrong estimate.

The format is the service's interchange unit: shard workers upload
serialized sketches and :class:`~repro.store.store.SketchStore`
snapshots concatenate them.  Sketch replicas crossing a local process
pool (:mod:`repro.parallel.streaming`) travel as pickles instead.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Tuple, Type

from repro.common.errors import ReproError
from repro.gf2.gf2n import GF2n
from repro.hashing.base import LinearHash
from repro.hashing.kwise import KWiseHash
from repro.store.factory import MAX_UNIVERSE_BITS
from repro.streaming.base import SketchParams, VersionedCache
from repro.streaming.bucketing import BucketingF0, BucketingRow
from repro.streaming.estimation import EstimationF0, EstimationRow
from repro.streaming.exact import ExactF0
from repro.streaming.flajolet_martin import FlajoletMartinF0
from repro.streaming.minimum import MinimumF0, MinimumRow
from repro.streaming.windowed import WindowedF0

#: First four bytes of every serialized object.
MAGIC = b"RF0S"

#: Current wire-format version; bumped on any incompatible layout change.
FORMAT_VERSION = 1


class StoreFormatError(ReproError):
    """A serialized payload is malformed, truncated, or from an
    incompatible format version."""


# --------------------------------------------------------------------------
# Kind tags (u8).  Hash functions share the sketch namespace so that one
# ``loads`` entry point can decode anything ``dumps`` produced.

KIND_LINEAR_HASH = 0x01
KIND_KWISE_HASH = 0x02
KIND_MINIMUM = 0x10
KIND_ESTIMATION = 0x11
KIND_BUCKETING = 0x12
KIND_FM = 0x13
KIND_EXACT = 0x14
KIND_LEGACY_SHARDED = 0x15  # Decode-only (see _dec_legacy_sharded).
KIND_WINDOWED = 0x16


# --------------------------------------------------------------------------
# Primitive writers.  Everything is little-endian; wide integers are
# u32-length-prefixed little-endian byte strings.

def _w_u8(out: List[bytes], v: int) -> None:
    out.append(struct.pack("<B", v))


def _w_u16(out: List[bytes], v: int) -> None:
    out.append(struct.pack("<H", v))


def _w_u32(out: List[bytes], v: int) -> None:
    out.append(struct.pack("<I", v))


def _w_u64(out: List[bytes], v: int) -> None:
    out.append(struct.pack("<Q", v))


def _w_i64(out: List[bytes], v: int) -> None:
    out.append(struct.pack("<q", v))


def _w_f64(out: List[bytes], v: float) -> None:
    out.append(struct.pack("<d", v))


def _w_bigint(out: List[bytes], v: int) -> None:
    """A non-negative arbitrary-precision int: u32 byte count + LE bytes."""
    if v < 0:
        raise StoreFormatError("wire big-ints are non-negative")
    nbytes = (v.bit_length() + 7) // 8
    out.append(struct.pack("<I", nbytes))
    out.append(v.to_bytes(nbytes, "little"))


def _w_bigint_list(out: List[bytes], values) -> None:
    _w_u32(out, len(values))
    for v in values:
        _w_bigint(out, int(v))


def _w_bits(out: List[bytes], bits) -> None:
    """A bit vector (e.g. LinearHash offsets), 8 bits per byte, LSB first."""
    _w_u32(out, len(bits))
    packed = bytearray((len(bits) + 7) // 8)
    for i, b in enumerate(bits):
        if b:
            packed[i >> 3] |= 1 << (i & 7)
    out.append(bytes(packed))


class _Reader:
    """Bounds-checked little-endian reader over one payload."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        end = self._pos + n
        if end > len(self._data):
            raise StoreFormatError("truncated payload")
        chunk = self._data[self._pos:end]
        self._pos = end
        return chunk

    def u8(self) -> int:
        """One unsigned byte."""
        return struct.unpack("<B", self._take(1))[0]

    def u16(self) -> int:
        """A little-endian unsigned 16-bit int."""
        return struct.unpack("<H", self._take(2))[0]

    def u32(self) -> int:
        """A little-endian unsigned 32-bit int."""
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        """A little-endian unsigned 64-bit int."""
        return struct.unpack("<Q", self._take(8))[0]

    def i64(self) -> int:
        """A little-endian signed 64-bit int."""
        return struct.unpack("<q", self._take(8))[0]

    def f64(self) -> float:
        """A little-endian IEEE-754 double."""
        return struct.unpack("<d", self._take(8))[0]

    def bigint(self) -> int:
        """A length-prefixed arbitrary-precision non-negative int."""
        nbytes = self.u32()
        return int.from_bytes(self._take(nbytes), "little")

    def bigint_list(self) -> List[int]:
        """A count-prefixed list of big-ints."""
        return [self.bigint() for _ in range(self.u32())]

    def bits(self) -> List[int]:
        """A count-prefixed bit vector (LSB-first packing)."""
        count = self.u32()
        packed = self._take((count + 7) // 8)
        return [(packed[i >> 3] >> (i & 7)) & 1 for i in range(count)]

    def expect_exhausted(self) -> None:
        """Raise unless the whole payload was consumed."""
        if self._pos != len(self._data):
            raise StoreFormatError(
                f"{len(self._data) - self._pos} trailing bytes after payload")


# --------------------------------------------------------------------------
# Shared fragments.

def _w_params(out: List[bytes], params: SketchParams) -> None:
    _w_f64(out, params.eps)
    _w_f64(out, params.delta)
    _w_f64(out, params.thresh_constant)
    _w_f64(out, params.repetitions_constant)


def _r_params(r: _Reader) -> SketchParams:
    try:
        return SketchParams(eps=r.f64(), delta=r.f64(),
                            thresh_constant=r.f64(),
                            repetitions_constant=r.f64())
    except ReproError as exc:
        raise StoreFormatError(f"invalid sketch parameters: {exc}") from exc


def _w_linear_hash(out: List[bytes], h: LinearHash) -> None:
    _w_u32(out, h.in_bits)
    _w_u64(out, h.seed_bits)
    _w_bigint_list(out, h.rows)
    _w_bits(out, h.offsets)


def _r_linear_hash(r: _Reader) -> LinearHash:
    in_bits = r.u32()
    seed_bits = r.u64()
    rows = r.bigint_list()
    offsets = r.bits()
    if len(offsets) != len(rows):
        raise StoreFormatError("hash rows and offsets disagree in length")
    return LinearHash(in_bits, rows, offsets, seed_bits=seed_bits)


def _w_kwise_hash(out: List[bytes], h: KWiseHash) -> None:
    _w_u32(out, h.field.n)
    _w_bigint_list(out, h.coeffs)


def _r_kwise_hash(r: _Reader, field_cache: Dict[int, GF2n]) -> KWiseHash:
    n = r.u32()
    if not 1 <= n <= MAX_UNIVERSE_BITS:
        # A corrupted width would otherwise stall decode in GF2n's
        # irreducible-modulus search (tens of seconds at 512 bits).
        raise StoreFormatError(
            f"field width {n} outside 1..{MAX_UNIVERSE_BITS} "
            f"(MAX_UNIVERSE_BITS)")
    coeffs = r.bigint_list()
    field = field_cache.get(n)
    if field is None:
        try:
            field = GF2n(n)
        except ReproError as exc:
            raise StoreFormatError(f"invalid field width {n}") from exc
        field_cache[n] = field
    return KWiseHash(field, coeffs)


# --------------------------------------------------------------------------
# Per-kind encoders / decoders.  Each encoder appends the kind payload;
# each decoder consumes exactly that payload from the reader.

def _enc_linear_hash(out: List[bytes], h: LinearHash) -> None:
    _w_linear_hash(out, h)


def _dec_linear_hash(r: _Reader) -> LinearHash:
    return _r_linear_hash(r)


def _enc_kwise_hash(out: List[bytes], h: KWiseHash) -> None:
    _w_kwise_hash(out, h)


def _dec_kwise_hash(r: _Reader) -> KWiseHash:
    return _r_kwise_hash(r, {})


def _enc_minimum(out: List[bytes], sk: MinimumF0) -> None:
    _w_u32(out, sk.universe_bits)
    _w_params(out, sk.params)
    _w_u32(out, len(sk.rows))
    for row in sk.rows:
        _w_linear_hash(out, row.h)
        _w_u64(out, row.thresh)
        _w_bigint_list(out, row.values())


def _dec_minimum(r: _Reader) -> MinimumF0:
    sk = object.__new__(MinimumF0)
    sk.universe_bits = r.u32()
    sk.params = _r_params(r)
    rows: List[MinimumRow] = []
    for _ in range(r.u32()):
        h = _r_linear_hash(r)
        thresh = r.u64()
        if thresh < 1:
            raise StoreFormatError("minimum row thresh must be >= 1")
        row = MinimumRow(h, thresh)
        values = r.bigint_list()
        if len(values) > thresh:
            raise StoreFormatError("minimum row holds more than thresh "
                                   "values")
        if any(v >> h.out_bits for v in values):
            raise StoreFormatError("minimum value wider than the hash "
                                   "range")
        row.insert_values(values)
        rows.append(row)
    sk.rows = rows
    return sk


def _enc_estimation(out: List[bytes], sk: EstimationF0) -> None:
    _w_u32(out, sk.universe_bits)
    _w_params(out, sk.params)
    _w_u32(out, len(sk.rows))
    for row in sk.rows:
        _w_u32(out, len(row.hashes))
        for h in row.hashes:
            _w_kwise_hash(out, h)
        for t in row.maxima:
            _w_i64(out, t)


def _dec_estimation(r: _Reader) -> EstimationF0:
    sk = object.__new__(EstimationF0)
    sk.universe_bits = r.u32()
    sk.params = _r_params(r)
    fields: Dict[int, GF2n] = {}
    rows: List[EstimationRow] = []
    for _ in range(r.u32()):
        width = r.u32()
        hashes = [_r_kwise_hash(r, fields) for _ in range(width)]
        row = EstimationRow(hashes)
        row.maxima = [r.i64() for _ in range(width)]
        if any(not 0 <= t <= h.out_bits
               for t, h in zip(row.maxima, hashes)):
            raise StoreFormatError("estimation trail-zero level out of "
                                   "range")
        rows.append(row)
    sk.rows = rows
    sk._version = 0
    sk._r_cache = VersionedCache()
    sk._estimate_cache = VersionedCache()
    return sk


def _enc_bucketing(out: List[bytes], sk: BucketingF0) -> None:
    _w_u32(out, sk.universe_bits)
    _w_params(out, sk.params)
    _w_u32(out, len(sk.rows))
    for row in sk.rows:
        _w_u8(out, 1 if row.h is not None else 0)
        if row.h is not None:
            _w_linear_hash(out, row.h)
        _w_u32(out, row.out_bits)
        _w_u64(out, row.thresh)
        _w_u32(out, row.level)
        members = sorted(row.bucket)
        _w_u32(out, len(members))
        for x in members:
            _w_bigint(out, x)
            _w_u32(out, row._level_of(x))


def _dec_bucketing(r: _Reader) -> BucketingF0:
    sk = object.__new__(BucketingF0)
    sk.universe_bits = r.u32()
    sk.params = _r_params(r)
    rows: List[BucketingRow] = []
    for _ in range(r.u32()):
        has_hash = r.u8()
        h = _r_linear_hash(r) if has_hash else None
        out_bits = r.u32()
        thresh = r.u64()
        level = r.u32()
        if h is not None and h.out_bits != out_bits:
            raise StoreFormatError("bucketing row out_bits disagrees with "
                                   "its hash")
        if level > out_bits:
            raise StoreFormatError("bucketing level beyond the hash "
                                   "range")
        row = BucketingRow(h, thresh, out_bits=out_bits)
        row.level = level
        for _ in range(r.u32()):
            x = r.bigint()
            lvl = r.u32()
            if not level <= lvl <= out_bits:
                raise StoreFormatError("bucket member level outside "
                                       "[row level, out_bits]")
            row._levels[x] = lvl
            row.bucket.add(x)
        if len(row.bucket) >= thresh and level < out_bits:
            # _shrink maintains size < thresh except at the level cap; a
            # frame violating that would silently inflate the estimate.
            raise StoreFormatError("bucketing row violates the "
                                   "size < thresh invariant")
        rows.append(row)
    sk.rows = rows
    return sk


def _enc_fm(out: List[bytes], sk: FlajoletMartinF0) -> None:
    _w_u32(out, sk.universe_bits)
    _w_u32(out, len(sk.hashes))
    for h in sk.hashes:
        _w_linear_hash(out, h)
    for t in sk.max_trail:
        _w_i64(out, t)


def _dec_fm(r: _Reader) -> FlajoletMartinF0:
    sk = object.__new__(FlajoletMartinF0)
    sk.universe_bits = r.u32()
    count = r.u32()
    sk.hashes = [_r_linear_hash(r) for _ in range(count)]
    sk.max_trail = [r.i64() for _ in range(count)]
    if any(not -1 <= t <= h.out_bits
           for t, h in zip(sk.max_trail, sk.hashes)):
        raise StoreFormatError("FM trail-zero level out of range")
    return sk


def _enc_exact(out: List[bytes], sk: ExactF0) -> None:
    _w_bigint_list(out, sorted(sk._seen))


def _dec_exact(r: _Reader) -> ExactF0:
    sk = ExactF0()
    sk._seen = set(r.bigint_list())
    return sk


def _seed_key(sk) -> tuple:
    """What two sketches must share for ``merge`` to be sound: their
    type and every hash seed (a window answers with its prototype's).
    Each sketch's ``merge`` refuses foreign hashes, but a decoder that
    skipped this would admit frames that fail on every later merge or
    estimate."""
    if isinstance(sk, WindowedF0):
        return _seed_key(sk._proto)
    if isinstance(sk, (MinimumF0, BucketingF0)):
        hashes = [row.h for row in sk.rows]
    elif isinstance(sk, EstimationF0):
        hashes = [h for row in sk.rows for h in row.hashes]
    else:
        hashes = getattr(sk, "hashes", [])
    return (type(sk),) + tuple(
        None if h is None
        else (h.field.n, tuple(h.coeffs)) if isinstance(h, KWiseHash)
        else (h.in_bits, tuple(h.rows), tuple(h.offsets))
        for h in hashes)


def _r_nested_sketch(r: _Reader, what: str):
    """A length-prefixed nested sketch frame."""
    nested = loads(r._take(r.u32()))
    if isinstance(nested, (LinearHash, KWiseHash)):
        raise StoreFormatError(f"{what} holds a hash, not a sketch")
    return nested


def _dec_legacy_sharded(r: _Reader):
    """Tag ``0x15``, the retired round-robin shard wrapper, is
    decode-only: existing snapshots and delta logs still restore, as
    the one plain sketch their shards merge into.  The shard count and
    the round-robin cursor are dropped."""
    what = f"legacy sharded frame (tag 0x{KIND_LEGACY_SHARDED:02x})"
    r.u32()  # The round-robin cursor.
    count = r.u32()
    if count < 1:
        raise StoreFormatError(f"{what} needs >= 1 shard")
    shards = [_r_nested_sketch(r, what) for _ in range(count)]
    merged, rest = shards[0], shards[1:]
    key = _seed_key(merged)
    if any(_seed_key(shard) != key for shard in rest):
        raise StoreFormatError(f"{what}: shard hashes differ")
    try:
        for shard in rest:
            merged.merge(shard)
    except ValueError as exc:
        raise StoreFormatError(f"{what}: shards do not merge: "
                               f"{exc}") from exc
    return merged


def _enc_windowed(out: List[bytes], sk: WindowedF0) -> None:
    # The pristine prototype and every ring bucket nest as full
    # self-describing frames: one decode path, and a restored window
    # keeps minting evicted buckets from the exact seeds the original
    # drew.
    _w_f64(out, sk.window)
    _w_u32(out, len(sk.buckets))
    _w_i64(out, sk._epoch)
    _w_u64(out, sk.evictions)
    proto = dumps(sk._proto)
    _w_u32(out, len(proto))
    out.append(proto)
    for idx, bucket in enumerate(sk.buckets):
        _w_i64(out, sk._bucket_epochs[idx])
        _w_u64(out, 1 if sk._bucket_dirty[idx] else 0)
        blob = dumps(bucket)
        _w_u32(out, len(blob))
        out.append(blob)


def _dec_windowed(r: _Reader) -> WindowedF0:
    window = r.f64()
    count = r.u32()
    epoch = r.i64()
    evictions = r.u64()
    if not window > 0:
        raise StoreFormatError("windowed span must be positive")
    if count < 1:
        raise StoreFormatError("a windowed sketch needs >= 1 bucket")
    proto = _r_nested_sketch(r, "a windowed frame")
    proto_key = _seed_key(proto)
    buckets: List[object] = []
    bucket_epochs: List[int] = []
    bucket_dirty: List[bool] = []
    for idx in range(count):
        bucket_epoch = r.i64()
        dirty = r.u64()
        bucket = _r_nested_sketch(r, "a windowed frame")
        if _seed_key(bucket) != proto_key:
            raise StoreFormatError("windowed bucket hashes differ from "
                                   "the prototype's")
        if not epoch - count < bucket_epoch <= epoch:
            raise StoreFormatError("windowed bucket epoch outside the "
                                   "live ring")
        if bucket_epoch % count != idx:
            raise StoreFormatError("windowed bucket epoch misplaced in "
                                   "the ring")
        buckets.append(bucket)
        bucket_epochs.append(bucket_epoch)
        bucket_dirty.append(bool(dirty))
    sk = object.__new__(WindowedF0)
    sk.window = window
    sk._proto = proto
    sk.buckets = buckets
    sk._epoch = epoch
    sk._bucket_epochs = bucket_epochs
    sk._bucket_dirty = bucket_dirty
    sk.evictions = evictions
    sk._clock = None
    sk._init_caches()
    return sk


_Encoder = Callable[[List[bytes], object], None]
_Decoder = Callable[[_Reader], object]

_ENCODERS: Dict[type, Tuple[int, _Encoder]] = {
    LinearHash: (KIND_LINEAR_HASH, _enc_linear_hash),
    KWiseHash: (KIND_KWISE_HASH, _enc_kwise_hash),
    MinimumF0: (KIND_MINIMUM, _enc_minimum),
    EstimationF0: (KIND_ESTIMATION, _enc_estimation),
    BucketingF0: (KIND_BUCKETING, _enc_bucketing),
    FlajoletMartinF0: (KIND_FM, _enc_fm),
    ExactF0: (KIND_EXACT, _enc_exact),
    WindowedF0: (KIND_WINDOWED, _enc_windowed),
}

_DECODERS: Dict[int, _Decoder] = {
    KIND_LINEAR_HASH: _dec_linear_hash,
    KIND_KWISE_HASH: _dec_kwise_hash,
    KIND_MINIMUM: _dec_minimum,
    KIND_ESTIMATION: _dec_estimation,
    KIND_BUCKETING: _dec_bucketing,
    KIND_FM: _dec_fm,
    KIND_EXACT: _dec_exact,
    KIND_LEGACY_SHARDED: _dec_legacy_sharded,
    KIND_WINDOWED: _dec_windowed,
}


# --------------------------------------------------------------------------
# Public API.

def dumps(obj) -> bytes:
    """Serialize a sketch or hash function to the versioned wire format.

    Args:
        obj: any registered sketch (:class:`MinimumF0`,
            :class:`EstimationF0`, :class:`BucketingF0`,
            :class:`FlajoletMartinF0`, :class:`ExactF0`,
            :class:`WindowedF0`) or hash function (:class:`LinearHash`,
            :class:`KWiseHash`).

    Returns:
        A self-describing ``bytes`` frame: magic, version, kind tag,
        payload.

    Raises:
        StoreFormatError: ``obj`` is not a serializable type.
    """
    entry = _ENCODERS.get(type(obj))
    if entry is None:
        raise StoreFormatError(
            f"cannot serialize objects of type {type(obj).__name__}")
    kind, encoder = entry
    out: List[bytes] = [MAGIC, struct.pack("<H", FORMAT_VERSION),
                        struct.pack("<B", kind)]
    encoder(out, obj)
    return b"".join(out)


def loads(data: bytes):
    """Decode one frame produced by :func:`dumps`.

    Args:
        data: the full frame; partial or over-long inputs are rejected.

    Returns:
        The reconstructed sketch or hash function, behaviourally
        bit-identical to the object that was serialized.

    Raises:
        StoreFormatError: bad magic, unknown version or kind tag,
            truncated payload, trailing bytes, or inconsistent fields.
    """
    r = _Reader(bytes(data))
    if r._take(len(MAGIC)) != MAGIC:
        raise StoreFormatError("bad magic: not a repro sketch frame")
    version = r.u16()
    if version != FORMAT_VERSION:
        raise StoreFormatError(
            f"unsupported format version {version} "
            f"(this build reads version {FORMAT_VERSION})")
    kind = r.u8()
    decoder = _DECODERS.get(kind)
    if decoder is None:
        raise StoreFormatError(f"unknown kind tag 0x{kind:02x}")
    obj = decoder(r)
    r.expect_exhausted()
    return obj


#: The sketch classes (everything :func:`dumps` accepts except the bare
#: hash functions); what :func:`loads_sketch` constrains decodes to.
SKETCH_TYPES = (MinimumF0, EstimationF0, BucketingF0, FlajoletMartinF0,
                ExactF0, WindowedF0)


def loads_sketch(data: bytes):
    """:func:`loads` constrained to sketch frames.

    Hash functions share the wire format's kind namespace; callers that
    semantically require a *sketch* (the store's upload/merge paths) use
    this so a hash frame is rejected up front instead of becoming a
    registry entry that fails on ``estimate()``.

    Raises:
        StoreFormatError: malformed frame, or a frame holding a hash
            function rather than a sketch.
    """
    obj = loads(data)
    if not isinstance(obj, SKETCH_TYPES):
        raise StoreFormatError(
            f"expected a serialized sketch, found {type(obj).__name__}")
    return obj


def loads_typed(data: bytes, expected: Type):
    """:func:`loads` plus a type check.

    Args:
        data: a frame produced by :func:`dumps`.
        expected: the class the caller requires.

    Returns:
        The decoded object, guaranteed to be an ``expected`` instance.

    Raises:
        StoreFormatError: the frame is malformed or decodes to a
            different type.
    """
    obj = loads(data)
    if not isinstance(obj, expected):
        raise StoreFormatError(
            f"expected a serialized {expected.__name__}, "
            f"found {type(obj).__name__}")
    return obj


def serialized_size(obj) -> int:
    """``len(dumps(obj))`` -- the sketch's on-wire footprint in bytes."""
    return len(dumps(obj))
