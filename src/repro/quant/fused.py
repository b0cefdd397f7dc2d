"""Fused mixed-precision encoding for one whole exchange step.

:class:`~repro.quant.mixed.MixedPrecisionEncoder` states the wire format
one (src, dst) message at a time: per bit-width group, one quantize
kernel and one pack call.  Run that way a 16-device, 3-layer epoch issues
thousands of tiny NumPy calls, so this module fuses **all** boundary
messages of one (layer, phase) step — across every source device and every
peer — into batched kernels that emit the same bytes:

* each device's outgoing rows are gathered with one fancy-index ``take``
  into a contiguous segment of a step-wide buffer in *cat* (gather)
  order: devices ascending, peers ascending within each device, rows in
  each pair's original order — the order keyed noise is defined in;
* rounding noise comes from :class:`~repro.quant.stochastic.KeyedRounding`:
  each (src, dst) pair's noise is one counter-based Philox draw keyed on
  the block's coordinates, so the emitted bytes are independent of
  execution order;
* stochastic quantization runs as **one** kernel per encode shard, in
  cat order: the only bit-width-dependent quantity is the level count
  ``2^b - 1``, which becomes a per-row vector instead of a per-group
  scalar, and every pass is row-wise, so only the outputs land in
  *payload* order (bit-widths ascending within each pair);
* the outputs land in the plan's **wire buffer**: one byte array holding,
  per (pair, group) in payload order, the group's packed stream of
  ⌈n·dim·bits/8⌉ bytes (:func:`~repro.quant.theory.packed_bytes`), plus
  one zero point and one scale per payload row.  The step's payloads are
  views into it, built once per plan;
* on the receive side, :func:`decode_cluster_step` unpacks and
  de-quantizes every payload of the step — batched per bit-width on the
  NumPy tier, one kernel call per receiver on the compiled tier — and can
  land the rows straight in the receiver's destination (a
  :class:`DecodeIndex` says where).

**Payload lifetime.**  A payload returned by
:meth:`FusedStepEncoder.quantize_pack_shard` is a view of plan-owned
memory: its bytes stay valid until the *next encode of the same plan*
(exchanges consume a step's payloads within its finalize, long before
that).  Anyone holding payloads across encodes snapshots their bytes.
Payload arrays are read-only views; nothing in a payload refers back to
the plan, so a replaced plan is freed as soon as its last user drops it.

**Encode shards.**  A step's pairs partition into contiguous row
spans (:meth:`FusedStepEncoder.shards_for`); each shard's quantize/pack is
self-contained — it reads and writes only its rows of the plan buffers
(the wire layout is pair-major, so a shard's streams are one byte range)
— so a multi-worker transport runs shards concurrently.  Every pair's
noise is its own keyed draw, so any shard count (and any retirement
order) emits byte-identical payloads.

**Two kernel tiers.**  The quantize + pack of
:meth:`FusedStepEncoder.quantize_pack_shard` and the unpack + de-quantize
of :func:`decode_cluster_step` each exist twice: as the NumPy kernels
below, and as one-pass C loops (``_kernels.c``, built and loaded on first
use by :mod:`repro.quant.native`) that perform the same float32 operations
in the same order and so emit the same bytes.  The compiled quantizer
writes codes already packed into the wire buffer (no step-wide code array
exists); the NumPy one stages uint8 codes in ``codes_buf`` and packs them
with :func:`~repro.quant.packing.pack_bits_batched`.  The compiled tier
runs wherever it loads; the NumPy tier is the reference it is tested
against bitwise and the fallback everywhere else.  Nothing selects
between them but what the loader observes.

All index structures (gather orders, group slices, wire layout, payload
views, decode indices) are cached in a :class:`FusedStepPlan` and reused
across epochs until the bit-width assignment for the step changes (i.e.
at reassignment boundaries).  The NumPy quantization kernel runs over
pair-aligned row *chunks* with scratch bounded by the chunk, so the
noise/normalize/floor intermediates never materialize for the whole step
at once — at huge-graph scale that keeps hundreds of MB of per-step
scratch out of the resident set.  Chunking is invisible in the output:
keyed noise is one draw per pair and a chunk is a whole number of pairs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from repro.quant import native
from repro.quant.mixed import MixedPrecisionEncoder, MixedPrecisionPayload
from repro.quant.packing import pack_bits_batched, unpack_bits_batched
from repro.quant.stochastic import KeyedRounding, as_rounding
from repro.quant.theory import packed_bytes

__all__ = [
    "FusedStepPlan",
    "FusedStepEncoder",
    "pair_shard",
    "DecodeIndex",
    "decode_index",
    "DecodeWorkspace",
    "decode_step",
    "decode_cluster_step",
    "land_decoded",
    "accumulate_block",
    "kernels_agree",
]


#: Row bound for one chunk of the NumPy quantization kernel (the compiled
#: kernel works row by row and has no chunk).  Scratch per chunk is
#: ~16 bytes/element (float32 noise and its uint16 lanes, normalized
#: values, floors, the round-up mask, cat-order uint8 codes), so 4096
#: rows at a 256-wide layer-0 step is ~17 MB — a rounding error next to
#: the plan-wide buffers it replaces, while the per-chunk Python overhead
#: stays at a handful of iterations per step.  A pair bigger than this
#: bound widens the chunk (a pair is the keyed noise atom and is never
#: split).
_QUANT_CHUNK_ROWS = 4096


@dataclass
class _PairGroup:
    """One (pair, bit-width) group: its slice of the step's payload order
    and its stream's span of the plan's wire buffer."""

    bits: int
    start: int
    stop: int
    rows: np.ndarray  # local row indices within the pair message, ascending
    offset: int  # first byte of the group's stream in the wire buffer
    nbytes: int


@dataclass
class _EncodeShard:
    """One contiguous run of a step's pairs, encodable independently.

    ``start``/``stop`` span the shard's rows in *both* cat and payload
    order (the payload sort is pair-major, so pair runs keep their cat
    boundaries); all packing index structures are shard-local so
    concurrent shards never share mutable state.
    """

    pair_lo: int
    pair_hi: int
    start: int
    stop: int
    single_bits: int | None  # set when the shard's rows share one width
    # Per distinct bit-width, in payload-emission order: the payload-order
    # slices of its groups and their element counts (NumPy packing batches).
    bit_slices: dict[int, list[slice]]
    bit_elems: dict[int, np.ndarray]
    # For widths whose groups are scattered across pairs: their rows in
    # payload-emission order (one take instead of a per-group concatenate)
    # and the reusable gather destination — built by the NumPy packer's
    # first use, so the compiled tier never holds them.
    bit_gather: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)


@dataclass
class FusedStepPlan:
    """Cached index structures and buffers for one (layer, phase) step.

    Valid as long as the step's per-row bit assignment (``bits_cat``) is
    unchanged; the encoder revalidates with ``np.array_equal`` each epoch
    and rebuilds only at reassignment boundaries.
    """

    pairs: list[tuple[int, int]]  # (src, dst): sources, then peers, ascending
    pair_counts: np.ndarray  # rows per pair, same order
    cat_bounds: np.ndarray  # (n_pairs + 1,) row offsets per pair
    device_blocks: list[tuple[int, int, int]]  # (rank, start, stop) cat slices
    cat_idx: np.ndarray  # (n_total,) local source row per cat position
    bits_cat: np.ndarray  # (n_total,) per-row bits, cat order
    dim: int
    perm_payload: np.ndarray  # cat index of each payload-order position
    identity: bool  # True when payload order == cat order
    # The inverse of perm_payload — the payload-order position of each cat
    # row, where the compiled kernel writes that row's zero point and
    # scale; None when the two orders coincide.
    payload_pos: np.ndarray | None
    levels: np.ndarray  # (n_total, 1) float32, 2^bits - 1 per cat row
    pair_src: np.ndarray  # (n_pairs,) int64 — the pairs' key coordinates
    pair_dst: np.ndarray
    pair_groups: dict[tuple[int, int], list[_PairGroup]]
    # Per cat row, the bit offset of its first code in ``wire``.
    row_bit: np.ndarray
    # Buffers, reused every epoch while the plan is valid.  The NumPy
    # kernel's intermediates (noise, normalized values, floors, round-up
    # mask) are deliberately NOT plan-resident: it allocates them per
    # chunk, the compiled one needs none.
    cat_buf: np.ndarray  # (n_total, dim) float32 staged rows, cat order
    wire: np.ndarray  # uint8: every (pair, group) stream, payload order
    zero_points: np.ndarray  # (n_total,) float32, payload order
    scales: np.ndarray  # (n_total,) float32, payload order
    payloads: list[MixedPrecisionPayload]  # per pair: views of the above
    # (n_total, dim) uint8 codes in payload order — the NumPy kernel's
    # staging, allocated by its first encode; never on the compiled tier.
    codes_buf: np.ndarray | None = None
    # Shard decompositions, cached per shard count (built on demand).
    shard_cache: dict[int, list[_EncodeShard]] = field(default_factory=dict)
    # Decode indices, cached per (receiver, accumulate) (built on demand).
    decode_cache: dict[tuple[int, bool], DecodeIndex] = field(default_factory=dict)

    @property
    def n_total(self) -> int:
        return int(self.bits_cat.size)


def _readonly(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


def _build_plan(
    pairs: list[tuple[int, int]],
    pair_counts: np.ndarray,
    device_blocks: list[tuple[int, int, int]],
    cat_idx: np.ndarray,
    bits_cat: np.ndarray,
    dim: int,
) -> FusedStepPlan:
    n_total = int(bits_cat.size)
    pair_id = np.repeat(np.arange(len(pairs), dtype=np.int64), pair_counts)

    # Payload order: pairs in iteration order, bits ascending within each
    # pair (MixedPrecisionEncoder iterates sorted unique bits); the stable
    # sort keeps each group's rows in ascending pair-row order, matching
    # its np.flatnonzero group indices.
    perm_payload = np.argsort(pair_id * 16 + bits_cat, kind="stable")
    identity = bool((perm_payload == np.arange(n_total)).all())
    payload_pos = None
    if not identity:
        payload_pos = np.empty(n_total, dtype=np.int64)
        payload_pos[perm_payload] = np.arange(n_total, dtype=np.int64)

    bounds = np.zeros(len(pairs) + 1, dtype=np.int64)
    np.cumsum(pair_counts, out=bounds[1:])

    # The wire layout: per (pair, group) in payload order, a byte-aligned
    # stream of ⌈n·dim·bits/8⌉ bytes.
    pair_groups: dict[tuple[int, int], list[_PairGroup]] = {}
    pos = offset = 0
    for i, pair in enumerate(pairs):
        pair_bits = bits_cat[bounds[i] : bounds[i + 1]]
        groups: list[_PairGroup] = []
        for b in np.unique(pair_bits):
            local_rows = np.flatnonzero(pair_bits == b)
            n = local_rows.size
            nbytes = int(packed_bytes(n, dim, int(b)))
            groups.append(_PairGroup(int(b), pos, pos + n, local_rows, offset, nbytes))
            pos += n
            offset += nbytes
        pair_groups[pair] = groups

    # Bit offset of every payload row's first code, then per cat row.
    table = np.array(
        [(g.start, g.offset, g.bits) for gs in pair_groups.values() for g in gs],
        dtype=np.int64,
    ).reshape(-1, 3)
    counts = np.diff(np.append(table[:, 0], n_total))
    start, first_byte, width = (np.repeat(col, counts) for col in table.T)
    row_bit = first_byte * 8 + (np.arange(n_total) - start) * dim * width
    if payload_pos is not None:
        row_bit = row_bit[payload_pos]

    wire = np.zeros(offset, dtype=np.uint8)
    zero_points = np.zeros(n_total, dtype=np.float32)
    scales = np.zeros(n_total, dtype=np.float32)
    payloads = [
        MixedPrecisionPayload(
            num_rows=int(pair_counts[i]),
            dim=dim,
            group_bits=[g.bits for g in groups],
            group_rows=[g.rows for g in groups],
            streams=[_readonly(wire[g.offset : g.offset + g.nbytes]) for g in groups],
            zero_points=[_readonly(zero_points[g.start : g.stop]) for g in groups],
            scales=[_readonly(scales[g.start : g.stop]) for g in groups],
        )
        for i, groups in enumerate(pair_groups.values())
    ]

    pair_arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return FusedStepPlan(
        pairs=pairs,
        pair_counts=pair_counts,
        cat_bounds=bounds,
        device_blocks=device_blocks,
        cat_idx=cat_idx,
        bits_cat=bits_cat.copy(),
        dim=dim,
        perm_payload=perm_payload,
        identity=identity,
        payload_pos=payload_pos,
        levels=((1 << bits_cat.astype(np.int64)) - 1)[:, None].astype(np.float32),
        pair_src=pair_arr[:, 0],
        pair_dst=pair_arr[:, 1],
        pair_groups=pair_groups,
        row_bit=np.ascontiguousarray(row_bit, dtype=np.int64),
        cat_buf=np.empty((n_total, dim), dtype=np.float32),
        wire=wire,
        zero_points=zero_points,
        scales=scales,
        payloads=payloads,
    )


def _build_shards(plan: FusedStepPlan, n_shards: int) -> list[_EncodeShard]:
    """Partition the plan's pairs into ≤ ``n_shards`` contiguous runs.

    Cuts land on pair boundaries nearest the equal-row targets (a pair is
    the atom — its noise is one keyed draw), so shards balance by row
    count, not pair count.  Degenerate targets collapse, so fewer pairs
    than shards simply yields fewer shards.
    """
    n_pairs = len(plan.pairs)
    total = plan.n_total
    n_shards = max(1, min(int(n_shards), n_pairs))
    bounds = plan.cat_bounds
    raw = set()
    for s in range(1, n_shards):
        target = s * total / n_shards
        hi = int(np.searchsorted(bounds, target))
        lo = hi - 1
        # Nearest pair boundary to the equal-rows target.
        cut = lo if hi > n_pairs or target - bounds[lo] <= bounds[hi] - target else hi
        raw.add(int(cut))
    edges = [0, *sorted(c for c in raw if 0 < c < n_pairs), n_pairs]

    return [_make_shard(plan, lo, hi) for lo, hi in zip(edges, edges[1:])]


def _make_shard(plan: FusedStepPlan, lo: int, hi: int) -> _EncodeShard:
    """The shard covering the plan's contiguous pair range ``[lo, hi)``."""
    bit_slices: dict[int, list[slice]] = {}
    bit_elems: dict[int, list[int]] = {}
    for i in range(lo, hi):
        for g in plan.pair_groups[plan.pairs[i]]:
            bit_slices.setdefault(g.bits, []).append(slice(g.start, g.stop))
            bit_elems.setdefault(g.bits, []).append((g.stop - g.start) * plan.dim)
    distinct = sorted(bit_slices)
    return _EncodeShard(
        pair_lo=lo,
        pair_hi=hi,
        start=int(plan.cat_bounds[lo]),
        stop=int(plan.cat_bounds[hi]),
        single_bits=distinct[0] if len(distinct) == 1 else None,
        bit_slices=bit_slices,
        bit_elems={b: np.asarray(e, dtype=np.int64) for b, e in bit_elems.items()},
    )


def pair_shard(plan: FusedStepPlan, i: int) -> _EncodeShard:
    """A throwaway shard covering exactly pair ``i`` of the plan.

    The keyed-replay recovery path uses it to regenerate one dropped
    pair's payload from the plan's staged rows: pair noise is one keyed
    draw and packing is per-group deterministic, so the single-pair shard
    reproduces the exact bytes the original (multi-pair) shard emitted
    for that pair — the shard-decomposition-independence contract.
    """
    if not 0 <= i < len(plan.pairs):
        raise IndexError(f"pair index {i} outside [0, {len(plan.pairs)})")
    return _make_shard(plan, i, i + 1)


class FusedStepEncoder:
    """Encode a whole (layer, phase) exchange step in batched kernels.

    One instance per exchange; plans are cached per step key and
    revalidated against the step's current bit assignment.  ``rounding``
    is a :class:`~repro.quant.stochastic.KeyedRounding`; every encode
    needs the step's ``(phase, layer)`` coordinates (the ``coords``
    arguments below), which with each pair's ``(src, dst)`` key its noise.
    """

    def __init__(self, rounding) -> None:
        self.rounding = as_rounding(rounding)
        self._plans: dict[object, FusedStepPlan] = {}

    def shards_for(self, plan: FusedStepPlan, n_shards: int) -> list[_EncodeShard]:
        """The plan's shard decomposition for ``n_shards`` workers (cached)."""
        cached = plan.shard_cache.get(n_shards)
        if cached is None:
            cached = plan.shard_cache[n_shards] = _build_shards(plan, n_shards)
        return cached

    def plan_for(
        self,
        key: object,
        pairs: list[tuple[int, int]],
        pair_counts: np.ndarray,
        device_blocks: list[tuple[int, int, int]],
        cat_idx: np.ndarray,
        bits_cat: np.ndarray,
        dim: int,
    ) -> FusedStepPlan:
        """Fetch (or rebuild) the cached plan for one step."""
        plan = self._plans.get(key)
        if (
            plan is None
            or plan.dim != dim
            or not np.array_equal(plan.bits_cat, bits_cat)
        ):
            plan = _build_plan(
                pairs, pair_counts, device_blocks, cat_idx, bits_cat, dim
            )
            self._plans[key] = plan
        return plan

    def encode_step(
        self, plan: FusedStepPlan, values_by_rank, observe=None, *, coords
    ) -> dict[tuple[int, int], MixedPrecisionPayload]:
        """Quantize + pack the step's messages; returns per-pair payloads.

        ``values_by_rank`` maps a device rank to the float32 matrix its
        messages are gathered from (activations or halo gradients); a list
        indexed by rank works too.  ``observe``, when given, is called per
        pair with ``(src, dst, rows)`` where ``rows`` is the pair's block
        in original row order — the tracer hook.  ``coords`` is the step's
        ``(phase, layer)``.  The payloads are views of the plan's buffers
        (see the module docstring for their lifetime).

        The two halves are also exposed separately for the async transport:
        :meth:`gather_step` snapshots the source rows (and feeds the
        tracer) on the calling thread, after which
        :meth:`quantize_pack_step` is safe to run on a transport worker —
        it touches only plan-owned buffers and the encoder's noise policy.
        """
        self.gather_step(plan, values_by_rank, observe)
        return self.quantize_pack_step(plan, coords=coords)

    def gather_step(self, plan: FusedStepPlan, values_by_rank, observe=None) -> None:
        """Stage the step's source rows into ``plan.cat_buf`` (a snapshot)."""
        if plan.n_total == 0:
            return
        for rank, start, stop in plan.device_blocks:
            vals = values_by_rank[rank]
            if vals.dtype != np.float32:
                vals = np.asarray(vals, dtype=np.float32)
            np.take(
                vals, plan.cat_idx[start:stop], axis=0, out=plan.cat_buf[start:stop]
            )
        if observe is not None:
            # Cat order is each pair's original row order — what tracers read.
            bounds = plan.cat_bounds
            for i, (src, dst) in enumerate(plan.pairs):
                observe(src, dst, plan.cat_buf[bounds[i] : bounds[i + 1]])

    def quantize_pack_step(
        self, plan: FusedStepPlan, *, coords
    ) -> dict[tuple[int, int], MixedPrecisionPayload]:
        """Quantize + pack the gathered step (worker-safe half).

        Reads ``plan.cat_buf`` (filled by :meth:`gather_step`) and
        touches only plan-owned buffers: the one-shard composition of
        :meth:`quantize_pack_shard`.
        """
        payloads: dict[tuple[int, int], MixedPrecisionPayload] = {}
        for shard in self.shards_for(plan, 1):
            payloads.update(self.quantize_pack_shard(plan, shard, coords=coords))
        return payloads

    def _quantize_numpy(
        self, plan: FusedStepPlan, shard: _EncodeShard, keys: np.ndarray
    ) -> np.ndarray:
        """The NumPy quantization kernel: the reference, and the fallback
        where the compiled tier is unavailable.  Writes the shard's zero
        points and scales into the plan and its uint8 codes into the
        returned step-wide ``codes_buf``, all in payload order."""
        dim = plan.dim
        start, stop = shard.start, shard.stop
        n_rows = stop - start
        codes_buf = plan.codes_buf
        if codes_buf is None:
            # The first NumPy-tier encode of this plan (a racing shard
            # allocates its own, which is as good: each packs its own rows).
            codes_buf = plan.codes_buf = np.empty((plan.n_total, dim), dtype=np.uint8)

        # --- chunked stochastic-quantization kernel ----------------------
        # Identical arithmetic to quantize_stochastic per group: the level
        # count is the only group-dependent quantity and enters as a
        # per-row vector.  The kernel walks the shard in pair-aligned row
        # chunks, in cat order — every pass is row-wise, so the row order
        # cannot change a value — and permutes only its outputs (uint8
        # codes, per-row zero points and scales) into the payload order
        # the packers and payloads slice.  Intermediates are bounded by
        # the chunk rather than the step.  Chunks don't change a bit:
        # keyed noise is one draw per pair (a chunk is a whole number of
        # pairs, and the payload sort is pair-major, so each pair spans
        # the same rows in both orders).
        bounds = plan.cat_bounds
        lo, hi = shard.pair_lo, shard.pair_hi
        chunk_rows = max(_QUANT_CHUNK_ROWS, int(plan.pair_counts[lo:hi].max()))
        scratch = min(chunk_rows, n_rows)
        permute = not plan.identity
        z_all = plan.zero_points[start:stop]
        s_all = plan.scales[start:stop]
        noise_buf = np.empty((scratch, dim), dtype=np.float32)
        norm_buf = np.empty((scratch, dim), dtype=np.float32)
        floor_buf = np.empty((scratch, dim), dtype=np.float32)
        round_buf = np.empty((scratch, dim), dtype=bool)
        if permute:
            z_cat = np.empty(scratch, dtype=np.float32)
            s_cat = np.empty(scratch, dtype=np.float32)
            codes_cat = np.empty((scratch, dim), dtype=np.uint8)

        i = lo
        while i < hi:
            a = int(bounds[i])
            j = i + 1
            while j < hi and int(bounds[j + 1]) - a <= chunk_rows:
                j += 1
            b = int(bounds[j])
            m = b - a
            h = plan.cat_buf[a:b]
            order = plan.perm_payload[a:b] - a if permute else None

            # One keyed draw per pair, into the pair's cat-order block
            # (pair-local row order — the coordinate system the noise is
            # defined in).
            noise = self.rounding.fill_noise(
                keys[i - lo : j - lo], plan.pair_counts[i:j] * dim, noise_buf[:m]
            )

            span = slice(a - start, b - start)
            z32 = h.min(axis=1, out=z_cat[:m] if permute else z_all[span])
            scale = h.max(axis=1, out=s_cat[:m] if permute else s_all[span])
            scale -= z32
            scale /= plan.levels[a:b, 0]
            safe_scale = np.where(scale > 0, scale, np.float32(1.0))
            norm = np.subtract(h, z32[:, None], out=norm_buf[:m])
            norm /= safe_scale[:, None]
            floor = np.floor(norm, out=floor_buf[:m])
            np.subtract(norm, floor, out=norm)  # fractional parts
            round_up = np.less(noise, norm, out=round_buf[:m])
            codes = np.add(floor, round_up, out=floor)
            # Codes are >= 0 (normalized values are), so
            # quantize_with_noise's clip(0, top) reduces to an upper bound.
            if shard.single_bits is not None:
                np.minimum(codes, np.float32((1 << shard.single_bits) - 1), out=codes)
            else:
                np.minimum(codes, plan.levels[a:b], out=codes)
            # Codes are exact small integers, so the casts equal astype.
            if permute:
                codes_cat[:m] = codes
                np.take(codes_cat[:m], order, axis=0, out=codes_buf[a:b])
                np.take(z32, order, out=z_all[span])
                np.take(scale, order, out=s_all[span])
            else:
                codes_buf[a:b] = codes
            i = j
        return codes_buf

    @staticmethod
    def _pack_numpy(
        plan: FusedStepPlan, shard: _EncodeShard, codes_buf: np.ndarray
    ) -> None:
        """Pack the shard's codes (payload order) into its streams of the
        wire buffer: one :func:`pack_bits_batched` batch per distinct
        width, each stream copied to its span."""
        # Codes were clamped to range by the kernel, so the packers' O(n)
        # range scan is skipped (validate=False — the trusted internal path).
        streams_by_bits: dict[int, list[np.ndarray]] = {}
        for bits, slices in shard.bit_slices.items():
            if len(slices) == 1:
                segment = codes_buf[slices[0]]
            elif shard.single_bits is not None:
                # Single distinct bit-width: the slices tile the span.
                segment = codes_buf[shard.start : shard.stop]
            else:
                # Scattered groups: one take into shard scratch (no
                # per-group Python loop on the hot path).
                gather = shard.bit_gather.get(bits)
                if gather is None:
                    rows = np.concatenate(
                        [np.arange(sl.start, sl.stop, dtype=np.int64) for sl in slices]
                    )
                    gather = shard.bit_gather[bits] = (
                        rows,
                        np.empty((rows.size, plan.dim), dtype=np.uint8),
                    )
                segment = np.take(codes_buf, gather[0], axis=0, out=gather[1])
            streams_by_bits[bits] = pack_bits_batched(
                segment, bits, shard.bit_elems[bits], validate=False
            )
        cursor = dict.fromkeys(streams_by_bits, 0)
        for i in range(shard.pair_lo, shard.pair_hi):
            for g in plan.pair_groups[plan.pairs[i]]:
                stream = streams_by_bits[g.bits][cursor[g.bits]]
                plan.wire[g.offset : g.offset + g.nbytes] = stream
                cursor[g.bits] += 1

    @staticmethod
    def _quantize_pack_native(
        lib, plan: FusedStepPlan, shard: _EncodeShard, keys: np.ndarray
    ) -> None:
        """The compiled kernel (``_kernels.c``): the same float32 operations
        in the same order in one pass per row — draw, range, normalize,
        round, pack — writing each row's codes straight into its stream of
        the wire buffer and its zero point and scale at its payload
        position: no code buffer, no permutation, no packing pass."""
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        lanes = np.empty(plan.dim + 16, dtype=np.uint16)  # row scratch
        codes = np.empty(plan.dim, dtype=np.uint8)
        dest = plan.payload_pos
        lib.repro_quantize_pack_pairs(
            plan.cat_buf.ctypes.data,
            plan.cat_bounds.ctypes.data,
            shard.pair_lo,
            shard.pair_hi,
            keys.ctypes.data,
            plan.bits_cat.ctypes.data,
            None if dest is None else dest.ctypes.data,
            plan.row_bit.ctypes.data,
            plan.dim,
            plan.wire.ctypes.data,
            plan.zero_points.ctypes.data,
            plan.scales.ctypes.data,
            lanes.ctypes.data,
            codes.ctypes.data,
        )

    def quantize_pack_shard(
        self, plan: FusedStepPlan, shard: _EncodeShard, *, coords
    ) -> dict[tuple[int, int], MixedPrecisionPayload]:
        """Quantize + pack one contiguous shard of the gathered step.

        Reads and writes only the shard's rows (and streams) of the plan
        buffers, so a multi-worker transport may run disjoint shards
        concurrently.  ``coords`` is the step's ``(phase, layer)`` (each
        pair's noise is one keyed Philox draw).  Returns the shard's pairs'
        payloads — the plan's views, valid until its next encode.
        """
        if shard.stop == shard.start:
            return {}
        phase, layer = coords
        lo, hi = shard.pair_lo, shard.pair_hi
        keys = self.rounding.block_keys(
            phase, layer, plan.pair_src[lo:hi], plan.pair_dst[lo:hi]
        )
        # Two tiers, one contract: both fill the shard's streams of the
        # wire buffer and its zero points and scales, and they agree bit for
        # bit (the NumPy kernel is the reference the compiled one is tested
        # against, and the fallback).
        lib = native.load()
        if lib is not None and plan.dim > 0:
            self._quantize_pack_native(lib, plan, shard, keys)
        else:
            self._pack_numpy(plan, shard, self._quantize_numpy(plan, shard, keys))
        return dict(zip(plan.pairs[lo:hi], plan.payloads[lo:hi]))


# ----------------------------------------------------------------------
# Decode
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class DecodeIndex:
    """Where one receiver's share of a plan's step lands — and the single
    kernel call that lands it.

    ``rows[src]`` maps each row of pair ``(src, receiver)`` to its row of
    the destination (``n_out`` rows).  Without ``accumulate`` the decode
    writes those rows directly (halo slots, each fed by one pair); with it
    the decode fills a contiguous *block* — sources in mailbox order
    (ascending), each pair's rows in order — and :func:`accumulate_block`
    adds the block into the destination rows.  ``land[src]`` is where a
    source's rows sit in the decode buffer (``shape``): its destination
    rows, or its slice of the block.

    Built once per (plan, receiver) by :func:`decode_index` and checked
    once: every destination row against ``n_out``, every group width and
    stream span against the plan's wire buffer.  A mailbox holding exactly
    the plan's payloads (:meth:`matches`) then decodes without a further
    check.
    """

    srcs: tuple[int, ...]  # ascending: the mailbox order
    payloads: tuple[MixedPrecisionPayload, ...]  # the plan's, same order
    rows: dict[int, np.ndarray]
    land: dict[int, object]
    shape: tuple[int, int]  # the decode buffer: destination or block
    n_out: int
    accumulate: bool
    covers: bool  # the decode writes every buffer row exactly once
    add_rows: np.ndarray | None  # accumulate: destination row per block row
    groups: np.ndarray  # (n_groups, 4) int64: bits, rows, stream offset, first row
    dest: np.ndarray  # int64, per group row: its row of the decode buffer
    buffers: tuple[np.ndarray, np.ndarray, np.ndarray]  # the plan's wire, z, s

    def matches(self, mailbox: dict) -> bool:
        """Whether ``mailbox`` holds exactly this index's payloads, in order."""
        return len(mailbox) == len(self.payloads) and all(
            map(operator.is_, mailbox.values(), self.payloads)
        )


def decode_index(
    plan: FusedStepPlan,
    dst: int,
    rows: dict[int, np.ndarray],
    n_out: int,
    *,
    accumulate: bool = False,
) -> DecodeIndex:
    """The (cached) :class:`DecodeIndex` of receiver ``dst`` in ``plan``.

    ``rows`` maps every source of a ``(src, dst)`` pair of the plan to the
    destination rows of that pair's rows (a receiver's recv map for halo
    rows, its send map for the owned rows gradients accumulate into).  The
    cache is keyed on ``(dst, accumulate)``: the destination rows of a
    (plan, receiver) are topology and never change.
    """
    key = (dst, accumulate)
    index = plan.decode_cache.get(key)
    if index is None:
        index = _build_index(plan, dst, rows, n_out, accumulate)
        plan.decode_cache[key] = index
    return index


def _build_index(
    plan: FusedStepPlan,
    dst: int,
    rows: dict[int, np.ndarray],
    n_out: int,
    accumulate: bool,
) -> DecodeIndex:
    members = sorted((src, i) for i, (src, d) in enumerate(plan.pairs) if d == dst)
    srcs = tuple(src for src, _ in members)
    if sorted(rows) != list(srcs):
        raise ValueError(
            f"receiver {dst}: destination rows for sources {sorted(rows)}, "
            f"but the step's pairs come from {list(srcs)}"
        )
    groups: list[tuple[int, int, int, int]] = []
    dest: list[np.ndarray] = []
    land: dict[int, object] = {}
    targets: list[np.ndarray] = []
    block = 0
    for src, i in members:
        n = int(plan.pair_counts[i])
        target = np.asarray(rows[src], dtype=np.int64)
        if target.shape != (n,):
            raise ValueError(f"pair ({src}, {dst}) has {n} rows, not {target.shape}")
        if n and (target.min() < 0 or target.max() >= n_out):
            raise IndexError(
                f"pair ({src}, {dst}): a destination row outside [0, {n_out})"
            )
        if accumulate and np.unique(target).size != n:
            # The add would differ from the per-pair `out[rows] += mat`.
            raise ValueError(f"pair ({src}, {dst}) repeats a destination row")
        land[src] = slice(block, block + n) if accumulate else target
        for g in plan.pair_groups[(src, dst)]:
            groups.append((g.bits, g.stop - g.start, g.offset, g.start))
            dest.append(block + g.rows if accumulate else target[g.rows])
        targets.append(target)
        block += n
    table = np.array(groups, dtype=np.int64).reshape(-1, 4)
    bits, counts, offsets, first = table.T
    ends = offsets + packed_bytes(counts, plan.dim, bits)
    if not (
        np.isin(bits, (1, 2, 4, 8)).all()
        and (ends <= plan.wire.size).all()
        and (first + counts <= plan.n_total).all()
    ):
        raise ValueError(f"receiver {dst}: the plan's wire layout is inconsistent")
    cat = np.concatenate(targets) if targets else np.zeros(0, dtype=np.int64)
    covers = accumulate or np.array_equal(np.sort(cat), np.arange(n_out))
    return DecodeIndex(
        srcs=srcs,
        payloads=tuple(plan.payloads[i] for _, i in members),
        rows=dict(zip(srcs, targets)),
        land=land,
        shape=(block if accumulate else n_out, plan.dim),
        n_out=n_out,
        accumulate=accumulate,
        covers=bool(covers),
        add_rows=cat if accumulate else None,
        groups=np.ascontiguousarray(table),
        dest=np.concatenate(dest) if dest else np.zeros(0, dtype=np.int64),
        buffers=(plan.wire, plan.zero_points, plan.scales),
    )


class DecodeWorkspace:
    """Reusable scratch buffers for :func:`decode_cluster_step`.

    One instance per exchange; buffers are keyed by role and revalidated
    by shape, so they persist across epochs and resize only at
    reassignment boundaries.  Matrices returned by a workspace-backed
    decode are views into (or reuses of) these buffers — valid until the
    next decode call, which is exactly the finalize-half's
    consume-immediately lifetime.  The fused exchange also takes its
    backward decode blocks from here, one workspace per receiver for its
    worker-side decodes; with one step in flight at a time, a receiver's
    block is consumed by that step's finalize before the next step's
    decode reuses it.
    """

    def __init__(self) -> None:
        self._bufs: dict[object, np.ndarray] = {}

    def take(self, key: object, shape: tuple[int, ...], dtype) -> np.ndarray:
        buf = self._bufs.get(key)
        if buf is None or buf.shape != shape or buf.dtype != np.dtype(dtype):
            buf = np.empty(shape, dtype=dtype)
            self._bufs[key] = buf
        return buf


def decode_cluster_step(
    collects: dict[int, dict[int, MixedPrecisionPayload]],
    *,
    workspace: DecodeWorkspace | None = None,
    into: dict[int, tuple[DecodeIndex, np.ndarray]] | None = None,
) -> dict[int, dict[int, object]]:
    """Decode every payload of one step with batched kernels.

    ``collects`` maps each receiving rank to its ``{src: payload}`` mailbox
    (the shape :meth:`Transport.collect` returns).  Produces exactly the
    matrices ``payload.decode()`` would — de-quantization is
    row-elementwise, so batching cannot change any value — preserving each
    mailbox's iteration order (gradient accumulation order stays
    src-ascending).  On the NumPy tier every (receiver, pair, group) stream
    is bucketed by bit-width, unpacked through one batched lookup-table
    kernel per width and de-quantized in one elementwise kernel; on the
    compiled tier (:mod:`repro.quant.native`) one unpack + de-quantize pass
    writes the values directly.

    ``into`` names destinations: for a receiver listed there as
    ``(index, buffer)`` (a :class:`DecodeIndex` and a float32 buffer of
    ``index.shape``) the rows land in ``buffer`` — one kernel call when the
    mailbox holds exactly the index's payloads on the compiled tier;
    otherwise decoded as above and copied in, the buffer zero-filled first
    when a source is missing — and the result maps each source to
    ``index.land[src]``, where its rows now are.  Other receivers get
    ``{src: matrix}``.

    ``workspace``, when given, supplies scratch reused across calls; the
    returned matrices then stay valid only until the next decode (the
    fused exchange consumes them within ``finalize_step``).
    """
    into = into or {}
    lib = native.load()
    out: dict[int, dict[int, object]] = {}
    generic: dict[int, dict[int, MixedPrecisionPayload]] = {}
    for dst, mailbox in collects.items():
        target = into.get(dst)
        if target is None:
            generic[dst] = mailbox
            continue
        index, buf = target
        if buf.shape != index.shape or buf.dtype != np.float32:
            raise ValueError(
                f"receiver {dst}: decode buffer {buf.shape} {buf.dtype}, "
                f"expected {index.shape} float32"
            )
        if lib is not None and buf.flags.c_contiguous and index.matches(mailbox):
            _decode_index_native(lib, index, buf)
            out[dst] = dict(index.land)
        else:
            generic[dst] = mailbox
    if generic:
        landed = {dst: into[dst] for dst in generic if dst in into}
        out.update(_decode_generic(lib, generic, workspace, landed))
    return {dst: out[dst] for dst in collects}


def _decode_index_native(lib, index: DecodeIndex, buf: np.ndarray) -> None:
    """One receiver's payloads, straight into ``buf``: one kernel call."""
    if not index.covers:
        buf.fill(0.0)
    if not index.dest.size:
        return
    wire, zero_points, scales = index.buffers
    lib.repro_decode_rows(
        wire.ctypes.data,
        zero_points.ctypes.data,
        scales.ctypes.data,
        index.groups.ctypes.data,
        len(index.groups),
        index.shape[1],
        index.dest.ctypes.data,
        buf.ctypes.data,
    )


def _open_landing(index: DecodeIndex, buf: np.ndarray, sources) -> None:
    """Check that ``sources`` send to ``index``'s receiver; zero-fill ``buf``
    when their rows will not cover it (a missing source, unfed slots)."""
    unknown = set(sources) - index.land.keys()
    if unknown:
        raise ValueError(f"sources {sorted(unknown)} are not in the decode index")
    if not index.covers or len(sources) != len(index.srcs):
        buf.fill(0.0)


def land_decoded(
    index: DecodeIndex, buf: np.ndarray, matrices: dict[int, np.ndarray]
) -> dict[int, object]:
    """Copy decoded per-source matrices to their rows of ``buf`` (zero-filled
    first when a source is missing); returns ``{src: index.land[src]}``, as
    :func:`decode_cluster_step` does for a receiver it lands."""
    _open_landing(index, buf, matrices)
    for src, mat in matrices.items():
        buf[index.land[src]] = mat
    return {src: index.land[src] for src in matrices}


def accumulate_block(index: DecodeIndex, block: np.ndarray, out: np.ndarray) -> None:
    """``out[rows[src]] += block[land[src]]`` for every source of an
    accumulating ``index``, in mailbox order (src ascending).

    Exactly the float32 additions of the per-pair ``out[send_map[p]] +=
    mat``: a pair's rows are distinct (checked when the index was built),
    so every destination element receives its addends source by source.
    Compiled tier: one kernel call; NumPy tier: that per-pair loop.
    """
    if not index.accumulate:
        raise ValueError("accumulate_block needs an accumulating decode index")
    if block.shape != index.shape or out.shape != (index.n_out, index.shape[1]):
        raise ValueError(
            f"block {block.shape} / out {out.shape} do not fit the index "
            f"({index.shape}, {index.n_out} destination rows)"
        )
    lib = native.load()
    contiguous = block.flags.c_contiguous and out.flags.c_contiguous
    if lib is not None and contiguous and block.dtype == out.dtype == np.float32:
        if block.size:
            lib.repro_add_rows(
                block.ctypes.data,
                block.shape[0],
                block.shape[1],
                index.add_rows.ctypes.data,
                out.ctypes.data,
            )
        return
    for src in index.srcs:
        out[index.rows[src]] += block[index.land[src]]


def _decode_generic(
    lib,
    collects: dict[int, dict[int, MixedPrecisionPayload]],
    workspace: DecodeWorkspace | None,
    landed: dict[int, tuple[DecodeIndex, np.ndarray]],
) -> dict[int, dict[int, object]]:
    """Any payloads, no index match: per-source matrices, or for the
    receivers in ``landed`` their rows in place.  The NumPy decode, or the
    compiled kernel through offsets computed for this call."""
    flat: list[tuple[int, int, MixedPrecisionPayload]] = [
        (dst, src, payload)
        for dst, mailbox in collects.items()
        for src, payload in mailbox.items()
    ]
    dims = {p.dim for _, _, p in flat}
    if len(dims) > 1:
        raise ValueError("payloads of one step must share their dimension")
    dim = dims.pop() if dims else 0
    if lib is None or dim == 0:
        return _decode_numpy(collects, flat, dim, workspace, landed)
    decoded = _decode_native(lib, collects, flat, dim, workspace)
    for dst, target in landed.items():
        decoded[dst] = land_decoded(*target, decoded[dst])
    return decoded


def _decode_numpy(
    collects: dict[int, dict[int, MixedPrecisionPayload]],
    flat: list[tuple[int, int, MixedPrecisionPayload]],
    dim: int,
    workspace: DecodeWorkspace | None,
    landed: dict[int, tuple[DecodeIndex, np.ndarray]] | None = None,
) -> dict[int, dict[int, object]]:
    """The NumPy decode of :func:`decode_cluster_step`: the reference, and
    the fallback where the compiled tier is unavailable.  A receiver in
    ``landed`` gets each de-quantized group written straight to its rows of
    the receiver's buffer, instead of a per-source matrix."""
    landed = landed or {}
    for dst, (index, buf) in landed.items():
        _open_landing(index, buf, collects[dst])
    # bits -> parallel lists over that width's groups
    targets: dict[int, list[tuple[int, int, np.ndarray]]] = {}
    streams: dict[int, list[np.ndarray]] = {}
    zero_points: dict[int, list[np.ndarray]] = {}
    scales: dict[int, list[np.ndarray]] = {}
    for dst, src, payload in flat:
        covered = 0
        for bits, rows, stream, z, s in zip(
            payload.group_bits,
            payload.group_rows,
            payload.streams,
            payload.zero_points,
            payload.scales,
        ):
            targets.setdefault(bits, []).append((dst, src, rows))
            streams.setdefault(bits, []).append(stream)
            zero_points.setdefault(bits, []).append(z)
            scales.setdefault(bits, []).append(s)
            covered += rows.size
        if covered != payload.num_rows:
            raise ValueError("payload groups do not cover all rows")

    out: dict[int, dict[int, np.ndarray]] = {dst: {} for dst in collects}
    # Seed every result slot up front so each mailbox's iteration order is
    # its collection order (receivers accumulate in that order — the
    # bitwise contract).  Only payloads split across several groups need a
    # persistent matrix (their widths fill disjoint row sets);
    # single-group payloads cover every row, so their block of the
    # de-quantize buffer is the result (the None placeholder is replaced
    # by that view below).
    for dst, src, payload in flat:
        if dst in landed:
            continue
        if len(payload.group_bits) == 1:
            out[dst][src] = None  # type: ignore[assignment]
        elif payload.group_bits:
            shape = (payload.num_rows, payload.dim)
            out[dst][src] = (
                workspace.take(("mat", dst, src), shape, np.float32)
                if workspace is not None
                else np.empty(shape, dtype=np.float32)
            )
        else:  # zero groups: the coverage check above forced num_rows == 0
            out[dst][src] = np.empty((0, payload.dim), dtype=np.float32)
    for bits in sorted(targets):
        counts = np.asarray(
            [rows.size * dim for _, _, rows in targets[bits]], dtype=np.int64
        )
        total = int(counts.sum())
        codes_out = None
        if workspace is not None:
            per_byte = 8 // bits
            padded = -(-total // per_byte) * per_byte
            codes_out = workspace.take(("codes", bits), (padded,), np.uint8)
        codes = unpack_bits_batched(
            streams[bits], bits, counts, out=codes_out
        ).reshape(-1, dim)
        z_all = (
            zero_points[bits][0]
            if len(zero_points[bits]) == 1
            else np.concatenate(zero_points[bits])
        )
        s_all = (
            scales[bits][0] if len(scales[bits]) == 1 else np.concatenate(scales[bits])
        )
        n_rows = total // dim
        deq = (
            workspace.take(("deq", bits), (n_rows, dim), np.float32)
            if workspace is not None
            else np.empty((n_rows, dim), dtype=np.float32)
        )
        # Same elementwise chain as codes.astype(f32) * s + z, minus the
        # intermediate allocations (and the redundant trailing astype copy
        # the old formulation paid).
        deq[...] = codes
        deq *= s_all[:, None]
        deq += z_all[:, None]
        cursor = 0
        for dst, src, rows in targets[bits]:
            block = deq[cursor : cursor + rows.size]
            cursor += rows.size
            if dst in landed:
                index, buf = landed[dst]
                where = index.land[src]  # destination rows, or a block slice
                if isinstance(where, slice):
                    buf[where.start + rows] = block
                else:
                    buf[where[rows]] = block
                continue
            mat = out[dst].get(src)
            if mat is None:
                # Single full-coverage group: rows is exactly arange(n),
                # so the dequantized block *is* the matrix.
                out[dst][src] = block
            else:
                mat[rows] = block
    for dst, (index, _) in landed.items():
        out[dst] = {src: index.land[src] for src in collects[dst]}
    return out


def _cat(arrays: list[np.ndarray], dtype) -> np.ndarray:
    """``arrays`` end to end as one C-contiguous ``dtype`` array."""
    joined = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
    return np.ascontiguousarray(joined, dtype=dtype)


def _decode_native(
    lib,
    collects: dict[int, dict[int, MixedPrecisionPayload]],
    flat: list[tuple[int, int, MixedPrecisionPayload]],
    dim: int,
    workspace: DecodeWorkspace | None,
) -> dict[int, dict[int, np.ndarray]]:
    """The compiled decode (``_kernels.c``) of payloads that are not a
    plan's own (a mailbox missing a source, tests): the
    streams, zero points and scales are joined for this call and the
    kernel addresses them by offset, writing every group's rows straight
    into the per-pair matrix — the values ``codes * s + z`` of the NumPy
    decode, bit for bit.

    The step's matrices are consecutive row blocks of one buffer, so a
    group row's destination is a row index into it.  The kernel trusts its
    arguments, so they are checked here: every row index against its own
    payload's block, every stream's length against its group.
    """
    total = sum(payload.num_rows for _, _, payload in flat)
    buf = (
        workspace.take(("native", "out"), (total, dim), np.float32)
        if workspace is not None
        else np.empty((total, dim), dtype=np.float32)
    )
    out: dict[int, dict[int, np.ndarray]] = {dst: {} for dst in collects}
    # Parallel lists over the step's groups, in payload order.
    streams: list[np.ndarray] = []
    zero_points: list[np.ndarray] = []
    scales: list[np.ndarray] = []
    rows_in_block: list[np.ndarray] = []
    # Per group: bit-width, rows, first row and row count of its payload's block.
    shape: list[tuple[int, int, int, int]] = []
    offset = 0
    for dst, src, payload in flat:
        covered = 0
        for bits, rows, stream, z, s in zip(
            payload.group_bits,
            payload.group_rows,
            payload.streams,
            payload.zero_points,
            payload.scales,
        ):
            if bits not in (1, 2, 4, 8):
                raise ValueError(f"unsupported bit-width {bits}")
            streams.append(stream)
            zero_points.append(z)
            scales.append(s)
            rows_in_block.append(rows)
            shape.append((bits, rows.size, offset, payload.num_rows))
            covered += rows.size
        if covered != payload.num_rows:
            raise ValueError("payload groups do not cover all rows")
        out[dst][src] = buf[offset : offset + payload.num_rows]
        offset += payload.num_rows
    if not streams:
        return out
    bits, counts, first, block = np.array(shape, dtype=np.int64).T.copy()
    dest = _cat(rows_in_block, np.int64)
    if ((dest < 0) | (dest >= np.repeat(block, counts))).any():
        raise IndexError("group row index outside its payload")
    dest += np.repeat(first, counts)
    needed = packed_bytes(counts, dim, bits)
    sizes = np.fromiter((st.size for st in streams), np.int64, counts.size)
    if (sizes < needed).any():
        raise ValueError("stream too short")
    if (sizes > needed).any():
        streams = [st[:n] for st, n in zip(streams, needed)]
    stream = _cat(streams, np.uint8)
    z_all = _cat(zero_points, np.float32)
    s_all = _cat(scales, np.float32)
    if z_all.size != dest.size or s_all.size != dest.size:
        raise ValueError("zero points and scales must be per-row vectors")
    groups = np.zeros((counts.size, 4), dtype=np.int64)
    groups[:, 0], groups[:, 1] = bits, counts
    np.cumsum(needed[:-1], out=groups[1:, 2])
    np.cumsum(counts[:-1], out=groups[1:, 3])
    lib.repro_decode_rows(
        stream.ctypes.data,
        z_all.ctypes.data,
        s_all.ctypes.data,
        groups.ctypes.data,
        counts.size,
        dim,
        dest.ctypes.data,
        buf.ctypes.data,
    )
    return out


def decode_step(
    payloads: dict[int, MixedPrecisionPayload],
    *,
    workspace: DecodeWorkspace | None = None,
) -> dict[int, np.ndarray]:
    """Decode one receiver's payloads; see :func:`decode_cluster_step`."""
    return decode_cluster_step({-1: payloads}, workspace=workspace)[-1]


def kernels_agree(lib) -> bool:
    """The loader's self-test: a small fixed step through both tiers.

    Three pairs of a ragged width with mixed bit-widths (so payload order
    is not cat order, payloads have several groups and rows share bytes),
    a constant row and a 1-bit group: the compiled quantizer must
    reproduce the NumPy kernel's wire bytes, zero points and scales (over
    a wire buffer it finds full of ones); the compiled decode the NumPy
    decode's matrices, from foreign payloads and from the plan's through a
    :class:`DecodeIndex`; the compiled accumulate the per-pair adds; the
    CSR kernel scipy's ``csr_matvecs`` (:func:`_csr_agrees`); the post
    stage :class:`~repro.nn.layers.LayerNorm` (:func:`_post_agrees`).
    Calls the kernels directly — never :func:`repro.quant.native.load`,
    which is what is running this.
    """
    dim, counts = 19, np.array([5, 3, 4], dtype=np.int64)
    bits = np.array([2, 8, 4, 2, 1, 4, 4, 4, 8, 2, 8, 2], dtype=np.int64)
    n = int(counts.sum())
    rows = np.random.default_rng(0).normal(size=(n, dim)).astype(np.float32)
    rows[1] = 0.25
    pairs = [(0, 1), (0, 2), (1, 2)]
    rounding = KeyedRounding(0)
    encoder = FusedStepEncoder(rounding)
    plan = encoder.plan_for(
        None, pairs, counts, [(0, 0, n)], np.arange(n, dtype=np.int64), bits, dim
    )
    encoder.gather_step(plan, {0: rows})
    (shard,) = encoder.shards_for(plan, 1)
    keys = rounding.block_keys("fwd", 0, plan.pair_src, plan.pair_dst)
    encoder._pack_numpy(plan, shard, encoder._quantize_numpy(plan, shard, keys))
    want = [plan.wire.copy(), plan.zero_points.copy(), plan.scales.copy()]
    plan.wire.fill(0xFF)
    encoder._quantize_pack_native(lib, plan, shard, keys)
    if not (
        plan.wire.tobytes() == want[0].tobytes()
        and np.array_equal(plan.zero_points, want[1])
        and np.array_equal(plan.scales, want[2])
    ):
        return False
    reference = MixedPrecisionEncoder(rounding)
    bounds = plan.cat_bounds
    mailbox = {
        i: reference.encode(
            rows[bounds[i] : bounds[i + 1]],
            bits[bounds[i] : bounds[i + 1]],
            ("fwd", 0, *pair),
        )
        for i, pair in enumerate(pairs)
    }
    flat = [(-1, i, payload) for i, payload in mailbox.items()]
    want = _decode_numpy({-1: mailbox}, flat, dim, None)[-1]
    got = _decode_native(lib, {-1: mailbox}, flat, dim, None)[-1]
    if not all(got[i].tobytes() == want[i].tobytes() for i in mailbox):
        return False
    # Receiver 2's two pairs through an index: decode into a block, then
    # accumulate it twice into rows where the two sources overlap.
    index = decode_index(plan, 2, {0: [4, 0, 2], 1: [1, 2, 3, 4]}, 5, accumulate=True)
    block = np.full(index.shape, np.nan, dtype=np.float32)
    _decode_index_native(lib, index, block)
    own = {src: plan.payloads[i] for i, (src, d) in enumerate(pairs) if d == 2}
    decoded = _decode_numpy({2: own}, [(2, s, p) for s, p in own.items()], dim, None)
    expect = np.concatenate([decoded[2][0], decoded[2][1]])
    if block.tobytes() != expect.tobytes():
        return False
    got_sum, want_sum = np.ones((2, 5, dim), dtype=np.float32)
    lib.repro_add_rows(
        block.ctypes.data,
        len(block),
        dim,
        index.add_rows.ctypes.data,
        got_sum.ctypes.data,
    )
    for src in index.srcs:
        want_sum[index.rows[src]] += block[index.land[src]]
    return (
        got_sum.tobytes() == want_sum.tobytes()
        and _csr_agrees(lib)
        and _post_agrees(lib)
    )


def _csr_agrees(lib) -> bool:
    """The self-test's CSR case: ``repro_csr_rows`` against scipy's
    ``csr_matvecs`` on a small operator with an empty row and unsorted,
    repeated columns, at a narrow and a wide width, overwriting and
    accumulating, over every row and over row ranges passed as ``indptr``
    slices."""
    from scipy.sparse._sparsetools import csr_matvecs

    gen = np.random.default_rng(1)
    indptr = np.array([0, 3, 3, 4, 8, 10], dtype=np.int32)
    indices = np.array([2, 0, 2, 1, 6, 3, 0, 3, 5, 4], dtype=np.int32)
    data = gen.normal(size=10).astype(np.float32)
    for width in (5, 19):
        x = gen.normal(size=(7, width)).astype(np.float32)
        for lo, hi, accumulate in ((0, 5, 0), (0, 5, 1), (2, 5, 1), (1, 4, 0)):
            got = gen.normal(size=(hi - lo, width)).astype(np.float32)
            want = got.copy() if accumulate else np.zeros_like(got)
            rows = indptr[lo : hi + 1]
            lib.repro_csr_rows(
                hi - lo,
                rows.ctypes.data,
                indices.ctypes.data,
                data.ctypes.data,
                x.ctypes.data,
                width,
                got.ctypes.data,
                accumulate,
            )
            csr_matvecs(hi - lo, 7, width, rows, indices, data, x.ravel(), want.ravel())
            if got.tobytes() != want.tobytes():
                return False
    return True


def _post_agrees(lib) -> bool:
    """The self-test's post-stage case: ``repro_post_forward`` /
    ``repro_post_backward`` against :class:`~repro.nn.layers.LayerNorm`'s
    ``forward_into`` and ``input_grad``, the ReLU and dropout multiplies and
    per-block ``sum(axis=0)`` partials — at a ragged width, with a
    zero-variance row and an empty block, dropout off and on."""
    from repro.nn.layers import LayerNorm

    gen = np.random.default_rng(2)
    n, dim = 7, 19
    norm = LayerNorm(dim)
    norm.gamma.data[...] = gen.normal(size=dim)
    norm.beta.data[...] = gen.normal(size=dim)
    bounds = np.array([0, 3, 3, n], dtype=np.int64)
    halved = (gen.random((n, dim)) < 0.5).astype(np.float32) / np.float32(0.5)
    for drop in (None, halved):
        x = gen.normal(size=(n, dim)).astype(np.float32)
        x[2] = 1.5
        h, x_hat, want_hat = x.copy(), np.empty_like(x), np.empty_like(x)
        inv_std, mask = np.empty((n, 1), np.float32), np.empty((n, dim), bool)
        want_inv = norm.forward_into(x, want_hat)
        want_mask = x > 0
        x *= want_mask
        if drop is not None:
            x *= drop
        drop_ptr = None if drop is None else drop.ctypes.data
        lib.repro_post_forward(
            n,
            dim,
            h.ctypes.data,
            norm.gamma.data.ctypes.data,
            norm.beta.data.ctypes.data,
            norm.eps,
            drop_ptr,
            x_hat.ctypes.data,
            inv_std.ctypes.data,
            mask.ctypes.data,
        )
        got, want = (h, x_hat, inv_std, mask), (x, want_hat, want_inv, want_mask)
        if [a.tobytes() for a in got] != [b.tobytes() for b in want]:
            return False
        d = gen.normal(size=(n, dim)).astype(np.float32)
        g, partials = d.copy(), np.full((3, 2, dim), np.nan, np.float32)
        if drop is not None:
            d *= drop
        d *= want_mask
        want = [
            [(d * want_hat)[lo:hi].sum(axis=0), d[lo:hi].sum(axis=0)]
            for lo, hi in zip(bounds[:-1], bounds[1:])
        ]
        want_grad = norm.input_grad(d, want_hat, want_inv)
        lib.repro_post_backward(
            dim,
            g.ctypes.data,
            x_hat.ctypes.data,
            inv_std.ctypes.data,
            mask.ctypes.data,
            drop_ptr,
            norm.gamma.data.ctypes.data,
            bounds.ctypes.data,
            3,
            partials.ctypes.data,
        )
        if g.tobytes() != want_grad.tobytes():
            return False
        if partials.tobytes() != np.array(want, dtype=np.float32).tobytes():
            return False
    return True
