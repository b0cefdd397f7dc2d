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
  scalar, and every pass is row-wise, so only the finished uint8 codes
  and the per-row zero points/scales are permuted into *payload* order
  (bit-widths ascending within each pair);
* packing runs through :func:`~repro.quant.packing.pack_bits_batched`, one
  batch per distinct bit-width, producing the per-(pair, group) byte
  streams of the wire format — wire-byte accounting is the per-message
  encoder's;
* on the receive side, :func:`decode_cluster_step` unpacks and
  de-quantizes every payload of the step in one batch per bit-width
  (de-quantization is row-elementwise, so it batches across pairs and
  receivers without changing a single value).

**Encode shards.**  A step's pairs partition into contiguous row
spans (:meth:`FusedStepEncoder.shards_for`); each shard's quantize/pack is
self-contained — it reads and writes only its row span of the plan
scratch — so a multi-worker transport runs shards concurrently.  Every
pair's noise is its own keyed draw, so any shard count (and any retirement
order) emits byte-identical payloads.

**Two kernel tiers.**  The quantization kernel of
:meth:`FusedStepEncoder.quantize_pack_shard` and the unpack + de-quantize
of :func:`decode_cluster_step` each exist twice: as the NumPy kernels
below, and as one-pass C loops (``_kernels.c``, built and loaded on first
use by :mod:`repro.quant.native`) that perform the same float32 operations
in the same order and so emit the same bytes.  The compiled tier runs
wherever it loads; the NumPy tier is the reference it is tested against
bitwise and the fallback everywhere else.  Nothing selects between them
but what the loader observes.

All index structures (gather orders, group slices, payload skeletons) are
cached in a :class:`FusedStepPlan` and reused across epochs until the
bit-width assignment for the step changes (i.e. at reassignment
boundaries).  The staged-value and code buffers (5 bytes per element)
are preallocated alongside the plan; the quantization kernel itself runs
over pair-aligned row *chunks* with scratch bounded by the chunk, so the
noise/normalize/floor intermediates never materialize for the whole step
at once — at huge-graph scale that keeps hundreds of MB of per-step
scratch out of the resident set.  Chunking is invisible in the output:
keyed noise is one draw per pair and a chunk is a whole number of pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.quant import native
from repro.quant.mixed import MixedPrecisionEncoder, MixedPrecisionPayload
from repro.quant.packing import pack_bits_batched, unpack_bits_batched
from repro.quant.stochastic import KeyedRounding, as_rounding

__all__ = [
    "FusedStepPlan",
    "FusedStepEncoder",
    "ShardDescriptor",
    "shard_descriptor",
    "pair_shard",
    "DecodeWorkspace",
    "decode_step",
    "decode_cluster_step",
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
    """One (pair, bit-width) group: its slice of the step's payload order."""

    bits: int
    start: int
    stop: int
    rows: np.ndarray  # local row indices within the pair message, ascending


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
    # slices of its groups and their element counts (packing batches).
    bit_slices: dict[int, list[slice]]
    bit_elems: dict[int, np.ndarray]
    # For widths whose groups are scattered across pairs: their rows in
    # payload-emission order (one precomputed take instead of a per-group
    # concatenate) plus the reusable gather destination.
    bit_rows: dict[int, np.ndarray]
    bit_gather: dict[int, np.ndarray]


@dataclass
class FusedStepPlan:
    """Cached index structures for one (layer, phase) step of the cluster.

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
    # row, where the compiled kernel writes that row's outputs; None when
    # the two orders coincide.
    payload_pos: np.ndarray | None
    levels: np.ndarray  # (n_total, 1) float32, 2^bits - 1 per cat row
    pair_src: np.ndarray  # (n_pairs,) int64 — the pairs' key coordinates
    pair_dst: np.ndarray
    pair_groups: dict[tuple[int, int], list[_PairGroup]]
    # Staging buffers (reused every epoch while the plan is valid).  The
    # quantization intermediates (noise, normalized values, floors,
    # round-up mask) are deliberately NOT plan-resident: the NumPy kernel
    # allocates them per chunk, the compiled one needs none.
    cat_buf: np.ndarray  # (n_total, dim) float32 staged rows, cat order
    codes_buf: np.ndarray  # (n_total, dim) uint8, payload order
    # Shard decompositions, cached per shard count (built on demand).
    shard_cache: dict[int, list[_EncodeShard]] = field(default_factory=dict)

    @property
    def n_total(self) -> int:
        return int(self.bits_cat.size)


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

    pair_groups: dict[tuple[int, int], list[_PairGroup]] = {}
    pos = 0
    for i, pair in enumerate(pairs):
        pair_bits = bits_cat[bounds[i] : bounds[i + 1]]
        groups: list[_PairGroup] = []
        for b in np.unique(pair_bits):
            local_rows = np.flatnonzero(pair_bits == b)
            groups.append(
                _PairGroup(
                    bits=int(b), start=pos, stop=pos + local_rows.size, rows=local_rows
                )
            )
            pos += local_rows.size
        pair_groups[pair] = groups

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
        cat_buf=np.empty((n_total, dim), dtype=np.float32),
        codes_buf=np.empty((n_total, dim), dtype=np.uint8),
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
    bit_rows: dict[int, np.ndarray] = {}
    bit_gather: dict[int, np.ndarray] = {}
    if len(distinct) > 1:
        for b, slices in bit_slices.items():
            if len(slices) > 1:
                rows = np.concatenate(
                    [np.arange(sl.start, sl.stop, dtype=np.int64) for sl in slices]
                )
                bit_rows[b] = rows
                bit_gather[b] = np.empty((rows.size, plan.dim), dtype=np.uint8)
    return _EncodeShard(
        pair_lo=lo,
        pair_hi=hi,
        start=int(plan.cat_bounds[lo]),
        stop=int(plan.cat_bounds[hi]),
        single_bits=distinct[0] if len(distinct) == 1 else None,
        bit_slices=bit_slices,
        bit_elems={b: np.asarray(e, dtype=np.int64) for b, e in bit_elems.items()},
        bit_rows=bit_rows,
        bit_gather=bit_gather,
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
        ``(phase, layer)``.

        The two halves are also exposed separately for the async transport:
        :meth:`gather_step` snapshots the source rows (and feeds the
        tracer) on the calling thread, after which
        :meth:`quantize_pack_step` is safe to run on a transport worker —
        it touches only plan-owned scratch and the encoder's noise policy.
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
        touches only plan-owned scratch: the one-shard composition of
        :meth:`quantize_pack_shard`.
        """
        payloads: dict[tuple[int, int], MixedPrecisionPayload] = {}
        for shard in self.shards_for(plan, 1):
            payloads.update(self.quantize_pack_shard(plan, shard, coords=coords))
        return payloads

    def _quantize_numpy(
        self, plan: FusedStepPlan, shard: _EncodeShard, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The NumPy quantization kernel: the reference, and the fallback
        where the compiled tier is unavailable."""
        dim = plan.dim
        start, stop = shard.start, shard.stop
        n_rows = stop - start

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
        z_all = np.empty(n_rows, dtype=np.float32)
        s_all = np.empty(n_rows, dtype=np.float32)
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
                np.take(codes_cat[:m], order, axis=0, out=plan.codes_buf[a:b])
                np.take(z32, order, out=z_all[span])
                np.take(scale, order, out=s_all[span])
            else:
                plan.codes_buf[a:b] = codes
            i = j
        return z_all, s_all

    def _quantize_native(
        self, lib, plan: FusedStepPlan, shard: _EncodeShard, keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The compiled kernel (``_kernels.c``): the same float32 operations
        in the same order in one pass per row — draw, range, normalize,
        round — writing each row's outputs at its payload position, so
        there is no per-chunk scratch and nothing to permute afterwards."""
        n_rows = shard.stop - shard.start
        z_all = np.empty(n_rows, dtype=np.float32)
        s_all = np.empty(n_rows, dtype=np.float32)
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        lanes = np.empty(plan.dim + 16, dtype=np.uint16)  # the only scratch
        dest = plan.payload_pos
        lib.repro_quantize_pairs(
            plan.cat_buf.ctypes.data,
            plan.cat_bounds.ctypes.data,
            shard.pair_lo,
            shard.pair_hi,
            keys.ctypes.data,
            plan.levels.ctypes.data,
            None if dest is None else dest.ctypes.data,
            plan.dim,
            plan.codes_buf.ctypes.data,
            z_all.ctypes.data,
            s_all.ctypes.data,
            lanes.ctypes.data,
        )
        return z_all, s_all

    def quantize_pack_shard(
        self, plan: FusedStepPlan, shard: _EncodeShard, *, coords
    ) -> dict[tuple[int, int], MixedPrecisionPayload]:
        """Quantize + pack one contiguous shard of the gathered step.

        Reads and writes only the shard's ``[start, stop)`` row span of
        the plan scratch, so a multi-worker transport may run disjoint
        shards concurrently.  ``coords`` is the step's ``(phase, layer)``
        (each pair's noise is one keyed Philox draw).
        """
        dim = plan.dim
        start, stop = shard.start, shard.stop
        if stop == start:
            return {}
        phase, layer = coords
        lo, hi = shard.pair_lo, shard.pair_hi
        keys = self.rounding.block_keys(
            phase, layer, plan.pair_src[lo:hi], plan.pair_dst[lo:hi]
        )
        # Two tiers, one contract: both fill the shard's span of
        # plan.codes_buf and return its zero points and scales, all in
        # payload order, and they agree bit for bit (the NumPy kernel is the
        # reference the compiled one is tested against, and the fallback).
        lib = native.load()
        if lib is not None and dim > 0:
            z32, s32 = self._quantize_native(lib, plan, shard, keys)
        else:
            z32, s32 = self._quantize_numpy(plan, shard, keys)
        codes_buf = plan.codes_buf[start:stop]

        # --- pack each distinct bit-width as one batch -------------------
        # Codes were clamped to range above, so the packers' O(n) range
        # scan is skipped (validate=False — the trusted internal path).
        streams_by_bits: dict[int, list[np.ndarray]] = {}
        for bits, slices in shard.bit_slices.items():
            if len(slices) == 1:
                segment = plan.codes_buf[slices[0]]
            elif shard.single_bits is not None:
                # Single distinct bit-width: the slices tile the span.
                segment = codes_buf
            else:
                # Scattered groups: one precomputed take into shard scratch
                # (no per-group Python loop on the hot path).
                segment = np.take(
                    plan.codes_buf,
                    shard.bit_rows[bits],
                    axis=0,
                    out=shard.bit_gather[bits],
                )
            streams_by_bits[bits] = pack_bits_batched(
                segment, bits, shard.bit_elems[bits], validate=False
            )

        # --- assemble per-pair payloads ----------------------------------
        stream_cursor = dict.fromkeys(streams_by_bits, 0)
        payloads: dict[tuple[int, int], MixedPrecisionPayload] = {}
        for i in range(shard.pair_lo, shard.pair_hi):
            pair = plan.pairs[i]
            group_bits: list[int] = []
            group_rows: list[np.ndarray] = []
            streams: list[np.ndarray] = []
            zero_points: list[np.ndarray] = []
            scales: list[np.ndarray] = []
            for g in plan.pair_groups[pair]:
                group_bits.append(g.bits)
                group_rows.append(g.rows)
                streams.append(streams_by_bits[g.bits][stream_cursor[g.bits]])
                stream_cursor[g.bits] += 1
                zero_points.append(z32[g.start - start : g.stop - start])
                scales.append(s32[g.start - start : g.stop - start])
            payloads[pair] = MixedPrecisionPayload(
                num_rows=int(plan.pair_counts[i]),
                dim=dim,
                group_bits=group_bits,
                group_rows=group_rows,
                streams=streams,
                zero_points=zero_points,
                scales=scales,
            )
        return payloads


@dataclass(frozen=True)
class ShardDescriptor:
    """Picklable coordinates of one encode shard: plain data, no closures.

    Enough for a worker *process* to rebuild the shard's plan locally and
    reproduce its payload bytes bitwise: noise is a pure function of
    ``(run_seed, epoch, phase, layer, src, dst)``.
    The shard is re-planned as a standalone mini-step whose input rows
    arrive already in cat order (``cat_idx = arange``, one device block):
    quantization is row-wise, each pair's noise is its own keyed draw and
    packing is per-group deterministic, so the mini-plan emits exactly the
    streams the full plan's :meth:`FusedStepEncoder.quantize_pack_shard`
    emits for the same pair span (the shard-decomposition-independence
    contract the equivalence suite pins down).
    """

    run_seed: int
    epoch: int
    phase: str
    layer: int
    pairs: tuple[tuple[int, int], ...]  # real (src, dst) — the noise keys
    pair_counts: tuple[int, ...]
    bits_cat: bytes  # int8 per cat row, pair-major (the shard's row span)
    dim: int

    def signature(self) -> tuple:
        """Everything the rebuilt plan depends on (epoch excluded — the
        plan survives epochs; only the noise coordinate changes)."""
        return (
            self.run_seed,
            self.phase,
            self.layer,
            self.pairs,
            self.pair_counts,
            self.bits_cat,
            self.dim,
        )

    def build(self) -> tuple["FusedStepEncoder", FusedStepPlan]:
        """A standalone (encoder, plan) reproducing this shard's payloads."""
        from repro.quant.stochastic import KeyedRounding

        counts = np.asarray(self.pair_counts, dtype=np.int64)
        n = int(counts.sum())
        bits = np.frombuffer(self.bits_cat, dtype=np.int8).astype(np.int64)
        encoder = FusedStepEncoder(KeyedRounding(self.run_seed))
        plan = encoder.plan_for(
            (self.phase, self.layer),
            list(self.pairs),
            counts,
            [(0, 0, n)],
            np.arange(n, dtype=np.int64),
            bits,
            self.dim,
        )
        return encoder, plan

    def encode(
        self, rows: np.ndarray, *, cache: dict | None = None
    ) -> dict[tuple[int, int], MixedPrecisionPayload]:
        """Quantize + pack ``rows`` (the shard's cat-order row span).

        ``cache``, when given, persists the rebuilt (encoder, plan) across
        steps keyed by the shard's pair span; a changed bit assignment
        (different :meth:`signature`) rebuilds in place.
        """
        sig = self.signature()
        key = ("shard-plan", self.phase, self.layer, self.pairs)
        entry = cache.get(key) if cache is not None else None
        if entry is None or entry[0] != sig:
            entry = (sig, *self.build())
            if cache is not None:
                cache[key] = entry
        _, encoder, plan = entry
        encoder.rounding.set_epoch(self.epoch)
        encoder.gather_step(plan, {0: np.asarray(rows, dtype=np.float32)})
        return encoder.quantize_pack_step(plan, coords=(self.phase, self.layer))


def shard_descriptor(
    plan: FusedStepPlan,
    shard: _EncodeShard,
    *,
    rounding,
    phase: str,
    layer: int,
) -> ShardDescriptor:
    """The picklable coordinates of ``shard`` within ``plan``.

    ``rounding`` (a keyed policy) supplies ``run_seed`` and the current
    ``epoch``.
    """
    rounding = as_rounding(rounding)
    lo, hi = shard.pair_lo, shard.pair_hi
    return ShardDescriptor(
        run_seed=int(rounding.run_seed),
        epoch=int(rounding.epoch),
        phase=phase,
        layer=int(layer),
        pairs=tuple(plan.pairs[lo:hi]),
        pair_counts=tuple(int(c) for c in plan.pair_counts[lo:hi]),
        bits_cat=plan.bits_cat[shard.start : shard.stop]
        .astype(np.int8)
        .tobytes(),
        dim=plan.dim,
    )


class DecodeWorkspace:
    """Reusable scratch buffers for :func:`decode_cluster_step`.

    One instance per exchange; buffers are keyed by role and revalidated
    by shape, so they persist across epochs and resize only at
    reassignment boundaries.  Matrices returned by a workspace-backed
    decode are views into (or reuses of) these buffers — valid until the
    next decode call, which is exactly the finalize-half's
    consume-immediately lifetime.

    At pipeline depth 2 the fused exchange keeps *two* workspaces per
    receiver, keyed on ``(receiver, parity)`` with the parity flipping
    at every posted step — a tag-L+1 decode then never reuses scratch a
    not-yet-consumed tag-L view still aliases, and each view's lifetime
    extends to the next *same-parity* decode, two steps away.
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
) -> dict[int, dict[int, np.ndarray]]:
    """Decode every payload of one step with batched kernels.

    ``collects`` maps each receiving rank to its ``{src: payload}`` mailbox
    (the shape :meth:`Transport.collect` returns).  Every (receiver, pair,
    group) stream of the step is bucketed by bit-width, unpacked through
    one batched lookup-table kernel per width and de-quantized in one
    elementwise kernel; per-pair matrices are then reassembled — payloads
    whose single group covers every row are served as zero-copy views into
    the de-quantize buffer.  Produces exactly the matrices
    ``payload.decode()`` would — de-quantization is row-elementwise, so
    batching cannot change any value — preserving each mailbox's iteration
    order (gradient accumulation order stays src-ascending).

    ``workspace``, when given, supplies scratch reused across calls; the
    returned matrices then stay valid only until the next decode (the
    fused exchange consumes them within ``finalize_step``).

    Where the compiled tier is loaded (:mod:`repro.quant.native`) the same
    matrices come from one unpack + de-quantize pass that writes them
    directly; the NumPy decode is the reference it is tested against.
    """
    flat: list[tuple[int, int, MixedPrecisionPayload]] = [
        (dst, src, payload)
        for dst, mailbox in collects.items()
        for src, payload in mailbox.items()
    ]
    if not flat:
        return {dst: {} for dst in collects}
    dims = {p.dim for _, _, p in flat}
    if len(dims) != 1:
        raise ValueError("payloads of one step must share their dimension")
    dim = dims.pop()
    lib = native.load()
    if lib is not None and dim > 0:
        return _decode_native(lib, collects, flat, dim, workspace)
    return _decode_numpy(collects, flat, dim, workspace)


def _decode_numpy(
    collects: dict[int, dict[int, MixedPrecisionPayload]],
    flat: list[tuple[int, int, MixedPrecisionPayload]],
    dim: int,
    workspace: DecodeWorkspace | None,
) -> dict[int, dict[int, np.ndarray]]:
    """The NumPy decode of :func:`decode_cluster_step`: the reference, and
    the fallback where the compiled tier is unavailable."""
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
            mat = out[dst].get(src)
            if mat is None:
                # Single full-coverage group: rows is exactly arange(n),
                # so the dequantized block *is* the matrix.
                out[dst][src] = block
            else:
                mat[rows] = block
            cursor += rows.size
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
    """The compiled decode (``_kernels.c``): one pass that unpacks every
    group's stream and de-quantizes it straight into its rows of the
    per-pair matrix — no bucketing by width, no unpacked-code or
    de-quantize buffers — with the values ``codes * s + z`` of the NumPy
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
    needed = -(-counts * dim * bits // 8)
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
    lib.repro_decode_groups(
        stream.ctypes.data,
        counts.size,
        bits.ctypes.data,
        counts.ctypes.data,
        dim,
        z_all.ctypes.data,
        s_all.ctypes.data,
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
    is not cat order and payloads have several groups), a constant row and
    a 1-bit group: the compiled quantizer must reproduce the NumPy kernel's
    codes, zero points and scales, and the compiled decode the NumPy
    decode's matrices.  Calls the kernels directly — never
    :func:`repro.quant.native.load`, which is what is running this.
    """
    dim, counts = 19, np.array([5, 3, 4], dtype=np.int64)
    bits = np.array([2, 8, 4, 2, 1, 4, 4, 4, 8, 2, 8, 2], dtype=np.int64)
    n = int(counts.sum())
    rows = np.random.default_rng(0).normal(size=(n, dim)).astype(np.float32)
    rows[1] = 0.25
    pairs = [(0, 1), (0, 2), (1, 0)]
    rounding = KeyedRounding(0)
    encoder = FusedStepEncoder(rounding)
    plan = encoder.plan_for(
        None, pairs, counts, [(0, 0, n)], np.arange(n, dtype=np.int64), bits, dim
    )
    encoder.gather_step(plan, {0: rows})
    (shard,) = encoder.shards_for(plan, 1)
    keys = rounding.block_keys("fwd", 0, plan.pair_src, plan.pair_dst)
    z_ref, s_ref = encoder._quantize_numpy(plan, shard, keys)
    codes_ref = plan.codes_buf.copy()
    plan.codes_buf.fill(0xFF)
    z, s = encoder._quantize_native(lib, plan, shard, keys)
    if not (
        np.array_equal(plan.codes_buf, codes_ref)
        and np.array_equal(z, z_ref)
        and np.array_equal(s, s_ref)
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
    return all(np.array_equal(got[i], want[i]) for i in mailbox)
