"""Fused mixed-precision encoding for one whole exchange step.

The wire format is stated one (src, dst) message at a time by the
reference encoder in ``tests/reference/wire.py``: per bit-width group,
one quantize kernel and one pack call.  Run that way a 16-device, 3-layer
epoch issues thousands of tiny NumPy calls, so this module fuses **all**
boundary messages of one (layer, phase) step — across every source device
and every peer — into batched kernels that emit the same bytes:

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
* on the receive side, :func:`decode_cluster_step` lands one receiver:
  it unpacks and de-quantizes the receiver's groups of the plan's wire
  straight into its destination, where its :class:`DecodeIndex` says —
  one kernel call on the compiled tier, one batch per bit-width on the
  NumPy tier.  A landing reads the plan, never a mailbox: the exchange
  checks the mailbox apart, as the delivery audit.

Full precision is the same step without bit-widths: a
:class:`Float32StepPlan` has the pair geometry and the gather, and its wire
*is* the gathered float32 rows — a pair's payload is a read-only row view
of its source's staged rows, landed through the same :class:`DecodeIndex`
(:func:`land_rows` into halo rows, :func:`accumulate_rows` into owned
rows).

**Payload lifetime.**  A payload returned by
:meth:`FusedStepEncoder.quantize_pack_shard` is a view of plan-owned
memory: its bytes stay valid until the *next encode of the same plan*
(exchanges consume a step's payloads within its finalize, long before
that).  Anyone holding payloads across encodes snapshots their bytes.
Payload arrays are read-only views; nothing in a payload refers back to
the plan, so a replaced plan is freed as soon as its last user drops it.

**Encode shards.**  A step's pairs partition into contiguous row
spans (:meth:`FusedStepEncoder.shards_for`); each shard's quantize/pack is
self-contained — it reads and writes only its rows of the step's buffers
(the wire layout is pair-major, so a shard's streams are one byte range)
— so a multi-worker transport runs shards concurrently.  Every pair's
noise is its own keyed draw, so any shard count (and any retirement
order) emits byte-identical payloads.

**Two kernel tiers.**  The quantize + pack of
:meth:`FusedStepEncoder.quantize_pack_shard` and the unpack + de-quantize
of :func:`decode_cluster_step` each exist twice: as the NumPy kernels
below, and as one-pass C loops (``_kernels.c``, built and loaded on first
use by :mod:`repro.kernels`) that perform the same float32 operations
in the same order and so emit the same bytes.  The compiled quantizer
writes codes already packed into the wire buffer (no step-wide code array
exists); the NumPy one stages uint8 codes in ``codes_buf`` and packs them
with :func:`~repro.quant.packing.pack_bits_batched`.  Both decodes read
one input, a receiver's :class:`DecodeIndex` — its group table of
``(bits, rows, offset, first)`` and its destination rows — over the
plan's wire, so a receiver lands the same way whatever its mailbox holds.
The compiled tier runs wherever it loads; the NumPy tier is the fallback
everywhere else, and both are tested against the per-message reference
decode.  Nothing selects between them but what the loader observes.

All index structures (gather orders, group slices, wire layout, payload
views, decode indices) are cached in a :class:`FusedStepPlan` and reused
across epochs until the bit-width assignment for the step changes (i.e.
at reassignment boundaries).  A plan's staging is not its own: the
gathered float32 rows (``cat_buf``) and the NumPy tier's uint8 codes
(``codes_buf``) are views of one block each, held by the
:class:`FusedStepEncoder` and sized by the widest step it has handed out.
One exchange step is in flight at a time (an exchange finalizes a step
before it posts the next), so a step's staged rows need to hold only
from its post to its finalize — the window a keyed replay reads them in.

The NumPy quantization kernel runs over pair-aligned row *chunks* with
scratch bounded by the chunk, so the noise/normalize/floor intermediates
never materialize for the whole step at once — at huge-graph scale that
keeps hundreds of MB of per-step scratch out of the resident set.  Chunking is invisible in the output:
keyed noise is one draw per pair and a chunk is a whole number of pairs.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from repro import kernels
from repro.quant.mixed import MixedPrecisionPayload
from repro.quant.packing import pack_bits_batched, unpack_bits_batched
from repro.quant.stochastic import as_rounding
from repro.quant.theory import packed_bytes

__all__ = [
    "FusedStepPlan",
    "Float32StepPlan",
    "FusedStepEncoder",
    "pair_shard",
    "DecodeIndex",
    "decode_index",
    "DecodeWorkspace",
    "decode_cluster_step",
    "land_rows",
    "accumulate_block",
    "accumulate_rows",
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
    # Per device block, the source rows its indices span, ``(min, max + 1)``
    # (``(0, 0)`` when empty): what a gather checks its source against.
    block_ranges: list[tuple[int, int]]
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
    # Buffers the plan owns, reused every epoch while it is valid: what
    # its payloads view.  The NumPy kernel's intermediates (noise,
    # normalized values, floors, round-up mask) are NOT plan-resident: it
    # allocates them per chunk, the compiled one needs none.
    wire: np.ndarray  # uint8: every (pair, group) stream, payload order
    zero_points: np.ndarray  # (n_total,) float32, payload order
    scales: np.ndarray  # (n_total,) float32, payload order
    payloads: list[MixedPrecisionPayload]  # per pair: views of the above
    # Staging the plan does not own: views of its encoder's one block of
    # each, bound by ``FusedStepEncoder.plan_for`` and valid from the
    # step's post to its finalize (the next step's gather overwrites
    # them).  ``cat_buf`` holds the (n_total, dim) float32 rows in cat
    # order; ``codes_buf`` the (n_total, dim) uint8 codes in payload
    # order, the NumPy kernel's — None until that kernel first runs in
    # the encoder, so never on the compiled tier.
    cat_buf: np.ndarray | None = None
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
    # pair (the reference encoder iterates sorted unique bits); the stable
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
        block_ranges=[
            (int(cat_idx[a:b].min()), int(cat_idx[a:b].max()) + 1) if b > a else (0, 0)
            for _, a, b in device_blocks
        ],
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


@dataclass(eq=False)
class Float32StepPlan:
    """One (layer, phase) step at full precision: the wire *is* the
    gathered float32 rows.

    The pair geometry of a :class:`FusedStepPlan` and nothing of
    quantization.  :meth:`stage` gathers each source device's outgoing rows
    into a fresh array and hands out each pair's payload as a read-only row
    view of it, ``rows·dim·4`` bytes with no zero points, scales or headers;
    receivers land the staged rows through a :class:`DecodeIndex` of this
    plan (:func:`land_rows`, :func:`accumulate_rows`).  ``staged`` holds the
    payloads a step posts until the step's finalize drops them (what lands,
    and what a delivery audit expects), so no float32 copy of the halo
    traffic stays resident between steps unless an exchange keeps one.
    The staging is one array per source device, not one step-wide buffer:
    freeing a buffer that large raises the allocator's mmap threshold and
    leaves later allocations resident.

    ``spans[i]`` are pair ``i``'s rows of its source's staged block.  A
    plan with ``picks`` has broadcast geometry: each pair's payload is its
    source's whole block, and its receiver lands rows ``picks[i]`` of it.
    """

    pairs: list[tuple[int, int]]  # (src, dst): sources, then peers, ascending
    pair_counts: np.ndarray  # rows per payload
    device_blocks: list[tuple[int, int, int]]  # (rank, start, stop) cat slices
    cat_idx: np.ndarray  # (n_total,) local source row per cat position
    spans: list[tuple[int, int]]
    picks: dict[int, np.ndarray]  # pair index -> the payload rows that land
    dim: int
    staged: dict[tuple[int, int], np.ndarray] | None = None  # payloads, if staged
    # Decode indices, cached per (receiver, accumulate) (built on demand).
    decode_cache: dict[tuple[int, bool], DecodeIndex] = field(default_factory=dict)

    def stage(self, values_by_rank, observe=None) -> dict[tuple[int, int], np.ndarray]:
        """Gather the step's source rows (a snapshot); returns every pair's
        payload, ``{(src, dst): rows}``, and feeds ``observe(src, dst,
        rows)`` when given."""
        blocks = {}
        for rank, start, stop in self.device_blocks:
            rows = np.take(values_by_rank[rank], self.cat_idx[start:stop], axis=0)
            blocks[rank] = rows.astype(np.float32, copy=False)
        staged = {
            pair: _readonly(blocks[pair[0]][lo:hi])
            for pair, (lo, hi) in zip(self.pairs, self.spans)
        }
        if observe is not None:
            for (src, dst), rows in staged.items():
                observe(src, dst, rows)
        self.staged = staged
        return staged


class FusedStepEncoder:
    """Encode a whole (layer, phase) exchange step in batched kernels.

    One instance per exchange; plans are cached per step key and
    revalidated against the step's current bit assignment.  ``rounding``
    is a :class:`~repro.quant.stochastic.KeyedRounding`; every encode
    needs the step's ``(phase, layer)`` coordinates (the ``coords``
    arguments below), which with each pair's ``(src, dst)`` key its noise.

    A step encodes in two halves: :meth:`gather_step` snapshots the source
    rows on the calling thread, then :meth:`quantize_pack_shard` runs once
    per shard of :meth:`shards_for` — worker-safe, as it touches only the
    shard's rows of the plan's buffers.

    The encoder owns the staging: one float32 block of gathered rows and,
    once the NumPy kernel runs, one uint8 block of codes.  Every plan's
    ``cat_buf`` / ``codes_buf`` is a view of their front, bound by
    :meth:`plan_for`; a block grows only when a wider step first appears,
    and then every cached plan moves to the new one, so a run holds the
    staging of its widest step, not of every step.  That rests on one
    step being in flight at a time: a step's rows must be encoded (and any
    replay done) before the next step is gathered.
    """

    def __init__(self, rounding) -> None:
        self.rounding = as_rounding(rounding)
        self._plans: dict[object, FusedStepPlan] = {}
        self._rows = np.empty(0, dtype=np.float32)  # every plan's cat_buf
        self._codes: np.ndarray | None = None  # every codes_buf, same size
        self._codes_lock = threading.Lock()  # shards may race to allocate it

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
        """Fetch (or rebuild) the cached plan for one step, its staging
        bound to the encoder's blocks."""
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
        self._bind(plan, codes=False)
        return plan

    def _bind(self, plan: FusedStepPlan, *, codes: bool) -> None:
        """View the front of the encoder's blocks as ``plan``'s staging,
        allocating the code block when ``codes`` asks for it.  A block too
        small for the plan is replaced by one that fits, and every cached
        plan moves to it, so the old block is freed."""
        size = plan.n_total * plan.dim
        rebind = [plan]
        if size > self._rows.size:
            self._rows = np.empty(size, dtype=np.float32)
            if self._codes is not None:
                self._codes = np.empty(size, dtype=np.uint8)
            rebind += self._plans.values()
        elif codes and self._codes is None:
            self._codes = np.empty(self._rows.size, dtype=np.uint8)
            rebind += self._plans.values()
        for p in rebind:
            n, shape = p.n_total * p.dim, (p.n_total, p.dim)
            p.cat_buf = self._rows[:n].reshape(shape)
            if self._codes is not None:
                p.codes_buf = self._codes[:n].reshape(shape)

    def gather_step(self, plan: FusedStepPlan, values_by_rank, observe=None) -> None:
        """Stage the step's source rows into ``plan.cat_buf`` (a snapshot,
        in the encoder's staging block: valid until the next gather).

        ``values_by_rank`` maps a device rank to the float32 matrix its
        messages are gathered from (activations or halo gradients); a list
        indexed by rank works too.  ``observe``, when given, is called per
        pair with ``(src, dst, rows)``, ``rows`` being the pair's block in
        original row order — the tracer hook.

        Each device block is checked against its source's row count once
        (an out-of-range block raises ``IndexError``), so the gather runs
        in ``mode="wrap"``, straight into ``cat_buf``: NumPy's default
        ``mode="raise"`` stages an ``out=`` gather in a hidden temporary and
        copies it over.
        """
        if plan.n_total == 0:
            return
        for (rank, start, stop), (lo, hi) in zip(plan.device_blocks, plan.block_ranges):
            vals = values_by_rank[rank]
            if vals.dtype != np.float32:
                vals = np.asarray(vals, dtype=np.float32)
            if lo < 0 or hi > vals.shape[0]:
                raise IndexError(
                    f"device {rank} sends rows {lo}..{hi - 1} of a"
                    f" {vals.shape[0]}-row source"
                )
            np.take(
                vals,
                plan.cat_idx[start:stop],
                axis=0,
                out=plan.cat_buf[start:stop],
                mode="wrap",
            )
        if observe is not None:
            # Cat order is each pair's original row order — what tracers read.
            bounds = plan.cat_bounds
            for i, (src, dst) in enumerate(plan.pairs):
                observe(src, dst, plan.cat_buf[bounds[i] : bounds[i + 1]])

    def _quantize_numpy(
        self, plan: FusedStepPlan, shard: _EncodeShard, keys: np.ndarray
    ) -> np.ndarray:
        """The NumPy quantization kernel: the reference, and the fallback
        where the compiled tier is unavailable.  Writes the shard's zero
        points and scales into the plan and its uint8 codes into the
        returned ``codes_buf`` (the encoder's code block), all in payload
        order."""
        dim = plan.dim
        start, stop = shard.start, shard.stop
        n_rows = stop - start
        if plan.codes_buf is None:
            # The encoder's first NumPy-tier encode allocates its code
            # block, once, whichever of a step's shards gets here first.
            with self._codes_lock:
                if plan.codes_buf is None:
                    self._bind(plan, codes=True)
        codes_buf = plan.codes_buf

        # --- chunked stochastic-quantization kernel ----------------------
        # Identical arithmetic to the reference quantizer per group: the level
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
            # Codes are >= 0 (normalized values are), so the reference
            # quantizer's clip(0, top) reduces to an upper bound.
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
                # Scattered groups: copied together for the call (scratch
                # of one width's codes, freed when the pack returns).
                segment = np.concatenate([codes_buf[sl] for sl in slices])
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
        lib = kernels.load()
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
    """Where one receiver's share of a plan's step lands — and, for a
    quantized plan, what lands there: the receiver's groups of the plan's
    wire buffer, read through one group table.

    ``rows[src]`` maps each row of pair ``(src, receiver)`` to its row of
    the destination (``n_out`` rows).  Without ``accumulate`` a landing
    writes those rows directly (halo slots, each fed by one pair); with it
    the landing fills a contiguous *block* — sources ascending, each
    pair's rows in order — and :func:`accumulate_block` adds the block into
    the destination rows.  ``land[src]`` is where a source's rows sit in
    the landing buffer (``shape``): its destination rows, or its slice of
    the block.  ``pick[src]`` selects the payload rows that land: all of
    them, except under a broadcast plan's picks.

    Built once per (plan, receiver) by :func:`decode_index` and checked
    once: every destination row against ``n_out`` and, for a
    :class:`FusedStepPlan`, every group width and stream span against the
    plan's wire buffer, so :func:`decode_cluster_step` lands it without a
    further check.  A landing reads the plan, never a mailbox; ``payloads``
    are what a delivery audit expects each source to have sent.  The wire
    fields stay empty for a :class:`Float32StepPlan`, whose receivers land
    its staged rows (:func:`land_rows`, :func:`accumulate_rows`).
    """

    srcs: tuple[int, ...]  # ascending
    rows: dict[int, np.ndarray]
    land: dict[int, object]
    pick: dict[int, object]  # the landing payload rows: a slice or an index
    shape: tuple[int, int]  # the landing buffer: destination or block
    n_out: int
    accumulate: bool
    covers: bool  # the landing writes every buffer row exactly once
    add_rows: np.ndarray | None  # accumulate: destination row per block row
    # Quantized plans only.  What a delivery audit expects each source to
    # have sent: the plan's payloads, srcs order.
    payloads: tuple[MixedPrecisionPayload, ...] = ()
    # The plan's wire as the decode reads it.
    # (n_groups, 4) int64: bits, rows, stream offset, first row
    groups: np.ndarray = field(default_factory=lambda: np.zeros((0, 4), np.int64))
    # int64, per group row: its row of the landing buffer
    dest: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    buffers: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None  # wire, z, s


def decode_index(
    plan: FusedStepPlan | Float32StepPlan,
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
    plan: FusedStepPlan | Float32StepPlan,
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
    quantized = isinstance(plan, FusedStepPlan)
    picks = {} if quantized else plan.picks
    land: dict[int, object] = {}
    pick: dict[int, object] = {}
    targets: list[np.ndarray] = []
    block = 0
    for src, i in members:
        n = int(plan.pair_counts[i])
        pick[src] = picks.get(i, slice(None))
        if i in picks:  # the receiver lands only these rows of the payload
            n = picks[i].size
        target = np.ascontiguousarray(rows[src], dtype=np.int64)
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
        targets.append(target)
        block += n
    cat = np.concatenate(targets) if targets else np.zeros(0, dtype=np.int64)
    covers = accumulate or np.array_equal(np.sort(cat), np.arange(n_out))
    return DecodeIndex(
        srcs=srcs,
        rows=dict(zip(srcs, targets)),
        land=land,
        pick=pick,
        shape=(block if accumulate else n_out, plan.dim),
        n_out=n_out,
        accumulate=accumulate,
        covers=bool(covers),
        add_rows=cat if accumulate else None,
        **(_wire_index(plan, dst, members, land) if quantized else {}),
    )


def _wire_index(
    plan: FusedStepPlan, dst: int, members: list[tuple[int, int]], land: dict
) -> dict:
    """The decode's fields of a receiver's index: per group its width, row
    count, stream offset and first payload row, and each group row's row
    of the landing buffer — checked against the wire buffer."""
    groups: list[tuple[int, int, int, int]] = []
    dest: list[np.ndarray] = []
    for src, _ in members:
        where = land[src]
        for g in plan.pair_groups[(src, dst)]:
            groups.append((g.bits, g.stop - g.start, g.offset, g.start))
            dest.append(
                where.start + g.rows if isinstance(where, slice) else where[g.rows]
            )
    table = np.array(groups, dtype=np.int64).reshape(-1, 4)
    bits, counts, offsets, first = table.T
    ends = offsets + packed_bytes(counts, plan.dim, bits)
    if not (
        np.isin(bits, (1, 2, 4, 8)).all()
        and (ends <= plan.wire.size).all()
        and (first + counts <= plan.n_total).all()
    ):
        raise ValueError(f"receiver {dst}: the plan's wire layout is inconsistent")
    return dict(
        payloads=tuple(plan.payloads[i] for _, i in members),
        groups=np.ascontiguousarray(table),
        dest=np.concatenate(dest) if dest else np.zeros(0, dtype=np.int64),
        buffers=(plan.wire, plan.zero_points, plan.scales),
    )


class DecodeWorkspace:
    """Reusable landing blocks: the fused exchange's backward decode blocks.

    One instance per exchange; one flat buffer per key (a receiver's
    backward block), which grows only when a larger request first appears,
    so it persists across epochs and across the steps of one: :meth:`take`
    hands out a C-contiguous view of its front, whatever the shape.  With
    one step in flight at a time, a receiver's block is consumed by that
    step's finalize before the next step's landing reuses it, so it is
    allocated once, at the widest step.  The decode itself keeps nothing:
    its NumPy tier's scratch lives for one call.
    """

    def __init__(self) -> None:
        self._bufs: dict[object, np.ndarray] = {}

    def take(self, key: object, shape: tuple[int, ...]) -> np.ndarray:
        """A C-contiguous float32 ``shape`` array: the front of ``key``'s
        buffer, replaced by a fitting one when it is too small."""
        size = math.prod(shape)
        buf = self._bufs.get(key)
        if buf is None or buf.size < size:
            buf = self._bufs[key] = np.empty(size, dtype=np.float32)
        return buf[:size].reshape(shape)


def decode_cluster_step(index: DecodeIndex, buf: np.ndarray) -> None:
    """Land one receiver of a quantized step: unpack and de-quantize its
    rows of the plan's wire into ``buf`` (a float32 array of
    ``index.shape``), where ``index`` says — zero-filled first when the
    rows leave slots unfed.

    The landing reads the plan only, so it yields exactly the rows the
    per-message reference decode yields for the plan's payloads, whatever
    reached the receiver's mailbox (the exchange audits delivery apart).
    Compiled tier: one ``repro_decode_rows`` call.  NumPy tier: its mirror,
    :func:`_decode_index_numpy`.
    """
    if buf.shape != index.shape or buf.dtype != np.float32:
        raise ValueError(
            f"landing buffer {buf.shape} {buf.dtype}, expected {index.shape} float32"
        )
    if index.buffers is None:
        raise ValueError("a full-precision index has no wire to decode")
    if not index.covers:
        buf.fill(0.0)
    if not index.dest.size:
        return
    lib = kernels.load()
    if lib is not None and buf.flags.c_contiguous:
        _decode_index_native(lib, index, buf)
    else:
        _decode_index_numpy(index, buf)


def _decode_index_native(lib, index: DecodeIndex, buf: np.ndarray) -> None:
    """One receiver's groups, straight into ``buf``: one kernel call."""
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


def _decode_index_numpy(index: DecodeIndex, buf: np.ndarray) -> None:
    """The NumPy mirror of ``repro_decode_rows``: the same group table and
    destination rows, the same float32 operations (code, times scale, plus
    zero point), batched per width — one unpack and one de-quantize over
    that width's groups.  Its scratch lives for the call and holds one
    receiver's rows."""
    wire, zero_points, scales = index.buffers
    dim = index.shape[1]
    bits, counts, offsets, first = index.groups.T
    starts = np.cumsum(counts) - counts  # each group's first entry of dest
    for b in np.unique(bits).tolist():
        sel = np.flatnonzero(bits == b)
        spans = list(zip(offsets[sel], first[sel], starts[sel], counts[sel]))
        streams = [wire[o : o + packed_bytes(n, dim, b)] for o, _, _, n in spans]
        rows = np.concatenate([np.arange(f, f + n) for _, f, _, n in spans])
        dest = np.concatenate([index.dest[a : a + n] for _, _, a, n in spans])
        codes = unpack_bits_batched(streams, b, counts[sel] * dim)
        deq = codes.reshape(rows.size, dim).astype(np.float32)
        deq *= scales[rows][:, None]
        deq += zero_points[rows][:, None]
        buf[dest] = deq


def land_rows(
    index: DecodeIndex, buf: np.ndarray, rows_by_src: dict[int, np.ndarray]
) -> None:
    """Copy every source's float32 rows (their picked rows) to its rows of
    ``buf``, zero-filled first when the rows leave slots unfed — a
    full-precision step's landing, from its staged rows."""
    if sorted(rows_by_src) != list(index.srcs):
        raise ValueError(
            f"sources {sorted(rows_by_src)} do not fit the index of sources "
            f"{list(index.srcs)}"
        )
    if not index.covers:
        buf.fill(0.0)
    for src in index.srcs:
        buf[index.land[src]] = rows_by_src[src][index.pick[src]]


def accumulate_block(index: DecodeIndex, block: np.ndarray, out: np.ndarray) -> None:
    """``out[rows[src]] += block[land[src]]`` for every source of an
    accumulating ``index``, sources ascending.

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
    lib = kernels.load()
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


def accumulate_rows(
    index: DecodeIndex, rows_by_src: dict[int, np.ndarray], out: np.ndarray
) -> None:
    """:func:`accumulate_block` without the block: ``out[rows[src]] +=
    rows_by_src[src]`` for every source of an accumulating ``index``, src
    ascending — for full-precision payloads, which already are the float32
    rows, so nothing is copied into a block first.  The same additions in
    the same order; compiled tier: one kernel call per source.
    """
    if not index.accumulate or sorted(rows_by_src) != list(index.srcs):
        raise ValueError(
            f"sources {sorted(rows_by_src)} do not fit the accumulating index "
            f"of sources {list(index.srcs)}"
        )
    if out.shape != (index.n_out, index.shape[1]):
        raise ValueError(f"out {out.shape} does not fit the index")
    lib = kernels.load()
    for src in index.srcs:
        mat, rows = rows_by_src[src], index.rows[src]
        if mat.shape != (rows.size, index.shape[1]):
            raise ValueError(f"source {src}: {mat.shape} rows for {rows.size}")
        contiguous = mat.flags.c_contiguous and out.flags.c_contiguous
        if lib is not None and contiguous and mat.dtype == out.dtype == np.float32:
            if mat.size:
                lib.repro_add_rows(
                    mat.ctypes.data,
                    mat.shape[0],
                    mat.shape[1],
                    rows.ctypes.data,
                    out.ctypes.data,
                )
        else:
            out[rows] += mat
