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
* on the receive side, :func:`decode_cluster_step` unpacks and
  de-quantizes every payload of the step — one kernel call per receiver
  on the compiled tier, batched per bit-width on the NumPy tier — and can
  land the rows straight in the receiver's destination (a
  :class:`DecodeIndex` says where).

Full precision is the same step without bit-widths: a
:class:`Float32StepPlan` has the pair geometry and the gather, and its wire
*is* the gathered float32 rows — a pair's payload is a read-only row view
of its source's staged rows, landed through the same :class:`DecodeIndex`
(:func:`land_decoded` into halo rows, :func:`accumulate_rows` into owned
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
with :func:`~repro.quant.packing.pack_bits_batched`.  The compiled decode
takes exactly one input, a mailbox holding a plan's own payloads for a
receiver's :class:`DecodeIndex`; anything else (a mailbox missing a
dropped source, payloads built outside a plan) takes the NumPy decode.
The compiled tier runs wherever it loads; the NumPy tier is the reference
it is tested against bitwise and the fallback everywhere else.  Nothing
selects between them but what the loader observes.

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
import operator
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
    "land_decoded",
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
    receivers land payloads through a :class:`DecodeIndex` of this plan
    (:func:`land_decoded`, :func:`accumulate_rows`).  ``staged`` holds the
    payloads a step posts until the step's finalize drops them (a dropped
    envelope is replayed from there), so no float32 copy of the halo
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
    quantized plan, the single kernel call that lands it.

    ``rows[src]`` maps each row of pair ``(src, receiver)`` to its row of
    the destination (``n_out`` rows).  Without ``accumulate`` the decode
    writes those rows directly (halo slots, each fed by one pair); with it
    the decode fills a contiguous *block* — sources in mailbox order
    (ascending), each pair's rows in order — and :func:`accumulate_block`
    adds the block into the destination rows.  ``land[src]`` is where a
    source's rows sit in the decode buffer (``shape``): its destination
    rows, or its slice of the block.  ``pick[src]`` selects the payload rows
    that land: all of them, except under a broadcast plan's picks.

    Built once per (plan, receiver) by :func:`decode_index` and checked
    once: every destination row against ``n_out`` and, for a
    :class:`FusedStepPlan`, every group width and stream span against the
    plan's wire buffer.  A mailbox holding exactly that plan's payloads
    (:meth:`matches`) then decodes without a further check.  The
    compiled-decode fields stay empty for a :class:`Float32StepPlan`.
    """

    srcs: tuple[int, ...]  # ascending: the mailbox order
    rows: dict[int, np.ndarray]
    land: dict[int, object]
    pick: dict[int, object]  # the landing payload rows: a slice or an index
    shape: tuple[int, int]  # the decode buffer: destination or block
    n_out: int
    accumulate: bool
    covers: bool  # the decode writes every buffer row exactly once
    add_rows: np.ndarray | None  # accumulate: destination row per block row
    # The compiled decode's input (quantized plans only).
    payloads: tuple[MixedPrecisionPayload, ...] = ()  # the plan's, srcs order
    # (n_groups, 4) int64: bits, rows, stream offset, first row
    groups: np.ndarray = field(default_factory=lambda: np.zeros((0, 4), np.int64))
    # int64, per group row: its row of the decode buffer
    dest: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    buffers: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None  # wire, z, s

    def matches(self, mailbox: dict) -> bool:
        """Whether ``mailbox`` holds exactly this index's payloads, in order."""
        return len(mailbox) == len(self.payloads) and all(
            map(operator.is_, mailbox.values(), self.payloads)
        )


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
    """The compiled decode's fields of a receiver's index: per group its
    width, row count, stream offset and first payload row, and each group
    row's row of the decode buffer — checked against the wire buffer."""
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
    """Reusable scratch buffers for :func:`decode_cluster_step`.

    One instance per exchange; one flat buffer per role (the key: the NumPy
    decode's de-quantized rows and codes, a multi-group payload's matrix, a
    receiver's backward block), which grows only when a larger request
    first appears, so it persists across epochs and across the steps of
    one: :meth:`take` hands out a C-contiguous view of its front, whatever
    the shape.  Matrices returned
    by a workspace-backed decode are views into these buffers — valid
    until the next decode call, which is exactly the finalize-half's
    consume-immediately lifetime.  The fused exchange also takes its
    backward decode blocks from here, one workspace per receiver for its
    worker-side decodes; with one step in flight at a time, a receiver's
    block is consumed by that step's finalize before the next step's
    decode reuses it, so it is allocated once, at the widest step.
    """

    def __init__(self) -> None:
        self._bufs: dict[object, np.ndarray] = {}

    def take(self, key: object, shape: tuple[int, ...], dtype) -> np.ndarray:
        """A C-contiguous ``shape`` array of ``dtype``: the front of
        ``key``'s buffer, replaced by a fitting one when it is too small or
        of another dtype."""
        size = math.prod(shape)
        buf = self._bufs.get(key)
        if buf is None or buf.size < size or buf.dtype != np.dtype(dtype):
            buf = self._bufs[key] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)


def decode_cluster_step(
    collects: dict[int, dict[int, MixedPrecisionPayload]],
    *,
    workspace: DecodeWorkspace | None = None,
    into: dict[int, tuple[DecodeIndex, np.ndarray]] | None = None,
) -> dict[int, dict[int, object]]:
    """Decode every payload of one step with batched kernels.

    ``collects`` maps each receiving rank to its ``{src: payload}`` mailbox
    (the shape :meth:`Transport.collect` returns).  Produces exactly the
    matrices the per-message reference decode would — de-quantization is
    row-elementwise, so batching cannot change any value — preserving each
    mailbox's iteration order (gradient accumulation order stays
    src-ascending).  It is the one decode: a replayed payload takes it too,
    as a one-payload mailbox.

    ``into`` names destinations: for a receiver listed there as
    ``(index, buffer)`` (a :class:`DecodeIndex` and a float32 buffer of
    ``index.shape``) the rows land in ``buffer`` and the result maps each
    source to ``index.land[src]``, where its rows now are.  Other receivers
    get ``{src: matrix}``.  A landed mailbox holding exactly the index's
    payloads decodes in one compiled kernel call where the compiled tier
    loads; every other mailbox takes the NumPy decode — every
    (receiver, pair, group) stream bucketed by bit-width, unpacked through
    one batched lookup-table kernel per width, de-quantized in one
    elementwise kernel, and landed with the buffer zero-filled first when a
    source is missing.

    ``workspace``, when given, supplies scratch reused across calls; the
    returned matrices then stay valid only until the next decode (the
    fused exchange consumes them within ``finalize_step``).
    """
    into = into or {}
    lib = kernels.load()
    out: dict[int, dict[int, object]] = {}
    rest: dict[int, dict[int, MixedPrecisionPayload]] = {}
    for dst, mailbox in collects.items():
        target = into.get(dst)
        if target is not None:
            index, buf = target
            if buf.shape != index.shape or buf.dtype != np.float32:
                raise ValueError(
                    f"receiver {dst}: decode buffer {buf.shape} {buf.dtype}, "
                    f"expected {index.shape} float32"
                )
            if lib is not None and buf.flags.c_contiguous and index.matches(mailbox):
                _decode_index_native(lib, index, buf)
                out[dst] = dict(index.land)
                continue
        rest[dst] = mailbox
    if rest:
        landed = {dst: into[dst] for dst in rest if dst in into}
        out.update(_decode_numpy(rest, workspace, landed))
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
    """Copy decoded per-source matrices (their picked rows) to their rows of
    ``buf`` (zero-filled first when a source is missing); returns ``{src:
    index.land[src]}``, as :func:`decode_cluster_step` does for a receiver
    it lands."""
    _open_landing(index, buf, matrices)
    for src, mat in matrices.items():
        buf[index.land[src]] = mat[index.pick[src]]
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


def _decode_numpy(
    collects: dict[int, dict[int, MixedPrecisionPayload]],
    workspace: DecodeWorkspace | None,
    landed: dict[int, tuple[DecodeIndex, np.ndarray]],
) -> dict[int, dict[int, object]]:
    """The NumPy decode of :func:`decode_cluster_step`: the reference, the
    decode of any mailbox that is not a plan's own, and the fallback where
    the compiled tier is unavailable.  A receiver in ``landed`` gets each
    de-quantized group written straight to its rows of the receiver's
    buffer, instead of a per-source matrix."""
    flat: list[tuple[int, int, MixedPrecisionPayload]] = [
        (dst, src, payload)
        for dst, mailbox in collects.items()
        for src, payload in mailbox.items()
    ]
    dims = {p.dim for _, _, p in flat}
    if len(dims) > 1:
        raise ValueError("payloads of one step must share their dimension")
    dim = dims.pop() if dims else 0
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
    # One de-quantize buffer for every width's rows, one code buffer reused
    # width by width (each width's codes are consumed before the next
    # width's unpack): a workspace then holds the widest call's rows, not
    # every width's widest.
    deq_all = None
    if workspace is not None:
        n_all = sum(rows.size for group in targets.values() for _, _, rows in group)
        deq_all = workspace.take("deq", (n_all, dim), np.float32)
    first_row = 0
    for bits in sorted(targets):
        counts = np.asarray(
            [rows.size * dim for _, _, rows in targets[bits]], dtype=np.int64
        )
        total = int(counts.sum())
        codes_out = None
        if workspace is not None:
            per_byte = 8 // bits
            padded = -(-total // per_byte) * per_byte
            codes_out = workspace.take("codes", (padded,), np.uint8)
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
            deq_all[first_row : first_row + n_rows]
            if deq_all is not None
            else np.empty((n_rows, dim), dtype=np.float32)
        )
        first_row += n_rows
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
