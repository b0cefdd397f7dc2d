"""Halo exchange: one fused pipeline, quantized or at full precision.

An exchange implements the two message movements of distributed full-graph
training:

* **embeddings** (forward): each device sends, per peer, the current
  activations of the boundary rows that peer's halo needs;
* **gradients** (backward): each device sends, per halo-owner, the
  accumulated embedding gradients of that owner's nodes, which the owner
  adds into its own backward signal.

:class:`FusedQuantizedHaloExchange` runs both as the paper's one message
pipeline — gather, quantize, transfer, de-quantize, land.  Given a
:class:`BitProvider` it quantizes each message at the provider's
bit-widths and (optionally) feeds an input tracer — the hook the Adaptive
Bit-width Assigner hangs off; without one the quantize step is switched
off and the wire carries the gathered float32 rows.  Every system runs
it: Vanilla as :class:`ExactHaloExchange`, and the PipeGCN and SANCUS
baselines (:mod:`repro.baselines`) as full-precision configurations that
differ from Vanilla only in a staleness rule and, for SANCUS, the pair
geometry (see the class).

**Split-phase API.**  The exchange executes one step as two halves:
:meth:`~FusedQuantizedHaloExchange.post_step` snapshots, encodes and posts
all outgoing messages and returns an :class:`InFlightStep` handle; the
messages then stay pending in the transport until
:meth:`~FusedQuantizedHaloExchange.finalize_step` collects, decodes and
scatters (forward) or accumulates (backward) them.  The compute engine's
layer step runs its central window between the two halves — the paper's
Fig. 7 overlap; with overlap off that window holds no rows.  Payload
values are frozen at post time (the gather or encode copies), so callers
may mutate the source buffers while a step is in flight.

**Async post paths.**  Each ``post_step`` splits into a *snapshot* half
(gathers the outgoing rows on the calling thread) and one or more
*encode-and-post* jobs handed to :meth:`Transport.defer
<repro.comm.transport.Transport.defer>`.  A transport with no workers runs
the jobs inline; one with workers runs them on its pool, overlapping the
caller's subsequent compute.  Because the snapshot happens before
``post_step`` returns, the frozen-at-post contract holds at any worker
count; ``finalize_step`` joins the jobs (via
:meth:`InFlightStep.mark_done`) before reading results, so receivers
never observe a half-posted step.

**Worker fan-out.**  Every quantized message block's noise is a pure
function of its coordinates (:class:`~repro.quant.stochastic.KeyedRounding`),
so a quantized step's encode shards across all ``transport.workers``; a
full-precision step posts its row views in one job.  With workers, the
last post job chases them with per-receiver collect/decode jobs, all
free to retire in any order.  Bit lookups and tracer ``observe`` calls
stay on the calling thread (the snapshot half).  The pipelined executor
finalizes each step before posting the next, so at most one tag is ever
in flight.

**Decode destinations.**  ``post_step(..., out)`` names the step's
destinations once: the per-device halo buffers forward, the owned-row
gradient buffers backward.  The exchange lands each receiver straight
into them through a per-(plan, receiver)
:class:`~repro.quant.fused.DecodeIndex` — de-quantized, or at full
precision copied.  Forward, on async thread-backed transports the
per-receiver decode jobs write the halo rows directly (each receiver's
halo region is a disjoint, contiguous row range of the stacked buffer,
so the writes are race-free shards), and ``finalize_step`` is left with
the delivery audit.  Quantized backward decodes land in a contiguous
per-receiver block, added by one kernel call per receiver; full-precision
backward payloads are added as they are, one call per source.  Either
way the order-sensitive accumulate into the owned rows stays on the main
thread, source by source in mailbox order.
"""

from __future__ import annotations

import threading
from typing import Protocol

import numpy as np

from repro.comm.transport import Transport, TransportError
from repro.quant.fused import (
    DecodeWorkspace,
    Float32StepPlan,
    FusedStepEncoder,
    accumulate_block,
    accumulate_rows,
    decode_cluster_step,
    decode_index,
    land_decoded,
    pair_shard,
)
from repro.quant.stochastic import as_rounding
from repro.quant.theory import SUPPORTED_BITS
from repro.utils.validation import check_in_set

__all__ = [
    "BitProvider",
    "FixedBitProvider",
    "UniformRandomBitProvider",
    "InFlightStep",
    "ExactHaloExchange",
    "FusedQuantizedHaloExchange",
    "step_tag",
]


def step_tag(phase: str, layer: int) -> str:
    """The transport tag of one (phase, layer) exchange step."""
    return f"{phase}/L{layer}"


class BitProvider(Protocol):
    """Supplies per-message bit-widths for one transfer."""

    def bits_for(
        self, layer: int, phase: str, src: int, dst: int, n_rows: int
    ) -> np.ndarray:  # pragma: no cover - protocol
        ...


class FixedBitProvider:
    """Every message gets the same bit-width (the paper's naive scheme)."""

    def __init__(self, bits: int) -> None:
        check_in_set(bits, SUPPORTED_BITS, name="bits")
        self.bits = int(bits)

    def bits_for(
        self, layer: int, phase: str, src: int, dst: int, n_rows: int
    ) -> np.ndarray:
        return np.full(n_rows, self.bits, dtype=np.int64)


class UniformRandomBitProvider:
    """Uniform random bit-width per message (paper Table 6's baseline).

    Assignments are resampled every ``period`` epochs, mirroring how the
    adaptive scheme re-assigns periodically (buffer sizes change at the
    same cadence in both schemes).
    """

    def __init__(
        self,
        rng: np.random.Generator,
        *,
        choices: tuple[int, ...] = SUPPORTED_BITS,
        period: int = 50,
    ) -> None:
        for b in choices:
            check_in_set(b, SUPPORTED_BITS, name="choices entry")
        if period < 1:
            raise ValueError("period must be >= 1")
        self.rng = rng
        self.choices = np.asarray(choices, dtype=np.int64)
        self.period = int(period)
        self._epoch = 0
        self._cache: dict[tuple[int, str, int, int], np.ndarray] = {}

    def set_epoch(self, epoch: int) -> None:
        if epoch % self.period == 0:
            self._cache.clear()
        self._epoch = epoch

    def bits_for(
        self, layer: int, phase: str, src: int, dst: int, n_rows: int
    ) -> np.ndarray:
        key = (layer, phase, src, dst)
        cached = self._cache.get(key)
        if cached is None or cached.size != n_rows:
            cached = self.rng.choice(self.choices, size=n_rows)
            self._cache[key] = cached
        return cached

    def state_dict(self) -> dict:
        """Generator position + live assignments (bitwise resume)."""
        return {
            "bit_generator": self.rng.bit_generator.state,
            "epoch": int(self._epoch),
            "cache": {key: arr.copy() for key, arr in self._cache.items()},
        }

    def load_state_dict(self, state: dict) -> None:
        self.rng.bit_generator.state = state["bit_generator"]
        self._epoch = int(state["epoch"])
        self._cache = {
            tuple(key): np.asarray(arr, dtype=np.int64)
            for key, arr in state["cache"].items()
        }


class InFlightStep:
    """Handle for one posted-but-not-finalized exchange step.

    Returned by :meth:`FusedQuantizedHaloExchange.post_step`; every field
    the receive half needs is captured here — ``out`` is the per-device
    destination list named at post time — so ``finalize_step`` takes only
    the handle.  ``tag`` doubles as the transport key the pipelined
    executor passes to :meth:`Transport.note_overlap`.

    ``worker_wait_s`` is filled by :meth:`mark_done`: the seconds the
    finalize half spent blocked joining the step's deferred encode (and,
    with workers, decode) jobs — 0.0 on an inline transport, and ~0.0
    with workers whenever the central window fully covered the deferred
    work (the exposed tail the timelines report).

    ``decoded`` and ``targets`` are the decode state, complete once
    :meth:`mark_done` returns (or set by ``finalize_step`` itself where it
    decodes): ``targets[rank]`` is the ``(DecodeIndex, buffer)`` a
    receiver's rows land in and ``decoded[rank]`` the sources that landed
    there — except a full-precision backward step, whose buffer is ``None``
    and whose ``decoded[rank]`` is the mailbox itself (its float32 payloads
    are added as they are).  ``sent`` is false for a step a staleness rule
    keeps off the wire (see ``_replay_missing``).
    """

    __slots__ = (
        "layer",
        "phase",
        "tag",
        "devices",
        "transport",
        "dim",
        "done",
        "worker_wait_s",
        "decoded",
        "targets",
        "out",
        "plan",
        "sent",
    )

    def __init__(
        self,
        layer: int,
        phase: str,
        tag: str,
        devices: list,
        transport: Transport,
        dim: int,
        out: list[np.ndarray],
    ) -> None:
        self.layer = layer
        self.phase = phase
        self.tag = tag
        self.devices = devices
        self.transport = transport
        self.dim = dim
        self.done = False
        self.worker_wait_s = 0.0
        self.decoded: dict[int, dict] | None = None
        self.targets: dict[int, tuple] | None = None
        self.out = out
        # The step plan: what its decodes index into, and what replay
        # regenerates a dropped envelope from.
        self.plan = None
        self.sent = True

    def mark_done(self) -> None:
        if self.done:
            raise RuntimeError(
                f"step {self.tag!r} finalized twice (stale in-flight handle)"
            )
        self.done = True
        # Join the step's deferred encode/post/decode jobs (no-op when the
        # transport is synchronous); finalize calls mark_done first, so it
        # never collects a half-posted step.
        self.worker_wait_s = self.transport.complete(self.tag)


class FusedQuantizedHaloExchange:
    """The halo exchange of every system: whole cluster steps in batched
    kernels, quantized or at full precision.

    With a bit provider (AdaQP's transfers), every (src, dst) message is
    quantized row by row at its assigned bit-widths and bit-packed — the
    wire format ``tests/reference/wire.py`` states one message at a time —
    but a (layer, phase) step runs as a few large kernels instead of
    thousands of per-pair, per-group dispatches:

    * the boundary rows of **every** (src, dst) pair of the step are
      gathered into one step-wide buffer (one ``take`` per source device);
    * stochastic quantization and packing for the whole step run as one
      kernel per encode shard, into the plan's wire buffer
      (:class:`~repro.quant.fused.FusedStepEncoder`);
    * each device's payloads — views of that buffer — enter the transport
      through one batched post;
    * each receiver's payloads are decoded straight into its halo rows
      (forward) or into a block accumulated into its owned rows
      (backward) (:func:`~repro.quant.fused.decode_cluster_step`).

    Without one (Vanilla, PipeGCN, SANCUS and every evaluation pass) the
    step plan is a :class:`~repro.quant.fused.Float32StepPlan`: the same
    gather, and its wire *is* the gathered float32 rows — ``rows × dim ×
    4`` bytes per pair, read-only views of each source's staged rows.
    Forward landing is an index copy into the halo rows; backward adds the
    payloads into the owned rows source by source
    (:func:`~repro.quant.fused.accumulate_rows`, the additions
    :func:`~repro.quant.fused.accumulate_block` makes from a block, without
    copying one).  Everything else — topology, decode targets, worker-side
    decodes, the delivery audit and replay — is one code path for both
    wires.

    **Staleness.**  The full-precision systems differ only in a rule over
    a per-(phase, layer) cache of staged steps (each step's
    :meth:`~repro.quant.fused.Float32StepPlan.stage` arrays are fresh):

    * *send cadence* — a step stages and sends on every ``period``-th
      epoch, and whenever nothing is cached; otherwise nothing goes on the
      wire and its receivers land the cached step again;
    * *serve lag* — a step posts, and so lands, the newest cached step at
      least ``lag`` steps of its (phase, layer) old (training runs one per
      epoch), or the oldest one while fewer are cached.

    Vanilla is ``period=1, lag=0`` and keeps no cache; PipeGCN is
    ``lag=1``; SANCUS is ``period=k`` with ``broadcast`` geometry: each
    source sends its whole owned block to every peer in its send map, each
    receiver lands its send-map rows of that block (a row pick of its
    :class:`~repro.quant.fused.DecodeIndex`), and no gradients travel.
    What lands is what was posted, so drops replay under every rule.

    Topology, plans, decode indices and scratch buffers are cached across
    epochs for one cluster (the identity of device 0's ``owned_global``:
    an instance run on another cluster rebuilds them); a quantized plan
    rebuilds when the bit-width assignment of its step changes (i.e. at
    reassignment boundaries).

    Parameters
    ----------
    bit_provider:
        Source of per-message bit-widths (fixed, uniform-random or the
        adaptive assigner); ``None`` for full precision.
    rounding:
        The :class:`~repro.quant.stochastic.KeyedRounding` noise policy:
        each message's stochastic-rounding noise is a pure function of its
        (epoch, phase, layer, src, dst) coordinates.  Required with a bit
        provider; full precision has no noise and takes ``None``.
    tracer:
        Optional object with ``observe(phase, layer, src, dst, rows)``;
        the adaptive assigner registers one to see transfers' input
        statistics (paper Fig. 6, step 1).  A tracer exposing a false
        ``wants_traces`` (the assigner, on epochs whose traces no
        re-assignment will read) is skipped for that epoch.
    period, lag, broadcast:
        The staleness rule and the broadcast geometry; full precision only.
    """

    def __init__(
        self,
        bit_provider: BitProvider | None,
        rounding,
        tracer: object | None = None,
        *,
        period: int = 1,
        lag: int = 0,
        broadcast: bool = False,
    ) -> None:
        if period < 1 or lag < 0:
            raise ValueError(f"need period >= 1 and lag >= 0, not {period}, {lag}")
        if bit_provider is not None and (period > 1 or lag or broadcast):
            raise ValueError("staleness and broadcast apply to full precision only")
        self.bit_provider = bit_provider
        #: whether payloads pass through quantize/de-quantize kernels
        self.quantizes = bit_provider is not None
        self.rounding = as_rounding(rounding) if self.quantizes else None
        self.tracer = tracer
        self.period, self.lag, self.broadcast = int(period), int(lag), bool(broadcast)
        self._epoch = 0
        # (phase, layer) -> the staged steps a later step may serve, newest
        # last; None when every step serves its own (Vanilla).
        self._cache: dict[tuple[str, int], list[dict]] | None = (
            {} if self.period > 1 or self.lag else None
        )
        self._decode_ws = DecodeWorkspace()
        # Worker-side decode scratch, one workspace per receiving rank:
        # per-receiver decode jobs run concurrently on the pool, so ranks
        # must never share buffers.  One step is in flight at a time, so a
        # rank's workspace is free again once its step is finalized.
        self._decode_ws_by_rank: dict[int, DecodeWorkspace] = {}
        # Per-cluster caches (see _topology_for): the cluster they were
        # built for, step topologies per phase, step plans.
        self._cluster: object = None
        self._topologies: dict[str, tuple] = {}
        self._float32_plans: dict[tuple[str, int], Float32StepPlan] = {}
        self.fused_encoder = FusedStepEncoder(self.rounding) if self.quantizes else None

    def on_epoch_start(self, epoch: int) -> None:
        """Per-epoch state: bit re-sampling, the noise key, the cadence."""
        self._epoch = epoch
        set_epoch = getattr(self.bit_provider, "set_epoch", None)
        if set_epoch is not None:
            set_epoch(epoch)
        # The epoch is a coordinate of every block's noise key.
        if self.rounding is not None:
            self.rounding.set_epoch(epoch)

    def _live_tracer(self) -> object | None:
        """The tracer, when it will read this epoch's observations."""
        tracer = self.tracer
        if tracer is not None and getattr(tracer, "wants_traces", True):
            return tracer
        return None

    def state_dict(self) -> dict:
        """Cross-epoch state a bitwise resume must restore: the rounding
        state (empty: keyed noise is stateless) plus any stateful bit
        provider; at full precision, the cached steps.

        The adaptive assigner is checkpointed separately by the trainer
        (it is shared infrastructure, not exchange-owned); only providers
        reachable solely through the exchange land here.  Cached steps keep
        the layout of checkpoint format 1: ``historical`` ((layer, dst) →
        src → block) under broadcast, ``fwd_cache`` / ``bwd_cache`` (layer →
        dst → src → rows) with a lag, nothing for Vanilla.
        """
        if self.quantizes:
            state: dict = {"rounding": self.rounding.state_dict()}
            provider_state = getattr(self.bit_provider, "state_dict", None)
            if provider_state is not None and not hasattr(
                self.bit_provider, "reassign"
            ):
                state["bit_provider"] = provider_state()
            return state
        if self._cache is None:
            return {}
        keys = ["historical"] if self.broadcast else ["fwd_cache", "bwd_cache"]
        state = {key: {} for key in keys}
        for (phase, layer), history in self._cache.items():
            for (src, dst), rows in history[-1].items():
                if self.broadcast:
                    box = state["historical"].setdefault((layer, dst), {})
                else:
                    by_dst = state[f"{phase}_cache"].setdefault(layer, {})
                    box = by_dst.setdefault(dst, {})
                box[src] = rows.copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        if self.quantizes:
            self.rounding.load_state_dict(state["rounding"])
            if "bit_provider" in state:
                self.bit_provider.load_state_dict(state["bit_provider"])
            return
        if self._cache is None:
            if state:
                raise ValueError(f"unexpected exchange state keys: {sorted(state)}")
            return
        if self.broadcast:
            boxes = {("fwd", *key): box for key, box in state["historical"].items()}
        else:
            boxes = {
                (phase, layer, dst): box
                for phase in ("fwd", "bwd")
                for layer, by_dst in state[f"{phase}_cache"].items()
                for dst, box in by_dst.items()
            }
        flat = {
            (phase, int(layer), int(src), int(dst)): np.asarray(rows, np.float32)
            for (phase, layer, dst), box in boxes.items()
            for src, rows in box.items()
        }
        self._cache = {}
        for (phase, layer, src, dst), rows in sorted(flat.items()):
            self._cache.setdefault((phase, layer), [{}])[0][src, dst] = rows

    # -- step halves --------------------------------------------------------
    def post_step(
        self,
        layer: int,
        phase: str,
        devices: list,
        transport: Transport,
        values_by_dev: list[np.ndarray],
        out: list[np.ndarray],
    ) -> InFlightStep:
        """Stage 1: snapshot, encode and post the step's outgoing rows —
        ``"fwd"`` embeddings to halo holders, ``"bwd"`` halo gradients to
        owners.  ``out`` names the step's destinations, per device: the
        halo buffers forward (worker-side decodes land in them), the
        owned-row gradient buffers backward (finalize adds into them)."""
        check_in_set(phase, ("fwd", "bwd"), name="phase")
        tag = step_tag(phase, layer)
        dim = int(values_by_dev[devices[0].rank].shape[1])
        if phase == "fwd":
            # Validate destination shapes on the calling thread, so the
            # worker-side scatter can assume them.
            for dev in devices:
                buf = out[dev.rank]
                expected = (dev.part.n_halo, dim)
                if buf.shape != expected:
                    raise ValueError(
                        f"out[{dev.rank}] has shape {buf.shape}, "
                        f"expected {expected}"
                    )
        step = InFlightStep(layer, phase, tag, devices, transport, dim, out)
        self._encode_and_post(transport, step, values_by_dev)
        return step

    def finalize_step(self, step: InFlightStep) -> None:
        """Stage 2: collect, decode and land the step in the ``out`` named
        at post time — the halo rows forward; backward, added into the
        owned-row gradients."""
        step.mark_done()
        if step.plan is None:  # a step without pairs: nothing was posted
            return
        if step.targets is None:
            # Decode here: an inline transport (nothing to overlap with).
            step.targets = {
                dev.rank: self._target(step, dev, self._decode_ws)
                for dev in step.devices
            }
            collects = {
                dev.rank: step.transport.collect(dev.rank, step.tag)
                for dev in step.devices
            }
            step.decoded = self._land(collects, self._decode_ws, step.targets)
        # Every receiver's rows are in its decode buffer now (mark_done
        # joined any worker-side decode); what is left is the delivery
        # audit and, backward, the order-sensitive accumulate.
        for dev in step.devices:
            index, buf = step.targets[dev.rank]
            landed = step.decoded[dev.rank]
            replayed = self._replay_missing(step, dev, landed)
            if buf is None:
                # Full-precision backward: the landed payloads are the rows,
                # added source by source (ascending) — no block copy.
                accumulate_rows(index, {**landed, **replayed}, step.out[dev.rank])
                continue
            for p, mat in replayed.items():
                buf[index.land[p]] = mat[index.pick[p]]
            if step.phase == "bwd":
                # One call per receiver, sources ascending — the float
                # accumulation-order anchor.
                accumulate_block(index, buf, step.out[dev.rank])
        if not self.quantizes:
            step.plan.staged = None  # the staging lives from post to finalize

    def _land(self, collects: dict, workspace: DecodeWorkspace, targets: dict) -> dict:
        """Each receiver's mailbox into its ``(DecodeIndex, buffer)`` target,
        ``{rank: {src: where}}``: de-quantized, or at full precision copied —
        except backward, where the float32 payloads themselves are what
        finalize adds (no buffer; ``where`` is the payload)."""
        if self.quantizes:
            return decode_cluster_step(collects, workspace=workspace, into=targets)
        landed = {}
        for rank, mailbox in collects.items():
            index, buf = targets[rank]
            landed[rank] = mailbox if buf is None else land_decoded(index, buf, mailbox)
        return landed

    def _target(self, step: InFlightStep, dev, workspace) -> tuple:
        """Receiver ``dev``'s ``(DecodeIndex, buffer)``: its halo buffer
        forward (``step.out[rank]``), a block of ``workspace`` backward."""
        part = dev.part
        if step.phase == "bwd":
            index = decode_index(
                step.plan, dev.rank, part.send_map, part.n_owned, accumulate=True
            )
            if not self.quantizes:
                return index, None  # the payloads are the rows to add
            return index, workspace.take(("block", dev.rank), index.shape, np.float32)
        index = decode_index(step.plan, dev.rank, part.recv_map, part.n_halo)
        return index, step.out[dev.rank]

    # -- fault detection and keyed-replay recovery --------------------------
    def _replay_missing(
        self, step: InFlightStep, dev, landed: dict
    ) -> dict[int, np.ndarray]:
        """Audit one receiver's landed sources; keyed-replay any missing peer.

        Every peer in the step plan posts exactly one envelope, so a
        shortfall means an envelope was dropped in transit.  The step's
        source rows still sit in the plan's staging, so the missing pair's
        payload is regenerated *bitwise* — at full precision it is those
        rows; quantized, noise is a pure function of coordinates and payload
        bytes are independent of the shard decomposition — and returned
        decoded, ``{src: matrix}``, for the caller to land where that
        source's rows go.  A source the plan does not know raises a typed
        :class:`TransportError`, which escalates to the trainer's
        checkpoint-restore path.  A step a staleness rule kept off the wire
        lands this way too: its mailboxes are empty, every payload comes
        from the cached step in the plan's staging, and none is a replay.
        """
        part = dev.part
        expected = part.recv_map if step.phase == "fwd" else part.send_map
        if len(landed) == len(expected):
            return {}
        missing = sorted(set(expected) - set(landed))
        plan = step.plan
        pair_index = {pair: i for i, pair in enumerate(plan.pairs)}
        replayed: dict[int, np.ndarray] = {}
        for p in missing:
            i = pair_index.get((p, dev.rank))
            if i is None:
                raise TransportError(
                    f"pair ({p}, {dev.rank}) of tag {step.tag!r} is not in"
                    " the step plan; cannot replay the dropped envelope"
                )
            if self.quantizes:
                payloads = self.fused_encoder.quantize_pack_shard(
                    plan, pair_shard(plan, i), coords=(step.phase, step.layer)
                )
                mailbox = {p: payloads[(p, dev.rank)]}
                replayed[p] = decode_cluster_step({dev.rank: mailbox})[dev.rank][p]
            else:
                replayed[p] = plan.staged[(p, dev.rank)]
            if step.sent:
                step.transport.fault_stats["replays"] += 1
        return replayed

    # -- internals ----------------------------------------------------------
    def _encode_and_post(
        self,
        transport: Transport,
        step: InFlightStep,
        values_by_rank: list[np.ndarray],
    ) -> None:
        layer, phase, tag, dim = step.layer, step.phase, step.tag, step.dim
        topology = self._topology_for(phase, step.devices)
        pairs, pair_counts = topology[:2]
        if not pairs:
            return
        observe = None
        tracer = self._live_tracer()
        if tracer is not None:

            def observe(src: int, dst: int, rows: np.ndarray) -> None:
                tracer.observe(phase, layer, src, dst, rows)

        # Snapshot half (calling thread): gather the step's source rows
        # into the plan's staging and feed the tracer (bit lookups run
        # here too — providers and tracers never see worker threads).
        # From here on a dropped envelope can be regenerated bitwise from
        # that staging (see _replay_missing).
        encoder = self.fused_encoder
        if self.quantizes:
            bits_cat = np.concatenate(
                [
                    self.bit_provider.bits_for(layer, phase, src, dst, int(n))
                    for (src, dst), n in zip(pairs, pair_counts)
                ]
            )
            plan = encoder.plan_for((phase, layer), *topology[:4], bits_cat, dim)
            encoder.gather_step(plan, values_by_rank, observe)
            # Quantize/pack/post: one deferred job per encode shard.  Every
            # pair has coordinate-determined noise, so the step splits into
            # transport.workers contiguous shards that may run concurrently
            # and retire in any order.
            shards = encoder.shards_for(plan, max(transport.workers, 1))

            def payloads_of(shard) -> dict:
                return encoder.quantize_pack_shard(plan, shard, coords=(phase, layer))

        else:
            plan = self._float32_plans.get((phase, layer))
            if plan is None or plan.dim != dim:
                plan = Float32StepPlan(*topology, dim)
                self._float32_plans[(phase, layer)] = plan
            step.sent = self._stage((phase, layer), plan, values_by_rank, observe)
            staged = plan.staged
            shards = [None]  # posting row views is one cheap job

            def payloads_of(shard) -> dict:
                return staged

        step.plan = plan
        if not step.sent:
            return  # nothing on the wire: finalize lands the cached step

        # With workers, the last job to finish defers one
        # collect+decode job per receiver under the same tag — decode
        # overlaps the central window too, and finalize is left with only
        # the delivery audit and the backward accumulate.
        if transport.is_async:
            step.decoded, step.targets = {}, {}
        remaining = [len(shards)]
        remaining_lock = threading.Lock()

        def make_job(shard):
            def job() -> None:
                posts_by_rank: dict[int, list[tuple[int, object, int]]] = {}
                for (src, dst), payload in payloads_of(shard).items():
                    nbytes = payload.wire_bytes if self.quantizes else payload.nbytes
                    posts_by_rank.setdefault(src, []).append((dst, payload, nbytes))
                for rank, posts in posts_by_rank.items():
                    transport.post_batch(rank, tag, posts)
                if transport.is_async:
                    with remaining_lock:
                        remaining[0] -= 1
                        last = remaining[0] == 0
                    if last:
                        self._defer_decodes(transport, step)

            return job

        for shard in shards:
            transport.defer(tag, make_job(shard))

    def _stage(
        self, key: tuple, plan: Float32StepPlan, values_by_rank, observe
    ) -> bool:
        """Put the payloads a full-precision step posts in ``plan.staged``,
        by the staleness rule (see the class); returns whether it sends."""
        cached = [] if self._cache is None else self._cache.get(key, [])
        sent = not cached or self._epoch % self.period == 0
        history = [*cached, plan.stage(values_by_rank, observe)] if sent else cached
        plan.staged = history[max(len(history) - 1 - self.lag, 0)]
        if self._cache is not None:
            self._cache[key] = history[-max(self.lag, 1) :]
        return sent

    def _defer_decodes(self, transport: Transport, step: InFlightStep) -> None:
        """Queue one collect+decode job per receiver (worker side).

        Called by the step's last post job, so every envelope is already
        posted; the jobs collect with ``join=False`` (still sorted by
        source) — a joining collect would wait on the very job set they
        run in.  Forward, each job writes its receiver's rows straight
        into the halo buffer named at post time
        (receivers own disjoint buffers, so the writes are race-free);
        backward, a quantized step into a block of its receiver's workspace
        (a full-precision one only collects: finalize adds the payloads).
        """
        for dev in step.devices:
            workspace = self._decode_ws_by_rank.get(dev.rank)
            if workspace is None:
                workspace = self._decode_ws_by_rank[dev.rank] = DecodeWorkspace()
            target = self._target(step, dev, workspace)
            step.targets[dev.rank] = target

            def decode_job(rank: int = dev.rank, target=target, workspace=workspace):
                mailbox = transport.collect(rank, step.tag, join=False)
                step.decoded[rank] = self._land(
                    {rank: mailbox}, workspace, {rank: target}
                )[rank]

            transport.defer(step.tag, decode_job)

    def _topology_for(self, phase: str, devices: list) -> tuple:
        """Static step topology: pair order, payload row counts, device
        blocks, gather indices, each pair's span of its device block, and
        the broadcast geometry's row picks (``{pair index: rows its
        receiver lands}``; empty otherwise).

        Cached per phase for one cluster, keyed on the identity of device
        0's ``owned_global``: a different cluster drops every topology and
        plan (and with them the decode indices) before anything is built.
        """
        cluster = devices[0].part.owned_global
        if cluster is not self._cluster:
            self._cluster = cluster
            self._topologies.clear()
            self._float32_plans.clear()
            if self.quantizes:
                self.fused_encoder = FusedStepEncoder(self.rounding)
        cached = self._topologies.get(phase)
        if cached is None:
            pairs: list[tuple[int, int]] = []
            pair_counts: list[int] = []
            device_blocks: list[tuple[int, int, int]] = []
            chunks: list[np.ndarray] = []
            spans: list[tuple[int, int]] = []
            picks: dict[int, np.ndarray] = {}
            pos = 0
            for dev in devices:
                part = dev.part
                maps = part.send_map if phase == "fwd" else part.recv_map
                start = pos
                if self.broadcast:
                    # The whole owned block to every peer, forward only.
                    peers = sorted(maps) if phase == "fwd" else []
                    for q in peers:
                        picks[len(pairs)] = np.asarray(maps[q], dtype=np.int64)
                        pairs.append((dev.rank, q))
                        pair_counts.append(part.n_owned)
                        spans.append((0, part.n_owned))
                    chunks.append(np.arange(part.n_owned if peers else 0))
                    pos += chunks[-1].size
                else:
                    for q in sorted(maps):
                        rows = np.asarray(maps[q], dtype=np.int64)
                        pairs.append((dev.rank, q))
                        pair_counts.append(rows.size)
                        spans.append((pos - start, pos - start + rows.size))
                        chunks.append(rows)
                        pos += rows.size
                device_blocks.append((dev.rank, start, pos))
            cat_idx = (
                np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
            )
            cached = (
                pairs,
                np.asarray(pair_counts, dtype=np.int64),
                device_blocks,
                cat_idx,
                spans,
                picks,
            )
            self._topologies[phase] = cached
        return cached


class ExactHaloExchange(FusedQuantizedHaloExchange):
    """Full-precision float32 transfers (Vanilla and evaluation passes): the
    fused exchange with no bit provider and no staleness, whose step plans'
    wire is the gathered float32 rows, ``rows × dim × 4`` bytes per (src,
    dst) pair."""

    def __init__(self) -> None:
        super().__init__(None, None)
