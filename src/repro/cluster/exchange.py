"""Halo exchange strategies: exact (Vanilla) and quantized (AdaQP).

An exchange implements the two message movements of distributed full-graph
training:

* **embeddings** (forward): each device sends, per peer, the current
  activations of the boundary rows that peer's halo needs;
* **gradients** (backward): each device sends, per halo-owner, the
  accumulated embedding gradients of that owner's nodes, which the owner
  adds into its own backward signal.

The quantized exchange additionally consults a :class:`BitProvider` for the
per-message bit-widths and (optionally) feeds an input tracer — the hook
the Adaptive Bit-width Assigner hangs off.

**Split-phase API.**  Every exchange executes one step as two halves:
:meth:`HaloExchange.post_step` snapshots, encodes and posts all outgoing
messages and returns an :class:`InFlightStep` handle; the messages then
stay pending in the transport until :meth:`HaloExchange.finalize_step`
collects, decodes and scatters (forward) or accumulates (backward) them.
The pipelined executor runs the central-graph sub-step between the two
halves — the paper's Fig. 7 overlap — and the non-overlapped engine calls
them back to back.  Payload values are frozen at post time (every policy's
gather or encode copies), so callers may mutate the source buffers while
a step is in flight.

**Async post paths.**  Each ``post_step`` splits into a *snapshot* half
(gathers the outgoing rows on the calling thread) and one or more
*encode-and-post* jobs handed to :meth:`TransportBackend.defer` /
:meth:`TransportBackend.defer_many`.  On the synchronous transport the jobs
run inline; on a :class:`~repro.comm.transport.WorkerTransport` they run
on the worker pool, overlapping the caller's subsequent compute.  Because
the snapshot happens before ``post_step`` returns, the frozen-at-post
contract holds under both transports; ``finalize_step`` joins the jobs (via
:meth:`InFlightStep.mark_done`) before reading results, so receivers
never observe a half-posted step.

**Worker fan-out.**  Every quantized message block's noise is a pure
function of its coordinates (:class:`~repro.quant.stochastic.KeyedRounding`),
so the quantized exchange shards one step's encode across all
``transport.workers`` and — on async transports — chases it with
per-receiver collect/decode jobs, all free to retire in any order; the
exact exchange (no noise at all) shards its batched posts per source
device.  Bit lookups and tracer ``observe`` calls stay on the calling
thread (the snapshot half).  With the two-deep pipeline a cross-step
lookahead post fires only after the previous step's finalize has joined
its tag, so even with two tags alive on the transport at once, at most
one tag ever has outstanding encode jobs.

**Worker-side decode scatter.**  Forward callers that already know the
destination halo buffers may pass them to ``post_step(..., out=...)``:
on async thread-backed transports the quantized exchange's per-receiver
decode jobs then scatter straight into them (each receiver's halo region
is a disjoint, contiguous row range of the stacked buffer, so the writes
are race-free shards), and ``finalize_step`` with the *same* ``out``
object becomes join-only.  Backward steps never take this path (their
accumulate is float-order-sensitive), nor does the process transport
(the halo buffer is not in shared memory); both keep the main-thread
scatter/accumulate.
"""

from __future__ import annotations

import threading
import zlib
from typing import Protocol

import numpy as np
import scipy.sparse as sp

from repro.comm.transport import (
    TransportAccounting,
    TransportBackend,
    TransportError,
)
from repro.quant.fused import (
    DecodeWorkspace,
    FusedStepEncoder,
    decode_cluster_step,
    decode_step,
    pair_shard,
    shard_descriptor,
)
from repro.quant.mixed import MixedPrecisionPayload
from repro.quant.stochastic import as_rounding
from repro.quant.theory import SUPPORTED_BITS
from repro.utils.validation import check_in_set

__all__ = [
    "BitProvider",
    "FixedBitProvider",
    "UniformRandomBitProvider",
    "InFlightStep",
    "HaloExchange",
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

    Returned by :meth:`HaloExchange.post_step`; every field the receive
    half needs is captured here so ``finalize_step`` takes only the handle
    (plus destination buffers).  ``tag`` doubles as the transport key the
    pipelined executor passes to :meth:`TransportAccounting.note_overlap`.

    ``worker_wait_s`` is filled by :meth:`mark_done`: the seconds the
    finalize half spent blocked joining the step's deferred encode (and,
    on async transports, decode) jobs — 0.0 on the synchronous transport,
    and ~0.0 under the async transport whenever the central window fully
    covered the deferred work (the exposed tail the timelines report).

    ``decoded`` is the async fused engine's stash: per-receiver decoded
    matrices produced by worker-side decode jobs, complete once
    :meth:`mark_done` returns; ``None`` whenever decode happens in
    ``finalize_step`` itself (synchronous transports, non-fused policies).

    ``scatter_out``/``scattered`` carry the worker-side scatter contract:
    ``scatter_out`` is the per-device halo-destination list the caller
    supplied at post time (if any), and ``scattered`` is set by the fused
    engine once its decode jobs have been queued to write those buffers
    directly — ``finalize_step`` passed the *same* ``out`` object then
    skips the scatter entirely.  ``ws_parity`` selects which of the A/B
    :class:`~repro.quant.fused.DecodeWorkspace` pair this step's decodes
    use, so a lookahead step's decode never reuses buffers whose views
    the previous step's finalize has not yet consumed.
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
        "scatter_out",
        "scattered",
        "ws_parity",
        "plan",
        "replayable",
    )

    def __init__(
        self,
        layer: int,
        phase: str,
        tag: str,
        devices: list,
        transport: TransportBackend,
        dim: int,
    ) -> None:
        self.layer = layer
        self.phase = phase
        self.tag = tag
        self.devices = devices
        self.transport = transport
        self.dim = dim
        self.done = False
        self.worker_wait_s = 0.0
        self.decoded: dict[int, dict[int, np.ndarray]] | None = None
        self.scatter_out: list[np.ndarray] | None = None
        self.scattered = False
        self.ws_parity = 0
        # Keyed-replay recovery handles: the fused engine stashes the
        # step's encode plan here and flags whether a dropped envelope can
        # be regenerated from it (keyed rounding + plan scratch staged on
        # this side of the process boundary).
        self.plan = None
        self.replayable = False

    def mark_done(self) -> None:
        if self.done:
            raise RuntimeError(
                f"step {self.tag!r} finalized twice (stale in-flight handle)"
            )
        self.done = True
        # Join the step's deferred encode/post/decode jobs (no-op when the
        # transport is synchronous); every finalize half calls mark_done
        # first, so no policy can collect a half-posted step.
        self.worker_wait_s = self.transport.complete(self.tag)


class HaloExchange:
    """Base class of every exchange policy: the split-phase contract,
    the delivery audit and checkpointing hooks.  Subclasses implement the
    two step halves."""

    #: whether payloads pass through quantize/de-quantize kernels
    quantizes: bool = False

    def on_epoch_start(self, epoch: int) -> None:
        """Hook for per-epoch state (bit re-sampling, staleness caches)."""

    # -- checkpointing -------------------------------------------------------
    def state_dict(self) -> dict:
        """Cross-epoch state a bitwise resume must restore.

        The base policies are stateless across epochs (plans and scratch
        are caches, rebuilt identically); policies with numeric carry-over
        — adaptive traces, sampled bit-widths, staleness caches — override
        both hooks.
        """
        return {}

    def load_state_dict(self, state: dict) -> None:
        if state:
            raise ValueError(f"unexpected exchange state keys: {sorted(state)}")

    # -- delivery audit ------------------------------------------------------
    @staticmethod
    def _check_delivery(dev, phase: str, tag: str, received) -> None:
        """Fail fast when a step's mailbox is missing expected envelopes.

        Every peer in the partition's recv map (forward) / send map
        (backward) posts exactly one envelope per step, so a shortfall
        means an envelope was lost in transit.  Policies with a recovery
        path (the quantized exchange's keyed replay) handle the shortfall
        before scattering; everyone else must raise — zero-filled halo
        rows or missing gradient contributions are silent corruption.
        """
        part = dev.part
        expected = part.recv_map if phase == "fwd" else part.send_map
        if len(received) != len(expected):
            missing = sorted(set(expected) - set(received))
            raise TransportError(
                f"device {dev.rank} is missing envelope(s) from source(s)"
                f" {missing} under tag {tag!r} — dropped in transit, and this"
                " exchange has no replay path"
            )

    # -- split-phase halves --------------------------------------------------
    def post_step(
        self,
        layer: int,
        phase: str,
        devices: list,  # list[DeviceRuntime]; untyped to avoid cycle
        transport: TransportBackend,
        values_by_dev: list[np.ndarray],
        out: list[np.ndarray] | None = None,
    ) -> InFlightStep:
        """Stage 1: snapshot, encode and post this step's outgoing rows.

        ``phase`` is ``"fwd"`` (boundary embeddings to halo holders) or
        ``"bwd"`` (halo gradients back to owners).  Returns the in-flight
        handle for :meth:`finalize_step`; payload values are copied out of
        ``values_by_dev`` before returning, while encode and post may run
        as deferred transport jobs.

        ``out`` (forward only) optionally names the per-device halo
        destinations up front so a policy that can scatter on its workers
        does (see the module docstring); policies without that fast path
        simply record it on the handle.  Finalize's own ``out`` argument
        stays authoritative either way.
        """
        raise NotImplementedError

    def finalize_step(
        self, step: InFlightStep, out: list[np.ndarray] | None = None
    ) -> list[np.ndarray] | None:
        """Stage 2: collect, decode and land this step's messages.

        Forward steps scatter into per-device ``(n_halo, d)`` buffers
        (``out`` views — the compute engine passes halo-region views of
        its stacked layer buffer, so decoded rows land in place — or
        fresh arrays) and return them; backward steps *accumulate* into
        the per-device ``out`` gradient buffers and return ``None``.
        """
        raise NotImplementedError

    @staticmethod
    def _halo_out(
        out: list[np.ndarray] | None, rank: int, n_halo: int, dim: int
    ) -> np.ndarray:
        """Zeroed halo destination: caller-provided view or fresh array
        (a reused buffer must be indistinguishable from a fresh one)."""
        if out is None:
            return np.zeros((n_halo, dim), dtype=np.float32)
        buf = out[rank]
        if buf.shape != (n_halo, dim):
            raise ValueError(
                f"out[{rank}] has shape {buf.shape}, expected {(n_halo, dim)}"
            )
        buf.fill(0.0)
        return buf


class ExactHaloExchange(HaloExchange):
    """Full-precision float32 transfers (Vanilla and evaluation passes).

    Executed step-fused like the quantized exchange: per device, one gather
    over all outgoing boundary rows and one batched transport post; on the
    receive side, one permutation scatter per device instead of one
    assignment per peer.  Payloads are row slices of that gather, so the
    wire carries exactly ``rows × dim × 4`` bytes per (src, dst) pair.

    Step plans (gather indices, scatter permutations) are cached per
    cluster: the cache key is the identity of device 0's ``owned_global``
    array, so an instance reused across *different* clusters rebuilds
    automatically.
    """

    quantizes = False

    def __init__(self) -> None:
        # phase -> (identity key, per-device plan list); see class docstring.
        self._plans: dict[str, tuple[object, list]] = {}

    def _plan_for(self, phase: str, devices: list) -> list:
        key = devices[0].part.owned_global
        cached = self._plans.get(phase)
        if cached is not None and cached[0] is key:
            return cached[1]
        plans = []
        for dev in devices:
            part = dev.part
            send = part.send_map if phase == "fwd" else part.recv_map
            peers = sorted(send.keys())
            counts = [int(send[q].size) for q in peers]
            bounds = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
            gather = (
                np.concatenate([send[q] for q in peers])
                if peers
                else np.zeros(0, dtype=np.int64)
            )
            # Receive side.  "fwd" scatters into halo slots — each fed by
            # exactly one peer, so one permuted assignment covers the
            # whole region.  "bwd" accumulates into owned rows, which may
            # repeat across peers; a 0/1 selection operator reduces all
            # incoming rows per owner in one spmv (summation over peers in
            # ascending-peer order — the accumulation-order anchor).
            recv = part.recv_map if phase == "fwd" else part.send_map
            recv_peers = sorted(recv.keys())
            scatter = (
                np.concatenate([recv[p] for p in recv_peers])
                if recv_peers
                else np.zeros(0, dtype=np.int64)
            )
            if phase == "fwd" and scatter.size != part.n_halo:
                # The zero-fill-free scatter below relies on full halo
                # coverage; LocalPartition.validate() guarantees it, so a
                # violation means a hand-built partition broke the maps.
                raise ValueError(
                    f"partition {part.part_id}: recv maps cover "
                    f"{scatter.size} of {part.n_halo} halo slots"
                )
            reduce_op = None
            if phase == "bwd" and scatter.size:
                reduce_op = sp.csr_matrix(
                    (
                        np.ones(scatter.size, dtype=np.float32),
                        (scatter, np.arange(scatter.size, dtype=np.int64)),
                    ),
                    shape=(part.n_owned, scatter.size),
                )
            plans.append((peers, bounds, gather, recv_peers, scatter, reduce_op))
        self._plans[phase] = (key, plans)
        return plans

    @staticmethod
    def _batch_posts(plan: tuple, block: np.ndarray) -> list[tuple[int, object, int]]:
        """One device's ``post_batch`` entries from its gathered block.

        Payloads are row slices of a single fresh gather.
        """
        peers, bounds = plan[:2]
        row_bytes = block.shape[1] * 4
        return [
            (
                q,
                block[bounds[i] : bounds[i + 1]],
                int(bounds[i + 1] - bounds[i]) * row_bytes,
            )
            for i, q in enumerate(peers)
        ]

    def post_step(
        self,
        layer: int,
        phase: str,
        devices: list,
        transport: TransportBackend,
        values_by_dev: list[np.ndarray],
        out: list[np.ndarray] | None = None,
    ) -> InFlightStep:
        check_in_set(phase, ("fwd", "bwd"), name="phase")
        tag = step_tag(phase, layer)
        plans = self._plan_for(phase, devices)
        # Snapshot half: one gather per device, fresh memory; the float32
        # coercion keeps the byte accounting honest for non-float32 inputs.
        staged: list[tuple[int, tuple, np.ndarray]] = []
        for dev in devices:
            plan = plans[dev.rank]
            if not plan[0]:  # no peers
                continue
            block = np.ascontiguousarray(
                values_by_dev[dev.rank][plan[2]], dtype=np.float32
            )
            staged.append((dev.rank, plan, block))
        if staged:
            # Exact payloads carry no rounding noise, so per-device post
            # jobs are order-free: a multi-worker pool runs them
            # concurrently (receivers sort mailboxes by source, so the
            # arrival order is invisible).
            if transport.workers > 1:

                def make_job(rank: int, plan: tuple, block: np.ndarray):
                    def job() -> None:
                        transport.post_batch(rank, tag, self._batch_posts(plan, block))

                    return job

                transport.defer_many(tag, [make_job(*entry) for entry in staged])
            else:

                def job() -> None:
                    for rank, plan, block in staged:
                        transport.post_batch(rank, tag, self._batch_posts(plan, block))

                transport.defer(tag, job)
        dim = int(values_by_dev[devices[0].rank].shape[1])
        step = InFlightStep(layer, phase, tag, devices, transport, dim)
        step.scatter_out = out if phase == "fwd" else None
        return step

    def finalize_step(
        self, step: InFlightStep, out: list[np.ndarray] | None = None
    ) -> list[np.ndarray] | None:
        step.mark_done()
        plans = self._plan_for(step.phase, step.devices)
        if step.phase == "fwd":
            halo_by_dev: list[np.ndarray] = []
            for dev in step.devices:
                part = dev.part
                received = step.transport.collect(dev.rank, step.tag)
                self._check_delivery(dev, step.phase, step.tag, received)
                if received:
                    # The scatter permutation covers every halo slot (each
                    # is fed by exactly one peer and all peers posted), so
                    # the destination needs no zero-fill before assignment.
                    if out is not None:
                        halo = out[dev.rank]
                        if halo.shape != (part.n_halo, step.dim):
                            raise ValueError(
                                f"out[{dev.rank}] has shape {halo.shape}, "
                                f"expected {(part.n_halo, step.dim)}"
                            )
                    else:
                        halo = np.empty((part.n_halo, step.dim), dtype=np.float32)
                    recv_peers, scatter = plans[dev.rank][3:5]
                    halo[scatter] = np.concatenate([received[p] for p in recv_peers])
                else:
                    halo = self._halo_out(out, dev.rank, part.n_halo, step.dim)
                halo_by_dev.append(halo)
            return halo_by_dev
        if out is None:
            raise ValueError("backward finalize_step requires out= buffers")
        for dev in step.devices:
            received = step.transport.collect(dev.rank, step.tag)
            self._check_delivery(dev, step.phase, step.tag, received)
            if not received:
                continue
            recv_peers, _, reduce_op = plans[dev.rank][3:6]
            cat = np.concatenate([received[p] for p in recv_peers])
            out[dev.rank] += np.asarray(reduce_op @ cat)
        return None


class FusedQuantizedHaloExchange(HaloExchange):
    """AdaQP's transfers: per-message stochastic quantization + packing,
    executed as batched kernels over whole cluster steps.

    Every (src, dst) message is quantized row by row at its assigned
    bit-widths and bit-packed — the wire format
    :class:`~repro.quant.mixed.MixedPrecisionEncoder` states one message
    at a time — but a (layer, phase) step runs as a few large NumPy
    kernels instead of thousands of per-pair, per-group dispatches:

    * the boundary rows of **every** (src, dst) pair of the step are
      gathered into one step-wide buffer (one ``take`` per source device);
    * stochastic quantization for the whole step runs as one kernel per
      encode shard, and packing as one batch per distinct bit-width
      (:class:`~repro.quant.fused.FusedStepEncoder`);
    * each device's payloads enter the transport through one batched post;
    * all receivers' payloads are decoded together, batched per bit-width
      (:func:`~repro.quant.fused.decode_cluster_step`).

    Boundary index structures, permutation plans and scratch buffers are
    cached across epochs and only rebuilt when the bit-width assignment of
    a step changes (i.e. at reassignment boundaries).

    Parameters
    ----------
    bit_provider:
        Source of per-message bit-widths (fixed, uniform-random or the
        adaptive assigner).
    rounding:
        The :class:`~repro.quant.stochastic.KeyedRounding` noise policy:
        each message's stochastic-rounding noise is a pure function of its
        (epoch, phase, layer, src, dst) coordinates.
    tracer:
        Optional object with ``observe(phase, layer, src, dst, rows)``;
        the adaptive assigner registers one to see transfers' input
        statistics (paper Fig. 6, step 1).  A tracer exposing a false
        ``wants_traces`` (the assigner, on epochs whose traces no
        re-assignment will read) is skipped for that epoch.
    """

    quantizes = True

    def __init__(
        self,
        bit_provider: BitProvider,
        rounding,
        tracer: object | None = None,
    ) -> None:
        self.bit_provider = bit_provider
        self.rounding = as_rounding(rounding)
        self.tracer = tracer
        self.fused_encoder = FusedStepEncoder(self.rounding)
        self._decode_ws = DecodeWorkspace()
        # Worker-side decode scratch, an A/B workspace pair per receiving
        # rank, keyed ``(rank, parity)``: per-receiver decode jobs run
        # concurrently on the pool, so ranks must never share buffers —
        # and with cross-step lookahead two *steps* can be alive at once,
        # so consecutive steps alternate parity (``_ws_parity``) to keep a
        # pending step's decode from recycling buffers whose views the
        # previous step's finalize has not yet consumed.
        self._decode_ws_by_rank: dict[tuple[int, int], DecodeWorkspace] = {}
        self._ws_parity = 0
        self._topologies: dict[str, tuple] = {}
        self._halo_bufs: dict[tuple[int, int], np.ndarray] = {}
        #: envelopes regenerated bitwise from plan scratch after a drop
        self.replayed_messages = 0
        #: shm payload spans re-encoded in-parent after checksum mismatch
        self.slab_repairs = 0
        # In-parent segment/plan caches for slab repairs (the repair runs
        # the same ShardEncodeJob code path the workers do).
        self._repair_segments: dict = {}
        self._repair_cache: dict = {}

    def on_epoch_start(self, epoch: int) -> None:
        set_epoch = getattr(self.bit_provider, "set_epoch", None)
        if set_epoch is not None:
            set_epoch(epoch)
        # The epoch is a coordinate of every block's noise key.
        self.rounding.set_epoch(epoch)

    def _live_tracer(self) -> object | None:
        """The tracer, when it will read this epoch's observations."""
        tracer = self.tracer
        if tracer is not None and getattr(tracer, "wants_traces", True):
            return tracer
        return None

    def state_dict(self) -> dict:
        """Rounding state (empty: keyed noise is stateless) plus any
        stateful bit provider.

        The adaptive assigner is checkpointed separately by the trainer
        (it is shared infrastructure, not exchange-owned); only providers
        reachable solely through the exchange land here.
        """
        state: dict = {"rounding": self.rounding.state_dict()}
        provider_state = getattr(self.bit_provider, "state_dict", None)
        if provider_state is not None and not hasattr(
            self.bit_provider, "reassign"
        ):
            state["bit_provider"] = provider_state()
        return state

    def load_state_dict(self, state: dict) -> None:
        self.rounding.load_state_dict(state["rounding"])
        if "bit_provider" in state:
            self.bit_provider.load_state_dict(state["bit_provider"])

    # -- step halves --------------------------------------------------------
    def post_step(
        self,
        layer: int,
        phase: str,
        devices: list,
        transport: TransportBackend,
        values_by_dev: list[np.ndarray],
        out: list[np.ndarray] | None = None,
    ) -> InFlightStep:
        check_in_set(phase, ("fwd", "bwd"), name="phase")
        tag = step_tag(phase, layer)
        dim = int(values_by_dev[devices[0].rank].shape[1])
        step = InFlightStep(layer, phase, tag, devices, transport, dim)
        # Alternate the decode-workspace parity per posted step; with two
        # steps in flight the lookahead one lands on the other half of the
        # A/B pair (see _defer_decodes).
        self._ws_parity ^= 1
        step.ws_parity = self._ws_parity
        if out is not None and phase == "fwd":
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
            step.scatter_out = out
        self._encode_and_post(transport, step, values_by_dev)
        return step

    def finalize_step(
        self, step: InFlightStep, out: list[np.ndarray] | None = None
    ) -> list[np.ndarray] | None:
        step.mark_done()
        if step.scattered and out is not None and out is step.scatter_out:
            # Worker-side scatter already landed every receiver's rows in
            # the buffers named at post time (mark_done joined the jobs);
            # finalize is join-only — plus the delivery audit, which
            # re-scatters a receiver wholesale when a dropped envelope was
            # replayed (halo assignments are idempotent).
            for dev in step.devices:
                decoded = step.decoded[dev.rank]
                if len(decoded) == len(dev.part.recv_map):
                    continue
                repaired = self._ensure_complete(step, dev, decoded)
                halo = out[dev.rank]
                for p, mat in repaired.items():
                    halo[dev.part.recv_map[p]] = mat
            return [out[dev.rank] for dev in step.devices]
        if step.decoded is not None:
            # Async transport: worker jobs already collected and decoded
            # every receiver's mailbox (mark_done joined them); only the
            # scatter/accumulate below — the order-sensitive half — runs
            # on this thread.
            decoded = step.decoded
        else:
            collects = {
                dev.rank: step.transport.collect(dev.rank, step.tag)
                for dev in step.devices
            }
            decoded = decode_cluster_step(collects, workspace=self._decode_ws)
        for dev in step.devices:
            decoded[dev.rank] = self._ensure_complete(
                step, dev, decoded[dev.rank]
            )
        if step.phase == "fwd":
            halo_by_dev: list[np.ndarray] = []
            for dev in step.devices:
                part = dev.part
                if out is not None:
                    halo = self._halo_out(out, dev.rank, part.n_halo, step.dim)
                else:
                    halo = self._halo_buffer(
                        dev.rank, step.layer, part.n_halo, step.dim
                    )
                for p, mat in decoded[dev.rank].items():
                    halo[part.recv_map[p]] = mat
                halo_by_dev.append(halo)
            return halo_by_dev
        if out is None:
            raise ValueError("backward finalize_step requires out= buffers")
        for dev in step.devices:
            part = dev.part
            # Mailbox iteration order is the transport's collection order
            # (src ascending) — the float accumulation-order anchor.
            for p, mat in decoded[dev.rank].items():
                out[dev.rank][part.send_map[p]] += mat
        return None

    # -- fault detection and keyed-replay recovery --------------------------
    def _ensure_complete(
        self, step: InFlightStep, dev, decoded: dict[int, np.ndarray]
    ) -> dict[int, np.ndarray]:
        """Audit one receiver's decoded set; keyed-replay any missing peer.

        Every peer in the step plan posts exactly one envelope, so a
        shortfall means an envelope was dropped in transit.  When the
        step is replayable (plan scratch staged on this side of any
        process boundary) the missing pair's payload is regenerated
        *bitwise* — noise is a pure function of coordinates,
        and payload bytes are independent of the shard decomposition —
        and the dict is re-sorted src-ascending so the backward float
        accumulation order is unchanged.  Otherwise a typed
        :class:`TransportError` escalates to the trainer's
        checkpoint-restore path.
        """
        part = dev.part
        expected = part.recv_map if step.phase == "fwd" else part.send_map
        if len(decoded) == len(expected):
            return decoded
        missing = sorted(set(expected) - set(decoded))
        plan = step.plan
        if not (step.replayable and plan is not None):
            raise TransportError(
                f"device {dev.rank} is missing envelope(s) from source(s)"
                f" {missing} under tag {step.tag!r} and the step is not"
                " keyed-replayable"
            )
        pair_index = {pair: i for i, pair in enumerate(plan.pairs)}
        stats = getattr(step.transport, "fault_stats", None)
        for p in missing:
            i = pair_index.get((p, dev.rank))
            if i is None:
                raise TransportError(
                    f"pair ({p}, {dev.rank}) of tag {step.tag!r} is not in"
                    " the step plan; cannot replay the dropped envelope"
                )
            shard = pair_shard(plan, i)
            payloads = self.fused_encoder.quantize_pack_shard(
                plan, shard, coords=(step.phase, step.layer)
            )
            decoded[p] = payloads[(p, dev.rank)].decode()
            self.replayed_messages += 1
            if stats is not None:
                stats["replays"] += 1
        return {src: decoded[src] for src in sorted(decoded)}

    # -- internals ----------------------------------------------------------
    def _encode_and_post(
        self,
        transport: TransportBackend,
        step: InFlightStep,
        values_by_rank: list[np.ndarray],
    ) -> None:
        layer, phase, tag, dim = step.layer, step.phase, step.tag, step.dim
        pairs, pair_counts, device_blocks, cat_idx = self._topology_for(
            phase, step.devices
        )
        if not pairs:
            return

        bits_cat = np.concatenate(
            [
                self.bit_provider.bits_for(layer, phase, src, dst, int(n))
                for (src, dst), n in zip(pairs, pair_counts)
            ]
        )
        plan = self.fused_encoder.plan_for(
            (phase, layer), pairs, pair_counts, device_blocks, cat_idx, bits_cat, dim
        )
        step.plan = plan
        observe = None
        tracer = self._live_tracer()
        if tracer is not None:

            def observe(src: int, dst: int, rows: np.ndarray) -> None:
                tracer.observe(phase, layer, src, dst, rows)

        if getattr(transport, "kind", None) == "process":
            # Descriptor jobs over shared memory (closures cannot cross
            # the process boundary).
            self._post_step_process(
                transport, plan, layer, phase, tag, step, values_by_rank, observe
            )
            return

        # Snapshot half (calling thread): gather the step's source rows
        # into plan scratch and feed the tracer (bit lookups above run
        # here too — providers and tracers never see worker threads).
        encoder = self.fused_encoder
        encoder.gather_step(plan, values_by_rank, observe)
        # The step's source rows now sit in plan scratch on this side of
        # any process boundary, and keyed noise is a pure function of
        # coordinates: a dropped envelope can be regenerated bitwise via
        # pair_shard + quantize_pack_shard.  (The process path never needs
        # to — its data plane is the shm slab, not the mailbox.)
        step.replayable = True

        # Quantize/pack/post half: one deferred job per encode shard.
        # Every pair has coordinate-determined noise, so the step splits
        # into transport.workers contiguous shards that may run
        # concurrently and retire in any order.  On async transports the
        # last shard to finish defers one collect+decode job per receiver
        # under the same tag — decode overlaps the central window too, and
        # finalize is left with only the order-sensitive
        # scatter/accumulate.
        shards = encoder.shards_for(plan, max(transport.workers, 1))
        eager_decode = transport.is_async
        if eager_decode:
            step.decoded = {}
        remaining = [len(shards)]
        remaining_lock = threading.Lock()

        def make_job(shard):
            def job() -> None:
                payloads = encoder.quantize_pack_shard(
                    plan, shard, coords=(phase, layer)
                )
                posts_by_rank: dict[int, list[tuple[int, object, int]]] = {}
                for (src, dst), payload in payloads.items():
                    posts_by_rank.setdefault(src, []).append(
                        (dst, payload, payload.wire_bytes)
                    )
                for rank, posts in posts_by_rank.items():
                    transport.post_batch(rank, tag, posts)
                if eager_decode:
                    with remaining_lock:
                        remaining[0] -= 1
                        last = remaining[0] == 0
                    if last:
                        self._defer_decodes(transport, step)

            return job

        transport.defer_many(tag, [make_job(shard) for shard in shards])

    def _defer_decodes(self, transport: TransportBackend, step: InFlightStep) -> None:
        """Queue one collect+decode job per receiver (worker side).

        Called by the step's last encode shard, so every envelope is
        already posted; the jobs use the *base* ``TransportAccounting.collect``
        (which sorts by source) — the subclass safety-net would try to
        join the very job set they run in.  Each receiver gets its own
        :class:`DecodeWorkspace` from the ``(rank, parity)`` A/B pair; the
        views stashed in ``step.decoded`` stay valid until that receiver's
        next *same-parity* decode, two whole steps away, so they survive
        even when a lookahead step's decode runs before this step's
        finalize has consumed them.

        When the step carries ``scatter_out`` (forward halo destinations
        named at post time), each decode job also scatters its receiver's
        rows straight into that buffer — receivers own disjoint buffers,
        so the writes are race-free — and flags the step ``scattered`` so
        finalize is join-only.  The zero-fill-then-assign matches
        ``_halo_out``'s semantics exactly.
        """
        scatter = step.phase == "fwd" and step.scatter_out is not None
        if scatter:
            step.scattered = True
        for dev in step.devices:

            def decode_job(rank: int = dev.rank, part=dev.part) -> None:
                mailbox = TransportAccounting.collect(transport, rank, step.tag)
                key = (rank, step.ws_parity)
                workspace = self._decode_ws_by_rank.get(key)
                if workspace is None:
                    workspace = self._decode_ws_by_rank[key] = DecodeWorkspace()
                decoded = decode_step(mailbox, workspace=workspace)
                step.decoded[rank] = decoded
                if scatter:
                    halo = step.scatter_out[rank]
                    halo.fill(0.0)
                    for p, mat in decoded.items():
                        halo[part.recv_map[p]] = mat

            transport.defer(step.tag, decode_job)

    def _post_step_process(
        self,
        transport,
        plan,
        layer: int,
        phase: str,
        tag: str,
        step: InFlightStep,
        values_by_rank,
        observe,
    ) -> None:
        """Post one step through a :class:`~repro.comm.process.
        ProcessTransport`: shard descriptors out, shared memory back.

        The slab layout is a pure function of the plan's group structure,
        so it is computed here once and shipped to the workers as plain
        offsets: input rows (cat order), then per (pair, group) the packed
        stream + per-row zero/scale metadata, then per receiver the
        decoded float32 output region.  Workers reproduce their shard's
        bytes from the descriptor alone (keyed noise); the main thread's
        ``on_done`` callbacks post shm-view payloads into the mailboxes
        (wire accounting identical to the sync path — same streams, same
        group structure) and, after the decode wave, stash ``step.decoded``
        views exactly where the thread path does.
        """
        from repro.comm.process import ShardEncodeJob, StepDecodeJob

        dim = plan.dim
        n_total = plan.n_total
        bounds = plan.cat_bounds

        def align(offset: int) -> int:
            return (offset + 7) & ~7

        # ---- slab layout (group structure only; no payload data) --------
        cursor = align(n_total * dim * 4)
        pair_layouts: list[tuple] = []  # aligned with plan.pairs
        for pair in plan.pairs:
            groups = []
            for g in plan.pair_groups[pair]:
                n_g = g.stop - g.start
                stream_nbytes = (n_g * dim * g.bits + 7) // 8
                stream_off = cursor
                z_off = align(stream_off + stream_nbytes)
                s_off = z_off + n_g * 4
                cursor = align(s_off + n_g * 4)
                groups.append((g.bits, n_g, stream_off, stream_nbytes, z_off, s_off))
            pair_layouts.append(tuple(groups))
        # Decoded-output regions, grouped by receiver.  The topology walks
        # devices (and each device's peers) in ascending order, so a fixed
        # receiver's entries appear src-ascending — the same order
        # ``collect`` anchors the sync path to.
        out_layout: dict[int, list[tuple[int, int, int, int]]] = {}
        for i, (src, dst) in enumerate(plan.pairs):
            n_rows = int(plan.pair_counts[i])
            out_off = cursor
            cursor = align(out_off + n_rows * dim * 4)
            out_layout.setdefault(dst, []).append((i, src, n_rows, out_off))

        segment, base, view = transport.step_buffer(tag, cursor)

        # ---- snapshot half (calling thread, directly into shm) ----------
        in2d = view[: n_total * dim * 4].view(np.float32).reshape(n_total, dim)
        for rank, start, stop in plan.device_blocks:
            vals = values_by_rank[rank]
            if vals.dtype != np.float32:
                vals = np.asarray(vals, dtype=np.float32)
            np.take(vals, plan.cat_idx[start:stop], axis=0, out=in2d[start:stop])
        if observe is not None:
            for i, pair in enumerate(plan.pairs):
                observe(pair[0], pair[1], in2d[bounds[i] : bounds[i + 1]])

        step.decoded = {dev.rank: {} for dev in step.devices}

        def payload_for(i: int) -> MixedPrecisionPayload:
            group_bits, group_rows, streams, zero_points, scales = [], [], [], [], []
            for g, (_, n_g, so, sn, zo, sco) in zip(
                plan.pair_groups[plan.pairs[i]], pair_layouts[i]
            ):
                group_bits.append(g.bits)
                group_rows.append(g.rows)
                streams.append(view[so : so + sn])
                zero_points.append(view[zo : zo + n_g * 4].view(np.float32))
                scales.append(view[sco : sco + n_g * 4].view(np.float32))
            return MixedPrecisionPayload(
                num_rows=int(plan.pair_counts[i]),
                dim=dim,
                group_bits=group_bits,
                group_rows=group_rows,
                streams=streams,
                zero_points=zero_points,
                scales=scales,
            )

        def make_posted(pair_lo: int, pair_hi: int):
            def on_posted() -> None:
                posts_by_rank: dict[int, list[tuple[int, object, int]]] = {}
                for i in range(pair_lo, pair_hi):
                    src, dst = plan.pairs[i]
                    payload = payload_for(i)
                    posts_by_rank.setdefault(src, []).append(
                        (dst, payload, payload.wire_bytes)
                    )
                for rank, posts in posts_by_rank.items():
                    transport.post_batch(rank, tag, posts)

            return on_posted

        # ---- encode wave: one descriptor job per shard ------------------
        # Slab verification: workers return per-pair stream checksums and
        # a main-side wave check re-reads the slab between the encode wave
        # and the decode followups — the window where corruption (or a
        # scripted poison fault) would otherwise flow silently into every
        # receiver.  On by default in fault runs; opt-in elsewhere.
        verify = transport.fault_plan is not None or bool(
            getattr(transport, "verify_slabs", False)
        )
        for shard in self.fused_encoder.shards_for(plan, max(transport.workers, 1)):
            descriptor = shard_descriptor(
                plan, shard, rounding=self.rounding, phase=phase, layer=layer
            )
            job = ShardEncodeJob(
                descriptor=descriptor,
                segment=segment,
                rows_offset=base + shard.start * dim * 4,
                n_rows=shard.stop - shard.start,
                pair_layouts=tuple(
                    tuple(
                        (b, n_g, base + so, sn, base + zo, base + sco)
                        for (b, n_g, so, sn, zo, sco) in pair_layouts[i]
                    )
                    for i in range(shard.pair_lo, shard.pair_hi)
                ),
                checksum=verify,
            )
            transport.submit(
                tag, job, on_done=make_posted(shard.pair_lo, shard.pair_hi)
            )

        if verify:

            def slab_check(crcs: dict) -> None:
                fplan = transport.fault_plan
                spec = (
                    fplan.take("poison", tag) if fplan is not None else None
                )
                if spec is not None:
                    # Scripted slab corruption: scribble a stream span of
                    # the (src, dst)-matching pair after the encode wave
                    # landed, before any decode reads it.
                    idx = 0
                    for i, (s, d) in enumerate(plan.pairs):
                        if (spec.src is None or spec.src == s) and (
                            spec.dst is None or spec.dst == d
                        ):
                            idx = i
                            break
                    _, _, so, sn, _, _ = pair_layouts[idx][0]
                    view[so : so + max(1, min(sn, 64))] ^= 0xFF
                    transport.fault_stats["slabs_poisoned"] += 1
                self._verify_slab(
                    transport, plan, pair_layouts, view, base, segment,
                    phase, layer, tag, crcs,
                )

            transport.submit_wave_check(tag, slab_check)

        # ---- decode wave: one job per receiver, after encode drains -----
        def make_decoded(rank: int, entries: list) -> object:
            def on_decoded() -> None:
                # Drain the mailbox (closing the books on the posted
                # bytes); values are discarded — decode already ran in the
                # worker against the same shm streams.
                TransportAccounting.collect(transport, rank, tag)
                decoded: dict[int, np.ndarray] = {}
                for _, src, n_rows, out_off in entries:
                    decoded[src] = (
                        view[out_off : out_off + n_rows * dim * 4]
                        .view(np.float32)
                        .reshape(n_rows, dim)
                    )
                step.decoded[rank] = decoded

            return on_decoded

        for dev in step.devices:
            entries = out_layout.get(dev.rank)
            if not entries:
                continue
            sources = []
            for i, src, n_rows, out_off in entries:
                pair_groups = plan.pair_groups[plan.pairs[i]]
                groups = tuple(
                    (
                        b,
                        n_g,
                        base + so,
                        sn,
                        base + zo,
                        base + sco,
                        None if len(pair_groups) == 1 else g.rows.tobytes(),
                    )
                    for g, (b, n_g, so, sn, zo, sco) in zip(
                        pair_groups, pair_layouts[i]
                    )
                )
                sources.append((src, n_rows, base + out_off, groups))
            decode_job = StepDecodeJob(
                segment=segment,
                tag=tag,
                rank=dev.rank,
                dim=dim,
                sources=tuple(sources),
            )
            transport.submit_followup(
                tag, decode_job, on_done=make_decoded(dev.rank, entries)
            )

    def _verify_slab(
        self,
        transport,
        plan,
        pair_layouts,
        view,
        base,
        segment,
        phase,
        layer,
        tag,
        crcs: dict,
    ) -> None:
        """CRC-verify every pair's stream bytes against the encode wave's
        worker-computed checksums; re-encode mismatching pairs in-parent.

        The repair runs the *same* :class:`ShardEncodeJob` code path the
        worker did — a single-pair shard over the (uncorrupted) input
        rows, keyed noise — so repaired bytes are bitwise the originals.
        A pair that still mismatches after re-encoding means the
        corruption reaches beyond the payload spans (or the reference
        checksum itself is untrustworthy): fail fast.
        """
        from repro.comm.process import ShardEncodeJob

        for i, pair in enumerate(plan.pairs):
            expect = crcs.get(pair)
            if expect is None:
                continue
            if self._pair_crc(view, pair_layouts[i]) == expect:
                continue
            shard = pair_shard(plan, i)
            job = ShardEncodeJob(
                descriptor=shard_descriptor(
                    plan, shard, rounding=self.rounding, phase=phase, layer=layer
                ),
                segment=segment,
                rows_offset=base + shard.start * plan.dim * 4,
                n_rows=shard.stop - shard.start,
                pair_layouts=(
                    tuple(
                        (b, n_g, base + so, sn, base + zo, base + sco)
                        for (b, n_g, so, sn, zo, sco) in pair_layouts[i]
                    ),
                ),
                checksum=True,
            )
            repaired = job.run(self._repair_segments, self._repair_cache)
            if repaired[pair] != expect or self._pair_crc(
                view, pair_layouts[i]
            ) != expect:
                raise TransportError(
                    f"slab corruption on tag {tag!r} pair {pair} could not"
                    " be repaired (re-encoded checksum still mismatches)"
                )
            self.slab_repairs += 1
            transport.fault_stats["slab_repairs"] += 1

    @staticmethod
    def _pair_crc(view: np.ndarray, groups: tuple) -> int:
        """CRC32 over one pair's stream spans, in group order (the same
        accumulation :class:`ShardEncodeJob` computes worker-side)."""
        crc = 0
        for _, _, so, sn, _, _ in groups:
            crc = zlib.crc32(view[so : so + sn], crc)
        return crc

    def _topology_for(self, phase: str, devices: list) -> tuple:
        """Static step topology: pair order, row counts, gather indices."""
        cached = self._topologies.get(phase)
        if cached is None:
            pairs: list[tuple[int, int]] = []
            pair_counts: list[int] = []
            device_blocks: list[tuple[int, int, int]] = []
            chunks: list[np.ndarray] = []
            pos = 0
            for dev in devices:
                part = dev.part
                maps = part.send_map if phase == "fwd" else part.recv_map
                start = pos
                for q in sorted(maps.keys()):
                    rows = np.asarray(maps[q], dtype=np.int64)
                    pairs.append((dev.rank, q))
                    pair_counts.append(rows.size)
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
            )
            self._topologies[phase] = cached
        return cached

    def _halo_buffer(self, rank: int, layer: int, n_halo: int, dim: int) -> np.ndarray:
        buf = self._halo_bufs.get((rank, layer))
        if buf is None or buf.shape != (n_halo, dim):
            buf = np.zeros((n_halo, dim), dtype=np.float32)
            self._halo_bufs[(rank, layer)] = buf
        else:
            buf.fill(0.0)
        return buf
