"""Execution records: what one epoch produced, per layer and direction.

The cluster fills these while executing real numerics; the schedule
simulators (``repro.core.scheduler``) consume them to produce epoch times
under each system's overlap policy.  Keeping measurement (records) separate
from policy (schedules) lets one training run be re-timed under several
schedules — used by the ablation benchmarks.

:class:`StepTimeline` is the shared step-DAG currency between the two
worlds: the split-phase pipelined executor *emits* measured instances
(host wall-clock per stage, plus the transport's in-flight byte record)
while the schedule simulators *build* modelled instances from a
:class:`PhaseRecord` and the cost/perf models.  Same stage decomposition,
two sources — which is what lets the Table 2 / Fig. 3 benchmarks
cross-check model against measurement in one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.perfmodel import PerfModel
from repro.comm.costmodel import LinkCostModel
from repro.comm.ring import ring_all2all_time

__all__ = ["PhaseRecord", "EpochRecord", "StepTimeline", "TimelineSummary"]


@dataclass
class PhaseRecord:
    """One (layer, direction) step across all devices.

    Attributes
    ----------
    layer / phase:
        Layer index and ``"fwd"`` or ``"bwd"``.
    bytes_matrix:
        ``(N, N)`` wire bytes actually posted for this step.
    quant_send_bytes / quant_recv_bytes:
        Per device: float32 bytes passed through the quantize kernel before
        sending / the de-quantize kernel after receiving (zero when the
        exchange is exact).  Kept separate because AdaQP's three-stage
        schedule places them in different stages (Fig. 7).
    agg_flops / agg_flops_central:
        Per device: sparse aggregation FLOPs, total and for central rows.
    dense_flops / dense_flops_central:
        Per device: dense (GEMM) FLOPs, total and attributable to central
        rows.
    """

    layer: int
    phase: str
    bytes_matrix: np.ndarray
    quant_send_bytes: np.ndarray
    quant_recv_bytes: np.ndarray
    agg_flops: np.ndarray
    agg_flops_central: np.ndarray
    dense_flops: np.ndarray
    dense_flops_central: np.ndarray

    @property
    def num_devices(self) -> int:
        return int(self.bytes_matrix.shape[0])

    @property
    def quant_float_bytes(self) -> np.ndarray:
        """Total float bytes through quant kernels (send + receive sides)."""
        return self.quant_send_bytes + self.quant_recv_bytes

    @property
    def agg_flops_marginal(self) -> np.ndarray:
        return self.agg_flops - self.agg_flops_central

    @property
    def dense_flops_marginal(self) -> np.ndarray:
        return self.dense_flops - self.dense_flops_central


@dataclass
class StepTimeline:
    """Stage decomposition of one (layer, phase) step of the split-phase
    pipeline: quantize → (comm ∥ central compute) → de-quantize → marginal
    compute.

    Two sources, one shape:

    * the pipelined executor emits **measured** instances
      (``measured=True``): stage durations are host wall-clock seconds of
      the stages it really ran, ``overlapped_bytes`` is the transport's
      record of traffic that was in flight during the central window, and
      ``comm_s`` is 0 (the in-memory transport moves bytes instantly — the
      interleave, not the wire time, is what execution can measure);
    * :meth:`from_record` builds **modelled** instances from a
      :class:`PhaseRecord` plus the link cost and device performance
      models — exactly the per-device accounting the schedule simulators
      used to inline.

    For backward steps the marginal stage runs *first* (marginal gradients
    must exist before they can be posted) — the fields name the pipeline
    roles, not their temporal order.

    Under the async worker transport the encode job runs concurrently with
    the central window: ``quantize_s`` then measures only the snapshot +
    dispatch cost on the main thread, and ``worker_wait_s`` the seconds
    finalize spent blocked joining the worker — the *exposed* encode tail
    the central window failed to cover (0.0 when fully hidden, and always
    0.0 on the synchronous transport, where the encode runs inside
    ``quantize_s``).
    """

    layer: int
    phase: str
    quantize_s: float  # stage 1: gather + quantize + post
    comm_s: float  # in-flight message time (modelled ring all2all)
    central_s: float  # central-graph compute, overlapped with comm
    dequantize_s: float  # collect + de-quantize + scatter
    marginal_s: float  # marginal-graph compute
    comp_full_s: float  # the un-split compute duration (serial schedules)
    overlapped_bytes: int = 0
    total_bytes: int = 0
    measured: bool = False
    worker_wait_s: float = 0.0  # exposed join wait on the async transport

    # -- modelled construction (the schedule simulators' accounting) -------
    @staticmethod
    def device_comm_occupancy(
        phase: PhaseRecord, cost: LinkCostModel
    ) -> np.ndarray:
        """Per-device send occupancy of one step (Table 2's 'comm.' column)."""
        bm = phase.bytes_matrix
        n = phase.num_devices
        busy = np.zeros(n)
        for s in range(n):
            for d in range(n):
                if s != d:
                    busy[s] += cost.time(s, d, bm[s, d])
        return busy

    @staticmethod
    def device_compute(
        phase: PhaseRecord, perf: PerfModel, *, central_only: bool = False
    ) -> np.ndarray:
        """Per-device compute duration of one step (optionally central only)."""
        if central_only:
            agg, dense = phase.agg_flops_central, phase.dense_flops_central
        else:
            agg, dense = phase.agg_flops, phase.dense_flops
        return np.array(
            [perf.compute_time(agg[d], dense[d]) for d in range(phase.num_devices)]
        )

    @classmethod
    def from_record(
        cls, phase: PhaseRecord, cost: LinkCostModel, perf: PerfModel
    ) -> "StepTimeline":
        """Modelled stage durations of one step (max over devices per stage)."""
        n = phase.num_devices
        ring_s, _ = ring_all2all_time(phase.bytes_matrix, cost)
        central = cls.device_compute(phase, perf, central_only=True)
        full = cls.device_compute(phase, perf)
        marginal = np.array(
            [
                perf.compute_time(
                    phase.agg_flops_marginal[d], phase.dense_flops_marginal[d]
                )
                for d in range(n)
            ]
        )
        return cls(
            layer=phase.layer,
            phase=phase.phase,
            quantize_s=max(
                perf.quant_time(phase.quant_send_bytes[d]) for d in range(n)
            ),
            comm_s=ring_s,
            central_s=float(central.max()),
            dequantize_s=max(
                perf.quant_time(phase.quant_recv_bytes[d]) for d in range(n)
            ),
            marginal_s=float(marginal.max()),
            comp_full_s=float(full.max()),
            total_bytes=int(phase.bytes_matrix.sum()),
        )

    # -- derived stage views ------------------------------------------------
    @property
    def overlap_stage_s(self) -> float:
        """Stage 2 of the paper's pipeline: comm in parallel with central."""
        return max(self.comm_s, self.central_s)

    @property
    def pipelined_s(self) -> float:
        """Step duration under the three-stage overlapped schedule."""
        return (
            self.quantize_s + self.overlap_stage_s + self.dequantize_s + self.marginal_s
        )

    @property
    def serial_s(self) -> float:
        """Step duration with no overlap (quant + comm + full compute)."""
        return self.quantize_s + self.comm_s + self.comp_full_s + self.dequantize_s

    @property
    def hidden_comm_s(self) -> float:
        """Communication time hidden under the central window."""
        return min(self.comm_s, self.central_s)

    @property
    def split_compute_s(self) -> float:
        """Total compute of the split stages (central + marginal)."""
        return self.central_s + self.marginal_s

    @property
    def hidden_byte_fraction(self) -> float:
        """Fraction of this step's wire bytes in flight during overlap."""
        if self.total_bytes <= 0:
            return 0.0
        return self.overlapped_bytes / self.total_bytes


@dataclass
class TimelineSummary:
    """Bounded-size aggregate of measured :class:`StepTimeline` entries.

    Long runs cannot afford to retain one stage list per step forever:
    stage seconds and byte counters accumulate here (per epoch record, and
    merged into the run's :class:`~repro.core.trainer.TrainResult`) while
    the per-step objects live only as long as their epoch record.
    """

    steps: int = 0
    quantize_s: float = 0.0
    central_s: float = 0.0
    dequantize_s: float = 0.0
    marginal_s: float = 0.0
    worker_wait_s: float = 0.0
    overlapped_bytes: int = 0
    total_bytes: int = 0

    def add(self, t: StepTimeline) -> None:
        self.steps += 1
        self.quantize_s += t.quantize_s
        self.central_s += t.central_s
        self.dequantize_s += t.dequantize_s
        self.marginal_s += t.marginal_s
        self.worker_wait_s += t.worker_wait_s
        self.overlapped_bytes += t.overlapped_bytes
        self.total_bytes += t.total_bytes

    def merge(self, other: "TimelineSummary") -> None:
        self.steps += other.steps
        self.quantize_s += other.quantize_s
        self.central_s += other.central_s
        self.dequantize_s += other.dequantize_s
        self.marginal_s += other.marginal_s
        self.worker_wait_s += other.worker_wait_s
        self.overlapped_bytes += other.overlapped_bytes
        self.total_bytes += other.total_bytes

    @property
    def hidden_byte_fraction(self) -> float:
        if self.total_bytes <= 0:
            return 0.0
        return self.overlapped_bytes / self.total_bytes

    @property
    def central_share(self) -> float:
        """Central fraction of the split compute (what overlap can hide)."""
        split = self.central_s + self.marginal_s
        if split <= 0.0:
            return 0.0
        return self.central_s / split


@dataclass
class EpochRecord:
    """Everything one training epoch produced (numerics + accounting)."""

    loss: float
    phases: list[PhaseRecord] = field(default_factory=list)
    # Measured per-step stage timelines, kept only on overlapped runs
    # (empty otherwise): one entry per
    # layer per direction.  Feed entries through :meth:`add_timeline` so
    # ``timeline_summary`` — what a run keeps across epochs — absorbs them.
    timelines: list[StepTimeline] = field(default_factory=list)
    timeline_summary: TimelineSummary = field(default_factory=TimelineSummary)
    grad_allreduce_bytes: int = 0
    # Wall-clock seconds of *host-side* work measured for real (bit-width
    # assignment solving); simulated device time never lands here.
    host_overhead_s: float = 0.0

    def add_timeline(self, t: StepTimeline) -> None:
        """Record one measured step (and fold it into the summary)."""
        self.timeline_summary.add(t)
        self.timelines.append(t)

    def total_wire_bytes(self) -> int:
        return int(sum(p.bytes_matrix.sum() for p in self.phases))

    def bytes_by_pair(self) -> np.ndarray:
        """Sum of wire bytes over all phases, per (src, dst) pair."""
        if not self.phases:
            raise ValueError("epoch has no recorded phases")
        total = np.zeros_like(self.phases[0].bytes_matrix)
        for p in self.phases:
            total = total + p.bytes_matrix
        return total

    def hidden_byte_fraction(self) -> float:
        """Measured epoch-level overlap efficiency: the fraction of halo
        wire bytes that were in flight during a central-compute window.
        0.0 when the epoch ran without the pipelined executor."""
        if self.timeline_summary.steps:
            return self.timeline_summary.hidden_byte_fraction
        total = sum(t.total_bytes for t in self.timelines)
        if total <= 0:
            return 0.0
        return sum(t.overlapped_bytes for t in self.timelines) / total
