"""Execution records: what one epoch produced, per layer and direction.

Each type has one source:

* :class:`PhaseRecord` — the cluster's accounting of one step: the wire
  bytes it really posted and its analytic FLOPs.  The schedule simulators
  (:mod:`repro.core.scheduler`) price these records into epoch times under
  each system's overlap policy, so one training run can be re-timed under
  several schedules (the ablation benchmarks);
* :class:`StepTimeline` — what the split-phase executor measured of one
  step: host wall-clock per pipeline stage, plus the transport's record
  of the bytes in flight during the central window;
* :class:`TimelineSummary` — the bounded-size sum of an epoch's (or a
  run's) timelines, which is all that outlives the step.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

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
    def agg_flops_marginal(self) -> np.ndarray:
        return self.agg_flops - self.agg_flops_central

    @property
    def dense_flops_marginal(self) -> np.ndarray:
        return self.dense_flops - self.dense_flops_central


@dataclass
class StepTimeline:
    """What the split-phase executor measured of one (layer, phase) step:
    quantize → central compute (messages in flight) → de-quantize →
    marginal compute, in host wall-clock seconds.

    For backward steps the marginal stage runs *first* (marginal gradients
    must exist before they can be posted) — the fields name the pipeline
    roles, not their temporal order.  ``overlapped_bytes`` is the
    transport's record of the step's traffic that was in flight during the
    central window, out of ``total_bytes``.

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
    quantize_s: float  # gather + quantize + post
    central_s: float  # central-graph compute, messages in flight
    dequantize_s: float  # collect + de-quantize + scatter
    marginal_s: float  # marginal-graph compute
    overlapped_bytes: int = 0
    total_bytes: int = 0
    worker_wait_s: float = 0.0  # exposed join wait on the async transport

    @property
    def hidden_byte_fraction(self) -> float:
        """Fraction of this step's wire bytes in flight during overlap."""
        if self.total_bytes <= 0:
            return 0.0
        return self.overlapped_bytes / self.total_bytes


@dataclass
class TimelineSummary:
    """Bounded-size sum of measured :class:`StepTimeline` entries.

    Long runs cannot afford to retain one stage list per step: each step's
    stage seconds and byte counters are added here (per epoch record, and
    merged into the run's :class:`~repro.core.trainer.TrainResult`) and
    the step itself is dropped.
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
        self._accumulate(t, 1)

    def merge(self, other: "TimelineSummary") -> None:
        self._accumulate(other, other.steps)

    def _accumulate(self, source, steps: int) -> None:
        self.steps += steps
        for f in fields(self)[1:]:  # every field after ``steps``
            setattr(self, f.name, getattr(self, f.name) + getattr(source, f.name))

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
    """Everything one training epoch produced (numerics + accounting).

    ``timeline_summary`` sums the measured step timelines of overlapped
    runs (``steps == 0`` otherwise).
    """

    loss: float
    phases: list[PhaseRecord] = field(default_factory=list)
    timeline_summary: TimelineSummary = field(default_factory=TimelineSummary)
    grad_allreduce_bytes: int = 0

    def total_wire_bytes(self) -> int:
        return int(sum(p.bytes_matrix.sum() for p in self.phases))

    def hidden_byte_fraction(self) -> float:
        """Measured epoch-level overlap efficiency: the fraction of halo
        wire bytes that were in flight during a central-compute window.
        0.0 when the epoch ran without the pipelined executor."""
        return self.timeline_summary.hidden_byte_fraction
