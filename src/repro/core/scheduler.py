"""Schedule simulators: how each system turns one epoch's work into time.

Each schedule consumes an :class:`~repro.cluster.records.EpochRecord`
(measured wire bytes + analytic FLOPs) plus the link cost model and the
device performance model, and returns the epoch's simulated duration with
a comm/comp/quant breakdown.  Keeping the schedule separate from execution
lets one training run be re-timed under several policies (used by the
overlap-ablation benchmark).

The pricing is modelled only: each step's stages come from its
:class:`~repro.cluster.records.PhaseRecord` through the private helpers
below, the slowest device per stage.  What the executor measures of the
same steps is a separate record
(:class:`~repro.cluster.records.StepTimeline`); no schedule reads it.

Policies (paper Fig. 4):

* **Vanilla** — per layer and direction: barrier-synchronized ring all2all,
  then compute; nothing overlaps.
* **AdaQP** — the three-stage GPU-resource-isolated pipeline of Fig. 7:
  (1) quantize outgoing marginal messages; (2) marginal-graph ring
  all2all *in parallel with* central-graph compute; (3) de-quantize, then
  marginal-graph compute.  Reported "computation" covers only the marginal
  graph — central compute is hidden inside stage 2, exactly the paper's
  accounting for Fig. 10.
* **PipeGCN** — cross-iteration pipelining: the epoch's total communication
  fully overlaps its total computation (staleness makes this legal), so
  epoch time is the max of the two.
* **SANCUS** — sequential (unicast) embedding broadcasts; skipped
  broadcasts (historical embeddings) simply contribute no bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.perfmodel import PerfModel
from repro.cluster.records import EpochRecord, PhaseRecord
from repro.comm.allreduce import ring_allreduce_time
from repro.comm.costmodel import LinkCostModel
from repro.comm.ring import ring_all2all_time

__all__ = [
    "ScheduleResult",
    "schedule_vanilla",
    "schedule_adaqp",
    "schedule_pipegcn",
    "schedule_sancus",
    "SCHEDULES",
    "device_comm_times",
    "device_compute_times",
]


@dataclass
class ScheduleResult:
    """Simulated epoch duration and its breakdown.

    ``comm + comp + quant`` equals ``epoch_time`` for the barrier-style
    schedules (Vanilla, AdaQP, SANCUS); for PipeGCN the epoch is the max of
    overlapped totals, so the buckets describe the overlapped quantities
    instead of stacking.
    """

    epoch_time: float
    comm_time: float
    comp_time: float
    quant_time: float
    detail: dict[str, float] = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Epochs per second."""
        return 1.0 / self.epoch_time if self.epoch_time > 0 else float("inf")


def _device_compute(perf: PerfModel, agg, dense) -> np.ndarray:
    """Per-device compute duration for per-device aggregation and dense
    FLOP counts."""
    return np.array([perf.compute_time(a, f) for a, f in zip(agg, dense)])


def _full_compute(phase: PhaseRecord, perf: PerfModel) -> float:
    """A step's un-split compute, slowest device."""
    return float(_device_compute(perf, phase.agg_flops, phase.dense_flops).max())


def _comm_occupancy(phase: PhaseRecord, cost: LinkCostModel) -> np.ndarray:
    """Per-device send occupancy of one step (Table 2's 'comm.' column)."""
    bm = phase.bytes_matrix
    n = phase.num_devices
    busy = np.zeros(n)
    for s in range(n):
        for d in range(n):
            if s != d:
                busy[s] += cost.time(s, d, bm[s, d])
    return busy


def _quant_stages(phase: PhaseRecord, perf: PerfModel) -> tuple[float, float]:
    """A step's quantize and de-quantize stages, slowest device each."""
    n = phase.num_devices
    return (
        max(perf.quant_time(phase.quant_send_bytes[d]) for d in range(n)),
        max(perf.quant_time(phase.quant_recv_bytes[d]) for d in range(n)),
    )


def _pipeline_stages(
    phase: PhaseRecord, cost: LinkCostModel, perf: PerfModel
) -> tuple[float, float, float, float]:
    """A step's stages under AdaQP's pipeline, slowest device each:
    quantize, the ring all2all in parallel with central compute,
    de-quantize, marginal compute."""
    quantize, dequantize = _quant_stages(phase, perf)
    comm, _ = ring_all2all_time(phase.bytes_matrix, cost)
    central = _device_compute(perf, phase.agg_flops_central, phase.dense_flops_central)
    marginal = _device_compute(
        perf, phase.agg_flops_marginal, phase.dense_flops_marginal
    )
    overlap = max(comm, float(central.max()))
    return quantize, overlap, dequantize, float(marginal.max())


def _serial_comm_comp(
    record: EpochRecord, cost: LinkCostModel, perf: PerfModel
) -> tuple[float, float]:
    """Ring-comm and full-compute totals for the non-splitting schedules."""
    comm = sum(ring_all2all_time(p.bytes_matrix, cost)[0] for p in record.phases)
    comp = sum(_full_compute(p, perf) for p in record.phases)
    return comm, comp


def schedule_vanilla(
    record: EpochRecord, cost: LinkCostModel, perf: PerfModel
) -> ScheduleResult:
    """Synchronous interleaved comm→comp per layer (paper Fig. 4a)."""
    comm, comp = _serial_comm_comp(record, cost, perf)
    comm += ring_allreduce_time(record.grad_allreduce_bytes, cost)
    epoch = comm + comp
    return ScheduleResult(
        epoch_time=epoch, comm_time=comm, comp_time=comp, quant_time=0.0
    )


def schedule_adaqp(
    record: EpochRecord, cost: LinkCostModel, perf: PerfModel
) -> ScheduleResult:
    """AdaQP's three-stage overlap (paper Figs. 4b and 7)."""
    stages = [_pipeline_stages(p, cost, perf) for p in record.phases]
    quant_bucket = sum(q + dq for q, _, dq, _ in stages)
    # Central compute hides inside the overlap stage's comm bucket.
    comm_bucket = sum(overlap for _, overlap, _, _ in stages)
    comp_bucket = sum(marginal for *_, marginal in stages)
    epoch = sum(q + overlap + dq + marginal for q, overlap, dq, marginal in stages)
    allreduce = ring_allreduce_time(record.grad_allreduce_bytes, cost)
    comm_bucket += allreduce
    epoch += allreduce
    return ScheduleResult(
        epoch_time=epoch,
        comm_time=comm_bucket,
        comp_time=comp_bucket,
        quant_time=quant_bucket,
    )


def schedule_pipegcn(
    record: EpochRecord, cost: LinkCostModel, perf: PerfModel
) -> ScheduleResult:
    """Cross-iteration pipelining: comm hides under compute (or vice versa)."""
    comm, comp = _serial_comm_comp(record, cost, perf)
    allreduce = ring_allreduce_time(record.grad_allreduce_bytes, cost)
    epoch = max(comm, comp) + allreduce
    return ScheduleResult(
        epoch_time=epoch,
        comm_time=comm + allreduce,
        comp_time=comp,
        quant_time=0.0,
        detail={"overlapped": min(comm, comp)},
    )


def schedule_sancus(
    record: EpochRecord, cost: LinkCostModel, perf: PerfModel
) -> ScheduleResult:
    """Sequential unicast broadcasts (no overlap), as the paper describes."""
    # Serialized pairwise unicasts: every device's send occupancy stacks.
    comm = sum(_comm_occupancy(p, cost).sum() for p in record.phases)
    comp = sum(_full_compute(p, perf) for p in record.phases)
    allreduce = ring_allreduce_time(record.grad_allreduce_bytes, cost)
    comm += allreduce
    epoch = comm + comp
    return ScheduleResult(
        epoch_time=epoch, comm_time=comm, comp_time=comp, quant_time=0.0
    )


def schedule_quantized_no_overlap(
    record: EpochRecord, cost: LinkCostModel, perf: PerfModel
) -> ScheduleResult:
    """Quantization without parallelization (ablation): Vanilla's serial
    comm → comp layout, plus the quant/de-quant kernels on the critical
    path.  Isolates how much of AdaQP's win comes from traffic reduction
    alone."""
    comm_bucket, comp_bucket = _serial_comm_comp(record, cost, perf)
    quant = (_quant_stages(p, perf) for p in record.phases)
    quant_bucket = sum(q + dq for q, dq in quant)
    comm_bucket += ring_allreduce_time(record.grad_allreduce_bytes, cost)
    epoch = comm_bucket + comp_bucket + quant_bucket
    return ScheduleResult(
        epoch_time=epoch,
        comm_time=comm_bucket,
        comp_time=comp_bucket,
        quant_time=quant_bucket,
    )


SCHEDULES = {
    "vanilla": schedule_vanilla,
    "adaqp": schedule_adaqp,
    "pipegcn": schedule_pipegcn,
    "sancus": schedule_sancus,
    "quantized-no-overlap": schedule_quantized_no_overlap,
}


# ---------------------------------------------------------------------------
# Per-device views (Table 2, Fig. 3 benchmarks)
# ---------------------------------------------------------------------------
def device_comm_times(
    record: EpochRecord, cost: LinkCostModel
) -> np.ndarray:
    """Per-device communication occupancy: each ring round, a device is busy
    for its own send; rounds are barriers, so the device also waits for the
    round's straggler.  This returns the *send occupancy* (the paper's
    per-device 'comm.' column in Table 2)."""
    if not record.phases:
        raise ValueError("record has no phases")
    busy = np.zeros(record.phases[0].num_devices)
    for phase in record.phases:
        busy += _comm_occupancy(phase, cost)
    return busy


def device_compute_times(
    record: EpochRecord, perf: PerfModel, *, central_only: bool = False
) -> np.ndarray:
    """Per-device total compute time across the epoch's phases."""
    if not record.phases:
        raise ValueError("record has no phases")
    total = np.zeros(record.phases[0].num_devices)
    for p in record.phases:
        if central_only:
            total += _device_compute(perf, p.agg_flops_central, p.dense_flops_central)
        else:
            total += _device_compute(perf, p.agg_flops, p.dense_flops)
    return total
