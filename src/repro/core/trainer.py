"""End-to-end training orchestration for every system.

:func:`train` is the repository's main entry point: pick a system name
(``"adaqp"``, ``"vanilla"``, ``"pipegcn"``, ``"sancus"``,
``"adaqp-uniform"``, ``"adaqp-fixed"``), a dataset, a partition book and a
topology; get back real accuracy curves, simulated throughput and the
paper's time breakdowns.

Division of labour:

* the :class:`~repro.cluster.cluster.Cluster` executes real numerics and
  records bytes/FLOPs;
* the system's schedule converts each epoch's record into simulated time;
* the assigner's bit-width solves (``RunConfig.solver``) are *measured*
  (they are real host work) and reported separately, like the paper's
  "Assign" bars in Fig. 10(b).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.pipegcn import StaleHaloExchange
from repro.baselines.sancus import BroadcastSkipExchange
from repro.cluster.checkpoint import (
    capture_state,
    load_checkpoint,
    restore_state,
    save_checkpoint,
)
from repro.cluster.cluster import Cluster
from repro.cluster.records import TimelineSummary
from repro.cluster.exchange import (
    ExactHaloExchange,
    FixedBitProvider,
    FusedQuantizedHaloExchange,
    UniformRandomBitProvider,
)
from repro.cluster.perfmodel import PerfModel
from repro.comm.costmodel import LinkCostModel
from repro.comm.topology import ClusterTopology, parse_topology
from repro.core.assigner import AdaptiveBitWidthAssigner
from repro.core.config import RunConfig
from repro.core.scheduler import (
    ScheduleResult,
    schedule_adaqp,
    schedule_pipegcn,
    schedule_quantized_no_overlap,
    schedule_sancus,
    schedule_vanilla,
)
from repro.graph.datasets import GraphDataset
from repro.graph.io import StoreDataset
from repro.graph.partition.book import PartitionBook
from repro.nn.optim import Adam
from repro.quant.stochastic import KeyedRounding
from repro.utils.logging import get_logger
from repro.utils.seed import RngPool

__all__ = ["SYSTEMS", "OVERLAP_SYSTEMS", "TrainResult", "train", "build_system"]

logger = get_logger("core.trainer")

SYSTEMS = (
    "vanilla",
    "adaqp",
    "adaqp-uniform",
    "adaqp-fixed",
    "pipegcn",
    "sancus",
    # Ablations isolating AdaQP's two contributions:
    "adaqp-no-overlap",  # adaptive quantization, serial schedule
    "vanilla-overlap",  # central/marginal overlap, full precision
)

#: Systems whose schedule overlaps central compute with marginal comm —
#: for these the cluster *executes* the split-phase pipeline, so the
#: simulated overlap is backed by a really-executed, measured interleave.
#: The only statement of which runs overlap: results are bit-identical
#: either way, only the measured timelines differ.
OVERLAP_SYSTEMS = frozenset(
    {"adaqp", "adaqp-uniform", "adaqp-fixed", "vanilla-overlap"}
)


@dataclass
class TrainResult:
    """Everything one training run produced."""

    system: str
    dataset: str
    topology: str
    model_kind: str
    # Learning quality (real numerics)
    curve_epochs: list[int] = field(default_factory=list)
    curve_val: list[float] = field(default_factory=list)
    curve_test: list[float] = field(default_factory=list)
    curve_loss: list[float] = field(default_factory=list)
    final_val: float = float("nan")
    final_test: float = float("nan")
    # Simulated performance
    epoch_times: list[float] = field(default_factory=list)
    comm_time_total: float = 0.0
    comp_time_total: float = 0.0
    quant_time_total: float = 0.0
    wire_bytes_total: int = 0
    # Host-side measured overhead (bit-width assignment)
    assign_seconds: float = 0.0
    assign_groups: int = 0  # message groups in the last re-assignment's problems
    bit_histogram: dict[int, int] = field(default_factory=dict)
    # Measured overlap accounting (overlapped runs only): the aggregate
    # over every executed step of the run.  Per-step entries live on each
    # epoch's record only, so long runs keep bounded state.
    timeline_summary: TimelineSummary = field(default_factory=TimelineSummary)
    # Fault tolerance: the first epoch this run actually executed (> 0
    # when resumed from a checkpoint) and the transport's post-close
    # summary (backend, worker count, fault counters).
    start_epoch: int = 0
    transport_health: dict = field(default_factory=dict)

    @property
    def epochs(self) -> int:
        return len(self.epoch_times)

    @property
    def epoch_time_mean(self) -> float:
        return float(np.mean(self.epoch_times)) if self.epoch_times else float("nan")

    @property
    def throughput(self) -> float:
        """Simulated epochs per second (the paper's Table 4 metric)."""
        mean = self.epoch_time_mean
        return 1.0 / mean if mean > 0 else float("inf")

    @property
    def train_wallclock(self) -> float:
        """Simulated training seconds (sum of epoch times)."""
        return float(np.sum(self.epoch_times))

    @property
    def total_wallclock(self) -> float:
        """Paper's wall-clock: simulated training plus measured assignment."""
        return self.train_wallclock + self.assign_seconds

    def breakdown(self) -> dict[str, float]:
        """Mean per-epoch comm/comp/quant seconds (paper Fig. 10a)."""
        n = max(self.epochs, 1)
        return {
            "comm": self.comm_time_total / n,
            "comp": self.comp_time_total / n,
            "quant": self.quant_time_total / n,
        }


@dataclass
class _SystemSetup:
    exchange: FusedQuantizedHaloExchange
    schedule: object  # Callable[[EpochRecord, LinkCostModel, PerfModel], ScheduleResult]
    assigner: AdaptiveBitWidthAssigner | None = None


def _warn_if_ram_tight(cluster: Cluster) -> None:
    """Warn when the run's estimated working set exceeds available RAM.

    Advisory only — a streaming (huge-graph) run whose estimate is close
    to the limit may still complete, just with the page cache thrashing;
    an in-RAM run that exceeds it is headed for the OOM killer.  The
    estimate is :func:`estimate_peak_resident`, which counts the cluster's
    engine, operators and parameters as built and models only what the run
    has not allocated yet (Adam's slots, the exchange's staging and decode
    workspaces); the huge-graph benchmark cross-checks it against measured
    peak RSS.
    """
    from repro.cluster.memory import estimate_peak_resident, host_memory

    host = host_memory()
    if host is None:
        return
    estimate = estimate_peak_resident(cluster)
    if estimate > host.available_bytes:
        hint = (
            "streaming mode pages device windows in and out on demand"
            if cluster._store_dataset is not None
            else "consider `repro prepare` + `repro train --store` "
            "(out-of-core huge-graph mode)"
        )
        logger.warning(
            "estimated peak working set %.1f GiB exceeds available RAM "
            "%.1f GiB — %s",
            estimate / 2**30,
            host.available_bytes / 2**30,
            hint,
        )


def build_system(
    name: str,
    cluster: Cluster,
    cost_model: LinkCostModel,
    config: RunConfig,
) -> _SystemSetup:
    """Compose the exchange policy + schedule for one system name."""
    pool = RngPool(config.seed).fork(f"system/{name}")

    def rounding():
        # Noise is a pure function of (run seed, block coordinates); the
        # run seed derives per system from config.seed.
        return KeyedRounding(pool.fork("rounding").seed)

    if name == "vanilla":
        return _SystemSetup(exchange=ExactHaloExchange(), schedule=schedule_vanilla)
    if name == "adaqp":
        assigner = AdaptiveBitWidthAssigner(
            cluster,
            cost_model,
            lam=config.lam,
            group_size=config.group_size,
            period=config.reassign_period,
            bit_choices=config.bit_choices,
            solver=config.solver,
        )
        exchange = FusedQuantizedHaloExchange(assigner, rounding(), tracer=assigner)
        return _SystemSetup(exchange=exchange, schedule=schedule_adaqp, assigner=assigner)
    if name == "adaqp-uniform":
        provider = UniformRandomBitProvider(
            pool.get("uniform-bits"),
            choices=config.bit_choices,
            period=config.uniform_period,
        )
        exchange = FusedQuantizedHaloExchange(provider, rounding())
        return _SystemSetup(exchange=exchange, schedule=schedule_adaqp)
    if name == "adaqp-fixed":
        exchange = FusedQuantizedHaloExchange(
            FixedBitProvider(config.fixed_bits), rounding()
        )
        return _SystemSetup(exchange=exchange, schedule=schedule_adaqp)
    if name == "adaqp-no-overlap":
        assigner = AdaptiveBitWidthAssigner(
            cluster,
            cost_model,
            lam=config.lam,
            group_size=config.group_size,
            period=config.reassign_period,
            bit_choices=config.bit_choices,
            solver=config.solver,
        )
        exchange = FusedQuantizedHaloExchange(assigner, rounding(), tracer=assigner)
        return _SystemSetup(
            exchange=exchange,
            schedule=schedule_quantized_no_overlap,
            assigner=assigner,
        )
    if name == "vanilla-overlap":
        # Full-precision messages under AdaQP's three-stage overlap (the
        # exact record has zero quant bytes, so stages 1/3 cost nothing
        # beyond the marginal compute).
        return _SystemSetup(exchange=ExactHaloExchange(), schedule=schedule_adaqp)
    if name == "pipegcn":
        return _SystemSetup(exchange=StaleHaloExchange(), schedule=schedule_pipegcn)
    if name == "sancus":
        return _SystemSetup(exchange=BroadcastSkipExchange(), schedule=schedule_sancus)
    raise ValueError(f"unknown system {name!r}; choose from {SYSTEMS}")


def train(
    system: str,
    dataset: GraphDataset | StoreDataset,
    book: PartitionBook,
    topology: ClusterTopology | str,
    config: RunConfig | None = None,
    *,
    cost_model: LinkCostModel | None = None,
    perf_model: PerfModel | None = None,
    fault_plan=None,
) -> TrainResult:
    """Train ``system`` on ``dataset`` partitioned by ``book``.

    ``dataset`` may be a fully materialized :class:`GraphDataset` or a
    :class:`~repro.graph.io.StoreDataset` opened from an on-disk partition
    store (huge-graph mode — the cluster then streams each partition's
    memmapped regions through the fused engine instead of holding the
    graph in RAM; ``book`` must be the store's own
    :meth:`~repro.graph.io.PartitionStore.book`).

    ``fault_plan`` (a :class:`~repro.comm.faults.FaultPlan`) injects
    transport faults for the fault-tolerance suite; ``None`` disables
    injection.  ``config.checkpoint_dir``/``config.resume`` control
    epoch-boundary checkpointing — a resumed run is bitwise identical to
    the uninterrupted one.

    Examples
    --------
    >>> from repro.graph import load_dataset, partition_graph
    >>> from repro.core import RunConfig
    >>> ds = load_dataset("yelp", scale="tiny")
    >>> book = partition_graph(ds.graph, 4, method="metis")
    >>> cfg = RunConfig(epochs=2, hidden_dim=8, eval_every=1)
    >>> result = train("adaqp", ds, book, "2M-2D", cfg)
    >>> result.epochs
    2
    """
    config = config or RunConfig()
    if isinstance(topology, str):
        topology = parse_topology(topology)
    if topology.num_devices != book.num_parts:
        raise ValueError(
            f"topology {topology.name} has {topology.num_devices} devices but the "
            f"partition book has {book.num_parts} parts"
        )
    cost_model = cost_model or LinkCostModel.for_topology(topology)
    perf_model = perf_model or PerfModel()

    cluster = Cluster(
        dataset,
        book,
        model_kind=config.model_kind,
        hidden_dim=config.hidden_dim,
        num_layers=config.num_layers,
        dropout=config.dropout,
        seed=config.seed,
        overlap=system in OVERLAP_SYSTEMS,
        transport=config.transport,
        transport_timeout_s=config.transport_timeout_s,
        fault_plan=fault_plan,
    )
    _warn_if_ram_tight(cluster)
    setup = build_system(system, cluster, cost_model, config)
    optimizer = Adam(cluster.model.parameters(), lr=config.lr)

    result = TrainResult(
        system=system,
        dataset=dataset.spec.name,
        topology=topology.name,
        model_kind=config.model_kind,
    )

    start_epoch = 0
    if config.resume and config.checkpoint_dir is not None:
        state = load_checkpoint(config.checkpoint_dir)
        if state is not None:
            start_epoch = restore_state(
                state, cluster, optimizer, setup.exchange, assigner=setup.assigner
            )
            logger.info(
                "%s resumed from %s at epoch %d",
                system, config.checkpoint_dir, start_epoch,
            )
    result.start_epoch = start_epoch

    try:
        for epoch in range(start_epoch, config.epochs):
            record = cluster.train_epoch(setup.exchange, epoch)
            optimizer.step()

            if config.checkpoint_dir is not None and (
                (epoch + 1) % config.checkpoint_every == 0
                or epoch == config.epochs - 1
            ):
                # The post-step epoch boundary: nothing is in flight, and
                # a resume from here replays epoch+1 onward bitwise.
                save_checkpoint(
                    config.checkpoint_dir,
                    capture_state(
                        cluster,
                        optimizer,
                        setup.exchange,
                        epoch=epoch + 1,
                        assigner=setup.assigner,
                        meta={"system": system, "dataset": dataset.spec.name},
                    ),
                )

            sched: ScheduleResult = setup.schedule(record, cost_model, perf_model)
            result.epoch_times.append(sched.epoch_time)
            result.comm_time_total += sched.comm_time
            result.comp_time_total += sched.comp_time
            result.quant_time_total += sched.quant_time
            result.wire_bytes_total += record.total_wire_bytes()
            result.curve_loss.append(record.loss)
            result.timeline_summary.merge(record.timeline_summary)

            if epoch % config.eval_every == 0 or epoch == config.epochs - 1:
                metrics = cluster.evaluate()
                result.curve_epochs.append(epoch)
                result.curve_val.append(metrics["val"])
                result.curve_test.append(metrics["test"])
                logger.info(
                    "%s epoch %d: loss=%.4f val=%.4f",
                    system, epoch, record.loss, metrics["val"],
                )
    finally:
        # Even a failed run must release the async transport's worker
        # thread (and whatever plan scratch its pending closure captured).
        cluster.close()
        # Read after close: the fault counters include the last epoch.
        result.transport_health = cluster.transport.transport_health()
    result.final_val = result.curve_val[-1] if result.curve_val else float("nan")
    result.final_test = result.curve_test[-1] if result.curve_test else float("nan")
    if setup.assigner is not None:
        result.assign_seconds = setup.assigner.assignment_seconds
        result.assign_groups = setup.assigner.num_groups
        result.bit_histogram = setup.assigner.assignment_histogram()
    return result
