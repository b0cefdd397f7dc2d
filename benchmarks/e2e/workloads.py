"""The four workloads: what each feeds ``train()`` and why it exists.

Only the stable surface of the program is touched here: ``load_dataset``,
``partition_graph``, ``standard_config``/``RunConfig`` (model, optimizer
and AdaQP fields only — execution-shape knobs stay at their shipped
defaults, which is what the benchmark measures), ``HugeGraphConfig`` +
``build_partition_store`` and ``PartitionStore.open/.dataset()/.book()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.config import RunConfig
from repro.graph.datasets import load_dataset
from repro.graph.generators import HugeGraphConfig
from repro.graph.io import PartitionStore, build_partition_store
from repro.graph.partition.api import partition_graph
from repro.harness.workloads import standard_config

__all__ = ["Workload", "WORKLOADS", "Inputs", "run_shape", "build_store"]

#: Re-assignment period of every workload (``standard_config``'s value).
PERIOD = 16
#: ``--smoke`` runs 1 + 6 epochs; one re-assignment, on a traced epoch.
SMOKE_PERIOD = 4

#: Every workload's graph is one fixed instance, as the paper's datasets
#: are; ``--seed`` is the training seed (initial weights, dropout masks,
#: stochastic-rounding noise, and through them the bit-width problems the
#: assigner solves).  Graph instances differ by +-12 % in halo rows, which
#: would otherwise be most of the spread between seeds of every metric.
DATA_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    system: str
    topology: str
    parts: int
    #: Timed epochs per second on the reference host, solves included; sizes
    #: the run from ``--seconds`` in whole re-assignment periods.  The two
    #: products workloads share one rate so that they train equally long and
    #: their accuracies can be compared.
    epochs_per_s: float
    #: Catalog dataset (in-RAM workloads) or ``None`` (the partition store).
    dataset: str | None = None
    store_nodes: int = 0


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "reddit-16p-adaqp",
            "dense graph on 16 partitions: quantize/pack, decode and the MILP do most "
            "of the work, so a quant-kernel, exchange or assigner gain shows here first",
            "adaqp", "4M-4D", 16, 1.85, dataset="reddit",
        ),
        Workload(
            "products-8p-adaqp",
            "sparse graph with a real central block: compute and the central/marginal "
            "pipeline dominate and quantization is mostly hidden behind them",
            "adaqp", "2M-4D", 8, 5.4, dataset="ogbn-products",
        ),
        Workload(
            "products-8p-vanilla",
            "full-precision baseline on identical inputs: quant, assigner, worker "
            "transport and overlap are bypassed, so a change there must not move it",
            "vanilla", "2M-4D", 8, 5.4, dataset="ogbn-products",
        ),
        Workload(
            "store-120k-adaqp",
            "out-of-core partition store streamed through memmap windows with overlap "
            "off: the only workload on the streaming path, peak RSS is its headline",
            "adaqp", "4M-4D", 16, 2.9, store_nodes=120_000,
        ),
    )
}


def run_shape(
    workload: Workload, seconds: float, *, traced: bool, smoke: bool
) -> tuple[int, int, int]:
    """``(W, period, N)``: warm-up epochs, re-assignment period, timed epochs.

    ``N`` is the whole re-assignment periods that fill ``seconds`` on the
    reference host, never fewer than two (the first period runs on default
    bit-widths; the solved ones are in force only from the second on).  A
    traced run pays for no extra set-up reps and records every other epoch
    only, so it trains one period longer.
    """
    if smoke:
        return 1, SMOKE_PERIOD, 6
    periods = max(2, int(seconds * workload.epochs_per_s / PERIOD)) + traced
    return 2, PERIOD, periods * PERIOD


def _store_config(workload: Workload, smoke: bool) -> HugeGraphConfig:
    return HugeGraphConfig(
        num_nodes=3_000 if smoke else workload.store_nodes,
        avg_degree=6.0,
        num_features=256,
        num_classes=8,
        num_communities=32,
        homophily=0.97,
        neighbor_locality=0.97,
    )


def build_store(workload: Workload, path: Path, smoke: bool) -> None:
    """Input preparation for the store workload.  Runs in a child process:
    the builder's resident peak (~700 MB) must not become the measured
    process's ``VmHWM``."""
    build_partition_store(
        _store_config(workload, smoke), workload.parts, path, seed=DATA_SEED, agg_kind="gcn"
    )


@dataclass
class Inputs:
    """Generated inputs of one run; :meth:`partition` is the part of a
    set-up rep that happens before ``train()`` is entered."""

    workload: Workload
    seed: int
    smoke: bool
    dataset: object = None  # GraphDataset of the in-RAM workloads
    store_path: Path | None = None

    @classmethod
    def generate(cls, workload: Workload, seed: int, smoke: bool) -> "Inputs":
        inputs = cls(workload, seed, smoke)
        if workload.dataset is not None:
            inputs.dataset = load_dataset(
                workload.dataset, scale="tiny" if smoke else "small", seed=DATA_SEED
            )
        return inputs

    def partition(self):
        """``(dataset, book)`` as ``train()`` takes them."""
        if self.dataset is not None:
            book = partition_graph(
                self.dataset.graph, self.workload.parts, method="metis", seed=DATA_SEED
            )
            return self.dataset, book
        store = PartitionStore.open(self.store_path)
        return store.dataset(), store.book()

    def config(self, epochs: int) -> RunConfig:
        """Evaluate at the end only (``train()`` also evaluates epoch 0)."""
        period = SMOKE_PERIOD if self.smoke else PERIOD
        if self.workload.dataset is None:
            return RunConfig(
                hidden_dim=8, num_layers=2, dropout=0.0, epochs=epochs,
                eval_every=epochs, seed=self.seed, reassign_period=period,
            )
        return standard_config(
            self.workload.dataset, "gcn", hidden_dim=16 if self.smoke else 64,
            epochs=epochs, eval_every=epochs, seed=self.seed, reassign_period=period,
        )
