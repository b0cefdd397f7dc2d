"""The production arm of the oracle matrix, and the session's oracle cache.

``matrix.check(...)`` trains one production configuration — a real
:class:`~repro.cluster.cluster.Cluster` under some overlap / transport /
residency — and requires it to equal the reference trainer
(``tests/reference/oracle.py``) bitwise on everything a run is compared on.
Oracle runs depend only on (residency, policy, model, hidden, hidden
layers, parts), so one session computes each once however many shapes are
compared with it.
"""

from dataclasses import fields

import numpy as np
import pytest
from reference.oracle import (
    EPOCHS,
    FIXED_BITS,
    GROUP_SIZE,
    NOISE_SEED,
    PERIOD,
    SKIP,
    ReferenceTrainer,
    Run,
    cost_model,
)

from repro.baselines.pipegcn import StaleHaloExchange
from repro.baselines.sancus import BroadcastSkipExchange
from repro.cluster.cluster import Cluster
from repro.cluster.exchange import (
    ExactHaloExchange,
    FixedBitProvider,
    FusedQuantizedHaloExchange,
)
from repro.comm.transport import Transport
from repro.core.assigner import AdaptiveBitWidthAssigner
from repro.graph.partition.api import partition_graph
from repro.graph.partition.book import PartitionBook
from repro.nn.optim import Adam
from repro.quant.stochastic import KeyedRounding


class ShuffledTransport(Transport):
    """A deterministic stand-in for adversarial job scheduling: deferred
    jobs accumulate and run in *reverse submission order* at join time
    (followups deferred by running jobs are picked up too).  Any
    retirement order a real pool could produce is a prefix-respecting
    interleaving of this and submission order, so equality across the two
    extremes is the order-independence property.  Four workers engage the
    sharded encode and worker-decode paths; no pool is ever started."""

    def __init__(self, num_devices):
        super().__init__(num_devices, workers=4)
        self._queue: dict[str, list] = {}

    def defer(self, tag, job):
        self._queue.setdefault(tag, []).append(job)

    def complete(self, tag):
        while self._queue.get(tag):
            for job in reversed(self._queue.pop(tag)):
                job()
        return 0.0

    def complete_all(self):
        for tag in list(self._queue):
            self.complete(tag)

    def collect(self, dst, tag, *, join=True):
        if join:
            self.complete(tag)
        return super().collect(dst, tag, join=False)


def make_exchange(policy: str, cluster: Cluster):
    """The production exchange of a policy name, and its assigner if any."""
    if policy == "exact":
        return ExactHaloExchange(), None
    if policy == "stale":
        return StaleHaloExchange(), None
    if policy == "broadcast":
        return BroadcastSkipExchange(SKIP), None
    rounding = KeyedRounding(NOISE_SEED)
    if policy == "quantized":
        provider = FixedBitProvider(FIXED_BITS)
        return FusedQuantizedHaloExchange(provider, rounding), None
    assert policy == "adaptive", policy
    assigner = AdaptiveBitWidthAssigner(
        cluster, cost_model(cluster.num_devices), period=PERIOD, group_size=GROUP_SIZE
    )
    return FusedQuantizedHaloExchange(assigner, rounding, tracer=assigner), assigner


class Matrix:
    def __init__(self, tiny_dataset, huge_store) -> None:
        self.tiny_dataset = tiny_dataset
        self.huge_store = huge_store
        self._books: dict = {}
        self._oracles: dict = {}

    def inputs(self, residency: str, parts: int):
        """``(dataset, book)``: the tiny in-RAM dataset on ``parts``
        partitions, or the 4-partition store streamed / materialized."""
        if residency != "ram":
            store = self.huge_store
            assert parts == store.num_parts
            return store.dataset(materialize=residency == "store-materialized"), store.book()
        dataset = self.tiny_dataset
        if parts not in self._books:
            self._books[parts] = (
                PartitionBook(
                    part_of=np.zeros(dataset.num_nodes, dtype=np.int32), num_parts=1
                )
                if parts == 1
                else partition_graph(dataset.graph, parts, method="metis", seed=0)
            )
        return dataset, self._books[parts]

    def oracle(
        self, *, policy, model, hidden, parts, residency="ram", hidden_layers=2
    ) -> Run:
        key = (residency != "ram", policy, model, hidden, hidden_layers, parts)
        if key not in self._oracles:
            trainer = ReferenceTrainer(
                *self.inputs(residency, parts), policy, model_kind=model,
                hidden_dim=hidden, num_layers=hidden_layers + 1,
            )
            self._oracles[key] = trainer.run()
        return self._oracles[key]

    def production(
        self, *, policy, model, hidden, parts, residency="ram", hidden_layers=2,
        overlap=True, transport="sync",
    ):
        """``(Run, last epoch's record)`` of one production configuration;
        ``transport`` is a spec string or ``"shuffled"``, and the model is
        ``hidden_layers + 1`` layers deep."""
        dataset, book = self.inputs(residency, parts)
        shuffled = transport == "shuffled"
        with Cluster(
            dataset, book, model_kind=model, hidden_dim=hidden,
            num_layers=hidden_layers + 1, dropout=0.5, seed=7, overlap=overlap,
            transport="sync" if shuffled else transport,
        ) as cluster:
            if shuffled:
                cluster.transport = ShuffledTransport(cluster.num_devices)
            exchange, assigner = make_exchange(policy, cluster)
            optimizer = Adam(cluster.model.parameters(), lr=0.01)
            out = Run()
            for epoch in range(EPOCHS):
                record = cluster.train_epoch(exchange, epoch)
                out.record(
                    record.loss, record.total_wire_bytes(), cluster.model, assigner
                )
                optimizer.step()
            out.metrics = cluster.evaluate()
        return out, record

    @staticmethod
    def same_records(a, b) -> bool:
        """Whether two epoch records hold bit-equal phase records: the wire
        bytes and FLOPs every schedule prices."""
        return len(a.phases) == len(b.phases) and all(
            np.array_equal(getattr(p, f.name), getattr(q, f.name))
            for p, q in zip(a.phases, b.phases)
            for f in fields(p)
        )

    def check(
        self, *, policy, model, hidden, parts, residency="ram", hidden_layers=2,
        **shape,
    ):
        """Production under ``shape`` ≡ the oracle; returns the last record."""
        what = dict(
            policy=policy, model=model, hidden=hidden, parts=parts,
            residency=residency, hidden_layers=hidden_layers,
        )
        run, record = self.production(**what, **shape)
        assert run.mismatches(self.oracle(**what)) == [], (what, shape)
        return record


@pytest.fixture(scope="session")
def matrix(tiny_dataset, huge_store):
    return Matrix(tiny_dataset, huge_store)
