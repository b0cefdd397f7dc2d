"""The reference trainer's own anchors — single-device math, the analytic
byte count — and its import fence."""

import ast
import pathlib

import numpy as np
import pytest
from reference.oracle import FIXED_BITS, ReferenceTrainer

from repro.graph.partition.api import partition_graph
from repro.graph.partition.book import PartitionBook
from repro.quant.theory import wire_bytes

FENCED = (
    "repro.cluster.compute", "repro.cluster.exchange", "repro.quant.fused",
    "repro.comm.transport", "repro.comm.transports", "repro.comm.process",
)  # fmt: skip


def _trainer(dataset, parts, policy, hidden, **kwargs):
    book = PartitionBook(part_of=np.zeros(dataset.num_nodes, np.int32), num_parts=1)
    if parts > 1:
        book = partition_graph(dataset.graph, parts, method="metis", seed=0)
    return ReferenceTrainer(dataset, book, policy, model_kind="gcn", hidden_dim=hidden, **kwargs)


@pytest.mark.parametrize("hidden", [8, 48, 64], ids=["narrowing", "equal", "widening"])
@pytest.mark.parametrize("parts", [2, 4])
def test_partitioned_reference_equals_one_device(tiny_dataset, parts, hidden):
    """Exact messages make distribution invisible (dropout off: its streams
    are per device).  48 features: the first layer narrows, keeps or widens."""
    split = _trainer(tiny_dataset, parts, "exact", hidden, dropout=0.0).run()
    whole = _trainer(tiny_dataset, 1, "exact", hidden, dropout=0.0).run()
    np.testing.assert_allclose(split.losses, whole.losses, rtol=1e-5)


def test_quantized_wire_bytes_equal_the_analytic_count(tiny_dataset):
    """A b-bit message of n rows × dim is ``theory.wire_bytes``: ⌈n·dim·b/8⌉
    packed bytes + 8 B per row (zero point, scale) + one 8 B group header;
    each pair carries one per layer (at the layer's input width) and
    direction."""
    trainer = _trainer(tiny_dataset, 4, "quantized", 8)
    _, wire = trainer.train_epoch(0)
    counts = [rows.size for dev in trainer.devices for rows in dev.part.send_map.values()]
    assert wire == sum(
        2 * wire_bytes(n, dim, FIXED_BITS)
        for dim in (tiny_dataset.num_features, 8, 8)
        for n in counts
    )


def test_oracle_imports_nothing_of_the_production_engines():
    for path in pathlib.Path(__file__).parent.glob("*.py"):
        if path.name.startswith("test_"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module, *(f"{node.module}.{a.name}" for a in node.names)]
            else:
                continue
            for name in names:
                assert not any(name == f or name.startswith(f + ".") for f in FENCED), (
                    f"{path.name} imports {name}"
                )
