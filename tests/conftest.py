"""Shared fixtures: tiny graphs, datasets and partitions used across suites."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.graph.datasets import load_dataset
from repro.graph.graph import Graph
from repro.graph.partition.api import partition_graph
from repro.graph.partition.book import PartitionBook, build_local_partitions


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def compiled_kernels():
    """The compiled kernels (``repro.kernels``), loaded whatever tier
    ``--quant-kernel`` pins for the session; skips the test where they are
    unavailable, with the loader's reason."""
    from repro import kernels

    pinned, kernels._tier = kernels._tier, None
    try:
        lib, reason = kernels.load(), kernels.status()
    finally:
        kernels._tier = pinned
    if lib is None:
        pytest.skip(f"compiled kernel tier unavailable: {reason}")
    return lib


@pytest.fixture(scope="session")
def kernel_tier():
    """``with kernel_tier(lib):`` runs the program's own tier check as if the
    loader had decided on ``lib`` (``None``: the NumPy kernels)."""
    from repro import kernels

    @contextmanager
    def pinned(lib):
        saved = kernels._tier
        kernels._tier = (lib, "numpy (test)" if lib is None else "native (test)")
        try:
            yield
        finally:
            kernels._tier = saved

    return pinned


@pytest.fixture(params=["compiled", "numpy"])
def either_tier(request, kernel_tier):
    """Runs the test once per kernel tier, pinned for its whole body: the
    compiled kernels (skipped where they do not load) and the NumPy ones.
    The value is the tier's name."""
    lib = None
    if request.param == "compiled":
        lib = request.getfixturevalue("compiled_kernels")
    with kernel_tier(lib):
        yield request.param


@pytest.fixture(scope="session")
def path_graph():
    """0-1-2-3-4 path."""
    src = np.array([0, 1, 2, 3])
    dst = np.array([1, 2, 3, 4])
    return Graph.from_edges(src, dst, 5)


@pytest.fixture(scope="session")
def small_graph():
    """A deterministic ~60-node community graph for structural tests."""
    gen = np.random.default_rng(7)
    n = 60
    src = gen.integers(0, n, 400)
    dst = (src + gen.integers(1, 6, 400)) % n  # ring-local edges
    return Graph.from_edges(src, dst, n)


@pytest.fixture(scope="session")
def tiny_dataset():
    return load_dataset("yelp", scale="tiny", seed=0)


@pytest.fixture(scope="session")
def tiny_single_label_dataset():
    return load_dataset("ogbn-products", scale="tiny", seed=0)


@pytest.fixture(scope="session")
def tiny_book(tiny_dataset):
    return partition_graph(tiny_dataset.graph, 4, method="metis", seed=0)


@pytest.fixture(scope="session")
def tiny_parts(tiny_dataset, tiny_book):
    return build_local_partitions(tiny_dataset.graph, tiny_book)


@pytest.fixture()
def single_part_book(tiny_dataset):
    return PartitionBook(
        part_of=np.zeros(tiny_dataset.num_nodes, dtype=np.int32), num_parts=1
    )


@pytest.fixture(scope="session")
def huge_store(tmp_path_factory):
    """A small partition store built by the streaming huge-graph builder.

    Small enough to stay fast, structured enough to exercise every store
    region (multiple chunks, non-trivial halos on all four partitions).
    """
    from repro.graph.generators import HugeGraphConfig
    from repro.graph.io import build_partition_store

    cfg = HugeGraphConfig(
        num_nodes=3000,
        avg_degree=6.0,
        num_features=24,
        num_classes=7,
        num_communities=12,
        chunk_nodes=512,
        chunk_edges=4096,
    )
    path = tmp_path_factory.mktemp("hugestore") / "store"
    return build_partition_store(cfg, 4, path, seed=11, agg_kind="gcn")
