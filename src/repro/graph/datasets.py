"""Dataset catalog mirroring the paper's Table 3, at reduced scale.

Each entry reproduces the *shape* of one benchmark dataset — relative
density, feature width, class count and task type — at a node count that
trains in seconds on CPU.  Two scales are provided:

* ``tiny``  — used by tests and benchmarks (fast, seconds per run);
* ``small`` — used by the examples (minutes per run, clearer separation).

Paper reference points (Table 3):

============== ========= ============ ========= ======== ===========
Dataset          #Nodes   avg degree   #Feats    #Classes  Task
============== ========= ============ ========= ======== ===========
Reddit           232,965   ~492          602       41      single
Yelp             716,847   ~10           300      100      multi
ogbn-products  2,449,029   ~25           100       47      single
AmazonProducts 1,569,960   ~168          200      107      multi
============== ========= ============ ========= ======== ===========

The scaled versions keep the density *ordering* (Reddit ≫ Amazon ≫ products
≫ Yelp) because density drives every communication-related result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.generators import (
    CommunityGraphConfig,
    generate_community_graph,
    generate_features_and_labels,
)
from repro.graph.graph import Graph
from repro.utils.seed import RngPool

__all__ = [
    "DatasetSpec",
    "GraphDataset",
    "DATASET_CATALOG",
    "available_datasets",
    "load_dataset",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for one synthetic stand-in dataset at one scale."""

    name: str
    paper_name: str
    num_nodes: int
    avg_degree: float
    num_features: int
    num_classes: int
    multilabel: bool
    homophily: float = 0.8
    degree_exponent: float = 2.5
    feature_noise: float = 2.0
    label_noise: float = 0.03
    fine_scale: float = 0.35
    fine_group: int = 2
    neighbor_locality: float = 0.95
    locality_width: int = 1

    @property
    def task(self) -> str:
        return "multi-label" if self.multilabel else "single-label"


@dataclass
class GraphDataset:
    """A fully materialized dataset: graph, features, labels and splits."""

    spec: DatasetSpec
    graph: Graph
    features: np.ndarray  # (n, F) float32
    labels: np.ndarray  # (n,) int64 or (n, C) float32
    train_mask: np.ndarray  # (n,) bool
    val_mask: np.ndarray
    test_mask: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_features(self) -> int:
        return int(self.features.shape[1])

    @property
    def num_classes(self) -> int:
        return self.spec.num_classes

    @property
    def multilabel(self) -> bool:
        return self.spec.multilabel


def _catalog() -> dict[str, dict[str, DatasetSpec]]:
    """Build the two-scale catalog; density ordering follows Table 3."""

    def spec(scale: str, name: str, paper: str, n: int, deg: float, f: int, c: int,
             multi: bool, homophily: float, locality: float,
             label_noise: float) -> DatasetSpec:
        # label_noise caps attainable accuracy (irreducible error), tuned so
        # each stand-in lands near its paper counterpart's accuracy range.
        return DatasetSpec(
            name=f"{name}-{scale}",
            paper_name=paper,
            num_nodes=n,
            avg_degree=deg,
            num_features=f,
            num_classes=c,
            multilabel=multi,
            homophily=homophily,
            neighbor_locality=locality,
            label_noise=label_noise,
        )

    tiny = {
        "reddit": spec("tiny", "reddit", "Reddit", 2048, 44.0, 64, 16, False, 0.88, 0.95, 0.04),
        "yelp": spec("tiny", "yelp", "Yelp", 3072, 8.0, 48, 24, True, 0.85, 0.95, 0.35),
        "ogbn-products": spec(
            "tiny", "ogbn-products", "ogbn-products", 4096, 15.0, 48, 16, False, 0.88, 0.97, 0.25
        ),
        "amazonproducts": spec(
            "tiny", "amazonproducts", "AmazonProducts", 2560, 30.0, 56, 24, True, 0.88, 0.97, 0.30
        ),
    }
    small = {
        "reddit": spec("small", "reddit", "Reddit", 8192, 60.0, 128, 24, False, 0.88, 0.95, 0.04),
        "yelp": spec("small", "yelp", "Yelp", 12288, 10.0, 96, 40, True, 0.85, 0.95, 0.35),
        "ogbn-products": spec(
            "small", "ogbn-products", "ogbn-products", 16384, 24.0, 96, 24, False, 0.88, 0.97, 0.25
        ),
        "amazonproducts": spec(
            "small", "amazonproducts", "AmazonProducts", 10240, 48.0, 112, 40, True, 0.88, 0.97, 0.30
        ),
    }
    return {"tiny": tiny, "small": small}


DATASET_CATALOG: dict[str, dict[str, DatasetSpec]] = _catalog()


def available_datasets(scale: str = "tiny") -> list[str]:
    """Names accepted by :func:`load_dataset` for the given scale."""
    return sorted(DATASET_CATALOG[scale].keys())


def _make_splits(
    n: int, rng: np.random.Generator, train_frac: float = 0.6, val_frac: float = 0.2
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random train/val/test masks (fractions mirror common OGB-style splits)."""
    perm = rng.permutation(n)
    n_train = int(round(train_frac * n))
    n_val = int(round(val_frac * n))
    train_mask = np.zeros(n, dtype=bool)
    val_mask = np.zeros(n, dtype=bool)
    test_mask = np.zeros(n, dtype=bool)
    train_mask[perm[:n_train]] = True
    val_mask[perm[n_train : n_train + n_val]] = True
    test_mask[perm[n_train + n_val :]] = True
    return train_mask, val_mask, test_mask


def load_dataset(name: str, *, scale: str = "tiny", seed: int = 0) -> GraphDataset:
    """Materialize a synthetic stand-in for one of the paper's datasets.

    Parameters
    ----------
    name:
        One of :func:`available_datasets` (``"reddit"``, ``"yelp"``,
        ``"ogbn-products"``, ``"amazonproducts"``).
    scale:
        ``"tiny"`` or ``"small"``.
    seed:
        Root seed; the same ``(name, scale, seed)`` triple always produces
        the identical dataset.

    Examples
    --------
    >>> ds = load_dataset("reddit", scale="tiny", seed=0)
    >>> ds.num_nodes
    2048
    """
    if scale not in DATASET_CATALOG:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(DATASET_CATALOG)}")
    catalog = DATASET_CATALOG[scale]
    if name not in catalog:
        raise ValueError(f"unknown dataset {name!r}; choose from {sorted(catalog)}")
    spec = catalog[name]

    pool = RngPool(seed).fork(f"dataset/{spec.name}")
    graph_rng = pool.get("graph")
    feat_rng = pool.get("features")
    split_rng = pool.get("splits")

    cfg = CommunityGraphConfig(
        num_nodes=spec.num_nodes,
        avg_degree=spec.avg_degree,
        num_communities=spec.num_classes,
        homophily=spec.homophily,
        degree_exponent=spec.degree_exponent,
        neighbor_locality=spec.neighbor_locality,
        locality_width=spec.locality_width,
    )
    graph, communities = generate_community_graph(cfg, graph_rng)
    features, labels = generate_features_and_labels(
        communities,
        num_features=spec.num_features,
        num_classes=spec.num_classes,
        multilabel=spec.multilabel,
        rng=feat_rng,
        feature_noise=spec.feature_noise,
        label_noise=spec.label_noise,
        fine_scale=spec.fine_scale,
        fine_group=spec.fine_group,
    )
    train_mask, val_mask, test_mask = _make_splits(spec.num_nodes, split_rng)
    return GraphDataset(
        spec=spec,
        graph=graph,
        features=features,
        labels=labels,
        train_mask=train_mask,
        val_mask=val_mask,
        test_mask=test_mask,
    )
