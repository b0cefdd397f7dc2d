"""Dataset catalog: integrity, determinism, splits."""

import numpy as np
import pytest

from repro.graph.datasets import (
    DATASET_CATALOG,
    available_datasets,
    load_dataset,
)


def test_catalog_has_all_four_paper_datasets():
    for scale in ("tiny", "small"):
        assert available_datasets(scale) == [
            "amazonproducts",
            "ogbn-products",
            "reddit",
            "yelp",
        ]


def test_density_ordering_matches_paper():
    # Reddit densest, Yelp sparsest (Table 3's shape).
    tiny = DATASET_CATALOG["tiny"]
    assert tiny["reddit"].avg_degree > tiny["amazonproducts"].avg_degree
    assert tiny["amazonproducts"].avg_degree > tiny["ogbn-products"].avg_degree
    assert tiny["ogbn-products"].avg_degree > tiny["yelp"].avg_degree


def test_task_types_match_paper():
    tiny = DATASET_CATALOG["tiny"]
    assert not tiny["reddit"].multilabel
    assert not tiny["ogbn-products"].multilabel
    assert tiny["yelp"].multilabel
    assert tiny["amazonproducts"].multilabel


def test_load_reddit_shapes(tiny_dataset):
    ds = load_dataset("reddit", scale="tiny", seed=0)
    assert ds.num_nodes == ds.graph.num_nodes == 2048
    assert ds.features.shape == (2048, 64)
    assert ds.features.dtype == np.float32
    assert ds.labels.shape == (2048,)


def test_multilabel_shapes(tiny_dataset):
    assert tiny_dataset.multilabel
    assert tiny_dataset.labels.shape == (tiny_dataset.num_nodes, tiny_dataset.num_classes)


def test_splits_partition_nodes(tiny_dataset):
    total = (
        tiny_dataset.train_mask.astype(int)
        + tiny_dataset.val_mask.astype(int)
        + tiny_dataset.test_mask.astype(int)
    )
    assert (total == 1).all()
    frac = tiny_dataset.train_mask.mean()
    assert 0.55 < frac < 0.65


def test_determinism_same_seed():
    a = load_dataset("yelp", scale="tiny", seed=3)
    b = load_dataset("yelp", scale="tiny", seed=3)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.graph.indices, b.graph.indices)
    assert np.array_equal(a.train_mask, b.train_mask)


def test_different_seeds_differ():
    a = load_dataset("yelp", scale="tiny", seed=0)
    b = load_dataset("yelp", scale="tiny", seed=1)
    assert not np.array_equal(a.features, b.features)


def test_unknown_name_and_scale_rejected():
    with pytest.raises(ValueError, match="unknown dataset"):
        load_dataset("imagenet")
    with pytest.raises(ValueError, match="unknown scale"):
        load_dataset("reddit", scale="huge")


