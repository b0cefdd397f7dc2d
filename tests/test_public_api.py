"""Public API surface and integration sanity."""

import importlib

import numpy as np
import pytest

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_quickstart_flow():
    """The README's quickstart, end to end."""
    ds = repro.load_dataset("yelp", scale="tiny", seed=0)
    book = repro.partition_graph(ds.graph, 2, method="metis", seed=0)
    cfg = repro.RunConfig(epochs=3, hidden_dim=8, eval_every=1, dropout=0.0)
    result = repro.train("adaqp", ds, book, "2M-1D", cfg)
    assert result.epochs == 3
    assert np.isfinite(result.final_val)
    assert result.system == "adaqp"
    assert result.dataset == "yelp-tiny"
    assert result.topology == "2M-1D"


def test_systems_tuple():
    assert "adaqp" in repro.SYSTEMS and "vanilla" in repro.SYSTEMS


def test_available_datasets():
    assert len(repro.available_datasets("tiny")) == 4


def test_quant_holds_only_what_runs():
    """The per-message reference moved to ``tests/reference/wire.py``, the
    Generator rounding is deleted, and the compiled library is
    ``repro.kernels``: none of them is left in ``repro.quant``."""
    import repro.quant
    from repro.quant import mixed, stochastic

    for name in (
        "QuantizedTensor",
        "quantize_stochastic",
        "quantize_with_noise",
        "dequantize",
        "stochastic_round",
        "block_key",
        "MixedPrecisionEncoder",
    ):
        assert name not in repro.quant.__all__
        for module in (repro.quant, stochastic, mixed):
            with pytest.raises(AttributeError):
                getattr(module, name)
    assert not hasattr(repro.quant.MixedPrecisionPayload, "decode")
    assert not hasattr(repro.quant.KeyedRounding, "block_noise")
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.quant.native")
