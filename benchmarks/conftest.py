"""Benchmark-suite configuration.

Each benchmark regenerates one table or figure of the paper, persists the
structured result under ``benchmarks/results/`` and asserts the paper's
qualitative *shape* (who wins, by roughly what factor).  Absolute numbers
are expected to differ — the substrate is a simulated cluster, not the
authors' V100 testbed.

Run with::

    pytest benchmarks/ --benchmark-only

Results land in a temporary directory, so a test run leaves ``git status``
clean; pass ``--update-results`` to refresh the tracked files under
``benchmarks/results/`` instead.
"""

import pytest


@pytest.fixture(autouse=True)
def _results_dir(request, monkeypatch, tmp_path_factory):
    """Point ``save_result`` away from the tracked results unless asked."""
    if not request.config.getoption("--update-results"):
        monkeypatch.setenv(
            "REPRO_RESULTS_DIR", str(tmp_path_factory.getbasetemp() / "results")
        )


@pytest.fixture(autouse=True)
def _print_rendered(capsys):
    """Let benchmarks print their rendered tables without -s clutter."""
    yield
