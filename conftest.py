"""Repository-wide pytest configuration.

Registers the ``perf`` marker and keeps perf-marked tests out of tier-1
runs: the one there is — the huge-graph residency gate, two subprocess
arms measuring peak RSS, ~47 s — runs only when selected explicitly (the
CI ``huge-graph`` job uses ``-m perf``)::

    PYTHONPATH=src python -m pytest -m perf tests/cluster/test_hugegraph_residency.py -q

Also owns ``--update-results`` (pytest only accepts new options from the
rootdir conftest); ``benchmarks/conftest.py`` is its one reader.
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--update-results",
        action="store_true",
        help="let the paper benchmarks rewrite the tracked benchmarks/results/ "
        "files (default: write to a temporary directory)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "perf: resource measurement in subprocesses (excluded from tier-1)"
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("-m"):
        return  # explicit marker expression (e.g. -m perf) takes over
    skip_perf = pytest.mark.skip(reason="perf measurement; select with -m perf")
    for item in items:
        if "perf" in item.keywords:
            item.add_marker(skip_perf)
