"""Repository-wide pytest configuration.

Registers the ``perf`` marker and keeps perf-marked tests out of tier-1
runs: the one there is — the huge-graph residency gate, two subprocess
arms measuring peak RSS, ~47 s — runs only when selected explicitly (the
CI ``huge-graph`` job uses ``-m perf``)::

    PYTHONPATH=src python -m pytest -m perf tests/cluster/test_hugegraph_residency.py -q

Also owns ``--update-results`` (pytest only accepts new options from the
rootdir conftest); ``benchmarks/conftest.py`` is its one reader.

``--quant-kernel {native,numpy}`` pins the tier of :mod:`repro.kernels`
for the session — the quantization kernels, the compute engine's CSR
product and its post stage, which load together — so the equivalence
suites can run under both (the CI ``equivalence`` job does).  It is test
tooling: the program itself has no such switch — :mod:`repro.kernels`
picks the tier from what it observes — and the pin is this process's
loader state (forked workers inherit it).  Without the option the tests run on whatever tier loads.
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--update-results",
        action="store_true",
        help="let the paper benchmarks rewrite the tracked benchmarks/results/ "
        "files (default: write to a temporary directory)",
    )
    parser.addoption(
        "--quant-kernel",
        choices=("native", "numpy"),
        default=None,
        help="pin the tier of repro.kernels (quantization, the engine's CSR "
        "product and post stage) for this session: 'native' fails the session "
        "unless the compiled kernels load, 'numpy' runs the NumPy / scipy "
        "reference kernels even where the compiled ones would load (default: "
        "whatever loads)",
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "perf: resource measurement in subprocesses (excluded from tier-1)"
    )
    tier = config.getoption("--quant-kernel")
    if tier is not None:
        from repro import kernels

        if tier == "numpy":
            kernels._tier = (None, "numpy (pinned by pytest --quant-kernel numpy)")
        elif kernels.load() is None:
            raise pytest.UsageError(f"--quant-kernel native: got {kernels.status()}")


def pytest_collection_modifyitems(config, items):
    if config.getoption("-m"):
        return  # explicit marker expression (e.g. -m perf) takes over
    skip_perf = pytest.mark.skip(reason="perf measurement; select with -m perf")
    for item in items:
        if "perf" in item.keywords:
            item.add_marker(skip_perf)
