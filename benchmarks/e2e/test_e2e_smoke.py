"""Tier-1 smoke test of the benchmark of record (``run.py --smoke``).

Tiny inputs, one warm-up and four timed epochs per workload: checks the
plumbing — every metric ``BENCHMARK.json`` names is emitted with its unit
for every workload, the correctness checks pass, the tracer finds its
targets — not the numbers.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def _git_status() -> str | None:
    try:
        done = subprocess.run(
            ["git", "status", "--porcelain"], cwd=REPO_ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return done.stdout if done.returncode == 0 else None


def test_smoke_emits_every_declared_metric(tmp_path):
    before = _git_status()
    # The two passes are independent; side by side they fit the tier-1 budget.
    passes = {
        trace: subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", str(trace),
             "--out", str(tmp_path)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for trace in (0, 1)
    }
    for trace, proc in passes.items():
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, f"--trace {trace} failed:\n{out}\n{err}"
        assert "FAILED" not in out

    declared = {
        0: {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]},
        1: {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]},
    }
    for workload in (w["name"] for w in BENCHMARK["workloads"]):
        for trace, expected in declared.items():
            record = json.loads((tmp_path / f"{workload}.trace{trace}.json").read_text())
            emitted = {name: entry["unit"] for name, entry in record["metrics"].items()}
            assert emitted == expected, (workload, trace)
            assert all(isinstance(e["value"], float) for e in record["metrics"].values())
            assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
            assert record["host"]["env"]["OMP_NUM_THREADS"] == "1"
        targets = record["trace_targets"]
        resolved, missing = len(targets["resolved"]), len(targets["missing"])
        assert resolved >= 0.9 * (resolved + missing), targets["missing"]
        assert targets["work_errors"] == 0
        assert (tmp_path / f"{workload}.trace1.trace.json").is_file()

    assert _git_status() == before, "the benchmark left files in the work tree"
