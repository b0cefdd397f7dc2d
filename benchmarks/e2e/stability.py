"""Do two sets of runs of the same code agree within the benchmark's bounds?

    python3 benchmarks/e2e/stability.py [--seeds 0-9] [--out DIR]

Runs the untraced benchmark as two interleaved sets (seed 0: A B, seed 1:
A B, ...), every run a fresh ``run.py`` process, and reports per workload
and end-to-end metric what the driver will compute: each set's median, its
spread (distance between the first and third quartile over the seeds, as a
share of the median) and how much worse set B's median is than set A's —
next to the bound in ``BENCHMARK.json``.  The two runs of one seed must
agree exactly on everything that is not a time: wire bytes, simulated
throughput, accuracy, the loss digest and the failure count.

It ends with the bound each metric needs: three times the largest spread or
twice the largest set-to-set difference seen on any workload, at least 3 %.
``setup_s`` is held to the set-to-set difference only, as by the driver.  A
metric that would need more than the 25 % the contract allows has to get a
steadier *measurement*, not a wider bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
#: Deterministic given (workload, seed, seconds): must match bit for bit.
EXACT = ("wire_mb_per_epoch", "sim_epochs_per_s", "val_acc")
MIN_BOUND, MAX_BOUND = 0.03, 0.25


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: float, out: Path) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--out", str(out)]
    start = time.perf_counter()
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((out / f"{workload}.trace0.json").read_text())
    return {
        "wall_s": wall,
        "failed": result["failed"],
        "loss_digest": record["loss_digest"],
        "noisy_host": record["host"]["noisy_host"],
        **{name: entry["value"] for name, entry in result["metrics"].items()},
    }


def _spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--seconds", type=float, default=float(BENCHMARK["run_seconds"]))
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--out", help="directory for stability.json (default: print only)")
    args = parser.parse_args(argv)
    seeds = _seeds(args.seeds)
    if len(seeds) < 2:
        parser.error("quartiles need at least two seeds")
    workloads = args.workload or [w["name"] for w in BENCHMARK["workloads"]]
    metrics = {m["name"]: m for m in BENCHMARK["end_to_end"]}

    runs: dict[str, dict[str, list[dict]]] = {w: {"A": [], "B": []} for w in workloads}
    mismatches: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for label in "AB":
                for workload in workloads:
                    run = _run(workload, seed, args.seconds, Path(tmp))
                    runs[workload][label].append(run)
                    print(f"seed {seed} set {label} {workload}: {run['wall_s']:.1f} s wall"
                          f"{' NOISY_HOST' if run['noisy_host'] else ''}", flush=True)
            for workload in workloads:
                a, b = runs[workload]["A"][-1], runs[workload]["B"][-1]
                for key in (*EXACT, "loss_digest", "failed"):
                    if a[key] != b[key] or (key == "failed" and a[key] != 0):
                        mismatches.append(f"{workload} seed {seed} {key}: {a[key]} vs {b[key]}")

    needed: dict[str, float] = {name: 0.0 for name in metrics}
    rows = []
    print(f"\n{'workload/metric':44s} {'median A':>11s} {'median B':>11s} "
          f"{'spread A':>8s} {'spread B':>8s} {'B worse':>8s} {'bound':>6s}")
    for workload in workloads:
        for name, spec in metrics.items():
            a = [r[name] for r in runs[workload]["A"]]
            b = [r[name] for r in runs[workload]["B"]]
            med_a, med_b = statistics.median(a), statistics.median(b)
            sign = 1.0 if spec["better"] == "lower" else -1.0
            worse = sign * (med_b - med_a) / med_a
            spread_a, spread_b = _spread(a), _spread(b)
            judged_spread = 0.0 if name == "setup_s" else max(spread_a, spread_b)
            needed[name] = max(needed[name], 3 * judged_spread, 2 * abs(worse))
            ok = judged_spread <= spec["bound"] and worse <= spec["bound"]
            rows.append({"workload": workload, "metric": name, "median_a": med_a,
                         "median_b": med_b, "spread_a": spread_a, "spread_b": spread_b,
                         "b_worse_by": worse, "bound": spec["bound"], "within_bound": ok,
                         "values_a": a, "values_b": b})
            print(f"{workload + '/' + name:44s} {med_a:11.5g} {med_b:11.5g} {spread_a:8.2%} "
                  f"{spread_b:8.2%} {worse:+8.2%} {spec['bound']:6.0%}"
                  f"{'' if ok else '  OUTSIDE BOUND'}")

    print("\nbounds these runs ask for (BENCHMARK.json has):")
    suggested = {}
    for name, value in needed.items():
        suggested[name] = min(MAX_BOUND, max(MIN_BOUND, -(-value // 0.01) * 0.01))
        flag = "  NEEDS A STEADIER MEASUREMENT" if value > MAX_BOUND else ""
        print(f"  {name:20s} {suggested[name]:.2f}  ({metrics[name]['bound']:.2f}){flag}")
    for line in mismatches:
        print(f"NOT REPEATABLE: {line}")
    walls = [r["wall_s"] for w in workloads for s in "AB" for r in runs[w][s]]
    print(f"\n{len(walls)} runs, {sum(walls):.0f} s; longest {max(walls):.1f} s, "
          f"mean {statistics.mean(walls):.1f} s")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "stability.json").write_text(json.dumps(
            {"seeds": seeds, "seconds": args.seconds, "rows": rows,
             "suggested_bounds": suggested, "mismatches": mismatches, "runs": runs}, indent=1))
    return 1 if mismatches or not all(r["within_bound"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
