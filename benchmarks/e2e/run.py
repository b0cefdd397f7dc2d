"""The benchmark of record: four workloads through ``train()``.

    python3 benchmarks/e2e/run.py                      # every workload, untraced then traced
    python3 benchmarks/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1

The second form (one ``--workload`` and an explicit ``--trace``) measures in
this process and ends with the one-line JSON result ``BENCHMARK.json``
describes; the first runs that form once per workload and pass, each in a
fresh subprocess, then applies the checks that span workloads.  End-to-end
metrics come only from ``--trace 0`` runs, the layer ledger only from
``--trace 1`` runs.  See README.md for every definition.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
#: Scratch for the partition store; inside the checkout, git-ignored.
WORK_ROOT = REPO_ROOT / ".bench_e2e"

#: Set before numpy loads.  One BLAS thread keeps the runnable threads at
#: main + the auto-selected transport worker (<= 2 cores on the reference
#: box); a fixed hash seed keeps set/dict iteration order out of the noise.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

#: name -> (unit, better).  Bounds live in BENCHMARK.json.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_s": ("s", "lower"),
    "epoch_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "wire_mb_per_epoch": ("MB", "lower"),
    "sim_epochs_per_s": ("1/s", "higher"),
    "val_acc": ("fraction", "higher"),
}

#: Set-up reps: at least this many, more until they span this long.
MIN_REPS, MAX_REPS, REPS_SPAN_S = 3, 6, 6.0


def _pin_environment() -> None:
    """Re-exec once with :data:`PINNED_ENV` (the hash seed is read at start-up)."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    os.environ.update(PINNED_ENV)
    os.execv(sys.executable, [sys.executable, *sys.argv])


def _import_program() -> None:
    """Put this checkout's ``src`` first; refuse any other ``repro``."""
    src = REPO_ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"error: cannot import the program from {src}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: 'repro' resolved to {repro.__file__}, not to {src}")


class EpochClock:
    """Timestamp hook on ``Cluster.train_epoch``: one ``perf_counter`` read
    per epoch finds the epoch boundaries inside the real ``train()`` loop.

    In a traced run it also switches the tracer per epoch — even epochs
    (which include every re-assignment boundary) and the last one record
    spans, odd ones pass through — so tracing overhead is measured between
    interleaved epochs of one run.
    """

    def __init__(self, tracer=None) -> None:
        from repro.cluster.cluster import Cluster

        self.tracer = tracer
        self.starts: list[float] = []
        self.last_epoch = -1
        inner = Cluster.train_epoch

        def train_epoch(cluster, exchange, epoch):
            if self.tracer is not None:
                self.tracer.enabled = self.traces(epoch)
            self.starts.append(time.perf_counter())
            return inner(cluster, exchange, epoch)

        Cluster.train_epoch = train_epoch

    def traces(self, epoch: int) -> bool:
        return epoch % 2 == 0 or epoch == self.last_epoch

    def begin(self, epochs: int) -> None:
        self.starts, self.last_epoch = [], epochs - 1
        if self.tracer is not None:
            self.tracer.enabled = True


def _run_rep(inputs, clock: EpochClock, epochs: int, warmup: int) -> dict:
    """One set-up rep followed by training to ``epochs``."""
    from repro.core.trainer import train

    workload = inputs.workload
    clock.begin(epochs)
    t0 = time.perf_counter()
    dataset, book = inputs.partition()
    t1 = time.perf_counter()
    result = train(workload.system, dataset, book, workload.topology, inputs.config(epochs))
    t2 = time.perf_counter()
    return {
        "t0": t0,
        "partition_s": t1 - t0,
        "setup_s": clock.starts[warmup] - t0,
        "train_s": t2 - clock.starts[warmup],
        "result": result,
        "dataset": dataset,
        "book": book,
    }


def _build_store_in_child(args, path: Path) -> float:
    """Build the store in a child so its resident peak is not ours."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--build-store", str(path),
           "--workload", args.workload[0]]
    if args.smoke:
        cmd.append("--smoke")
    start = time.perf_counter()
    subprocess.run(cmd, check=True, timeout=170)
    return time.perf_counter() - start


def measure(args) -> dict:
    """Measure one workload in this process; returns the output record."""
    import numpy as np

    import checks
    import host
    import ledger
    from trace import Tracer
    from workloads import WORKLOADS, Inputs, run_shape

    workload = WORKLOADS[args.workload[0]]
    traced = bool(args.trace)
    warmup, period, timed = run_shape(workload, args.seconds, traced=traced, smoke=args.smoke)
    epochs = warmup + timed
    steady_from = max(warmup, period)
    facts: dict = {}

    WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as workdir:
        start = time.perf_counter()
        inputs = Inputs.generate(workload, args.seed, args.smoke)
        facts["generate_s"] = time.perf_counter() - start
        facts["store_build_s"] = facts["store_mb"] = 0.0
        if workload.dataset is None:
            inputs.store_path = Path(workdir) / "store"
            facts["store_build_s"] = _build_store_in_child(args, inputs.store_path)
            facts["store_mb"] = sum(f.stat().st_size for f in inputs.store_path.iterdir()) / 1e6

        probe_before = host.probe()
        tracer = None
        if traced:
            tracer = Tracer()
            tracer.install()
        clock = EpochClock(tracer)
        gc.collect()

        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        rep1 = _run_rep(inputs, clock, epochs, warmup)
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        if tracer is not None:
            tracer.enabled = False
        peak_rss = host.peak_rss_mb()
        starts = list(clock.starts)
        result = rep1["result"]

        # Reps 2..k repeat the set-up from scratch on the same inputs; the
        # clock stops at the start of epoch `warmup`, the epoch after it only
        # lets train() return.
        setups, failed_reps = [rep1["setup_s"]], 0
        if not traced:
            reps = MIN_REPS
            if not args.smoke:
                reps = min(MAX_REPS, max(reps, math.ceil(REPS_SPAN_S / rep1["setup_s"])))
            for _ in range(reps - 1):
                gc.collect()
                try:
                    setups.append(_run_rep(inputs, clock, warmup + 1, warmup)["setup_s"])
                except Exception as exc:  # a failed rep is counted, not fatal
                    print(f"set-up rep failed: {exc!r}", file=sys.stderr)
                    failed_reps += 1
        probe_after = host.probe()

    # -- metrics ----------------------------------------------------------
    intervals = np.diff(starts)  # start-to-start, epochs 0 .. last-1
    steady = intervals[steady_from:]
    drift = host.drift(probe_before, probe_after)
    spec = rep1["dataset"].spec
    config = inputs.config(epochs)
    dims = [spec.num_features] + [config.hidden_dim] * (config.num_layers - 1) + [spec.num_classes]
    fp32_bytes = None
    facts.update(edge_cut_frac=0.0, halo_rows=0.0)
    if workload.dataset is not None:
        facts.update(checks.partition_stats(rep1["dataset"].graph, rep1["book"]))
        fp32_bytes = checks.fp32_halo_bytes(facts["halo_rows"], dims)

    if traced:
        store = workload.dataset is None
        is_traced = np.array([clock.traces(e) for e in range(len(intervals))])
        window_ids = [e for e in range(steady_from, len(intervals)) if is_traced[e]]
        facts.update(
            partition_s=0.0 if store else rep1["partition_s"],
            store_open_s=rep1["partition_s"] if store else 0.0,
            major_faults=float(usage1.ru_majflt - usage0.ru_majflt),
            minor_faults=float(usage1.ru_minflt - usage0.ru_minflt),
            warmup_s=starts[warmup] - starts[0],
            setup_cold_s=rep1["setup_s"],
            first_period_s=intervals[warmup:steady_from],
            steady_s=steady,
            window_s=intervals[window_ids],
            passthrough_s=steady[~is_traced[steady_from:]],
            probe=probe_before,
            drift_frac=drift,
        )
        tracer.add("graph.partition.partition", rep1["t0"], rep1["t0"] + rep1["partition_s"])
        values = ledger.layer_metrics(
            windows=tracer.per_window(
                [(starts[e], starts[e + 1]) for e in window_ids],
                main_tid=threading.main_thread().ident,
            ),
            all_spans=tracer.spans(),
            missing=len(tracer.missing),
            facts=facts,
            result=result,
        )
        specs = ledger.LAYER_METRICS
        time_limit_frac = values["core.bilp.time_limit_frac"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "train_s": rep1["train_s"],
            "epoch_ms": float(np.median(steady)) * 1e3,
            "peak_rss_mb": peak_rss,
            "wire_mb_per_epoch": result.wire_bytes_total / epochs / 1e6,
            "sim_epochs_per_s": result.throughput,
            "val_acc": result.final_val,
        }
        specs = END_TO_END
        time_limit_frac = None
    metrics = {name: {"value": values[name], "unit": specs[name][0]} for name in specs}

    # -- checks and failure accounting --------------------------------------
    done = checks.run_checks(
        workload,
        result,
        epochs=epochs,
        fp32_bytes_per_epoch=fp32_bytes,
        num_classes=spec.num_classes,
        time_limit_frac=time_limit_frac,
    )
    nonfinite = sum(not math.isfinite(x) for x in result.curve_loss)
    failed = failed_reps + nonfinite + sum(not c.ok for c in done)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(traced),
        "smoke": args.smoke,
        "epochs": {"warmup": warmup, "timed": timed, "steady_from": steady_from,
                   "epoch_ms_samples": int(len(steady)), "setup_reps": setups},
        "host": {
            **host.fingerprint(REPO_ROOT, args.seed, PINNED_ENV),
            "transport": {k: result.transport_health.get(k) for k in ("kind", "workers")},
            "probe_before": probe_before,
            "probe_after": probe_after,
            "drift_frac": drift,
            "noisy_host": drift > host.NOISY_DRIFT,
        },
        "loss_digest": hashlib.sha256(
            np.asarray(result.curve_loss, dtype=np.float64).tobytes()
        ).hexdigest()[:16],
        "checks": [dataclasses.asdict(c) for c in done],
        "correct": failed == 0,
        "attempted": epochs + len(setups) + failed_reps,
        "failed": failed,
        "metrics": metrics,
    }
    if traced:
        record["trace_targets"] = {"resolved": tracer.resolved, "missing": tracer.missing,
                                   "work_errors": tracer.work_errors}
        if args.out:
            tracer.write_chrome(_out_file(args, "trace.json"), origin=rep1["t0"])
    return record


def _out_file(args, suffix: str) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out / f"{args.workload[0]}.trace{int(bool(args.trace))}.{suffix}"


def _print_record(record: dict) -> None:
    name = record["workload"]
    for check in record["checks"]:
        status = "ok" if check["ok"] else "FAILED"
        print(f"{name}/check.{check['name']} {status} ({check['detail']})")
    host = record["host"]
    print(f"{name}/host cpu={host['cpu_model']!r} nproc={host['nproc']} "
          f"transport={host['transport']} drift={host['drift_frac']:.3f}"
          f"{' NOISY_HOST' if host['noisy_host'] else ''}")
    print(f"{name}/loss_digest {record['loss_digest']} sha256-64")
    print(f"{name}/epoch_ms_samples {record['epochs']['epoch_ms_samples']} count")
    for metric, entry in record["metrics"].items():
        print(f"{name}/{metric} {entry['value']:.6g} {entry['unit']}")


@contextlib.contextmanager
def _stdout_to_stderr():
    """HiGHS writes progress lines to file descriptor 1 from C; keep the
    benchmark's standard output to the lines it prints itself."""
    sys.stdout.flush()
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        yield
    finally:
        sys.stdout.flush()
        os.dup2(saved, 1)
        os.close(saved)


def run_one(args) -> int:
    """The driver's form: measure here, end with the one-line result."""
    with _stdout_to_stderr():
        record = measure(args)
    _print_record(record)
    if args.out:
        _out_file(args, "json").write_text(json.dumps(record, indent=1))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


def run_all(args) -> int:
    """Every workload (or those named), each pass in a fresh subprocess."""
    import checks
    from workloads import WORKLOADS

    names = args.workload or list(WORKLOADS)
    passes = [0, 1] if args.trace is None else [args.trace]
    failed = 0
    records: dict[int, dict[str, dict]] = {p: {} for p in passes}
    for trace in passes:
        for name in names:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            if args.smoke:
                cmd.append("--smoke")
            if args.out:
                cmd += ["--out", args.out]
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if done.returncode != 0:
                failed += 1
            if lines and lines[-1].startswith("{"):
                records[trace][name] = json.loads(lines[-1])
            else:
                print(f"{name}/error no result (exit code {done.returncode})")
    for check in checks.cross_checks(records.get(0, {}), smoke=args.smoke):
        print(f"cross/check.{check.name} {'ok' if check.ok else 'FAILED'} ({check.detail})")
        failed += not check.ok
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "summary.json").write_text(json.dumps(records, indent=1))
    print(f"benchmark {'ok' if not failed else 'FAILED'}: {failed} failed runs or checks")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[],
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="length of the timed training window on the reference host")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1: traced pass (layer ledger); 0: untraced pass "
                             "(end-to-end metrics); omitted: both")
    parser.add_argument("--out", help="directory for record and trace files")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a few epochs (for the smoke test)")
    parser.add_argument("--build-store", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _pin_environment()
    _import_program()
    from workloads import WORKLOADS, build_store

    unknown = [w for w in args.workload if w not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown}; choose from {list(WORKLOADS)}")
    if args.build_store:
        build_store(WORKLOADS[args.workload[0]], Path(args.build_store), args.smoke)
        return 0
    if len(args.workload) == 1 and args.trace is not None:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
