"""Huge-graph bench: streaming store epochs vs. the materialized arm.

The huge-graph execution mode trades RAM for page faults: the partition
store stays on disk as aligned memmap regions and the compute engine
streams one device's operator/feature window at a time, releasing pages
behind itself.  The claims this bench pins (gated by
``tests/cluster/test_hugegraph_residency.py``, ``-m perf``):

* **peak RSS**: the streaming arm's resident high-water mark is a
  fraction (gated at ≤ 0.5) of the materialized arm's, measured as the
  ``ru_maxrss`` *delta* over the interpreter baseline so small quick-mode
  graphs don't drown the signal in the Python/numpy footprint;
* **bitwise equivalence**: both arms run the same streaming engine — one
  over memmaps, one over RAM copies — so losses and wire bytes must be
  *equal*, not close;
* **throughput**: epoch edges/s of the streaming arm, and its ratio to
  the materialized arm (the cost of faulting the window under the
  kernels, which nothing hides on a synchronous transport);
* **estimate accuracy**: :func:`~repro.cluster.memory.estimate_peak_resident`
  — the engine's arrays, the widest memmap window and the parameters as
  built, plus the modelled optimizer and exchange buffers — vs. the
  measured streaming delta, reported as a signed relative error.

``ru_maxrss`` is a process-wide monotone high-water mark, so the two
arms *cannot* share a process — each runs in a fresh subprocess (this
module's ``__main__``) that prints one JSON line on stdout.  The parent
builds the store once (page-cache warmth then favors neither arm) and
composes the report.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

__all__ = [
    "HUGE_WORKLOAD",
    "HUGE_WORKLOAD_QUICK",
    "bench_huge_graph",
    "prepare_store",
    "run_arm",
    "run_arm_subprocess",
]

#: The full-size workload: 1M nodes at the paper-scale feature width.
#: Narrow hidden layers keep the epoch spmv/GEMM time bounded while the
#: layer-0 feature traffic — what huge-graph mode exists to keep out of
#: RAM — stays dominant.
HUGE_WORKLOAD = {
    "num_nodes": 1_000_000,
    "avg_degree": 6.0,
    "num_features": 256,
    "num_classes": 8,
    "num_communities": 32,
    "homophily": 0.97,
    "neighbor_locality": 0.97,
    "parts": 16,
    "setting": "4M-4D",
    "hidden_dim": 8,
    "num_layers": 2,
    "system": "adaqp",
}

#: CI-smoke scale: same shape, quarter the nodes (logged in the report).
HUGE_WORKLOAD_QUICK = dict(HUGE_WORKLOAD, num_nodes=250_000)


def _ru_maxrss_bytes() -> int:
    """This process's peak resident set in bytes.

    Prefers ``VmHWM`` from ``/proc/self/status``: unlike ``ru_maxrss``
    (which Linux carries across ``fork``+``exec``, so a subprocess forked
    off a fat parent inherits the parent's high-water mark and measures
    nothing), ``VmHWM`` belongs to the process's own ``mm`` and resets on
    exec.  Falls back to ``getrusage`` where ``/proc`` is unavailable.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    import resource

    # Linux reports KiB (macOS reports bytes; this repo targets Linux CI).
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def prepare_store(path: str | Path, workload: dict, *, seed: int = 0):
    """Build the workload's partition store at ``path`` (idempotent)."""
    from repro.graph.generators import HugeGraphConfig
    from repro.graph.io import PartitionStore, build_partition_store

    path = Path(path)
    if (path / "header.json").is_file():
        return PartitionStore.open(path)
    cfg = HugeGraphConfig(
        num_nodes=int(workload["num_nodes"]),
        avg_degree=float(workload["avg_degree"]),
        num_features=int(workload["num_features"]),
        num_classes=int(workload["num_classes"]),
        num_communities=int(workload["num_communities"]),
        homophily=float(workload.get("homophily", 0.8)),
        neighbor_locality=float(workload.get("neighbor_locality", 0.9)),
    )
    return build_partition_store(
        cfg, int(workload["parts"]), path, seed=seed, agg_kind="gcn"
    )


def run_arm(
    store_path: str | Path,
    arm: str,
    *,
    workload: dict,
    epochs: int,
    seed: int = 0,
) -> dict:
    """One measurement arm, in-process: train ``epochs`` on the store.

    ``arm`` is ``"stream"`` (memmap-backed huge-graph mode) or
    ``"materialize"`` (the same engine over full RAM copies — the
    in-RAM reference footprint).  Returns the JSON-serializable record
    the parent composes; call this only from a fresh subprocess when the
    RSS numbers matter.
    """
    if arm not in ("stream", "materialize"):
        raise ValueError(f"unknown arm {arm!r}")
    from repro.cluster.cluster import Cluster
    from repro.cluster.memory import estimate_peak_resident
    from repro.comm.costmodel import LinkCostModel
    from repro.comm.topology import parse_topology
    from repro.core.config import RunConfig
    from repro.core.trainer import build_system
    from repro.graph.io import PartitionStore

    store = PartitionStore.open(store_path)
    baseline_rss = _ru_maxrss_bytes()
    ds = store.dataset(materialize=(arm == "materialize"))
    book = store.book()
    topology = parse_topology(workload["setting"])
    cfg = RunConfig(
        epochs=epochs,
        hidden_dim=int(workload["hidden_dim"]),
        num_layers=int(workload["num_layers"]),
        dropout=0.0,
        seed=seed,
        transport="sync",
    )
    cluster = Cluster(
        ds,
        book,
        model_kind="gcn",
        hidden_dim=cfg.hidden_dim,
        num_layers=cfg.num_layers,
        dropout=0.0,
        seed=seed,
        overlap=False,
        transport="sync",
    )
    cost_model = LinkCostModel.for_topology(topology)
    setup = build_system(workload["system"], cluster, cost_model, cfg)
    estimate = estimate_peak_resident(cluster)
    losses: list[float] = []
    epoch_s: list[float] = []
    wire = 0
    try:
        for epoch in range(epochs):
            t0 = time.perf_counter()
            record = cluster.train_epoch(setup.exchange, epoch)
            epoch_s.append(time.perf_counter() - t0)
            losses.append(record.loss)
            wire += record.total_wire_bytes()
    finally:
        cluster.close()
    peak_rss = _ru_maxrss_bytes()
    edges = int(store.num_directed_edges)
    best = min(epoch_s[1:]) if len(epoch_s) > 1 else epoch_s[0]
    return {
        "arm": arm,
        "losses": losses,
        "wire_bytes": int(wire),
        "epoch_s": epoch_s,
        "best_epoch_s": best,
        "edges": edges,
        "edges_per_s": edges / best,
        "baseline_rss": baseline_rss,
        "peak_rss": peak_rss,
        "delta_rss": peak_rss - baseline_rss,
        "estimate_resident": int(estimate),
    }


def run_arm_subprocess(
    store_path: str | Path,
    arm: str,
    *,
    workload: dict,
    epochs: int,
    seed: int = 0,
    rlimit_as: int | None = None,
) -> dict:
    """Run one arm in a fresh interpreter and parse its JSON record."""
    import repro

    env = dict(os.environ)
    pkg_root = str(Path(repro.__file__).parents[1])
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (
        pkg_root + os.pathsep + existing if existing else pkg_root
    )
    cmd = [
        sys.executable,
        "-m",
        "repro.harness.hugebench",
        "--store",
        str(store_path),
        "--arm",
        arm,
        "--epochs",
        str(epochs),
        "--seed",
        str(seed),
        "--workload",
        json.dumps(workload),
    ]
    if rlimit_as is not None:
        cmd += ["--rlimit-as", str(int(rlimit_as))]
    proc = subprocess.run(
        cmd, env=env, capture_output=True, text=True, check=False
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"hugebench arm {arm!r} failed (exit {proc.returncode}):\n"
            f"{proc.stderr.strip()}"
        )
    # The record is the last stdout line (warnings may precede it).
    line = proc.stdout.strip().splitlines()[-1]
    return json.loads(line)


def bench_huge_graph(
    *,
    quick: bool = False,
    seed: int = 0,
    workload: dict | None = None,
    store_dir: str | Path | None = None,
    epochs: int | None = None,
) -> dict:
    """Stream vs. materialize arms, one fresh subprocess each.

    The headline metrics are ``rss_fraction`` (streaming high-water delta
    over materialized, gated at ≤ 0.5) and ``throughput_ratio`` (without
    a spare core the ratio measures the page-fault tax, not the design).
    """
    from repro.comm.transport import detected_cores

    wl = dict(HUGE_WORKLOAD_QUICK if quick else HUGE_WORKLOAD)
    if workload:
        wl.update(workload)
    n_epochs = epochs if epochs is not None else (2 if quick else 3)

    tmp = None
    if store_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-hugebench-")
        store_dir = Path(tmp.name) / "store"
    try:
        prepare_store(store_dir, wl, seed=seed)
        stream = run_arm_subprocess(
            store_dir, "stream", workload=wl, epochs=n_epochs, seed=seed
        )
        inram = run_arm_subprocess(
            store_dir, "materialize", workload=wl, epochs=n_epochs, seed=seed
        )
    finally:
        if tmp is not None:
            tmp.cleanup()

    stream_delta = max(stream["delta_rss"], 1)
    inram_delta = max(inram["delta_rss"], 1)
    rss_fraction = stream_delta / inram_delta
    estimate = stream["estimate_resident"]
    cores = detected_cores()
    return {
        "system": wl["system"],
        "workload": wl,
        "epochs": n_epochs,
        "cores": cores,
        "multi_core": cores >= 2,
        "materialized_ms": inram["best_epoch_s"] * 1e3,
        "stream_ms": stream["best_epoch_s"] * 1e3,
        "throughput_ratio": inram["best_epoch_s"] / stream["best_epoch_s"],
        "edges": stream["edges"],
        "edges_per_s": stream["edges_per_s"],
        "stream_peak_rss": stream["peak_rss"],
        "stream_delta_rss": stream["delta_rss"],
        "inram_peak_rss": inram["peak_rss"],
        "inram_delta_rss": inram["delta_rss"],
        "rss_fraction": rss_fraction,
        "rss_within_half": rss_fraction <= 0.5,
        "estimate_resident": estimate,
        "estimate_rel_error": (estimate - stream_delta) / stream_delta,
        "losses_match": stream["losses"] == inram["losses"],
        "wire_bytes_match": stream["wire_bytes"] == inram["wire_bytes"],
    }


def _main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="hugebench measurement arm (one JSON line on stdout)"
    )
    parser.add_argument("--store", required=True)
    parser.add_argument("--arm", required=True, choices=("stream", "materialize"))
    parser.add_argument("--epochs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", default=None,
                        help="workload overrides as a JSON object")
    parser.add_argument(
        "--rlimit-as", type=int, default=None, metavar="BYTES",
        help="hard RLIMIT_AS address-space cap applied before any "
             "allocation — the CI huge-graph job's guard that the "
             "streaming arm never piles anonymous copies on top of its "
             "maps (residency itself is gated by rss_fraction, not AS: "
             "memmaps cost the same address space as materialized "
             "copies, just not the same resident pages)")
    args = parser.parse_args(argv)
    if args.rlimit_as is not None:
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (args.rlimit_as, args.rlimit_as))
    wl = dict(HUGE_WORKLOAD)
    if args.workload:
        wl.update(json.loads(args.workload))
    record = run_arm(
        args.store, args.arm, workload=wl, epochs=args.epochs, seed=args.seed
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    sys.exit(_main())
