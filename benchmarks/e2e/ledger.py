"""The layer ledger: per-layer metrics of one traced run.

A layer is a module of ``src/repro``.  Timings are medians over the traced
steady epochs (see ``run.py``) of what that layer did inside one epoch,
unless the name says otherwise; ``*_mb_s`` and ``gflop_s`` divide the work
counted at the layer boundary by the layer's busy time.
"""

from __future__ import annotations

import numpy as np

__all__ = ["LAYER_METRICS", "layer_metrics", "tail_percentile"]

#: name -> (unit, better).  ``BENCHMARK.json``'s ``per_layer`` lists exactly these.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    "graph.partition.partition_s": ("s", "lower"),
    "graph.partition.edge_cut_frac": ("fraction", "lower"),
    "graph.partition.halo_rows": ("count", "lower"),
    "graph.io.store_build_s": ("s", "lower"),
    "graph.io.store_mb": ("MB", "lower"),
    "graph.io.store_open_s": ("s", "lower"),
    "graph.io.major_faults": ("count", "lower"),
    "graph.io.minor_faults": ("count", "lower"),
    "graph.datasets.generate_s": ("s", "lower"),
    "cluster.cluster.build_s": ("s", "lower"),
    "cluster.cluster.warmup_s": ("s", "lower"),
    "cluster.cluster.setup_cold_s": ("s", "lower"),
    "cluster.cluster.train_epoch_ms": ("ms", "lower"),
    "cluster.cluster.evaluate_ms": ("ms", "lower"),
    "cluster.compute.forward_ms": ("ms", "lower"),
    "cluster.compute.backward_ms": ("ms", "lower"),
    "cluster.compute.loss_ms": ("ms", "lower"),
    "cluster.compute.reduce_ms": ("ms", "lower"),
    "cluster.compute.non_gemm_ms": ("ms", "lower"),
    "cluster.compute.central_ms": ("ms", "lower"),
    "cluster.compute.marginal_ms": ("ms", "lower"),
    "cluster.compute.dequantize_ms": ("ms", "lower"),
    "cluster.compute.worker_wait_ms": ("ms", "lower"),
    "cluster.compute.central_share": ("fraction", "higher"),
    "cluster.compute.hidden_byte_fraction": ("fraction", "higher"),
    "cluster.exchange.post_ms": ("ms", "lower"),
    "cluster.exchange.finalize_ms": ("ms", "lower"),
    "cluster.exchange.steps": ("count", "lower"),
    "cluster.exchange.messages": ("count", "lower"),
    "quant.fused.gather_ms": ("ms", "lower"),
    "quant.fused.quantize_pack_ms": ("ms", "lower"),
    "quant.fused.decode_ms": ("ms", "lower"),
    "quant.fused.encode_mb_s": ("MB/s", "higher"),
    "quant.fused.decode_mb_s": ("MB/s", "higher"),
    "quant.fused.noise_round_share": ("fraction", "lower"),
    "quant.packing.pack_ms": ("ms", "lower"),
    "quant.packing.unpack_ms": ("ms", "lower"),
    "quant.packing.pack_mb_s": ("MB/s", "higher"),
    "quant.packing.unpack_mb_s": ("MB/s", "higher"),
    "comm.transport.post_ms": ("ms", "lower"),
    "comm.transport.collect_ms": ("ms", "lower"),
    "comm.transport.complete_wait_ms": ("ms", "lower"),
    "comm.transport.wire_bytes": ("B", "lower"),
    "core.assigner.solves": ("count", "lower"),
    "core.assigner.reassign_s": ("s", "lower"),
    "core.assigner.assign_s_total": ("s", "lower"),
    "core.assigner.mean_bits": ("bits", "lower"),
    "core.assigner.bits_hist_2": ("fraction", "higher"),
    "core.assigner.bits_hist_4": ("fraction", "higher"),
    "core.assigner.bits_hist_8": ("fraction", "lower"),
    "core.bilp.solve_s": ("s", "lower"),
    "core.bilp.time_limit_frac": ("fraction", "lower"),
    "core.scheduler.schedule_ms": ("ms", "lower"),
    "core.trainer.epoch_tail_ms": ("ms", "lower"),
    "core.trainer.epoch_first_period_ms": ("ms", "lower"),
    "core.trainer.final_loss": ("loss", "lower"),
    "nn.blas.row_matmul_ms": ("ms", "lower"),
    "nn.blas.gflop_s": ("GFLOP/s", "higher"),
    "nn.optim.step_ms": ("ms", "lower"),
    "host.memcpy_gb_s": ("GB/s", "higher"),
    "host.sgemm_gflop_s": ("GFLOP/s", "higher"),
    "host.drift_frac": ("fraction", "lower"),
    "trace.closure_frac": ("fraction", "higher"),
    "trace.overhead_frac": ("fraction", "lower"),
    "trace.missing_spans": ("count", "lower"),
}

#: HiGHS's time limit in ``solve_milp`` (its documented default).
MILP_TIME_LIMIT_S = 10.0


def tail_percentile(samples: int) -> float:
    """The highest percentile with at least ten samples beyond it (50 when
    there are fewer than twenty samples)."""
    return max(50.0, 100.0 * (1.0 - 10.0 / samples)) if samples else 50.0


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _rate(work: np.ndarray, busy: np.ndarray, scale: float) -> float:
    total = float(busy.sum())
    return float(work.sum()) * scale / total if total > 0 else 0.0


def layer_metrics(
    *, windows: dict, all_spans: list, missing: int, facts: dict, result
) -> dict[str, float]:
    """``windows`` is ``Tracer.per_window`` over the traced steady epochs,
    ``all_spans`` every span of the run, ``missing`` the unresolved targets,
    ``facts`` what the runner measured around its own calls (``*_s`` arrays
    are start-to-start epoch intervals), ``result`` the ``TrainResult``."""
    window_s, steady_s = facts["window_s"], facts["steady_s"]
    absent = {
        key: np.zeros(len(window_s))
        for key in ("busy", "main", "self_main", "count", "work0", "work1")
    }

    def col(span: str, key: str) -> np.ndarray:
        return windows.get(span, absent)[key]

    def ms(span: str, key: str = "busy") -> float:
        return _median(col(span, key)) * 1e3

    def durations(span: str) -> list[float]:
        return [end - start for name, _, start, end, *_ in all_spans if name == span]

    epochs = max(len(result.curve_loss), 1)
    timeline = result.timeline_summary
    hist = result.bit_histogram
    rows = max(sum(hist.values()), 1)
    packed, unpacked = col("quant.packing.pack", "work0"), col("quant.packing.unpack", "work0")
    pack_busy, unpack_busy = col("quant.packing.pack", "busy"), col("quant.packing.unpack", "busy")
    encode_busy, decode_busy = col("quant.fused.quantize_pack", "busy"), col(
        "quant.fused.decode", "busy"
    )
    explained = sum(
        row["self_main"] for span, row in windows.items() if span != "cluster.cluster.train_epoch"
    )
    solves = durations("core.bilp.solve")

    out = {
        "graph.partition.partition_s": facts["partition_s"],
        "graph.partition.edge_cut_frac": facts["edge_cut_frac"],
        "graph.partition.halo_rows": facts["halo_rows"],
        "graph.io.store_build_s": facts["store_build_s"],
        "graph.io.store_mb": facts["store_mb"],
        "graph.io.store_open_s": facts["store_open_s"],
        "graph.io.major_faults": facts["major_faults"],
        "graph.io.minor_faults": facts["minor_faults"],
        "graph.datasets.generate_s": facts["generate_s"],
        "cluster.cluster.warmup_s": facts["warmup_s"],
        "cluster.cluster.setup_cold_s": facts["setup_cold_s"],
        "cluster.cluster.build_s": _median(durations("cluster.cluster.build")),
        "cluster.cluster.train_epoch_ms": ms("cluster.cluster.train_epoch"),
        "cluster.cluster.evaluate_ms": _median(durations("cluster.cluster.evaluate")) * 1e3,
        "cluster.compute.forward_ms": ms("cluster.compute.forward"),
        "cluster.compute.backward_ms": ms("cluster.compute.backward"),
        "cluster.compute.loss_ms": ms("cluster.compute.loss"),
        "cluster.compute.reduce_ms": ms("cluster.compute.reduce"),
        # Self time already excludes the row_matmul, post and finalize children.
        "cluster.compute.non_gemm_ms": _median(
            col("cluster.compute.forward", "self_main")
            + col("cluster.compute.backward", "self_main")
        )
        * 1e3,
        "cluster.compute.central_ms": timeline.central_s / epochs * 1e3,
        "cluster.compute.marginal_ms": timeline.marginal_s / epochs * 1e3,
        "cluster.compute.dequantize_ms": timeline.dequantize_s / epochs * 1e3,
        "cluster.compute.worker_wait_ms": timeline.worker_wait_s / epochs * 1e3,
        "cluster.compute.central_share": timeline.central_share,
        "cluster.compute.hidden_byte_fraction": timeline.hidden_byte_fraction,
        "cluster.exchange.post_ms": ms("cluster.exchange.post", "main"),
        "cluster.exchange.finalize_ms": ms("cluster.exchange.finalize", "main"),
        "cluster.exchange.steps": _median(col("cluster.exchange.post", "count")),
        "cluster.exchange.messages": _median(col("comm.transport.post", "work1")),
        "quant.fused.gather_ms": ms("quant.fused.gather"),
        "quant.fused.quantize_pack_ms": ms("quant.fused.quantize_pack"),
        "quant.fused.decode_ms": ms("quant.fused.decode"),
        # One packed code per float32 element: 4 bytes in per code out.
        "quant.fused.encode_mb_s": _rate(packed, encode_busy, 4e-6),
        "quant.fused.decode_mb_s": _rate(unpacked, decode_busy, 4e-6),
        "quant.fused.noise_round_share": 1.0 - _rate(pack_busy, encode_busy, 1.0)
        if encode_busy.sum() > 0
        else 0.0,
        "quant.packing.pack_ms": ms("quant.packing.pack"),
        "quant.packing.unpack_ms": ms("quant.packing.unpack"),
        "quant.packing.pack_mb_s": _rate(packed, pack_busy, 1e-6),
        "quant.packing.unpack_mb_s": _rate(unpacked, unpack_busy, 1e-6),
        "comm.transport.post_ms": ms("comm.transport.post"),
        "comm.transport.collect_ms": ms("comm.transport.collect"),
        "comm.transport.complete_wait_ms": ms("comm.transport.complete", "main"),
        "comm.transport.wire_bytes": _median(col("comm.transport.post", "work0")),
        "core.assigner.solves": float(len(durations("core.assigner.reassign"))),
        "core.assigner.reassign_s": _median(durations("core.assigner.reassign")),
        "core.assigner.assign_s_total": float(result.assign_seconds),
        "core.assigner.mean_bits": sum(b * n for b, n in hist.items()) / rows,
        "core.bilp.solve_s": _median(solves),
        "core.bilp.time_limit_frac": max(solves, default=0.0) / MILP_TIME_LIMIT_S,
        "core.scheduler.schedule_ms": ms("core.scheduler.schedule"),
        "core.trainer.epoch_tail_ms": float(
            np.percentile(steady_s, tail_percentile(len(steady_s)))
        )
        * 1e3,
        "core.trainer.epoch_first_period_ms": _median(facts["first_period_s"]) * 1e3,
        "core.trainer.final_loss": float(result.curve_loss[-1]),
        "nn.blas.row_matmul_ms": ms("nn.blas.row_matmul"),
        "nn.blas.gflop_s": _rate(
            col("nn.blas.row_matmul", "work0"), col("nn.blas.row_matmul", "busy"), 1e-9
        ),
        "nn.optim.step_ms": ms("nn.optim.step"),
        "host.memcpy_gb_s": facts["probe"]["memcpy_gb_s"],
        "host.sgemm_gflop_s": facts["probe"]["sgemm_gflop_s"],
        "host.drift_frac": facts["drift_frac"],
        "trace.closure_frac": _median(explained / window_s),
        "trace.overhead_frac": _median(window_s) / _median(facts["passthrough_s"]) - 1.0,
        "trace.missing_spans": float(missing),
    }
    for bits in (2, 4, 8):
        out[f"core.assigner.bits_hist_{bits}"] = hist.get(bits, 0) / rows
    return out
