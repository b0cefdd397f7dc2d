"""Correctness checks on what ``train()`` returned, and failure accounting.

An operation is one epoch or one set-up rep; a failure is an exception, a
non-finite loss or a failed check.  Checks compare the program's outputs
with figures the benchmark derives on its own (the float32 halo volume is
counted from the graph and the partition book, not read from the program).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Check", "fp32_halo_bytes", "partition_stats", "run_checks", "cross_checks"]

#: A solve that reaches this share of HiGHS's 10 s limit makes bit-widths —
#: hence wire bytes and accuracy — depend on host speed.
TIME_LIMIT_FRAC_MAX = 0.8


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def partition_stats(graph, book) -> dict[str, float]:
    """Edge-cut share and halo rows (remote 1-hop neighbours summed over
    partitions), counted from the graph and the book."""
    src, dst = graph.edge_array()
    part = book.part_of
    cross = part[src] != part[dst]
    halo = np.unique(np.stack([part[dst[cross]], src[cross]]), axis=1).shape[1]
    return {"edge_cut_frac": float(cross.mean()), "halo_rows": float(halo)}


def fp32_halo_bytes(halo_rows: float, dims: list[int]) -> int:
    """Exact float32 wire bytes of one epoch: every halo row crosses once per
    layer in each direction at that layer's input width."""
    return int(halo_rows) * 4 * sum(dims[:-1]) * 2


def run_checks(
    workload,
    result,
    *,
    epochs: int,
    fp32_bytes_per_epoch: int | None,
    num_classes: int,
    time_limit_frac: float | None = None,
) -> list[Check]:
    """Checks on one workload's ``TrainResult``."""
    losses = result.curve_loss
    checks = [
        Check("epochs_run", len(losses) == epochs, f"{len(losses)} of {epochs}"),
        Check(
            "loss_finite",
            all(math.isfinite(x) for x in losses),
            f"{sum(not math.isfinite(x) for x in losses)} non-finite",
        ),
        Check(
            "loss_decreased",
            bool(losses) and losses[-1] < losses[0],
            f"first {losses[0]:.4f} final {losses[-1]:.4f}" if losses else "no epochs",
        ),
        Check(
            "val_acc_learned",
            result.final_val > 2.0 / num_classes,
            f"val_acc {result.final_val:.4f} vs chance {1.0 / num_classes:.4f}",
        ),
    ]
    wire = result.wire_bytes_total / max(epochs, 1)
    quantized = workload.system != "vanilla"
    if fp32_bytes_per_epoch is None:
        checks.append(Check("wire_bytes_positive", wire > 0, f"{wire:.0f} B/epoch"))
    elif quantized:
        # 2-bit codes are the floor, a quarter (8-bit) plus headers the start.
        lo, hi = fp32_bytes_per_epoch / 16, fp32_bytes_per_epoch / 2
        checks.append(
            Check(
                "wire_bytes_below_half_fp32",
                lo <= wire < hi,
                f"{wire:.0f} B/epoch, float32 volume {fp32_bytes_per_epoch}",
            )
        )
    else:
        checks.append(
            Check(
                "wire_bytes_equal_fp32",
                result.wire_bytes_total == fp32_bytes_per_epoch * epochs,
                f"{result.wire_bytes_total} vs {fp32_bytes_per_epoch * epochs}",
            )
        )
    if quantized and workload.dataset is not None:
        hidden = result.timeline_summary.hidden_byte_fraction
        checks.append(Check("hidden_byte_fraction_is_1", hidden == 1.0, f"{hidden!r}"))
    if time_limit_frac is not None:
        checks.append(
            Check(
                "solve_within_time_limit",
                time_limit_frac < TIME_LIMIT_FRAC_MAX,
                f"longest solve at {time_limit_frac:.2f} of the limit",
            )
        )
    return checks


def cross_checks(records: dict[str, dict], *, smoke: bool = False) -> list[Check]:
    """Checks between workloads on identical inputs (all-workload runs).
    Seven smoke epochs say nothing about accuracy, so that check is skipped."""
    adaqp = records.get("products-8p-adaqp")
    vanilla = records.get("products-8p-vanilla")
    if not (adaqp and vanilla):
        return []

    def metric(record, name):
        return record["metrics"][name]["value"]

    wire_a, wire_v = metric(adaqp, "wire_mb_per_epoch"), metric(vanilla, "wire_mb_per_epoch")
    acc_a, acc_v = metric(adaqp, "val_acc"), metric(vanilla, "val_acc")
    checks = [
        Check("products_wire_below_half_vanilla", wire_a < 0.5 * wire_v, f"{wire_a} vs {wire_v}")
    ]
    if not smoke:
        checks.append(
            Check("products_val_acc_near_vanilla", abs(acc_a - acc_v) <= 0.01, f"{acc_a} vs {acc_v}")
        )
    return checks
