#!/usr/bin/env python3
"""Standalone demo of the bi-objective bit-width planner (paper Sec. 4.2).

No training here — this isolates the optimization: given a synthetic
communication round with imbalanced device pairs and a skewed β (variance
weight) distribution, sweep λ from pure-throughput (0) to pure-variance (1)
and show how the assignment trades straggler time against gradient
variance, compared with the all-2-bit / all-8-bit / uniform baselines —
once with the exact time sweep the assigner runs by default and once with
the MILP oracle (HiGHS), which must land on the same objective.

Run:  python examples/bitwidth_planner_demo.py
"""

import time

import numpy as np

from repro.core.bilp import (
    BitWidthProblem,
    GroupSpec,
    evaluate_assignment,
    solve_exact,
    solve_milp,
)
from repro.utils.format import render_table


def build_problem(lam: float, rng: np.random.Generator) -> BitWidthProblem:
    """A 4-device round: pair (0,1) is 10x heavier than the others."""
    pairs = [(0, 1), (1, 2), (2, 3), (3, 0)]
    groups = []
    for pair_idx, (src, dst) in enumerate(pairs):
        heavy = pair_idx == 0
        for _ in range(6):
            groups.append(
                GroupSpec(
                    src=src,
                    dst=dst,
                    beta=float(rng.lognormal(0.0, 2.0)),  # skewed β, like real traces
                    n_rows=int(rng.integers(400, 800)) * (10 if heavy else 1),
                    dim=64,
                )
            )
    theta = {p: 4.0e-8 for p in pairs}
    gamma = {p: 1.5e-4 for p in pairs}
    return BitWidthProblem(groups=groups, pair_theta=theta, pair_gamma=gamma, lam=lam)


def main() -> None:
    rng = np.random.default_rng(7)
    rows = []
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        problem = build_problem(lam, np.random.default_rng(7))
        for name, solver in (("exact", solve_exact), ("milp", solve_milp)):
            start = time.perf_counter()
            bits = solver(problem)
            solve_ms = 1e3 * (time.perf_counter() - start)
            stats = evaluate_assignment(problem, bits)
            unique, counts = np.unique(bits, return_counts=True)
            mix = ", ".join(f"{int(b)}b x{c}" for b, c in zip(unique, counts))
            rows.append(
                [
                    f"{name} λ={lam}",
                    mix,
                    f"{1e3 * stats['worst_time']:.2f}",
                    f"{stats['variance']:.3f}",
                    f"{stats['scalarized']:.6f}",
                    f"{solve_ms:.1f}",
                ]
            )

    # Baselines on the λ=0.5 instance.
    problem = build_problem(0.5, np.random.default_rng(7))
    for label, bits in [
        ("all 2-bit", np.full(len(problem.groups), 2)),
        ("all 8-bit", np.full(len(problem.groups), 8)),
        ("uniform random", rng.choice([2, 4, 8], len(problem.groups))),
    ]:
        stats = evaluate_assignment(problem, bits)
        rows.append(
            [
                label,
                "-",
                f"{1e3 * stats['worst_time']:.2f}",
                f"{stats['variance']:.3f}",
                f"{stats['scalarized']:.6f}",
                "-",
            ]
        )

    print(
        render_table(
            [
                "Scheme",
                "Bit mix",
                "Straggler time (ms)",
                "Gradient variance",
                "Eqn. 12 objective",
                "Solve (ms)",
            ],
            rows,
            title="Bi-objective bit-width assignment (Eqn. 12) on a synthetic round",
        )
    )
    print(
        "\nReading: λ=0 matches all-2-bit time; λ=1 matches all-8-bit variance;\n"
        "intermediate λ keeps the straggler pair narrow while protecting\n"
        "high-β messages — the trade-off Table 6 of the paper measures.\n"
        "The sweep and the MILP oracle reach the same objective; only the\n"
        "sweep does it without a branch-and-bound."
    )


if __name__ == "__main__":
    main()
