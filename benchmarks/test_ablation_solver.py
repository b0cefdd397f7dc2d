"""Ablation: the exact sweep vs the MILP oracle (HiGHS) vs greedy."""

from repro.harness import run_ablation_solver, save_result


def test_ablation_solver(benchmark):
    result = benchmark.pedantic(run_ablation_solver, rounds=1, iterations=1)
    save_result(result)
    print("\n" + result.render())

    # The solvers are drop-ins for each other: accuracy within half a point
    # (they optimize the same scalarized objective).
    assert result.notes["accuracy_gap"] < 0.005
    throughput = {row[0]: float(row[2]) for row in result.rows}
    overhead = {row[0]: float(row[3]) for row in result.rows}
    # Similar assignments -> similar throughput (within 25%).
    assert 0.75 < throughput["exact"] / throughput["milp"] < 1.33
    assert 0.75 < throughput["milp"] / throughput["greedy"] < 1.33
    # The sweep is the cheap one, and on identical problems nobody beats it
    # (the oracle stays inside its tie-break + gap, greedy may lose).
    assert overhead["exact"] < overhead["milp"]
    gaps = result.notes["objective_gap"]
    assert gaps["exact"] == 0.0
    assert abs(gaps["milp"]) < 1e-5
    assert gaps["greedy"] > -1e-5
