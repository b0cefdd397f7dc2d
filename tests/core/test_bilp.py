"""Bi-objective bit-width assignment: solver correctness and λ semantics."""

import logging
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bilp
from repro.core.bilp import (
    TIE_BREAK,
    BitWidthProblem,
    GroupSpec,
    evaluate_assignment,
    solve_bruteforce,
    solve_exact,
    solve_greedy,
    solve_milp,
)


def _problem(lam=0.5, n_groups=4, seed=0):
    rng = np.random.default_rng(seed)
    groups = []
    pairs = [(0, 1), (1, 0)]
    for i in range(n_groups):
        src, dst = pairs[i % 2]
        groups.append(
            GroupSpec(
                src=src,
                dst=dst,
                beta=float(rng.uniform(0.1, 10.0)),
                n_rows=int(rng.integers(10, 100)),
                dim=16,
            )
        )
    theta = {p: 4e-8 for p in pairs}
    gamma = {p: 1e-4 for p in pairs}
    return BitWidthProblem(
        groups=groups, pair_theta=theta, pair_gamma=gamma, lam=lam
    )


def test_payload_bytes_increase_with_bits():
    g = GroupSpec(0, 1, 1.0, 10, 16)
    assert g.payload_bytes(2) < g.payload_bytes(4) < g.payload_bytes(8)


def test_lambda_one_maximizes_bits():
    problem = _problem(lam=1.0)
    for solver in (solve_exact, solve_milp, solve_greedy, solve_bruteforce):
        bits = solver(problem)
        assert np.all(bits == 8), solver.__name__


def test_lambda_zero_minimizes_bits():
    problem = _problem(lam=0.0)
    for solver in (solve_exact, solve_milp, solve_greedy):
        bits = solver(problem)
        assert np.all(bits == 2), solver.__name__


@pytest.mark.parametrize("lam", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_milp_matches_bruteforce_optimum(lam, seed):
    problem = _problem(lam=lam, n_groups=5, seed=seed)
    exact = solve_bruteforce(problem)
    milp = solve_milp(problem)
    assert problem.scalarized(milp) <= problem.scalarized(exact) + 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_greedy_close_to_optimum(seed):
    problem = _problem(lam=0.5, n_groups=6, seed=seed)
    exact_val = problem.scalarized(solve_bruteforce(problem))
    greedy_val = problem.scalarized(solve_greedy(problem))
    assert greedy_val <= exact_val * 1.2 + 1e-9


@pytest.mark.parametrize("solver", [solve_exact, solve_milp])
def test_high_beta_groups_get_more_bits(solver):
    """At intermediate λ, the variance-heavy group keeps precision."""
    groups = [
        GroupSpec(0, 1, beta=100.0, n_rows=50, dim=16),
        GroupSpec(0, 1, beta=0.001, n_rows=50, dim=16),
    ]
    problem = BitWidthProblem(
        groups=groups,
        pair_theta={(0, 1): 4e-8},
        pair_gamma={(0, 1): 1e-4},
        lam=0.5,
    )
    bits = solver(problem)
    assert bits[0] >= bits[1]


@pytest.mark.parametrize("solver", [solve_exact, solve_milp])
def test_minimax_targets_straggler_pair(solver):
    """The busy pair gets narrow bits; the idle pair can keep wide ones."""
    groups = [
        GroupSpec(0, 1, beta=1.0, n_rows=2000, dim=64),  # heavy pair
        GroupSpec(1, 0, beta=1.0, n_rows=10, dim=64),  # light pair
    ]
    problem = BitWidthProblem(
        groups=groups,
        pair_theta={(0, 1): 4e-8, (1, 0): 4e-8},
        pair_gamma={(0, 1): 1e-4, (1, 0): 1e-4},
        lam=0.5,
    )
    bits = solver(problem)
    assert bits[0] <= bits[1]


def test_evaluate_assignment_consistency():
    problem = _problem()
    bits = np.full(len(problem.groups), 4)
    summary = evaluate_assignment(problem, bits)
    assert summary["variance"] == pytest.approx(problem.variance(bits))
    assert summary["worst_time"] == pytest.approx(problem.worst_time(bits))
    with pytest.raises(ValueError):
        evaluate_assignment(problem, np.array([4]))
    with pytest.raises(ValueError, match="outside bit_choices"):
        problem.scalarized(np.full(len(problem.groups), 3))


def test_worst_time_is_max_over_pairs():
    problem = _problem(n_groups=4)
    bits = np.full(4, 8)
    per_pair = [problem.pair_time(p, bits) for p in problem.pairs]
    assert problem.worst_time(bits) == max(per_pair)


def test_problem_validation():
    with pytest.raises(ValueError, match="no message groups"):
        BitWidthProblem(groups=[], pair_theta={}, pair_gamma={}, lam=0.5)
    with pytest.raises(ValueError, match="missing cost"):
        BitWidthProblem(
            groups=[GroupSpec(0, 1, 1.0, 1, 1)], pair_theta={}, pair_gamma={}, lam=0.5
        )
    with pytest.raises(ValueError):
        _problem(lam=1.5)


def test_bruteforce_size_guard():
    problem = _problem(n_groups=4)
    big = BitWidthProblem(
        groups=[GroupSpec(0, 1, 1.0, 1, 1)] * 11,
        pair_theta={(0, 1): 1e-8},
        pair_gamma={(0, 1): 0.0},
        lam=0.5,
    )
    with pytest.raises(ValueError):
        solve_bruteforce(big)
    solve_bruteforce(problem)  # within limit


@pytest.mark.parametrize("solver", [solve_exact, solve_milp])
def test_variance_time_tradeoff_curve(solver):
    """Sweeping λ monotonically trades variance against straggler time."""
    variances, times = [], []
    for lam in (0.0, 0.5, 1.0):
        problem = _problem(lam=lam, n_groups=6, seed=5)
        bits = solver(problem)
        variances.append(problem.variance(bits))
        times.append(problem.worst_time(bits))
    assert variances[0] >= variances[1] >= variances[2]
    assert times[0] <= times[1] <= times[2]


def test_array_forms_match_group_specs():
    """The tables every solver reads equal the per-group scalar formulas."""
    problem = _problem(n_groups=5, seed=3)
    for g_idx, group in enumerate(problem.groups):
        assert problem.pairs[problem.group_pair[g_idx]] == (group.src, group.dst)
        for b_idx, bits in enumerate(problem.bit_choices):
            assert problem.group_bytes[g_idx, b_idx] == group.payload_bytes(bits)
            assert problem.group_cost[g_idx, b_idx] == group.beta / (2.0**bits - 1.0) ** 2
    bits = np.array([2, 4, 8, 4, 2])
    by_hand = {pair: problem.pair_gamma[pair] for pair in problem.pairs}
    for group, b in zip(problem.groups, bits):
        pair = (group.src, group.dst)
        by_hand[pair] += problem.pair_theta[pair] * group.payload_bytes(int(b))
    assert problem.worst_time(bits) == pytest.approx(max(by_hand.values()), rel=1e-15)


# ----------------------------------------------------------------------
# solve_exact against the independent solvers
# ----------------------------------------------------------------------
def _solver_objective(problem, bits):
    """What solve_exact and solve_milp minimize: Eqn. 12 plus the tie-break."""
    return problem.scalarized(bits) + TIE_BREAK / len(problem.groups) * int(np.sum(bits))


@st.composite
def _problems(draw, max_groups=8):
    """1–3 pairs, ≤ 8 ragged groups of mixed width, λ on a grid with both
    ends, and the degenerate cost models (γ = 0, θ equal across pairs)."""
    n_pairs = draw(st.integers(1, 3))
    pairs = [(i, (i + 1) % 4) for i in range(n_pairs)]
    groups = draw(
        st.lists(
            st.builds(
                lambda pair, beta, n_rows, dim: GroupSpec(*pair, beta, n_rows, dim),
                st.sampled_from(pairs),
                st.one_of(st.just(0.0), st.floats(1e-6, 1e4)),
                st.integers(1, 300),
                st.sampled_from([8, 16, 64]),
            ),
            min_size=1,
            max_size=max_groups,
        )
    )
    gamma = draw(st.sampled_from([0.0, 1.5e-4]))
    thetas = draw(st.sampled_from([(4e-8,) * 3, (4e-8, 4e-7, 1e-7)]))
    return BitWidthProblem(
        groups=groups,
        pair_theta=dict(zip(pairs, thetas)),
        pair_gamma={pair: gamma for pair in pairs},
        lam=draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0])),
    )


@settings(max_examples=60, deadline=None)
@given(problem=_problems())
def test_exact_equals_bruteforce_objective(problem):
    """Bracketed from both sides: bruteforce is optimal on Eqn. 12, exact on
    Eqn. 12 plus the tie-break — so they agree to within the tie-break."""
    exact, brute = solve_exact(problem), solve_bruteforce(problem)
    assert problem.scalarized(brute) <= problem.scalarized(exact) + 1e-12
    assert _solver_objective(problem, exact) <= _solver_objective(problem, brute) + 1e-12
    assert problem.scalarized(exact) == pytest.approx(
        problem.scalarized(brute), abs=TIE_BREAK * 6
    )


@settings(max_examples=40, deadline=None)
@given(problem=_problems(), data=st.data())
def test_exact_never_loses_on_its_own_objective(problem, data):
    """≤ the MILP oracle (to its gap), greedy and every uniform assignment
    (ROADMAP 4a), and the same value under any permutation of the groups."""
    best = _solver_objective(problem, solve_exact(problem))
    milp_value = _solver_objective(problem, solve_milp(problem))
    assert best <= milp_value + 1e-12
    assert milp_value <= best + 1e-6 * abs(best) + 1e-9  # mip_rel_gap
    assert best <= _solver_objective(problem, solve_greedy(problem)) + 1e-12
    for bits in problem.bit_choices:
        uniform = np.full(len(problem.groups), bits)
        assert best <= _solver_objective(problem, uniform) + 1e-12
    shuffled = BitWidthProblem(
        groups=data.draw(st.permutations(problem.groups)),
        pair_theta=problem.pair_theta,
        pair_gamma=problem.pair_gamma,
        lam=problem.lam,
    )
    assert _solver_objective(shuffled, solve_exact(shuffled)) == pytest.approx(
        best, rel=1e-12, abs=1e-15
    )


def test_milp_keeps_tiny_link_times_feasible():
    """θ = 4e-8 s/B puts every time row near HiGHS's absolute feasibility
    tolerance when the straggler time is in seconds; the MILP then found
    a worse assignment "optimal" (8 bits on group 4: 0.4665964 against the
    sweep's 0.4665752).  In units of the reference time it does not."""
    pairs = [(0, 1), (0, 1), (0, 1), (1, 2), (1, 2), (1, 2)]
    shapes = [(0.0, 249, 16), (2.0, 171, 8), (3.0, 32, 64),
              (1.0, 40, 16), (1.0, 167, 16), (0.0, 57, 64)]
    problem = BitWidthProblem(
        groups=[GroupSpec(*pair, *shape) for pair, shape in zip(pairs, shapes)],
        pair_theta={(0, 1): 4e-8, (1, 2): 4e-8},
        pair_gamma={(0, 1): 0.0, (1, 2): 0.0},
        lam=0.2,
    )
    best = _solver_objective(problem, solve_exact(problem))
    milp_value = _solver_objective(problem, solve_milp(problem))
    assert milp_value <= best + 1e-6 * abs(best) + 1e-9
    assert list(solve_milp(problem)) == list(solve_exact(problem)) == [2, 4, 4, 8, 4, 2]


def _chunked_problem(rows_per_pair, seed=0, group_size=100, dim=64):
    """Shaped like the assigner's: each pair's messages in chunks of
    ``group_size`` with a ragged last group, inter-machine pairs 10× slower."""
    rng = np.random.default_rng(seed)
    groups, theta, gamma = [], {}, {}
    for i, n_rows in enumerate(rows_per_pair):
        pair = (i // 15, (i // 15 + 1 + i % 15) % 16)
        theta[pair] = 4e-8 if pair[0] // 4 == pair[1] // 4 else 4e-7
        gamma[pair] = 1.5e-4
        for start in range(0, n_rows, group_size):
            groups.append(
                GroupSpec(
                    *pair, float(rng.lognormal(0.0, 2.0)), min(group_size, n_rows - start), dim
                )
            )
    return BitWidthProblem(groups=groups, pair_theta=theta, pair_gamma=gamma, lam=0.5)


@pytest.mark.parametrize(
    "rows_per_pair",
    [
        [137] * 130 + [61] * 108,  # reddit on 16 partitions: 238 pairs / 368 groups
        [99_937] * 2,  # 2 pairs x 1000 groups
    ],
    ids=["reddit-shaped", "2x1000"],
)
def test_exact_needs_no_milp_and_respects_the_frontier_bound(rows_per_pair, monkeypatch):
    def no_milp(*args, **kwargs):
        raise AssertionError("solve_exact must not reach scipy.optimize.milp")

    monkeypatch.setattr(bilp, "milp", no_milp)
    problem = _chunked_problem(rows_per_pair)
    assert len(problem.pairs) == len(rows_per_pair)
    bits = solve_exact(problem)
    assert bits.shape == (len(problem.groups),)
    assert set(np.unique(bits)) <= set(problem.bit_choices)
    for bits_u in problem.bit_choices:
        uniform = np.full(len(problem.groups), bits_u)
        assert _solver_objective(problem, bits) <= _solver_objective(problem, uniform)
    # Stated bound: a pair with k groups (all but the last the same size)
    # has at most 3(3k - 2) Pareto points.
    costs = problem.choice_costs()
    for i in range(len(problem.pairs)):
        members = np.flatnonzero(problem.group_pair == i)
        frontier_bytes, frontier_cost, _ = bilp._pair_frontier(
            problem.group_bytes[members], costs[members]
        )
        assert len(frontier_bytes) <= 3 * (3 * len(members) - 2)
        assert np.all(np.diff(frontier_bytes) > 0) and np.all(np.diff(frontier_cost) < 0)


def test_exact_is_deterministic():
    problem = _chunked_problem([137] * 40 + [61] * 20, seed=2)
    np.testing.assert_array_equal(solve_exact(problem), solve_exact(problem))


# ----------------------------------------------------------------------
# solve_milp as an oracle: it says when it was not exact
# ----------------------------------------------------------------------
def test_milp_uses_the_incumbent_when_the_time_limit_hits(monkeypatch, caplog):
    problem = _problem(n_groups=4)
    incumbent = np.array([8, 2, 4, 8])
    x = np.zeros((4, 3))
    x[np.arange(4), [2, 0, 1, 2]] = 1.0
    timed_out = SimpleNamespace(
        success=False, status=1, message="Time limit reached", x=np.append(x.ravel(), 1.0)
    )
    monkeypatch.setattr(bilp, "milp", lambda **kwargs: timed_out)
    with caplog.at_level(logging.WARNING, logger="repro.core.bilp"):
        bits = solve_milp(problem)
    np.testing.assert_array_equal(bits, incumbent)
    assert "incumbent" in caplog.text and "Time limit reached" in caplog.text


def test_milp_falls_back_to_greedy_only_without_a_solution(monkeypatch, caplog):
    problem = _problem(n_groups=4)
    empty = SimpleNamespace(success=False, status=1, message="Time limit reached", x=None)
    monkeypatch.setattr(bilp, "milp", lambda **kwargs: empty)
    with caplog.at_level(logging.WARNING, logger="repro.core.bilp"):
        bits = solve_milp(problem)
    np.testing.assert_array_equal(bits, solve_greedy(problem))
    assert "greedy" in caplog.text


def test_milp_is_silent_when_optimal(caplog):
    with caplog.at_level(logging.WARNING, logger="repro.core.bilp"):
        solve_milp(_problem(n_groups=4))
    assert caplog.text == ""
