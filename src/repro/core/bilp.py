"""The variance–time bi-objective bit-width assignment problem (Sec. 4.2).

For one GNN layer's forward (or backward) communication round, choose a
bit-width ``b_g ∈ B`` for every message *group* ``g`` to jointly minimize:

* **variance** (Eqn. 11): ``Σ_g β_g / (2^{b_g} - 1)²``;
* **straggler time** (Eqn. 10): ``max_i  θ_i · bytes_i(b) + γ_i`` over
  directed device pairs ``i``.

The weighted-sum scalarization (Eqn. 12) combines them with weight ``λ``;
both objectives are normalized to their worst-case values so ``λ`` has a
scale-free meaning (λ = 1 → pure variance minimization = everything at max
bits; λ = 0 → pure time minimization = everything at min bits).

Solvers:

* :func:`solve_exact` — exact, by a sweep over the straggler time; a pure
  function of the problem (no time limit, no fallback).  The assigner's
  default;
* :func:`solve_milp` — the same optimum via the one-hot MILP and HiGHS
  (``scipy.optimize.milp``), standing in for the paper's GUROBI; kept as
  the independent oracle and the ablation arm;
* :func:`solve_greedy` — start at max bits, repeatedly demote the group
  with the best scalarized improvement on the current straggler pair;
* :func:`solve_bruteforce` — exhaustive, for small-instance cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.quant.mixed import GROUP_HEADER_BYTES
from repro.quant.stochastic import METADATA_BYTES_PER_ROW
from repro.quant.theory import SUPPORTED_BITS
from repro.utils.logging import get_logger
from repro.utils.validation import check_probability

__all__ = [
    "GroupSpec",
    "BitWidthProblem",
    "evaluate_assignment",
    "solve_exact",
    "solve_milp",
    "solve_greedy",
    "solve_bruteforce",
    "SOLVERS",
]

logger = get_logger("core.bilp")

#: What :func:`solve_exact` and :func:`solve_milp` add to Eqn. 12 per
#: assigned bit, divided by the group count (so at most ``8e-6`` on an
#: objective of order 1): precision is bought only where it moves the
#: variance term by more than this, and equal-objective solutions prefer
#: fewer bytes (at λ = 0 the variance coefficients are all zero).
TIE_BREAK = 1e-6


@dataclass(frozen=True)
class GroupSpec:
    """One message group: messages of one (src → dst) pair sharing a bit-width.

    ``beta`` is the summed β of the member messages (Sec. 4.2);
    ``n_rows × dim`` elements cross the wire for this group.
    """

    src: int
    dst: int
    beta: float
    n_rows: int
    dim: int

    def payload_bytes(self, bits: int) -> float:
        """Wire bytes at ``bits``: packed payload + metadata + header."""
        packed = self.n_rows * self.dim * bits / 8.0
        return packed + self.n_rows * METADATA_BYTES_PER_ROW + GROUP_HEADER_BYTES


@dataclass
class BitWidthProblem:
    """One communication round's assignment instance.

    The array forms every solver and objective reads are computed once
    here: ``pairs`` (sorted), ``group_pair[g]`` (index of group g's pair
    in ``pairs``), ``theta[i]`` / ``gamma[i]`` per pair, and the per-group
    tables ``group_bytes[g, b]`` (wire bytes) and ``group_cost[g, b]``
    (``β_g / (2^b − 1)²``) over ``bit_choices``.
    """

    groups: list[GroupSpec]
    pair_theta: dict[tuple[int, int], float]
    pair_gamma: dict[tuple[int, int], float]
    lam: float = 0.5
    bit_choices: tuple[int, ...] = SUPPORTED_BITS
    pairs: list[tuple[int, int]] = field(init=False, repr=False)
    group_pair: np.ndarray = field(init=False, repr=False)
    theta: np.ndarray = field(init=False, repr=False)
    gamma: np.ndarray = field(init=False, repr=False)
    group_bytes: np.ndarray = field(init=False, repr=False)
    group_cost: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_probability(self.lam, name="lam")
        if not self.groups:
            raise ValueError("problem has no message groups")
        self.bit_choices = tuple(sorted(int(b) for b in self.bit_choices))
        if len(self.bit_choices) < 1:
            raise ValueError("need at least one bit choice")
        group_pairs = [(g.src, g.dst) for g in self.groups]
        self.pairs = sorted(set(group_pairs))
        for pair in self.pairs:
            if pair not in self.pair_theta or pair not in self.pair_gamma:
                raise ValueError(f"missing cost parameters for pair {pair}")
        position = {pair: i for i, pair in enumerate(self.pairs)}
        self.group_pair = np.array([position[pair] for pair in group_pairs])
        self.theta = np.array([self.pair_theta[p] for p in self.pairs], dtype=float)
        self.gamma = np.array([self.pair_gamma[p] for p in self.pairs], dtype=float)
        # Same arithmetic as GroupSpec.payload_bytes, one column per choice.
        choices = np.array(self.bit_choices, dtype=np.int64)
        n_rows = np.array([g.n_rows for g in self.groups], dtype=np.int64)[:, None]
        dim = np.array([g.dim for g in self.groups], dtype=np.int64)[:, None]
        overhead = n_rows * METADATA_BYTES_PER_ROW + GROUP_HEADER_BYTES
        self.group_bytes = n_rows * dim * choices / 8.0 + overhead
        beta = np.array([g.beta for g in self.groups], dtype=np.float64)[:, None]
        self.group_cost = beta / (2.0**choices - 1.0) ** 2
        self._choices = choices
        # Normalizers: variance with everything at the lowest bit-width,
        # straggler time with everything at the highest.
        all_highest = np.full(len(self.groups), choices[-1])
        self._v_ref = max(float(self.group_cost[:, 0].sum()), 1e-30)
        self._t_ref = max(self.worst_time(all_highest), 1e-30)

    # -- objective pieces ---------------------------------------------------
    def _at(self, table: np.ndarray, bits: np.ndarray) -> np.ndarray:
        """``table[g, level of bits[g]]`` for every group."""
        bits = np.asarray(bits)
        level = np.minimum(np.searchsorted(self._choices, bits), len(self._choices) - 1)
        if not np.array_equal(self._choices[level], bits):
            raise ValueError(f"bits outside bit_choices {self.bit_choices}")
        return table[np.arange(len(self.groups)), level]

    def pair_times(self, bits: np.ndarray) -> np.ndarray:
        """Eqn. 10's per-pair times, aligned with :attr:`pairs`."""
        group_bytes = self._at(self.group_bytes, bits)
        pair_bytes = np.bincount(
            self.group_pair, weights=group_bytes, minlength=len(self.pairs)
        )
        return self.theta * pair_bytes + self.gamma

    def pair_time(self, pair: tuple[int, int], bits: np.ndarray) -> float:
        return float(self.pair_times(bits)[self.pairs.index(pair)])

    def worst_time(self, bits: np.ndarray) -> float:
        return float(self.pair_times(bits).max())

    def variance(self, bits: np.ndarray) -> float:
        return float(self._at(self.group_cost, bits).sum())

    # -- normalizers (worst cases) -------------------------------------------
    def time_reference(self) -> float:
        """Straggler time with everything at the *highest* bit-width."""
        return self._t_ref

    def scalarized(self, bits: np.ndarray) -> float:
        """Eqn. 12's objective with normalized terms."""
        var_term = self.variance(bits) / self._v_ref
        time_term = self.worst_time(bits) / self._t_ref
        return self.lam * var_term + (1.0 - self.lam) * time_term

    def choice_costs(self) -> np.ndarray:
        """What the exact solvers charge for "group g at choice b": Eqn. 12's
        λ-weighted normalized variance term plus :data:`TIE_BREAK` per bit."""
        tie_break = TIE_BREAK / len(self.groups) * self._choices
        return self.lam / self._v_ref * self.group_cost + tie_break

    def time_weight(self) -> float:
        """What the exact solvers charge per second of straggler time."""
        return (1.0 - self.lam) / self._t_ref


def evaluate_assignment(
    problem: BitWidthProblem, bits: np.ndarray
) -> dict[str, float]:
    """Summary of one assignment: variance, straggler time, scalarized value."""
    bits = np.asarray(bits)
    if bits.shape != (len(problem.groups),):
        raise ValueError("bits must have one entry per group")
    return {
        "variance": problem.variance(bits),
        "worst_time": problem.worst_time(bits),
        "scalarized": problem.scalarized(bits),
    }


def _pair_frontier(
    nbytes: np.ndarray, cost: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Pareto-optimal (bytes, cost) totals of one pair's groups.

    ``nbytes`` / ``cost`` are the pair's ``(k, n_b)`` group tables.  Groups
    are merged one at a time: outer sum of the frontier so far with the
    next group's choices, sort by bytes (cost breaks ties), keep the points
    that strictly improve on the cost of everything cheaper.  Returns the
    frontier's bytes (ascending), its costs (strictly descending) and one
    back-pointer array per group: entry ``j`` of step ``s`` is
    ``parent * n_b + level`` — the step ``s − 1`` point and the bit-width
    level of group ``s`` that frontier point ``j`` was built from.

    Size: all groups of a pair but the ragged last share ``n_rows × dim``,
    so with B = {2, 4, 8} the ``k − 1`` full groups reach at most
    ``3(k − 1) + 1`` distinct byte totals (``Σ b / 2`` is an integer in
    ``[k − 1, 4(k − 1)]``) and the frontier has at most ``3(3k − 2)``
    points; with unrelated group sizes it can reach ``n_b^k``.
    """
    f_bytes = f_cost = np.zeros(1)
    back = []
    for g_bytes, g_cost in zip(nbytes, cost):
        cand_bytes = np.add.outer(f_bytes, g_bytes).ravel()
        cand_cost = np.add.outer(f_cost, g_cost).ravel()
        order = np.lexsort((cand_cost, cand_bytes))
        by_bytes = cand_cost[order]
        keep = np.ones(order.size, dtype=bool)
        keep[1:] = by_bytes[1:] < np.minimum.accumulate(by_bytes)[:-1]
        kept = order[keep]
        f_bytes, f_cost = cand_bytes[kept], cand_cost[kept]
        back.append(kept)
    return f_bytes, f_cost, back


def solve_exact(problem: BitWidthProblem) -> np.ndarray:
    """Exact solution of Eqn. 12 by a sweep over the straggler time ``Z``.

    Eqn. 12 is ``min_Z  (1−λ)/t_ref · Z + Σ_i V_i(Z)``, where ``V_i(Z)``
    is the least cost pair ``i``'s groups can reach with
    ``θ_i · bytes + γ_i ≤ Z`` (costs are
    :meth:`BitWidthProblem.choice_costs`, what :func:`solve_milp` charges
    too).  ``V_i`` is a step function whose breakpoints are the pair's
    Pareto-optimal (bytes, cost) points (:func:`_pair_frontier`); between
    breakpoints only the ``Z`` term moves, upward, so the optimum sits on
    a breakpoint.  All breakpoints are sorted by time, one cumulative sum
    of cost decrements gives the objective at each, and the minimum is
    taken over those where every pair is feasible (``Z ≥ max_i`` of pair
    ``i``'s cheapest time).

    Ties resolve structurally — the smallest ``Z`` among equal objectives,
    and per pair the fewest bytes among equal costs — so the result is a
    pure function of the problem: no time limit, no fallback.
    """
    n_pairs, n_b = len(problem.pairs), len(problem.bit_choices)
    cost_table = problem.choice_costs()
    by_pair = np.argsort(problem.group_pair, kind="stable")
    members = np.split(by_pair, np.cumsum(np.bincount(problem.group_pair))[:-1])
    frontiers = [
        _pair_frontier(problem.group_bytes[m], cost_table[m]) for m in members
    ]

    sizes = np.array([len(f[0]) for f in frontiers])
    pair_of = np.repeat(np.arange(n_pairs), sizes)
    times = problem.theta[pair_of] * np.concatenate([f[0] for f in frontiers])
    times += problem.gamma[pair_of]
    costs = np.concatenate([f[1] for f in frontiers])
    first = np.cumsum(sizes) - sizes  # each pair's cheapest point
    drop = np.diff(costs, prepend=0.0)
    drop[first] = 0.0
    order = np.argsort(times, kind="stable")
    by_time = times[order]
    objective = problem.time_weight() * by_time
    objective += costs[first].sum() + np.cumsum(drop[order])
    feasible = np.searchsorted(by_time, times[first].max(), side="left")
    z = by_time[feasible + np.argmin(objective[feasible:])]

    # Each pair takes its last (least-cost) point that fits under z, then
    # the back-pointers unwind that point into one level per group.
    chosen = np.bincount(pair_of[times <= z], minlength=n_pairs) - 1
    levels = np.empty(len(problem.groups), dtype=np.int64)
    for m, (_, _, back), point in zip(members, frontiers, chosen):
        for g_idx, step in zip(m[::-1], back[::-1]):
            point, levels[g_idx] = divmod(int(step[point]), n_b)
    return np.array(problem.bit_choices, dtype=np.int64)[levels]


def solve_milp(problem: BitWidthProblem, *, time_limit: float = 10.0) -> np.ndarray:
    """Eqn. 12 via a one-hot MILP (HiGHS): the oracle for :func:`solve_exact`.

    Variables: ``x[g, b] ∈ {0, 1}`` (group g uses bit-width b) and the
    auxiliary straggler time ``Z``; constraints pick one bit-width per
    group and force every pair's time under ``Z``.  Optimal to HiGHS's
    relative gap of 1e-6 — unless ``time_limit`` hits first, in which case
    HiGHS's best feasible incumbent is returned (greedy when it has none)
    and a warning says so.
    """
    n_g, n_b = problem.group_bytes.shape
    n_x = n_g * n_b

    # Objective: λ/v_ref · Σ c_gb x_gb + (1-λ)/t_ref · Z (+ the tie-break).
    # Z is carried in units of t_ref: in seconds the time rows' coefficients
    # can sit near HiGHS's absolute feasibility tolerance, which then lets
    # the solver under-state Z and return a worse assignment as optimal.
    # The whole objective is then scaled by 1e6: HiGHS also stops once the
    # absolute gap is under 1e-6 (scipy exposes no option for it), which on
    # an objective of order 1 is wider than the tie-break and than the
    # relative gap, and returned assignments up to 1e-6 worse as optimal.
    t_ref = problem.time_reference()
    cost = 1e6 * np.append(problem.choice_costs().ravel(), problem.time_weight() * t_ref)

    # Σ_b x_gb = 1
    a_onehot = np.zeros((n_g, n_x + 1))
    a_onehot[np.repeat(np.arange(n_g), n_b), np.arange(n_x)] = 1.0
    # θ_i Σ bytes·x + γ_i ≤ Z  →  (θ_i Σ bytes·x − Z) / t_ref ≤ −γ_i / t_ref
    a_time = np.zeros((len(problem.pairs), n_x + 1))
    a_time[np.repeat(problem.group_pair, n_b), np.arange(n_x)] = (
        problem.theta[problem.group_pair, None] * problem.group_bytes / t_ref
    ).ravel()
    a_time[:, -1] = -1.0
    constraints = [
        LinearConstraint(a_onehot, lb=1.0, ub=1.0),
        LinearConstraint(a_time, lb=-np.inf, ub=-problem.gamma / t_ref),
    ]

    integrality = np.concatenate([np.ones(n_x), [0]])
    bounds = Bounds(
        lb=np.concatenate([np.zeros(n_x), [0.0]]),
        ub=np.concatenate([np.ones(n_x), [np.inf]]),
    )
    result = milp(
        c=cost,
        constraints=constraints,
        integrality=integrality,
        bounds=bounds,
        options={"time_limit": time_limit, "mip_rel_gap": 1e-6},
    )
    if result.x is None:
        logger.warning(
            "solve_milp: HiGHS returned no solution (status %d: %s); using greedy",
            result.status, result.message,
        )
        return solve_greedy(problem)
    if not result.success:
        # Status 1 (time or iteration limit) still carries a feasible incumbent.
        logger.warning(
            "solve_milp: not proven optimal (status %d: %s); using HiGHS's incumbent",
            result.status, result.message,
        )
    levels = np.argmax(result.x[:n_x].reshape(n_g, n_b), axis=1)
    return np.array(problem.bit_choices, dtype=np.int64)[levels]


def solve_greedy(problem: BitWidthProblem) -> np.ndarray:
    """Greedy demotion from max bits, guided by the scalarized objective.

    Equal-value demotions are accepted too (they shed bytes at no
    objective cost, e.g. on non-straggler pairs when λ = 0); termination
    is guaranteed because bits only ever decrease.
    """
    choices = problem.bit_choices
    bits = np.full(len(problem.groups), choices[-1], dtype=np.int64)
    best_value = problem.scalarized(bits)
    improved = True
    while improved:
        improved = False
        best_move: tuple[int, int] | None = None
        move_value = np.inf
        for g_idx in range(len(problem.groups)):
            level = choices.index(int(bits[g_idx]))
            if level == 0:
                continue
            candidate = bits.copy()
            candidate[g_idx] = choices[level - 1]
            value = problem.scalarized(candidate)
            if value < move_value:
                move_value = value
                best_move = (g_idx, choices[level - 1])
        if best_move is not None and move_value <= best_value + 1e-15:
            bits[best_move[0]] = best_move[1]
            best_value = min(best_value, move_value)
            improved = True
    return bits


def solve_bruteforce(problem: BitWidthProblem) -> np.ndarray:
    """Exhaustive search (test oracle); only for a handful of groups."""
    n_g = len(problem.groups)
    if n_g > 10:
        raise ValueError("bruteforce limited to 10 groups")
    choices = problem.bit_choices
    best_bits: np.ndarray | None = None
    best_value = np.inf
    stack = np.zeros(n_g, dtype=np.int64)

    def recurse(idx: int) -> None:
        nonlocal best_bits, best_value
        if idx == n_g:
            bits = np.array([choices[i] for i in stack], dtype=np.int64)
            value = problem.scalarized(bits)
            if value < best_value:
                best_value = value
                best_bits = bits
            return
        for level in range(len(choices)):
            stack[idx] = level
            recurse(idx + 1)

    recurse(0)
    assert best_bits is not None
    return best_bits


#: ``RunConfig.solver`` name → solver, the default first.
SOLVERS = {"exact": solve_exact, "milp": solve_milp, "greedy": solve_greedy}
