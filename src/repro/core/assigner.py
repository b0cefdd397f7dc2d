"""The Adaptive Bit-width Assigner (paper Sec. 3.3, Fig. 6).

Lifecycle per re-assignment period:

1. **Trace** — quantized transfers report their input rows through
   :meth:`AdaptiveBitWidthAssigner.observe`; the assigner keeps the latest
   per-message value ranges (step 1 of Fig. 6).  Only the last epoch of a
   period is ever read, so exchanges consult
   :attr:`AdaptiveBitWidthAssigner.wants_traces` and skip the tracer on
   every other epoch.
2. **Gather + build** — at the period boundary the master assigner builds
   one :class:`~repro.core.bilp.BitWidthProblem` per (layer, direction):
   per-message β values (α²-weighted, Theorem 3) are computed, messages
   are sorted by β within each device pair and chunked into groups of
   ``group_size`` (the paper's variable-count reduction), and the cost
   model supplies each pair's (θ, γ) (steps 2).
3. **Solve** — each problem is solved exactly by
   :func:`~repro.core.bilp.solve_exact` (step 3), a pure function of the
   traces; wall time is *measured* and reported as assignment overhead.
4. **Scatter** — per-message bit-widths are written back; subsequent
   transfers pick them up via :meth:`bits_for` (step 4).

Until the first solve, all messages use ``default_bits``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.comm.costmodel import LinkCostModel
from repro.core.bilp import SOLVERS, BitWidthProblem, GroupSpec
from repro.quant.theory import SUPPORTED_BITS, beta_values
from repro.utils.logging import get_logger
from repro.utils.timing import Stopwatch
from repro.utils.validation import check_in_set, check_probability

__all__ = ["AdaptiveBitWidthAssigner"]

logger = get_logger("core.assigner")

@dataclass
class _TraceEntry:
    """Latest observation for one (phase, layer, src, dst) message block."""

    value_range: np.ndarray  # (n_rows,) max - min per message
    dim: int


class AdaptiveBitWidthAssigner:
    """Implements both the ``BitProvider`` and tracer protocols.

    Parameters
    ----------
    cluster:
        The :class:`~repro.cluster.cluster.Cluster`; used to read the
        static α² aggregation weights of every message and the layer
        widths.
    cost_model:
        Link cost model supplying each pair's (θ, γ) for Eqn. 10.
    lam:
        Variance-vs-time weight λ of Eqn. 12.
    group_size:
        Messages per group (paper Appendix B; smaller = finer control,
        more groups to solve for).
    period:
        Re-assignment period in epochs.
    solver:
        ``"exact"`` (the time sweep, default), ``"milp"`` (HiGHS, the
        oracle: same optimum, subject to its time limit) or ``"greedy"``.
    default_bits:
        Bit-width used before the first solve (8 = most conservative).
    """

    def __init__(
        self,
        cluster,
        cost_model: LinkCostModel,
        *,
        lam: float = 0.5,
        group_size: int = 100,
        period: int = 50,
        bit_choices: tuple[int, ...] = SUPPORTED_BITS,
        solver: str = "exact",
        default_bits: int = 8,
    ) -> None:
        check_probability(lam, name="lam")
        check_in_set(solver, tuple(SOLVERS), name="solver")
        check_in_set(default_bits, SUPPORTED_BITS, name="default_bits")
        if group_size < 1:
            raise ValueError("group_size must be >= 1")
        if period < 1:
            raise ValueError("period must be >= 1")
        self.cluster = cluster
        self.cost_model = cost_model
        self.lam = float(lam)
        self.group_size = int(group_size)
        self.period = int(period)
        self.bit_choices = tuple(sorted(int(b) for b in bit_choices))
        self.solver = solver
        self.default_bits = int(default_bits)

        self.stopwatch = Stopwatch()
        self.num_reassignments = 0
        self.num_groups = 0  # message groups the latest re-assignment solved for
        self._epoch: int | None = None  # None until set_epoch is first called
        self._traces: dict[tuple[str, int, int, int], _TraceEntry] = {}
        self._assignments: dict[tuple[str, int, int, int], np.ndarray] = {}
        # Static α² weight of every message, keyed like traces.  Forward
        # messages p→q align with q.recv_map[p]; backward messages q→p are
        # the same node set observed from the halo side.
        self._alpha_sq: dict[tuple[int, int], np.ndarray] = {}
        for dev in cluster.devices:
            for p, slots in dev.part.recv_map.items():
                # dev aggregates these halo messages with these α² sums.
                self._alpha_sq[(p, dev.rank)] = dev.halo_alpha_sq[slots]

    # ------------------------------------------------------------------
    # Tracer protocol (Fig. 6 step 1)
    # ------------------------------------------------------------------
    @property
    def wants_traces(self) -> bool:
        """Whether a re-assignment will read this epoch's observations.

        ``set_epoch(e)`` solves from the traces of epoch ``e - 1`` when
        ``e`` is a period boundary, so only the last epoch of each period
        needs tracing.  A function of the epoch number alone; always true
        until :meth:`set_epoch` is first called, so clusters driven by
        hand (no epoch hook) trace every step.
        """
        return self._epoch is None or (self._epoch + 1) % self.period == 0

    def observe(
        self, phase: str, layer: int, src: int, dst: int, rows: np.ndarray
    ) -> None:
        if rows.size == 0:
            return
        self._traces[(phase, layer, src, dst)] = _TraceEntry(
            value_range=(rows.max(axis=1) - rows.min(axis=1)).astype(np.float64),
            dim=int(rows.shape[1]),
        )

    # ------------------------------------------------------------------
    # BitProvider protocol
    # ------------------------------------------------------------------
    def bits_for(
        self, layer: int, phase: str, src: int, dst: int, n_rows: int
    ) -> np.ndarray:
        assigned = self._assignments.get((phase, layer, src, dst))
        if assigned is not None and assigned.size == n_rows:
            return assigned
        return np.full(n_rows, self.default_bits, dtype=np.int64)

    def set_epoch(self, epoch: int) -> None:
        """Trainer hook: re-assign at every period boundary (after warmup)."""
        if epoch > 0 and epoch % self.period == 0 and self._traces:
            self.reassign()
        self._epoch = int(epoch)

    # ------------------------------------------------------------------
    # Fig. 6 steps 2–4
    # ------------------------------------------------------------------
    @property
    def assignment_seconds(self) -> float:
        """Measured wall time spent solving (the paper's 'Assign' bar)."""
        return self.stopwatch.total("assign")

    def problems(
        self,
    ) -> Iterator[tuple[str, int, BitWidthProblem, list[np.ndarray]]]:
        """``(phase, layer, problem, group_rows)`` per traced round, in solve
        order: what :meth:`reassign` solves from the current traces."""
        for phase, layer in sorted({key[:2] for key in self._traces}):
            yield (phase, layer, *self._build_problem(phase, layer))

    def reassign(self) -> None:
        """Build and solve one problem per (phase, layer); scatter results."""
        with self.stopwatch.lap("assign"):
            solver = SOLVERS[self.solver]
            self.num_groups = 0
            for phase, layer, problem, group_rows in self.problems():
                self._scatter(phase, layer, problem, group_rows, solver(problem))
                self.num_groups += len(problem.groups)
            self.num_reassignments += 1
        logger.info(
            "reassignment %d solved %d groups in %.3fs",
            self.num_reassignments,
            self.num_groups,
            self.stopwatch.laps.get("assign", 0.0),
        )

    def _build_problem(
        self, phase: str, layer: int
    ) -> tuple[BitWidthProblem, list[np.ndarray]]:
        """Group this round's messages by β (paper's grouping trick).

        Returns the problem and, aligned with its groups, the message rows
        each group covers.  Every traced block has at least one row
        (:meth:`observe` drops empty ones), so there is always a group.
        """
        groups: list[GroupSpec] = []
        group_rows: list[np.ndarray] = []
        pair_theta: dict[tuple[int, int], float] = {}
        pair_gamma: dict[tuple[int, int], float] = {}

        for (t_phase, t_layer, src, dst), entry in self._traces.items():
            if t_phase != phase or t_layer != layer:
                continue
            alpha_key = (src, dst) if phase == "fwd" else (dst, src)
            alpha_sq = self._alpha_sq.get(alpha_key)
            if alpha_sq is None or alpha_sq.size != entry.value_range.size:
                # Topology mismatch (shouldn't happen); fall back to ones.
                alpha_sq = np.ones_like(entry.value_range)
            beta = beta_values(entry.value_range, entry.dim, alpha_sq)
            order = np.argsort(-beta, kind="stable")
            pair = (src, dst)
            theta, gamma = self.cost_model.pair_parameters(src, dst)
            pair_theta[pair], pair_gamma[pair] = theta, gamma
            for start in range(0, order.size, self.group_size):
                rows = order[start : start + self.group_size]
                groups.append(
                    GroupSpec(
                        src=src,
                        dst=dst,
                        beta=float(beta[rows].sum()),
                        n_rows=int(rows.size),
                        dim=entry.dim,
                    )
                )
                group_rows.append(rows)
        problem = BitWidthProblem(
            groups=groups,
            pair_theta=pair_theta,
            pair_gamma=pair_gamma,
            lam=self.lam,
            bit_choices=self.bit_choices,
        )
        return problem, group_rows

    def _scatter(
        self,
        phase: str,
        layer: int,
        problem: BitWidthProblem,
        group_rows: list[np.ndarray],
        bits: np.ndarray,
    ) -> None:
        """Turn per-group solutions back into per-message assignments."""
        per_key: dict[tuple[str, int, int, int], np.ndarray] = {}
        for group, rows, group_bits in zip(problem.groups, group_rows, bits):
            key = (phase, layer, group.src, group.dst)
            if key not in per_key:
                # A pair's groups partition its traced rows.
                n_total = self._traces[key].value_range.size
                per_key[key] = np.empty(n_total, dtype=np.int64)
            per_key[key][rows] = group_bits
        self._assignments.update(per_key)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Copies of the adaptive state a resumed run needs for bitwise
        equivalence: assignments (what bits_for serves now), traces (what
        the next period-boundary reassign will solve from) and the
        reassignment counter."""
        return {
            "num_reassignments": int(self.num_reassignments),
            "assignments": {
                key: arr.copy() for key, arr in self._assignments.items()
            },
            "traces": {
                key: (entry.value_range.copy(), int(entry.dim))
                for key, entry in self._traces.items()
            },
        }

    def load_state_dict(self, state: dict) -> None:
        self.num_reassignments = int(state["num_reassignments"])
        self._assignments = {
            tuple(key): np.asarray(arr, dtype=np.int64)
            for key, arr in state["assignments"].items()
        }
        self._traces = {
            tuple(key): _TraceEntry(
                value_range=np.asarray(vr, dtype=np.float64), dim=int(dim)
            )
            for key, (vr, dim) in state["traces"].items()
        }

    # ------------------------------------------------------------------
    def assignment_histogram(self) -> dict[int, int]:
        """How many messages currently sit at each bit-width (diagnostics)."""
        counts: dict[int, int] = {b: 0 for b in self.bit_choices}
        for arr in self._assignments.values():
            for b, c in zip(*np.unique(arr, return_counts=True)):
                counts[int(b)] = counts.get(int(b), 0) + int(c)
        return counts
