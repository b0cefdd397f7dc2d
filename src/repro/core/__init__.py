"""AdaQP core: the paper's contribution.

* :mod:`repro.core.bilp` — the variance–time bi-objective bit-width
  assignment problem (Eqns. 10–12) with the exact time-sweep solver, the
  MILP oracle and a greedy solver;
* :mod:`repro.core.assigner` — the Adaptive Bit-width Assigner (Sec. 3.3,
  Fig. 6): traces layer inputs, periodically re-solves, scatters
  assignments;
* :mod:`repro.core.scheduler` — epoch-time schedule simulators for
  Vanilla, AdaQP (three-stage resource isolation, Fig. 7), PipeGCN and
  SANCUS, pricing each step's measured wire bytes and its central/marginal
  FLOP split (Sec. 3.1) as the cluster records them;
* :mod:`repro.core.trainer` — the end-to-end training loop producing
  accuracy curves, simulated throughput and time breakdowns.
"""

from repro.core.config import RunConfig
from repro.core.bilp import (
    BitWidthProblem,
    GroupSpec,
    evaluate_assignment,
    solve_bruteforce,
    solve_exact,
    solve_greedy,
    solve_milp,
)
from repro.core.assigner import AdaptiveBitWidthAssigner
from repro.core.scheduler import (
    SCHEDULES,
    ScheduleResult,
    schedule_adaqp,
    schedule_pipegcn,
    schedule_sancus,
    schedule_vanilla,
)
from repro.core.trainer import SYSTEMS, TrainResult, train

__all__ = [
    "RunConfig",
    "BitWidthProblem",
    "GroupSpec",
    "solve_exact",
    "solve_milp",
    "solve_greedy",
    "solve_bruteforce",
    "evaluate_assignment",
    "AdaptiveBitWidthAssigner",
    "ScheduleResult",
    "SCHEDULES",
    "schedule_vanilla",
    "schedule_adaqp",
    "schedule_pipegcn",
    "schedule_sancus",
    "TrainResult",
    "train",
    "SYSTEMS",
]
