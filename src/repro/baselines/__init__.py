"""Comparator systems (paper Sec. 5.1).

* **Vanilla** — synchronous full-precision training: AdaQP's own fused
  exchange with quantization switched off
  (:class:`~repro.cluster.exchange.ExactHaloExchange`, whose wire is the
  gathered float32 rows) under
  :func:`~repro.core.scheduler.schedule_vanilla`'s no-overlap schedule.
* **PipeGCN** (Wan et al. 2022) — cross-iteration pipelining with
  epoch-stale boundary embeddings and gradients
  (:class:`StaleHaloExchange`).
* **SANCUS** (Peng et al. 2022) — staleness-triggered broadcast skipping
  with historical embeddings and sequential broadcast communication
  (:class:`BroadcastSkipExchange`).
* **Uniform** — AdaQP's quantized transport but with uniformly random
  bit-width sampling (the Table 6 ablation).

Both are full-precision configurations of the one exchange,
:class:`~repro.cluster.exchange.FusedQuantizedHaloExchange`, that differ
from Vanilla only in its staleness rule (send every ``period`` epochs,
serve a step ``lag`` steps old) and, for SANCUS, its broadcast geometry;
they post, land, audit and replay through Vanilla's code path.

Each baseline reproduces the *mechanism* the paper credits for that
system's behaviour (staleness → slower convergence; broadcast
serialization → slow comm; random bits → variance spikes), not the full
engineering of the original codebases.
"""

from repro.baselines.pipegcn import StaleHaloExchange
from repro.baselines.sancus import BroadcastSkipExchange

__all__ = ["StaleHaloExchange", "BroadcastSkipExchange"]
