"""Run configuration (the paper's Table 8, plus simulator knobs)."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.comm.transport import transport_workers
from repro.gnn.model import MODEL_KINDS
from repro.quant.theory import SUPPORTED_BITS
from repro.utils.validation import check_in_set, check_probability

__all__ = ["RunConfig"]


@dataclass(frozen=True)
class RunConfig:
    """Hyper-parameters for one training run.

    Model/optimizer fields follow the paper's Table 8 (3 layers, LayerNorm,
    Adam at lr 0.01); AdaQP fields follow Sec. 3.3/5.5 (λ, message group
    size, re-assignment period, B = {2, 4, 8}).
    """

    # Model / optimizer
    model_kind: str = "gcn"
    hidden_dim: int = 64
    num_layers: int = 3
    dropout: float = 0.5
    lr: float = 0.01
    epochs: int = 60
    eval_every: int = 5
    seed: int = 0

    # AdaQP
    lam: float = 0.5
    group_size: int = 100
    reassign_period: int = 20
    bit_choices: tuple[int, ...] = SUPPORTED_BITS
    solver: str = "exact"  # or "milp" (the HiGHS oracle) / "greedy"
    fixed_bits: int = 2  # for the fixed-bit-width systems
    uniform_period: int = 20  # resampling cadence of the uniform baseline

    # Execution shape.  The transport swaps how an epoch is executed,
    # never what it computes — every worker count is bitwise-identical
    # under the same seed (tests/cluster/test_oracle_matrix.py compares
    # them with the reference trainer).  Whether the layer step splits
    # its aggregation around the exchange is the system's to decide
    # (repro.core.trainer.OVERLAP_SYSTEMS), not a run setting.
    # transport: how many worker threads run each step's quantize/pack/
    # post (and decode) jobs, as a spec string:
    #   "auto"      (default) workers when the run overlaps and the host
    #               has a spare core, inline otherwise;
    #   "sync"      inline, on the calling thread;
    #   "worker:4"  a pool of 4 threads — its GIL-free quantize/decode
    #               kernels overlap the central sub-step's BLAS/spmv.
    # Stochastic-rounding noise is keyed on (run_seed, epoch, phase, layer,
    # src, dst), so the quantized exchange shards each step's encode
    # across the pool and decodes per receiver on it with results
    # identical at ANY worker count.
    transport: str = "auto"

    # Fault tolerance
    # checkpoint_dir: where epoch-boundary checkpoints land (and, with
    # resume=True, where the trainer looks for one).  None disables
    # checkpointing entirely.
    checkpoint_dir: str | None = None
    # checkpoint_every: save cadence in epochs (a checkpoint after every
    # N-th optimizer step; the run's final epoch always saves too so a
    # completed run can seed an elastic restart).
    checkpoint_every: int = 1
    # resume: restore from the newest checkpoint in checkpoint_dir before
    # training.  The resumed run is bitwise identical to the
    # uninterrupted one; an empty/missing directory falls through to a
    # fresh start.
    resume: bool = False
    # transport_timeout_s: per-tag completion deadline — a stalled tag
    # (on the worker pool, or inline) raises TransportError naming its
    # outstanding jobs instead of hanging the run.  None waits forever.
    transport_timeout_s: float | None = 120.0

    def __post_init__(self) -> None:
        check_in_set(self.model_kind, MODEL_KINDS, name="model_kind")
        check_probability(self.dropout, name="dropout")
        check_probability(self.lam, name="lam")
        if self.hidden_dim < 1 or self.num_layers < 1:
            raise ValueError("hidden_dim and num_layers must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        for b in self.bit_choices:
            check_in_set(b, SUPPORTED_BITS, name="bit_choices entry")
        check_in_set(self.fixed_bits, SUPPORTED_BITS, name="fixed_bits")
        # Validates backend name and worker count (rejects junk early).
        transport_workers(self.transport, overlap=False)
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.transport_timeout_s is not None and self.transport_timeout_s <= 0:
            raise ValueError("transport_timeout_s must be positive (or None)")
        if self.resume and self.checkpoint_dir is None:
            raise ValueError("resume=True requires checkpoint_dir")

    def with_overrides(self, **kwargs) -> "RunConfig":
        """Functional update (configs are frozen)."""
        return replace(self, **kwargs)
