"""Analytic device performance model (the V100 stand-in).

Compute durations are *modelled*, not measured: NumPy on a CPU bears no
resemblance to the V100s the paper used, while the byte counts we feed the
link cost model are exact.  Mixing measured CPU compute with modelled
network time would distort every communication/computation ratio the paper
reports, so both sides of the ratio come from calibrated models.

Rates are a V100 *scaled down by the same ~500-3000x factor as the
synthetic datasets*, preserving the paper's regime:

* dense GEMM sustains far more throughput than sparse aggregation;
* sparse aggregation (SpMM) is memory-bound (the V100 ratio
  gemm/spmm ~ 17x is kept at ~2.5x here because tiny matrices lose
  less efficiency to SpMM irregularity);
* quant/de-quant kernels are bandwidth-bound elementwise passes;
* every kernel pays a launch overhead.

The calibration target (checked by benchmarks) is the paper's Table 1 /
Table 2 regime: communication takes ~65-80% of a Vanilla epoch, and 2-bit
quantized marginal communication still exceeds central-graph computation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_positive

__all__ = ["PerfModel"]


@dataclass(frozen=True)
class PerfModel:
    """FLOP- and byte-rate model for one device class."""

    gemm_flops_per_s: float = 3.0e8
    spmm_flops_per_s: float = 1.2e8
    quant_bytes_per_s: float = 2.5e8
    kernel_launch_s: float = 2.0e-4

    def __post_init__(self) -> None:
        check_positive(self.gemm_flops_per_s, name="gemm_flops_per_s")
        check_positive(self.spmm_flops_per_s, name="spmm_flops_per_s")
        check_positive(self.quant_bytes_per_s, name="quant_bytes_per_s")
        check_positive(self.kernel_launch_s, name="kernel_launch_s", strict=False)

    # ------------------------------------------------------------------
    # FLOP counters
    # ------------------------------------------------------------------
    @staticmethod
    def gemm_flops(rows: int, inner: int, cols: int) -> float:
        """Multiply-accumulate count of a dense ``(rows×inner)@(inner×cols)``."""
        return 2.0 * rows * inner * cols

    @staticmethod
    def spmm_flops(nnz: int, width: int) -> float:
        """Sparse-dense product: 2 FLOPs per nonzero per output column."""
        return 2.0 * nnz * width

    # ------------------------------------------------------------------
    # Durations
    # ------------------------------------------------------------------
    def gemm_time(self, flops: float) -> float:
        return flops / self.gemm_flops_per_s + (self.kernel_launch_s if flops > 0 else 0.0)

    def spmm_time(self, flops: float) -> float:
        return flops / self.spmm_flops_per_s + (self.kernel_launch_s if flops > 0 else 0.0)

    def compute_time(self, spmm_flops: float, gemm_flops: float) -> float:
        """One layer stage: aggregation followed by dense update."""
        return self.spmm_time(spmm_flops) + self.gemm_time(gemm_flops)

    def quant_time(self, float_bytes: float) -> float:
        """Quantize or de-quantize ``float_bytes`` of float32 data."""
        if float_bytes <= 0:
            return 0.0
        return float_bytes / self.quant_bytes_per_s + self.kernel_launch_s
