"""Stochastic integer quantization of GNN messages (paper Sec. 2.3, 3.2).

What runs, step by step:

1. :class:`KeyedRounding` supplies the stochastic-rounding noise of every
   message block as a pure function of its coordinates, so
   de-quantization is *unbiased* (Eqns. 4–5, Theorem 1) and the bytes do
   not depend on which worker encodes a block, or when;
2. :mod:`repro.quant.fused` quantizes, packs and decodes a whole exchange
   step at once — per-row bit-widths grouped into
   :class:`MixedPrecisionPayload` streams, the wire format the adaptive
   bit-width assigner feeds — from NumPy kernels or, where
   :mod:`repro.kernels` can build and load them, from one-pass compiled
   kernels that agree with the NumPy ones bit for bit;
3. :mod:`repro.quant.packing` packs 2/4/8-bit integer codes into dense
   ``uint8`` byte streams (the "merge into uniform 8-bit byte streams"
   step of the paper's implementation section) for the NumPy tier;
4. :mod:`repro.quant.theory` evaluates the paper's variance formulas
   (Theorem 1's vector variance, Theorem 3's β values and layer bound
   ``Q_l``) used by the bi-objective assignment problem, and the wire
   size of a quantized group (:func:`~repro.quant.theory.wire_bytes`).

The same wire format, stated one message at a time, is the test suite's
reference (``tests/reference/wire.py``).
"""

from repro.quant.stochastic import KeyedRounding, as_rounding
from repro.quant.packing import (
    pack_bits,
    pack_bits_batched,
    unpack_bits,
    unpack_bits_batched,
)
from repro.quant.mixed import MixedPrecisionPayload
from repro.quant.fused import (
    DecodeWorkspace,
    FusedStepEncoder,
    FusedStepPlan,
)
from repro.quant.theory import (
    SUPPORTED_BITS,
    beta_values,
    quantization_variance,
    variance_objective,
    wire_bytes,
)

__all__ = [
    "KeyedRounding",
    "as_rounding",
    "pack_bits",
    "unpack_bits",
    "pack_bits_batched",
    "unpack_bits_batched",
    "MixedPrecisionPayload",
    "FusedStepEncoder",
    "FusedStepPlan",
    "DecodeWorkspace",
    "SUPPORTED_BITS",
    "quantization_variance",
    "beta_values",
    "variance_objective",
    "wire_bytes",
]
