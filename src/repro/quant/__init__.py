"""Stochastic integer quantization of GNN messages (paper Sec. 2.3, 3.2).

Pipeline:

1. :func:`quantize_stochastic` maps each float32 message vector to
   ``b``-bit integers with a per-vector zero-point and scale (Eqn. 4),
   using stochastic rounding so de-quantization is *unbiased* (Theorem 1);
2. :mod:`repro.quant.packing` packs 2/4/8-bit integer payloads into dense
   ``uint8`` byte streams (the "merge into uniform 8-bit byte streams"
   step of the paper's implementation section);
3. :class:`MixedPrecisionEncoder` groups rows by assigned bit-width,
   quantizes each group and concatenates the streams — the exact wire
   format the adaptive bit-width assigner feeds;
   :mod:`repro.quant.fused` emits the same bytes for a whole exchange
   step at once, from NumPy kernels or — where :mod:`repro.quant.native`
   can build and load them — from one-pass compiled kernels that agree
   with the NumPy ones bit for bit;
4. :mod:`repro.quant.theory` evaluates the paper's variance formulas
   (Theorem 1's vector variance, Theorem 3's β values and layer bound
   ``Q_l``) used by the bi-objective assignment problem, and the wire
   size of a quantized group (:func:`~repro.quant.theory.wire_bytes`).
"""

from repro.quant.stochastic import (
    KeyedRounding,
    QuantizedTensor,
    as_rounding,
    block_key,
    dequantize,
    quantize_stochastic,
    quantize_with_noise,
    stochastic_round,
)
from repro.quant.packing import (
    pack_bits,
    pack_bits_batched,
    unpack_bits,
    unpack_bits_batched,
)
from repro.quant.mixed import MixedPrecisionEncoder, MixedPrecisionPayload
from repro.quant.fused import (
    DecodeWorkspace,
    FusedStepEncoder,
    FusedStepPlan,
    decode_step,
)
from repro.quant.theory import (
    SUPPORTED_BITS,
    beta_values,
    quantization_variance,
    variance_objective,
    wire_bytes,
)

__all__ = [
    "QuantizedTensor",
    "quantize_stochastic",
    "quantize_with_noise",
    "dequantize",
    "stochastic_round",
    "block_key",
    "KeyedRounding",
    "as_rounding",
    "pack_bits",
    "unpack_bits",
    "pack_bits_batched",
    "unpack_bits_batched",
    "MixedPrecisionEncoder",
    "MixedPrecisionPayload",
    "FusedStepEncoder",
    "FusedStepPlan",
    "DecodeWorkspace",
    "decode_step",
    "SUPPORTED_BITS",
    "quantization_variance",
    "beta_values",
    "variance_objective",
    "wire_bytes",
]
