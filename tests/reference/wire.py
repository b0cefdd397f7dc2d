"""The wire format, stated one message at a time.

Production quantizes, packs and decodes a whole exchange step at once
(``repro.quant.fused``, and the compiled kernels of ``repro.kernels``).
This module says what those bytes must be for a single (src, dst) message,
in the plainest terms — and imports nothing of how production computes
them (``test_oracle.py`` fences it):

* :func:`block_key` / :func:`block_noise` — a block's rounding noise,
  keyed on its coordinates, one block at a time;
* :func:`quantize_with_noise` / :func:`dequantize` — paper Eqns. 4–5 for a
  batch of rows at one bit-width;
* :class:`MixedPrecisionEncoder` / :func:`decode` — rows grouped by
  bit-width, each group quantized and packed into one stream of a
  :class:`~repro.quant.mixed.MixedPrecisionPayload`, and back.

The reference trainer (``oracle.py``) sends its quantized messages through
this encoder; the quantization tests compare production against it byte
for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.quant.mixed import MixedPrecisionPayload
from repro.quant.packing import pack_bits, unpack_bits
from repro.quant.stochastic import METADATA_BYTES_PER_ROW, as_rounding
from repro.utils.validation import check_array, check_in_set

_ALLOWED_BITS = (1, 2, 4, 8)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # 2^64 / phi
_PHASE_IDS = {"fwd": 0, "bwd": 1}
_KEY_WORDS = (0xA5A5A5A5A5A5A5A5, 0x3C3C3C3C3C3C3C3C)


def _mix64(z: int) -> int:
    """SplitMix64 finalizer."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def block_key(
    run_seed: int, epoch: int, phase: str, layer: int, src: int, dst: int
) -> tuple[int, int]:
    """Philox key words of one message block, in plain Python integers:
    the coordinates absorbed one by one through SplitMix64, then finalized
    into two words.  ``repro.quant.stochastic.block_keys`` must give these
    words for every row of a vectorised call.

    >>> block_key(0, 0, "fwd", 0, 0, 1) != block_key(0, 0, "bwd", 0, 0, 1)
    True
    """
    h = _mix64(int(run_seed) ^ _GOLDEN)
    for coord in (epoch, _PHASE_IDS[phase], layer, src, dst):
        h = _mix64(h ^ _mix64((int(coord) + _GOLDEN) & _MASK64))
    return tuple(_mix64(h ^ word) for word in _KEY_WORDS)


def block_noise(rounding, phase, layer, src, dst, shape=None, out=None) -> np.ndarray:
    """Rounding noise in (0, 1) for one block of ``rounding``'s run at its
    current epoch, row-major: into ``out`` (C-contiguous float32) when
    given, else a fresh ``shape`` array.  Both forms consume the keyed
    stream from its origin, so the same coordinates give the same values."""
    if out is None:
        out = np.empty(shape, dtype=np.float32)
    key = block_key(rounding.run_seed, rounding.epoch, phase, layer, src, dst)
    return rounding.fill_noise([np.asarray(key, dtype=np.uint64)], [out.size], out)


@dataclass
class QuantizedTensor:
    """A batch of quantized rows sharing one bit-width; ``codes`` unpacked,
    one ``uint8`` per element."""

    codes: np.ndarray  # (n, D) uint8
    zero_point: np.ndarray  # (n,) float32
    scale: np.ndarray  # (n,) float32
    bits: int

    @property
    def wire_bytes(self) -> int:
        """Bytes on the wire: packed payload + per-row (Z, S) metadata."""
        n, d = self.codes.shape
        return (n * d * self.bits + 7) // 8 + n * METADATA_BYTES_PER_ROW


def quantize_with_noise(h: np.ndarray, bits: int, noise: np.ndarray) -> QuantizedTensor:
    """Eqn. 4 per row of ``h``: zero point ``Z = min``, scale
    ``S = (max - min) / (2^b - 1)``, codes ``floor((h - Z) / S)`` rounded up
    where ``noise`` (uniform in (0, 1)) is below the fractional part.

    A constant row keeps scale 0 and de-quantizes to its zero point.
    """
    check_array(np.asarray(h), name="h", ndim=2)
    check_in_set(bits, _ALLOWED_BITS, name="bits")
    h = np.asarray(h, dtype=np.float32)
    levels = float(2**bits - 1)
    z = h.min(axis=1)
    scale = (h.max(axis=1) - z) / levels  # 0 for constant rows
    safe_scale = np.where(scale > 0, scale, 1.0)
    normalized = (h - z[:, None]) / safe_scale[:, None]
    floor = np.floor(normalized)
    codes = floor + (noise < normalized - floor)
    # Rounding up the top element when its fraction is exactly 0 would
    # give ``levels + 1``; the clip keeps codes within b bits.
    np.clip(codes, 0, levels, out=codes)
    return QuantizedTensor(
        codes=codes.astype(np.uint8),
        zero_point=z.astype(np.float32),
        scale=scale.astype(np.float32),
        bits=int(bits),
    )


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Eqn. 5: ``ĥ = codes * S + Z``."""
    return (
        q.codes.astype(np.float32) * q.scale[:, None] + q.zero_point[:, None]
    ).astype(np.float32)


class MixedPrecisionEncoder:
    """Encode one message with per-row bit-widths.  ``rounding`` is a
    :class:`~repro.quant.stochastic.KeyedRounding`; each encode names the
    message's block coordinates."""

    def __init__(self, rounding) -> None:
        self.rounding = as_rounding(rounding)

    def encode(
        self,
        h: np.ndarray,
        bits_per_row: np.ndarray,
        block: tuple[str, int, int, int],
    ) -> MixedPrecisionPayload:
        """Quantize row ``i`` of ``h`` at ``bits_per_row[i]`` bits.

        Rows are grouped by bit-width, ascending; each group becomes one
        packed stream.  ``block`` is the message's ``(phase, layer, src,
        dst)``: its noise is one keyed draw over the whole message in row
        order, sliced per group.
        """
        h = np.asarray(h, dtype=np.float32)
        check_array(h, name="h", ndim=2)
        bits_per_row = np.asarray(bits_per_row, dtype=np.int64)
        if bits_per_row.shape != (h.shape[0],):
            raise ValueError(
                f"bits_per_row must have one entry per row: {bits_per_row.shape} "
                f"vs {h.shape[0]} rows"
            )
        noise = block_noise(self.rounding, *block, shape=h.shape)
        groups = []
        for bits in sorted(np.unique(bits_per_row).tolist()):
            rows = np.flatnonzero(bits_per_row == bits)
            groups.append((rows, quantize_with_noise(h[rows], bits, noise[rows])))
        return MixedPrecisionPayload(
            num_rows=h.shape[0],
            dim=h.shape[1],
            group_bits=[q.bits for _, q in groups],
            group_rows=[rows for rows, _ in groups],
            streams=[pack_bits(q.codes, q.bits) for _, q in groups],
            zero_points=[q.zero_point for _, q in groups],
            scales=[q.scale for _, q in groups],
        )


def decode(payload: MixedPrecisionPayload) -> np.ndarray:
    """Reassemble a payload's full-precision ``(num_rows, dim)`` matrix."""
    out = np.zeros((payload.num_rows, payload.dim), dtype=np.float32)
    for bits, rows, stream, z, s in zip(
        payload.group_bits,
        payload.group_rows,
        payload.streams,
        payload.zero_points,
        payload.scales,
    ):
        codes = unpack_bits(stream, bits, rows.size * payload.dim)
        q = QuantizedTensor(codes.reshape(rows.size, payload.dim), z, s, bits)
        out[rows] = dequantize(q)
    return out
