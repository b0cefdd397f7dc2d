"""Mixed-precision message encoding (paper implementation, Sec. 5).

The adaptive assigner may give every message (row) its own bit-width from
B = {2, 4, 8}.  Following the paper: rows are *grouped by bit-width*, each
group is quantized at its single bit-width, groups are bit-packed and
concatenated into one byte array for transmission, and the receiver
restores full-precision rows using a bit-retrieval index (here: the row
indices of each group).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.quant.packing import pack_bits, unpack_bits
from repro.quant.stochastic import (
    METADATA_BYTES_PER_ROW,
    QuantizedTensor,
    as_rounding,
    dequantize,
    quantize_with_noise,
)
from repro.utils.validation import check_array

__all__ = ["MixedPrecisionPayload", "MixedPrecisionEncoder"]

# Per-group wire header: bit-width tag + row count (uint32 each, modelled).
GROUP_HEADER_BYTES = 8


@dataclass
class MixedPrecisionPayload:
    """One encoded transfer: concatenated per-bit-width groups.

    Attributes
    ----------
    num_rows / dim:
        Logical shape of the original float32 matrix.
    group_bits:
        Bit-width of each group, ascending.
    group_rows:
        For each group, the original row indices it carries (the
        bit-retrieval index of the paper).
    streams:
        For each group, the packed byte stream.
    zero_points / scales:
        Per-group per-row metadata.
    """

    num_rows: int
    dim: int
    group_bits: list[int]
    group_rows: list[np.ndarray]
    streams: list[np.ndarray]
    zero_points: list[np.ndarray]
    scales: list[np.ndarray]

    @property
    def wire_bytes(self) -> int:
        """Total transfer size: packed payloads + per-row metadata + headers."""
        total = 0
        for stream, rows in zip(self.streams, self.group_rows):
            total += stream.nbytes + rows.size * METADATA_BYTES_PER_ROW
            total += GROUP_HEADER_BYTES
        return total

    @property
    def float_bytes(self) -> int:
        """Size of the same transfer at full float32 precision."""
        return self.num_rows * self.dim * 4

    def decode(self) -> np.ndarray:
        """Reassemble the full-precision ``(num_rows, dim)`` matrix."""
        out = np.zeros((self.num_rows, self.dim), dtype=np.float32)
        for bits, rows, stream, z, s in zip(
            self.group_bits, self.group_rows, self.streams, self.zero_points, self.scales
        ):
            codes = unpack_bits(stream, bits, rows.size * self.dim).reshape(
                rows.size, self.dim
            )
            q = QuantizedTensor(codes=codes, zero_point=z, scale=s, bits=bits)
            out[rows] = dequantize(q)
        return out


class MixedPrecisionEncoder:
    """Encode float32 message matrices with per-row bit-widths, one
    message at a time — the plain statement of the wire format, which the
    step-fused encoder (:mod:`repro.quant.fused`) reproduces byte for byte.

    ``rounding`` is a :class:`~repro.quant.stochastic.KeyedRounding`: each
    message's noise is a pure function of its block coordinates, which
    callers supply per encode via ``block``.
    """

    def __init__(self, rounding) -> None:
        self.rounding = as_rounding(rounding)

    def encode(
        self,
        h: np.ndarray,
        bits_per_row: np.ndarray,
        block: tuple[str, int, int, int],
    ) -> MixedPrecisionPayload:
        """Quantize row ``i`` of ``h`` at ``bits_per_row[i]`` bits.

        Rows are grouped by bit-width; each group becomes one packed stream.
        ``block`` names the message's ``(phase, layer, src, dst)``
        coordinates: the noise for the whole message is one keyed draw in
        row order, sliced per group.

        Examples
        --------
        >>> import numpy as np
        >>> from repro.quant.stochastic import KeyedRounding
        >>> enc = MixedPrecisionEncoder(KeyedRounding(0))
        >>> h = np.random.default_rng(1).normal(size=(6, 4)).astype(np.float32)
        >>> bits = np.array([2, 8, 2, 4, 8, 2])
        >>> payload = enc.encode(h, bits, block=("fwd", 0, 0, 1))
        >>> payload.decode().shape
        (6, 4)
        """
        h = np.asarray(h, dtype=np.float32)
        check_array(h, name="h", ndim=2)
        bits_per_row = np.asarray(bits_per_row, dtype=np.int64)
        if bits_per_row.shape != (h.shape[0],):
            raise ValueError(
                f"bits_per_row must have one entry per row: {bits_per_row.shape} "
                f"vs {h.shape[0]} rows"
            )

        noise_full = self.rounding.block_noise(*block, shape=h.shape)

        group_bits: list[int] = []
        group_rows: list[np.ndarray] = []
        streams: list[np.ndarray] = []
        zero_points: list[np.ndarray] = []
        scales: list[np.ndarray] = []
        for bits in sorted(np.unique(bits_per_row).tolist()):
            rows = np.flatnonzero(bits_per_row == bits)
            # Noise indexed by original row position: the same values the
            # fused encoder's per-pair keyed draw assigns, however the
            # rows are grouped.
            q = quantize_with_noise(h[rows], int(bits), noise_full[rows])
            group_bits.append(int(bits))
            group_rows.append(rows)
            streams.append(pack_bits(q.codes, int(bits)))
            zero_points.append(q.zero_point)
            scales.append(q.scale)
        return MixedPrecisionPayload(
            num_rows=h.shape[0],
            dim=h.shape[1],
            group_bits=group_bits,
            group_rows=group_rows,
            streams=streams,
            zero_points=zero_points,
            scales=scales,
        )
