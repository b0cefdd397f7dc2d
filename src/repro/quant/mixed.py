"""The mixed-precision wire payload (paper implementation, Sec. 5).

The adaptive assigner may give every message (row) its own bit-width from
B = {2, 4, 8}.  Following the paper: rows are *grouped by bit-width*, each
group is quantized at its single bit-width, groups are bit-packed and
concatenated into one byte array for transmission, and the receiver
restores full-precision rows using a bit-retrieval index (here: the row
indices of each group).  :mod:`repro.quant.fused` builds these payloads as
views of a step plan's wire, and its receivers decode that wire
(:func:`~repro.quant.fused.decode_cluster_step`); the payload objects are
what the transport carries and what an exchange audits on delivery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.quant.stochastic import METADATA_BYTES_PER_ROW

__all__ = ["MixedPrecisionPayload"]

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
