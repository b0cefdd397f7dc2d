"""Stochastic integer quantization (paper Eqns. 4–5, Theorem 1): its noise.

For a message vector ``h`` and bit-width ``b``:

* zero-point ``Z = min(h)``;
* scale ``S = (max(h) - min(h)) / (2^b - 1)``;
* quantized value ``q = round_st((h - Z) / S)`` where ``round_st`` rounds up
  with probability equal to the fractional part (stochastic rounding);
* de-quantization ``ĥ = q * S + Z``.

Stochastic rounding makes ``E[ĥ] = h`` (unbiased) with per-element variance
at most ``S²/6`` under the uniform-fraction assumption, giving Theorem 1's
vector variance ``D · S² / 6``.  :mod:`repro.quant.fused` runs this
arithmetic for a whole exchange step; ``tests/reference/wire.py`` states it
one message at a time.

**Rounding noise.**  The encoder takes its noise from :class:`KeyedRounding`,
which makes the noise of each quantized message block a *pure function of
its coordinates*: a counter-based Philox generator keyed on ``(run_seed,
epoch, phase, layer, src, dst)``.  Encode jobs then produce
bitwise-identical bytes regardless of which thread or process runs them or
in what order they retire — determinism is a property of data coordinates
rather than schedule, so the transport may fan encode and decode work
across any number of workers, replay a dropped message and resume from a
checkpoint without carrying a generator position.

**Keyed noise is 16-bit.**  A block of ``n`` elements takes the first
``n`` little-endian 16-bit lanes ``k`` of its keyed stream
(``random_raw(⌈n/4⌉)``) as ``u = (k + ½)·2⁻¹⁶`` in float32 — exact, and
strictly inside (0, 1).  An element with fractional part ``f`` rounds up
when ``u < f``, i.e. with probability ``⌈f·2¹⁶ − ½⌉·2⁻¹⁶``: within 2⁻¹⁷ of
``f``, and zero-mean over ``f``.  Rounding is therefore unbiased to
``|E[ĥ] − h| ≤ 2⁻¹⁷·S`` per element — more than four orders of magnitude
below the ``S/√6`` rounding noise of Theorem 1 — for a fifth of the cost
of a 53-bit float64 draw.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

__all__ = ["block_keys", "KeyedRounding", "as_rounding"]

# Wire overhead per message vector: zero-point + scale, both float32.
METADATA_BYTES_PER_ROW = 8

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15  # 2^64 / phi, the usual odd sequencing constant

_PHASE_IDS = {"fwd": 0, "bwd": 1}
# Finalization constants of the two Philox key words.
_KEY_WORD_0 = 0xA5A5A5A5A5A5A5A5
_KEY_WORD_1 = 0x3C3C3C3C3C3C3C3C


def _mix64(z: int) -> int:
    """SplitMix64 finalizer: a full-avalanche 64-bit hash step."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _mix64_vec(z: np.ndarray) -> np.ndarray:
    """:func:`_mix64` over a uint64 array (array arithmetic wraps mod 2^64)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def block_keys(
    run_seed: int, epoch: int, phase: str, layer: int, src, dst
) -> np.ndarray:
    """Philox key words of the message blocks ``(src[i], dst[i])`` of one
    (phase, layer) step: ``(n, 2)`` uint64.

    The coordinates are absorbed one by one through SplitMix64 mixing, then
    finalized into the two 64-bit words Philox4x64 takes as its key.  Two
    blocks differing in *any* coordinate get statistically independent
    streams; the same coordinates always reproduce the same stream.  The
    ``(run_seed, epoch, phase, layer)`` prefix is absorbed once in Python
    integers (platform- and order-stable), ``src`` and ``dst`` in one
    vectorised pass.
    """
    h = _mix64(int(run_seed) ^ _GOLDEN)
    for coord in (epoch, _PHASE_IDS[phase], layer):
        h = _mix64(h ^ _mix64((int(coord) + _GOLDEN) & _MASK64))
    hv = np.uint64(h)
    for coords in (src, dst):
        # int64 -> uint64 wraps like the prefix's ``& _MASK64``.
        c = np.atleast_1d(np.asarray(coords, dtype=np.int64)).astype(np.uint64)
        hv = _mix64_vec(hv ^ _mix64_vec(c + np.uint64(_GOLDEN)))
    return np.stack(
        [
            _mix64_vec(hv ^ np.uint64(_KEY_WORD_0)),
            _mix64_vec(hv ^ np.uint64(_KEY_WORD_1)),
        ],
        axis=1,
    )


_LITTLE_ENDIAN = sys.byteorder == "little"
_LANE_SCALE = np.float32(2.0**-16)
_LANE_HALF = np.float32(2.0**-17)


def _lanes16(words: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` little-endian 16-bit lanes of native uint64 ``words``
    (lane ``4·i + j`` is bits ``16·j .. 16·j + 15`` of word ``i``)."""
    if _LITTLE_ENDIAN:
        return words.view("<u2")[:n]  # the words' bytes already are '<u8'
    lanes = np.empty((words.size, 4), dtype=np.uint16)
    for j in range(4):
        lanes[:, j] = (words >> np.uint64(16 * j)) & np.uint64(0xFFFF)
    return lanes.reshape(-1)[:n]


class KeyedRounding:
    """Counter-based rounding noise keyed on message-block coordinates.

    Each block's noise is the leading 16-bit lanes (see the module
    docstring) of a Philox stream keyed on ``(run_seed, epoch, phase,
    layer, src, dst)`` — a pure function of *what* is being quantized,
    never of *when* or *where* it runs.  The per-epoch coordinate comes
    from :meth:`set_epoch`, which exchanges call from their
    ``on_epoch_start`` hook; every (phase, layer, src, dst) block is
    encoded exactly once per epoch, so blocks never share a stream.

    One bit generator per thread is re-keyed in place for every block
    (assigning ``state`` — the same stream a freshly constructed
    ``Philox(key=...)`` yields, at a tenth of the cost).
    """

    def __init__(self, run_seed: int) -> None:
        self.run_seed = int(run_seed)
        self.epoch = 0
        self._local = threading.local()

    def set_epoch(self, epoch: int) -> None:
        self.epoch = int(epoch)

    def state_dict(self) -> dict:
        """Empty: keyed noise is stateless (epoch is re-set every epoch)."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        if state:
            raise ValueError(
                f"checkpoint carries rounding state {sorted(state)}: it was "
                'written under the removed "stream" rounding mode (a '
                "sequential generator position), which keyed rounding "
                "cannot resume"
            )

    def block_keys(self, phase: str, layer: int, src, dst) -> np.ndarray:
        """``(n, 2)`` Philox key words of the blocks ``(src[i], dst[i])``
        of one (phase, layer) step at the current epoch."""
        return block_keys(self.run_seed, self.epoch, phase, layer, src, dst)

    def _rekeyed(self, key) -> np.random.Philox:
        """This thread's generator, rewound to the origin of ``key``'s stream."""
        local = self._local
        philox = getattr(local, "philox", None)
        if philox is None:
            philox = local.philox = np.random.Philox(key=0)
            local.origin = philox.state  # counter 0, empty buffer
        local.origin["state"]["key"] = key
        philox.state = local.origin
        return philox

    def fill_noise(self, keys, sizes, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` (C-contiguous float32) with the rounding noise of
        consecutive blocks: block ``i`` has Philox key words ``keys[i]``
        and covers the next ``sizes[i]`` elements of ``out`` in row-major
        order (the sizes must sum to ``out.size``).

        Every block draws whole words and drops the lanes past its size,
        so a block never consumes — or leaks — a neighbour's lanes.
        """
        lanes = np.empty(out.size, dtype=np.uint16)
        offset = 0
        for key, n in zip(keys, sizes):
            words = self._rekeyed(key).random_raw(-(-n // 4))
            lanes[offset : offset + n] = _lanes16(words, n)
            offset += n
        np.multiply(lanes.reshape(out.shape), _LANE_SCALE, out=out)
        out += _LANE_HALF  # (k + 1/2) * 2^-16, exact in float32
        return out


def as_rounding(source) -> KeyedRounding:
    """Check an encoder's noise source: a :class:`KeyedRounding`, or a
    typed error (plain generators were the removed sequential-stream mode).
    """
    if isinstance(source, KeyedRounding):
        return source
    raise TypeError(
        "rounding source must be a KeyedRounding (sequential-stream noise "
        f"from a numpy Generator was removed), got {type(source).__name__}"
    )
