"""Keyed (counter-based) rounding noise: determinism from coordinates.

The PR-5 contract: under :class:`KeyedRounding`, the stochastic-rounding
noise of every quantized message block is a pure function of
``(run_seed, epoch, phase, layer, src, dst)`` — never of execution order,
thread placement or how the step was sharded.  These tests pin the key
derivation, the policy API, and the bitwise equivalence between the
per-pair and fused encoders (which the trainer-level equivalence suites
build on).
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quant import fused as fused_module
from repro.quant.fused import FusedStepEncoder
from repro.quant.mixed import MixedPrecisionEncoder
from repro.quant.stochastic import (
    KeyedRounding,
    as_rounding,
    block_key,
    block_keys,
)
from repro.quant.theory import quantization_variance


# ----------------------------------------------------------------------
# Key derivation
# ----------------------------------------------------------------------
def test_block_key_deterministic_and_coordinate_sensitive():
    base = block_key(7, 3, "fwd", 1, 0, 2)
    assert base == block_key(7, 3, "fwd", 1, 0, 2)
    # Every coordinate matters, including direction and src/dst order.
    variants = [
        block_key(8, 3, "fwd", 1, 0, 2),
        block_key(7, 4, "fwd", 1, 0, 2),
        block_key(7, 3, "bwd", 1, 0, 2),
        block_key(7, 3, "fwd", 2, 0, 2),
        block_key(7, 3, "fwd", 1, 2, 0),
        block_key(7, 3, "fwd", 1, 0, 3),
    ]
    assert len({base, *variants}) == len(variants) + 1
    for w0, w1 in (base, *variants):
        assert 0 <= w0 < 2**64 and 0 <= w1 < 2**64


def test_block_key_rejects_unknown_phase():
    with pytest.raises(KeyError):
        block_key(0, 0, "sideways", 0, 0, 1)


_COORD = st.integers(min_value=0, max_value=2**31 - 1)


@settings(max_examples=60, deadline=None)
@given(
    run_seed=st.integers(min_value=0, max_value=2**63 - 1),
    epoch=_COORD,
    phase=st.sampled_from(["fwd", "bwd"]),
    layer=st.integers(min_value=0, max_value=64),
    pairs=st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=8),
)
def test_vectorised_keys_equal_scalar_block_key(run_seed, epoch, phase, layer, pairs):
    src, dst = (np.asarray(c, dtype=np.int64) for c in zip(*pairs))
    keys = block_keys(run_seed, epoch, phase, layer, src, dst)
    assert keys.shape == (len(pairs), 2) and keys.dtype == np.uint64
    expected = [block_key(run_seed, epoch, phase, layer, s, d) for s, d in pairs]
    assert [tuple(int(w) for w in row) for row in keys] == expected


@settings(max_examples=30, deadline=None)
@given(
    keys=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2**64 - 1),
            st.integers(min_value=0, max_value=2**64 - 1),
        ),
        min_size=1,
        max_size=4,
    ),
    n=st.integers(min_value=1, max_value=67),
)
def test_rekeyed_generator_equals_freshly_constructed(keys, n):
    """Assigning ``state`` rewinds to the key's origin: the reused bit
    generator yields the stream ``Philox(key=...)`` starts with, whatever
    it drew before."""
    rounding = KeyedRounding(0)
    for key in keys:
        key = np.asarray(key, dtype=np.uint64)
        reused = rounding._rekeyed(key)
        assert np.array_equal(reused.random_raw(n), np.random.Philox(key=key).random_raw(n))


# ----------------------------------------------------------------------
# Policy API
# ----------------------------------------------------------------------
def test_keyed_noise_is_order_and_form_independent():
    rounding = KeyedRounding(11)
    rounding.set_epoch(5)
    a = rounding.block_noise("fwd", 0, 1, 2, shape=(6, 4))
    out = np.empty((6, 4), dtype=np.float32)
    rounding.block_noise("fwd", 0, 1, 2, out=out)
    assert a.dtype == np.float32 and np.array_equal(a, out)
    # Drawing other blocks in between must not perturb a block's stream.
    rounding.block_noise("bwd", 2, 0, 1, shape=(3, 3))
    assert np.array_equal(a, rounding.block_noise("fwd", 0, 1, 2, shape=(6, 4)))
    # The epoch is a coordinate.
    rounding.set_epoch(6)
    assert not np.array_equal(a, rounding.block_noise("fwd", 0, 1, 2, shape=(6, 4)))


def test_block_noise_is_the_leading_16_bit_lanes_of_the_keyed_stream():
    """The definition, spelled out: lane ``4i + j`` is bits ``16j..16j+15``
    of word ``i`` of ``Philox(key).random_raw``; ``u = (k + 1/2) * 2^-16``."""
    rounding = KeyedRounding(3)
    rounding.set_epoch(2)
    key = np.asarray(block_key(3, 2, "bwd", 1, 4, 0), dtype=np.uint64)
    words = [int(w) for w in np.random.Philox(key=key).random_raw(3)]
    lanes = [(w >> (16 * j)) & 0xFFFF for w in words for j in range(4)]
    noise = rounding.block_noise("bwd", 1, 4, 0, shape=(11,))
    assert noise.tolist() == [(k + 0.5) / 65536.0 for k in lanes[:11]]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 63, 64, 65])
def test_block_noise_forms_agree_and_odd_blocks_leak_no_lanes(n):
    """``shape=`` == ``out=`` for every n mod 4, and a block is a prefix of
    any longer draw under the same key — it consumes whole words and
    drops the spare lanes rather than handing them to a neighbour."""
    rounding = KeyedRounding(5)
    by_shape = rounding.block_noise("fwd", 0, 2, 1, shape=(n,))
    neighbours = np.full(n + 8, -1.0, dtype=np.float32)
    rounding.block_noise("fwd", 0, 2, 1, out=neighbours[4 : 4 + n])
    assert np.array_equal(by_shape, neighbours[4 : 4 + n])
    assert (neighbours[:4] == -1).all() and (neighbours[4 + n :] == -1).all()
    longer = rounding.block_noise("fwd", 0, 2, 1, shape=(n + 5,))
    assert np.array_equal(longer[:n], by_shape)
    # A different pair under the same step starts its own stream.
    other = rounding.block_noise("fwd", 0, 2, 3, shape=(n + 5,))
    assert not np.array_equal(other, longer)


@pytest.mark.parametrize("n", [1, 3, 4, 17, 256, 1001])
def test_big_endian_lane_extraction_matches_little_endian_view(monkeypatch, n):
    """Lane order is part of the noise definition, not a host detail: the
    shift-and-mask path a big-endian host takes must yield the lanes the
    ``'<u2'`` view yields here (forced, the way ``test_packing.py`` forces
    the big-endian ``pack_bits`` fallback)."""
    import repro.quant.stochastic as stochastic

    rounding = KeyedRounding(8)
    view = rounding.block_noise("fwd", 1, 0, 1, shape=(n,))
    monkeypatch.setattr(stochastic, "_LITTLE_ENDIAN", False)
    shifts = rounding.block_noise("fwd", 1, 0, 1, shape=(n,))
    assert np.array_equal(view, shifts)


# ----------------------------------------------------------------------
# Theorem 1 under 16-bit noise (ROADMAP 4a)
# ----------------------------------------------------------------------
_ALL_U = ((np.arange(65536, dtype=np.float64) + 0.5) / 65536.0).astype(np.float32)


def test_noise_lies_strictly_inside_the_unit_interval():
    assert _ALL_U[0] > 0.0 and _ALL_U[-1] < 1.0
    noise = KeyedRounding(1).block_noise("fwd", 0, 0, 1, shape=(4096, 16))
    assert (noise > 0.0).all() and (noise < 1.0).all()
    assert np.isin(noise, _ALL_U).all()


@settings(max_examples=200, deadline=None)
@given(frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True, width=32))
def test_round_up_probability_is_within_2_pow_minus_17_of_frac(frac):
    """Exhaustive over the 2^16 equiprobable lanes: P(u < frac) is frac
    quantised to a multiple of 2^-16, so |bias| <= 2^-17 code units — the
    2^-17 * S bound of the ``stochastic.py`` docstring."""
    p_up = np.count_nonzero(_ALL_U < np.float32(frac)) / 65536.0
    assert abs(p_up - float(np.float32(frac))) <= 2.0**-17


def _decoded_samples(h, bits, reps):
    """``reps`` independent keyed encodes of ``h`` (the epoch is the key)."""
    rounding = KeyedRounding(99)
    encoder = MixedPrecisionEncoder(rounding)
    bits_per_row = np.full(h.shape[0], bits)
    out = np.empty((reps, *h.shape), dtype=np.float32)
    for epoch in range(reps):
        rounding.set_epoch(epoch)
        out[epoch] = encoder.encode(h, bits_per_row, block=("fwd", 0, 0, 1)).decode()
    return out


@pytest.mark.parametrize("bits", [2, 4, 8])
def test_keyed_rounding_is_unbiased_to_the_stated_bound(bits):
    h = np.random.default_rng(42).normal(size=(4, 8)).astype(np.float32)
    reps = 3000
    bias = np.abs(_decoded_samples(h, bits, reps).mean(axis=0) - h)
    scale = ((h.max(axis=1) - h.min(axis=1)) / (2**bits - 1))[:, None]
    # Stated bias bound + 5 sigma of the mean's sampling error (per-element
    # variance is at most S^2 / 4) + float32 round-off of the decode.
    tol = 2.0**-17 * scale + 5 * scale / (2 * np.sqrt(reps)) + 1e-6
    assert (bias <= tol).all()


@pytest.mark.parametrize("bits", [2, 4, 8])
def test_keyed_rounding_variance_bounded_by_theorem1(bits):
    h = np.random.default_rng(7).normal(size=(3, 32)).astype(np.float32)
    # Vector variance = sum over elements of per-element variance.
    emp_var = _decoded_samples(h, bits, 2000).var(axis=0).sum(axis=1)
    # D * S^2 / 6, with 20% slack for sampling noise.
    assert (emp_var <= quantization_variance(h, bits) * 1.2).all()


def test_as_rounding_coercion():
    """One noise policy: a KeyedRounding passes through, and the removed
    sequential-stream source (a plain generator) is a typed error at every
    constructor that takes a rounding."""
    keyed = KeyedRounding(3)
    assert as_rounding(keyed) is keyed
    for junk in (np.random.default_rng(0), 42):
        for take in (as_rounding, MixedPrecisionEncoder, FusedStepEncoder):
            with pytest.raises(TypeError, match="KeyedRounding"):
                take(junk)


def test_keyed_encode_requires_block_coordinates():
    enc = MixedPrecisionEncoder(KeyedRounding(0))
    h = np.zeros((4, 3), dtype=np.float32)
    with pytest.raises(TypeError, match="block"):
        enc.encode(h, np.full(4, 2))
    fused = FusedStepEncoder(KeyedRounding(0))
    plan = fused.plan_for(
        "k",
        [(0, 1)],
        np.array([4], dtype=np.int64),
        [(0, 0, 4)],
        np.arange(4, dtype=np.int64),
        np.full(4, 2, dtype=np.int64),
        3,
    )
    fused.gather_step(plan, {0: h})
    with pytest.raises(TypeError, match="coords"):
        fused.quantize_pack_step(plan)


# ----------------------------------------------------------------------
# Encoder equivalence and order independence
# ----------------------------------------------------------------------
def _synthetic_step(seed, rows=24, dim=8):
    """A 3-source, 4-destination step in the topology builder's layout:
    pairs device-major (sources ascending, peers ascending within one),
    device blocks contiguous in cat order."""
    gen = np.random.default_rng(seed)
    pairs = [(0, 1), (0, 2), (1, 0), (1, 3), (2, 1), (2, 3)]
    counts = gen.integers(5, rows, len(pairs)).astype(np.int64)
    n = int(counts.sum())
    values = {r: gen.normal(size=(64, dim)).astype(np.float32) for r in range(3)}
    bounds = np.concatenate([[0], np.cumsum(counts)])
    cat_idx = np.concatenate([gen.integers(0, 64, c) for c in counts]).astype(np.int64)
    bits_cat = gen.choice([2, 4, 8], size=n)
    blocks = []
    for rank in range(3):
        spans = [i for i, (src, _) in enumerate(pairs) if src == rank]
        blocks.append((rank, int(bounds[spans[0]]), int(bounds[spans[-1] + 1])))
    return pairs, counts, bounds, cat_idx, bits_cat, values, blocks, dim


def test_fused_keyed_matches_per_pair_keyed_bitwise():
    pairs, counts, bounds, cat_idx, bits_cat, values, blocks, dim = _synthetic_step(3)
    fused = FusedStepEncoder(KeyedRounding(17))
    plan = fused.plan_for("k", pairs, counts, blocks, cat_idx, bits_cat, dim)
    payloads = fused.encode_step(plan, values, coords=("fwd", 1))

    per_pair = MixedPrecisionEncoder(KeyedRounding(17))
    for i, (src, dst) in enumerate(pairs):
        h = values[src][cat_idx[bounds[i] : bounds[i + 1]]]
        expected = per_pair.encode(
            h, bits_cat[bounds[i] : bounds[i + 1]], block=("fwd", 1, src, dst)
        )
        got = payloads[(src, dst)]
        assert got.group_bits == expected.group_bits
        for a, b in zip(got.streams, expected.streams):
            assert np.array_equal(a, b)
        for a, b in zip(got.zero_points, expected.zero_points):
            assert np.array_equal(a, b)
        for a, b in zip(got.scales, expected.scales):
            assert np.array_equal(a, b)


def _sharded_bytes(encoder, plan, values, n_shards):
    """Encode ``values`` shard by shard in a shuffled order; every pair's
    bytes, snapshotted as each shard's payloads come back."""
    encoder.gather_step(plan, values)
    shards = encoder.shards_for(plan, n_shards)
    assert 1 <= len(shards) <= min(n_shards, len(plan.pairs))
    # Shards tile the pair list exactly once.
    spans = sorted((s.pair_lo, s.pair_hi) for s in shards)
    assert spans[0][0] == 0 and spans[-1][1] == len(plan.pairs)
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    shuffled = list(shards)
    random.Random(n_shards).shuffle(shuffled)
    got = {}
    for shard in shuffled:
        got.update(
            _pair_bytes(encoder.quantize_pack_shard(plan, shard, coords=("bwd", 2)))
        )
    return got


@pytest.mark.parametrize("n_shards", [2, 3, 8])
def test_sharded_encode_is_bitwise_shard_and_order_invariant(n_shards, monkeypatch):
    pairs, counts, _, cat_idx, bits_cat, values, blocks, dim = _synthetic_step(5)
    whole = FusedStepEncoder(KeyedRounding(9))
    plan_w = whole.plan_for("k", pairs, counts, blocks, cat_idx, bits_cat, dim)
    reference = _pair_bytes(whole.encode_step(plan_w, values, coords=("bwd", 2)))

    sharded = FusedStepEncoder(KeyedRounding(9))
    plan_s = sharded.plan_for("k", pairs, counts, blocks, cat_idx, bits_cat, dim)
    assert _sharded_bytes(sharded, plan_s, values, n_shards) == reference

    # Mutation check: flip one pair's key and the comparison must fail.
    genuine = sharded.rounding.block_keys

    def flipped(phase, layer, src, dst):
        keys = genuine(phase, layer, src, dst).copy()
        keys[np.asarray(src) == pairs[0][0], 0] ^= np.uint64(1)
        return keys

    monkeypatch.setattr(sharded.rounding, "block_keys", flipped)
    assert _sharded_bytes(sharded, plan_s, values, n_shards) != reference


def _pair_bytes(payloads):
    return {
        pair: (
            [s.tobytes() for s in p.streams],
            [z.tobytes() for z in p.zero_points],
            [s.tobytes() for s in p.scales],
        )
        for pair, p in payloads.items()
    }


@pytest.mark.parametrize("chunk_rows", [1, 7, 4096])
@pytest.mark.parametrize("n_shards", [1, 2, 3, 7])
def test_pair_bytes_independent_of_shards_and_chunk_size(
    monkeypatch, n_shards, chunk_rows
):
    """A pair is the noise atom: however the step is cut into shards and
    the shards into kernel chunks, every pair's bytes are those of the
    per-pair encoder."""
    pairs, counts, bounds, cat_idx, bits_cat, values, blocks, dim = _synthetic_step(4)
    per_pair = MixedPrecisionEncoder(KeyedRounding(21))
    reference = {
        (src, dst): per_pair.encode(
            values[src][cat_idx[bounds[i] : bounds[i + 1]]],
            bits_cat[bounds[i] : bounds[i + 1]],
            block=("fwd", 0, src, dst),
        )
        for i, (src, dst) in enumerate(pairs)
    }

    monkeypatch.setattr(fused_module, "_QUANT_CHUNK_ROWS", chunk_rows)
    enc = FusedStepEncoder(KeyedRounding(21))
    plan = enc.plan_for("k", pairs, counts, blocks, cat_idx, bits_cat, dim)
    enc.gather_step(plan, values)
    got = {}
    for shard in enc.shards_for(plan, n_shards):
        got.update(enc.quantize_pack_shard(plan, shard, coords=("fwd", 0)))
    assert _pair_bytes(got) == _pair_bytes(reference)


def test_empty_pair_between_neighbours_is_invisible():
    gen = np.random.default_rng(3)
    dim = 7
    counts = np.array([1, 13, 0, 64, 5], dtype=np.int64)
    pairs = [(0, q + 1) for q in range(counts.size)]
    n = int(counts.sum())
    values = gen.normal(size=(128, dim)).astype(np.float32)
    cat_idx = gen.integers(0, 128, n)
    bits_cat = gen.choice([2, 4, 8], size=n)
    fused = FusedStepEncoder(KeyedRounding(1))
    plan = fused.plan_for("k", pairs, counts, [(0, 0, n)], cat_idx, bits_cat, dim)
    got = fused.encode_step(plan, {0: values}, coords=("fwd", 0))

    per_pair = MixedPrecisionEncoder(KeyedRounding(1))
    bounds = np.concatenate([[0], np.cumsum(counts)])
    reference = {
        pair: per_pair.encode(
            values[cat_idx[bounds[i] : bounds[i + 1]]],
            bits_cat[bounds[i] : bounds[i + 1]],
            block=("fwd", 0, *pair),
        )
        for i, pair in enumerate(pairs)
    }
    assert _pair_bytes(got) == _pair_bytes(reference)
    assert got[(0, 3)].num_rows == 0
