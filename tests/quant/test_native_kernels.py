"""Compiled kernels ≡ NumPy kernels, bit for bit.

The byte-equality gate at kernel level: Philox lanes against
``numpy.random.Philox``, the compiled quantizer against the NumPy kernel
through every shard decomposition and the ``pair_shard`` replay, the
compiled decode against ``payload.decode()``.  Both tiers are driven
explicitly here (whatever ``--quant-kernel`` pins for the session), so the
NumPy reference kernel is exercised on every host that has a compiler too.

Codes, packed streams and decoded matrices are compared as bytes; zero
points and scales by value (``-0.0 == 0.0``): a row whose minimum is a zero
may report either sign on either tier (NumPy's own SIMD reduction is free
to), and no code or decoded value depends on it — which the byte comparison
of the decoded matrices checks.
"""

import ctypes

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.quant.fused import (
    DecodeWorkspace,
    FusedStepEncoder,
    _decode_native,
    decode_cluster_step,
    decode_step,
    pair_shard,
)
from repro.quant.mixed import MixedPrecisionEncoder, MixedPrecisionPayload
from repro.quant.stochastic import KeyedRounding

DIMS = (1, 7, 8, 64, 100, 128, 256)


@pytest.fixture(scope="module")
def lib(compiled_kernels):
    return compiled_kernels


@pytest.fixture(scope="module")
def tier(kernel_tier):
    return kernel_tier


# ----------------------------------------------------------------------
# Philox lanes
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    key=st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)),
    n=st.sampled_from([0, 1, 3, 4, 15, 16, 17, 31, 32, 33, 63, 64, 65, 255, 1000]),
)
def test_philox_lanes_are_numpys(lib, key, n):
    key = np.array(key, dtype=np.uint64)
    lanes = np.full(n + 1, 0xABCD, dtype=np.uint16)  # one guard lane
    lib.repro_philox_lanes(key.ctypes.data, n, lanes.ctypes.data)
    words = np.random.Philox(key=key).random_raw(-(-n // 4)) if n else np.empty(0)
    assert lanes[:n].tobytes() == words.astype("<u8").view("<u2")[:n].tobytes()
    assert lanes[n] == 0xABCD


# ----------------------------------------------------------------------
# Quantize
# ----------------------------------------------------------------------
def _rows(gen, kind, n, dim, levels):
    """``n`` rows of one content kind (see ``steps``)."""
    if kind == "constant":  # scale == 0
        return np.repeat(gen.normal(size=(n, 1)), dim, axis=1)
    if kind == "grid":  # every value on a level: frac == 0, max on the top level
        step = gen.choice([0.5, 1.0, 3.0], size=(n, 1))
        return gen.integers(0, levels + 1, size=(n, dim)) * step - 7.0
    if kind == "zeros":  # a minimum that is a zero of either sign
        signs = gen.choice([0.0, -0.0, 1.0], (n, dim))
        return np.abs(gen.normal(size=(n, dim))) * signs
    scale = {"normal": 1.0, "tiny": 1e-38, "huge": 1e37}[kind]
    return gen.normal(size=(n, dim)) * scale


@st.composite
def steps(draw, min_rows=1):
    """One exchange step: ragged pairs, per-row widths, mixed row contents.
    ``min_rows=0`` admits empty pairs (a shard of only those emits nothing,
    so the decomposition test keeps every pair non-empty, as exchanges do)."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from(DIMS))
    n_pairs = draw(st.integers(1, 40))
    counts = gen.integers(min_rows, 9, n_pairs)
    counts[gen.integers(n_pairs)] += 1  # never an empty step
    n = int(counts.sum())
    if draw(st.booleans()):  # one width per pair: payload order is cat order
        bits = np.repeat(gen.choice([2, 4, 8], n_pairs), counts)
    else:
        bits = gen.choice(draw(st.sampled_from([(2, 4, 8), (1, 2, 4, 8)])), n)
    kinds = ("normal", "constant", "grid", "zeros", "tiny", "huge")
    values = np.empty((n, dim), dtype=np.float32)
    drawn = gen.choice(kinds, n, p=[0.5, 0.1, 0.1, 0.1, 0.1, 0.1])
    for row, kind in enumerate(drawn):
        values[row] = _rows(gen, kind, 1, dim, (1 << int(bits[row])) - 1)[0]
    pairs = [(int(q) % 5, 5 + int(q)) for q in range(n_pairs)]
    return pairs, counts.astype(np.int64), bits.astype(np.int64), values, dim


def _plan(encoder, step):
    pairs, counts, bits, values, dim = step
    n = int(counts.sum())
    plan = encoder.plan_for(
        "k", pairs, counts, [(0, 0, n)], np.arange(n, dtype=np.int64), bits, dim
    )
    encoder.gather_step(plan, {0: values})
    return plan


def _assert_same_payload(got: MixedPrecisionPayload, want: MixedPrecisionPayload):
    assert (got.num_rows, got.dim) == (want.num_rows, want.dim)
    assert got.group_bits == want.group_bits
    for a, b in zip(got.group_rows, want.group_rows):
        assert np.array_equal(a, b)
    for a, b in zip(got.streams, want.streams):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(got.zero_points + got.scales, want.zero_points + want.scales):
        assert a.dtype == np.float32 and np.array_equal(a, b)


@settings(max_examples=60, deadline=None)
@given(step=steps(min_rows=0), epoch=st.integers(0, 1000))
def test_quantize_kernel_is_numpys(lib, step, epoch):
    """Same ``codes_buf``, zero points and scales from both kernels — called
    directly, on the whole step as one shard."""
    encoder = FusedStepEncoder(KeyedRounding(5))
    encoder.rounding.set_epoch(epoch)
    plan = _plan(encoder, step)
    assert plan.identity == (plan.payload_pos is None)
    (shard,) = encoder.shards_for(plan, 1)
    keys = encoder.rounding.block_keys("bwd", 1, plan.pair_src, plan.pair_dst)
    z_ref, s_ref = encoder._quantize_numpy(plan, shard, keys)
    codes_ref = plan.codes_buf.copy()
    plan.codes_buf.fill(0xEE)
    z, s = encoder._quantize_native(lib, plan, shard, keys)
    assert plan.codes_buf.tobytes() == codes_ref.tobytes()
    assert np.array_equal(z, z_ref) and np.array_equal(s, s_ref)


@settings(max_examples=40, deadline=None)
@given(step=steps())
def test_every_shard_decomposition_and_replay_emit_the_reference_bytes(
    lib, tier, step
):
    """Payloads of the compiled tier under shard counts {1, 2, 3, 7} and the
    single-pair ``pair_shard`` replay equal the NumPy tier's one-shard
    payloads, and both equal the per-message reference encoder's."""
    encoder = FusedStepEncoder(KeyedRounding(9))
    plan = _plan(encoder, step)
    coords = ("fwd", 2)
    with tier(None):
        want = encoder.quantize_pack_step(plan, coords=coords)
    with tier(lib):
        for n_shards in (1, 2, 3, 7):
            got = {}
            for shard in encoder.shards_for(plan, n_shards):
                got.update(encoder.quantize_pack_shard(plan, shard, coords=coords))
            assert list(got) == list(want)
            for pair in want:
                _assert_same_payload(got[pair], want[pair])
        for i in {0, len(plan.pairs) // 2, len(plan.pairs) - 1}:
            replay = encoder.quantize_pack_shard(plan, pair_shard(plan, i), coords=coords)
            _assert_same_payload(replay[plan.pairs[i]], want[plan.pairs[i]])
    pairs, counts, bits, values, _ = step
    reference = MixedPrecisionEncoder(KeyedRounding(9))
    lo = 0
    for pair, count in zip(pairs, counts):
        block = ("fwd", 2, *pair)
        span = slice(lo, lo + count)
        _assert_same_payload(want[pair], reference.encode(values[span], bits[span], block))
        lo += count


# ----------------------------------------------------------------------
# Decode
# ----------------------------------------------------------------------
@st.composite
def mailboxes(draw):
    """Receivers' mailboxes of per-message payloads: every width, ragged
    (non-byte-aligned) groups, single- and multi-group payloads."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from((1, 3, 7, 8, 19, 64)))
    encoder = MixedPrecisionEncoder(KeyedRounding(1))
    collects = {}
    for dst in range(draw(st.integers(1, 3))):
        collects[dst] = {}
        for src in range(draw(st.integers(0, 4))):
            n = int(gen.integers(1, 12))
            widths = (1, 2, 4, 8)
            if gen.random() < 0.4:  # a single-group payload
                widths = (int(gen.choice(widths)),)
            values = gen.normal(size=(n, dim)).astype(np.float32)
            block = ("fwd", 0, src, dst)
            collects[dst][src] = encoder.encode(values, gen.choice(widths, n), block)
    return collects


@settings(max_examples=60, deadline=None)
@given(collects=mailboxes(), use_workspace=st.booleans())
def test_decode_is_payload_decode(lib, tier, collects, use_workspace):
    workspace = DecodeWorkspace() if use_workspace else None
    with tier(lib):
        got = decode_cluster_step(collects, workspace=workspace)
    with tier(None):
        reference = decode_cluster_step(collects)
    assert list(got) == list(collects)
    for dst, mailbox in collects.items():
        assert list(got[dst]) == list(mailbox)  # collection order survives
        for src, payload in mailbox.items():
            assert got[dst][src].dtype == np.float32
            assert got[dst][src].tobytes() == payload.decode().tobytes()
            assert reference[dst][src].tobytes() == payload.decode().tobytes()


def _payload(bits=4, n=5, dim=6):
    gen = np.random.default_rng(0)
    values = gen.normal(size=(n, dim)).astype(np.float32)
    encoder = MixedPrecisionEncoder(KeyedRounding(0))
    return encoder.encode(values, np.full(n, bits), ("fwd", 0, 0, 1))


def test_native_decode_checks_what_the_kernel_trusts(lib):
    """A short stream, a row index outside the payload, an unknown width or
    short metadata must raise as they do on the NumPy tier — never reach C."""

    def decode(payload):
        flat = [(1, 0, payload)]
        return _decode_native(lib, {1: {0: payload}}, flat, payload.dim, None)

    short = _payload()
    short.streams[0] = short.streams[0][:-1]
    with pytest.raises(ValueError, match="stream too short"):
        decode(short)
    wild = _payload()
    wild.group_rows[0] = wild.group_rows[0] + 1
    with pytest.raises(IndexError, match="outside its payload"):
        decode(wild)
    odd = _payload()
    odd.group_bits[0] = 3
    with pytest.raises(ValueError, match="unsupported bit-width"):
        decode(odd)
    bare = _payload()
    bare.scales[0] = bare.scales[0][:-1]
    with pytest.raises(ValueError, match="per-row"):
        decode(bare)
    uncovered = _payload()
    uncovered.num_rows += 1
    with pytest.raises(ValueError, match="do not cover"):
        decode(uncovered)
    padded = _payload()  # a longer stream is trimmed, as unpack_bits does
    want = padded.decode()
    padded.streams[0] = np.concatenate([padded.streams[0], np.zeros(3, np.uint8)])
    assert decode(padded)[1][0].tobytes() == want.tobytes()


def test_native_decode_accepts_views_and_other_integer_indices(lib, tier):
    """Shared-memory payloads are views at odd offsets; row indices may be
    any integer dtype — normalized, not trusted."""
    payload = _payload(bits=2, n=7, dim=5)
    want = payload.decode()
    backing = np.zeros(payload.streams[0].size + 3, dtype=np.uint8)
    backing[3:] = payload.streams[0]
    payload.streams[0] = backing[3:]
    payload.group_rows[0] = payload.group_rows[0].astype(np.int32)
    with tier(lib):
        assert decode_step({0: payload})[0].tobytes() == want.tobytes()


def test_loader_declares_every_entry_point(lib):
    """``ctypes`` would otherwise guess ``int`` arguments and truncate
    64-bit pointers and sizes."""
    assert isinstance(lib, ctypes.CDLL)
    for name in ("repro_philox_lanes", "repro_quantize_pairs", "repro_decode_groups"):
        entry = getattr(lib, name)
        assert entry.argtypes and entry.restype is None
