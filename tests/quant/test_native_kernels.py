"""Compiled kernels ≡ NumPy / scipy kernels, bit for bit.

The byte-equality gate at kernel level: Philox lanes against
``numpy.random.Philox``, the compiled quantize + pack against the NumPy
kernel and packer through every shard decomposition and the ``pair_shard``
replay, the compiled decode against ``payload.decode()`` — for foreign
payloads and through a plan's :class:`DecodeIndex` straight into halo rows
or an accumulated block — the compiled CSR product against scipy's
``csr_matvecs``, and the compiled post stage (LayerNorm → ReLU → dropout,
both ways) against the engine's NumPy sequence.  Both tiers are driven
explicitly here (whatever ``--quant-kernel`` pins for the test run), so the
NumPy reference kernel is exercised on every host that has a compiler too.

Wire bytes and decoded matrices are compared as bytes; zero points and
scales by value (``-0.0 == 0.0``): a row whose minimum is a zero may report
either sign on either tier (NumPy's own SIMD reduction is free to), and no
code or decoded value depends on it — which the byte comparison of the
decoded matrices checks.  Payloads are views of their plan's buffers, so
anything compared across two encodes is snapshotted first.
"""

import ctypes

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse._sparsetools import csr_matvecs

from repro.quant.fused import (
    DecodeWorkspace,
    FusedStepEncoder,
    _decode_native,
    accumulate_block,
    decode_cluster_step,
    decode_index,
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
    """Same wire bytes, zero points and scales from both kernels — called
    directly, on the whole step as one shard.  The compiled one starts from
    a wire buffer full of stale bytes: rows sharing a byte and a group's
    padding must come out exactly as the packer writes them."""
    encoder = FusedStepEncoder(KeyedRounding(5))
    encoder.rounding.set_epoch(epoch)
    plan = _plan(encoder, step)
    assert plan.identity == (plan.payload_pos is None)
    (shard,) = encoder.shards_for(plan, 1)
    keys = encoder.rounding.block_keys("bwd", 1, plan.pair_src, plan.pair_dst)
    encoder._pack_numpy(plan, shard, encoder._quantize_numpy(plan, shard, keys))
    wire, z_ref, s_ref = plan.wire.tobytes(), plan.zero_points.copy(), plan.scales.copy()
    plan.wire.fill(0xEE)
    plan.zero_points.fill(np.nan)
    plan.scales.fill(np.nan)
    encoder._quantize_pack_native(lib, plan, shard, keys)
    assert plan.wire.tobytes() == wire
    assert np.array_equal(plan.zero_points, z_ref) and np.array_equal(plan.scales, s_ref)


def _snapshot(payloads):
    """Every byte of ``payloads``, copied out of the plan buffers they view."""
    return {
        pair: (
            p.num_rows,
            p.dim,
            list(p.group_bits),
            [r.tobytes() for r in p.group_rows],
            [s.tobytes() for s in p.streams],
            [z.tolist() for z in p.zero_points],  # by value: -0.0 == 0.0
            [s.tolist() for s in p.scales],
        )
        for pair, p in payloads.items()
    }


def _check_shards_and_replay(encoder, plan, want):
    """Payloads of the compiled tier under shard counts {1, 2, 3, 7} and the
    single-pair replay, each snapshotted before the next encode, against
    the snapshot ``want``."""
    coords = ("fwd", 2)
    for n_shards in (1, 2, 3, 7):
        got = {}
        for shard in encoder.shards_for(plan, n_shards):
            got.update(encoder.quantize_pack_shard(plan, shard, coords=coords))
        assert list(got) == list(want)
        assert _snapshot(got) == want
    for i in {0, len(plan.pairs) // 2, len(plan.pairs) - 1}:
        replay = encoder.quantize_pack_shard(plan, pair_shard(plan, i), coords=coords)
        pair = plan.pairs[i]
        assert _snapshot({pair: replay[pair]})[pair] == want[pair]


@settings(max_examples=40, deadline=None)
@given(step=steps())
def test_every_shard_decomposition_and_replay_emit_the_reference_bytes(
    lib, tier, step
):
    """Payloads of the compiled tier under every shard count and the
    ``pair_shard`` replay equal the NumPy tier's one-shard payloads, and
    both equal the per-message reference encoder's."""
    encoder = FusedStepEncoder(KeyedRounding(9))
    plan = _plan(encoder, step)
    with tier(None):
        want = _snapshot(encoder.quantize_pack_step(plan, coords=("fwd", 2)))
    with tier(lib):
        _check_shards_and_replay(encoder, plan, want)
    pairs, counts, bits, values, _ = step
    reference = MixedPrecisionEncoder(KeyedRounding(9))
    lo = 0
    for pair, count in zip(pairs, counts):
        span = slice(lo, lo + count)
        payload = reference.encode(values[span], bits[span], ("fwd", 2, *pair))
        assert want[pair] == _snapshot({pair: payload})[pair]
        lo += count


def test_the_shard_comparison_sees_a_flipped_key(lib, tier, monkeypatch):
    """Mutation check of the test above: with one pair's key flipped after
    the reference encode, the comparison must fail — it compares bytes
    snapshotted before the next encode, not the plan's views with
    themselves."""
    gen = np.random.default_rng(0)
    counts = np.array([6, 9, 4], dtype=np.int64)
    n = int(counts.sum())
    step = ([(0, 1), (0, 2), (1, 2)], counts, gen.choice([2, 4, 8], n),
            gen.normal(size=(n, 13)).astype(np.float32), 13)  # fmt: skip
    encoder = FusedStepEncoder(KeyedRounding(9))
    plan = _plan(encoder, step)
    with tier(None):
        want = _snapshot(encoder.quantize_pack_step(plan, coords=("fwd", 2)))
    genuine = encoder.rounding.block_keys

    def flipped(phase, layer, src, dst):
        keys = genuine(phase, layer, src, dst).copy()
        keys[np.asarray(src) == 1, 0] ^= np.uint64(1)
        return keys

    monkeypatch.setattr(encoder.rounding, "block_keys", flipped)
    with tier(lib), pytest.raises(AssertionError):
        _check_shards_and_replay(encoder, plan, want)


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


@st.composite
def exchange_steps(draw):
    """One step of a small cluster, receiver side: every receiver has up to
    four sources with ragged pair sizes (empty pairs too), every width incl.
    1 bit and widths whose rows share bytes, mixed payload orders; per
    receiver, each source's destination rows — a split of the halo rows
    (sometimes with slots no source feeds) or, for accumulation, distinct
    rows within a pair that overlap across pairs."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from((1, 3, 7, 8, 19, 64)))
    n_dev = draw(st.integers(2, 4))
    pairs = [(s, d) for s in range(n_dev) for d in range(n_dev)
             if s != d and gen.random() < 0.8]  # fmt: skip
    pairs = pairs or [(0, 1)]
    counts = gen.integers(0, 9, len(pairs)).astype(np.int64)
    counts[gen.integers(len(pairs))] += 1  # never an empty step
    n = int(counts.sum())
    widths = draw(st.sampled_from([(2, 4, 8), (1, 2, 4, 8), (1,), (8,)]))
    bits = gen.choice(widths, n).astype(np.int64)
    values = gen.normal(size=(n, dim)).astype(np.float32)
    halo, owned = {}, {}
    for dst in range(n_dev):
        srcs = [i for i, (_, d) in enumerate(pairs) if d == dst]
        total = int(sum(counts[i] for i in srcs))
        n_halo = total + int(gen.integers(0, 3))  # unfed slots: a zero-fill
        order = gen.permutation(n_halo)
        n_owned = int(gen.integers(1, 12))
        cuts = np.cumsum([0, *(counts[i] for i in srcs)])
        halo[dst] = (
            {pairs[i][0]: order[a:b] for i, a, b in zip(srcs, cuts, cuts[1:])},
            n_halo,
        )
        owned[dst] = (
            {pairs[i][0]: gen.choice(max(n_owned, int(counts[i])), int(counts[i]),
                                     replace=False) for i in srcs},  # fmt: skip
            max([n_owned, *(int(counts[i]) for i in srcs)]),
        )
    return pairs, counts, bits, values, dim, halo, owned


@settings(max_examples=60, deadline=None)
@given(case=exchange_steps(), accumulate=st.booleans(), drop=st.booleans())
def test_decode_index_lands_every_row(lib, tier, case, accumulate, drop):
    """Through a plan's :class:`DecodeIndex`, both tiers land each
    receiver's rows where ``payload.decode()`` says — halo rows directly,
    or a block whose accumulate is the per-pair ``out[rows] += mat`` — and
    a receiver missing a source gets zeros there (the replay's job)."""
    pairs, counts, bits, values, dim, halo, owned = case
    encoder = FusedStepEncoder(KeyedRounding(3))
    plan = _plan(encoder, (pairs, counts, bits, values, dim))
    payloads = encoder.quantize_pack_step(plan, coords=("bwd", 0))
    collects = {
        dst: {s: payloads[(s, d)] for s, d in sorted(pairs) if d == dst}
        for dst in sorted(halo)
    }
    if drop:
        victim = next((d for d, box in collects.items() if box), None)
        if victim is not None:
            collects[victim].pop(next(iter(collects[victim])))
    for lib_or_none in (lib, None):
        into = {}
        for dst in collects:
            rows, n_out = (owned if accumulate else halo)[dst]
            index = decode_index(plan, dst, rows, n_out, accumulate=accumulate)
            into[dst] = (index, np.full(index.shape, np.nan, dtype=np.float32))
        with tier(lib_or_none):
            landed = decode_cluster_step(collects, into=into)
        for dst, mailbox in collects.items():
            index, buf = into[dst]
            assert list(landed[dst]) == list(mailbox)
            want = np.zeros(index.shape, dtype=np.float32)
            for src, payload in mailbox.items():
                want[index.land[src]] = payload.decode()
            assert buf.tobytes() == want.tobytes()
            if accumulate:
                got = np.ones((index.n_out, dim), dtype=np.float32)
                expect = got.copy()
                with tier(lib_or_none):
                    accumulate_block(index, buf, got)
                for src in index.srcs:
                    expect[index.rows[src]] += want[index.land[src]]
                assert got.tobytes() == expect.tobytes()


def test_decode_index_checks_what_the_kernel_trusts():
    """Destination rows are checked once, when the index is built; a
    buffer of the wrong shape is refused at every decode."""
    counts = np.array([3, 2], dtype=np.int64)
    step = ([(0, 2), (1, 2)], counts, np.array([2, 4, 2, 8, 1]),
            np.ones((5, 3), dtype=np.float32), 3)  # fmt: skip
    plan = _plan(FusedStepEncoder(KeyedRounding(0)), step)
    with pytest.raises(IndexError, match="outside"):
        decode_index(plan, 2, {0: [0, 1, 2], 1: [3, 4]}, 4)
    with pytest.raises(ValueError, match="sources"):
        decode_index(plan, 2, {0: [0, 1, 2]}, 4)
    with pytest.raises(ValueError, match="repeats"):
        decode_index(plan, 2, {0: [0, 0, 1], 1: [0, 1]}, 3, accumulate=True)
    index = decode_index(plan, 2, {0: [0, 1, 2], 1: [3, 4]}, 5)
    assert index.covers and index.shape == (5, 3)
    with pytest.raises(ValueError, match="decode buffer"):
        decode_cluster_step({2: {}}, into={2: (index, np.zeros((4, 3), np.float32))})


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


# ----------------------------------------------------------------------
# CSR aggregation
# ----------------------------------------------------------------------
@st.composite
def csr_products(draw):
    """A float32 / int32 CSR — possibly empty, with empty and single-entry
    rows, unsorted and repeated columns — a block of width 1-80 (both
    accumulator forms, widths off every vector multiple) holding ±0.0 and
    ±inf, and a row range ``[lo, hi)`` of the matrix."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows, n_cols = draw(st.integers(0, 12)), draw(st.integers(1, 10))
    counts = gen.choice([0, 1, 2, 7], n_rows)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    indices = gen.integers(0, n_cols, indptr[-1]).astype(np.int32)
    data = gen.normal(size=indptr[-1]).astype(np.float32)
    width = draw(st.integers(1, 80))
    x = gen.normal(size=(n_cols, width)).astype(np.float32)
    special = gen.random(x.shape) < 0.1
    x[special] = gen.choice([0.0, -0.0, np.inf, -np.inf], int(special.sum()))
    lo = draw(st.integers(0, n_rows))
    return indptr, indices, data, x, lo, draw(st.integers(lo, n_rows))


@settings(max_examples=100, deadline=None)
@given(case=csr_products(), accumulate=st.booleans())
def test_csr_kernel_is_scipys(lib, case, accumulate):
    """``repro_csr_rows`` over the rows of an ``indptr`` slice (absolute
    offsets) writes scipy's ``csr_matvecs`` bytes — overwriting from +0.0,
    or accumulating onto rows that hold -0.0 too — and nothing past them."""
    indptr, indices, data, x, lo, hi = case
    rows, (n_cols, width) = indptr[lo : hi + 1], x.shape
    start = np.random.default_rng(hi).normal(size=(hi - lo, width)).astype(np.float32)
    start[::3] = -0.0
    want = start.copy() if accumulate else np.zeros_like(start)
    csr_matvecs(hi - lo, n_cols, width, rows, indices, data, x.ravel(), want.ravel())
    buf = np.full((hi - lo + 1, width), 7.0, dtype=np.float32)  # one guard row
    buf[:-1] = start
    lib.repro_csr_rows(hi - lo, rows.ctypes.data, indices.ctypes.data,
                       data.ctypes.data, x.ctypes.data, width, buf.ctypes.data,
                       accumulate)  # fmt: skip
    assert buf[:-1].tobytes() == want.tobytes()
    assert (buf[-1] == 7.0).all()


# ----------------------------------------------------------------------
# Post stage: LayerNorm -> ReLU -> dropout
# ----------------------------------------------------------------------
@st.composite
def post_blocks(draw):
    """A row block for the post stage — a width on and off every vector and
    pairwise-block boundary, 0 to 4,097 rows holding zero-variance, all-±0.0
    and large-magnitude rows (squares that overflow, too) — its output
    gradient, LayerNorm parameters, device blocks cut at random (empty ones
    included) and, with dropout on, an inverted-dropout mask."""
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = draw(st.sampled_from([1, 7, 8, 9, 64, 96, 128, 129, 200]))
    n = draw(st.sampled_from([0, 1, 33, 4097]))
    scale = gen.choice([1e-3, 1.0, 1e3, 1e18], size=(n, 1))
    x = gen.normal(size=(n, dim)) * scale + gen.normal(size=(n, 1)) * scale
    kinds = ["normal", "constant", "zeros", "large"]
    kind = gen.choice(kinds, n, p=[0.7, 0.1, 0.1, 0.1])
    x[kind == "constant"] = gen.normal(size=((kind == "constant").sum(), 1))
    zeros = kind == "zeros"
    x[zeros] = np.where(gen.random((zeros.sum(), dim)) < 0.5, 0.0, -0.0)
    x[kind == "large"] *= 1e4
    d = gen.normal(size=(n, dim))
    d[gen.random(d.shape) < 0.05] = -0.0
    params = gen.normal(size=(2, dim))
    cuts = draw(st.lists(st.integers(0, n), max_size=6))
    bounds = np.array([0, *sorted(cuts), n], dtype=np.int64)
    drop = None
    if draw(st.booleans()):
        keep = np.float32(draw(st.sampled_from([0.9, 0.5, 0.3])))
        drop = (gen.random((n, dim)) < keep).astype(np.float32) / keep
    f32 = np.float32
    return x.astype(f32), d.astype(f32), params.astype(f32), bounds, drop


@settings(max_examples=60, deadline=None)
@given(case=post_blocks())
def test_post_stage_kernel_is_numpys(lib, tier, case):
    """``repro_post_forward`` / ``repro_post_backward`` through the engine's
    dispatch pair write the NumPy tier's bytes — output, ``x_hat``,
    ``inv_std``, ReLU mask, input gradient and every block's γ/β partials —
    and nothing past the block."""
    from repro.cluster.compute import _post_backward, _post_forward
    from repro.nn.layers import LayerNorm

    x, d, params, bounds, drop = case
    (n, dim), blocks = x.shape, len(bounds) - 1
    norm = LayerNorm(dim)
    norm.gamma.data[...], norm.beta.data[...] = params
    results = []
    for chosen in (lib, None):
        h = np.full((n + 1, dim), 7.0, dtype=np.float32)  # one guard row
        g = h.copy()
        h[:n], g[:n] = x, d
        x_hat = np.full((n, dim), np.nan, dtype=np.float32)
        inv_std = np.full((n, 1), np.nan, dtype=np.float32)
        mask = np.ones((n, dim), dtype=bool)
        partials = np.full((blocks, 2, dim), np.nan, dtype=np.float32)
        with tier(chosen), np.errstate(over="ignore"):  # the large rows' squares
            _post_forward(norm, h[:n], x_hat, inv_std, mask, drop)
            _post_backward(norm, g[:n], x_hat, inv_std, mask, drop, bounds, partials)
        assert (h[n] == 7.0).all() and (g[n] == 7.0).all()
        results.append((h, x_hat, inv_std, mask, g, partials))
    for got, want in zip(*results):
        assert got.tobytes() == want.tobytes()


def test_post_stage_checks_what_the_kernel_trusts():
    """Caches, parameters and blocks that do not fit the row block are
    refused before any pointer reaches the compiled kernel."""
    from repro.cluster.compute import _post_backward, _post_forward
    from repro.nn.layers import LayerNorm

    n, dim = 6, 5
    h, x_hat = np.ones((n, dim), np.float32), np.ones((n, dim), np.float32)
    inv_std, mask = np.ones((n, 1), np.float32), np.ones((n, dim), bool)
    partials = np.ones((2, 2, dim), np.float32)
    norm, bounds = LayerNorm(dim), np.array([0, 2, n])
    bad_forward = [
        (LayerNorm(dim + 1), h, x_hat, inv_std, mask, None),
        (norm, h, x_hat[:-1], inv_std, mask, None),
        (norm, h, x_hat, inv_std[:-1], mask, None),
        (norm, h, x_hat, inv_std, mask.astype(np.uint8), None),
        (norm, h, x_hat, inv_std, mask, x_hat[:, :-1]),
    ]
    for args in bad_forward:
        with pytest.raises(ValueError, match="do not match"):
            _post_forward(*args)
    for blocks in ([0, 2, n + 1], [1, 2, n], [0, 4, 2, n], []):
        with pytest.raises(ValueError, match="do not cover"):
            _post_backward(norm, h, x_hat, inv_std, mask, None, blocks, partials)
    with pytest.raises(ValueError, match="partials"):
        _post_backward(norm, h, x_hat, inv_std, mask, None, bounds, partials[:1])


def test_loader_declares_every_entry_point(lib):
    """``ctypes`` would otherwise guess ``int`` arguments and truncate
    64-bit pointers and sizes."""
    assert isinstance(lib, ctypes.CDLL)
    entries = ("repro_philox_lanes", "repro_quantize_pack_pairs", "repro_decode_rows",
               "repro_add_rows", "repro_csr_rows", "repro_post_forward",
               "repro_post_backward")  # fmt: skip
    for name in entries:
        entry = getattr(lib, name)
        assert entry.argtypes and entry.restype is None
