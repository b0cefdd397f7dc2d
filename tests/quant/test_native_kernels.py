"""Compiled kernels ≡ NumPy / scipy kernels, bit for bit.

The byte-equality gate at kernel level: Philox lanes against
``numpy.random.Philox``, the compiled quantize + pack against the NumPy
kernel and packer through every shard decomposition and the ``pair_shard``
replay, both decodes against the reference ``decode(payload)``
(``reference/wire.py``) through a plan's :class:`DecodeIndex` straight
into halo rows or an accumulated block, an exchange's delivery audit (a
foreign payload raises, a dropped envelope is replayed and landed by the
compiled decode alone), the compiled CSR product against
scipy's ``csr_matvecs``, and the compiled post stage (LayerNorm → ReLU → dropout,
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
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference.wire import MixedPrecisionEncoder, decode
from scipy.sparse._sparsetools import csr_matvecs
from step_encoding import quantize_pack

from repro.cluster.exchange import FusedQuantizedHaloExchange
from repro.comm.faults import FaultPlan
from repro.comm.transport import Transport, TransportError
from repro.quant import fused
from repro.quant.fused import (
    FusedStepEncoder,
    accumulate_block,
    accumulate_rows,
    decode_cluster_step,
    decode_index,
    pair_shard,
)
from repro.quant.mixed import MixedPrecisionPayload
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
        want = _snapshot(quantize_pack(encoder, plan, coords=("fwd", 2)))
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
        want = _snapshot(quantize_pack(encoder, plan, coords=("fwd", 2)))
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


def _wipe(plan, i):
    """Overwrite pair ``i``'s streams, zero points and scales in the plan's
    buffers: only a re-encode of the pair restores them."""
    for g in plan.pair_groups[plan.pairs[i]]:
        plan.wire[g.offset : g.offset + g.nbytes] = 0xA5
        plan.zero_points[g.start : g.stop] = np.nan
        plan.scales[g.start : g.stop] = np.nan


@settings(max_examples=60, deadline=None)
@given(case=exchange_steps(), accumulate=st.booleans(), drop=st.booleans())
def test_decode_index_lands_every_row(lib, tier, case, accumulate, drop):
    """Through a plan's :class:`DecodeIndex`, both tiers land every
    receiver's rows where the reference says — ``decode`` of the
    per-message reference encoder's payload (``reference/wire.py``) — halo
    rows directly with zeros in the slots no source feeds, or a block whose
    accumulate (from the block, or source by source) is the per-pair
    ``out[rows] += mat``.  With ``drop``, one pair's bytes are wiped after
    the encode and the pair is replayed — re-encoded into the plan through
    ``pair_shard``, as the exchange regenerates a dropped envelope —
    before the receivers land."""
    pairs, counts, bits, values, dim, halo, owned = case
    encoder = FusedStepEncoder(KeyedRounding(3))
    plan = _plan(encoder, (pairs, counts, bits, values, dim))
    reference = MixedPrecisionEncoder(KeyedRounding(3))
    bounds = np.concatenate([[0], np.cumsum(counts)])
    want_rows = {
        pair: decode(reference.encode(values[a:b], bits[a:b], ("bwd", 0, *pair)))
        for pair, a, b in zip(pairs, bounds, bounds[1:])
    }
    victim = int(np.flatnonzero(counts)[0])
    for lib_or_none in (lib, None):
        with tier(lib_or_none):
            quantize_pack(encoder, plan, coords=("bwd", 0))
            if drop:
                _wipe(plan, victim)
                shard = pair_shard(plan, victim)
                encoder.quantize_pack_shard(plan, shard, coords=("bwd", 0))
        for dst in sorted(halo):
            rows, n_out = (owned if accumulate else halo)[dst]
            index = decode_index(plan, dst, rows, n_out, accumulate=accumulate)
            buf = np.full(index.shape, np.nan, dtype=np.float32)
            with tier(lib_or_none):
                decode_cluster_step(index, buf)
            want = np.zeros(index.shape, dtype=np.float32)
            for src in index.srcs:
                want[index.land[src]] = want_rows[(src, dst)]
            assert buf.tobytes() == want.tobytes()
            if accumulate:
                got = np.ones((index.n_out, dim), dtype=np.float32)
                expect = got.copy()
                with tier(lib_or_none):
                    accumulate_block(index, buf, got)
                for src in index.srcs:
                    expect[index.rows[src]] += want[index.land[src]]
                assert got.tobytes() == expect.tobytes()
                # The same additions from per-source rows (full precision).
                per_source = np.ones_like(got)
                with tier(lib_or_none):
                    accumulate_rows(
                        index, {s: want[index.land[s]] for s in index.srcs}, per_source
                    )
                assert per_source.tobytes() == expect.tobytes()


@settings(max_examples=30, deadline=None)
@given(case=exchange_steps())
def test_decode_is_payload_decode(lib, tier, case):
    """What a receiver lands from the plan's wire is, pair by pair, the
    reference ``decode`` of the payload the plan hands the mailbox for that
    pair: the landing reads the group table, the audit reads the payload,
    and both describe the same bytes — on both tiers, every width."""
    pairs, counts, bits, values, dim, halo, _ = case
    encoder = FusedStepEncoder(KeyedRounding(4))
    plan = _plan(encoder, (pairs, counts, bits, values, dim))
    for lib_or_none in (lib, None):
        with tier(lib_or_none):
            payloads = quantize_pack(encoder, plan, coords=("fwd", 1))
        for dst in sorted(halo):
            rows, n_halo = halo[dst]
            index = decode_index(plan, dst, rows, n_halo)
            buf = np.full(index.shape, np.nan, dtype=np.float32)
            with tier(lib_or_none):
                decode_cluster_step(index, buf)
            for src in index.srcs:
                mat = decode(payloads[(src, dst)])
                assert mat.dtype == np.float32
                assert buf[index.land[src]].tobytes() == mat.tobytes()


def test_decode_index_checks_what_the_kernel_trusts():
    """Destination rows are checked once, when the index is built; a
    buffer of the wrong shape is refused at every landing."""
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
    with pytest.raises(ValueError, match="landing buffer"):
        decode_cluster_step(index, np.zeros((4, 3), np.float32))


def test_native_decode_checks_what_the_kernel_trusts():
    """The compiled decode reads a plan's wire buffer through the index's
    group table unchecked, so building the index checks the table: an
    unknown width, a stream past the wire buffer, a group past the plan's
    rows must raise — never reach C."""
    step = ([(0, 2), (1, 2)], np.array([3, 2]), np.array([2, 4, 2, 8, 1]),
            np.ones((5, 3), dtype=np.float32), 3)  # fmt: skip
    tampers = (
        {"bits": 3},
        {"offset": 10**6},
        {"start": 10, "stop": 11},
    )
    for tamper in tampers:
        plan = _plan(FusedStepEncoder(KeyedRounding(0)), step)
        vars(plan.pair_groups[(1, 2)][-1]).update(tamper)
        with pytest.raises(ValueError, match="inconsistent"):
            decode_index(plan, 2, {0: [0, 1, 2], 1: [3, 4]}, 5)


def _foreign(payload: MixedPrecisionPayload) -> MixedPrecisionPayload:
    """An equal payload built outside its plan: streams copied to odd
    offsets of their own buffers, int32 row indices."""
    streams = []
    for stream in payload.streams:
        backing = np.zeros(stream.size + 3, dtype=np.uint8)
        backing[3:] = stream
        streams.append(backing[3:])
    return MixedPrecisionPayload(
        num_rows=payload.num_rows,
        dim=payload.dim,
        group_bits=list(payload.group_bits),
        group_rows=[rows.astype(np.int32) for rows in payload.group_rows],
        streams=streams,
        zero_points=[z.copy() for z in payload.zero_points],
        scales=[s.copy() for s in payload.scales],
    )


# ----------------------------------------------------------------------
# Delivery audit: an exchange lands from its plan, the mailbox only audits
# ----------------------------------------------------------------------
def _devices(n_dev=3, seed=5):
    """A small cluster's devices as the exchange reads them: a rank, and a
    partition's owned and halo row counts, send and recv maps — every
    ordered pair exchanges rows, and each receiver has two halo slots no
    pair feeds."""
    gen = np.random.default_rng(seed)
    n_owned = gen.integers(4, 9, n_dev)
    send = {s: {d: np.sort(gen.choice(n_owned[s], int(gen.integers(1, n_owned[s])),
                                      replace=False))
                for d in range(n_dev) if d != s}
            for s in range(n_dev)}  # fmt: skip
    devices = []
    for d in range(n_dev):
        srcs = [s for s in range(n_dev) if s != d]
        cuts = np.cumsum([0, *(send[s][d].size for s in srcs)])
        slots = gen.permutation(int(cuts[-1]) + 2)
        part = SimpleNamespace(
            owned_global=None,
            n_owned=int(n_owned[d]),
            n_halo=slots.size,
            send_map=send[d],
            recv_map={s: slots[a:b] for s, a, b in zip(srcs, cuts, cuts[1:])},
        )
        devices.append(SimpleNamespace(rank=d, part=part))
    devices[0].part.owned_global = devices  # the exchange's cluster identity
    return devices


class _EveryWidth:
    """Per-row bit-widths of every width, 1 bit included, fixed per pair."""

    def bits_for(self, layer, phase, src, dst, n_rows):
        return np.random.default_rng([src, dst]).choice((1, 2, 4, 8), n_rows)


def _exchange_step(phase, transport, dim=11):
    """One quantized ``phase`` step of layer 0 over :func:`_devices`, both
    halves; returns its destinations, the exchange and its plan."""
    devices = _devices()
    gen = np.random.default_rng(6)
    exchange = FusedQuantizedHaloExchange(_EveryWidth(), KeyedRounding(8))
    rows = [dev.part.n_owned if phase == "fwd" else dev.part.n_halo for dev in devices]
    values = [gen.normal(size=(n, dim)).astype(np.float32) for n in rows]
    out = [
        np.full((dev.part.n_halo if phase == "fwd" else dev.part.n_owned, dim),
                0.5, dtype=np.float32)
        for dev in devices
    ]  # fmt: skip
    step = exchange.post_step(0, phase, devices, transport, values, out)
    exchange.finalize_step(step)
    return out, exchange, step.plan


def _landed(phase, plan, dim=11):
    """What a step of :func:`_exchange_step` must land, from the reference
    decode of the plan's payloads: every halo slot forward (zeros where no
    pair feeds), the owned-row gradients backward."""
    devices = _devices()
    want = []
    for dev in devices:
        part = dev.part
        if phase == "fwd":
            rows, buf = part.recv_map, np.zeros((part.n_halo, dim), np.float32)
        else:
            rows, buf = part.send_map, np.full((part.n_owned, dim), 0.5, np.float32)
        for src in sorted(rows):
            mat = decode(plan.payloads[plan.pairs.index((src, dev.rank))])
            if phase == "fwd":
                buf[rows[src]] = mat
            else:
                buf[rows[src]] += mat
        want.append(buf)
    return want


def test_a_payload_the_plan_did_not_emit_raises_a_transport_error(lib, tier):
    """A mailbox whose payload is not the plan's own for its pair — equal
    bytes built outside the plan (``_foreign``) — fails the step with a
    :class:`TransportError` naming the pair, forward and backward, on both
    tiers and with workers; the plan's own mailboxes land the reference
    rows."""
    for chosen in (lib, None):
        for phase in ("fwd", "bwd"):
            for workers in (0, 2):
                transport = Transport(3, workers=workers)
                try:
                    with tier(chosen):
                        out, _, plan = _exchange_step(phase, transport)
                        post = transport.post_batch

                        def foreign(src, tag, posts):
                            post(src, tag, [(d, _foreign(p) if (src, d) == (1, 0)
                                             else p, n) for d, p, n in posts])  # fmt: skip

                        transport.post_batch = foreign
                        with pytest.raises(TransportError, match=r"pair \(1, 0\)"):
                            _exchange_step(phase, transport)
                finally:
                    transport.close()
                for got, want in zip(out, _landed(phase, plan)):
                    assert got.tobytes() == want.tobytes()


def test_a_dropped_envelope_lands_through_the_compiled_decode_alone(lib, tier):
    """On the compiled tier a step with a dropped envelope is replayed into
    the plan and landed by ``repro_decode_rows`` alone — it never enters
    the NumPy decode — and lands the reference rows, as the NumPy tier
    does."""
    calls, genuine = [], fused._decode_index_numpy
    # Patched by hand, not with monkeypatch: the sanitized build's driver
    # calls this property with ``lib`` and ``tier`` only.
    fused._decode_index_numpy = lambda *a: calls.append(1) or genuine(*a)
    try:
        for chosen in (lib, None):
            for phase in ("fwd", "bwd"):
                transport = Transport(3)
                transport.fault_plan = FaultPlan.parse([f"drop:{phase}/L0:src=2,dst=1"])
                with tier(chosen):
                    out, _, plan = _exchange_step(phase, transport)
                assert transport.fault_stats["replays"] == 1
                for got, want in zip(out, _landed(phase, plan)):
                    assert got.tobytes() == want.tobytes()
            if chosen is lib:
                assert calls == []
        assert calls
    finally:
        fused._decode_index_numpy = genuine


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
