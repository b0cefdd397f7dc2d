"""EpochRecord / PhaseRecord accounting structures."""

import numpy as np
import pytest

from repro.cluster.records import EpochRecord, PhaseRecord


def _phase(layer=0, phase="fwd", n=3):
    bm = np.arange(n * n, dtype=np.int64).reshape(n, n)
    np.fill_diagonal(bm, 0)
    return PhaseRecord(
        layer=layer,
        phase=phase,
        bytes_matrix=bm,
        quant_send_bytes=np.full(n, 10.0),
        quant_recv_bytes=np.full(n, 6.0),
        agg_flops=np.full(n, 100.0),
        agg_flops_central=np.full(n, 40.0),
        dense_flops=np.full(n, 200.0),
        dense_flops_central=np.full(n, 80.0),
    )


def test_phase_derived_quantities():
    p = _phase()
    assert p.num_devices == 3
    assert np.array_equal(p.quant_float_bytes, np.full(3, 16.0))
    assert np.array_equal(p.agg_flops_marginal, np.full(3, 60.0))
    assert np.array_equal(p.dense_flops_marginal, np.full(3, 120.0))


def test_epoch_totals():
    rec = EpochRecord(loss=1.5, phases=[_phase(0, "fwd"), _phase(0, "bwd")])
    per_phase = int(_phase().bytes_matrix.sum())
    assert rec.total_wire_bytes() == 2 * per_phase
    assert rec.bytes_by_pair().sum() == 2 * per_phase
    assert rec.bytes_by_pair()[1, 2] == 2 * 5


def test_bytes_by_pair_requires_phases():
    with pytest.raises(ValueError):
        EpochRecord(loss=0.0).bytes_by_pair()


def test_empty_epoch_zero_bytes():
    assert EpochRecord(loss=0.0).total_wire_bytes() == 0


# ---------------------------------------------------------------------------
# Timeline summaries and capped retention
# ---------------------------------------------------------------------------
def _timeline(layer=0, phase="fwd", total=100, overlapped=100, wait=0.0):
    from repro.cluster.records import StepTimeline

    return StepTimeline(
        layer=layer,
        phase=phase,
        quantize_s=0.1,
        comm_s=0.0,
        central_s=0.3,
        dequantize_s=0.2,
        marginal_s=0.4,
        comp_full_s=0.7,
        overlapped_bytes=overlapped,
        total_bytes=total,
        measured=True,
        worker_wait_s=wait,
    )


def test_timeline_summary_accumulates_and_merges():
    from repro.cluster.records import TimelineSummary

    a, b = TimelineSummary(), TimelineSummary()
    a.add(_timeline(total=100, overlapped=60, wait=0.05))
    a.add(_timeline(total=100, overlapped=100))
    b.add(_timeline(total=50, overlapped=0))
    b.merge(a)
    assert b.steps == 3
    assert b.total_bytes == 250
    assert b.overlapped_bytes == 160
    assert b.hidden_byte_fraction == pytest.approx(160 / 250)
    assert b.worker_wait_s == pytest.approx(0.05)
    assert b.central_share == pytest.approx(0.3 / 0.7)
    assert TimelineSummary().hidden_byte_fraction == 0.0
    assert TimelineSummary().central_share == 0.0


def test_add_timeline_feeds_list_and_summary():
    rec = EpochRecord(loss=0.0)
    for layer in range(5):
        rec.add_timeline(_timeline(layer=layer))
    assert [t.layer for t in rec.timelines] == [0, 1, 2, 3, 4]
    assert rec.timeline_summary.steps == 5
    assert rec.timeline_summary.total_bytes == 500
    assert rec.hidden_byte_fraction() == 1.0


def test_hidden_byte_fraction_falls_back_to_raw_timelines():
    # Timelines appended directly (not via add_timeline) still count.
    rec = EpochRecord(loss=0.0)
    rec.timelines.append(_timeline(total=80, overlapped=40))
    assert rec.hidden_byte_fraction() == 0.5
