"""Peak-RSS gate of huge-graph mode (``-m perf``; ~47 s, out of tier-1).

Out-of-core residency is a design property, not a scheduler artifact, so
it is asserted unconditionally on any host, together with the equivalence
half of the contract (bitwise losses and wire bytes between the streaming
and the materialized arm).  Each arm runs in a fresh subprocess
(``repro.harness.hugebench``): peak RSS is a process-wide high-water mark.
The quick workload (quarter-size, same shape as the 1M-node one) keeps
this under CI budgets; the ``huge-graph`` CI job runs it.
"""

import pytest

from repro.harness.hugebench import bench_huge_graph

pytestmark = pytest.mark.perf


def test_streaming_halves_peak_rss_bitwise():
    """The streaming arm's peak-RSS delta must stay at or under half the
    materialized arm's, with losses and wire bytes bitwise-identical, and
    the analytic estimate within 2x of the measured delta (the
    estimate-vs-measured cross-check)."""
    result = bench_huge_graph(quick=True, seed=0)
    assert result["losses_match"], "streaming arm changed the losses"
    assert result["wire_bytes_match"], "streaming arm changed wire accounting"
    assert result["rss_within_half"], (
        f"streaming peak-RSS delta is {result['rss_fraction']:.2f}x the "
        f"materialized arm's (gate: <= 0.5): {result}"
    )
    assert result["edges_per_s"] > 0
    rel = abs(result["estimate_rel_error"])
    assert rel < 1.0, (
        f"estimate_resident is off by {rel:.0%} from the measured delta"
    )
