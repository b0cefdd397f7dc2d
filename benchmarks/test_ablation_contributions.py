"""Ablation: how much of AdaQP's speedup comes from quantization vs from
central/marginal parallelization."""

from repro.harness import run_ablation_contributions, save_result


def test_ablation_contributions(benchmark):
    result = benchmark.pedantic(run_ablation_contributions, rounds=1, iterations=1)
    save_result(result)
    print("\n" + result.render())

    s = result.notes
    # Ordering: vanilla <= overlap-only < quantization-only <= full AdaQP.
    assert s["vanilla"] == 1.0
    assert s["vanilla-overlap"] >= 0.98  # overlap never hurts
    assert s["adaqp-no-overlap"] > 1.3  # quantization is the big lever
    assert s["adaqp"] >= s["adaqp-no-overlap"] * 0.98  # overlap adds on top
    assert s["adaqp"] > s["vanilla-overlap"]
    # In the communication-dominated regime, overlap alone is bounded by
    # the central-compute share, so it contributes far less than
    # quantization (the reason the paper needs both).
    assert (s["vanilla-overlap"] - 1.0) < 0.5 * (s["adaqp-no-overlap"] - 1.0)
