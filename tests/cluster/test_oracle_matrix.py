"""The equivalence story: every execution shape ≡ the reference trainer.

One production path, one oracle.  Each case below trains a real
:class:`~repro.cluster.cluster.Cluster` under one combination of the
execution-shape knobs and compares it with ``tests/reference/oracle.py``
using ``==`` on per-epoch losses, ``np.array_equal`` on reduced gradients,
equal per-epoch wire bytes, equal eval metrics and equal assigner
bit-widths at each re-assignment (``Run.mismatches``).  The cases are a
pairwise cover of the axes: every legal pair of values of two different
axes occurs in at least one case.  Combinations the cluster degrades
(``overlap`` off, or a store, makes the transport sync) are legal inputs
and stay in.
"""

import itertools

import pytest
from reference.oracle import (
    FIXED_BITS,
    NOISE_SEED,
    FixedBits,
    QuantizedPolicy,
    ReferenceTrainer,
)

from repro.quant.stochastic import KeyedRounding

AXES = {
    "overlap": [False, True],
    "transport": ["sync", "worker:1", "worker:4", "shuffled"],
    # The stack is hidden_layers + 1 deep: with one hidden layer the first
    # layer feeds the output layer directly, with two a hidden layer sits
    # between them.
    "hidden_layers": [1, 2],
    "residency": ["ram", "store-stream", "store-materialized"],
    "policy": ["exact", "quantized", "adaptive", "stale", "broadcast"],
    "model": ["gcn", "sage"],
    # 48 → h → h → 24 (RAM) and 24 → h → h → 7 (store): each hidden width
    # puts both operand orders of the GCN rule somewhere in the stack.
    "hidden": [8, 64],
    "parts": [1, 2, 4],
}


def _legal(case: dict) -> bool:
    # The store fixture holds four partitions with the GCN operator baked in.
    return case["residency"] == "ram" or (case["parts"] == 4 and case["model"] == "gcn")


def _pairs(case: dict) -> set:
    return set(itertools.combinations(sorted(case.items()), 2))


def pairwise_cover() -> list[dict]:
    """Greedy pairwise cover: repeatedly take the legal combination that
    contains the most still-uncovered pairs (first such, so the list is
    deterministic)."""
    combos = [dict(zip(AXES, values)) for values in itertools.product(*AXES.values())]
    combos = [(case, _pairs(case)) for case in combos if _legal(case)]
    uncovered = set().union(*(pairs for _, pairs in combos))
    cases = []
    while uncovered:
        case, pairs = max(combos, key=lambda entry: len(entry[1] & uncovered))
        cases.append(case)
        uncovered -= pairs
    return cases


CASES = pairwise_cover()


def _case_id(case: dict) -> str:
    return "-".join(str(case[axis]) for axis in AXES)


def test_cases_cover_every_legal_pair():
    legal = (dict(zip(AXES, v)) for v in itertools.product(*AXES.values()))
    wanted = set().union(*(_pairs(case) for case in legal if _legal(case)))
    assert set().union(*(_pairs(case) for case in CASES)) == wanted
    assert all(_legal(case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_production_matches_oracle(matrix, case):
    record = matrix.check(**case)
    if case["overlap"] and case["residency"] == "ram" and record.total_wire_bytes():
        # The interleave is real: every byte of the step was in flight
        # while its central window ran.
        assert record.hidden_byte_fraction() == 1.0


# ----------------------------------------------------------------------
# The oracle is not vacuous: break it, and the comparison fails
# ----------------------------------------------------------------------
SHAPE = dict(model="gcn", hidden=8, parts=4)


def _mutant(matrix, trainer_cls, policy):
    dataset, book = matrix.inputs("ram", SHAPE["parts"])
    return trainer_cls(dataset, book, policy, model_kind="gcn", hidden_dim=8).run()


def test_flipping_one_pairs_noise_key_is_caught(matrix):
    class FlippedKey(QuantizedPolicy):
        def noise_key(self, phase, layer, src, dst):
            if (phase, layer, src, dst) == ("fwd", 1, 0, 1):
                src, dst = dst, src
            return (phase, layer, src, dst)

    production, _ = matrix.production(policy="quantized", **SHAPE)
    policy = FlippedKey(FixedBits(FIXED_BITS), KeyedRounding(NOISE_SEED))
    mutant = _mutant(matrix, ReferenceTrainer, policy)
    assert "losses" in production.mismatches(mutant)
    assert production.wire == mutant.wire  # same bytes, different noise


def test_swapping_accumulation_order_is_caught(matrix):
    """110 owned rows of the 4-partition split receive gradients from two
    sources; adding those in descending source order moves the sums."""

    class LastSourceFirst(ReferenceTrainer):
        def arrival_order(self, mailbox):
            return sorted(mailbox, reverse=True)

    production, _ = matrix.production(policy="quantized", **SHAPE)
    mutant = _mutant(matrix, LastSourceFirst, "quantized")
    assert "reduced gradients" in production.mismatches(mutant)
