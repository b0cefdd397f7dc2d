"""Encode a whole exchange step the way the program does.

The exchange (``repro.cluster.exchange``) and ``repro.kernels.selftest``
run ``FusedStepEncoder.gather_step`` on the calling thread, then
``quantize_pack_shard`` once per shard of ``shards_for``; tests that want a
whole step's payloads run that same composition through these helpers.
"""


def quantize_pack(encoder, plan, *, coords):
    """Quantize + pack the gathered step as one shard; returns every pair's
    payload (views of the plan's buffers, valid until its next encode)."""
    payloads = {}
    for shard in encoder.shards_for(plan, 1):
        payloads.update(encoder.quantize_pack_shard(plan, shard, coords=coords))
    return payloads


def encode_step(encoder, plan, values_by_rank, *, coords):
    """Gather then quantize + pack one step; ``{(src, dst): payload}``."""
    encoder.gather_step(plan, values_by_rank)
    return quantize_pack(encoder, plan, coords=coords)
