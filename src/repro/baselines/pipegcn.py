"""PipeGCN-style exchange: epoch-stale boundary features and gradients.

PipeGCN (Wan et al., MLSys 2022) hides communication inside computation by
consuming the halo messages *sent during the previous epoch* while the
current epoch's messages travel.  Two consequences the paper leans on:

* throughput: communication fully overlaps computation (modelled by
  :func:`repro.core.scheduler.schedule_pipegcn`), which wins only when the
  graph is dense enough for compute to cover comm (paper Sec. 5.1's Reddit
  discussion);
* convergence: one-epoch-stale embeddings/gradients slow convergence
  (paper Fig. 9; O(T^{-2/3}) vs O(T^{-1})).

Epoch 0 performs a synchronous warm-up exchange so training never sees
uninitialized halos.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.exchange import HaloExchange, InFlightStep
from repro.comm.transport import Transport

__all__ = ["StaleHaloExchange"]


class StaleHaloExchange(HaloExchange):
    """Exact-precision transfers consumed one epoch late.

    Split-phase like every exchange: ``post_step`` ships this epoch's
    payloads (snapshot copies), ``finalize_step`` collects them into the
    cache and serves the *previous* epoch's payloads — the warm-up epoch
    consumes its own messages synchronously.  A step missing an envelope
    fails fast with a :class:`~repro.comm.transport.TransportError`.
    """

    quantizes = False

    def __init__(self) -> None:
        # Caches: layer -> {dst_rank: {src_rank: payload}}
        self._fwd_cache: dict[int, dict[int, dict[int, np.ndarray]]] = {}
        self._bwd_cache: dict[int, dict[int, dict[int, np.ndarray]]] = {}
        self._epoch = 0

    def on_epoch_start(self, epoch: int) -> None:
        self._epoch = epoch

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The one-epoch-stale payload caches (bitwise resume): a resumed
        epoch must consume exactly the payloads the interrupted run's
        previous epoch posted."""

        def copy_cache(cache):
            return {
                layer: {
                    dst: {src: rows.copy() for src, rows in box.items()}
                    for dst, box in by_dst.items()
                }
                for layer, by_dst in cache.items()
            }

        return {
            "fwd_cache": copy_cache(self._fwd_cache),
            "bwd_cache": copy_cache(self._bwd_cache),
        }

    def load_state_dict(self, state: dict) -> None:
        def coerce(cache):
            return {
                int(layer): {
                    int(dst): {
                        int(src): np.asarray(rows, dtype=np.float32)
                        for src, rows in box.items()
                    }
                    for dst, box in by_dst.items()
                }
                for layer, by_dst in cache.items()
            }

        self._fwd_cache = coerce(state["fwd_cache"])
        self._bwd_cache = coerce(state["bwd_cache"])

    # ------------------------------------------------------------------
    def post_step(
        self,
        layer: int,
        phase: str,
        devices: list,
        transport: Transport,
        values_by_dev: list[np.ndarray],
        out: list[np.ndarray] | None = None,
    ) -> InFlightStep:
        # ``out`` is accepted for API parity (the pipelined executor names
        # halo destinations at post time); the stale policy always
        # scatters in finalize, where the cache decides what lands.
        tag = f"{phase}/L{layer}"
        staged: list[tuple[int, int, np.ndarray]] = []
        for dev in devices:
            part = dev.part
            maps = part.send_map if phase == "fwd" else part.recv_map
            for q in sorted(maps.keys()):
                # The gather always copies (fancy indexing), so cached
                # payloads stay frozen even when ``values_by_dev`` entries
                # are views of the fused engine's reused buffers.
                rows = np.ascontiguousarray(
                    values_by_dev[dev.rank][maps[q]], dtype=np.float32
                )
                staged.append((dev.rank, q, rows))
        if staged:
            # Posting is the deferred half (run on the pool when the
            # transport has workers); the snapshot above already happened
            # on this thread.
            def job() -> None:
                for src, q, rows in staged:
                    transport.post(src, q, tag, rows, rows.nbytes)

            transport.defer(tag, job)
        dim = int(values_by_dev[devices[0].rank].shape[1])
        return InFlightStep(layer, phase, tag, devices, transport, dim)

    def finalize_step(
        self, step: InFlightStep, out: list[np.ndarray] | None = None
    ) -> list[np.ndarray] | None:
        step.mark_done()
        fresh: dict[int, dict[int, np.ndarray]] = {}
        for dev in step.devices:
            fresh[dev.rank] = step.transport.collect(dev.rank, step.tag)
            # No replay path: a dropped envelope would otherwise enter the
            # cache and be served, one epoch late, as missing halo rows.
            self._check_delivery(dev, step.phase, step.tag, fresh[dev.rank])
        cache = self._fwd_cache if step.phase == "fwd" else self._bwd_cache
        cached = cache.get(step.layer)
        source = cached if cached is not None else fresh  # warm-up epoch: sync
        cache[step.layer] = fresh

        if step.phase == "fwd":
            halo_by_dev: list[np.ndarray] = []
            for dev in step.devices:
                part = dev.part
                halo = self._halo_out(out, dev.rank, part.n_halo, step.dim)
                for p, payload in source[dev.rank].items():
                    halo[part.recv_map[p]] = payload
                halo_by_dev.append(halo)
            return halo_by_dev
        if out is None:
            raise ValueError("backward finalize_step requires out= buffers")
        for dev in step.devices:
            part = dev.part
            for p, payload in source[dev.rank].items():
                if payload.shape == out[dev.rank][part.send_map[p]].shape:
                    out[dev.rank][part.send_map[p]] += payload
        return None
