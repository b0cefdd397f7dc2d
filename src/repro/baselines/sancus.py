"""SANCUS-style exchange: broadcast skipping with historical embeddings.

SANCUS (Peng et al., VLDB 2022) is "staleness-aware communication-avoiding"
training: devices re-broadcast their embedding blocks only periodically
(subject to a staleness bound) and peers otherwise compute with historical
embeddings.  The reproduction captures the three behaviours the paper
reports:

* skipped broadcasts → zero bytes on the wire for that device/layer that
  epoch (historical embeddings serve reads);
* stale embeddings plus locally-truncated gradients → slower convergence
  and accuracy degradation (paper Fig. 9 / Table 4);
* sequential *full-partition* broadcasts → communication slower than
  boundary-only ring all2all even with skipping (paper Sec. 5.1: SANCUS
  often loses to Vanilla), modelled by
  :func:`repro.core.scheduler.schedule_sancus`.

Two design notes:

* SANCUS replicates whole partition embedding blocks (its decentralized
  caches hold peers' partitions), so a broadcast ships ``n_owned × d``
  floats — not just boundary rows.  This is what makes its communication
  pattern expensive.
* Gradient handling: the decentralized historical-embedding design has no
  backward message push, so halo gradients are dropped — the source of
  its gradient bias.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.exchange import HaloExchange, InFlightStep
from repro.comm.transport import Transport

__all__ = ["BroadcastSkipExchange"]


class BroadcastSkipExchange(HaloExchange):
    """Full-block embedding broadcasts under a bounded-staleness skip rule.

    Parameters
    ----------
    staleness_bound:
        A device re-broadcasts a layer's embeddings every
        ``staleness_bound`` epochs; in between, peers use historical
        values (staleness up to ``staleness_bound - 1`` epochs).  1 means
        broadcast every epoch (no staleness, pure sequential-broadcast
        Vanilla).
    """

    quantizes = False

    def __init__(self, staleness_bound: int = 4) -> None:
        if staleness_bound < 1:
            raise ValueError("staleness_bound must be >= 1")
        self.staleness_bound = int(staleness_bound)
        self._epoch = 0
        # (layer, dst) -> {src: historical full block}
        self._historical: dict[tuple[int, int], dict[int, np.ndarray]] = {}
        self.broadcasts_sent = 0
        self.broadcasts_skipped = 0

    def on_epoch_start(self, epoch: int) -> None:
        self._epoch = epoch

    def _broadcast_now(self) -> bool:
        return self._epoch % self.staleness_bound == 0

    def state_dict(self) -> dict:
        """Historical embedding blocks + skip counters (bitwise resume):
        skipped-broadcast epochs after a restore must serve exactly the
        blocks the interrupted run last broadcast."""
        return {
            "historical": {
                key: {src: block.copy() for src, block in hist.items()}
                for key, hist in self._historical.items()
            },
            "broadcasts_sent": int(self.broadcasts_sent),
            "broadcasts_skipped": int(self.broadcasts_skipped),
        }

    def load_state_dict(self, state: dict) -> None:
        self._historical = {
            tuple(key): {
                int(src): np.asarray(block, dtype=np.float32)
                for src, block in hist.items()
            }
            for key, hist in state["historical"].items()
        }
        self.broadcasts_sent = int(state["broadcasts_sent"])
        self.broadcasts_skipped = int(state["broadcasts_skipped"])

    def post_step(
        self,
        layer: int,
        phase: str,
        devices: list,
        transport: Transport,
        values_by_dev: list[np.ndarray],
        out: list[np.ndarray] | None = None,
    ) -> InFlightStep:
        # ``out`` is accepted for API parity; the broadcast-skip policy
        # scatters from its historical cache in finalize.
        if phase == "fwd":
            broadcast = self._broadcast_now()
            staged: list[tuple[int, list[int], np.ndarray]] = []
            for dev in devices:
                peers = dev.part.peers_out()
                if not peers:
                    continue
                if broadcast:
                    # Always copy: the historical cache must hold a frozen
                    # snapshot, and ``values_by_dev`` entries may be views
                    # of the fused compute engine's buffers, which are
                    # overwritten in later epochs (``ascontiguousarray``
                    # would alias them).
                    block = np.array(
                        values_by_dev[dev.rank], dtype=np.float32, order="C"
                    )
                    self.broadcasts_sent += 1
                    staged.append((dev.rank, peers, block))
                else:
                    self.broadcasts_skipped += 1
            if staged:
                # Deferred half: a transport with workers runs the posting
                # loop on its pool; the blocks above are frozen snapshots.
                def job() -> None:
                    for src, peers, block in staged:
                        for q in peers:
                            transport.post(
                                src, q, f"fwd/L{layer}", block, block.nbytes
                            )

                transport.defer(f"fwd/L{layer}", job)
        # "bwd": communication-avoiding — halo gradients are dropped.
        tag = f"{phase}/L{layer}"
        dim = int(values_by_dev[devices[0].rank].shape[1])
        return InFlightStep(layer, phase, tag, devices, transport, dim)

    def finalize_step(
        self, step: InFlightStep, out: list[np.ndarray] | None = None
    ) -> list[np.ndarray] | None:
        step.mark_done()
        if step.phase == "bwd":
            return None  # nothing was posted; owners keep truncated gradients
        halo_by_dev: list[np.ndarray] = []
        devices = step.devices
        for dev in devices:
            part = dev.part
            received = step.transport.collect(dev.rank, step.tag)
            hist = self._historical.setdefault((step.layer, dev.rank), {})
            hist.update(received)
            halo = self._halo_out(out, dev.rank, part.n_halo, step.dim)
            for p, block in hist.items():
                if p not in part.recv_map:
                    continue
                # Pick this device's halo rows out of p's full block; the
                # owner's send_map gives their positions in p's local order.
                rows = devices[p].part.send_map.get(dev.rank)
                if rows is not None and block.shape[0] > int(rows.max(initial=0)):
                    halo[part.recv_map[p]] = block[rows]
            halo_by_dev.append(halo)
        return halo_by_dev
