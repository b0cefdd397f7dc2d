"""Deterministic fault injection for the transport.

A :class:`FaultPlan` is a scripted set of failures — dropped or
duplicated mailbox envelopes, stalled or erroring jobs — that a transport
consults at well-defined points of its wire path.  Plans are
*deterministic*: a spec names the step tag (``"fwd/L1"``), optionally the
epoch and the (src, dst) pair it fires on, plus a fire count; nothing is
sampled.  That makes fault runs reproducible, which is what lets the
test-suite assert the strong contract: every injected fault either
recovers to the **bitwise-identical** training result (keyed-replay
regeneration of a dropped envelope, rejection of a duplicate) or fails
fast with a typed :class:`~repro.comm.transport.TransportError` — no
hangs, no silent corruption.

Spec grammar (one string per fault, CLI ``--inject-fault``)::

    kind[:tag[@epoch]][:key=value[,key=value...]]

    drop:fwd/L1@2              # drop one envelope of tag fwd/L1 in epoch 2
    drop:fwd/L1@2:src=0,dst=1  # ... only the 0->1 envelope
    duplicate:bwd/L0           # deliver one bwd/L0 envelope twice (any epoch)
    stall:fwd/L0@1:delay=5.0   # first fwd/L0 job of epoch 1 sleeps 5 s
    error:bwd/L1@0             # first bwd/L1 job of epoch 0 raises

``tag`` defaults to ``"*"`` (any tag); ``count`` defaults to 1 (the
fault fires once, then disarms).  Where each kind is honoured:

========== ===========================================================
kind        injection point
========== ===========================================================
drop        :meth:`Transport.post_batch` — bytes are accounted (the
            envelope *left* the sender) but the payload never lands in
            the destination mailbox.
duplicate   :meth:`Transport.post_batch` — the envelope lands once; its
            second arrival finds the pair's envelope already queued,
            so the mailbox's one-envelope-per-pair invariant rejects it
            (counted in ``fault_stats["duplicates_rejected"]``): delivery
            is idempotent.
stall       ``defer`` — the job is wrapped in a sleep so the tag
            blows its ``complete()`` deadline; ``close()`` wakes the
            sleep and abandons the job.  Inline (no workers), a stall
            longer than the deadline waits it out and raises the same
            :class:`~repro.comm.transport.TransportError` from ``defer``.
error       ``defer`` — the job raises ``RuntimeError("injected fault")``.
========== ===========================================================
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

__all__ = ["FaultSpec", "FaultPlan", "FAULT_KINDS"]

FAULT_KINDS = ("drop", "duplicate", "stall", "error")


@dataclass
class FaultSpec:
    """One scripted fault: what fires, where, and how often."""

    kind: str
    tag: str = "*"
    epoch: int | None = None
    src: int | None = None
    dst: int | None = None
    count: int = 1
    delay_s: float = 5.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")

    def matches(
        self,
        kind: str,
        tag: str,
        epoch: int,
        src: int | None = None,
        dst: int | None = None,
    ) -> bool:
        if self.kind != kind or self.count <= 0:
            return False
        if self.tag != "*" and self.tag != tag:
            return False
        if self.epoch is not None and self.epoch != epoch:
            return False
        if self.src is not None and src is not None and self.src != src:
            return False
        if self.dst is not None and dst is not None and self.dst != dst:
            return False
        return True

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse one ``kind[:tag[@epoch]][:k=v,...]`` spec string."""
        parts = [p for p in text.strip().split(":") if p]
        if not parts:
            raise ValueError("empty fault spec")
        kind = parts[0]
        kwargs: dict[str, object] = {}
        rest = parts[1:]
        if rest and "=" not in rest[0]:
            tag = rest[0]
            if "@" in tag:
                tag, _, epoch = tag.rpartition("@")
                kwargs["epoch"] = int(epoch)
            kwargs["tag"] = tag
            rest = rest[1:]
        for seg in rest:
            for item in seg.split(","):
                if not item:
                    continue
                if "=" not in item:
                    raise ValueError(f"bad fault option {item!r} in {text!r}")
                key, _, value = item.partition("=")
                key = key.strip()
                if key in ("src", "dst", "count", "epoch"):
                    kwargs[key] = int(value)
                elif key in ("delay", "delay_s"):
                    kwargs["delay_s"] = float(value)
                else:
                    raise ValueError(f"unknown fault option {key!r} in {text!r}")
        return cls(kind=kind, **kwargs)


@dataclass
class FaultPlan:
    """A set of :class:`FaultSpec` entries a transport consults on its wire path.

    The plan is epoch-aware: the cluster calls :meth:`set_epoch` at every
    epoch boundary, and specs with an ``epoch`` filter only fire in that
    epoch.  Fired faults are appended to :attr:`log` as
    ``(epoch, kind, tag, src, dst)`` tuples so tests can assert that the
    scripted failure actually happened (a fault plan whose faults never
    fire proves nothing).

    Thread-safe: posts arrive from transport worker threads while the
    main thread dispatches steps.
    """

    specs: list[FaultSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._epoch = 0
        self._lock = threading.Lock()
        self.log: list[tuple[int, str, str, int | None, int | None]] = []

    @classmethod
    def parse(cls, texts) -> "FaultPlan":
        """Build a plan from an iterable of spec strings."""
        return cls([FaultSpec.parse(t) for t in texts])

    @property
    def epoch(self) -> int:
        return self._epoch

    def set_epoch(self, epoch: int) -> None:
        with self._lock:
            self._epoch = int(epoch)

    def take(
        self,
        kind: str,
        tag: str,
        src: int | None = None,
        dst: int | None = None,
    ) -> FaultSpec | None:
        """Consume one matching armed fault (decrements its count), or None."""
        with self._lock:
            for spec in self.specs:
                if spec.matches(kind, tag, self._epoch, src, dst):
                    spec.count -= 1
                    self.log.append((self._epoch, kind, tag, src, dst))
                    return spec
        return None

    # Convenience wrappers naming the injection points -------------------
    def on_post(self, tag: str, src: int, dst: int) -> str | None:
        """Action for one envelope: ``"drop"``, ``"duplicate"`` or None."""
        for kind in ("drop", "duplicate"):
            if self.take(kind, tag, src, dst) is not None:
                return kind
        return None

    def on_job(self, tag: str) -> FaultSpec | None:
        """A ``stall`` or ``error`` spec for a deferred job, or None."""
        spec = self.take("stall", tag)
        if spec is not None:
            return spec
        return self.take("error", tag)

    def armed(self) -> list[FaultSpec]:
        """Specs that may still fire."""
        with self._lock:
            return [s for s in self.specs if s.count > 0]
