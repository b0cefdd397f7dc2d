"""Transport selection specs.

One training run picks its transport through a single spec — ``"auto"``,
``"sync"``, ``"worker:4"``.  Two backends exist, both in
:mod:`repro.comm.transport`: :class:`~repro.comm.transport.SyncTransport`
(the reference) and :class:`~repro.comm.transport.WorkerTransport` (a
thread pool); :func:`create_transport` maps a resolved spec to one.

Spec grammar::

    auto            resolve at cluster construction: worker when the run
                    overlaps and the host has a spare core, sync otherwise
    auto:N          same, but pin the worker count if async is chosen
    sync            inline mailbox transport (no worker count)
    worker[:N]      thread-pool transport with N workers (default: spare cores)

The worker backend only pays off inside the split-phase pipeline's central
window, so :func:`resolve_spec` degrades it to ``sync`` for non-overlapped
runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm.transport import (
    SyncTransport,
    WorkerTransport,
    host_has_spare_core,
    host_spare_cores,
)

__all__ = [
    "TransportSpec",
    "create_transport",
    "parse_transport_spec",
    "resolve_spec",
]

_BACKENDS: dict[str, type] = {"sync": SyncTransport, "worker": WorkerTransport}


@dataclass(frozen=True)
class TransportSpec:
    """One parsed transport selection: ``backend[:workers]``.

    ``workers=None`` means "backend default" (resolved to the host's spare
    cores for the worker backend).  ``sync`` takes no worker count.
    """

    backend: str = "auto"
    workers: int | None = None

    def __post_init__(self) -> None:
        if self.backend != "auto" and self.backend not in _BACKENDS:
            raise ValueError(
                f"unknown transport backend {self.backend!r} "
                f"(expected one of: auto, {', '.join(_BACKENDS)})"
            )
        if self.workers is not None:
            if self.backend == "sync":
                raise ValueError("the sync transport takes no worker count")
            if int(self.workers) < 1:
                raise ValueError("transport workers must be >= 1 (or None for auto)")
            object.__setattr__(self, "workers", int(self.workers))

    @classmethod
    def parse(cls, spec: "TransportSpec | str") -> "TransportSpec":
        """Parse ``"backend[:N]"`` (a ready spec passes through).

        >>> TransportSpec.parse("worker:4")
        TransportSpec(backend='worker', workers=4)
        """
        if isinstance(spec, TransportSpec):
            return spec
        if not isinstance(spec, str):
            raise TypeError(f"transport spec must be a str or TransportSpec: {spec!r}")
        name, sep, count = spec.strip().partition(":")
        workers = None
        if sep:
            try:
                workers = int(count)
            except ValueError:
                raise ValueError(
                    f"bad worker count in transport spec {spec!r}"
                ) from None
        return cls(name, workers)

    def __str__(self) -> str:
        return self.backend if self.workers is None else f"{self.backend}:{self.workers}"


def parse_transport_spec(spec: TransportSpec | str) -> TransportSpec:
    """Module-level alias of :meth:`TransportSpec.parse`."""
    return TransportSpec.parse(spec)


def resolve_spec(spec: TransportSpec | str, *, overlap: bool = True) -> TransportSpec:
    """Resolve ``auto`` and default worker counts into a concrete spec.

    ``overlap`` is whether the run executes the split-phase pipeline: the
    worker backend exists to hide encode/decode under its central window,
    so without it every spec resolves to ``sync``.
    """
    spec = TransportSpec.parse(spec)
    backend = spec.backend
    if backend == "auto":
        if not (overlap and host_has_spare_core()):
            return TransportSpec("sync")
        backend = "worker"
    if backend == "sync" or not overlap:
        return TransportSpec("sync")
    workers = spec.workers if spec.workers is not None else max(1, host_spare_cores())
    return TransportSpec(backend, workers)


def create_transport(spec: TransportSpec | str, num_devices: int):
    """Instantiate the backend a concrete spec names.

    ``auto`` must be resolved first (:func:`resolve_spec`) — only the
    caller knows whether the run overlaps.
    """
    spec = TransportSpec.parse(spec)
    if spec.backend == "auto":
        raise ValueError("resolve 'auto' with resolve_spec() before creating")
    cls = _BACKENDS[spec.backend]
    if spec.workers is None:
        return cls(num_devices)
    return cls(num_devices, workers=spec.workers)
