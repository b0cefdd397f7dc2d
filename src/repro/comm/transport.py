"""In-memory transport between simulated devices, with byte accounting.

Real payload objects (quantized byte streams or float arrays) are routed
through per-destination mailboxes; every ``post`` records its wire size in
a per-tag byte matrix.  Those matrices are exactly what the schedule
simulators consume — the simulated clock is driven by *measured* byte
counts, not estimates.

The transport API splits in two:

* :class:`TransportBackend` — the formal backend ABC.  Its wire ops
  (``post``/``post_batch``/``collect``/``defer``/``complete``/``close``)
  are everything an exchange touches, so a backend is swappable without
  the exchanges noticing; :mod:`repro.comm.transports` selects one by
  spec (``"sync"``, ``"worker:4"``).
* :class:`TransportAccounting` — the backend-agnostic mailbox +
  byte-accounting/overlap mixin (``pending_bytes``/``note_overlap``/
  ``bytes_matrix``…).  Both backends share it, so the simulated clock
  sees identical accounting whatever executes the jobs.

Two backends live here:

* :class:`SyncTransport` executes everything on the calling thread —
  posts are visible the moment ``post``/``post_batch`` returns;
* :class:`WorkerTransport` additionally runs *deferred jobs* (the
  exchanges' quantize/pack/post closures, and their collect/decode
  followups) on a pool of background worker threads, so the posters'
  heavy kernels overlap the main thread's GIL-releasing compute — and,
  with several workers, each other.  ``defer``/``defer_many`` hand jobs
  to the pool, ``complete`` joins everything registered under a tag
  (including jobs a running job deferred after it) — the split-phase
  executor's finalize half always joins before collecting.

Worker counts are a *transport* property: exchanges consult
``transport.workers`` to decide how many encode shards to emit; keyed
rounding makes shards order-independent, so any count is safe.
"""

from __future__ import annotations

import abc
import os
import threading
import time
from collections import defaultdict
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout

import numpy as np

__all__ = [
    "TransportBackend",
    "TransportAccounting",
    "TransportError",
    "SyncTransport",
    "WorkerTransport",
    "detected_cores",
    "host_spare_cores",
    "host_has_spare_core",
]


class TransportError(RuntimeError):
    """A transport failure that was *detected* rather than silently absorbed.

    Raised for missed ``complete()`` deadlines (naming the tag and the
    outstanding jobs) and for missing envelopes no recovery path can
    regenerate.  Subclasses :class:`RuntimeError` so pre-existing
    callers that catch broad runtime failures keep working; new callers
    (the trainer's escalate-to-checkpoint-restore path) catch this type
    specifically.
    """


def detected_cores() -> int:
    """CPU cores available to this process (affinity-aware on Linux)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def host_spare_cores() -> int:
    """Cores left over for transport workers once the main thread has one.

    A spec with no explicit worker count (``"worker"``) resolves to this,
    so a K-core host runs the main thread plus K-1 workers — saturating
    the hardware without oversubscribing it.
    """
    return max(0, detected_cores() - 1)


def host_has_spare_core() -> bool:
    """Whether a transport worker thread can run on its own core.

    On a single-CPU host the worker and the main thread timeshare one
    core, so deferring encode work buys nothing and pays context-switch
    tax — callers that auto-select the transport (``transport="auto"``)
    use this to fall back to the synchronous one there.
    """
    return host_spare_cores() >= 1


class TransportBackend(abc.ABC):
    """The wire-operation API every transport backend implements.

    Exchanges program against exactly these six operations (plus the
    ``defer_many`` convenience); anything else a concrete backend offers
    — accounting, worker pools — is backend detail.  Class
    attributes ``kind``/``is_async``/``workers`` describe the execution
    shape so exchanges can pick a job decomposition.
    """

    #: spec name of the backend ("sync" or "worker")
    kind = "?"
    #: whether deferred jobs really run on a background worker
    is_async = False
    #: background workers available for deferred jobs (0 = inline only)
    workers = 0
    #: deadline (seconds) for :meth:`complete` joins; None waits forever.
    #: Set per-instance (the cluster threads ``RunConfig.transport_timeout_s``
    #: through); a missed deadline raises :class:`TransportError`.
    timeout_s: float | None = None
    #: optional :class:`~repro.comm.faults.FaultPlan` consulted on the wire
    #: path (fault-injection tests and chaos runs); None injects nothing.
    fault_plan = None

    @abc.abstractmethod
    def post(self, src: int, dst: int, tag: str, payload: object, nbytes: int) -> None:
        """Queue ``payload`` from ``src`` to ``dst`` under ``tag``."""

    @abc.abstractmethod
    def post_batch(
        self, src: int, tag: str, posts: list[tuple[int, object, int]]
    ) -> None:
        """Post one envelope per ``(dst, payload, nbytes)`` in a single call."""

    @abc.abstractmethod
    def collect(self, dst: int, tag: str) -> dict[int, object]:
        """Drain ``dst``'s mailbox for ``tag``; ``{src: payload}``, src ascending."""

    @abc.abstractmethod
    def defer(self, tag: str, job) -> None:
        """Run ``job`` (an encode-and-post closure) for ``tag``.

        Synchronous backends execute it inline, so ``post_step`` behaves
        exactly as before; async backends hand the job to their worker
        pool.  A tag may carry several jobs (encode shards plus their
        decode followups); :meth:`complete` joins them all.
        """

    @abc.abstractmethod
    def complete(self, tag: str) -> float:
        """Join ``tag``'s deferred jobs; returns seconds spent waiting.

        No-op (0.0) on synchronous backends — everything already ran
        inside :meth:`defer`.  Worker exceptions re-raise here.
        """

    @abc.abstractmethod
    def close(self) -> None:
        """Release background resources; idempotent, never raises job errors."""

    def defer_many(self, tag: str, jobs) -> None:
        """Defer every job in ``jobs`` under ``tag`` (in order)."""
        for job in jobs:
            self.defer(tag, job)

    def transport_health(self) -> dict:
        """A JSON-able summary of this transport's run: which backend ran
        with how many workers, and the injected-fault counters."""
        return {
            "kind": self.kind,
            "workers": int(self.workers),
            "is_async": bool(self.is_async),
            "fault_stats": dict(getattr(self, "fault_stats", {}) or {}),
        }


class TransportAccounting:
    """Mailboxes plus byte/overlap accounting for ``num_devices`` devices.

    Backend-agnostic: both backends mix this in, so the byte
    matrices and the progress model are identical whichever execution
    shape ran the jobs.

    Tags namespace independent exchanges (e.g. ``"fwd/layer0"`` vs
    ``"bwd/layer2"``); within a tag each (src, dst) pair may post at most
    one envelope per collection cycle, mirroring the one-buffer-per-peer
    design of the paper's implementation.

    Mailboxes are insertion-ordered ``{src: payload}`` dicts: the fused
    engines post ~K² envelopes per step, so per-envelope overhead (object
    construction, duplicate scans) is the transport's hot path — one dict
    op gives enqueue + O(1) duplicate detection + collection order in one.
    Per-tag byte matrices are resolved once per post/batch through a plain
    dict lookup (:meth:`_matrix`), never rebuilt per envelope.

    **Progress model** (the split-phase pipeline's interleave record):
    every posted envelope is *pending* until its destination collects it.
    :meth:`note_overlap` marks all bytes currently pending under a tag as
    having been in flight during an overlapped compute window — the
    pipelined executor calls it right before running the central sub-step
    — and *opens* that window: bytes posted while it is open (an async
    backend's worker posts land mid-window) count as overlapped too.
    The window closes at the first :meth:`collect` under the tag, so
    :meth:`overlapped_bytes` measures how much of a step's traffic was in
    flight before any receiver drained it (not how much a cost model
    predicts could be hidden).

    All accounting mutations take a lock so an async backend's worker can
    post while the main thread reads progress counters; on the
    synchronous transport the uncontended acquisition is noise next to a
    single envelope's dict traffic.
    """

    def __init__(self, num_devices: int) -> None:
        if num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        self.num_devices = num_devices
        self._boxes: dict[tuple[str, int], dict[int, object]] = defaultdict(dict)
        self._bytes: dict[str, np.ndarray] = {}
        self._pending: dict[str, int] = defaultdict(int)
        self._pending_by_box: dict[tuple[str, int], int] = defaultdict(int)
        self._overlapped: dict[str, int] = defaultdict(int)
        self._window_open: set[str] = set()
        self._lock = threading.Lock()
        #: counters of injected faults observed/handled on this transport
        #: ("dropped", "duplicates_rejected", "replays")
        self.fault_stats: dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------
    def _matrix(self, tag: str) -> np.ndarray:
        """The cumulative byte matrix for ``tag`` (created on first use)."""
        matrix = self._bytes.get(tag)
        if matrix is None:
            matrix = self._bytes[tag] = np.zeros(
                (self.num_devices, self.num_devices), dtype=np.int64
            )
        return matrix

    def post(self, src: int, dst: int, tag: str, payload: object, nbytes: int) -> None:
        """Queue ``payload`` from ``src`` to ``dst`` under ``tag``."""
        plan = self.fault_plan
        if plan is not None:
            action = plan.on_post(tag, src, dst)
            if action == "drop":
                # The envelope left the sender (bytes hit the wire and are
                # accounted) but never lands in the destination mailbox.
                self._post_one(src, dst, tag, payload, nbytes, deliver=False)
                self.fault_stats["dropped"] += 1
                return
            if action == "duplicate":
                self._post_one(src, dst, tag, payload, nbytes)
                try:
                    # Second arrival of the same envelope: the mailbox's
                    # one-envelope-per-pair invariant must reject it.
                    self._post_one(src, dst, tag, payload, nbytes)
                except RuntimeError:
                    self.fault_stats["duplicates_rejected"] += 1
                    return
                raise TransportError(
                    f"duplicate envelope on tag {tag!r} for pair {src}->{dst}"
                    " was accepted instead of rejected"
                )
        self._post_one(src, dst, tag, payload, nbytes)

    def _post_one(
        self,
        src: int,
        dst: int,
        tag: str,
        payload: object,
        nbytes: int,
        *,
        deliver: bool = True,
    ) -> None:
        self._check_device(src)
        self._check_device(dst)
        if src == dst:
            raise ValueError("devices do not message themselves")
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        nb = int(nbytes)
        with self._lock:
            box = self._boxes[(tag, dst)]
            if src in box:
                raise RuntimeError(
                    f"duplicate post on tag {tag!r} for pair {src}->{dst}"
                )
            if deliver:
                box[src] = payload
            self._matrix(tag)[src, dst] += nb
            self._pending[tag] += nb
            self._pending_by_box[(tag, dst)] += nb
            if tag in self._window_open:
                self._overlapped[tag] += nb

    def post_batch(
        self, src: int, tag: str, posts: list[tuple[int, object, int]]
    ) -> None:
        """Post one envelope per ``(dst, payload, nbytes)`` in a single call.

        The fused engines emit all of one device's outgoing messages for a
        step at once; a single pass validates, enqueues and accounts each
        one.  Semantics are identical to repeated :meth:`post`, with the
        per-envelope device checks collapsed into one source check plus a
        range test folded into the validation scan.
        """
        self._check_device(src)
        if not posts:
            return
        plan = self.fault_plan
        if plan is not None and plan.armed():
            # Fault path: fall back to per-envelope posting so each entry
            # passes through the injection hooks.  Cold by construction —
            # plans only exist in fault-injection runs.
            for dst, payload, nb in posts:
                self.post(src, dst, tag, payload, nb)
            return
        # Validate the whole batch before enqueuing anything, so a bad
        # entry cannot leave phantom envelopes or byte accounting behind.
        # ``boxes.get`` (not ``boxes[...]``) keeps the duplicate scan from
        # materializing empty defaultdict mailboxes.
        boxes = self._boxes
        n = self.num_devices
        seen: set[int] = set()
        with self._lock:
            for dst, _, nb in posts:
                if not 0 <= dst < n:
                    raise ValueError(f"destination out of range [0, {n})")
                if dst == src:
                    raise ValueError("devices do not message themselves")
                if nb < 0:
                    raise ValueError("nbytes must be non-negative")
                box = boxes.get((tag, dst))
                if dst in seen or (box is not None and src in box):
                    raise RuntimeError(
                        f"duplicate post on tag {tag!r} for pair {src}->{dst}"
                    )
                seen.add(dst)
            row = self._matrix(tag)[src]
            pending = 0
            for dst, payload, nb in posts:
                boxes[(tag, dst)][src] = payload
                nb = int(nb)
                row[dst] += nb
                pending += nb
                self._pending_by_box[(tag, dst)] += nb
            self._pending[tag] += pending
            if tag in self._window_open:
                self._overlapped[tag] += pending

    def collect(self, dst: int, tag: str) -> dict[int, object]:
        """Drain ``dst``'s mailbox for ``tag``; returns ``{src: payload}``.

        Iteration order is **source-ascending**, whatever order the posts
        arrived in: concurrent transport workers retire envelopes in
        nondeterministic order, and receivers accumulate floats in mailbox
        iteration order — sorting here is what keeps accumulation (and so
        training results) bitwise-reproducible at any worker count.
        """
        self._check_device(dst)
        with self._lock:
            self._window_open.discard(tag)
            drained = self._pending_by_box.pop((tag, dst), 0)
            if drained:
                self._pending[tag] -= drained
            box = self._boxes.pop((tag, dst), {})
        return {src: box[src] for src in sorted(box)} if len(box) > 1 else box

    # ------------------------------------------------------------------
    # Progress model
    # ------------------------------------------------------------------
    def pending_bytes(self, tag: str) -> int:
        """Bytes posted under ``tag`` that no destination has collected yet."""
        return int(self._pending.get(tag, 0))

    def note_overlap(self, tag: str) -> int:
        """Open ``tag``'s overlap window; returns the bytes already pending.

        Called by the pipelined executor at the start of a central-compute
        window: whatever is in flight at that moment — plus whatever a
        deferred post job lands while the window stays open — is the
        traffic the executed schedule hides under computation.
        """
        with self._lock:
            pending = int(self._pending.get(tag, 0))
            if pending:
                self._overlapped[tag] += pending
            self._window_open.add(tag)
        return pending

    def overlapped_bytes(self, tag: str) -> int:
        """Cumulative bytes of ``tag`` marked in flight during overlap windows."""
        return int(self._overlapped.get(tag, 0))

    # ------------------------------------------------------------------
    def bytes_matrix(self, tag: str) -> np.ndarray:
        """Cumulative bytes posted under ``tag`` as an (N, N) matrix."""
        with self._lock:
            if tag in self._bytes:
                return self._bytes[tag].copy()
        return np.zeros((self.num_devices, self.num_devices), dtype=np.int64)

    def total_bytes(self) -> int:
        with self._lock:
            return int(sum(m.sum() for m in self._bytes.values()))

    def reset_accounting(self) -> None:
        """Clear byte counters (mailboxes must already be drained)."""
        with self._lock:
            if any(self._boxes.values()):
                pending = [key for key, box in self._boxes.items() if box]
                raise RuntimeError(f"undelivered messages remain: {pending}")
            self._bytes.clear()
            self._pending.clear()
            self._pending_by_box.clear()
            self._overlapped.clear()
            self._window_open.clear()

    def pending_tags(self) -> list[str]:
        with self._lock:
            return sorted({tag for (tag, _), box in self._boxes.items() if box})

    def _check_device(self, device: int) -> None:
        if not 0 <= device < self.num_devices:
            raise ValueError(f"device {device} out of range [0, {self.num_devices})")


def apply_job_faults(
    transport: TransportBackend,
    tag: str,
    job,
    closing: threading.Event | None = None,
):
    """Wrap ``job`` per the transport's fault plan (stall/error kinds).

    Returns ``job`` unchanged when no plan is armed for the tag.  Shared
    by both backends so the injection semantics are identical
    whichever pool runs the job.  A stall sleeps on ``closing`` when the
    backend has one: ``close()`` sets it, which ends the stall at once and
    abandons the stalled job instead of holding pool shutdown for the
    rest of the delay.
    """
    plan = transport.fault_plan
    if plan is None:
        return job
    spec = plan.on_job(tag)
    if spec is None:
        return job
    if spec.kind == "error":

        def failing() -> None:
            raise RuntimeError(f"injected transport job fault on tag {tag!r}")

        return failing

    delay = float(spec.delay_s)

    def stalled() -> None:
        if closing is None:
            time.sleep(delay)
        elif closing.wait(delay):
            return
        job()

    return stalled


class SyncTransport(TransportAccounting, TransportBackend):
    """Inline mailbox transport: everything runs on the calling thread.

    Deferred jobs execute immediately inside :meth:`defer`, so posts are
    visible the moment ``post_step`` returns — the reference execution
    shape every async backend must match bitwise.
    """

    kind = "sync"

    # ------------------------------------------------------------------
    # Deferred posting (async hooks; the synchronous transport runs inline)
    # ------------------------------------------------------------------
    def defer(self, tag: str, job) -> None:
        if self.fault_plan is not None:
            job = apply_job_faults(self, tag, job)
        job()

    def complete(self, tag: str) -> float:
        return 0.0

    def close(self) -> None:
        """Release background resources; idempotent (no-op here)."""


class WorkerTransport(SyncTransport):
    """Thread-pool-backed transport: deferred encode/post (and decode)
    jobs run on background workers, concurrently with the main thread —
    and, at ``workers > 1``, with each other.

    Threading model (see README "transport backends"):

    * ``defer``/``defer_many`` submit the exchange's quantize/pack/post
      closures to the pool and return immediately; the main thread goes on
      to run the central sub-step, whose BLAS/spmv kernels release the GIL
      — so the workers' NumPy quantize/pack kernels genuinely execute in
      parallel on spare cores;
    * the pool size is the caller's choice.  Keyed rounding makes payload
      bytes a pure function of block coordinates, so the quantized
      exchange shards one step across every worker and lets shards retire
      in any order;
    * a running job may itself :meth:`defer` followup work under its tag
      (the fused exchange's last encode shard defers per-receiver decode
      jobs); ``complete(tag)`` joins everything registered under the tag,
      including followups that appear while it waits, re-raises worker
      exceptions, and returns the seconds the caller was blocked — the
      *exposed* tail the central window failed to cover, recorded per step
      as :class:`~repro.cluster.records.StepTimeline` ``worker_wait_s``;
    * :meth:`collect` auto-joins as a safety net, so a collector can never
      observe a half-posted step.  (Worker-side decode jobs use the base
      :meth:`TransportAccounting.collect` directly — they run *inside* the
      tag's job set, after every post of the step, and must not join
      themselves.)
    * workers produce (encode + post) and pre-decode; the main thread
      alone scatters and accumulates, in fixed device order over
      source-sorted mailboxes — which is what keeps the async path
      bitwise-reproducible at any worker count.
    """

    kind = "worker"
    is_async = True

    def __init__(self, num_devices: int, *, workers: int = 1) -> None:
        super().__init__(num_devices)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        self._pool: ThreadPoolExecutor | None = None
        self._jobs: dict[str, list[Future]] = {}
        self._jobs_lock = threading.Lock()
        self._closed = False
        self._closing = threading.Event()  # wakes injected stalls at close()

    # ------------------------------------------------------------------
    def defer(self, tag: str, job) -> None:
        if self.fault_plan is not None:
            job = apply_job_faults(self, tag, job, self._closing)
        with self._jobs_lock:
            if self._closed:
                raise RuntimeError("transport is closed")
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-transport",
                )
            self._jobs.setdefault(tag, []).append(self._pool.submit(job))

    def complete(self, tag: str) -> float:
        t0 = time.perf_counter()
        deadline = None if self.timeout_s is None else t0 + float(self.timeout_s)
        joined = 0
        while True:
            with self._jobs_lock:
                futures = self._jobs.get(tag, [])
                batch = futures[joined:]
                if not batch:
                    self._jobs.pop(tag, None)
                    break
            # Join outside the lock (jobs may defer followups under this
            # tag, which needs the lock); loop to pick up anything that
            # was registered while we waited.
            for future in batch:
                if deadline is None:
                    future.result()
                    continue
                try:
                    future.result(timeout=max(0.0, deadline - time.perf_counter()))
                except _FuturesTimeout:
                    with self._jobs_lock:
                        outstanding = sum(
                            1 for f in self._jobs.get(tag, []) if not f.done()
                        )
                    raise TransportError(
                        f"tag {tag!r} missed its {self.timeout_s}s completion"
                        f" deadline with {outstanding} outstanding job(s)"
                        f" ({joined} joined)"
                    ) from None
            joined += len(batch)
        return time.perf_counter() - t0 if joined else 0.0

    def complete_all(self) -> None:
        """Join every outstanding job (used at epoch boundaries/shutdown)."""
        while True:
            with self._jobs_lock:
                tags = [t for t, futures in self._jobs.items() if futures]
            if not tags:
                return
            for tag in tags:
                self.complete(tag)

    def collect(self, dst: int, tag: str) -> dict[int, object]:
        # Safety net: finalize_step joins via InFlightStep.mark_done, but a
        # direct collector must never see a half-posted step either.
        with self._jobs_lock:
            outstanding = bool(self._jobs.get(tag))
        if outstanding:
            self.complete(tag)
        return super().collect(dst, tag)

    def reset_accounting(self) -> None:
        self.complete_all()
        super().reset_accounting()

    def pending_tags(self) -> list[str]:
        self.complete_all()
        return super().pending_tags()

    def close(self) -> None:
        """Shut the pool down; idempotent, and never raises job errors.

        The exception paths are exactly where close matters most (a failed
        epoch must not leak the worker threads), so outstanding jobs are
        joined with their exceptions swallowed — anyone who cared already
        saw them re-raised from :meth:`complete`.  After close the
        transport refuses new deferred work.
        """
        with self._jobs_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        self._closing.set()
        if pool is not None:
            pool.shutdown(wait=True)
        with self._jobs_lock:
            orphans = [f for futures in self._jobs.values() for f in futures]
            self._jobs.clear()
        for future in orphans:
            if future.done():
                future.exception()  # retrieve, so nothing warns at gc time
