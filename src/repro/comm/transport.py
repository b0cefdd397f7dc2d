"""In-memory transport between simulated devices, with byte accounting.

Real payload objects (quantized byte streams or float arrays) are routed
through per-destination mailboxes; every ``post`` records its wire size in
a per-tag byte matrix.  Those matrices are exactly what the schedule
simulators consume — the simulated clock is driven by *measured* byte
counts, not estimates.

One class, :class:`Transport`, holds the whole mechanism: the mailboxes,
the byte and overlap accounting, the fault hooks, the ``complete()``
deadline and ``close()``.  What differs between execution shapes is one
number, ``workers``:

* ``workers == 0`` runs *deferred jobs* (the exchanges' quantize/pack/post
  closures) inline on the caller, so posts are visible the moment
  ``defer`` returns — the reference shape;
* ``workers >= 1`` submits them to a lazily created pool of that many
  threads, so the posters' heavy kernels overlap the main thread's
  GIL-releasing compute — and, with several workers, each other.
  ``complete`` joins everything registered under a tag (including jobs a
  running job deferred after it); the split-phase executor's finalize
  half always joins before collecting.

:func:`transport_workers` turns the user spelling ``auto | sync |
worker[:N]`` into that number.  Exchanges consult ``transport.workers``
to decide how many encode shards to emit; keyed rounding makes shards
order-independent, so any count is safe.
"""

from __future__ import annotations

import os
import threading
import time
from collections import defaultdict
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout

import numpy as np

__all__ = [
    "Transport",
    "TransportError",
    "detected_cores",
    "host_spare_cores",
    "transport_workers",
]

_GRAMMAR = "expected one of: auto, sync, worker[:N]"


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


def transport_workers(spec: str, *, overlap: bool) -> int:
    """Parse a transport spec and resolve it to a worker count.

    Grammar::

        auto        workers when the run overlaps and the host has a
                    spare core (one per spare core), inline otherwise
        sync        inline (0 workers)
        worker[:N]  N pool threads (default: the host's spare cores, >= 1)

    The whole spec is validated first, so a bad spelling raises
    :class:`ValueError` whatever ``overlap`` is.  ``overlap`` is whether
    the run executes the split-phase pipeline: workers exist to hide
    encode/decode under its central window, so without one every spec
    resolves to 0.

    >>> transport_workers("worker:4", overlap=True)
    4
    >>> transport_workers("worker:4", overlap=False)
    0
    """
    if not isinstance(spec, str):
        raise TypeError(f"transport spec must be a str: {spec!r}")
    name, sep, count = spec.strip().partition(":")
    if name not in ("auto", "sync", "worker"):
        raise ValueError(f"unknown transport backend {name!r} ({_GRAMMAR})")
    workers = None
    if sep:
        if name != "worker":
            raise ValueError(f"the {name} transport takes no worker count ({_GRAMMAR})")
        try:
            workers = int(count)
        except ValueError:
            raise ValueError(f"bad worker count in transport spec {spec!r}") from None
        if workers < 1:
            raise ValueError("transport workers must be >= 1")
    spare = host_spare_cores()
    if name == "sync" or not overlap or (name == "auto" and not spare):
        return 0
    return workers if workers is not None else max(1, spare)


class Transport:
    """Mailboxes, byte/overlap accounting and a pool of ``workers`` threads.

    Tags namespace independent exchanges (e.g. ``"fwd/layer0"`` vs
    ``"bwd/layer2"``); within a tag each (src, dst) pair may post at most
    one envelope per collection cycle, mirroring the one-buffer-per-peer
    design of the paper's implementation.

    Mailboxes are insertion-ordered ``{src: payload}`` dicts: the fused
    engines post ~K² envelopes per step, so per-envelope overhead (object
    construction, duplicate scans) is the transport's hot path — one dict
    op gives enqueue + O(1) duplicate detection + collection order in one.
    Per-tag byte matrices are resolved once per batch through a plain
    dict lookup (:meth:`_matrix`), never rebuilt per envelope.

    **Progress model** (the split-phase pipeline's interleave record):
    every posted envelope is *pending* until its destination collects it.
    :meth:`note_overlap` marks all bytes currently pending under a tag as
    having been in flight during an overlapped compute window — the
    pipelined executor calls it right before running the central sub-step
    — and *opens* that window: bytes posted while it is open (a pool
    worker's posts land mid-window) count as overlapped too.  The window
    closes at the first :meth:`collect` under the tag, so
    :meth:`overlapped_bytes` measures how much of a step's traffic was in
    flight before any receiver drained it (not how much a cost model
    predicts could be hidden).  The accounting is identical whatever ran
    the jobs; its mutations take a lock so a worker can post while the
    main thread reads progress counters.

    **Threading model** (``workers >= 1``; see README "The worker
    transport"):

    * ``defer`` submits the exchange's quantize/pack/post closures to the
      pool and returns at once; the main thread goes on to run the central
      sub-step, whose BLAS/spmv kernels release the GIL — so the workers'
      kernels genuinely execute in parallel on spare cores;
    * a running job may itself :meth:`defer` followup work under its tag
      (the fused exchange's last encode shard defers per-receiver decode
      jobs); ``complete(tag)`` joins everything registered under the tag,
      including followups that appear while it waits, re-raises worker
      exceptions, and returns the seconds the caller was blocked — the
      *exposed* tail the central window failed to cover, recorded per step
      as :class:`~repro.cluster.records.StepTimeline` ``worker_wait_s``;
    * :meth:`collect` joins the tag first, so a collector can never
      observe a half-posted step — except with ``join=False``, which the
      worker-side decode jobs use: they run *inside* the tag's job set,
      after every post of the step, and must not join themselves;
    * workers produce (encode + post) and pre-decode; the main thread
      alone scatters and accumulates, in fixed device order over
      source-sorted mailboxes — which is what keeps every worker count
      bitwise-reproducible.
    """

    def __init__(self, num_devices: int, *, workers: int = 0) -> None:
        if num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.num_devices = num_devices
        #: pool threads for deferred jobs; 0 runs them inline on the caller
        self.workers = int(workers)
        #: deadline (seconds) for :meth:`complete` joins; None waits forever.
        #: The cluster threads ``RunConfig.transport_timeout_s`` through; a
        #: missed deadline raises :class:`TransportError`.
        self.timeout_s: float | None = None
        #: optional :class:`~repro.comm.faults.FaultPlan` consulted on the
        #: wire path (fault-injection tests and chaos runs)
        self.fault_plan = None
        #: counters of injected faults observed/handled on this transport
        #: ("dropped", "duplicates_rejected", "replays")
        self.fault_stats: dict[str, int] = defaultdict(int)
        self._boxes: dict[tuple[str, int], dict[int, object]] = defaultdict(dict)
        self._bytes: dict[str, np.ndarray] = {}
        self._pending: dict[str, int] = defaultdict(int)
        self._pending_by_box: dict[tuple[str, int], int] = defaultdict(int)
        self._overlapped: dict[str, int] = defaultdict(int)
        self._window_open: set[str] = set()
        self._lock = threading.Lock()
        self._pool: ThreadPoolExecutor | None = None
        self._jobs: dict[str, list[Future]] = {}
        self._jobs_lock = threading.Lock()
        self._closed = False
        self._closing = threading.Event()  # wakes injected stalls at close()

    @property
    def is_async(self) -> bool:
        """Whether deferred jobs run on pool threads (``workers > 0``)."""
        return self.workers > 0

    def transport_health(self) -> dict:
        """A JSON-able summary of this transport's run: inline or worker
        pool, with how many workers, and the injected-fault counters."""
        return {
            "kind": "worker" if self.workers else "sync",
            "workers": self.workers,
            "is_async": self.is_async,
            "fault_stats": dict(self.fault_stats),
        }

    # ------------------------------------------------------------------
    # Mailboxes
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
        self.post_batch(src, tag, [(dst, payload, nbytes)])

    def post_batch(
        self, src: int, tag: str, posts: list[tuple[int, object, int]]
    ) -> None:
        """Post one envelope per ``(dst, payload, nbytes)`` in a single call.

        The fused engines emit all of one device's outgoing messages for a
        step at once; a single pass validates, enqueues and accounts each
        one.  The whole batch is validated before anything is enqueued, so
        a bad entry leaves no phantom envelope or byte count behind.

        With a fault plan armed, each envelope's action comes from
        ``plan.on_post`` in list order: a dropped envelope left the sender
        (its bytes are accounted) but never lands; a duplicated one lands
        once, and its second arrival meets the mailbox's one-envelope-per-
        pair check and is rejected.
        """
        self._check_device(src)
        if not posts:
            return
        plan = self.fault_plan
        if plan is not None and not plan.armed():
            plan = None
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
                action = plan.on_post(tag, src, dst) if plan is not None else None
                if action == "drop":
                    self.fault_stats["dropped"] += 1
                else:
                    boxes[(tag, dst)][src] = payload
                    if action == "duplicate":
                        # The second arrival finds the pair's envelope
                        # queued: the one-envelope-per-pair check rejects it.
                        self.fault_stats["duplicates_rejected"] += 1
                nb = int(nb)
                row[dst] += nb
                pending += nb
                self._pending_by_box[(tag, dst)] += nb
            self._pending[tag] += pending
            if tag in self._window_open:
                self._overlapped[tag] += pending

    def collect(self, dst: int, tag: str, *, join: bool = True) -> dict[int, object]:
        """Drain ``dst``'s mailbox for ``tag``; returns ``{src: payload}``.

        With ``join`` (the default) the tag's outstanding jobs are joined
        first; ``join=False`` is for jobs running inside that job set.

        Iteration order is **source-ascending**, whatever order the posts
        arrived in: concurrent transport workers retire envelopes in
        nondeterministic order, and receivers accumulate floats in mailbox
        iteration order — sorting here is what keeps accumulation (and so
        training results) bitwise-reproducible at any worker count.
        """
        if join and self._jobs.get(tag):
            self.complete(tag)
        self._check_device(dst)
        with self._lock:
            self._window_open.discard(tag)
            drained = self._pending_by_box.pop((tag, dst), 0)
            if drained:
                self._pending[tag] -= drained
            box = self._boxes.pop((tag, dst), {})
        return {src: box[src] for src in sorted(box)} if len(box) > 1 else box

    # ------------------------------------------------------------------
    # Deferred jobs
    # ------------------------------------------------------------------
    def defer(self, tag: str, job) -> None:
        """Run ``job`` (an encode-and-post closure) for ``tag``.

        Inline at ``workers == 0``; otherwise submitted to the pool
        (started on first use).  A tag may carry several jobs (encode
        shards plus their decode followups); :meth:`complete` joins them
        all.  After :meth:`close` the transport refuses new work.
        """
        if self.fault_plan is not None:
            job = self._with_faults(tag, job)
        with self._jobs_lock:
            if self._closed:
                raise RuntimeError("transport is closed")
            if self.workers:
                if self._pool is None:
                    self._pool = ThreadPoolExecutor(
                        max_workers=self.workers,
                        thread_name_prefix="repro-transport",
                    )
                self._jobs.setdefault(tag, []).append(self._pool.submit(job))
                return
        job()

    def _with_faults(self, tag: str, job):
        """Wrap ``job`` per the fault plan (stall/error kinds).

        A stall sleeps on the closing event: ``close()`` sets it, which
        ends the stall at once and abandons the stalled job instead of
        holding pool shutdown for the rest of the delay.  Inline, a stall
        longer than ``timeout_s`` waits out the deadline and raises the
        same :class:`TransportError` a pool's :meth:`complete` would.
        """
        spec = self.fault_plan.on_job(tag)
        if spec is None:
            return job
        if spec.kind == "error":

            def failing() -> None:
                raise RuntimeError(f"injected transport job fault on tag {tag!r}")

            return failing
        delay = float(spec.delay_s)
        timeout = self.timeout_s
        if not self.workers and timeout is not None and delay > timeout:

            def missed() -> None:
                self._closing.wait(timeout)
                raise self._missed_deadline(tag, outstanding=1, joined=0)

            return missed

        def stalled() -> None:
            if not self._closing.wait(delay):
                job()

        return stalled

    def _missed_deadline(self, tag: str, *, outstanding: int, joined: int):
        return TransportError(
            f"tag {tag!r} missed its {self.timeout_s}s completion deadline"
            f" with {outstanding} outstanding job(s) ({joined} joined)"
        )

    def complete(self, tag: str) -> float:
        """Join ``tag``'s deferred jobs; returns seconds spent waiting.

        0.0 when nothing is outstanding (always, inline: every job already
        ran inside :meth:`defer`).  Worker exceptions re-raise here; a
        join past ``timeout_s`` raises :class:`TransportError`.
        """
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
                    raise self._missed_deadline(
                        tag, outstanding=outstanding, joined=joined
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
        """Clear byte counters (joins jobs; mailboxes must be drained)."""
        self.complete_all()
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
        self.complete_all()
        with self._lock:
            return sorted({tag for (tag, _), box in self._boxes.items() if box})

    def _check_device(self, device: int) -> None:
        if not 0 <= device < self.num_devices:
            raise ValueError(f"device {device} out of range [0, {self.num_devices})")


# Trace-target aliases: the benchmark's span tracer resolves
# ``TransportAccounting.post_batch`` / ``.collect``, ``SyncTransport.complete``
# and ``WorkerTransport.collect`` / ``.complete`` by dotted path.  Not part
# of the API; they go once the tracer targets ``Transport.*``.
SyncTransport = WorkerTransport = TransportAccounting = Transport
