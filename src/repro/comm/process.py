"""Process-backed transport: encode/decode on worker processes over shm.

:class:`WorkerTransport` escapes the main thread but not the GIL — pure
NumPy quantize/pack kernels release it only inside individual ufuncs, so a
thread pool plateaus on quantize-heavy steps.  :class:`ProcessTransport`
runs each encode shard — and each receiver's decode — in its own worker
*process*; payloads travel through ``multiprocessing.shared_memory``
ring-buffer slabs, never through pickles.

The design leans entirely on the keyed RNG: a worker needs **no shared
state**.  It receives a picklable :class:`~repro.quant.fused.
ShardDescriptor` — coordinates and row spans, not closures — plus shm
offsets, rebuilds its shard plan locally and reproduces the payload bytes
bitwise (noise is a pure function of ``(run_seed, epoch, phase, layer,
src, dst)``).  The main process computes a step's entire slab layout up
front (deterministic from the plan's group structure), so workers write at
prescribed offsets and reply with nothing but a job id.
``TransportAccounting.collect``'s sort-by-source anchor then keeps
training results identical to the sync/thread paths at any process count.

**Wave protocol.**  ``submit`` dispatches a job now; ``submit_followup``
queues work to dispatch once the tag's current wave drains (the fused
exchange's per-receiver decode jobs must not race the encode posts, and
cross-queue FIFO between the task and result pipes is not guaranteed, so
chaining happens on the main side).  ``complete(tag)`` alternates
drain-wave / dispatch-followups until the tag is quiet; each finished
job's ``on_done`` callback runs on the *main* thread (posting payload
views into the mailboxes, stashing decoded matrices), so callbacks may
hold closures over live objects — only jobs cross the process boundary.

**Lifetime.**  Segments register in a ``weakref.finalize`` as they are
created: even if a KeyboardInterrupt lands mid-``complete`` and ``close``
never runs, interpreter teardown unlinks every slab (the close-after-kill
test pins this down).  ``close`` itself is idempotent: sentinel every
worker, join with a timeout, terminate survivors, then unlink.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
import queue
import signal
import time
import traceback
import weakref
import zlib
from collections import deque
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.comm.transport import SyncTransport, TransportError
from repro.comm.transports import register
from repro.quant.fused import DecodeWorkspace, ShardDescriptor, decode_step
from repro.quant.mixed import MixedPrecisionPayload

__all__ = ["ShmRing", "ProcessTransport", "ShardEncodeJob", "StepDecodeJob"]


class _SilentSharedMemory(shared_memory.SharedMemory):
    """SharedMemory whose close tolerates live buffer exports.

    Numpy views of a slab (payload streams, decoded matrices) may outlive
    the transport; closing the mapping then raises BufferError — including
    from ``__del__`` at garbage collection, which prints an "Exception
    ignored" traceback.  The mapping dies with the process either way and
    ``unlink`` is unaffected, so the error carries no information.
    """

    def close(self) -> None:
        try:
            super().close()
        except BufferError:
            pass


class ShmRing:
    """FIFO ring allocator over one shared-memory segment.

    Records are contiguous byte spans allocated at the head and retired
    oldest-first.  A record never straddles the segment end: when the tail
    gap is too small the head wraps to offset 0 and the skipped bytes are
    charged to the wrapped record (released when it retires) — receivers
    can always view a record as one flat buffer.  ``alloc`` raises
    :class:`MemoryError` when the ring is full; callers size slabs from
    the step plan's byte budget, so a full ring means a leaked record, not
    an undersized one.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.shm = _SilentSharedMemory(create=True, size=self.capacity)
        self._head = 0
        self._free = self.capacity
        self._records: deque[tuple[int, int, int]] = deque()  # (offset, nbytes, waste)

    @property
    def name(self) -> str:
        return self.shm.name

    def alloc(self, nbytes: int) -> int:
        """Reserve ``nbytes`` contiguous bytes; returns the byte offset."""
        nbytes = int(nbytes)
        if not 1 <= nbytes <= self.capacity:
            raise ValueError(f"record size {nbytes} outside (0, {self.capacity}]")
        offset, waste = self._head, 0
        if offset + nbytes > self.capacity:
            waste = self.capacity - offset
            offset = 0
        if nbytes + waste > self._free:
            raise MemoryError(
                f"ring full: need {nbytes + waste} bytes, {self._free} free"
            )
        self._free -= nbytes + waste
        self._head = offset + nbytes
        self._records.append((offset, nbytes, waste))
        return offset

    def retire(self) -> tuple[int, int]:
        """Release the oldest record; returns its ``(offset, nbytes)``."""
        if not self._records:
            raise RuntimeError("ring has no live records")
        offset, nbytes, waste = self._records.popleft()
        self._free += nbytes + waste
        return offset, nbytes

    def __len__(self) -> int:
        return len(self._records)

    @property
    def free_bytes(self) -> int:
        return self._free

    def view(self, offset: int, nbytes: int) -> np.ndarray:
        """A uint8 array view of ``[offset, offset + nbytes)``."""
        return np.frombuffer(self.shm.buf, dtype=np.uint8, count=nbytes, offset=offset)

    def close(self) -> None:
        self.shm.close()

    def unlink(self) -> None:
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass


def _attach_segment(cache: dict, name: str) -> shared_memory.SharedMemory:
    """Worker-side attach (cached per segment name).

    The parent owns every segment's lifetime, but on Python < 3.13 merely
    attaching also registers with the resource tracker (there is no
    ``track=`` yet).  Under fork the tracker is *shared* with the parent,
    so an unregister-after-attach would cancel the parent's registration;
    under spawn the child's own tracker would unlink live segments at
    worker exit.  Suppressing registration during the attach is correct
    for both: only the parent's register/unlink pair ever reaches a
    tracker.  The worker is single-threaded, so the brief patch is safe.
    """
    seg = cache.get(name)
    if seg is None:
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            seg = _SilentSharedMemory(name=name)
        finally:
            resource_tracker.register = original
        cache[name] = seg
    return seg


def _f32(seg: shared_memory.SharedMemory, offset: int, count: int) -> np.ndarray:
    return np.frombuffer(seg.buf, dtype=np.float32, count=count, offset=offset)


@dataclass(frozen=True)
class ShardEncodeJob:
    """Encode one shard from shm input rows; write streams/metadata at
    prescribed offsets.  ``pair_layouts`` aligns with ``descriptor.pairs``:
    per pair, per group (bits ascending), ``(bits, rows, stream_offset,
    stream_nbytes, z_offset, s_offset)``."""

    descriptor: ShardDescriptor
    segment: str
    rows_offset: int  # float32 (n_rows, dim), cat order, shard-local
    n_rows: int
    pair_layouts: tuple
    #: when set, the job returns ``{pair: crc32}`` over each pair's
    #: written stream bytes — the slab-integrity check's reference values.
    checksum: bool = False

    def run(self, segments: dict, cache: dict) -> dict | None:
        seg = _attach_segment(segments, self.segment)
        desc = self.descriptor
        rows = _f32(seg, self.rows_offset, self.n_rows * desc.dim).reshape(
            self.n_rows, desc.dim
        )
        payloads = desc.encode(rows, cache=cache)
        buf = np.frombuffer(seg.buf, dtype=np.uint8)
        crcs: dict | None = {} if self.checksum else None
        for pair, groups in zip(desc.pairs, self.pair_layouts):
            payload = payloads[pair]
            crc = 0
            for layout, stream, z, s in zip(
                groups, payload.streams, payload.zero_points, payload.scales
            ):
                _, n, stream_off, stream_nbytes, z_off, s_off = layout
                if stream.nbytes != stream_nbytes:
                    raise RuntimeError(
                        f"stream size mismatch for pair {pair}: "
                        f"{stream.nbytes} != planned {stream_nbytes}"
                    )
                buf[stream_off : stream_off + stream_nbytes] = stream
                _f32(seg, z_off, n)[...] = z
                _f32(seg, s_off, n)[...] = s
                if crcs is not None:
                    crc = zlib.crc32(stream, crc)
            if crcs is not None:
                crcs[pair] = crc
        return crcs


@dataclass(frozen=True)
class StepDecodeJob:
    """Decode one receiver's payloads from shm; write the full-precision
    matrices back at prescribed offsets.  ``sources`` is per incoming src
    (ascending): ``(src, num_rows, out_offset, groups)`` with groups as in
    :class:`ShardEncodeJob` plus a row-index spec (``None`` = the single
    full-coverage group, else int64 index bytes)."""

    segment: str
    tag: str
    rank: int
    dim: int
    sources: tuple

    def run(self, segments: dict, cache: dict) -> None:
        seg = _attach_segment(segments, self.segment)
        buf = np.frombuffer(seg.buf, dtype=np.uint8)
        payloads: dict[int, MixedPrecisionPayload] = {}
        for src, num_rows, _, groups in self.sources:
            group_bits, group_rows, streams, zero_points, scales = [], [], [], [], []
            for bits, n, stream_off, stream_nbytes, z_off, s_off, rows_spec in groups:
                group_bits.append(bits)
                group_rows.append(
                    np.arange(num_rows, dtype=np.int64)
                    if rows_spec is None
                    else np.frombuffer(rows_spec, dtype=np.int64)
                )
                streams.append(buf[stream_off : stream_off + stream_nbytes])
                zero_points.append(_f32(seg, z_off, n))
                scales.append(_f32(seg, s_off, n))
            payloads[src] = MixedPrecisionPayload(
                num_rows=num_rows,
                dim=self.dim,
                group_bits=group_bits,
                group_rows=group_rows,
                streams=streams,
                zero_points=zero_points,
                scales=scales,
            )
        workspace = cache.get(("decode-ws", self.tag, self.rank))
        if workspace is None:
            workspace = cache[("decode-ws", self.tag, self.rank)] = DecodeWorkspace()
        decoded = decode_step(payloads, workspace=workspace)
        for src, num_rows, out_off, _ in self.sources:
            out = _f32(seg, out_off, num_rows * self.dim).reshape(num_rows, self.dim)
            out[...] = decoded[src]


@dataclass(frozen=True)
class _StallJob:
    """Fault-injection wrapper: sleep, then run the wrapped job."""

    delay_s: float
    inner: object

    def run(self, segments: dict, cache: dict):
        time.sleep(self.delay_s)
        return self.inner.run(segments, cache)


@dataclass(frozen=True)
class _FailJob:
    """Fault-injection wrapper: a job that raises instead of running."""

    tag: str

    def run(self, segments: dict, cache: dict):
        raise RuntimeError(f"injected transport job fault on tag {self.tag!r}")


def _worker_main(task_q, result_q) -> None:
    """Worker loop: attach-on-demand segments, per-shard plan caches.

    Results are ``(job_id, tag, error, info)`` where ``info`` is the
    job's (small, picklable) return value — e.g. the encode shard's
    per-pair stream checksums when slab verification is on.
    """
    segments: dict[str, shared_memory.SharedMemory] = {}
    cache: dict = {}
    while True:
        try:
            item = task_q.get()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if item is None:
            break
        job_id, tag, job = item
        try:
            info = job.run(segments, cache)
            result_q.put((job_id, tag, None, info))
        except KeyboardInterrupt:
            break
        except BaseException:
            try:
                result_q.put((job_id, tag, traceback.format_exc(), None))
            except Exception:
                break
    for seg in segments.values():
        try:
            seg.close()
        except Exception:
            pass


def _unlink_segments(names: list[str]) -> None:
    """Finalizer: unlink every slab by name (idempotent, crash-safe)."""
    for name in list(names):
        try:
            seg = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        except Exception:
            continue
        try:
            seg.close()
        except Exception:
            pass
        try:
            seg.unlink()
        except Exception:
            pass
    names.clear()


@register("process")
class ProcessTransport(SyncTransport):
    """Process-pool transport over shared-memory ring slabs.

    Accounting, mailboxes and ``collect``'s source-ascending anchor are
    inherited; what changes is where jobs execute.  :meth:`defer` still
    runs closures inline — exchanges whose jobs are closures (exact,
    stale, broadcast) stay on the bitwise-identical sync path
    automatically; only the quantized exchange opts into
    :meth:`submit`/:meth:`submit_followup` with picklable jobs.

    The main thread runs all ``on_done`` callbacks inside
    :meth:`complete`, so posts and decoded-matrix stashes happen exactly
    where the synchronous path does them — the transport's progress model
    (posts landing in an open overlap window count as overlapped) is
    preserved without any cross-process accounting.
    """

    kind = "process"
    is_async = True

    def __init__(
        self,
        num_devices: int,
        *,
        workers: int = 1,
        start_method: str | None = None,
    ) -> None:
        super().__init__(num_devices)
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)
        if start_method is None:
            start_method = (
                "fork" if "fork" in mp.get_all_start_methods() else "spawn"
            )
        self._ctx = mp.get_context(start_method)
        self._procs: list = []
        self._task_q = None
        self._result_q = None
        self._job_seq = 0
        # tag -> {job_id: (job, on_done)}; jobs are retained while in
        # flight so a pool respawn can resubmit them (keyed jobs write to
        # prescribed shm offsets, so re-running them is idempotent).
        self._inflight: dict[str, dict[int, tuple[object, object]]] = {}
        self._followups: dict[str, list[tuple[object, object]]] = {}
        self._errors: dict[str, list[str]] = {}
        self._wave_checks: dict[str, object] = {}
        self._wave_info: dict[str, dict] = {}
        #: pool-respawn budget after worker deaths; exceeding it raises
        #: :class:`TransportError` (escalate to an epoch-boundary restore).
        self.max_respawns = 2
        self.respawns = 0
        self._spawn_generation = 0
        #: per-worker exit records accumulated across respawns and close:
        #: ``{"name", "exitcode", "expected"}`` — ``expected`` is False for
        #: deaths the transport did not cause itself (signals, OOM kills).
        self.exit_report: list[dict] = []
        self._rings: dict[str, ShmRing] = {}
        self._retired_rings: list[ShmRing] = []
        #: Ring replacements after first allocation (grown byte budgets).
        #: Steady-state epochs at a constant budget must keep this at 0 —
        #: re-slab churn would serialize the depth-2 pipeline on shm
        #: setup; tests pin the invariant through this counter.
        self.reslab_count = 0
        self._closed = False
        # The finalizer holds only the (mutable) name list — it must not
        # keep the transport alive, and it must unlink slabs even when
        # close() never ran (interrupted epoch, interpreter teardown).
        self._segment_names: list[str] = []
        self._finalizer = weakref.finalize(
            self, _unlink_segments, self._segment_names
        )

    # ------------------------------------------------------------------
    # Worker pool lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker processes (idempotent; clusters call this at
        open so the fork happens before any large epoch state exists)."""
        if self._closed:
            raise RuntimeError("transport is closed")
        if self._procs:
            return
        self._task_q = self._ctx.Queue()
        self._result_q = self._ctx.Queue()
        gen = self._spawn_generation
        for i in range(self.workers):
            name = f"repro-transport-{i}"
            if gen:
                name = f"{name}.g{gen}"
            proc = self._ctx.Process(
                target=_worker_main,
                args=(self._task_q, self._result_q),
                name=name,
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)

    def _respawn_pool(self, dead: list) -> None:
        """Replace a pool with dead member(s): fresh procs, fresh queues,
        resubmitted in-flight jobs.

        The old queues are abandoned wholesale — a worker SIGKILLed while
        holding a queue's internal lock leaves it poisoned for every other
        reader, so surviving workers are terminated and everything
        restarts against new pipes.  In-flight jobs are resubmitted
        verbatim: keyed encode/decode jobs write at prescribed shm offsets
        with coordinate-keyed noise, so running a job twice (its first
        result may have been lost with the old result queue) lands the
        same bytes.  Past :attr:`max_respawns`, raises
        :class:`TransportError` — the caller's cue to fall back to an
        epoch-boundary checkpoint restore.
        """
        for proc in dead:
            self.exit_report.append(
                {"name": proc.name, "exitcode": proc.exitcode, "expected": False}
            )
        self.respawns += 1
        self.fault_stats["respawns"] += 1
        if self.respawns > self.max_respawns:
            raise TransportError(
                f"transport worker process(es) died ({[p.name for p in dead]});"
                f" respawn budget ({self.max_respawns}) exhausted"
            )
        dead_set = set(id(p) for p in dead)
        old_procs, self._procs = self._procs, []
        for proc in old_procs:
            if proc.is_alive():
                proc.terminate()
        for proc in old_procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=2.0)
            if id(proc) not in dead_set:
                # A survivor we terminated ourselves to rebuild the pool.
                self.exit_report.append(
                    {"name": proc.name, "exitcode": proc.exitcode, "expected": True}
                )
        for q in (self._task_q, self._result_q):
            if q is not None:
                try:
                    q.cancel_join_thread()
                    q.close()
                except Exception:
                    pass
        self._task_q = self._result_q = None
        self._spawn_generation += 1
        self.start()
        for tag, jobs in self._inflight.items():
            for job_id, (job, _) in jobs.items():
                self._task_q.put((job_id, tag, job))

    # ------------------------------------------------------------------
    # Shared-memory arena
    # ------------------------------------------------------------------
    def step_buffer(self, tag: str, nbytes: int) -> tuple[str, int, np.ndarray]:
        """One step's slab span under ``tag``: ``(segment, offset, view)``.

        Each tag owns a ring sized for two steps (the previous step's
        payload/decode views live until its finalize consumed them, which
        happens before the next same-tag post); the previous record is
        retired here, so steady-state allocation walks the ring and
        wraps — the fixed slab is reused for the whole run instead of
        growing.  The two-record capacity is exactly what depth-2
        pipelining needs: with two tags in flight the rings are distinct
        per tag, and within a tag the lookahead post of epoch ``e+1``
        never lands before epoch ``e``'s finalize consumed its record, so
        a constant byte budget must never re-slab mid-epoch
        (``reslab_count`` observes this).  Only a *grown* byte budget
        (bit reassignment) re-slabs.
        """
        if self._closed:
            raise RuntimeError("transport is closed")
        # Round records up to 64 bytes so every ring offset stays 64-byte
        # aligned (slabs hold typed views — float32 regions at 8-aligned
        # in-record offsets).
        nbytes = (max(int(nbytes), 1) + 63) & ~63
        ring = self._rings.get(tag)
        if ring is None or ring.capacity < 2 * nbytes:
            if ring is not None:
                while len(ring):
                    ring.retire()
                self._retired_rings.append(ring)
                self.reslab_count += 1
            ring = self._rings[tag] = ShmRing(2 * nbytes)
            self._segment_names.append(ring.name)
        if len(ring):
            ring.retire()
        offset = ring.alloc(nbytes)
        return ring.name, offset, ring.view(offset, nbytes)

    def shm_slab_bytes(self) -> int:
        """Total capacity of the live shared-memory rings, in bytes.

        The measured counterpart of the analytic
        :attr:`~repro.cluster.memory.MemoryFootprint.shm_slab_bytes`
        estimate (which upper-bounds each record at full precision);
        retired rings are excluded — their segments are unlinked and
        their pages returned as soon as no view references them.
        """
        return sum(ring.capacity for ring in self._rings.values())

    # ------------------------------------------------------------------
    # Wave protocol
    # ------------------------------------------------------------------
    def submit(self, tag: str, job, on_done=None) -> int:
        """Dispatch a picklable ``job`` to the pool under ``tag``.

        ``on_done`` (a main-side closure, never pickled) runs on the
        calling thread when the job's result is drained.
        """
        if self._closed:
            raise RuntimeError("transport is closed")
        self.start()
        plan = self.fault_plan
        if plan is not None:
            if plan.take("kill_worker", tag) is not None:
                self._kill_one_worker()
            spec = plan.on_job(tag)
            if spec is not None:
                job = (
                    _StallJob(float(spec.delay_s), job)
                    if spec.kind == "stall"
                    else _FailJob(tag)
                )
        self._job_seq += 1
        job_id = self._job_seq
        self._inflight.setdefault(tag, {})[job_id] = (job, on_done)
        self._task_q.put((job_id, tag, job))
        return job_id

    def _kill_one_worker(self) -> None:
        """Fault injection: SIGKILL one live worker process."""
        for proc in self._procs:
            if proc.is_alive() and proc.pid is not None:
                os.kill(proc.pid, signal.SIGKILL)
                self.fault_stats["workers_killed"] += 1
                return

    def submit_followup(self, tag: str, job, on_done=None) -> None:
        """Queue ``job`` to dispatch after ``tag``'s current wave drains."""
        if self._closed:
            raise RuntimeError("transport is closed")
        self._followups.setdefault(tag, []).append((job, on_done))

    def submit_wave_check(self, tag: str, fn) -> None:
        """Register ``fn`` to run once ``tag``'s current wave drains, before
        its followups dispatch.

        ``fn`` receives the merged job-result infos of the wave (e.g. the
        encode shards' per-pair stream checksums) and runs on the main
        thread — the fused exchange's slab-integrity gate.
        """
        if self._closed:
            raise RuntimeError("transport is closed")
        self._wave_checks[tag] = fn

    def _drain_one(self, tag: str, deadline: float | None) -> None:
        """Block for one result; runs its callback (any tag).

        The 0.5 s poll doubles as the worker heartbeat: a dead process is
        noticed within one interval and triggers a pool respawn (bounded
        by :attr:`max_respawns`).  ``deadline`` (absolute, from the
        completing tag's ``timeout_s``) turns a wedged wave into a typed
        :class:`TransportError` naming the tag and its outstanding shards.
        """
        while True:
            timeout = 0.5
            if deadline is not None:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    outstanding = self._inflight.get(tag, {})
                    jobs = ", ".join(
                        f"#{jid}:{type(job).__name__}"
                        for jid, (job, _) in sorted(outstanding.items())
                    )
                    raise TransportError(
                        f"tag {tag!r} missed its {self.timeout_s}s completion"
                        f" deadline with {len(outstanding)} outstanding"
                        f" shard job(s) [{jobs}]"
                    )
                timeout = min(timeout, remaining)
            try:
                job_id, rtag, error, info = self._result_q.get(timeout=timeout)
                break
            except queue.Empty:
                dead = [p for p in self._procs if not p.is_alive()]
                if dead:
                    self._respawn_pool(dead)
        inflight = self._inflight.get(rtag)
        entry = inflight.pop(job_id, None) if inflight else None
        if inflight is not None and not inflight:
            self._inflight.pop(rtag, None)
        if error is not None:
            self._errors.setdefault(rtag, []).append(error)
            return
        if info:
            self._wave_info.setdefault(rtag, {}).update(info)
        if entry is not None and entry[1] is not None:
            entry[1]()

    def complete(self, tag: str) -> float:
        """Drain ``tag``'s waves (dispatching followups between them)."""
        t0 = time.perf_counter()
        deadline = None if self.timeout_s is None else t0 + float(self.timeout_s)
        waited = False
        while True:
            if self._inflight.get(tag):
                waited = True
                self._drain_one(tag, deadline)
                continue
            check = self._wave_checks.pop(tag, None)
            if check is not None:
                # The wave's integrity gate (slab checksums) runs between
                # the encode wave and its decode followups.
                check(self._wave_info.pop(tag, {}))
                continue
            followups = self._followups.pop(tag, None)
            if followups:
                waited = True
                for job, on_done in followups:
                    self.submit(tag, job, on_done)
                continue
            break
        self._wave_info.pop(tag, None)
        errors = self._errors.pop(tag, None)
        if errors:
            raise TransportError(
                f"transport worker job failed under tag {tag!r}:\n"
                + "\n".join(errors)
            )
        return time.perf_counter() - t0 if waited else 0.0

    def complete_all(self) -> None:
        """Drain every tag (epoch boundaries / shutdown)."""
        while True:
            tags = sorted(set(self._inflight) | set(self._followups))
            if not tags:
                return
            for tag in tags:
                self.complete(tag)

    def defer(self, tag: str, job) -> None:
        # Closure jobs cannot cross the process boundary; inline execution
        # is the (bitwise-identical) sync path.
        if self._closed:
            raise RuntimeError("transport is closed")
        job()

    def collect(self, dst: int, tag: str) -> dict[int, object]:
        # Safety net, mirroring WorkerTransport: a direct collector must
        # never observe a half-posted step.
        if self._inflight.get(tag) or self._followups.get(tag):
            self.complete(tag)
        return super().collect(dst, tag)

    def reset_accounting(self) -> None:
        self.complete_all()
        super().reset_accounting()

    def pending_tags(self) -> list[str]:
        self.complete_all()
        return super().pending_tags()

    def transport_health(self) -> dict:
        health = super().transport_health()
        health.update(
            respawns=int(self.respawns),
            exit_report=[dict(e) for e in self.exit_report],
            abnormal_exits=[
                dict(e) for e in self.exit_report if not e["expected"]
            ],
        )
        return health

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain, stop workers, unlink every slab; idempotent.

        Robust to dead workers (a KeyboardInterrupt that killed one
        mid-job): sentinels are best-effort, the join has a timeout,
        survivors are terminated, and the shm unlink runs regardless —
        the finalizer covers even the path where close itself never runs.
        """
        if self._closed:
            return
        self._closed = True
        procs, self._procs = self._procs, []
        if self._task_q is not None:
            for _ in procs:
                try:
                    self._task_q.put(None)
                except Exception:
                    pass
        for proc in procs:
            proc.join(timeout=2.0)
        terminated: set[int] = set()
        for proc in procs:
            if proc.is_alive():
                terminated.add(id(proc))
                proc.terminate()
                proc.join(timeout=2.0)
        # Exitcode audit: a worker that died on its own with a nonzero or
        # signaled status (OOM kill, segfault) must not be silently
        # joined.  0 is a clean sentinel exit; negative codes are signals
        # — expected only when this close (or a respawn) sent them.
        for proc in procs:
            code = proc.exitcode
            expected = code == 0 or id(proc) in terminated
            self.exit_report.append(
                {"name": proc.name, "exitcode": code, "expected": expected}
            )
        abnormal = [e for e in self.exit_report if not e["expected"]]
        if abnormal:
            logging.getLogger(__name__).warning(
                "transport worker(s) exited abnormally: %s",
                ", ".join(f"{e['name']} (exitcode {e['exitcode']})" for e in abnormal),
            )
        for q in (self._task_q, self._result_q):
            if q is not None:
                try:
                    q.cancel_join_thread()
                    q.close()
                except Exception:
                    pass
        self._task_q = self._result_q = None
        self._inflight.clear()
        self._followups.clear()
        self._errors.clear()
        self._wave_checks.clear()
        self._wave_info.clear()
        for ring in [*self._rings.values(), *self._retired_rings]:
            ring.close()
            ring.unlink()
        self._rings.clear()
        self._retired_rings.clear()
        self._segment_names.clear()  # the finalizer is now a no-op
