"""Span tracer that wraps the program's public callables from outside.

Targets are dotted names resolved when :meth:`Tracer.install` runs, so a
refactor that deletes one only raises ``trace.missing_spans``; nothing in
``src/`` knows this file exists.  A wrapped module function is rebound in
every loaded ``repro.*`` module global (and one level into module-level
dicts, e.g. the assigner's solver table) that holds the original object,
because the program imports functions by name
(``from repro.quant.packing import pack_bits_batched``).

Spans are ``(name, thread, start, end, parent, self_s, work)`` tuples kept
in per-thread lists and merged when the run ends.  A span's self time is
its duration minus the time its children on the same thread cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Target", "TARGETS", "Tracer"]


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``module:attr`` or ``module:Class.attr``."""

    span: str
    path: str
    # Work done by one call, from its arguments and result: a number or a
    # tuple of numbers.  Only public, documented parameters are read.
    work: Callable | None = None


def _pack_elements(args, kwargs, result):
    # pack_bits_batched(codes, bits, counts): one uint8 code per element.
    return int(np.size(args[0]))


def _unpack_elements(args, kwargs, result):
    # unpack_bits_batched(streams, bits, counts) returns one code per element.
    return int(np.size(result))


def _matmul_flops(args, kwargs, result):
    # row_matmul(a, b): (m, k) @ (k, n).
    (m, k), n = args[0].shape, args[1].shape[1]
    return 2.0 * m * k * n


def _posted(args, kwargs, result):
    # post_batch(self, src, tag, posts): posts = [(dst, payload, nbytes)].
    posts = args[3] if len(args) > 3 else kwargs["posts"]
    return (sum(int(nb) for _, _, nb in posts), len(posts))


_COMPUTE = "repro.cluster.compute:FusedClusterCompute."
_EXCHANGE = "repro.cluster.exchange:"
_TRANSPORT = "repro.comm.transport:"

#: Span name = ``<layer (module name)>.<call>``.  Several targets may share
#: a span name (one per execution shape or subclass); a call nested in a
#: span of its own name (``super()`` chains) is not recorded twice.
TARGETS: tuple[Target, ...] = (
    Target("cluster.cluster.build", "repro.cluster.cluster:Cluster.__init__"),
    Target("cluster.cluster.train_epoch", "repro.cluster.cluster:Cluster.train_epoch"),
    Target("cluster.cluster.evaluate", "repro.cluster.cluster:Cluster.evaluate"),
    Target("cluster.compute.forward", _COMPUTE + "forward_layer"),
    Target("cluster.compute.forward", _COMPUTE + "forward_layer_overlap"),
    Target("cluster.compute.backward", _COMPUTE + "backward_layer"),
    Target("cluster.compute.backward", _COMPUTE + "backward_layer_overlap"),
    Target("cluster.compute.loss", _COMPUTE + "epoch_loss"),
    Target("cluster.compute.reduce", _COMPUTE + "reduce_gradients"),
    Target("cluster.exchange.post", _EXCHANGE + "ExactHaloExchange.post_step"),
    Target("cluster.exchange.post", _EXCHANGE + "FusedQuantizedHaloExchange.post_step"),
    Target("cluster.exchange.finalize", _EXCHANGE + "ExactHaloExchange.finalize_step"),
    Target(
        "cluster.exchange.finalize",
        _EXCHANGE + "FusedQuantizedHaloExchange.finalize_step",
    ),
    Target("quant.fused.gather", "repro.quant.fused:FusedStepEncoder.gather_step"),
    Target(
        "quant.fused.quantize_pack",
        "repro.quant.fused:FusedStepEncoder.quantize_pack_shard",
    ),
    Target("quant.fused.decode", "repro.quant.fused:decode_cluster_step"),
    Target("quant.packing.pack", "repro.quant.packing:pack_bits_batched", _pack_elements),
    Target(
        "quant.packing.unpack", "repro.quant.packing:unpack_bits_batched", _unpack_elements
    ),
    Target("comm.transport.post", _TRANSPORT + "TransportAccounting.post_batch", _posted),
    Target("comm.transport.collect", _TRANSPORT + "TransportAccounting.collect"),
    Target("comm.transport.collect", _TRANSPORT + "WorkerTransport.collect"),
    Target("comm.transport.complete", _TRANSPORT + "SyncTransport.complete"),
    Target("comm.transport.complete", _TRANSPORT + "WorkerTransport.complete"),
    Target(
        "core.assigner.reassign", "repro.core.assigner:AdaptiveBitWidthAssigner.reassign"
    ),
    Target("core.bilp.solve", "repro.core.bilp:solve_milp"),
    Target("core.scheduler.schedule", "repro.core.scheduler:schedule_adaqp"),
    Target("core.scheduler.schedule", "repro.core.scheduler:schedule_vanilla"),
    Target("nn.blas.row_matmul", "repro.nn.blas:row_matmul", _matmul_flops),
    Target("nn.optim.step", "repro.nn.optim:Adam.step"),
)


def _rebind_everywhere(original, wrapped) -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = wrapped
            elif type(value) is dict:
                for inner, item in list(value.items()):
                    if item is original:
                        value[inner] = wrapped


class Tracer:
    """Records spans around :data:`TARGETS` while :attr:`enabled` is true."""

    def __init__(self) -> None:
        self.enabled = False
        self.missing: list[str] = []
        self.resolved: list[str] = []
        self.work_errors = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[int, str, list]] = []

    # -- recording ------------------------------------------------------
    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            thread = threading.current_thread()
            state = self._local.state = ([], [])  # (open frames, finished spans)
            with self._lock:
                self._threads.append((thread.ident, thread.name, state[1]))
        return state

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        span, work_fn = target.span, target.work

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack, spans = self._state()
            if stack and stack[-1][0] == span:
                return fn(*args, **kwargs)
            frame = [span, 0.0]  # name, seconds covered by children
            stack.append(frame)
            start = time.perf_counter()
            returned = False
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                work = None
                if work_fn is not None and returned:
                    try:
                        work = work_fn(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                        # The callable's signature moved; keep timing it.
                        with self._lock:
                            self.work_errors += 1
                duration = end - start
                parent = None
                if stack:
                    stack[-1][1] += duration
                    parent = stack[-1][0]
                spans.append((span, start, end, parent, duration - frame[1], work))

        return traced

    def add(self, span: str, start: float, end: float) -> None:
        """Record a span the benchmark timed around its own call."""
        self._state()[1].append((span, start, end, None, end - start, None))

    # -- installation ---------------------------------------------------
    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        for target in targets:
            try:
                self._install_one(target)
            except (ImportError, AttributeError):
                self.missing.append(target.path)
            else:
                self.resolved.append(target.path)

    def _install_one(self, target: Target) -> None:
        module_name, _, attr_path = target.path.partition(":")
        module = importlib.import_module(module_name)
        *owners, attr = attr_path.split(".")
        owner = module
        for name in owners:
            owner = getattr(owner, name)
        if owner is module:
            original = getattr(module, attr)
            _rebind_everywhere(original, self._wrap(target, original))
            return
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(owner, attr, type(raw)(self._wrap(target, raw.__func__)))
        else:
            setattr(owner, attr, self._wrap(target, raw))

    # -- reading --------------------------------------------------------
    def spans(self) -> list[tuple]:
        """Every finished span as ``(name, tid, start, end, parent, self_s, work)``."""
        with self._lock:
            threads = list(self._threads)
        return [
            (name, tid, start, end, parent, self_s, work)
            for tid, _, spans in threads
            for name, start, end, parent, self_s, work in list(spans)
        ]

    def per_window(self, windows: list[tuple[float, float]], main_tid: int) -> dict:
        """Per span name, one row per window (a window is one traced epoch).

        A span belongs to the window its start falls in.  Columns: ``busy``
        (seconds, all threads), ``main`` and ``self_main`` (seconds and self
        seconds on the main thread), ``count`` and ``work0``/``work1`` (sums of
        the work the target counted).
        """
        starts = np.array([w[0] for w in windows])
        ends = np.array([w[1] for w in windows])
        out: dict[str, dict] = {}
        for name, tid, start, end, _, self_s, work in self.spans():
            i = int(np.searchsorted(starts, start, side="right")) - 1
            if i < 0 or start >= ends[i]:
                continue
            row = out.get(name)
            if row is None:
                row = out[name] = {
                    key: np.zeros(len(windows))
                    for key in ("busy", "main", "self_main", "count", "work0", "work1")
                }
            duration = end - start
            row["busy"][i] += duration
            row["count"][i] += 1
            if tid == main_tid:
                row["main"][i] += duration
                row["self_main"][i] += self_s
            if work is not None:
                first, second = work if isinstance(work, tuple) else (work, 0)
                row["work0"][i] += first
                row["work1"][i] += second
        return out

    def write_chrome(self, path, origin: float) -> None:
        """``trace.json`` for chrome://tracing or https://ui.perfetto.dev."""
        with self._lock:
            names = {tid: name for tid, name, _ in self._threads}
        events = [
            {"ph": "M", "pid": 1, "tid": tid, "name": "thread_name", "args": {"name": name}}
            for tid, name in names.items()
        ]
        for name, tid, start, end, parent, self_s, work in self.spans():
            events.append(
                {
                    "ph": "X",
                    "pid": 1,
                    "tid": tid,
                    "name": name,
                    "cat": name.rsplit(".", 1)[0],
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "args": {"parent": parent, "self_us": self_s * 1e6, "work": work},
                }
            )
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
