"""In-memory span recorder that traces the program from outside.

The benchmark never edits the program to time it. :func:`install` wraps
the public entry points of each layer (see :data:`LAYER_SPANS`) with
``perf_counter`` spans and reads counts from the objects those entry
points already expose (``SimulationEngine.kernel_stats``,
``dispatch_mode_counts``, ``fallback_events``, ``quarantined``,
``SecurityBatchKernel.stats``). :func:`uninstall` puts every original
back.

A span's *self* time is its duration minus the time its child spans
cover; a layer's *busy* time is the time at least one of its spans is
open (nested spans of the same layer are counted once).

Forked pool workers inherit the wrappers. After each chunk a worker
writes its totals, as one length-prefixed JSON record no longer than
``PIPE_BUF`` (so records from several workers never interleave), to a
pipe the benchmark opened before the pool forked; a reader thread in the
parent merges them into :attr:`Tracer.worker`, which is read only after
:func:`uninstall` has joined that thread. The thread holds no lock a
forked worker could inherit mid-use, so forking while it runs is safe.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import select
import struct
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Entry points wrapped per span name. ``module:qualname`` targets that no
#: longer exist are skipped, so a refactor that removes one does not break
#: the traced run (the name is listed in :attr:`Tracer.missing`).
LAYER_SPANS: Dict[str, Tuple[str, ...]] = {
    "experiments.figures": tuple(
        f"repro.experiments.{module}:figure_{key}"
        for module, keys in (
            ("delivery_figs", ("04", "05", "10")),
            ("security_figs", ("06", "07", "08", "09", "12", "13")),
            ("trace_figs", ("14", "15", "16", "17", "18", "19")),
            ("robustness_figs", ("r1", "r2")),
        )
        for key in keys
    ),
    "experiments.runners": tuple(
        f"repro.experiments.runners:{name}"
        for name in (
            "run_random_graph_batch",
            "run_fused_graph_sweep",
            "run_faulty_graph_batch",
            "run_trace_batch",
            "run_fused_trace_sweep",
            "security_sweep_montecarlo",
            "simulated_delivery_curve",
            "trace_contact_graph",
            "estimate_active_span",
        )
    ),
    "experiments.parallel": tuple(
        f"repro.experiments.parallel:{name}"
        for name in (
            "run_parallel_batch",
            "run_parallel_fused_sweep",
            "run_parallel_montecarlo",
        )
    ),
    "experiments.shm": ("repro.experiments.shm:attach_block",),
    "contacts": (
        "repro.contacts.random_graph:random_contact_graph",
        "repro.contacts.synthetic:cambridge_like_trace",
        "repro.contacts.synthetic:infocom05_like_trace",
        "repro.contacts.traces:ContactTrace.normalized",
    ),
    "core": (
        "repro.core.onion_groups:OnionGroupDirectory.__init__",
        "repro.core.onion_groups:OnionGroupDirectory.select_route",
        "repro.core.single_copy:SingleCopySession.apply_transitions",
    ),
    "sim.kernel": (
        "repro.sim.kernel:BatchKernel.run",
        "repro.sim.kernel:MultiCopyBatchKernel.run",
    ),
    "adversary.sample": ("repro.adversary.kernel:sample_security_block",),
    "analysis": (
        "repro.experiments.runners:analysis_delivery_curve",
        "repro.analysis.robustness:churned_delivery_rate",
        "repro.analysis.robustness:greyhole_delivery_rate",
        "repro.analysis.traceable:traceable_rate_model",
        "repro.analysis.anonymity:path_anonymity",
        "repro.analysis.anonymity:path_anonymity_multicopy",
    ),
}

#: Chunk functions the pool runs in its workers; their spans belong to the
#: parallel layer, and in a worker each one ships the totals afterwards.
CHUNK_FUNCTIONS = tuple(
    f"repro.experiments.parallel:{name}"
    for name in (
        "_run_batch_chunk",
        "_run_shared_batch_chunk",
        "_run_fused_sweep_chunk",
        "_run_shared_fused_sweep_chunk",
        "_run_montecarlo_chunk",
        "_run_shared_montecarlo_chunk",
    )
)

#: Backend ops timed as the ``sim.backend`` layer, on every registered
#: backend class that defines them.
BACKEND_OPS = (
    "single_next_events",
    "single_trajectories",
    "multi_next_events",
    "run_length_square_sums",
    "smallest_k_mask",
    "security_scores",
)

_RECORD = struct.Struct("<I")
_PIPE_BUF = getattr(select, "PIPE_BUF", 4096)


class Totals:
    """Per-layer self/busy seconds and call counts, plus named counters."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.busy_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)

    def to_dict(self) -> dict:
        return {
            "self": dict(self.self_s),
            "busy": dict(self.busy_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def merge(self, record: dict) -> None:
        for target, key in (
            (self.self_s, "self"),
            (self.busy_s, "busy"),
            (self.calls, "calls"),
            (self.counts, "counts"),
        ):
            for name, value in record.get(key, {}).items():
                target[name] += value

    @classmethod
    def combined(cls, *parts: "Totals") -> "Totals":
        total = cls()
        for part in parts:
            total.merge(part.to_dict())
        return total


class Tracer:
    """A stack of open spans over a single thread, folded into :class:`Totals`.

    ``clock`` is injectable so the self-time arithmetic can be tested on a
    synthetic span tree.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.totals = Totals()
        self.worker = Totals()
        self.labels: set = set()
        self.missing: List[str] = []
        self.in_worker = False
        self._stack: List[list] = []
        self._open: Dict[str, int] = defaultdict(int)
        self._ship_fd: Optional[int] = None
        self._reader: Optional[threading.Thread] = None

    def enter(self, layer: str) -> list:
        frame = [layer, self.clock(), 0.0]
        self._stack.append(frame)
        self._open[layer] += 1
        return frame

    def exit(self, frame: list) -> None:
        end = self.clock()
        stack = self._stack
        top = stack.pop()
        if top is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        layer, start, child = frame
        duration = end - start
        totals = self.totals
        totals.self_s[layer] += duration - child
        totals.calls[layer] += 1
        self._open[layer] -= 1
        if not self._open[layer]:
            totals.busy_s[layer] += duration
        if stack:
            stack[-1][2] += duration

    def count(self, name: str, value: float = 1) -> None:
        self.totals.counts[name] += value

    def after_fork(self) -> None:
        """In a forked worker: drop the parent's open spans and totals."""
        self.totals = Totals()
        self._stack = []
        self._open = defaultdict(int)
        self.in_worker = True

    def ship(self) -> None:
        """Worker side: send the totals since the last ship to the parent."""
        if self._ship_fd is None:
            return
        payload = json.dumps(self.totals.to_dict(), separators=(",", ":")).encode()
        record = _RECORD.pack(len(payload)) + payload
        if len(record) > _PIPE_BUF:
            raise RuntimeError(f"trace record of {len(record)} bytes exceeds PIPE_BUF")
        os.write(self._ship_fd, record)
        self.totals = Totals()

    def _read_worker_records(self, fd: int) -> None:
        buffer = b""
        while True:
            chunk = os.read(fd, 65536)
            if not chunk:
                break
            buffer += chunk
            while len(buffer) >= _RECORD.size:
                (size,) = _RECORD.unpack_from(buffer)
                if len(buffer) < _RECORD.size + size:
                    break
                record = json.loads(buffer[_RECORD.size : _RECORD.size + size])
                buffer = buffer[_RECORD.size + size :]
                self.worker.merge(record)
        os.close(fd)


# ----------------------------------------------------------------------
# patching
# ----------------------------------------------------------------------


def _resolve(spec: str):
    module_name, qualname = spec.split(":")
    owner = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Patcher:
    """Replaces callables everywhere the program can reach them, reversibly.

    A module-level function is replaced in every loaded ``repro`` module
    that holds it (``from x import f`` copies the reference), and a method
    on the class that defines it. The wrapper keeps the original's name and
    module, so pickling a wrapped function by reference still works.
    """

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def wrap(self, spec: str, make_wrapper: Callable) -> bool:
        try:
            owner, attr = _resolve(spec)
        except (ImportError, AttributeError):
            return False
        if isinstance(owner, type):
            if attr not in vars(owner):
                return False
            original = vars(owner)[attr]
            if not callable(original) or isinstance(original, (staticmethod, classmethod)):
                return False
            self._set(owner, attr, make_wrapper(original))
            return True
        original = getattr(owner, attr, None)
        if original is None:
            return False
        wrapper = make_wrapper(original)
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapper)
        return True

    def wrap_method(self, cls: type, attr: str, make_wrapper: Callable) -> bool:
        if attr not in vars(cls):
            return False
        self._set(cls, attr, make_wrapper(vars(cls)[attr]))
        return True

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def call_hook(
    fn: Callable,
    after: Callable,
    before: Optional[Callable] = None,
) -> Callable:
    """Wrap ``fn`` so ``after(result, args, token)`` sees each return value,
    where ``token = before(args)`` was taken before the call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = before(args) if before is not None else None
        result = fn(*args, **kwargs)
        after(result, args, token)
        return result

    return wrapper


def span_wrapper(
    tracer: Tracer,
    layer: str,
    after: Optional[Callable] = None,
    before: Optional[Callable] = None,
) -> Callable:
    """A wrapper factory timing each call as a ``layer`` span."""
    enter, exit_ = tracer.enter, tracer.exit

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            frame = enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if after is not None:
                after(result, args, token)
            return result

        return wrapper

    return make


def generator_span_wrapper(tracer: Tracer, layer: str) -> Callable:
    """Like :func:`span_wrapper` for a generator: each ``next`` is a span,
    so no span stays open while the consumer runs."""
    enter, exit_ = tracer.enter, tracer.exit

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    frame = enter(layer)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        exit_(frame)
                    yield item
            finally:
                inner.close()

        return wrapper

    return make


# ----------------------------------------------------------------------
# counters read from the program's own accessors
# ----------------------------------------------------------------------


def _engine_counts(tracer: Tracer):
    from repro.utils.resilience import KERNEL_FALLBACK

    def after(_result, args, _token):
        engine = args[0]
        modes = engine.dispatch_mode_counts
        tracer.count("engine.sessions", sum(modes.values()))
        tracer.count(
            "engine.kernel_sessions",
            sum(n for mode, n in modes.items() if mode.startswith("kernel")),
        )
        for stats in engine.kernel_stats:
            tracer.count("kernel.rounds", stats.get("rounds", 0))
            tracer.count("kernel.scalar_dispatches", stats.get("scalar_dispatches", 0))
            tracer.labels.add(stats.get("backend"))
        tracer.count(
            "backend.fallbacks",
            sum(1 for event in engine.fallback_events if event.kind == KERNEL_FALLBACK),
        )
        tracer.count("engine.quarantined", len(engine.quarantined))

    return after


_SECURITY_COUNTERS = (
    "mask_cache_hits",
    "mask_cache_misses",
    "anonymity_lookup_hits",
    "anonymity_lookup_misses",
)


def _security_counts(tracer: Tracer):
    def before(args):
        kernel = args[0]
        return (
            {key: kernel.stats.get(key, 0) for key in _SECURITY_COUNTERS},
            len(kernel.backend_fallbacks),
        )

    def after(_result, args, token):
        kernel = args[0]
        counters, fallbacks = token
        for key in _SECURITY_COUNTERS:
            tracer.count(f"adversary.{key}", kernel.stats.get(key, 0) - counters[key])
        tracer.count("backend.fallbacks", len(kernel.backend_fallbacks) - fallbacks)
        tracer.labels.add(kernel.backend)

    return before, after


def install(tracer: Tracer, ship_to_parent: bool = False) -> Patcher:
    """Wrap every layer entry point with spans recorded into ``tracer``.

    With ``ship_to_parent``, workers forked afterwards send their totals
    back over a pipe (see the module docstring); call :func:`uninstall`
    only after the pool has shut down, so the reader sees end-of-file.
    """
    def count(name):
        return lambda _result, _args, _token: tracer.count(name)

    def count_events(result, _args, _token):
        tracer.count("contacts.events", len(result))

    def count_shared_bytes(result, args, segments_before):
        if len(args[0]) > segments_before:
            tracer.count("shm.bytes", result.nbytes)

    def chunk_done(_result, _args, _token):
        tracer.count("parallel.chunks")
        if tracer.in_worker:
            tracer.ship()

    before_score, after_score = _security_counts(tracer)
    wrappers = [
        (specs, span_wrapper(tracer, layer)) for layer, specs in LAYER_SPANS.items()
    ] + [
        (
            tuple(
                f"repro.contacts.events:{cls}.events_until_columnar"
                for cls in ("ExponentialContactProcess", "TraceReplayProcess", "ColumnarEventSource")
            ),
            span_wrapper(tracer, "contacts", count_events),
        ),
        (("repro.contacts.events:stream_event_blocks",), generator_span_wrapper(tracer, "contacts")),
        (
            (
                "repro.core.single_copy:SingleCopySession.__init__",
                "repro.core.multi_copy:MultiCopySession.__init__",
            ),
            span_wrapper(tracer, "core", count("core.sessions")),
        ),
        (
            ("repro.sim.engine:SimulationEngine.run",),
            span_wrapper(tracer, "sim.engine", _engine_counts(tracer)),
        ),
        (
            ("repro.adversary.kernel:SecurityBatchKernel.score",),
            span_wrapper(tracer, "adversary.score", after_score, before_score),
        ),
        (
            ("repro.analysis.hypoexponential:Hypoexponential.cdf",),
            span_wrapper(tracer, "analysis", count("analysis.cdf_calls")),
        ),
        (
            ("repro.experiments.shm:SharedBlockArena.register",),
            span_wrapper(tracer, "experiments.shm", count_shared_bytes, lambda args: len(args[0])),
        ),
        (CHUNK_FUNCTIONS, span_wrapper(tracer, "experiments.parallel", chunk_done)),
    ]
    patcher = Patcher()
    for specs, make_wrapper in wrappers:
        for spec in specs:
            if not patcher.wrap(spec, make_wrapper):
                tracer.missing.append(spec)

    backend_module = importlib.import_module("repro.sim.backend")
    for cls in getattr(backend_module, "BACKENDS", {}).values():
        for op in BACKEND_OPS:
            patcher.wrap_method(cls, op, span_wrapper(tracer, "sim.backend"))

    # Workers forked from here on start from empty totals; the hook cannot
    # be unregistered, and resetting an unused tracer in a child is harmless.
    os.register_at_fork(after_in_child=tracer.after_fork)
    if ship_to_parent:
        read_fd, write_fd = os.pipe()
        tracer._ship_fd = write_fd
        tracer._reader = threading.Thread(
            target=tracer._read_worker_records, args=(read_fd,), daemon=True
        )
        tracer._reader.start()
    return patcher


def uninstall(tracer: Tracer, patcher: Patcher) -> None:
    """Restore the originals and collect the workers' last records."""
    patcher.undo()
    if tracer._ship_fd is not None:
        os.close(tracer._ship_fd)
        tracer._ship_fd = None
        tracer._reader.join(timeout=30.0)
