"""Span tracer for the benchmark's traced runs, installed from outside ``src/``.

The tracer wraps the public entry point of each layer of :mod:`repro` in a
span recorder.  Nothing in the program is edited: module-level functions are
replaced in *every* loaded ``repro`` module that holds them (a function
imported by name, like ``run_m_step`` in ``repro.inference.icrf`` and
``repro.streaming.process``, is looked up there and not in its home module),
and methods are replaced on the class that defines them.  :meth:`Tracer.remove`
puts every original back.

A span records its name, start, end, parent span and operation id.  Each
thread keeps its own stack of open spans; gain workers and the service's
worker pool run off the calling thread, so the two hand-off points
(``map_ordered`` and ``SessionManager._run``) are wrapped to carry the
caller's span and operation into the worker.  Spans stay in memory until the
run ends and are then aggregated (and optionally written out).

A span whose name is already open on the same thread is not recorded again
(``ShardedEngine.assemble_mstep`` calls its parent class's method), so a
layer's calls and busy time count the outermost call only.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    """In-memory span and counter recorder (see module docstring)."""

    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        #: Operation id per service session, set by the client driving it;
        #: server-side spans of a request inherit it.
        self.session_ops: Dict[str, object] = {}

    # -- per-thread context --------------------------------------------

    def _frames(self) -> Tuple[list, set]:
        """This thread's stack of open span ids and set of open span names."""
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.names = [], set()
        return local.stack, local.names

    def set_op(self, op) -> None:
        """Tag the spans this thread opens from now on with ``op``."""
        self._local.op = op

    def context(self) -> Tuple[Optional[int], object]:
        """(innermost open span id, operation id) of the calling thread."""
        stack, _ = self._frames()
        parent = stack[-1] if stack else getattr(self._local, "parent", None)
        return parent, getattr(self._local, "op", None)

    def run_in(self, context, fn: Callable, *args, **kwargs):
        """Call ``fn`` on this thread as if inside ``context``'s span."""
        saved = (getattr(self._local, "parent", None), getattr(self._local, "op", None))
        self._local.parent, self._local.op = context
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.parent, self._local.op = saved

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] += amount

    # -- span recording -------------------------------------------------

    def span_wrapper(self, name: str, fn: Callable, on_return=None) -> Callable:
        """``fn`` recording one span per outermost call.

        ``on_return(tracer, result, args, kwargs)`` reads counts from the
        return value after the span closes.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, names = tracer._frames()
            if name in names:
                return fn(*args, **kwargs)
            parent, op = tracer.context()
            span_id = next(tracer._ids)
            stack.append(span_id)
            names.add(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                names.discard(name)
                # list.append is atomic under the interpreter lock.
                tracer.spans.append((span_id, name, start, end, parent, op))
            if on_return is not None:
                on_return(tracer, result, args, kwargs)
            return result

        return wrapper

    # -- installation ---------------------------------------------------

    def patch_function(self, original: Callable, replacement: Callable) -> None:
        """Replace ``original`` wherever a loaded ``repro`` module holds it."""
        replaced = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attribute, value))
                    setattr(module, attribute, replacement)
                    replaced += 1
        if not replaced:
            raise RuntimeError(f"{original.__qualname__} is held by no repro module")

    def patch_method(self, cls: type, attribute: str, replacement: Callable) -> None:
        self._patches.append((cls, attribute, cls.__dict__[attribute]))
        setattr(cls, attribute, replacement)

    def remove(self) -> None:
        """Restore every patched attribute (in reverse order)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- aggregation ----------------------------------------------------

    def layer_totals(self, ops_only: bool = False) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, ``busy_s`` and ``self_s``.

        Self time is a span's duration minus the part of its interval that
        its child spans (on any thread) cover.  ``ops_only`` keeps the spans
        opened while an operation was being timed (set-up excluded).
        """
        spans = list(self.spans)
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for _, _, start, end, parent, _ in spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for span_id, name, start, end, _, op in spans:
            if ops_only and op is None:
                continue
            entry = totals[name]
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += (end - start) - _covered(children.get(span_id), start, end)
        return dict(totals)

    def write(self, path: str) -> None:
        """Write the spans as gzipped JSON lines (one span per line)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        spans = list(self.spans)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, op in spans:
                handle.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start,
                         "end": end, "parent": parent, "op": op}
                    )
                )
                handle.write("\n")


def _covered(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    if not intervals:
        return 0.0
    covered = 0.0
    current_start = current_end = None
    for low, high in sorted(intervals):
        low, high = max(low, start), min(high, end)
        if high <= low:
            continue
        if current_end is None or low > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = low, high
        else:
            current_end = max(current_end, high)
    if current_end is not None:
        covered += current_end - current_start
    return covered


# ----------------------------------------------------------------------
# The layer entry points this benchmark traces
# ----------------------------------------------------------------------

#: Span names in report order; every one is reported on every workload
#: (zero calls where a workload bypasses the layer).
SPAN_LAYERS = (
    "datasets.load",
    "validation.step",
    "guidance.gains",
    "effort.batch_select",
    "inference.infer",
    "inference.mstep",
    "inference.engine.sweep",
    "inference.engine.assemble_mstep",
    "crf.gibbs_sample",
    "crf.component_entropy",
    "streaming.observe",
    "data.extend",
    "api.validate_burst",
    "api.save",
    "service.handler",
)

#: Counters read from return values or arguments at the same boundaries.
COUNTERS = (
    "guidance.gains.candidates",
    "inference.em_iterations",
    "inference.tron_iterations",
    "streaming.ingest_s",
    "streaming.update_s",
    "api.checkpoint.bytes",
)


def _count_candidates(tracer, result, args, kwargs):
    tracer.count("guidance.gains.candidates", len(result))


def _count_em(tracer, result, args, kwargs):
    tracer.count("inference.em_iterations", result.em_iterations)


def _count_tron(tracer, result, args, kwargs):
    tracer.count("inference.tron_iterations", result.iterations)


def _count_stream_update(tracer, result, args, kwargs):
    tracer.count("streaming.ingest_s", result.ingest_seconds)
    tracer.count("streaming.update_s", result.update_seconds)


def _count_checkpoint_bytes(tracer, result, args, kwargs):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.count("api.checkpoint.bytes", os.path.getsize(path))


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the loaded ``repro`` package."""
    import repro.datasets
    from repro.api.session import FactCheckSession
    from repro.crf.entropy import component_entropy
    from repro.crf.gibbs import GibbsSampler
    from repro.data.database import FactDatabase
    from repro.effort.batching import greedy_topk_selection
    from repro.guidance.gain import executor
    from repro.guidance.gain.estimator import GainEstimator
    from repro.inference.engine.base import InferenceEngine
    from repro.inference.icrf import ICrf
    from repro.inference.mstep import run_m_step
    from repro.service.manager import SessionManager
    from repro.streaming.process import StreamingFactChecker
    from repro.validation.process import ValidationProcess

    for function, name, on_return in (
        (repro.datasets.load_dataset, "datasets.load", None),
        (greedy_topk_selection, "effort.batch_select", None),
        (run_m_step, "inference.mstep", _count_tron),
        (component_entropy, "crf.component_entropy", None),
    ):
        tracer.patch_function(function, tracer.span_wrapper(name, function, on_return))

    for cls, attribute, name, on_return in (
        (ValidationProcess, "step", "validation.step", None),
        (GainEstimator, "information_gains", "guidance.gains", _count_candidates),
        (GainEstimator, "source_gains", "guidance.gains", _count_candidates),
        (ICrf, "infer", "inference.infer", _count_em),
        (GibbsSampler, "sample", "crf.gibbs_sample", None),
        (StreamingFactChecker, "observe", "streaming.observe", _count_stream_update),
        (FactDatabase, "extend", "data.extend", None),
        (FactCheckSession, "validate", "api.validate_burst", None),
        (FactCheckSession, "save", "api.save", _count_checkpoint_bytes),
    ):
        tracer.patch_method(
            cls, attribute,
            tracer.span_wrapper(name, cls.__dict__[attribute], on_return),
        )

    # Every engine class that implements a hot-path method of its own.
    for cls in _subclasses(InferenceEngine):
        for attribute in ("sweep", "assemble_mstep"):
            if attribute in cls.__dict__:
                tracer.patch_method(
                    cls, attribute,
                    tracer.span_wrapper(
                        f"inference.engine.{attribute}", cls.__dict__[attribute]
                    ),
                )

    # Gain workers: carry the caller's span and operation into the pool.
    original_map = executor.map_ordered

    def traced_map(fn, items, max_workers):
        context = tracer.context()
        return original_map(
            functools.partial(tracer.run_in, context, fn), items, max_workers
        )

    tracer.patch_function(original_map, traced_map)

    # Service: time the operation a manager method runs under the session
    # lock on its worker; lock waits and worker queueing stay outside.
    original_run = SessionManager.__dict__["_run"]
    handler = tracer.span_wrapper("service.handler", lambda operation: operation())

    def traced_run(manager, managed, operation):
        context = (tracer.context()[0], tracer.session_ops.get(managed.id))
        return original_run(
            manager, managed, functools.partial(tracer.run_in, context, handler, operation)
        )

    tracer.patch_method(SessionManager, "_run", traced_run)


def _subclasses(cls: type) -> List[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found
