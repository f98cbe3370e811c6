"""Per-layer timing from outside the program.

The tracer wraps the public entry points of each layer (named after the
packages under ``src/repro``; see ``catalog.LAYER_NAMES``) with timing
shims installed at run time; nothing under ``src/`` is edited.  Each thread keeps a stack of open
spans, so a span's *self* time is its duration minus the time of the
spans it caused on the same thread.  Work handed to another thread
(a served request waiting on a runtime job) is accounted as ``blocked``
on the waiting side and shows up as the worker thread's own spans.

Accumulators are per thread and merged on :meth:`Tracer.snapshot`, so
no lock sits on the hot path.  Generators (``IndexProbe.scan``) are
timed per resumption, which is where their work happens.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: Pseudo-layer for time a thread spends waiting on another thread's
#: work; it is excluded from the layer rollup and from coverage.
BLOCKED = "blocked"

#: Per-call size each timer records as ``rows``: rows a query returned,
#: items a batch lookup asked for.
_ROWS: Dict[str, Callable[[tuple, Any], int]] = {
    "rdf.query": lambda args, result: len(result),
    "annotation.lookup_batch": lambda args, result: (
        len(args[1]) if hasattr(args[1], "__len__") else 0
    ),
}

#: Calls counted a second time as ``key@context`` when made inside an
#: open span of ``context`` on the same thread.
_CONTEXTS: Dict[str, Tuple[str, ...]] = {
    "rdf.query": ("annotation.lookup_batch",),
    "annotation.lookup_batch": ("stream.apply",),
}

#: Every call of this timer is logged with the query rows it caused, so
#: rows per item can be followed job by job.
_LOGGED = "annotation.lookup_batch"
_LOGGED_ROWS = "rdf.query@annotation.lookup_batch"


def _targets() -> List[Tuple[str, Any, str, str]]:
    """(layer, owner, attribute, key) for every wrapped entry point.

    ``key`` names the inclusive timer the per-layer metrics read.
    Imports are local so the module loads without the program.
    """
    from repro.annotation.store import AnnotationStore
    from repro.qv import backend as qv_backend
    from repro.qv import compiler as qv_compiler
    from repro.rdf.graph import Graph
    from repro.rdf.sparql.plan import CompiledQuery
    from repro.runtime.jobs import JobHandle
    from repro.runtime.service import ExecutionService
    from repro.serving import wire
    from repro.serving.plans import PlanCache
    from repro.serving.quotas import QuotaManager
    from repro.serving.server import QualityViewServer
    from repro.storage import bulk
    from repro.storage.paged import PagedBackend, PagedProbe
    from repro.storage.probe import DictIndexProbe
    from repro.storage.wal import WALWriter
    from repro.stream.engine import StreamEngine
    from repro.stream.incremental import IncrementalEnactor
    from repro.workflow.enactor import Enactor
    from repro.runtime.parallel import ParallelEnactor

    targets = [
        ("serving", QualityViewServer, "dispatch", "serving.dispatch"),
        ("serving", wire, "encode_result", "serving.wire_encode"),
        ("serving", wire, "encode_job", "serving.wire_encode"),
        ("serving", wire, "decode_enact_request", "serving.wire_decode"),
        ("serving", wire, "decode_view_registration", "serving.wire_decode"),
        ("serving", PlanCache, "get_or_compile", "serving.plan_cache"),
        ("serving", QuotaManager, "check", "serving.quota"),
        (BLOCKED, JobHandle, "wait", "blocked.job_wait"),
        ("runtime", ExecutionService, "submit", "runtime.submit"),
        ("runtime", ExecutionService, "_run_job", "runtime.job"),
        ("workflow", Enactor, "enact", "workflow.enact"),
        ("workflow", ParallelEnactor, "enact", "workflow.enact"),
        ("qv", qv_compiler.QVCompiler, "compile", "qv.compile"),
        ("qv", qv_compiler.QVCompiler, "compile_with_report", "qv.compile"),
        ("annotation", qv_compiler.AnnotatorProcessor, "fire", "annotation.annotate"),
        ("annotation", qv_compiler.DataEnrichmentProcessor, "fire", "annotation.de_fire"),
        ("annotation", qv_backend.BatchEnrichmentProcessor, "fire", "annotation.de_fire"),
        ("annotation", AnnotationStore, "enrich", "annotation.enrich"),
        ("annotation", AnnotationStore, "lookup_batch", "annotation.lookup_batch"),
        ("annotation", AnnotationStore, "lookup_all", "annotation.lookup_all"),
        ("annotation", AnnotationStore, "lookup", "annotation.lookup"),
        ("annotation", AnnotationStore, "annotate_map", "annotation.write"),
        ("annotation", AnnotationStore, "remove_annotations", "annotation.write"),
        ("rdf", CompiledQuery, "execute", "rdf.query"),
        ("rdf", Graph, "add", "rdf.write"),
        ("rdf", Graph, "remove", "rdf.write"),
        ("storage", DictIndexProbe, "scan", "storage.probe"),
        ("storage", DictIndexProbe, "contains", "storage.probe"),
        ("storage", DictIndexProbe, "count", "storage.probe"),
        ("storage", PagedProbe, "scan", "storage.probe"),
        ("storage", PagedProbe, "contains", "storage.probe"),
        ("storage", PagedProbe, "count", "storage.probe"),
        ("storage", PagedBackend, "checkpoint", "storage.checkpoint"),
        ("storage", PagedBackend, "__init__", "storage.open"),
        ("storage", WALWriter, "append", "storage.wal"),
        ("storage", WALWriter, "commit", "storage.wal"),
        ("storage", bulk, "bulk_load_triples", "storage.bulk_load"),
        ("qa", qv_compiler.AssertionProcessor, "fire", "qa.fire"),
        ("qa", qv_backend.FusedAssertionProcessor, "fire", "qa.fire"),
        ("process", qv_compiler.ActionProcessor, "fire", "process.action"),
        ("process", qv_backend.FilterGateProcessor, "fire", "process.action"),
        ("stream", IncrementalEnactor, "apply", "stream.apply"),
        ("stream", StreamEngine, "process", "stream.process"),
    ]
    # Only wrap what each owner defines itself (a subclass inheriting a
    # wrapped method is already covered) and what actually exists.
    return [
        (layer, owner, attr, key)
        for layer, owner, attr, key in targets
        if attr in vars(owner)
    ]


class _ThreadAcc:
    """One thread's accumulators and open-span stack."""

    __slots__ = (
        "stack", "self_s", "key_self_s", "incl_s", "calls", "depth", "rows",
        "log",
    )

    def __init__(self) -> None:
        self.stack: List[List[float]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.key_self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.depth: Dict[str, int] = defaultdict(int)
        self.rows: Dict[str, int] = defaultdict(int)
        self.log: List[Tuple[int, int]] = []


class Tracer:
    """Installs timing shims around layer entry points.

    ``install()`` patches, ``uninstall()`` restores the originals;
    ``reset()`` zeroes the accumulators and ``snapshot()`` merges them.
    ``paused()`` turns the shims into pass-throughs (oracle checks).
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._accs: List[_ThreadAcc] = []
        self._accs_lock = threading.Lock()
        self._saved: List[Tuple[Any, str, Any]] = []
        self.active = True

    # -- accumulators ------------------------------------------------------

    def _acc(self) -> _ThreadAcc:
        acc = getattr(self._local, "acc", None)
        if acc is None:
            acc = _ThreadAcc()
            self._local.acc = acc
            with self._accs_lock:
                self._accs.append(acc)
        return acc

    def reset(self) -> None:
        """Zero every thread's accumulators (open spans keep running)."""
        with self._accs_lock:
            accs = list(self._accs)
        for acc in accs:
            acc.self_s.clear()
            acc.key_self_s.clear()
            acc.log.clear()
            acc.incl_s.clear()
            acc.calls.clear()
            acc.rows.clear()

    def snapshot(self) -> Dict[str, Any]:
        """Merged ``self_s``/``key_self_s``/``incl_s``/``calls``/``rows``
        over threads, plus ``log``: per batch lookup (rows returned,
        items asked), in call order within each thread."""
        merged: Dict[str, Dict[str, float]] = {
            "self_s": defaultdict(float),
            "key_self_s": defaultdict(float),
            "incl_s": defaultdict(float),
            "calls": defaultdict(float),
            "rows": defaultdict(float),
        }
        with self._accs_lock:
            accs = list(self._accs)
        for acc in accs:
            for field in merged:
                for key, value in list(getattr(acc, field).items()):
                    merged[field][key] += value
        snapshot: Dict[str, Any] = {
            field: dict(values) for field, values in merged.items()
        }
        snapshot["log"] = [entry for acc in accs for entry in acc.log]
        return snapshot

    @contextlib.contextmanager
    def paused(self):
        """Run a block with every shim passing straight through."""
        previous, self.active = self.active, False
        try:
            yield
        finally:
            self.active = previous

    # -- spans ---------------------------------------------------------------

    def _enter(self, key: str) -> Tuple[_ThreadAcc, List[float]]:
        acc = self._acc()
        frame = [time.perf_counter(), 0.0]
        acc.stack.append(frame)
        acc.depth[key] += 1
        return acc, frame

    def _exit(
        self, acc: _ThreadAcc, frame: List[float], layer: str, key: str,
        call: bool = True,
    ) -> None:
        duration = time.perf_counter() - frame[0]
        acc.stack.pop()
        acc.depth[key] -= 1
        if acc.stack:
            acc.stack[-1][1] += duration
        acc.self_s[layer] += duration - frame[1]
        acc.key_self_s[key] += duration - frame[1]
        if call:
            acc.calls[key] += 1
        if acc.depth[key] == 0:
            acc.incl_s[key] += duration

    def _count(self, acc: _ThreadAcc, key: str, rows: int) -> None:
        acc.rows[key] += rows
        for context in _CONTEXTS.get(key, ()):
            if acc.depth.get(context, 0) > 0:
                acc.calls[f"{key}@{context}"] += 1
                acc.rows[f"{key}@{context}"] += rows

    def _wrap(self, layer: str, key: str, fn: Callable) -> Callable:
        tracer = self
        measure = _ROWS.get(key)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if not tracer.active:
                    yield from fn(*args, **kwargs)
                    return
                acc = tracer._acc()
                acc.calls[key] += 1
                iterator = fn(*args, **kwargs)
                rows = 0
                try:
                    while True:
                        acc, frame = tracer._enter(key)
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                        finally:
                            tracer._exit(acc, frame, layer, key, call=False)
                        rows += 1
                        yield item
                finally:
                    tracer._count(acc, key, rows)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            acc, frame = tracer._enter(key)
            before = acc.rows.get(_LOGGED_ROWS, 0) if key == _LOGGED else 0
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(acc, frame, layer, key)
            size = measure(args, result) if measure else 0
            tracer._count(acc, key, size)
            if key == _LOGGED:
                acc.log.append((acc.rows.get(_LOGGED_ROWS, 0) - before, size))
            return result

        return wrapper

    def install(self) -> "Tracer":
        """Patch every entry point (idempotent)."""
        if self._saved:
            return self
        for layer, owner, attr, key in _targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, key, original))
        return self

    def uninstall(self) -> None:
        """Restore every original entry point."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

