"""In-memory span tracer for the benchmark's traced runs.

``install()`` wraps public functions of each layer of ``repro`` from
the outside (the program itself carries no spans).  Every span keeps
its name, start, end and a parent link; spans stay in memory until the
process writes them out with :meth:`Recorder.dump`.  ``attribute()``
turns a set of spans into per-layer self times whose sum, together
with the unattributed remainder, is exactly the traced wall.

Clock: ``time.monotonic`` (``CLOCK_MONOTONIC``, shared by every process
on the host), so spans from the service's server process can be laid
on the client's timeline.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import importlib
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

#: Every layer's span and the end-to-end metric and workload it should
#: move.  The self time of span ``x`` is reported as ``x_s``.
LAYERS = {
    "frontend.parse": ("setup_s on every workload; job_p50_s on "
                       "service-funarc (every job rebuilds its model)"),
    "frontend.analyze": "same as frontend.parse",
    "frontend.reduce": "same as frontend.parse",
    "compile.exec": ("wall_s and variants_per_s on mom6-ddmin; no change "
                     "predicted on mom6-wide-batched"),
    "batch.sweep": "wall_s on mom6-wide-batched; zero elsewhere",
    "numerics.profile": "job_p50_s and job_p90_s on service-funarc",
    "perf.price": "small on every workload",
    "evaluation.baseline": "setup_s on every workload",
    "evaluation.score": "wall_s on the mom6 workloads",
    "search.self": "wall_s on every workload",
    "oracle.self": "wall_s on every workload (bookkeeping)",
    "campaign.self": "wall_s on every workload",
    "parallel.wait": "job_p50_s on service-funarc only",
    "cache.get": "job_p50_s on service-funarc",
    "cache.put": "job_p50_s on service-funarc",
    "journal.append": "job_p50_s on service-funarc",
    "journal.snapshot": "job_p50_s on service-funarc",
    "obs.emit": "every workload",
    "service.submit": "job_p50_s and job_p90_s on service-funarc",
    "service.dispatch_wait": "job_p50_s and job_p90_s on service-funarc",
    "service.campaign": "job_p50_s and job_p90_s on service-funarc",
    "service.result_tail": "job_p50_s and job_p90_s on service-funarc",
}


class Recorder:
    """Spans and counters of one process."""

    def __init__(self):
        self.spans: list[tuple] = []     # (id, parent, name, start, end)
        self.counters: Counter = Counter()
        self.wave_widths: list[int] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.monotonic()
        try:
            yield
        finally:
            end = time.monotonic()
            stack.pop()
            # list.append is atomic under the interpreter lock, so
            # spans from the server's threads need no extra lock.
            self.spans.append((span_id, parent, name, start, end))

    def add_span(self, name: str, start: float, end: float,
                 parent=None) -> int:
        span_id = next(self._ids)
        self.spans.append((span_id, parent, name, start, end))
        return span_id

    @property
    def in_batch(self) -> bool:
        return getattr(self._local, "in_batch", False)

    @in_batch.setter
    def in_batch(self, value: bool) -> None:
        self._local.in_batch = value

    def dump(self) -> dict:
        from repro.fortran.compile import CODE_CACHE
        return {"spans": self.spans, "counters": dict(self.counters),
                "wave_widths": self.wave_widths,
                "code_cache": CODE_CACHE.stats()}


def _patch(recorder: Recorder, module: str, path: str, name: str,
           before=None, after=None) -> None:
    """Replace ``module.path`` with a wrapper recording span *name*.

    A target that no longer exists is reported and skipped, so a later
    refactor of the program degrades its layer's numbers to zero
    instead of breaking the benchmark.
    """
    try:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
    except (ImportError, AttributeError):
        print(f"trace: {module}.{path} not found; {name} reads zero",
              file=sys.stderr)
        return

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        with recorder.span(name):
            result = original(*args, **kwargs)
        if after is not None:
            after(args, result)
        return result
    setattr(owner, attr, wrapper)


def install(rec: Recorder) -> None:
    """Wrap every traced layer entry point in this process."""
    def count(key, amount=1):
        rec.counters[key] += amount

    base = "repro.models.base"
    _patch(rec, base, "parse_source", "frontend.parse")
    _patch(rec, base, "analyze", "frontend.analyze")
    _patch(rec, base, "analyze_program", "frontend.analyze")
    _patch(rec, "repro.fortran.callgraph", "build_graphs", "frontend.reduce")
    _patch(rec, "repro.fortran.taint", "reduce_program", "frontend.reduce")
    _patch(rec, "repro.numerics", "profile_model", "numerics.profile",
           before=lambda a, k: count("numerics.profiles"))
    _patch(rec, "repro.core.evaluation", "compute_cost", "perf.price",
           before=lambda a, k: count("perf.prices"))
    _patch(rec, "repro.core.evaluation", "Evaluator.__init__",
           "evaluation.baseline")
    _patch(rec, "repro.core.evaluation", "Evaluator.evaluate_assigned",
           "evaluation.score")
    _install_batch_score(rec)
    _patch(rec, "repro.fortran.batch", "VariantBatch.__init__",
           "batch.sweep", before=lambda a, k: (
               count("batch.waves"),
               count("batch.lanes", len(a[2] if len(a) > 2
                                        else k.get("overlays", ())))))
    _install_model_run(rec)
    for module, cls in (("repro.core.search.deltadebug", "DeltaDebugSearch"),
                        ("repro.core.search.random_search", "RandomSearch"),
                        ("repro.core.search.profile_guided",
                         "ProfileGuidedSearch")):
        _patch(rec, module, f"{cls}.run", "search.self")
    _patch(rec, "repro.core.campaign", "BudgetedOracle.evaluate_batch",
           "oracle.self", after=lambda a, result: _telemetry(rec, a[0]))
    _patch(rec, "repro.core.parallel", "ParallelOracle._run_tasks",
           "parallel.wait")
    _patch(rec, "repro.core.campaign", "run_campaign", "campaign.self")
    _patch(rec, "repro.core.cache", "ResultCache.get", "cache.get")
    _patch(rec, "repro.core.cache", "ResultCache.put", "cache.put")
    for method in ("batch_intent", "variant", "batch_done"):
        _patch(rec, "repro.core.journal", f"CampaignJournal.{method}",
               "journal.append",
               before=lambda a, k: count("journal.appends"))
    _patch(rec, "repro.core.journal", "CampaignJournal.snapshot",
           "journal.snapshot")
    _patch(rec, "repro.obs.bus", "EventBus.emit", "obs.emit",
           before=lambda a, k: count("obs.events"))


def _telemetry(rec: Recorder, oracle) -> None:
    """Fold the batch the oracle just finished into the counters."""
    telemetry = oracle.telemetry[-1]
    rec.wave_widths.append(telemetry.size)
    for field in ("size", "cache_hits", "retries", "failures",
                  "vector_lanes", "fallback_lanes"):
        rec.counters[f"telemetry.{field}"] += getattr(telemetry, field)


def _install_batch_score(rec: Recorder) -> None:
    """``evaluate_assigned_batch`` is scoring; while a batched wave runs
    in it, model executions belong to the batch sweep."""
    from repro.core.evaluation import Evaluator
    original = Evaluator.evaluate_assigned_batch

    @functools.wraps(original)
    def wrapper(self, tasks):
        batched = self.backend == "batched" and len(tasks) > 1
        previous = rec.in_batch
        rec.in_batch = batched
        try:
            with rec.span("evaluation.score"):
                return original(self, tasks)
        finally:
            rec.in_batch = previous
    Evaluator.evaluate_assigned_batch = wrapper


def _install_model_run(rec: Recorder) -> None:
    """``ModelCase.run``: compiled-backend executions are
    ``compile.exec``, lanes of a batched wave are ``batch.sweep``;
    other interpreters (the shadow profiler) stay in their caller."""
    from repro.fortran.compile import CompiledInterpreter
    from repro.models.base import ModelCase
    original = ModelCase.run

    @functools.wraps(original)
    def wrapper(self, assignment=None, max_ops=None,
                interpreter_factory=None):
        if interpreter_factory is CompiledInterpreter:
            name = "compile.exec"
            rec.counters["compile.runs"] += 1
        elif rec.in_batch:
            name = "batch.sweep"
        else:
            return original(self, assignment, max_ops, interpreter_factory)
        with rec.span(name):
            return original(self, assignment, max_ops, interpreter_factory)
    ModelCase.run = wrapper


# ---------------------------------------------------------------------------
# Self-time attribution
# ---------------------------------------------------------------------------

def depths(spans: list[tuple], offset: int = 0) -> dict[int, int]:
    """Nesting depth of every span id (roots at *offset*)."""
    parent_of = {s[0]: s[1] for s in spans}
    out: dict[int, int] = {}
    for span_id in parent_of:
        chain = []
        node = span_id
        while node is not None and node not in out:
            chain.append(node)
            node = parent_of.get(node)
        depth = out[node] + 1 if node is not None else offset - 1
        for node in reversed(chain):
            depth += 1
            out[node] = depth
    return out


def attribute(intervals: list[tuple[str, float, float, int]],
              start: float, end: float) -> tuple[dict[str, float], float]:
    """Self time per name over ``[start, end]``, and the remainder.

    *intervals* are ``(name, start, end, depth)``.  Each instant goes to
    the deepest span active then (the latest started among equals), so
    the self times plus the unattributed remainder sum to
    ``end - start`` exactly, even where spans of concurrent threads or
    processes overlap.
    """
    events = []
    for index, (_, s, e, _) in enumerate(intervals):
        s, e = max(s, start), min(e, end)
        if e > s:
            events.append((s, 1, index))
            events.append((e, 0, index))
    events.sort()
    self_time: dict[str, float] = defaultdict(float)
    unattributed = 0.0
    heap: list[tuple[int, float, int]] = []
    alive: set[int] = set()
    clock = start
    for moment, opening, index in events:
        if moment > clock:
            while heap and heap[0][2] not in alive:
                heapq.heappop(heap)
            if heap:
                self_time[intervals[heap[0][2]][0]] += moment - clock
            else:
                unattributed += moment - clock
            clock = moment
        if opening:
            alive.add(index)
            _, s, _, depth = intervals[index]
            heapq.heappush(heap, (-depth, -s, index))
        else:
            alive.discard(index)
    unattributed += end - clock
    return dict(self_time), unattributed


def write_spans(path, groups: list[dict]) -> None:
    """Write spans as JSON lines.

    *groups* are ``{"rep": k, "process": name, "spans": [...]}``; each
    line carries the repetition, the process, and the span's id, parent
    id, name, start and end.
    """
    with open(path, "w", encoding="utf-8") as out:
        for group in groups:
            for span_id, parent, name, start, end in group["spans"]:
                out.write(json.dumps({
                    "rep": group["rep"], "process": group["process"],
                    "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end}) + "\n")
