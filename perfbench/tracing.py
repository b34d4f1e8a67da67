"""Span tracing for the traced benchmark run.

The benchmark does not edit the program to trace it.  While a traced pass
runs, :class:`Tracer` replaces each public call listed in
:data:`LAYER_CALLS` with a wrapper that records one span per call and puts
the original back afterwards, so untraced passes run the program exactly
as shipped.  Spans are kept in memory and written out once, at the end of
the run.

A span records its name, start, end, parent span and the id of the round
(or setup, or ingest) it belongs to.  Rounds are closed-loop with one
client, so at most one thread runs traced code at a time: the service's
worker thread runs a round while the benchmark's thread waits on the
ticket.  One stack shared by all threads therefore gives every span its
true parent, also across that thread hand-off.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Optional

import repro.discovery.scheduler as _scheduler


def _result_len(args, kwargs, result) -> int:
    return len(result)


def _batch_len(args, kwargs, result) -> int:
    return len(args[1])


def _num_filters(args, kwargs, result) -> int:
    return result.num_filters


def _validations(args, kwargs, result) -> tuple:
    return (result.validations, result.implied_outcomes)


def _rows_inserted(args, kwargs, result) -> int:
    return int(result)


def _one(args, kwargs, result) -> int:
    return 1


# (span name, module, attribute path, count function).  The attribute path
# names the place the program looks the callable up, which for a function
# imported with ``from ... import`` is the importing module.
LAYER_CALLS: tuple = (
    ("storage.insert", "repro.dataset.table", "Table.insert_many", _rows_inserted),
    ("storage.delta", "repro.dataset.database", "Database.storage_deltas_since", None),
    ("index.build", "repro.dataset.index", "InvertedIndex.build", None),
    ("index.delta", "repro.dataset.index", "InvertedIndex.apply_delta", None),
    ("catalog.build", "repro.dataset.catalog", "MetadataCatalog.build", None),
    ("catalog.delta", "repro.dataset.catalog", "MetadataCatalog.apply_delta", None),
    ("schema_graph.build", "repro.dataset.schema_graph", "SchemaGraph.__init__", None),
    ("schema_graph.delta", "repro.dataset.schema_graph", "SchemaGraph.apply_delta", None),
    ("bayesian.train", "repro.service.artifacts", "train_models", None),
    ("bayesian.train", "repro.discovery.engine", "train_models", None),
    ("bayesian.delta", "repro.bayesian.training", "BayesianModelSet.apply_delta", None),
    ("artifacts.build", "repro.service.artifacts", "ArtifactStore.build", None),
    ("artifacts.refresh", "repro.service.artifacts", "ArtifactStore.refresh", None),
    ("discovery.discover", "repro.discovery.engine", "Prism.discover", None),
    ("discovery.related", "repro.discovery.related_columns", "RelatedColumnFinder.find", None),
    ("discovery.candidates", "repro.discovery.candidates", "CandidateGenerator.generate", _result_len),
    ("discovery.filters", "repro.discovery.engine", "build_filters", _num_filters),
    ("scheduler.driver", "repro.discovery.scheduler", "ValidationDriver.run", _validations),
    ("validation.validate", "repro.discovery.validation", "FilterValidator.validate", None),
    ("validation.validate_batch", "repro.discovery.validation", "FilterValidator.validate_batch", None),
    ("executor.exists", "repro.query.executor", "Executor.exists", _one),
    ("executor.exists_batch", "repro.query.executor", "Executor.exists_batch", _batch_len),
    ("planner.optimize", "repro.query.planner", "Planner.optimize", None),
    ("planner.plan_query", "repro.query.planner", "Planner.plan_query", None),
    ("kernels.semijoin", "repro.query.kernels", "semijoin_exists", None),
    ("kernels.bloom_keep", "repro.query.kernels", "bloom_keep", None),
) + tuple(
    ("scheduler.select", "repro.discovery.scheduler", f"{name}.select", None)
    for name, policy in sorted(vars(_scheduler).items())
    if inspect.isclass(policy)
    and issubclass(policy, _scheduler.SchedulingPolicy)
    and "select" in vars(policy)
)


class Span:
    """One timed call; ``count`` carries the call's unit of work."""

    __slots__ = ("id", "name", "parent", "round", "start", "end", "count")

    def __init__(self, span_id: int, name: str, parent: Optional[int], round_id: str):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.round = round_id
        self.start = time.perf_counter()
        self.end = self.start
        self.count: Any = None

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    """Records spans around the layer calls between :meth:`install` and
    :meth:`uninstall`, and around blocks the benchmark marks itself."""

    def __init__(self):
        self.spans: list[Span] = []
        self.round_id = "-"
        self._stack: list[Span] = []
        self._lock = threading.Lock()
        self._saved: list[tuple[Any, str, Any]] = []

    # -- spans -----------------------------------------------------------
    def begin(self, name: str) -> Span:
        with self._lock:
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), name, parent, self.round_id)
            self.spans.append(span)
            self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        with self._lock:
            popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around a block."""
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    # -- patching --------------------------------------------------------
    def _wrap(self, name: str, func: Callable, count: Optional[Callable]) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.end(span)
            if count is not None:
                span.count = count(args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        """Wrap every call in :data:`LAYER_CALLS`."""
        for name, module_name, path, count in LAYER_CALLS:
            owner: Any = importlib.import_module(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(self._wrap(name, raw.__func__, count))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(name, raw.__func__, count))
            else:
                wrapped = self._wrap(name, raw, count)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Put every original callable back."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def write(self, path: Path) -> None:
        """Write every recorded span as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.as_dict()) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            low, high = max(child.start, cursor), min(child.end, span.end)
            if high > low:
                covered += high - low
                cursor = high
        result[span.id] = (span.end - span.start) - covered
    return result


def attribution_gap(spans: list[Span], selfs: dict[int, float]) -> float:
    """Largest difference, over root spans, between the root's duration and
    the sum of the self times of every span under it (zero when every
    child lies inside its parent and siblings do not overlap)."""
    by_id = {span.id: span for span in spans}
    totals: dict[int, float] = defaultdict(float)
    for span in spans:
        root = span
        while root.parent is not None:
            root = by_id[root.parent]
        totals[root.id] += selfs[span.id]
    return max(
        (abs(totals[span.id] - (span.end - span.start)) for span in spans if span.parent is None),
        default=0.0,
    )
