"""The benchmark's three workloads: inputs, set-up, operations and checks.

Every workload is closed loop with one client and no wall-clock cutoff:
discovery runs with ``time_limit=math.inf`` and the service's deadlines
sit far above the slowest round, so a run's work is fixed by its inputs.
Inputs are made from the workload seed alone.

A run is made of passes.  Each pass sets up from an empty state (the
``setup_s`` sample), then runs the workload's operations in a fixed
order, so every pass of a run does the same work and must give the same
answers.  The first pass checks each answer, outside its timed span,
with :mod:`perfbench.checks`; the runner then requires every later
answer to equal the first pass's.
"""

from __future__ import annotations

import contextlib
import math
import random
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import (
    ArtifactStore,
    DiscoveryRequest,
    DiscoveryResponse,
    DiscoveryService,
    GenerationLimits,
    MappingSpec,
    Prism,
    generate_synthetic_database,
    load_mondial,
    parse_value_constraint,
)
from repro.api import ReproError, demo_requests
from repro.storage import make_backend
from repro.workloads import (
    DEFAULT_SWEEP_LEVELS,
    ResolutionLevel,
    WorkloadGenerator,
    spec_for_level,
)

from perfbench import checks

# The candidate bounds of the repository's pytest benchmarks
# (benchmarks/conftest.py), so figures compare with the E1-E6 reports.
LIMITS = GenerationLimits(
    max_candidates=200, max_assignments=400, max_trees_per_assignment=6
)
# Far above the slowest round: the service path has no count budget.
SERVICE_DEADLINE_S = 600.0


@dataclass
class Op:
    """One timed operation of a pass and what it returned."""

    kind: str
    label: str
    seconds: float
    answer: Any = None
    stats: Any = None
    problems: list = field(default_factory=list)

    @property
    def outcome(self) -> tuple:
        """What must repeat exactly in every pass."""
        validations = self.stats.validations if self.stats is not None else None
        return (self.kind, self.label, self.answer, validations)


class Pass:
    """One set-up and one sweep of a workload's operations.

    With a tracer, the set-up and every operation are root spans, each
    with a round id of its own that starts with the operation's label.
    """

    def __init__(self, tracer=None, check: bool = False):
        self.tracer = tracer
        self.check = check
        self.ops: list[Op] = []
        self.setup_s = 0.0
        self.store_stats: dict = {}

    def span(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    def timed(self, kind: str, label: str, work: Callable[[], tuple]) -> Op:
        """Time ``work``, which returns ``(answer, stats)``.  An exception
        from the program fails the operation instead of the run."""
        if self.tracer is not None:
            # Labels repeat across passes and repeats; the number of spans
            # so far makes the round's id unique in the run.
            self.tracer.round_id = f"{label}#{len(self.tracer.spans)}"
        problems = []
        with self.span(kind):
            start = time.perf_counter()
            try:
                answer, stats = work()
            except ReproError as exc:
                answer, stats = None, None
                problems.append(f"{type(exc).__name__}: {exc}")
            seconds = time.perf_counter() - start
        op = Op(kind, label, seconds, answer, stats, problems)
        self.ops.append(op)
        return op


def tahoe_spec() -> MappingSpec:
    """The §3 demo round: Lake Tahoe, its state, a non-negative decimal."""
    (request,) = demo_requests(databases=["mondial"])
    return request.spec


def _discover(bundle, spec: MappingSpec) -> tuple:
    """One in-process round: a fresh engine over the shared bundle, as the
    service builds one per request, and the rendered answer."""
    engine = Prism.from_artifacts(bundle, time_limit=math.inf, limits=LIMITS)
    result = engine.discover(spec)
    return tuple(result.sql()), result.stats


def _round_problems(database, op: Op, spec: MappingSpec, oracle: bool = True) -> list[str]:
    """Problems with a round's answer; empty when it passes the checks."""
    if op.stats is None:
        return [f"no answer: {op.answer}"]
    if op.stats.timed_out:
        return ["timed out"]
    queries = [checks.parse_sql(database, sql) for sql in op.answer]
    return checks.check_answer(database, queries, spec, oracle)


class MondialSweep:
    """The paper's evaluation loop on Mondial (§2.4 and the §3 demo)."""

    name = "mondial_sweep"
    backend = "default"
    # The case generator's seed is fixed: a case's join shape sets its
    # rounds' cost (rounds span 30x), and changing generator seeds moved
    # a pass's time 3x.  The workload seed drives every spec's
    # degradation instead: disjunction distractors and range bounds.
    # Twelve cases rather than six put twice the specs around the median
    # round, whose cost then moves less with the seed (interleaved in one
    # process on a 2-vCPU VM, seeds 11-15 gave medians of 86-107 ms with
    # six, 91-103 ms with twelve).
    CASE_SEED = 17
    NUM_CASES = 12

    def __init__(self, seed: int):
        database = load_mondial()
        catalog = ArtifactStore().build(database).catalog
        generator = WorkloadGenerator(database, seed=self.CASE_SEED)
        cases = generator.generate_cases(self.NUM_CASES, num_columns=3, num_tables=2)
        self.rounds = [
            (
                f"case{case.case_id}-{level.value}",
                spec_for_level(case, level, database, catalog=catalog, seed=seed),
                case if level is ResolutionLevel.EXACT else None,
            )
            for case in cases
            for level in DEFAULT_SWEEP_LEVELS
        ]
        self.rounds.append(("lake-tahoe", tahoe_spec(), None))
        self.exact_checked = 0

    def setup(self, run: Pass):
        with run.span("storage.load"):
            database = load_mondial()
        store = ArtifactStore()
        bundle = store.build(database)
        _discover(bundle, tahoe_spec())
        return database, bundle, store

    def operations(self, state, run: Pass) -> None:
        database, bundle, store = state
        for label, spec, case in self.rounds:
            op = run.timed("round", label, lambda: _discover(bundle, spec))
            if run.check and not op.problems:
                op.problems = _round_problems(database, op, spec)
                if case is not None and op.stats.num_candidates < LIMITS.max_candidates:
                    # The exact rows were produced by the ground truth, so
                    # it is found unless enumeration stopped at the
                    # candidate bound first.
                    self.exact_checked += 1
                    if not any(
                        case.matches_query(checks.parse_sql(database, sql))
                        for sql in op.answer
                    ):
                        op.problems.append("ground truth missing at the exact level")
        run.store_stats = store.stats.as_dict()

    def close(self, state) -> None:
        pass

    def record(self) -> dict:
        return {"rounds_per_pass": len(self.rounds), "exact_cases_checked": self.exact_checked}


class SkewedChain:
    """A Zipf-skewed chain whose foreign keys mostly dangle (NumPy backend)."""

    name = "skewed_chain"
    backend = "numpy"
    ROWS = 10_000
    SKEW = 1.1
    DANGLING = 0.9
    SAMPLES = 3
    DEAD_SPECS = 12
    LIVE_SPECS = 4
    # The database's seed is fixed and the workload seed draws the specs
    # from its label pools: databases of seeds 1-4 cost up to 12% apart
    # per round, run interleaved in one process on a 2-vCPU VM.
    DATA_SEED = 5
    # Each pass answers its specs this many times over one set-up, so a
    # run's time goes mostly to rounds rather than to set-ups.  On a
    # shared 2-vCPU VM the same rounds swung 2x from one half second to
    # the next; only many seconds of rounds per run average that out.
    REPEATS = 8

    def __init__(self, seed: int):
        self.seed = seed
        dead, live_pairs, t1_labels = self._label_pools(self._database())
        needed_dead = self.DEAD_SPECS * self.SAMPLES
        needed_live = self.LIVE_SPECS * self.SAMPLES
        if len(dead) < needed_dead or len(live_pairs) < needed_live:
            raise RuntimeError(
                f"seed {seed} gives {len(dead)} dead labels and "
                f"{len(live_pairs)} live pairs; need {needed_dead} and {needed_live}"
            )
        rng = random.Random(seed)
        dead = rng.sample(dead, needed_dead)
        live_pairs = rng.sample(live_pairs, needed_live)
        self.rounds = []
        for index in range(self.DEAD_SPECS):
            spec = MappingSpec(num_columns=3)
            for label in dead[index * self.SAMPLES:(index + 1) * self.SAMPLES]:
                spec.add_sample_cells([
                    parse_value_constraint(label),
                    parse_value_constraint(rng.choice(t1_labels)),
                    None,
                ])
            self.rounds.append((f"dead{index}", spec, False))
        for index in range(self.LIVE_SPECS):
            spec = MappingSpec(num_columns=3)
            for t3_label, t1_label in live_pairs[index * self.SAMPLES:(index + 1) * self.SAMPLES]:
                spec.add_sample_cells([
                    parse_value_constraint(t3_label),
                    parse_value_constraint(t1_label),
                    None,
                ])
            self.rounds.append((f"live{index}", spec, True))

    def _database(self):
        return generate_synthetic_database(
            num_tables=4,
            rows_per_table=self.ROWS,
            topology="chain",
            seed=self.DATA_SEED,
            skew=self.SKEW,
            dangling_fk_fraction=self.DANGLING,
            backend=make_backend("numpy"),
        )

    def _label_pools(self, database):
        """Dead ``T3`` labels and live ``(T3.label, T1.label)`` pairs.

        A label is dead when every ``T3`` row carrying it has a parent id
        with no ``T2`` row; a pair is live when some ``T3`` row reaches a
        ``T1`` row through real parent ids.  Both come from this walk over
        the data, not from the program.
        """
        t3, t2, t1 = (database.table(name) for name in ("T3", "T2", "T1"))
        t2_parent = dict(zip(t2.column_values("id"), t2.column_values("parent_id")))
        t1_label = dict(zip(t1.column_values("id"), t1.column_values("label")))
        parents = defaultdict(list)
        live = set()
        for label, parent in zip(t3.column_values("label"), t3.column_values("parent_id")):
            parents[label].append(parent)
            grandparent = t2_parent.get(parent)
            if grandparent in t1_label:
                live.add((label, t1_label[grandparent]))
        dead = sorted(
            label for label, ids in parents.items() if not any(i in t2_parent for i in ids)
        )
        return dead, sorted(live), sorted(set(t1_label.values()))

    def setup(self, run: Pass):
        with run.span("storage.load"):
            database = self._database()
        store = ArtifactStore()
        bundle = store.build(database)
        _discover(bundle, self.rounds[-1][1])
        return database, bundle, store

    def operations(self, state, run: Pass) -> None:
        database, bundle, store = state
        for repeat in range(self.REPEATS):
            for label, spec, live in self.rounds:
                op = run.timed("round", label, lambda: _discover(bundle, spec))
                if run.check and repeat == 0 and not op.problems:
                    self._check(database, op, spec, live)
        run.store_stats = store.stats.as_dict()

    @staticmethod
    def _check(database, op: Op, spec: MappingSpec, live: bool) -> None:
        """Checks of a first answer; the runner holds every repeat to it."""
        op.problems = _round_problems(database, op, spec, oracle=False)
        if op.problems:
            return
        queries = [checks.parse_sql(database, sql) for sql in op.answer]
        chains = [
            query for query in queries
            if {(edge.child_table, edge.parent_table) for edge in query.joins}
            == {("T3", "T2"), ("T2", "T1")}
            and [(ref.table, ref.column) for ref in query.projections[:2]]
            == [("T3", "label"), ("T1", "label")]
        ]
        joins_t3_t2 = [
            query for query in queries
            if any((e.child_table, e.parent_table) == ("T3", "T2") for e in query.joins)
        ]
        if live and not chains:
            op.problems.append("live spec lacks the T3-T2-T1 projection")
        if not live and joins_t3_t2:
            op.problems.append("dead spec returned a query joining T3 to T2")

    def close(self, state) -> None:
        pass

    def record(self) -> dict:
        return {
            "rounds_per_pass": len(self.rounds) * self.REPEATS,
            "repeats": self.REPEATS,
            "data_seed": self.DATA_SEED,
            "rows_per_table": self.ROWS,
            "skew": self.SKEW,
            "dangling_fk_fraction": self.DANGLING,
        }


class AppendRefresh:
    """Appends beside reads: a scaled Mondial served with artifact refresh."""

    name = "append_refresh"
    backend = "default"
    PROVINCES_PER_COUNTRY = 6
    CITIES_PER_PROVINCE = 10
    BATCH_ROWS = 25
    CYCLES = 60
    EQUIVALENCE_SPECS = 3

    def __init__(self, seed: int):
        database = self._database()
        self.base_city_rows = database.table("City").num_rows
        provinces = list(zip(
            database.table("Province").column_values("Name"),
            database.table("Province").column_values("Country"),
        ))
        rng = random.Random(seed)
        self.batches = []
        for cycle in range(self.CYCLES):
            batch = []
            for row in range(self.BATCH_ROWS):
                province, country = rng.choice(provinces)
                batch.append((
                    f"Nova {seed}-{cycle}-{row} {rng.choice(('Town', 'Burg', 'Port', 'Falls'))}",
                    country,
                    province,
                    rng.randint(20_000, 4_000_000),
                    round(rng.uniform(-180.0, 180.0), 2),
                    round(rng.uniform(-60.0, 70.0), 2),
                ))
            name, __, province, *__ = rng.choice(batch)
            spec = MappingSpec(num_columns=2)
            spec.add_sample_cells([parse_value_constraint(name), parse_value_constraint(province)])
            self.batches.append((batch, spec))
        self.equivalence_specs = [spec for __, spec in self.batches[-self.EQUIVALENCE_SPECS:]]
        self.equivalence_specs.append(tahoe_spec())

    def _database(self):
        return load_mondial(
            extra_provinces_per_country=self.PROVINCES_PER_COUNTRY,
            extra_cities_per_province=self.CITIES_PER_PROVINCE,
        )

    def setup(self, run: Pass):
        with run.span("storage.load"):
            database = self._database()
        service = DiscoveryService(
            databases={"mondial": database},
            workers=1,
            limits=LIMITS,
            refresh_artifacts=True,
            default_deadline_s=SERVICE_DEADLINE_S,
        ).start()
        try:
            self._ask(service, tahoe_spec(), run)
        except BaseException:
            service.shutdown()
            raise
        return database, service

    @staticmethod
    def _ask(service, spec: MappingSpec, run: Pass) -> tuple:
        """One round through the v1 wire format in both directions."""
        request = DiscoveryRequest("mondial", spec, deadline_s=SERVICE_DEADLINE_S)
        with run.span("wire.encode") as span:
            text = request.to_json()
        with run.span("wire.decode"):
            request = DiscoveryRequest.from_json(text)
        with run.span("service.request"):
            response = service.submit(request).result(timeout=SERVICE_DEADLINE_S)
        with run.span("wire.encode") as reply_span:
            reply = response.to_json()
        with run.span("wire.decode"):
            response = DiscoveryResponse.from_json(reply)
        if span is not None:
            span.count, reply_span.count = len(text), len(reply)
        if response.status != "ok":
            return (response.status, response.error), None
        return tuple(response.result.sql()), response.result.stats

    def operations(self, state, run: Pass) -> None:
        database, service = state
        city = database.table("City")

        def ingest(rows):
            appended = city.insert_many(rows)
            service.store.refresh(database)
            return appended, None

        for cycle, (batch, spec) in enumerate(self.batches):
            run.timed("ingest", f"ingest{cycle}", lambda: ingest(batch))
            op = run.timed("round", f"cycle{cycle}", lambda: self._ask(service, spec, run))
            if run.check and not op.problems:
                op.problems = _round_problems(database, op, spec)
                if op.stats is not None and not any(
                    sql.startswith("SELECT City.Name,") for sql in op.answer
                ):
                    op.problems.append("just-appended name not found")
        run.store_stats = service.store.stats.as_dict()
        # The refreshed bundle must answer as a cold build of the same
        # database state does.
        with run.span("check"):
            refreshed = service.store.refresh(database)
            cold = ArtifactStore().build(database)
            for index, spec in enumerate(self.equivalence_specs):
                op = Op("equivalence", f"equivalence{index}", 0.0)
                op.answer = _discover(refreshed, spec)[0]
                if op.answer != _discover(cold, spec)[0]:
                    op.problems.append("refreshed bundle answers differ from a cold build")
                run.ops.append(op)

    def close(self, state) -> None:
        state[1].shutdown(wait=True)

    def record(self) -> dict:
        return {
            "cycles_per_pass": self.CYCLES,
            "batch_rows": self.BATCH_ROWS,
            "base_city_rows": self.base_city_rows,
        }


WORKLOADS = {
    workload.name: workload for workload in (MondialSweep, SkewedChain, AppendRefresh)
}
