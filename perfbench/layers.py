"""Per-layer metrics of a traced run.

Times are self times (a span's duration minus what its child spans
cover) and, like counts, are totals per traced pass: one set-up and one
sweep of the workload's operations.  Spans under the ``check`` root (the
benchmark's own cold-build comparison) are left out.  Counters the layers
already keep are read from each round's ``DiscoveryStats`` and from the
artifact store's statistics.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from perfbench.tracing import attribution_gap, self_times

# name -> unit; the order is the order of BENCHMARK.json's per_layer list.
UNITS = {
    "storage.load_s": "s",
    "storage.insert_s": "s",
    "storage.delta_s": "s",
    "storage.rows_appended": "count",
    "index.build_s": "s",
    "index.delta_s": "s",
    "catalog.build_s": "s",
    "catalog.delta_s": "s",
    "schema_graph.build_s": "s",
    "schema_graph.delta_s": "s",
    "bayesian.train_s": "s",
    "bayesian.delta_s": "s",
    "artifacts.build_s": "s",
    "artifacts.refresh_s": "s",
    "artifacts.refreshes": "count",
    "artifacts.rebuild_fallbacks": "count",
    "discovery.related_s": "s",
    "discovery.candidates_s": "s",
    "discovery.candidates": "count",
    "discovery.filters_s": "s",
    "discovery.filters": "count",
    "discovery.engine_self_s": "s",
    "scheduler.select_s": "s",
    "scheduler.select_calls": "count",
    "scheduler.driver_self_s": "s",
    "scheduler.validations": "count",
    "scheduler.implied_per_validation": "ratio",
    "validation.self_s": "s",
    "validation.batches": "count",
    "validation.batched_outcomes": "count",
    "executor.exists_s": "s",
    "executor.exists_batch_s": "s",
    "executor.probes": "count",
    "executor.joins_performed": "count",
    "executor.exists_cache_hit_ratio": "ratio",
    "executor.join_index_hit_ratio": "ratio",
    "executor.plan_cache_hit_ratio": "ratio",
    "executor.bloom_rejections": "count",
    "kernels.semijoin_s": "s",
    "kernels.semijoin_calls": "count",
    "kernels.bloom_keep_s": "s",
    "planner.plan_s": "s",
    "planner.sketch_estimates_used": "count",
    "wire.encode_s": "s",
    "wire.decode_s": "s",
    "wire.bytes": "bytes",
    "service.self_s": "s",
    "round.self_s": "s",
    "setup.self_s": "s",
    "ingest_p50_s": "s",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
    "trace.attribution_gap_s": "s",
}


def _share(part: float, rest: float) -> float:
    return part / (part + rest) if part + rest else 0.0


def per_layer(tracer, passes) -> dict:
    traced = [one for one in passes if one.tracer is not None]
    untraced = [one for one in passes if one.tracer is None]
    per_pass = 1.0 / len(traced)

    by_id = {span.id: span for span in tracer.spans}

    def root(span):
        while span.parent is not None:
            span = by_id[span.parent]
        return span

    spans = [span for span in tracer.spans if root(span).name != "check"]
    selfs = self_times(spans)
    seconds = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    for span in spans:
        seconds[span.name] += selfs[span.id]
        calls[span.name] += 1
        if isinstance(span.count, tuple):
            for index, value in enumerate(span.count):
                counts[(span.name, index)] += value
        elif span.count is not None:
            counts[(span.name, 0)] += span.count

    stats = [op.stats for one in traced for op in one.ops if op.stats is not None]

    def stat(field: str) -> float:
        return sum(getattr(item, field) for item in stats)

    artifacts = defaultdict(int)
    for one in traced:
        for key in ("refreshes", "rebuild_fallbacks"):
            artifacts[key] += one.store_stats[key]

    traced_busy = sum(op.seconds for one in traced for op in one.ops)
    untraced_busy = sum(op.seconds for one in untraced for op in one.ops)
    ingests = [op.seconds for one in untraced for op in one.ops if op.kind == "ingest"]
    validations = counts[("scheduler.driver", 0)]

    values = {
        "storage.load_s": seconds["storage.load"],
        "storage.insert_s": seconds["storage.insert"],
        "storage.delta_s": seconds["storage.delta"],
        "storage.rows_appended": counts[("storage.insert", 0)],
        "index.build_s": seconds["index.build"],
        "index.delta_s": seconds["index.delta"],
        "catalog.build_s": seconds["catalog.build"],
        "catalog.delta_s": seconds["catalog.delta"],
        "schema_graph.build_s": seconds["schema_graph.build"],
        "schema_graph.delta_s": seconds["schema_graph.delta"],
        "bayesian.train_s": seconds["bayesian.train"],
        "bayesian.delta_s": seconds["bayesian.delta"],
        "artifacts.build_s": seconds["artifacts.build"],
        "artifacts.refresh_s": seconds["artifacts.refresh"],
        "artifacts.refreshes": artifacts["refreshes"],
        "artifacts.rebuild_fallbacks": artifacts["rebuild_fallbacks"],
        "discovery.related_s": seconds["discovery.related"],
        "discovery.candidates_s": seconds["discovery.candidates"],
        "discovery.candidates": counts[("discovery.candidates", 0)],
        "discovery.filters_s": seconds["discovery.filters"],
        "discovery.filters": counts[("discovery.filters", 0)],
        "discovery.engine_self_s": seconds["discovery.discover"],
        "scheduler.select_s": seconds["scheduler.select"],
        "scheduler.select_calls": calls["scheduler.select"],
        "scheduler.driver_self_s": seconds["scheduler.driver"],
        "scheduler.validations": validations,
        "validation.self_s": seconds["validation.validate"] + seconds["validation.validate_batch"],
        "validation.batches": stat("validation_batches"),
        "validation.batched_outcomes": stat("batched_outcomes"),
        "executor.exists_s": seconds["executor.exists"],
        "executor.exists_batch_s": seconds["executor.exists_batch"],
        "executor.probes": counts[("executor.exists", 0)] + counts[("executor.exists_batch", 0)],
        "executor.joins_performed": stat("joins_performed"),
        "executor.bloom_rejections": stat("bloom_rejections"),
        "kernels.semijoin_s": seconds["kernels.semijoin"],
        "kernels.semijoin_calls": calls["kernels.semijoin"],
        "kernels.bloom_keep_s": seconds["kernels.bloom_keep"],
        "planner.plan_s": seconds["planner.optimize"] + seconds["planner.plan_query"],
        "planner.sketch_estimates_used": stat("sketch_estimates_used"),
        "wire.encode_s": seconds["wire.encode"],
        "wire.decode_s": seconds["wire.decode"],
        "wire.bytes": counts[("wire.encode", 0)],
        "service.self_s": seconds["service.request"],
        "round.self_s": seconds["round"],
        "setup.self_s": seconds["setup"],
        "trace.spans": len(spans),
    }
    values = {name: value * per_pass for name, value in values.items()}
    values.update({
        # Ratios are per run, not per pass.
        "scheduler.implied_per_validation": (
            counts[("scheduler.driver", 1)] / validations if validations else 0.0
        ),
        "executor.exists_cache_hit_ratio": _share(
            stat("exists_cache_hits"), stat("exists_cache_misses")
        ),
        "executor.join_index_hit_ratio": _share(
            stat("join_index_hits"), stat("join_index_builds")
        ),
        "executor.plan_cache_hit_ratio": _share(
            stat("plan_cache_hits"), stat("plan_cache_builds")
        ),
        "ingest_p50_s": statistics.median(ingests) if ingests else 0.0,
        "trace.overhead_ratio": traced_busy / untraced_busy - 1.0,
        "trace.attribution_gap_s": attribution_gap(spans, selfs),
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
