"""Run one benchmark workload and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload skewed_chain --seed 1 --seconds 50 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of ``BENCHMARK.json``; with
``--trace 1`` they are the per-layer ones, from a run whose odd passes are
traced (see :mod:`perfbench.tracing`) and whose even passes are not, so
the difference gives the tracing overhead.  The line before it is the run
record (host, versions, commit, inputs).  A traced run also writes its
spans to ``.perfbench/``.

The program is imported from ``src/`` beside this directory and nowhere
else; without it the run exits with an error before measuring anything.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
MIN_PASSES = 2
MIN_SETUPS = 7
# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


def import_program() -> None:
    """Put ``src/`` and the checkout root first on the path and import
    repro from there, with repro's deprecations raised as errors."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [str(SRC), str(ROOT)] + [p for p in sys.path if p != here]
    warnings.filterwarnings(
        "error", category=DeprecationWarning, module=r"(repro|perfbench)(\.|$)|__main__$"
    )
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def run_record(args, workload, passes) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "storage_backend": (
            workload.backend if workload.backend != "default"
            else os.environ.get("PRISM_STORAGE_BACKEND", "python")
        ),
        "cores": os.cpu_count(),
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        **workload.record(),
    }


def git_commit():
    """HEAD's commit when the checkout is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def run_passes(workload, seconds: float, tracer):
    """Passes until ``seconds`` have gone, at least :data:`MIN_PASSES`,
    and with a tracer an even number: untraced, traced, untraced, ..."""
    from perfbench.workloads import Pass

    passes = []
    started = time.perf_counter()
    while (
        len(passes) < MIN_PASSES
        or time.perf_counter() - started < seconds
        or (tracer is not None and len(passes) % 2)
    ):
        traced = tracer is not None and len(passes) % 2 == 1
        one = Pass(tracer if traced else None, check=not passes)
        if traced:
            tracer.install()
        try:
            run_pass(workload, one, f"setup{len(passes)}")
        finally:
            if traced:
                tracer.uninstall()
        passes.append(one)
    return passes


def run_pass(workload, one, setup_label: str, operations: bool = True) -> None:
    if one.tracer is not None:
        one.tracer.round_id = setup_label
    with one.span("setup"):
        start = time.perf_counter()
        state = workload.setup(one)
        one.setup_s = time.perf_counter() - start
    try:
        if operations:
            workload.operations(state, one)
    finally:
        workload.close(state)


def tally(passes) -> tuple[int, int, bool, list[str]]:
    """Operations attempted and failed.  An operation is held to the first
    operation of its label in the first pass: it fails when that one's
    checks found a problem or when its outcome differs from that one's;
    the latter also makes the run incorrect."""
    first = {}
    for op in passes[0].ops:
        first.setdefault(op.label, op)
    attempted = failed = 0
    consistent = True
    problems = []
    for one in passes:
        for op in one.ops:
            attempted += 1
            reference = first[op.label]
            differs = op.outcome != reference.outcome
            consistent = consistent and not differs
            if reference.problems or differs:
                failed += 1
                problems.append(
                    f"{op.label}: {'; '.join(reference.problems) or 'outcome differs from pass 0'}"
                )
    return attempted, failed, consistent, problems


def percentile(values, fraction: float):
    """The ``fraction`` quantile when at least :data:`TAIL_SAMPLES` values
    lie beyond it, else None."""
    if len(values) * (1 - fraction) < TAIL_SAMPLES:
        return None
    return statistics.quantiles(values, n=100)[round(fraction * 100) - 1]


def end_to_end(passes, setups) -> dict:
    """The end-to-end metrics.  Latency and throughput are taken per pass
    and their median over the passes is reported: every pass does the same
    work, and a spell of host slowness that covers a minority of the
    passes then does not move the figure."""
    p50s, rates = [], []
    for one in passes:
        rounds = [op.seconds for op in one.ops if op.kind == "round"]
        p50s.append(statistics.median(rounds))
        rates.append(len(rounds) / sum(op.seconds for op in one.ops))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "round_p50_s": (statistics.median(p50s), "s"),
        "throughput_rps": (statistics.median(rates), "1/s"),
        "filter_validations": (
            sum(op.stats.validations for op in passes[0].ops if op.stats is not None),
            "count",
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def extra_figures(passes) -> dict:
    """Figures kept in the run record only (see README, "Metrics")."""
    ops = [op for one in passes for op in one.ops]
    rounds = [op.seconds for op in ops if op.kind == "round"]
    ingests = [op.seconds for op in ops if op.kind == "ingest"]
    return {
        "rounds": len(rounds),
        "round_p90_s": percentile(rounds, 0.9),
        "ingest_p50_s": statistics.median(ingests) if ingests else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    from perfbench.layers import per_layer
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS, Pass

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    passes = run_passes(workload, args.seconds, tracer)
    setups = [one.setup_s for one in passes]
    while tracer is None and len(setups) < MIN_SETUPS:
        extra = Pass()
        run_pass(workload, extra, f"setup{len(setups)}", operations=False)
        setups.append(extra.setup_s)

    attempted, failed, consistent, problems = tally(passes)
    for problem in problems[:20]:
        print(f"problem {problem}", file=sys.stderr)
    record = run_record(args, workload, passes)
    if tracer is None:
        metrics = end_to_end(passes, setups)
        record.update(extra_figures(passes))
    else:
        metrics = per_layer(tracer, passes)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    record["setup_samples"] = setups
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
