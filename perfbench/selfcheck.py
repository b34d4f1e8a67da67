"""The benchmark's own test: its work does not depend on the hash seed.

From the repository root::

    python3 perfbench/selfcheck.py

For each workload, runs one pass over a short slice of its operations in
two child processes, under ``PYTHONHASHSEED`` 0 and 1, and requires the
same SQL answers and filter-validation counts from both.  Exits with 1 on
any difference, with 0 when every workload agrees.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
HASH_SEEDS = ("0", "1")
WORKLOAD_SEED = 1


def shorten(workload) -> None:
    """Cut a workload down to a slice that still covers each kind of op."""
    if hasattr(workload, "batches"):
        workload.batches = workload.batches[:5]
    else:
        workload.rounds = workload.rounds[:3] + workload.rounds[-3:]
    if hasattr(workload, "REPEATS"):
        workload.REPEATS = 1


def child(name: str) -> None:
    sys.path.insert(0, str(HERE))
    from run import import_program

    import_program()
    from perfbench.workloads import WORKLOADS, Pass

    workload = WORKLOADS[name](WORKLOAD_SEED)
    shorten(workload)
    one = Pass()
    state = workload.setup(one)
    try:
        workload.operations(state, one)
    finally:
        workload.close(state)
    print(json.dumps([op.outcome for op in one.ops]))


def main() -> int:
    sys.path.insert(0, str(HERE))
    from run import import_program

    import_program()
    from perfbench.workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        outcomes = []
        for hash_seed in HASH_SEEDS:
            completed = subprocess.run(
                [sys.executable, __file__, "--child", name],
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
                capture_output=True,
                text=True,
                timeout=900,
                check=True,
            )
            outcomes.append(completed.stdout.strip().splitlines()[-1])
        same = outcomes[0] == outcomes[1]
        ops = len(json.loads(outcomes[0]))
        print(f"{name}: {ops} operations, {'identical' if same else 'DIFFERENT'} "
              f"under PYTHONHASHSEED {' and '.join(HASH_SEEDS)}")
        status = status or (0 if same else 1)
    return status


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2])
    else:
        sys.exit(main())
