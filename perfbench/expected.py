"""Record the macro_acc each workload gives at each seed.

    python3 perfbench/expected.py --seeds 0-99 [--workload NAME ...]

For every workload (all by default) and seed this generates the inputs
once and runs the reference pass that run.py checks: the CLI's warm-up
call with clustering seed 0, or the first whole stream pass from a fresh
state.  The accuracies are merged into perfbench/expected_acc.json.  A
later run of run.py at one of these seeds is correct only if its
macro_acc matches the stored value, so a change that alters predictions,
such as k-means merging two domains, fails the benchmark instead of
moving a metric within its bound.  Run it at the commit whose behaviour
is the reference, and again only when a change to predictions is meant.
"""

import argparse
import json
import shutil
import sys
from types import SimpleNamespace

import common
import run as bench_run
from stability import seeds


def reference_acc(umfc, np, workload, seed):
    args = SimpleNamespace(workload=workload, seed=seed, seconds=0, trace=0, toy=False)
    run = bench_run.Run(args)
    run.dir.mkdir(parents=True, exist_ok=True)
    try:
        bench_run.setup(run, times=1)
        if run.spec["kind"] == "cli":
            call, _ = bench_run.cli_caller(run, umfc, np)
            acc = call(0)[0]
        else:
            acc = bench_run.measure_stream(run)["macro_acc"][0]
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
    if acc is None:
        raise SystemExit(f"expected: {workload} seed {seed}: the CLI call failed its output checks")
    return acc


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=common.WORKLOADS)
    p.add_argument("--seeds", type=seeds, required=True)
    args = p.parse_args()

    common.pin_blas_threads()
    import numpy as np

    umfc = common.import_umfc()
    table = json.loads(common.EXPECTED.read_text()) if common.EXPECTED.is_file() else {}
    for workload in args.workload or common.WORKLOADS:
        column = table.setdefault(workload, {})
        for seed in args.seeds:
            column[str(seed)] = reference_acc(umfc, np, workload, seed)
            print(f"{workload} seed {seed}: macro_acc {column[str(seed)]!r}", flush=True)
            ordered = {w: dict(sorted(c.items(), key=lambda kv: int(kv[0]))) for w, c in table.items()}
            common.EXPECTED.write_text(json.dumps(ordered, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
