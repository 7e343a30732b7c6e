"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/stability.py [--seeds 1-10] [--workload NAME ...]

Runs run.py for BENCHMARK.json's run_seconds once per seed for each
workload (all by default; name one with --workload to tune it alone) and
prints, for every end-to-end metric, the median of the runs and the
distance between the first and third quartiles (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound.  A spread
within a third of its bound is "ok", within the bound "near", above it
"WIDE".  The exit status is 1 if a run is not correct or a spread other
than setup_s's is WIDE; setup_s's bound applies to medians alone.  Raw
results go to .perfbench_work/stability/<workload>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import common

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = common.BENCH
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", choices=names)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = p.parse_args()

    out_dir = common.WORK / "stability"
    out_dir.mkdir(parents=True, exist_ok=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    status = 0
    for workload in args.workload or names:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True,
            )
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
        (out_dir / f"{workload}.json").write_text(json.dumps(runs, indent=1))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread <= bound / 3 else "near" if spread <= bound else "WIDE"
            if (flag == "WIDE" and name != "setup_s") or not all(r["correct"] for r in runs):
                status = 1
            print(f"  {workload:16s} {name:14s} median {med:14.6f}  spread {spread:7.4f}  "
                  f"bound {bound:5.3f}  {flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
