"""Every workload, untraced and traced, in one table.

    python3 perfbench/report.py [--seed N]

For each workload this runs run.py with --trace 0 and with --trace 1, for
BENCHMARK.json's run_seconds each, and prints the end-to-end metrics,
batch_p50_ms and failed_frac with unit and sample count, the tracing
overhead (traced against untraced rows_per_s), and each layer's busy and
self time as a share of the traced pass.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import common

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds",
         str(common.BENCH["run_seconds"]), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True,
    )
    for line in proc.stdout.splitlines():
        if line.startswith("# correct="):
            detail = line.rsplit("detail=", 1)[1]
            return json.loads((common.ROOT / detail).read_text())
    raise SystemExit(f"perfbench: no result from {workload}")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()

    print(f"{'workload':16s} {'metric':42s} {'value':>16s} {'unit':8s} samples")
    env = None
    for workload in common.WORKLOADS:
        plain = run(workload, args.seed, 0)
        traced = run(workload, args.seed, 1)
        env = plain["environment"]
        for name, m in [*plain["metrics"].items(), *plain["info"].items()]:
            print(f"{workload:16s} {name:42s} {m['value']:16.6f} {m['unit']:8s} {m['samples']}")
        print(f"{workload:16s} {'input_bytes':42s} {env['input_bytes']:16d} bytes")
        tm = traced["metrics"]
        fast = plain["metrics"]["rows_per_s"]["value"]
        slow = tm["trace.rows_per_s"]["value"]
        print(f"{workload:16s} {'tracing overhead':42s} {fast / slow - 1:16.4f} {'fraction':8s} "
              f"(untraced {fast:.1f} vs traced {slow:.1f} rows/s)")
        wall = tm["trace.wall_s"]["value"]
        for name, m in sorted(tm.items(), key=lambda kv: -kv[1]["value"]):
            if name.endswith("busy_s") or name.endswith("self_s"):
                print(f"{workload:16s} {'share ' + name:42s} {m['value'] / wall:16.4f} {'fraction':8s}")
        for name in plain["missing"] + traced["missing"]:
            print(f"{workload:16s} {name:42s} {'missing':>16s}")
        if not (plain["correct"] and traced["correct"]):
            print(f"{workload:16s} OUTPUT CHECKS FAILED")
    print("# env " + " ".join(f"{k}={v!r}" for k, v in env.items() if k != "input_bytes"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
