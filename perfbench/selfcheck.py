"""Self-check of the harness at toy shapes; takes well under a minute.

    python3 perfbench/selfcheck.py

Checks that BENCHMARK.json is well formed and that expected_acc.json
covers every workload, then runs every workload at a toy size with
--trace 0 and --trace 1 and checks that each run's last line is a
correct result carrying every named metric with its unit.
Exits non-zero on the first failure.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import common

RUN = Path(__file__).resolve().parent / "run.py"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def fail(msg):
    raise SystemExit(f"selfcheck: {msg}")


def check_spec(bench):
    if set(bench) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        fail(f"BENCHMARK.json keys {sorted(bench)}")
    names = [w["name"] for w in bench["workloads"]]
    if names != list(common.WORKLOADS):
        fail(f"workloads {names} != {list(common.WORKLOADS)}")
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            fail(f"workload entry {w}")
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for m in bench[section]:
            if set(m) != keys or not NAME.fullmatch(m["name"]) or not UNIT.fullmatch(m["unit"]):
                fail(f"{section} entry {m}")
            if m["better"] not in ("higher", "lower"):
                fail(f"{section} entry {m}")
            if section == "end_to_end" and not 0 < m["bound"] <= 0.25:
                fail(f"bound of {m['name']}")
    all_names = names + [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    if len(set(all_names)) != len(all_names):
        fail("a name is used twice")
    if any(common.expected_acc(name, 1) is None for name in names):
        fail(f"{common.EXPECTED.name} stores no macro_acc at seed 1 for some workload")


def main() -> int:
    check_spec(common.BENCH)
    for workload in common.WORKLOADS:
        for trace, table in ((0, common.END_TO_END), (1, common.PER_LAYER)):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
                 "--seconds", "1", "--trace", str(trace), "--toy"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
            )
            if proc.returncode != 0:
                fail(f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{workload} trace {trace}: result keys {sorted(res)}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                fail(f"{workload} trace {trace}: {res['correct']=} {res['attempted']=} {res['failed']=}")
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if got != table:
                fail(f"{workload} trace {trace}: missing {sorted(set(table) - set(got))}, "
                     f"unexpected {sorted(set(got) - set(table))}")
            for k, m in res["metrics"].items():
                if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)):
                    fail(f"{workload} trace {trace}: metric {k} = {m}")
            print(f"selfcheck: {workload} trace {trace} ok ({res['attempted']} calls)")
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
