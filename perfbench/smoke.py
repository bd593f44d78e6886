"""Smoke test of the benchmark itself.

Runs every workload at the tiny size, untraced and traced, and checks
that the result line has the four keys, that every metric named in
BENCHMARK.json is emitted with its unit and a numeric value, that the
report lines name job_tail_s and fail_ratio, and that no job failed.

    python3 perfbench/smoke.py          # exit code 0 when all is well
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(workload, trace, wanted):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"failed {result['failed']} of {result['attempted']}")
    metrics = result["metrics"]
    if set(metrics) != set(wanted):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(wanted))}")
    for name, unit in wanted.items():
        m = metrics.get(name, {})
        if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name}: {m}")
    if trace == 0:
        report = "\n".join(lines[:-1])
        if "job_tail_s" not in report or f"{workload} fail_ratio = 0 " not in report:
            problems.append("report lacks job_tail_s or a zero fail_ratio")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    failed = False
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            problems = check_run(workload, trace, wanted[trace])
            failed = failed or bool(problems)
            print(f"{workload} trace={trace}: {'; '.join(problems) or 'ok'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
