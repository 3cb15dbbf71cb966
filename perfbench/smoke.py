"""Smoke check of the benchmark itself.

From the root of a checkout::

    python3 perfbench/smoke.py

Makes a short untraced and a short traced run of every workload in
BENCHMARK.json and checks that each prints exactly the metrics
BENCHMARK.json names, with their units, and that no request failed.
Exits 1 on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = 1
SEED = 1


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in expected.items():
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(SEED),
                                   "--seconds", str(SECONDS), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            if proc.returncode != 0:
                print(f"FAIL {workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in metrics}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            problems = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"result keys {sorted(result)}")
            if got != want:
                problems.append(f"metrics differ: missing {sorted(set(want) - set(got))}, "
                                f"extra {sorted(set(got) - set(want))}, "
                                f"units {sorted(k for k in want if k in got and got[k] != want[k])}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"correct={result['correct']} failed={result['failed']} "
                                f"attempted={result['attempted']}")
            if problems:
                print(f"FAIL {workload} trace={trace}: {'; '.join(problems)}")
                return 1
            print(f"ok   {workload} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} requests, error rate 0")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
