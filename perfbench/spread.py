"""Run-to-run spread of the benchmark over seeds, and agreement of two sets.

From the root of a checkout::

    python3 perfbench/spread.py run --workloads oracle_ed --seeds 1-10 --out set_a.json
    python3 perfbench/spread.py compare set_a.json set_b.json

``run`` makes one untraced run per (workload, seed), one after another, and
prints for each end-to-end metric the median and the distance between the
first and third quartile as a share of the median, against the bound in
BENCHMARK.json (a spread must stay under a third of it; set-up time is
exempt).  ``compare`` checks that the medians of a second set are not worse
than the first's by more than the bound, and that each (workload, seed)
produced identical output digests in both sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def end_to_end_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return {"record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1])}


def summarize(runs: list[dict], metrics: dict) -> dict:
    summary = {}
    for name, spec in metrics.items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        summary[name] = {
            "median": statistics.median(values),
            "spread": spread,
            "steady": name == "setup_s" or spread < spec["bound"] / 3.0,
            "values": values,
        }
    return summary


def cmd_run(args) -> int:
    spec, metrics = end_to_end_spec()
    seconds = args.seconds or spec["run_seconds"]
    out = {"seconds": seconds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs = []
        for seed in seed_range(args.seeds):
            run = one_run(workload, seed, seconds, 0)
            runs.append(run)
            res = run["result"]
            print(f"{workload} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
        summary = summarize(runs, metrics)
        out["workloads"][workload] = {
            "summary": summary,
            "runs": [{"seed": s, **r} for s, r in zip(seed_range(args.seeds), runs)],
        }
        for name, s in summary.items():
            bound = metrics[name]["bound"]
            flag = "ok" if s["steady"] else "UNSTEADY"
            print(f"  {workload:17s} {name:16s} median {s['median']:10.4g}  spread {s['spread']:.3f}"
                  f"  (bound {bound}, limit {bound / 3:.3f}) {flag}", flush=True)
            steady &= s["steady"]
        steady &= all(r["result"]["correct"] for r in runs)
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0 if steady else 1


def cmd_compare(args) -> int:
    _, metrics = end_to_end_spec()
    first = json.loads(Path(args.first).read_text())["workloads"]
    second = json.loads(Path(args.second).read_text())["workloads"]
    ok = True
    for workload in first:
        for name, spec in metrics.items():
            a = first[workload]["summary"][name]["median"]
            b = second[workload]["summary"][name]["median"]
            worse = (a - b) / a if spec["better"] == "higher" else (b - a) / a
            agree = worse <= spec["bound"]
            ok &= agree
            print(f"{workload:17s} {name:16s} {a:10.4g} -> {b:10.4g}  worse by {worse:+.3f}"
                  f" (bound {spec['bound']}) {'ok' if agree else 'REGRESSED'}")
        digests_a = {r["seed"]: r["record"]["digest_pass0"] for r in first[workload]["runs"]}
        digests_b = {r["seed"]: r["record"]["digest_pass0"] for r in second[workload]["runs"]}
        same = all(digests_b.get(s) == d for s, d in digests_a.items())
        ok &= same
        print(f"{workload:17s} first-pass output digests {'identical' if same else 'DIFFER'}"
              f" over seeds {sorted(digests_a)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("compare")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
