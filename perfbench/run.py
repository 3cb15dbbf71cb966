"""The qchain benchmark: one run of one workload, figures printed as JSON.

From the root of a checkout::

    python3 perfbench/run.py --workload oracle_ed --seed 1 --seconds 30 --trace 0

Workloads: oracle_ed, ladder_spectra, deform_crossover (see README.md in
this directory).  The run measures set-up time in fresh interpreters
before and after the workload, and drives the workload in a fresh worker
process with the BLAS thread pools pinned to one thread, from the sources
in ``src``.  Timings are scaled to the reference speed of the shared
machine (hostprobe.py).  The last line of
stdout is ``{"correct", "attempted", "failed", "metrics"}``: with --trace 0
the end-to-end metrics, with --trace 1 the per-layer ones.  The line
before it is a record of the run (environment, output digests, tail
percentile, failures).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostprobe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORKLOADS = ("oracle_ed", "ladder_spectra", "deform_crossover")
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 12
SETUP_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 150
END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
READY = "ready"
SETUP_CODE = f"import qchain.cli; qchain.cli.build_parser(); print({READY!r}, flush=True)"


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def setup_samples(env: dict, count: int) -> list[tuple[float, float]]:
    """(seconds, probe seconds) pairs: the time from starting a fresh
    interpreter to a built CLI parser, the state in which ``qchain`` can
    take its first request, each with the host probe taken just before."""
    samples = []
    for _ in range(count):
        probe = hostprobe.probe()
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline().strip()
            samples.append((time.perf_counter() - start, probe))
            proc.stdout.read()
            code = proc.wait(timeout=SETUP_TIMEOUT_S)
        if code != 0 or line != READY:
            raise RuntimeError(f"set-up interpreter failed (exit {code}, printed {line!r})")
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qchain benchmark: one run of one workload")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "qchain" / "cli.py").is_file():
        print(f"error: no qchain sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    env = child_env()
    setup = []
    try:
        if not args.trace:
            # the first probe warms the probe's caches; the first start
            # writes the bytecode cache, which an installed package already
            # has; half the samples are taken after the workload, so that
            # one stall of the machine cannot hold them all
            hostprobe.probe()
            setup_samples(env, 1)
            setup = setup_samples(env, SETUP_REPEATS // 2)
        proc = subprocess.run(
            [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
        if not args.trace:
            setup += setup_samples(env, SETUP_REPEATS - len(setup))
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in result["metrics"].items()}
    else:
        values = dict(
            result["metrics"],
            setup_s=statistics.median(s * hostprobe.REFERENCE_S / p for s, p in setup),
        )
        result["record"]["unscaled"]["setup_s"] = statistics.median(s for s, _ in setup)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    record = dict(result["record"], workload=args.workload, seed=args.seed, trace=args.trace)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("bytes"):
        return "B"
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
