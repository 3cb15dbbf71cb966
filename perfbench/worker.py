"""One workload run in a fresh process; prints its figures as one JSON line.

run.py starts this file with the BLAS thread pools pinned to one thread and
``src`` on PYTHONPATH.  One client sends the requests of a closed loop: each
waits for the previous one.  CLI requests go through
``qchain.cli.main(argv)`` with stdout captured in memory; the two routes the
CLI does not reach call the library.  Every output is checked after its
request, outside the timed region.

--trace 0 cycles through five passes of fresh requests, each request at
least twice, until --seconds have passed, and reports end-to-end figures
over the median latency of each request, scaled to the reference speed of
the shared machine (hostprobe.py).
--trace 1 repeats pass 0, alternately untraced and traced, and reports
per-layer self times and counts, medians over the traced repetitions.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import qchain.algebra
import qchain.cli
import qchain.oracle
import qchain.spectra
from qchain.config import ChainConfig

import hostprobe
from checks import check
from tracing import MODULES, Tracer
from workloads import WORKLOADS, make_pass

# fixed, so that the tail figure keeps its meaning as the program gets
# faster; five passes of 20-24 requests put 10 or more samples beyond it
TAIL_PERCENTILE = 90
DISTINCT_PASSES = 5
MIN_REPEATS = 2
MIN_TRACE_REPEATS = 2
HARD_STOP_S = 120.0  # a run ends inside the 180 s a benchmark run may take
KEPT_FAILURES = 5
TRACE_DIR = Path(__file__).resolve().parent / "traces"

PER_LAYER_SPANS = (
    "algebra.deformation_factor",
    "algebra.deformation_profile",
    "algebra.ladder_element",
    "crossover.find_stationary_points",
    "crossover.bracketed_roots",
    "crossover.stationarity_residual",
    "oracle.eigensolve.dense",
    "oracle.sector_hamiltonian",
    "oracle.build_collective_ops",
    "oracle.hs_projection",
    "spectra.eigensolve.tridiag",
    "spectra.build_h1_matrix",
    "spectra.solve_dressed",
    "spectra.coefficients_closed",
    "spectra.coefficients_recursive",
)
PER_LAYER_CALLS = (
    "algebra.deformation_factor",
    "oracle.eigensolve.dense",
    "spectra.eigensolve.tridiag",
)
PER_LAYER_COUNTS = (
    "algebra.deformation_profile.cells",
    "crossover.residual_evals",
    "oracle.eigensolve.dense.dim3",
    "oracle.sector_dim",
    "spectra.eigensolve.tridiag.dim3",
)


def _pole_distance(state, sub, detuning, eta) -> float:
    v = state.interaction_eigenvalue
    return min(abs((v - detuning * n) / eta) for n in sub.photon_numbers)


def execute(request):
    """Send one request; returns (exit code, output text, library value)."""
    p = request.params
    if request.route == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = qchain.cli.main(list(request.argv))
        return code, out.getvalue(), None
    if request.route == "projection":
        ops = qchain.oracle.build_collective_ops(ChainConfig(n_qubits=p["n"], spacing=p["l"]))
        value = qchain.oracle.hs_projection(ops.sigma_z, ops.s_z)
        return 0, f"{value!r}\n", value
    # amplitudes: dressed states, then both coefficient routes on the state
    # farthest from a pole vt_n = 0 of the closed form
    R = qchain.algebra.deformation_factor(p["n"], p["l"]).value
    sub = qchain.spectra.subspace(p["u"], p["r"])
    states = qchain.spectra.solve_dressed(sub, R, p["detuning"], p["eta"])
    v = max(states, key=lambda s: _pole_distance(s, sub, p["detuning"], p["eta"])).interaction_eigenvalue
    rec = qchain.spectra.coefficients_recursive(v, sub, R, p["detuning"], p["eta"])
    closed = qchain.spectra.coefficients_closed(v, sub, R, p["detuning"], p["eta"])
    text = " ".join(repr(float(x)) for x in [v, *rec, *closed]) + "\n"
    return 0, text, (v, rec, closed)


class Client:
    """The single closed-loop client: sends, times, checks and digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.output_bytes = 0

    def send(self, request, verify=True, expected_digest=None):
        """Run one request; returns (seconds, sha256 of its output, passed)."""
        start = time.perf_counter()
        try:
            code, text, value = execute(request)
        except (Exception, SystemExit) as exc:
            code, text, value = f"{type(exc).__name__}: {exc}", "", None
        seconds = time.perf_counter() - start
        self.attempted += 1
        data = text.encode()
        self.output_bytes += len(data) if request.route == "cli" else 0
        digest = hashlib.sha256(data).hexdigest()
        problems = []
        if code != 0:
            problems.append(f"exit {code}")
        elif expected_digest is not None and digest != expected_digest:
            problems.append("output bytes differ from the first run of the same request")
        elif verify:
            problems = check(request, text, value)
        if problems:
            self.failed += 1
            if len(self.failures) < KEPT_FAILURES:
                self.failures.append(f"{' '.join(request.argv) or request.route} {request.params}: {problems[:3]}")
        return seconds, digest, not problems


def _figures(runs_by_pass) -> dict:
    """Figures over each request's median latency across its runs."""
    lat = np.concatenate([np.median(runs, axis=0) for runs in runs_by_pass])
    return {
        "throughput_rps": lat.size / float(lat.sum()),
        "latency_p50_ms": 1e3 * float(np.median(lat)),
        "latency_tail_ms": 1e3 * float(np.percentile(lat, TAIL_PERCENTILE)),
    }


def end_to_end(workload: str, seed: int, seconds: float):
    """Cycle through DISTINCT_PASSES passes of fresh requests until --seconds
    have passed and every request has run MIN_REPEATS times.  The host probe
    runs between passes; each pass's latencies are scaled by the reference
    probe time over the mean of the probes on either side of it
    (hostprobe.py).  A request's latency is the median of its scaled runs,
    and the figures are taken over those of all requests."""
    client = Client()
    passes = [make_pass(workload, seed, k) for k in range(DISTINCT_PASSES)]
    scaled = [[] for _ in passes]
    unscaled = [[] for _ in passes]
    first = [None] * len(passes)
    reference = [None] * len(passes)
    hostprobe.probe()  # the first call pays for page faults and cold caches
    probes = [hostprobe.probe()]
    runs = 0
    start = time.perf_counter()
    while True:
        k = runs % len(passes)
        latencies, digests, reference[k] = _run_pass(client, passes[k], reference[k])
        probes.append(hostprobe.probe())
        first[k] = first[k] or digests
        scale = hostprobe.REFERENCE_S / (0.5 * (probes[-2] + probes[-1]))
        scaled[k].append(scale * np.array(latencies))
        unscaled[k].append(latencies)
        runs += 1
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and runs >= MIN_REPEATS * len(passes)):
            break

    metrics = _figures(scaled)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {
        "requests": sum(len(requests) for requests in passes),
        "attempted": client.attempted,
        "runs_of_each_request": runs // len(passes),
        "wall_s": time.perf_counter() - start,
        "tail_percentile": TAIL_PERCENTILE,
        "tail_samples_beyond": _beyond(scaled, metrics["latency_tail_ms"] / 1e3),
        "error_rate": client.failed / client.attempted,
        "digest_pass0": _digest(first[0]),
        "digest_run": _digest(d for digests in first for d in digests),
        "output_bytes": client.output_bytes,
        "host_probe_ms": [round(1e3 * p, 2) for p in probes],
        "unscaled": _figures(unscaled),
    }
    return client, metrics, record


def _beyond(runs_by_pass, threshold: float) -> int:
    return sum(int((np.median(runs, axis=0) > threshold).sum()) for runs in runs_by_pass)


def _digest(digests) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def _run_pass(client: Client, requests, reference=None, tracer=None):
    """One pass.  A request is checked against its output digest from an
    earlier run that passed, in ``reference``, else by the correctness
    checks, so a wrong answer fails on every run.  Returns (latencies in
    seconds, per-request digests, the digests of the requests that passed
    or None)."""
    latencies, digests, passed = [], [], []
    for k, request in enumerate(requests):
        if tracer is not None:
            tracer.request = k
        expected = None if reference is None else reference[k]
        seconds, digest, ok = client.send(request, verify=expected is None, expected_digest=expected)
        latencies.append(seconds)
        digests.append(digest)
        passed.append(digest if ok else None)
    return latencies, digests, passed


def traced(workload: str, seed: int, seconds: float):
    client = Client()
    requests = make_pass(workload, seed, 0)
    start = time.perf_counter()
    # the first pass is checked and warms the process up; it is not timed
    _, first, reference = _run_pass(client, requests)
    untraced_s, traced_s, repeats = [], [], []
    while True:
        latencies, _, _ = _run_pass(client, requests, reference)
        untraced_s.append(sum(latencies))

        tracer = Tracer()
        bytes_before = client.output_bytes
        tracer.install()
        try:
            latencies, _, _ = _run_pass(client, requests, reference, tracer)
        finally:
            tracer.uninstall()
        traced_s.append(sum(latencies))
        repeats.append(_layer_metrics(tracer, client.output_bytes - bytes_before))
        if len(repeats) == 1:
            TRACE_DIR.mkdir(exist_ok=True)
            tracer.write_spans(TRACE_DIR / f"{workload}-seed{seed}.jsonl")

        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= seconds and len(repeats) >= MIN_TRACE_REPEATS):
            break

    metrics = {name: float(statistics.median(r[name] for r in repeats)) for name in repeats[0]}
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    )
    record = {
        "requests_per_pass": len(requests),
        "repeats": len(repeats),
        "untraced_pass_s": statistics.median(untraced_s),
        "traced_pass_s": statistics.median(traced_s),
        "error_rate": client.failed / client.attempted,
        "digest_pass0": _digest(first),
        "top_self_ms": sorted(
            ((k, v) for k, v in metrics.items() if k.endswith(".self_ms") and k.count(".") > 1),
            key=lambda kv: -kv[1],
        )[:5],
        "spans": len(tracer.spans),
    }
    return client, metrics, record


def _layer_metrics(tracer: Tracer, output_bytes: int) -> dict:
    metrics = {"cli.output_bytes": output_bytes}
    for layer in MODULES:
        metrics[f"{layer}.self_ms"] = 1e3 * sum(
            s for name, s in tracer.self_s.items() if name.split(".")[0] == layer
        )
        metrics[f"{layer}.errors"] = tracer.errors.get(layer, 0)
    for name in PER_LAYER_SPANS:
        metrics[f"{name}.self_ms"] = 1e3 * tracer.self_s.get(name, 0.0)
    for name in PER_LAYER_CALLS:
        metrics[f"{name}.calls"] = tracer.calls.get(name, 0)
    for name in PER_LAYER_COUNTS:
        metrics[name] = tracer.counts.get(name, 0)
    return metrics


def blas_threads():
    """Threads of numpy's bundled OpenBLAS, read from the library itself."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "blas_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    run = traced if args.trace else end_to_end
    client, metrics, record = run(args.workload, args.seed, args.seconds)
    record["environment"] = environment()
    record["failures"] = client.failures
    result = {
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": metrics,
        "record": record,
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
