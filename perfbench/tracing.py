"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces every public function of the traced modules, at
each module-level name through which callers reach it, with a wrapper that
records a span; ``uninstall`` puts the originals back.  A span is named
after the module that defines the function, except the eigensolver, which
callers reach as ``qchain.oracle.jacobi_eigh`` (dense sector Hamiltonians)
and ``qchain.spectra.jacobi_eigh`` (tridiagonal ladder matrices): each
binding gets its own span name, so the two input shapes are timed apart.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

MODULES = ("cli", "algebra", "crossover", "oracle", "spectra")
BINDING_NAMES = {
    ("oracle", "jacobi_eigh"): "oracle.eigensolve.dense",
    ("spectra", "jacobi_eigh"): "spectra.eigensolve.tridiag",
}


def _dim3(args, result):
    return int(np.shape(args["matrix"])[0]) ** 3


# span name -> (counter name, work done by one call)
COUNTERS = {
    "algebra.deformation_profile": (
        "algebra.deformation_profile.cells",
        lambda args, result: int(np.size(args["spacings"])) * int(args["n_qubits"]),
    ),
    "crossover.stationarity_residual": (
        "crossover.residual_evals",
        lambda args, result: int(np.size(args["spacing"])),
    ),
    "oracle.eigensolve.dense": ("oracle.eigensolve.dense.dim3", _dim3),
    "spectra.eigensolve.tridiag": ("spectra.eigensolve.tridiag.dim3", _dim3),
    "oracle.sector_hamiltonian": ("oracle.sector_dim", lambda args, result: result.dim),
}


class Tracer:
    """Spans of one traced pass, kept in memory.

    Each span is ``(name, start, end, parent, request)``: ``parent`` is the
    index of the enclosing span or -1, ``request`` the id of the request
    that caused it.  Self times and counters are accumulated as spans close.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.request = -1
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        layer = name.split(".")[0]
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [index, 0.0]
            tracer.spans.append(None)
            tracer._stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.errors[layer] += 1
                raise
            finally:
                end = clock()
                tracer._stack.pop()
                duration = end - start
                tracer.spans[index] = (name, start, end, parent, tracer.request)
                tracer.self_s[name] += duration - frame[1]
                tracer.calls[name] += 1
                if tracer._stack:
                    tracer._stack[-1][1] += duration
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                tracer.counts[counter[0]] += counter[1](bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self):
        modules = {m: importlib.import_module(f"qchain.{m}") for m in MODULES}
        defining = {mod.__name__: m for m, mod in modules.items()}
        for m, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = defining.get(obj.__module__)
                if home is None:
                    continue
                name = BINDING_NAMES.get((m, attr), f"{home}.{attr}")
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, self._wrap(name, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps([name, start, end, parent, request]) + "\n")
