"""The benchmark's requests still run, pass its checks and print the same
bytes: pass 0 of seed 1 of each workload in ``perfbench/`` is sent through
its worker's ``execute`` and checked by its ``checks.check``, and the
digest of the per-request SHA-256s is pinned.  A change to any printed
or returned number shows up here before a benchmark run.

The benchmark is imported, never changed: its modules are loaded without
writing bytecode, so nothing is written under ``perfbench/``.
"""

import hashlib
import importlib
import sys
from pathlib import Path

import pytest

import qchain.cli
from test_cli import set_chunking

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# worker._digest of the per-request SHA-256s of pass 0, seed 1
PASS0_DIGESTS = {
    "oracle_ed": "07e2eae26f6615dc966712bdf94ebdd7bfe1ba13c19de8972f5d81b1d3437f4c",
    "ladder_spectra": "c816db0fc4696a9787a399744c79ed938a0c639b09b8f4509c0df9293c657d32",
    "deform_crossover": "e462b7b42c2ec5932bb39f6caa6f3207a9a7e328ac9bbb19e32811d5136e910d",
}


@pytest.fixture(scope="module")
def perfbench():
    """The worker, checks and workloads modules of the benchmark, imported
    as its runner imports them (``perfbench/`` on the path)."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        yield tuple(importlib.import_module(m) for m in ("worker", "checks", "workloads"))
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag


@pytest.mark.parametrize("workload", sorted(PASS0_DIGESTS))
def test_pass0_runs_passes_checks_and_keeps_its_digest(perfbench, capsys, monkeypatch, workload):
    """The same digest with the CLI's output in chunks of
    ``OUTPUT_CHUNK_CELLS`` cells and in chunks of 2 (``set_chunking``)."""
    worker, checks, workloads = perfbench
    for cells in (qchain.cli.OUTPUT_CHUNK_CELLS, 2):
        set_chunking(monkeypatch, cells)
        digests = []
        for request in workloads.make_pass(workload, 1, 0):
            code, text, value = worker.execute(request)
            assert code == 0, request
            assert checks.check(request, text, value) == [], request
            digests.append(hashlib.sha256(text.encode()).hexdigest())
        capsys.readouterr()
        assert worker._digest(digests) == PASS0_DIGESTS[workload], cells
