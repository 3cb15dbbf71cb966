"""Seeded request generators for the three benchmark workloads.

A run is a sequence of passes.  A pass holds a fixed list of request sizes
of its workload, in shuffled order, with the physical parameters drawn
afresh from a generator keyed on (workload, seed, pass index).  The sizes
fix the cost mix of every pass, so figures from different seeds compare;
the fresh draws vary what the eigensolvers and root finders react to
(spacing, coupling, detuning, output format).  Pass ``k`` of a seed is the
same whatever ran before it, so a traced run and an untraced run of one
seed see the same first pass.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Request:
    """One request of the closed loop.

    ``route`` is "cli" for ``qchain.cli.main(argv)``, or the name of a
    library route the CLI does not reach ("projection", "amplitudes").
    ``argv`` is the command line for "cli" requests.  ``params`` holds the
    generated inputs as numbers, for the correctness checks.
    """

    route: str
    argv: tuple
    params: dict


def number(text: str) -> float:
    """The double a flag value denotes, parsed the way a user reads it."""
    return float(Fraction(text)) if "/" in text else float(text)


def _spacing(rng: random.Random) -> str:
    """A spacing l in (0, 2] as typed on a command line, p/q rationals included."""
    if rng.random() < 0.3:
        q = rng.randint(2, 12)
        return f"{rng.randint(1, 2 * q)}/{q}"
    return repr(rng.uniform(0.01, 2.0))


def _chain_flags(rng: random.Random, n: int, u: float) -> list[str]:
    detuning = 0.0 if rng.random() < 0.2 else rng.uniform(-0.5, 0.5)
    wq = rng.choice((1.0, rng.uniform(0.5, 1.5)))
    return [
        "--n", str(n),
        "--l", _spacing(rng),
        "--u", repr(u),
        "--wq", repr(wq),
        "--w0", repr(wq + detuning),
        "--eta", repr(rng.uniform(0.02, 1.0)),
    ]


def _cli(rng: random.Random, argv: list[str]) -> Request:
    argv = argv + ["--format", rng.choice(("csv", "json"))]
    return Request("cli", tuple(argv), _flag_values(argv))


def _flag_values(argv) -> dict:
    params = {"command": argv[0]}
    for flag, value in zip(argv[1::2], argv[2::2]):
        key = flag[2:].replace("-", "_")
        params[key] = value if key == "format" else number(value)
    return params


# Each pass is built so that its median request and its 90th-percentile
# request fall inside a block of same-size requests: the p50 and tail
# figures then follow one size class, not whichever of two very different
# classes a seed's draws put at that rank.

# ---------------------------------------------------------------------------
# oracle_ed: exact diagonalization of excitation sectors
# ---------------------------------------------------------------------------

# (N, n_max) with n_max = u + N/2, the photon number of the all-ground
# configuration; the sector dimension is sum_{k <= n_max} C(N, k).  Every
# valid sector of N = 4..7 up to dimension 99, with six dimension-16
# sectors as the median block and dims 57, 63, 64 as the tail block.
# N = 7, n_max = 5 (dim 120) and N = 8 (dim 219, ~11 s a request) are left
# out to keep 22 runs per check short.
ORACLE_SECTORS = (
    (4, 1), (4, 2), (4, 3), (4, 4), (4, 4), (4, 5), (4, 6),
    (5, 1), (5, 2), (5, 2), (5, 3), (5, 4),
    (6, 1), (6, 2), (6, 3), (6, 4), (6, 5),
    (7, 1), (7, 2), (7, 3), (7, 4),
)
PROJECTION_QUBITS = (6, 8, 10)


def oracle_ed_pass(rng: random.Random) -> list[Request]:
    requests = []
    for n, n_max in ORACLE_SECTORS:
        u = n_max - n / 2.0
        requests.append(_cli(rng, ["oracle-compare"] + _chain_flags(rng, n, u)))
    for n in PROJECTION_QUBITS:
        requests.append(Request("projection", (), {"n": n, "l": number(_spacing(rng))}))
    return requests


# ---------------------------------------------------------------------------
# ladder_spectra: tridiagonal ladder solves and coefficient routes
# ---------------------------------------------------------------------------

# dimension 21 is the median block, dimension 61 the tail block
SPECTRUM_DIMS = (5, 9, 13, 17, 21, 21, 21, 21, 31, 41, 61, 61, 61, 101)
AMPLITUDE_DIMS = (9, 13, 15, 17)
TABLE1_REQUESTS = 2
MAX_LADDER_QUBITS = 100


def _spectrum(rng: random.Random, dim: int) -> Request:
    n = rng.randint(max(dim - 1, 1), MAX_LADDER_QUBITS)
    # dim = min(u + r, 2r) + 1; a lower irrep r < N/2 is asked for explicitly
    r = n / 2.0
    if rng.random() < 0.3:
        r = rng.randint(math.ceil((dim - 1) / 2), n // 2) + (n % 2) / 2.0
    u = dim - 1 - r
    argv = ["spectrum"] + _chain_flags(rng, n, u)
    if r != n / 2.0:
        argv += ["--r", repr(r)]
    return _cli(rng, argv)


def _table1(rng: random.Random) -> Request:
    detuning = 0.0 if rng.random() < 0.2 else rng.uniform(-0.5, 0.5)
    return _cli(
        rng,
        ["table1", "--l", _spacing(rng), "--w0", repr(1.0 + detuning),
         "--eta", repr(rng.uniform(0.02, 1.0))],
    )


def _amplitudes(rng: random.Random, dim: int) -> Request:
    # u <= r keeps photon number 0 in the subspace, which both coefficient
    # routes require; then the photon numbers run 0..dim-1
    n = rng.randint(dim - 1, 2 * (dim - 1))
    return Request(
        "amplitudes",
        (),
        {
            "n": n,
            "l": number(_spacing(rng)),
            "u": dim - 1 - n / 2.0,
            "r": n / 2.0,
            "detuning": rng.uniform(-0.5, 0.5),
            "eta": rng.uniform(0.05, 1.0),
        },
    )


def ladder_spectra_pass(rng: random.Random) -> list[Request]:
    requests = [_spectrum(rng, dim) for dim in SPECTRUM_DIMS]
    requests += [_table1(rng) for _ in range(TABLE1_REQUESTS)]
    requests += [_amplitudes(rng, dim) for dim in AMPLITUDE_DIMS]
    return requests


# ---------------------------------------------------------------------------
# deform_crossover: deformation scans, level parabola and the crossover
# ---------------------------------------------------------------------------

# ((N range), (steps range)) per sweep; N ~ 300 is the median block and
# N = 3000 the tail block
SWEEPS = (
    ((27, 33), (500, 1000)), ((27, 33), (500, 1000)),
    ((290, 310), (1400, 1600)), ((290, 310), (1400, 1600)),
    ((290, 310), (1400, 1600)), ((290, 310), (1400, 1600)),
    ((900, 1100), (2000, 3000)),
    ((3000, 3000), (4500, 5000)), ((3000, 3000), (4500, 5000)),
)
HCURVE_STEPS = ((1000, 2000), (1000, 2000), (8000, 10000))
# the N = 1000 crossover is checked against l = 7.16e-4; N = 4000 is the
# largest chain in every pass, so the peak memory of a pass is the same
# whatever the seed.  N = 10^4 (1.5 GB) is left out on a shared machine.
CROSSOVERS = ((1000, 1000), (1500, 1800), (1800, 2200), (4000, 4000))
RANDOM_DEFORMS = 3


def deform_crossover_pass(rng: random.Random) -> list[Request]:
    requests = [_cli(rng, ["deform", "--n", "4", "--l", "2/3"])]
    for _ in range(RANDOM_DEFORMS):
        n = int(round(math.exp(rng.uniform(math.log(2), math.log(3000)))))
        requests.append(_cli(rng, ["deform", "--n", str(n), "--l", _spacing(rng)]))
    for (n_lo, n_hi), (s_lo, s_hi) in SWEEPS:
        requests.append(
            _cli(
                rng,
                ["deform-sweep", "--n", str(rng.randint(n_lo, n_hi)),
                 "--l-start", repr(rng.uniform(0.005, 0.1)),
                 "--l-end", repr(rng.uniform(0.5, 2.0)),
                 "--steps", str(rng.randint(s_lo, s_hi))],
            )
        )
    for s_lo, s_hi in HCURVE_STEPS:
        requests.append(
            _cli(
                rng,
                ["hcurve", "--R", repr(rng.uniform(0.05, 1.0)),
                 "--m-min", repr(rng.uniform(-10.0, -1.0)),
                 "--m-max", repr(rng.uniform(1.0, 10.0)),
                 "--steps", str(rng.randint(s_lo, s_hi))],
            )
        )
    for n_lo, n_hi in CROSSOVERS:
        requests.append(_cli(rng, ["crossover", "--n", str(rng.randint(n_lo, n_hi))]))
    return requests


WORKLOADS = {
    "oracle_ed": oracle_ed_pass,
    "ladder_spectra": ladder_spectra_pass,
    "deform_crossover": deform_crossover_pass,
}


def make_pass(workload: str, seed: int, index: int) -> list[Request]:
    """Pass ``index`` of ``workload`` for ``seed``: the same list every time."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    requests = WORKLOADS[workload](rng)
    rng.shuffle(requests)
    return requests
