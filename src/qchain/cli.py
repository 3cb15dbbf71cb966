"""Command-line front end: parameter sweeps and solves as CSV or JSON.

Output is byte-deterministic for identical invocations: floats use the
shortest round-trip representation, rows keep a fixed order, and CSV
always starts with a header line.  JSON output is exactly the bytes of
``json.dumps(obj, indent=2)`` plus a newline, and each CSV float is its
``float.__repr__``; both are rendered by C code a whole column or a flat
number list at a time, not by one Python call per value.  Commands
compute only what they print: ``oracle-compare`` and ``table1`` take the
model ladder's eigenvalues alone, without eigenvectors.  Exit codes:
0 success, 2 usage error (a non-finite number flag among them), 3 empty
sector, 4 capacity exceeded, 5 eigensolver did not converge.  Exit 4
comes before any large allocation: a ladder over 1001 states, an oracle
over 12 qubits or dense dim 4096, or a crossover scan over
``crossover.MAX_SCAN_POINTS`` points.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np

from .algebra import deformation_factor, deformation_profile, h_curve
from .config import ChainConfig, halves, twice
from .crossover import crossover_point
from .errors import (
    CapacityError,
    ConvergenceError,
    EmptySectorError,
    InvalidParameterError,
    NegativeRadicandError,
    PoleError,
)
from .linalg import tridiagonal_eigvalsh
from .oracle import sector_spectrum
from .spectra import (
    build_h1_matrix,
    coefficients_closed,
    coefficients_recursive,
    four_qubit_reference_coefficients,
    resonant_energies,
    solve_dressed,
    subspace,
    weak_coupling_energies,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_EMPTY_SECTOR = 3
EXIT_CAPACITY = 4
EXIT_NO_CONVERGENCE = 5


def rational(text: str) -> float:
    """Parse a flag value that may be an exact rational like ``2/3``;
    reduced exactly before rounding to the nearest double."""
    try:
        if "/" in text:
            return float(Fraction(text))
        return float(text)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"not a number or p/q rational: {text!r}") from exc


def fmt(x) -> str:
    """Shortest round-trip rendering; empty cell for None."""
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


# renderers by exact type; any other type (numpy scalars, bool) goes to fmt
_RENDER = {
    float: float.__repr__,
    int: int.__repr__,
    str: str,
    type(None): lambda _: "",
}


def _cell(x) -> str:
    return _RENDER.get(type(x), fmt)(x)


def _column(values):
    """The cells of one nonempty column whose values share one type,
    rendered by mapping that type's renderer over the whole column."""
    return map(_RENDER.get(type(values[0]), fmt), values)


def csv_lines(header: list[str], rows=(), columns=()) -> str:
    """CSV text: the header line, then each of the mixed ``rows`` cell by
    cell, then one line per entry of the single-typed ``columns``."""
    lines = [",".join(header)]
    lines.extend(",".join(map(_cell, row)) for row in rows)
    lines.extend(map(",".join, zip(*map(_column, columns))))
    return "\n".join(lines) + "\n"


def json_text(obj) -> str:
    """The bytes of ``json.dumps(obj, indent=2)`` plus a newline, for trees
    of dicts with string keys, lists, tuples and JSON scalars.

    With an indent, ``json.dumps`` runs its pure-Python encoder, one call
    per value; here each flat list of floats and ints goes through the C
    encoder in one call instead.
    """
    return _json(obj, "") + "\n"


def _json(obj, indent: str) -> str:
    if not isinstance(obj, (list, tuple, dict)) or not obj:
        return json.dumps(obj)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict):
        body = sep.join(
            [f"{json.dumps(key)}: {_json(value, inner)}" for key, value in obj.items()]
        )
        return "{\n" + inner + body + "\n" + indent + "}"
    if set(map(type, obj)) <= {float, int}:
        # a JSON number never contains ", ", the C encoder's item separator
        body = json.dumps(obj)[1:-1].replace(", ", sep)
    else:
        body = sep.join([_json(item, inner) for item in obj])
    return "[\n" + inner + body + "\n" + indent + "]"


def _deformation_of(n: int, l: float) -> float:
    # l = 0 is the homogeneous reference case, excluded from the scalar
    # op's domain but an exact limit: R -> 1
    return 1.0 if l == 0.0 else deformation_factor(n, l).value


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_deform(args) -> str:
    value = deformation_factor(args.n, args.l).value
    if args.format == "json":
        return json_text({"n": args.n, "l": args.l, "R": value})
    return csv_lines(["N", "l", "R"], [[args.n, args.l, value]])


def cmd_deform_sweep(args) -> str:
    if args.steps < 2:
        raise InvalidParameterError(f"steps must be >= 2, got {args.steps}")
    if not 0.0 < args.l_start < args.l_end:
        raise InvalidParameterError(
            f"need 0 < l-start < l-end, got {args.l_start!r}, {args.l_end!r}"
        )
    grid = np.linspace(args.l_start, args.l_end, args.steps)
    spacings = grid.tolist()
    values = deformation_profile(args.n, grid).tolist()
    if args.format == "json":
        return json_text({"n": args.n, "l": spacings, "R": values})
    return csv_lines(["l", "R"], columns=[spacings, values])


def cmd_hcurve(args) -> str:
    ms, hs = h_curve(args.R, args.m_min, args.m_max, args.steps)
    if args.format == "json":
        return json_text({"R": args.R, "m": ms, "h": hs})
    return csv_lines(["m", "h"], columns=[ms, hs])


def _spin_of(args) -> float:
    if args.r is None:
        return args.n / 2.0
    r2 = twice(args.r)
    if not 0 <= r2 <= args.n or (args.n - r2) % 2:
        raise InvalidParameterError(
            f"total spin {args.r!r} is not an irrep of a {args.n}-qubit chain"
        )
    return halves(r2)


def cmd_spectrum(args) -> str:
    r = _spin_of(args)
    R = _deformation_of(args.n, args.l)
    detuning = args.w0 - args.wq
    sub = subspace(args.u, r)
    states = solve_dressed(sub, R, detuning, args.eta, qubit_freq=args.wq)
    has_c0 = sub.photon_numbers[0] == 0

    state_rows = []
    for k, state in enumerate(states):
        ratio = None
        c0 = state.coefficients[0]
        # eta = 0 eigenstates, among others, have no vacuum component
        if has_c0 and c0 != 0.0:
            scaled = state.coefficients / c0
            scaled[0] = 1.0
            ratio = scaled.tolist()
        state_rows.append(
            {
                "index": k,
                "v": state.interaction_eigenvalue,
                "E": state.total_energy,
                "c0_is_one": ratio,
                "unit_norm": state.coefficients.tolist(),
            }
        )

    weak = None
    res_canonical = None
    res_alternate = None
    if r == 2.0 and args.u == 1.0:
        if detuning != 0.0:
            try:
                weak = weak_coupling_energies(R, detuning, args.eta, args.wq).tolist()
            except NegativeRadicandError:
                weak = None
        else:
            levels = resonant_energies(R, args.eta)
            res_canonical = levels.canonical.tolist()
            res_alternate = levels.alternate.tolist()

    if args.format == "json":
        return json_text(
            {
                "n": args.n,
                "l": args.l,
                "u": args.u,
                "r": r,
                "R": R,
                "omega_q": args.wq,
                "omega_0": args.w0,
                "eta": args.eta,
                "detuning": detuning,
                "photon_numbers": list(sub.photon_numbers),
                "states": state_rows,
                "weak_coupling": weak,
                "resonant_canonical": res_canonical,
                "resonant_alternate": res_alternate,
            }
        )

    ns = sub.photon_numbers
    header = ["kind", "index", "v", "E", "R"]
    if has_c0:
        header += [f"c{n}" for n in ns]
    header += [f"a{n}" for n in ns]
    blank_coeffs = [None] * (len(ns) * (2 if has_c0 else 1))
    rows = []
    for row in state_rows:
        cells = ["state", row["index"], row["v"], row["E"], R]
        if has_c0:
            cells += row["c0_is_one"] if row["c0_is_one"] is not None else [None] * len(ns)
        cells += row["unit_norm"]
        rows.append(cells)
    if weak is not None:
        for k, energy in enumerate(weak):
            rows.append(["weak_coupling", k, energy - args.wq * args.u, energy, R] + blank_coeffs)
    if res_canonical is not None:
        for k, v in enumerate(res_canonical):
            rows.append(["resonant_canonical", k, v, args.wq * args.u + v, R] + blank_coeffs)
        for k, v in enumerate(res_alternate):
            rows.append(["resonant_alternate", k, v, args.wq * args.u + v, R] + blank_coeffs)
    return csv_lines(header, rows)


def cmd_oracle_compare(args) -> str:
    r = args.n / 2.0
    R = _deformation_of(args.n, args.l)
    config = ChainConfig(
        n_qubits=args.n,
        spacing=args.l,
        qubit_freq=args.wq,
        photon_freq=args.w0,
        coupling=args.eta,
    )
    # the oracle's qubit cap refuses N > 12 before any parity or ladder check
    oracle = sector_spectrum(config, args.u)
    sub = subspace(args.u, r)
    # only the model's energies are printed: eigenvalues alone, no vectors
    values = tridiagonal_eigvalsh(*build_h1_matrix(sub, R, args.w0 - args.wq, args.eta))
    levels = []
    for k, energy in enumerate((args.wq * sub.total_excitation + values).tolist()):
        nearest = float(oracle[np.abs(oracle - energy).argmin()])
        levels.append(
            {
                "index": k,
                "model": energy,
                "oracle": nearest,
                "deviation": abs(energy - nearest),
            }
        )
    max_dev = max(level["deviation"] for level in levels)
    if args.format == "json":
        return json_text(
            {
                "n": args.n,
                "l": args.l,
                "u": args.u,
                "r": r,
                "R": R,
                "sector_dim": int(oracle.size),
                "levels": levels,
                "max_deviation": max_dev,
            }
        )
    rows = [
        ["level", lv["index"], lv["model"], lv["oracle"], lv["deviation"]] for lv in levels
    ]
    rows.append(["summary", None, None, None, max_dev])
    return csv_lines(["kind", "index", "E_model", "E_oracle", "deviation"], rows)


def cmd_table1(args) -> str:
    n = 4
    R = _deformation_of(n, args.l)
    detuning = args.w0 - args.wq
    sub = subspace(1, 2)
    values = tridiagonal_eigvalsh(*build_h1_matrix(sub, R, detuning, args.eta)).tolist()
    undeformed = tridiagonal_eigvalsh(*build_h1_matrix(sub, 1.0, detuning, args.eta)).tolist()

    entries = []
    for k, v in enumerate(values):
        rec = coefficients_recursive(v, sub, R, detuning, args.eta)
        try:
            closed = coefficients_closed(v, sub, R, detuning, args.eta).tolist()
        except PoleError:
            closed = None
        formulas = four_qubit_reference_coefficients(v, R, detuning, args.eta)
        ref = coefficients_recursive(undeformed[k], sub, 1.0, detuning, args.eta)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = (np.abs(rec[1:]) / np.abs(ref[1:])).tolist()
        entries.append(
            {
                "index": k,
                "v": v,
                "recursive": rec.tolist(),
                "closed": closed,
                "formulas": formulas,
                "undeformed_ratios": ratios,
            }
        )

    if args.format == "json":
        return json_text(
            {
                "n": n,
                "l": args.l,
                "u": 1,
                "r": 2,
                "R": R,
                "omega_q": args.wq,
                "omega_0": args.w0,
                "eta": args.eta,
                "states": entries,
            }
        )

    header = (
        ["kind", "index", "v", "R"]
        + [f"rec_c{j}" for j in range(4)]
        + [f"closed_c{j}" for j in range(4)]
        + ["formula_c1", "formula_c2", "formula_c3", "formula_c3_variant"]
        + ["ratio_c1", "ratio_c2", "ratio_c3"]
    )
    rows = []
    for e in entries:
        cells = ["state", e["index"], e["v"], R]
        cells += e["recursive"]
        cells += e["closed"] if e["closed"] is not None else [None] * 4
        f = e["formulas"]
        cells += [f["c1"], f["c2"], f["c3"], f["c3_variant"]]
        cells += e["undeformed_ratios"]
        rows.append(cells)
    return csv_lines(header, rows)


def cmd_crossover(args) -> str:
    report = crossover_point(args.n)
    points = report.stationary_points.tolist()
    if args.format == "json":
        return json_text(
            {
                "n": report.n_qubits,
                "crossover_l": report.crossover_spacing,
                "R_at_crossover": report.deformation_at_crossover,
                "spins_per_wavelength": report.spins_per_wavelength,
                "stationary_points": points,
            }
        )
    rows = [
        ["crossover_l", None, report.crossover_spacing],
        ["R_at_crossover", None, report.deformation_at_crossover],
        ["spins_per_wavelength", None, report.spins_per_wavelength],
    ]
    columns = [["stationary_point"] * len(points), range(len(points)), points]
    return csv_lines(["key", "index", "value"], rows, columns)


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def _add_output_flags(p):
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_chain_flags(p):
    p.add_argument("--n", type=int, required=True, help="number of qubits")
    p.add_argument("--l", type=rational, required=True, help="relative spacing (accepts p/q)")
    p.add_argument("--u", type=rational, required=True, help="total excitation number")
    p.add_argument("--wq", type=float, default=1.0, help="qubit frequency")
    p.add_argument("--w0", type=float, default=1.0, help="photon frequency")
    p.add_argument("--eta", type=float, default=0.1, help="coupling amplitude")


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser of the full command line; ``main`` builds one per process."""
    parser = argparse.ArgumentParser(
        prog="qchain",
        description="Deformed collective-spin spectra of an inhomogeneously coupled qubit chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("deform", help="deformation factor at one (N, l)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=rational, required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("deform-sweep", help="R over a uniform grid of spacings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l-start", dest="l_start", type=rational, required=True)
    p.add_argument("--l-end", dest="l_end", type=rational, required=True)
    p.add_argument("--steps", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_deform_sweep)

    p = sub.add_parser("hcurve", help="samples of the level parabola h(m) = R*(m^2+m)")
    p.add_argument("--R", type=rational, required=True)
    p.add_argument("--m-min", dest="m_min", type=rational, required=True)
    p.add_argument("--m-max", dest="m_max", type=rational, required=True)
    p.add_argument("--steps", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_hcurve)

    p = sub.add_parser("spectrum", help="dressed states of one (u, r) subspace")
    _add_chain_flags(p)
    p.add_argument("--r", type=rational, default=None, help="total spin (default N/2)")
    _add_output_flags(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser(
        "oracle-compare", help="collective model vs exact sector diagonalization"
    )
    _add_chain_flags(p)
    _add_output_flags(p)
    p.set_defaults(func=cmd_oracle_compare)

    p = sub.add_parser(
        "table1", help="4-qubit one-excitation amplitudes by every route"
    )
    p.add_argument("--l", type=rational, default=float(Fraction(2, 3)))
    p.add_argument("--wq", type=float, default=1.0)
    p.add_argument("--w0", type=float, default=1.0)
    p.add_argument("--eta", type=float, default=0.1)
    _add_output_flags(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("crossover", help="deformation minimum and stationary points")
    p.add_argument("--n", type=int, required=True)
    _add_output_flags(p)
    p.set_defaults(func=cmd_crossover)

    for p in sub.choices.values():
        # argparse alone takes only plain negative decimals such as -0.5 for values;
        # take every negative number ``rational`` accepts (-1/2, -1e-1, -inf) too
        p._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # parse_args never changes the parser: every call starts from a fresh
    # namespace, so one parser serves all the calls of a process
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    for dest, value in vars(args).items():
        # refused here, with the flag's name, before numpy warns about it
        if isinstance(value, float) and not math.isfinite(value):
            flag = "--" + dest.replace("_", "-")
            print(f"error: argument {flag}: not a finite number: {value!r}", file=sys.stderr)
            return EXIT_USAGE
    try:
        text = args.func(args)
    except EmptySectorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EMPTY_SECTOR
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (InvalidParameterError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
