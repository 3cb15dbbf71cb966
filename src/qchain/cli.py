"""Command-line front end: parameter sweeps and solves as CSV or JSON.

Output is byte-deterministic for identical invocations: floats use the
shortest round-trip representation, rows keep a fixed order, and CSV
always starts with a header line.  JSON output is exactly the bytes of
``json.dumps(obj, indent=2)`` plus a newline, and each CSV float is its
``float.__repr__``.  Every float array a command prints goes through one
chunker, ``_float_chunks``, under one rule: a chunk is a float matrix of
whole rows, at most ``OUTPUT_CHUNK_CELLS`` cells and at least one row.
The arrays are a CSV table's float columns, a JSON number list from an
array, ``crossover``'s stationary points, and ``spectrum``'s states, whose
v and E (in CSV, and R), c0 = 1 and unit-norm rows are one matrix; one
split cuts its text into the runs of cells that its lines or JSON items
are assembled from.  Each chunk is rendered by ``_floattext``, in one
vectorized pass of exact integer arithmetic, whatever its size.  It holds
finite values only, since a command computes under ``np.errstate`` with
overflow and invalid operations raising; a chunk holding a nan or an inf
is refused with a ValueError.  A flat list of Python numbers, such as
``table1``'s rows in JSON, goes through the C JSON encoder in one call,
and JSON scalars and keys are rendered by their exact type, without
building an encoder per value.

Each command first computes everything it prints: every number, every
refusal and every overflow (a ``FloatingPointError`` under ``main``'s
``np.errstate``, or the ``OverflowError`` of an ``--n`` too large for a
float) comes before the first byte, so a refused command prints
nothing and never leaves ``--out`` half-written.  It then returns an
iterator of text chunks, and ``main`` writes each chunk to stdout or to
``--out`` as it is rendered.  So the text held at once stays bounded by
the chunk rule, whatever the output's size.

Commands compute only what they print, with one eigensolve per ladder:
``oracle-compare`` and ``table1`` take eigenvalues alone, and the
resonant rows of ``spectrum`` are the eigenvalues of its states.
Exit codes: 0 success, 2 usage error (a non-finite number flag, a
half-integer flag such as ``--u`` beyond 2^52, where doubles can no
longer tell half-integers apart, an overflow, an unwritable ``--out``
or a closed stdout), 3 empty sector, 4 capacity exceeded, 5 eigensolver
did not converge; ``EXIT_CODES`` maps each refusal to its code.  Exit 4 comes
before any large allocation: a ladder over 1001 states, an oracle over
12 qubits, a sweep over 10^6 steps, or a crossover scan over
``crossover.MAX_SCAN_POINTS`` points.  Every CSV cell is a float, int,
str or None, each rendered by its own type.  A command line that starts
with a command name is parsed once, by that command's own sub-parser, so
an unrecognized flag is refused with exit 2 under the command's own
usage line; any other command line goes to the full parser, which prints
help or refuses it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import re
import sys
from collections.abc import Iterator
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from .algebra import deformation_profile, h_curve
from .config import ChainConfig, halves, twice, validate_steps
from .crossover import crossover_point
from .errors import (
    CapacityError,
    ConvergenceError,
    EmptySectorError,
    InvalidParameterError,
    NegativeRadicandError,
    PoleError,
)
from .linalg import tridiagonal_eigh, tridiagonal_eigvalsh
from .oracle import sector_spectrum
from .spectra import (
    ExcitationSubspace,
    build_h1_matrix,
    coefficients_closed,
    coefficients_recursive,
    four_qubit_reference_coefficients,
    resonant_alternate_energies,
    weak_coupling_energies,
)

EXIT_USAGE = 2
# the exit code of each refusal but a ValueError, by exact type
EXIT_CODES = {EmptySectorError: 3, CapacityError: 4, ConvergenceError: 5}


def rational(text: str) -> float:
    """Parse a flag value that may be an exact rational like ``2/3``;
    reduced exactly before rounding to the nearest double."""
    try:
        if "/" in text:
            return float(Fraction(text))
        return float(text)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise argparse.ArgumentTypeError(f"not a number or p/q rational: {text!r}") from exc


# the most float cells rendered into one chunk of output, which holds whole
# rows, and at least one: the text held at once stays bounded whatever the size
OUTPUT_CHUNK_CELLS = 65_536

# renderers by exact type: every CSV cell a command forms is one of these
_RENDER = {
    float: float.__repr__,
    int: int.__repr__,
    str: str,
    type(None): lambda _: "",
}


def _cell(x) -> str:
    return _RENDER[type(x)](x)


def _float_chunks(blocks, seps) -> Iterator[tuple[int, str]]:
    """The finite float64 arrays ``blocks`` side by side (a 1-D array is one
    column), in chunks of whole rows of at most ``OUTPUT_CHUNK_CELLS`` cells
    and at least one row: each chunk's first row and the text of each
    value's ``float.__repr__`` followed by its column's separator, read row
    by row, from ``_floattext.repr_join``."""
    # imported on the first float array chunk: a command that prints none
    # never compiles it
    from . import _floattext

    step = max(OUTPUT_CHUNK_CELLS // len(seps), 1)
    for start in range(0, len(blocks[0]), step):
        rows = np.column_stack([block[start : start + step] for block in blocks])
        yield start, _floattext.repr_join(rows, seps)


# the marks that end a run of values in one chunk's text, which a
# str.split then cuts apart; never a character of a float's text or of a
# separator between values
_MARK = "|"


def _labelled_lines(label: str, start: int, *cells) -> str:
    """CSV lines, each the label, its index counted from ``start``, then one
    cell text from each of the lists ``cells``, rendered whole."""
    line = [label + ",", None] + [part for _ in cells for part in (",", None)] + ["\n"]
    rows = len(cells[0])
    text = line * rows
    text[1 :: len(line)] = map(int.__repr__, range(start, start + rows))
    for j, column in enumerate(cells):
        text[3 + 2 * j :: len(line)] = column
    return "".join(text)


def csv_chunks(header: list[str], rows=(), columns=()) -> Iterator[str]:
    """CSV text in chunks: the header line, then each of the mixed ``rows``
    cell by cell, one chunk a row, then the float64 array ``columns`` (1-D,
    of one length), whole lines of at most ``OUTPUT_CHUNK_CELLS`` cells a
    chunk.  A str cell goes out as it is, so it may hold a run of cells
    rendered whole, and a str in place of a row is text of whole lines,
    written as it is."""
    yield ",".join(header) + "\n"
    for row in rows:
        yield row if type(row) is str else ",".join(map(_cell, row)) + "\n"
    if columns:
        seps = [","] * (len(columns) - 1) + ["\n"]
        yield from (text for _, text in _float_chunks(columns, seps))


def json_chunks(obj) -> Iterator[str]:
    """The text of ``json.dumps(obj, indent=2)`` plus a newline, in chunks,
    for trees of dicts with string keys, lists, tuples and JSON scalars.

    With an indent, ``json.dumps`` runs its pure-Python encoder, one call
    per value; here each flat list of floats and ints goes through the C
    encoder in one call instead.  A dict or list is written a member at a
    time.  A member may also be a finite 1-D float64 array, written as the
    list of its values, ``OUTPUT_CHUNK_CELLS`` values a chunk (an array
    holding a nan or an inf raises ValueError), or an iterator of str,
    written as the list of the items it yields, each JSON text already
    rendered at the list's indent.
    """
    yield from _json_chunks(obj, "")
    yield "\n"


def _json_float(x: float) -> str:
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


# JSON scalars by exact type, as the encoder renders them; any other
# scalar (bool, a float subclass) goes through json.dumps
_JSON_SCALAR = {
    float: _json_float,
    int: int.__repr__,
    str: encode_basestring_ascii,
    type(None): lambda _: "null",
}


def _json_chunks(obj, indent: str) -> Iterator[str]:
    """The JSON text of ``obj`` at ``indent``, in chunks: a scalar whole; a
    dict, or a list or tuple of other than floats and ints, a member at a
    time; and a float64 array, an iterator of rendered items or a flat list
    of numbers a run of its items' text at a time."""
    render = _JSON_SCALAR.get(type(obj))
    if render is not None:
        yield render(obj)
        return
    if not isinstance(obj, (dict, list, tuple, np.ndarray, Iterator)):
        yield json.dumps(obj)
        return
    inner = indent + "  "
    sep = ",\n" + inner
    brackets = "{}" if isinstance(obj, dict) else "[]"
    head = brackets[0] + "\n" + inner
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield head + encode_basestring_ascii(key) + ": "
            yield from _json_chunks(value, inner)
            head = sep
    elif isinstance(obj, (list, tuple)) and not set(map(type, obj)) <= {float, int}:
        for item in obj:
            yield head
            yield from _json_chunks(item, inner)
            head = sep
    else:
        if isinstance(obj, np.ndarray):
            # the separator after a chunk's last value is written before the next
            items = (text[: -len(sep)] for _, text in _float_chunks([obj], [sep]))
        elif isinstance(obj, Iterator):
            items = obj
        else:  # one call of the C encoder
            items = [json.dumps(obj, separators=(sep, ": "))[1:-1]] if obj else []
        for item in items:
            yield head + item
            head = sep
    # an empty container never wrote its opening
    yield "\n" + indent + brackets[1] if head is sep else brackets


def _deformation_of(n: int, l: float) -> float:
    # l = 0 is the homogeneous reference case, excluded from the scalar
    # op's domain but an exact limit: R -> 1
    return 1.0 if l == 0.0 else float(deformation_profile(n, l))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_deform(args) -> Iterator[str]:
    value = float(deformation_profile(args.n, args.l))
    if args.format == "json":
        return json_chunks({"n": args.n, "l": args.l, "R": value})
    return csv_chunks(["N", "l", "R"], [[args.n, args.l, value]])


def cmd_deform_sweep(args) -> Iterator[str]:
    steps = validate_steps(args.steps)
    if not 0.0 < args.l_start < args.l_end:
        raise InvalidParameterError(
            f"need 0 < l-start < l-end, got {args.l_start!r}, {args.l_end!r}"
        )
    grid = np.linspace(args.l_start, args.l_end, steps)
    values = deformation_profile(args.n, grid)
    if args.format == "json":
        return json_chunks({"n": args.n, "l": grid, "R": values})
    return csv_chunks(["l", "R"], columns=[grid, values])


def cmd_hcurve(args) -> Iterator[str]:
    ms, hs = h_curve(args.R, args.m_min, args.m_max, args.steps)
    if args.format == "json":
        return json_chunks({"R": args.R, "m": ms, "h": hs})
    return csv_chunks(["m", "h"], columns=[ms, hs])


def _qubit_energy(args, sub: ExcitationSubspace) -> np.float64:
    """w_q * u, formed by numpy like every E = w_q * u + v from it, so that
    an overflow raises under main's np.errstate guard instead of printing inf."""
    return np.float64(args.wq) * sub.total_excitation


def _spin_of(args) -> float:
    if args.r is None:
        return args.n / 2.0
    r2 = twice(args.r)
    if not 0 <= r2 <= args.n or (args.n - r2) % 2:
        raise InvalidParameterError(
            f"total spin {args.r!r} is not an irrep of a {args.n}-qubit chain"
        )
    return halves(r2)


# a spectrum state's JSON text, at the fixed indent of the "states" list
_STATE_JSON = (
    '{{\n      "index": {},\n      "v": {},\n      "E": {},\n      "c0_is_one": {},'
    '\n      "unit_norm": [\n        {}\n      ]\n    }}'
)
_C_LIST_JSON = "[\n        {}\n      ]"


def cmd_spectrum(args) -> Iterator[str]:
    r = _spin_of(args)
    R = _deformation_of(args.n, args.l)
    detuning = args.w0 - args.wq
    sub = ExcitationSubspace(args.u, r)
    dim = sub.dim
    eigenvalues, vectors = tridiagonal_eigh(*build_h1_matrix(sub, R, detuning, args.eta))
    vectors = vectors.T  # row k: state k
    has_c0 = sub.photon_numbers[0] == 0
    wq_u = _qubit_energy(args, sub)
    energies = wq_u + eigenvalues
    coefficients = [vectors]  # the matrices of each state's printed rows, in order
    if has_c0:
        # one division forms every c0 = 1 row; eta = 0 eigenstates, among
        # others, have no vacuum component and get none
        vacuum = vectors[:, 0]
        has_vacuum = vacuum != 0.0
        scaled = vectors / np.where(has_vacuum, vacuum, 1.0)[:, None]
        scaled[:, 0] = 1.0
        coefficients.insert(0, scaled)

    def state_chunks(lead, lead_seps, sep):
        """Each chunk of whole states from ``_float_chunks``, one float
        matrix: a state's values in the 1-D arrays ``lead``, followed by
        ``lead_seps``, then its rows of ``coefficients``, ``sep`` between
        the values of a row and a mark after it, so that one split cuts the
        text into runs.  Yields the chunk's first index, its runs (state k's
        j-th run is ``runs[j][k - start]``) and the places ``k - start`` of
        its states without a vacuum component, whose c0 = 1 run is not
        printed."""
        seps = lead_seps + ([sep] * (dim - 1) + [_MARK]) * len(coefficients)
        per_state = seps.count(_MARK)
        for start, text in _float_chunks(lead + coefficients, seps):
            pieces = text.split(_MARK)
            runs = [pieces[j : -1 : per_state] for j in range(per_state)]
            rows = slice(start, start + len(runs[0]))
            missing = np.flatnonzero(~has_vacuum[rows]).tolist() if has_c0 else []
            yield start, runs, missing

    weak = None
    res_canonical = None
    res_alternate = None
    if r == 2.0 and args.u == 1.0:
        if detuning != 0.0:
            try:
                weak = weak_coupling_energies(R, detuning, args.eta, args.wq)
            except NegativeRadicandError:
                weak = None
        else:
            # the resonant levels are this ladder's eigenvalues: no second eigensolve
            res_canonical = eigenvalues
            res_alternate = resonant_alternate_energies(R, args.eta)

    if args.format == "json":

        def json_states():
            lead = [eigenvalues, energies]
            for start, runs, missing in state_chunks(lead, [_MARK, _MARK], ",\n        "):
                vs, es, *c_runs, a_runs = runs
                c_lists = [_C_LIST_JSON.format(c) for c in c_runs[0]] if has_c0 else ["null"] * len(vs)
                for k in missing:
                    c_lists[k] = "null"
                yield from map(_STATE_JSON.format, itertools.count(start), vs, es, c_lists, a_runs)

        return json_chunks(
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
                "states": json_states(),
                "weak_coupling": None if weak is None else weak.tolist(),
                "resonant_canonical": None if res_canonical is None else res_canonical.tolist(),
                "resonant_alternate": None if res_alternate is None else res_alternate.tolist(),
            }
        )

    ns = sub.photon_numbers
    header = ["kind", "index", "v", "E", "R"]
    if has_c0:
        header += [f"c{n}" for n in ns]
    header += [f"a{n}" for n in ns]
    # each run of coefficient cells is rendered whole, as one str cell
    blank_c = "," * (len(ns) - 1)
    blank_coeffs = blank_c + "," + blank_c if has_c0 else blank_c

    def csv_states():
        lead = [eigenvalues, energies, np.full(dim, R)]
        for start, runs, missing in state_chunks(lead, [",", ",", _MARK], ","):
            for k in missing:
                runs[1][k] = blank_c
            yield _labelled_lines("state", start, *runs)

    # every level row is formed here, before the first byte is written
    levels = []
    if weak is not None:
        levels.append(("weak_coupling", (weak - wq_u).tolist(), weak.tolist()))
    if res_canonical is not None:
        for kind, level_v in (("canonical", res_canonical), ("alternate", res_alternate)):
            levels.append((f"resonant_{kind}", level_v.tolist(), (wq_u + level_v).tolist()))
    level_rows = [
        [kind, k, v, energy, R, blank_coeffs]
        for kind, level_v, level_e in levels
        for k, (v, energy) in enumerate(zip(level_v, level_e))
    ]
    return csv_chunks(header, itertools.chain(csv_states(), level_rows))


def cmd_oracle_compare(args) -> Iterator[str]:
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
    sub = ExcitationSubspace(args.u, r)
    # only the model's energies are printed: eigenvalues alone, no vectors
    values = tridiagonal_eigvalsh(*build_h1_matrix(sub, R, args.w0 - args.wq, args.eta))
    energies = _qubit_energy(args, sub) + values
    # each level's nearest oracle eigenvalue, the first of equally near ones
    nearest = oracle[np.abs(oracle - energies[:, None]).argmin(axis=1)]
    columns = energies.tolist(), nearest.tolist(), np.abs(energies - nearest).tolist()
    max_dev = max(columns[2])
    if args.format == "json":
        levels = [
            {"index": k, "model": model, "oracle": near, "deviation": dev}
            for k, (model, near, dev) in enumerate(zip(*columns))
        ]
        return json_chunks(
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
    rows = [["level", k, *level] for k, level in enumerate(zip(*columns))]
    rows.append(["summary", None, None, None, max_dev])
    return csv_chunks(["kind", "index", "E_model", "E_oracle", "deviation"], rows)


def cmd_table1(args) -> Iterator[str]:
    n = 4
    R = _deformation_of(n, args.l)
    detuning = args.w0 - args.wq
    sub = ExcitationSubspace(1, 2)
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
        # a ratio to a zero undeformed amplitude is undefined: a blank
        # cell or null, as the closed form at a pole
        ratios = [ratio if math.isfinite(ratio) else None for ratio in ratios]
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
        return json_chunks(
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
    return csv_chunks(header, rows)


def cmd_crossover(args) -> Iterator[str]:
    report = crossover_point(args.n)
    points = report.stationary_points
    if args.format == "json":
        return json_chunks(
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

    point_lines = (
        _labelled_lines("stationary_point", start, text.split(_MARK)[:-1])
        for start, text in _float_chunks([points], [_MARK])
    )
    return csv_chunks(["key", "index", "value"], itertools.chain(rows, point_lines))


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def _add_frequency_flags(p):
    p.add_argument("--wq", type=float, default=1.0, help="qubit frequency")
    p.add_argument("--w0", type=float, default=1.0, help="photon frequency")
    p.add_argument("--eta", type=float, default=0.1, help="coupling amplitude")


def _add_chain_flags(p):
    p.add_argument("--n", type=int, required=True, help="number of qubits")
    p.add_argument("--l", type=rational, required=True, help="relative spacing (accepts p/q)")
    p.add_argument("--u", type=rational, required=True, help="total excitation number")
    _add_frequency_flags(p)


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser of the full command line; ``main`` keeps one per
    process, with the sub-parser of each command."""
    return _build_parsers()[0]


def _build_parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """A fresh parser of the full command line, and its sub-parser of each
    command by name."""
    parser = argparse.ArgumentParser(
        prog="qchain",
        description="Deformed collective-spin spectra of an inhomogeneously coupled qubit chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("deform", help="deformation factor at one (N, l)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=rational, required=True)
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("deform-sweep", help="R over a uniform grid of spacings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l-start", dest="l_start", type=rational, required=True)
    p.add_argument("--l-end", dest="l_end", type=rational, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=cmd_deform_sweep)

    p = sub.add_parser("hcurve", help="samples of the level parabola h(m) = R*(m^2+m)")
    p.add_argument("--R", type=rational, required=True)
    p.add_argument("--m-min", dest="m_min", type=rational, required=True)
    p.add_argument("--m-max", dest="m_max", type=rational, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=cmd_hcurve)

    p = sub.add_parser("spectrum", help="dressed states of one (u, r) subspace")
    _add_chain_flags(p)
    p.add_argument("--r", type=rational, default=None, help="total spin (default N/2)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser(
        "oracle-compare", help="collective model vs exact sector diagonalization"
    )
    _add_chain_flags(p)
    p.set_defaults(func=cmd_oracle_compare)

    p = sub.add_parser(
        "table1", help="4-qubit one-excitation amplitudes by every route"
    )
    p.add_argument("--l", type=rational, default=float(Fraction(2, 3)))
    _add_frequency_flags(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("crossover", help="deformation minimum and stationary points")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_crossover)

    for p in sub.choices.values():
        # after every command's own flags, so they close each help text
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        # argparse alone takes only plain negative decimals such as -0.5 for values;
        # take every negative number ``rational`` accepts (-1/2, -1e-1, -inf) too
        p._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
    return parser, sub.choices


# parse_args never changes a parser: every call starts from a fresh
# namespace, so one set of parsers serves all the calls of a process
_shared_parsers = functools.cache(_build_parsers)


def _parse(argv) -> argparse.Namespace:
    """The flags of one command line, parsed once: by the named command's
    own sub-parser, which the full parser would hand every token after the
    name to anyway.  Any other command line (none, ``-h``, an unknown
    command) goes to the full parser, which prints help or refuses it."""
    parser, commands = _shared_parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    return command.parse_args(argv[1:])


def main(argv=None) -> int:
    args = _parse(argv)
    for dest, value in vars(args).items():
        # refused here, with the flag's name, before numpy warns about it
        if isinstance(value, float) and not math.isfinite(value):
            flag = "--" + dest.replace("_", "-")
            print(f"error: argument {flag}: not a finite number: {value!r}", file=sys.stderr)
            return EXIT_USAGE
    try:
        # finite flags too large or small for floats: a usage error, not a leaked warning
        with np.errstate(all="raise", under="ignore"):
            chunks = args.func(args)
        # an unwritable path or a closed stdout is an OSError: a usage error
        target = contextlib.nullcontext(sys.stdout)
        if args.out is not None:
            target = open(args.out, "w", encoding="utf-8", newline="")
        with target as fh:
            fh.writelines(chunks)
            fh.flush()
    except (FloatingPointError, OverflowError) as exc:
        print(f"error: flag values overflow or underflow floats ({exc})", file=sys.stderr)
        return EXIT_USAGE
    except (EmptySectorError, CapacityError, ConvergenceError, ValueError, OSError) as exc:
        if isinstance(exc, BrokenPipeError) and args.out is None:
            # stdout's buffered bytes then go to devnull at exit, with no second error
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CODES.get(type(exc), EXIT_USAGE)
    return 0
