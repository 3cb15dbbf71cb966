"""Command-line surface: golden bytes, exit codes, format contracts."""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qchain._floattext
import qchain.algebra
import qchain.cli
import qchain.linalg
import qchain.spectra
from qchain import NegativeRadicandError, PoleError, QChainError
from qchain.cli import EXIT_CODES, EXIT_USAGE, json_chunks, main
from reference_forms import float_repr_join

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def parse_csv(text):
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def _finite(literal):
    value = float(literal)
    if not math.isfinite(value):
        raise ValueError(f"non-finite JSON number {literal}")
    return value


def _strict_json(text):
    """The JSON document ``text``, refusing the NaN and Infinity tokens, as
    RFC 8259 does, and any number that parses to a non-finite float, such
    as 1e400."""
    return json.loads(text, parse_constant=_finite, parse_float=_finite)


def test_deform_golden_bytes(capsys):
    code, out = run_cli(capsys, "deform", "--n", "4", "--l", "0.6666666666666666")
    assert code == 0
    assert out == "N,l,R\n4,0.6666666666666666,0.625\n"


def test_deform_accepts_exact_rationals(capsys):
    _, out_rational = run_cli(capsys, "deform", "--n", "4", "--l", "2/3")
    _, out_decimal = run_cli(capsys, "deform", "--n", "4", "--l", "0.6666666666666666")
    assert out_rational == out_decimal


def test_deform_single_qubit(capsys):
    code, out = run_cli(capsys, "deform", "--n", "1", "--l", "0.3")
    assert code == 0
    assert out.splitlines()[1] == "1,0.3,1.0"


def test_deform_sweep_reproduces_known_minimum(capsys):
    code, out = run_cli(
        capsys,
        "deform-sweep", "--n", "30", "--l-start", "0.01", "--l-end", "2.0", "--steps", "1000",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["l", "R"]
    assert len(rows) == 1000
    r_min = min(float(row[1]) for row in rows)
    assert r_min == pytest.approx(0.4, abs=0.02)


def test_hcurve(capsys):
    code, out = run_cli(
        capsys, "hcurve", "--R", "0.4", "--m-min", "-1", "--m-max", "1", "--steps", "5"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["m", "h"]
    values = {float(m): float(h) for m, h in rows}
    assert values[-0.5] == pytest.approx(-0.1, abs=1e-15)


def test_spectrum_resonant_output(capsys):
    code, out = run_cli(
        capsys,
        "spectrum", "--n", "4", "--l", "2/3", "--u", "1",
        "--wq", "1", "--w0", "1", "--eta", "0.1",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header[:5] == ["kind", "index", "v", "E", "R"]
    states = [row for row in rows if row[0] == "state"]
    assert len(states) == 4
    assert all(float(row[4]) == 0.625 for row in states)
    vs = [float(row[2]) for row in states]
    expected = sorted(
        s * np.sqrt((15 + e * 3 * np.sqrt(17)) * 0.625) * 0.1 for s in (1, -1) for e in (1, -1)
    )
    assert vs == pytest.approx(expected, abs=1e-9)
    canonical = [float(r[2]) for r in rows if r[0] == "resonant_canonical"]
    assert canonical == pytest.approx(vs, abs=1e-9)
    alternate = [float(r[2]) for r in rows if r[0] == "resonant_alternate"]
    mag = np.sqrt((15 + 3 * np.sqrt(33)) * 0.625) * 0.1
    assert alternate == pytest.approx([-mag, mag], abs=1e-12)


def test_spectrum_solves_the_resonant_ladder_once(capsys, monkeypatch):
    calls = []
    ql = qchain.linalg._ql
    monkeypatch.setattr(qchain.linalg, "_ql", lambda *a: calls.append(1) or ql(*a))
    code, _ = run_cli(capsys, "spectrum", "--n", "4", "--l", "2/3", "--u", "1", "--eta", "0.3")
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("eta", ["0", "0.17", "2.5"])
def test_spectrum_resonant_rows_are_the_state_rows(capsys, eta):
    # R = 0.625, R(4, 0.31), R(6, 0.05) and R = 1, on the (u = 1, r = 2) ladder
    for n, l in (("4", "2/3"), ("4", "0.31"), ("6", "0.05"), ("8", "1")):
        for wq in ("1", "0.37", "-2.5"):
            code, out = run_cli(
                capsys, "spectrum", "--n", n, "--l", l, "--u", "1", "--r", "2",
                "--wq", wq, "--w0", wq, "--eta", eta,
            )
            assert code == 0
            _, rows = parse_csv(out)
            states = [row[2:4] for row in rows if row[0] == "state"]
            resonant = [row[2:4] for row in rows if row[0] == "resonant_canonical"]
            assert resonant == states, (n, l, wq)


def test_spectrum_decoupled_energy_column(capsys):
    _, out = run_cli(
        capsys,
        "spectrum", "--n", "4", "--l", "0.3", "--u", "1",
        "--wq", "0.9", "--w0", "1.4", "--eta", "0",
    )
    _, rows = parse_csv(out)
    energies = [float(r[3]) for r in rows if r[0] == "state"]
    assert energies == pytest.approx([0.9 + 0.5 * n for n in range(4)], abs=1e-12)


def test_spectrum_weak_coupling_column_tracks_states(capsys):
    eta = 0.02
    _, out = run_cli(
        capsys,
        "spectrum", "--n", "4", "--l", "2/3", "--u", "1",
        "--wq", "1", "--w0", repr(1 + 100 * eta), "--eta", repr(eta),
    )
    _, rows = parse_csv(out)
    exact = [float(r[3]) for r in rows if r[0] == "state"]
    approx = [float(r[3]) for r in rows if r[0] == "weak_coupling"]
    assert len(approx) == 4
    tol = 40 * 0.625 * eta**2 / (100 * eta)
    assert np.abs(np.array(approx) - np.array(exact)).max() <= tol


def test_spectrum_drops_the_weak_coupling_levels_it_cannot_form(capsys):
    # at eta = 0.1 and detuning 0.1 the quartic's radicand is negative: the
    # weak-coupling levels are left out, the exact states are still printed
    argv = ("spectrum", "--n", "4", "--l", "2/3", "--u", "1", "--w0", "1.1", "--eta", "0.1")
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["weak_coupling"] is None
    assert len(doc["states"]) == 4
    code, out = run_cli(capsys, *argv)
    assert code == 0
    _, rows = parse_csv(out)
    assert [r[0] for r in rows] == ["state"] * 4


def test_spectrum_json_shape(capsys):
    code, out = run_cli(
        capsys,
        "spectrum", "--n", "4", "--l", "2/3", "--u", "1", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["R"] == 0.625
    assert doc["photon_numbers"] == [0, 1, 2, 3]
    assert len(doc["states"]) == 4
    state = doc["states"][0]
    assert set(state) == {"index", "v", "E", "c0_is_one", "unit_norm"}
    assert state["c0_is_one"][0] == 1.0
    assert doc["resonant_canonical"] is not None
    assert doc["resonant_alternate"] is not None
    assert doc["weak_coupling"] is None


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "4", "--l", "2/3", "--u", "1"],
        ["--n", "4", "--l", "2/3", "--u", "1", "--eta", "0"],
        ["--n", "6", "--l", "0.3", "--u", "-3"],  # dim 1
        ["--n", "9", "--l", "1/5", "--u", "2.5", "--w0", "1.3", "--eta", "0.4"],
        ["--n", "6", "--l", "0.3", "--u", "1", "--r", "1"],  # a lower irrep
        ["--n", "40", "--l", "0.41", "--u", "4", "--r", "10", "--w0", "0.8", "--eta", "0"],
        ["--n", "100", "--l", "0.37", "--u", "50", "--w0", "1.05"],  # dim 101
        ["--n", "2", "--l", "0.3", "--u", "3"],  # u > r: no photon number 0
        ["--n", "7", "--l", "0.6", "--u", "6.5", "--r", "1.5", "--eta", "0"],
    ],
)
def test_spectrum_c_columns_divide_the_unit_norm_columns_by_a0(capsys, argv):
    """Each c_k cell is a_k / a_0 with c_0 = 1; the c cells are empty when
    a_0 = 0, and missing when photon number 0 is not in the ladder."""
    code, out = run_cli(capsys, "spectrum", *argv)
    assert code == 0
    header, rows = parse_csv(out)
    a_cols = [j for j, name in enumerate(header) if name.startswith("a")]
    c_cols = [j for j, name in enumerate(header) if name.startswith("c")]
    has_c0 = header[a_cols[0]] == "a0"
    assert len(c_cols) == (len(a_cols) if has_c0 else 0)
    for row in rows:
        if row[0] != "state" or not has_c0:
            continue
        a = [float(row[j]) for j in a_cols]
        c = [row[j] for j in c_cols]
        if a[0] == 0.0:
            assert c == [""] * len(c)
            continue
        assert float(c[0]) == 1.0
        assert [float(x) for x in c[1:]] == [x / a[0] for x in a[1:]]


# the old renderer of every CSV cell, one Python call per value
_PER_CELL = {float: float.__repr__, int: int.__repr__, str: str, type(None): lambda _: ""}


def _per_cell_spectrum_csv(doc):
    """spectrum's CSV rebuilt cell by cell from its JSON document."""
    ns = doc["photon_numbers"]
    has_c0 = ns[0] == 0
    header = ["kind", "index", "v", "E", "R"]
    header += [f"c{n}" for n in ns] if has_c0 else []
    header += [f"a{n}" for n in ns]
    blank = [None] * (len(header) - 5)
    wq_u = doc["omega_q"] * doc["u"]
    rows = []
    for state in doc["states"]:
        cells = ["state", state["index"], state["v"], state["E"], doc["R"]]
        if has_c0:
            cells += state["c0_is_one"] or [None] * len(ns)
        rows.append(cells + state["unit_norm"])
    for k, energy in enumerate(doc["weak_coupling"] or []):
        rows.append(["weak_coupling", k, energy - wq_u, energy, doc["R"]] + blank)
    for kind in ("canonical", "alternate"):
        for k, v in enumerate(doc[f"resonant_{kind}"] or []):
            rows.append([f"resonant_{kind}", k, v, wq_u + v, doc["R"]] + blank)
    lines = [header] + [[_PER_CELL[type(cell)](cell) for cell in row] for row in rows]
    return "".join(",".join(line) + "\n" for line in lines)


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "4", "--l", "2/3", "--u", "1", "--eta", "0.1"],  # resonant rows
        ["--n", "4", "--l", "0.3", "--u", "1", "--wq", "0.9", "--w0", "1.4", "--eta", "0"],
        ["--n", "4", "--l", "2/3", "--u", "1", "--w0", "3", "--eta", "0.02"],  # weak coupling
        ["--n", "6", "--l", "0.3", "--u", "2", "--r", "1", "--eta", "0.2"],  # lower irrep
        ["--n", "4", "--l", "0.3", "--u", "5", "--r", "1", "--eta", "0.2"],  # no photon 0
        ["--n", "9", "--l", "0.41", "--u", "3.5", "--r", "2.5", "--eta", "0"],  # lower, no photon 0
        ["--n", "100", "--l", "0.37", "--u", "50", "--w0", "1.05"],  # dim 101
    ],
)
def test_spectrum_csv_is_the_per_cell_rendering(capsys, argv):
    """Whole coefficient runs render the bytes the cell-by-cell renderer
    gives, blank c cells (eta = 0) and ladders without photon 0 included."""
    code, csv_out = run_cli(capsys, "spectrum", *argv)
    assert code == 0
    code, json_out = run_cli(capsys, "spectrum", *argv, "--format", "json")
    assert code == 0
    assert csv_out == _per_cell_spectrum_csv(json.loads(json_out))


def test_spectrum_empty_sector_exit_code(capsys):
    code, _ = run_cli(capsys, "spectrum", "--n", "4", "--l", "0.5", "--u", "-3")
    assert code == 3


def test_oracle_compare_homogeneous(capsys):
    code, out = run_cli(
        capsys,
        "oracle-compare", "--n", "4", "--l", "0", "--u", "1",
        "--wq", "1", "--w0", "1.1", "--eta", "0.1",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["kind", "index", "E_model", "E_oracle", "deviation"]
    summary = [r for r in rows if r[0] == "summary"]
    assert len(summary) == 1
    assert float(summary[0][4]) <= 1e-8


def test_oracle_compare_integer_spacing_matches_homogeneous(capsys):
    devs = {}
    for l in ("0", "2"):
        _, out = run_cli(
            capsys,
            "oracle-compare", "--n", "4", "--l", l, "--u", "1",
            "--wq", "1", "--w0", "1.1", "--eta", "0.1",
        )
        _, rows = parse_csv(out)
        devs[l] = np.array([float(r[4]) for r in rows if r[0] == "level"])
    assert np.abs(devs["0"] - devs["2"]).max() <= 1e-10


def test_oracle_compare_reports_deformed_case(capsys):
    code, out = run_cli(
        capsys,
        "oracle-compare", "--n", "4", "--l", "2/3", "--u", "1",
        "--wq", "1", "--w0", "1.1", "--eta", "0.1", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["R"] == 0.625
    assert doc["sector_dim"] == 15
    assert len(doc["levels"]) == 4
    assert doc["max_deviation"] >= 0.0  # report-only, no tolerance asserted


def test_oracle_compare_capacity_exit_code(capsys):
    code, _ = run_cli(capsys, "oracle-compare", "--n", "13", "--l", "0.5", "--u", "1")
    assert code == 4


def test_non_convergence_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(qchain.linalg, "QL_MAX_ITERATIONS", 0)
    code, out = run_cli(capsys, "oracle-compare", "--n", "4", "--l", "0.5", "--u", "1")
    assert code == 5
    assert out == ""


def test_inverse_iteration_non_convergence_exit_code(capsys, monkeypatch):
    # no residual is at most a negative tolerance, so every sweep fails
    monkeypatch.setattr(qchain.linalg, "RESIDUAL_TOL", -1.0)
    code, out = run_cli(capsys, "spectrum", "--n", "4", "--l", "2/3", "--u", "1")
    assert code == 5
    assert out == ""


def test_table1_routes_agree(capsys):
    code, out = run_cli(capsys, "table1", "--l", "2/3", "--wq", "1", "--w0", "1", "--eta", "0.1")
    assert code == 0
    header, rows = parse_csv(out)
    idx = {name: k for k, name in enumerate(header)}
    assert [r[idx["kind"]] for r in rows] == ["state"] * 4
    for row in rows:
        rec = [float(row[idx[f"rec_c{j}"]]) for j in range(4)]
        closed = [float(row[idx[f"closed_c{j}"]]) for j in range(4)]
        assert rec == pytest.approx(closed, abs=1e-9)
        assert float(row[idx["formula_c1"]]) == pytest.approx(rec[1], abs=1e-10)
        assert float(row[idx["formula_c2"]]) == pytest.approx(rec[2], abs=1e-10)
        assert float(row[idx["formula_c3"]]) == pytest.approx(rec[3], abs=1e-10)
        assert abs(float(row[idx["formula_c3_variant"]]) - rec[3]) > 1e-3


def test_crossover_command(capsys):
    code, out = run_cli(capsys, "crossover", "--n", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {
        "n", "crossover_l", "R_at_crossover", "spins_per_wavelength", "stationary_points",
    }
    assert doc["crossover_l"] == pytest.approx(0.5, abs=1e-9)
    assert doc["R_at_crossover"] == pytest.approx(0.5, abs=1e-12)

    code, out = run_cli(capsys, "crossover", "--n", "2")
    header, rows = parse_csv(out)
    assert header == ["key", "index", "value"]
    assert rows[0][0] == "crossover_l"


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_error_type_has_its_exit_code():
    """Each package error exits 2 as a ValueError, has its own code in
    EXIT_CODES, or is caught by the commands themselves.  EXIT_CODES looks
    up the exact type, so none of its keys may have a subclass."""
    for cls in _subclasses(QChainError):
        assert (
            issubclass(cls, ValueError)
            or cls in EXIT_CODES
            or cls in (PoleError, NegativeRadicandError)
        ), cls
    for cls in EXIT_CODES:
        assert issubclass(cls, QChainError) and not list(_subclasses(cls)), cls


def test_crossover_single_qubit_is_usage_error(capsys):
    code, _ = run_cli(capsys, "crossover", "--n", "1")
    assert code == 2


def test_crossover_capacity_exit_code(capsys):
    start = time.perf_counter()
    code, out = run_cli(capsys, "crossover", "--n", "1000000000")
    assert code == 4
    assert out == ""
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("command", ["spectrum", "oracle-compare"])
def test_huge_chain_capacity_exit_code(capsys, command):
    # refused before the ladder (5*10^8 + 2 states) or the sector is built
    start = time.perf_counter()
    code, out = run_cli(capsys, command, "--n", "1000000000", "--l", "0.3", "--u", "1")
    assert code == 4
    assert out == ""
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "argv",
    [
        ["deform", "--n", "4", "--l", "0"],
        ["spectrum", "--n", "4", "--l", "0.5", "--u", "1", "--r", "inf"],
        ["spectrum", "--n", "4", "--l", "0.5", "--u", "1", "--r", "nan"],
        ["spectrum", "--n", "4", "--l", "0.5", "--u", "1", "--r", "1/3"],
        ["spectrum", "--n", "4", "--l", "0.5", "--u", "1", "--r", "3"],
        ["spectrum", "--n", "4", "--l", "0.5", "--u", "1", "--r", "3/2"],
        ["spectrum", "--n", "4", "--l", "0.5", "--u", "1", "--r", "-1"],
        ["spectrum", "--n", "4", "--l", "0.5", "--u", "1", "--r", "2.0000000001"],
        ["spectrum", "--n", "4", "--l", "0.5", "--u", "1.0000000001"],
        # a negative coupling, off the resonant ladder as well as on it
        ["spectrum", "--n", "4", "--l", "0.5", "--u", "1", "--eta", "-0.1", "--w0", "1.3"],
        ["spectrum", "--n", "6", "--l", "0.3", "--u", "2", "--r", "1", "--eta", "-0.1"],
        # beyond 2^52 a double cannot tell half-integers apart
        ["spectrum", "--n", "4", "--l", "0.3", "--u", "1e20"],
        ["oracle-compare", "--n", "4", "--l", "0.3", "--u", "1e20"],
        # a coupling that makes matrix elements subnormal, where they lose bits
        ["spectrum", "--n", "4", "--l", "0.3", "--u", "1", "--eta", "5e-324"],
        ["spectrum", "--n", "4", "--l", "0.3", "--u", "1", "--eta", "1e-310"],
        ["oracle-compare", "--n", "4", "--l", "0.3", "--u", "1", "--eta", "5e-324"],
        ["oracle-compare", "--n", "4", "--l", "0.3", "--u", "1", "--eta", "1e-310"],
    ],
)
def test_out_of_domain_values_exit_2(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["table1", "--w0", "inf"], "--w0"),
        (["deform-sweep", "--n", "4", "--l-start", "0.1", "--l-end", "inf", "--steps", "3"], "--l-end"),
        (["hcurve", "--R", "1", "--m-min", "0", "--m-max", "inf", "--steps", "3"], "--m-max"),
        (["spectrum", "--n", "4", "--l", "0.5", "--u", "1", "--wq", "nan"], "--wq"),
        (["oracle-compare", "--n", "4", "--l", "0.5", "--u", "1", "--eta=-inf"], "--eta"),
        (["deform", "--n", "4", "--l", "NaN"], "--l"),
        (["hcurve", "--R=-Infinity", "--m-min", "0", "--m-max", "1", "--steps", "3"], "--R"),
    ],
)
def test_non_finite_flags_exit_2_naming_the_flag(capsys, argv, flag):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"argument {flag}:" in captured.err
    assert "Warning" not in captured.err
    assert caught == []


def test_rational_too_large_for_a_double_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["deform", "--n", "4", "--l", "1" + "0" * 400 + "/3"])
    assert exc.value.code == 2
    assert "argument --l:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["spectrum", "--n", "3", "--l", "2/3"], "--u", "-1/2"),
        (["spectrum", "--n", "2", "--l", "1/3", "--r", "1", "--format", "json"], "--u", "-1e0"),
        (["hcurve", "--R", "0.4", "--m-max", "2", "--steps", "3"], "--m-min", "-1/2"),
        (["hcurve", "--R", "1", "--m-max", "-1/4", "--steps", "4"], "--m-min", "-2.5e0"),
        (["deform", "--n", "4"], "--l", "-1e-1"),  # the library refuses the spacing
        (["deform", "--n", "4"], "--l", "-inf"),
    ],
)
def test_negative_values_read_the_same_after_a_space_as_after_equals(capsys, argv, flag, value):
    spaced = main([*argv, flag, value]), capsys.readouterr()
    joined = main([*argv, f"{flag}={value}"]), capsys.readouterr()
    assert spaced == joined


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["deform", "--n", "4", "--l", "0.5", "--bogus", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    # refused by the command's own parser, under its own usage line
    assert captured.out == ""
    assert captured.err.startswith("usage: qchain deform ")
    assert captured.err.endswith("qchain deform: error: unrecognized arguments: --bogus 1\n")


@pytest.mark.parametrize(
    "argv, code",
    [([], 2), (["-h"], 0), (["--help"], 0), (["bogus"], 2), (["--format", "json", "deform"], 2),
     (["spectrum", "--bogus", "1"], 2), (["spectrum", "-h"], 0)],
)
def test_help_and_refusals_keep_their_exit_codes(capsys, argv, code):
    """Help exits 0 on stdout; a refusal exits 2 with nothing on stdout."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.out.startswith("usage: qchain") and captured.err == ""
    else:
        assert captured.out == "" and "error:" in captured.err


def _namespace_or_refusal(parse, argv):
    """The flags ``parse`` reads from ``argv`` as reprs, or argparse's exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            flags = vars(parse(argv))
        except SystemExit as exc:
            return ("argparse", exc.code)
    # repr, so that two nan flags compare equal
    return {dest: repr(value) for dest, value in flags.items()}


# a full parser of its own, apart from the one main keeps
FULL_PARSER = qchain.cli.build_parser()


def _parsed_by_command_and_by_full_parser(argv):
    """``argv`` as main parses it, by the command's own parser, and as the
    full parser does, less the command name."""
    full = _namespace_or_refusal(FULL_PARSER.parse_args, argv)
    if isinstance(full, dict):
        assert full.pop("command") == repr(argv[0])
    return _namespace_or_refusal(qchain.cli._parse, argv), full


def test_byte_determinism(capsys):
    invocations = [
        ["deform", "--n", "7", "--l", "0.37"],
        ["deform-sweep", "--n", "5", "--l-start", "0.05", "--l-end", "1.5", "--steps", "64"],
        ["hcurve", "--R", "0.4", "--m-min", "-2", "--m-max", "2", "--steps", "11"],
        ["spectrum", "--n", "4", "--l", "2/3", "--u", "1", "--eta", "0.2"],
        ["spectrum", "--n", "4", "--l", "2/3", "--u", "1", "--eta", "0.2", "--format", "json"],
        ["oracle-compare", "--n", "3", "--l", "0.3", "--u", "0.5", "--w0", "1.2"],
        ["table1", "--eta", "0.15"],
        ["crossover", "--n", "4", "--format", "json"],
    ]
    for argv in invocations:
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second, argv


def test_out_flag_writes_identical_bytes(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    code, _ = run_cli(
        capsys,
        "deform-sweep", "--n", "6", "--l-start", "0.1", "--l-end", "0.9",
        "--steps", "16", "--out", str(target),
    )
    assert code == 0
    _, streamed = run_cli(
        capsys,
        "deform-sweep", "--n", "6", "--l-start", "0.1", "--l-end", "0.9", "--steps", "16",
    )
    assert target.read_bytes().decode("utf-8") == streamed
    assert target.read_bytes().endswith(b"\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_out_flag_writes_the_chunks_stdout_gets(tmp_path, capsys, monkeypatch, fmt):
    """An output of many chunks: in chunks of 2 cells, a 9-step sweep's two
    columns go out a line a chunk, or each number list 2 values a chunk,
    and --out receives the bytes that stdout gets, which are those of the
    chunks joined."""
    monkeypatch.setattr(qchain.cli, "OUTPUT_CHUNK_CELLS", 2)
    argv = ["deform-sweep", "--n", "6", "--l-start", "0.1", "--l-end", "0.9", "--steps", "9"]
    argv += ["--format", fmt]
    args = qchain.cli._parse(argv)
    chunks = list(args.func(args))
    assert len(chunks) >= 6
    target = tmp_path / f"sweep.{fmt}"
    code, out = run_cli(capsys, *argv, "--out", str(target))
    assert code == 0 and out == ""
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert target.read_bytes() == out.encode() == "".join(chunks).encode()


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    """A missing directory or a directory as --out: one error line on
    stderr, nothing on stdout, exit 2, like any other bad flag value."""
    for target in (tmp_path / "missing" / "x.csv", tmp_path):
        code = main(["deform", "--n", "4", "--l", "2/3", "--out", str(target)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE, target
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, size",
    [
        # the oracle's sector solve: the header, 4 levels and the summary
        (["oracle-compare", "--n", "4", "--l", "2/3", "--u", "1"], 6),
        # a ladder's eigenstates by inverse iteration on Python floats: the
        # header, 4 states and 6 resonant rows
        (["spectrum", "--n", "4", "--l", "2/3", "--u", "1"], 11),
        # and on numpy rows: the dim-31 ladder of N = 60 at u = 0, above
        # FLOAT_LU_MAX_DIM, as strict JSON of 31 states
        (["spectrum", "--n", "60", "--l", "2/3", "--u", "0", "--format", "json"], 31),
    ],
    ids=["oracle-compare", "spectrum-float-lu", "spectrum-numpy-lu-json"],
)
def test_commands_without_a_digest_print_whole_answers(capsys, argv, size):
    """Exit 0 and the whole table (its line count) or document (its state
    count).  No digest is asserted: the oracle's bits depend on the BLAS
    kernel, and R's on numpy's SIMD level (ROADMAP item 8)."""
    code, out = run_cli(capsys, *argv)
    assert code == 0
    if "json" in argv:
        assert len(_strict_json(out)["states"]) == size
    else:
        assert out.count("\n") == size


@pytest.mark.parametrize("steps", ["1000001", "100000000000000000000"])
@pytest.mark.parametrize(
    "command",
    [
        ["deform-sweep", "--n", "4", "--l-start", "0.1", "--l-end", "0.5"],
        ["hcurve", "--R", "0.4", "--m-min", "-1", "--m-max", "1"],
    ],
)
def test_sweep_step_cap_exit_code(capsys, command, steps):
    start = time.perf_counter()
    code, out = run_cli(capsys, *command, "--steps", steps)
    assert code == 4
    assert out == ""
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "argv",
    [
        ["hcurve", "--R", "0.5", "--m-min", "-1e308", "--m-max", "1e308", "--steps", "3"],
        # eta so large that v itself leaves the doubles (smaller ones run)
        ["spectrum", "--n", "4", "--l", "0.3", "--u", "1", "--eta", "1e308"],
        ["oracle-compare", "--n", "4", "--l", "0.3", "--u", "1", "--eta", "1e308"],
        # E = w_q * u + v overflows in the state rows, then in the weak-coupling rows
        ["spectrum", "--n", "4", "--l", "0.3", "--u", "2", "--wq", "1e308", "--w0", "1e308"],
        ["spectrum", "--n", "4", "--l", "0.3", "--u", "1", "--w0", "1e160"],
        # and in oracle-compare's model levels, whose oracle levels are finite
        ["oracle-compare", "--n", "2", "--l", "0.3", "--u", "2", "--wq", "1e308", "--w0", "5e307"],
    ],
)
def test_overflowing_flags_exit_2(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "overflow" in captured.err
    assert "Warning" not in captured.err
    assert caught == []


@pytest.mark.parametrize("eta", ["1e-300", "1e-160", "1e150", "1e160", "1e200"])
def test_couplings_far_from_one_run(capsys, eta):
    """The eigensolvers scale a matrix far from norm 1 to norm ~1 first, so
    every coupling whose matrix elements and spectrum are normal doubles
    runs; at zero detuning (the default frequencies) v is the eta = 1
    spectrum times eta."""
    base = ["--n", "4", "--l", "0.3", "--u", "1", "--format", "json"]
    code, out = run_cli(capsys, "spectrum", *base, "--eta", "1")
    unit = np.array([state["v"] for state in json.loads(out)["states"]])
    code, out = run_cli(capsys, "spectrum", *base, "--eta", eta)
    assert code == 0
    v = np.array([state["v"] for state in _strict_json(out)["states"]])
    assert np.abs(v / float(eta) - unit).max() <= 1e-14 * np.abs(unit).max()
    code, out = run_cli(capsys, "oracle-compare", *base, "--eta", eta)
    assert code == 0
    _strict_json(out)


def test_sweep_rejects_bad_ranges(capsys):
    code, _ = run_cli(
        capsys, "deform-sweep", "--n", "4", "--l-start", "0.5", "--l-end", "0.1", "--steps", "10"
    )
    assert code == 2
    code, _ = run_cli(
        capsys, "deform-sweep", "--n", "4", "--l-start", "0.1", "--l-end", "0.5", "--steps", "1"
    )
    assert code == 2


# the library's wrappers that only perfbench still calls: the CLI calls the
# eigensolver, ExcitationSubspace and deformation_profile beneath them
WRAPPERS = [
    (qchain.spectra, "solve_dressed"),
    (qchain.spectra, "subspace"),
    (qchain.spectra, "DressedState"),
    (qchain.algebra, "deformation_factor"),
]


def set_chunking(monkeypatch, cells):
    """The CLI's float arrays in chunks of whole rows of at most ``cells``
    cells, and at least one row.  In chunks of 2 cells, a CSV table of two
    float columns, a JSON number list and ``spectrum``'s states go out one
    or two rows at a time, and print through ``float.__repr__`` per value
    (``reference_forms.float_repr_join`` in place of ``repr_join``), so
    each digest is checked on both renderers; the bulk route's fixed cost
    of about 0.2 ms a chunk would make thousands of 2-cell chunks take
    seconds."""
    monkeypatch.setattr(qchain.cli, "OUTPUT_CHUNK_CELLS", cells)
    if cells == 2:
        monkeypatch.setattr(qchain._floattext, "repr_join", float_repr_join)


# SHA-256 of the full stdout of each command in both formats.  The cases
# cover None cells (eta = 0 leaves states without a vacuum component), the
# PoleError path of table1 (closed form prints as null / empty cells), a
# lower irrep with and without a c0 column, and every uniform-column table.
GOLDEN_DIGESTS = [
    (["deform", "--n", "4", "--l", "2/3"], "csv", "b5190ae8c11f3efc11f4cbec67d88aa25f49e1720594710675caf83646f49284"),
    (["deform", "--n", "4", "--l", "2/3"], "json", "8c6e073f841bdeb1061468bcd6e328e7a30451da3425cfb3e096f8374129fe27"),
    (["deform-sweep", "--n", "30", "--l-start", "0.01", "--l-end", "2.0", "--steps", "1000"], "csv", "b0f3ab07a4d0d8a56f7839f85b84c3c98a1576894b259037cb577ba0c7a27578"),
    (["deform-sweep", "--n", "30", "--l-start", "0.01", "--l-end", "2.0", "--steps", "1000"], "json", "07906f58a1df4535263fcfb65b841c9986ef8fed381065d321ffbd050a71fa31"),
    (["hcurve", "--R", "0.4", "--m-min", "-2", "--m-max", "2", "--steps", "11"], "csv", "c3add79346ff1a757ab887c62d9869ccdcb830699dd9377d74bdcadeb61c2ac1"),
    (["hcurve", "--R", "0.4", "--m-min", "-2", "--m-max", "2", "--steps", "11"], "json", "2c46f6fcda4a8c72f030c61efb24d89fd705f9ae2edf537874e8f6c7b5cdcd92"),
    (["spectrum", "--n", "4", "--l", "2/3", "--u", "1", "--eta", "0.1"], "csv", "f082791ca8b4bd40c7c61b7143db96290c1fe453398f886868639942e2a7b3fd"),
    (["spectrum", "--n", "4", "--l", "2/3", "--u", "1", "--eta", "0.1"], "json", "8bd6a489c7705a1e06e1ceef45a04c967a9b8bb7f6d2dadc0d5fe84ebb80d671"),
    (["spectrum", "--n", "4", "--l", "0.3", "--u", "1", "--wq", "0.9", "--w0", "1.4", "--eta", "0"], "csv", "8ac42e98fa4edccf498dd790c5950335e728ceb21b4cc087f3ee0fccdb86eed8"),
    (["spectrum", "--n", "4", "--l", "0.3", "--u", "1", "--wq", "0.9", "--w0", "1.4", "--eta", "0"], "json", "0f901f6a4367ff375693cefbe8f86bd7449d591f449f3c4f8ca67168caeb6dfe"),
    (["spectrum", "--n", "4", "--l", "2/3", "--u", "1", "--w0", "3", "--eta", "0.02"], "csv", "5151fd68438a3aa86b8f17431ea1acf023cea7f2a7bba9dd59319e890198362d"),
    (["spectrum", "--n", "4", "--l", "2/3", "--u", "1", "--w0", "3", "--eta", "0.02"], "json", "f01f498edf3bfe9df67850bf531af7b97a001d0f2ca367fb08b4152b2c044f90"),
    (["spectrum", "--n", "6", "--l", "0.3", "--u", "2", "--r", "1", "--eta", "0.2"], "csv", "3477c46f965e5fed0b72f0987f289f9342ad24429ccdf8a72a5eecfe7e2d1d63"),
    (["spectrum", "--n", "6", "--l", "0.3", "--u", "2", "--r", "1", "--eta", "0.2"], "json", "9b36f9a991ac4c8470671ad1d6c223cca47c3dd127b11b38fceec48fb9be92c4"),
    (["spectrum", "--n", "4", "--l", "0.3", "--u", "5", "--r", "1", "--eta", "0.2"], "csv", "defaa1e8c53d46e64b9baf91ad2cec1352089d9709a433976e3b4737aba960a9"),
    (["spectrum", "--n", "4", "--l", "0.3", "--u", "5", "--r", "1", "--eta", "0.2"], "json", "18dc25aa99511462b133634f1e61d6422e834249ab67aae69e75e149e972ddab"),
    (["oracle-compare", "--n", "4", "--l", "2/3", "--u", "1", "--w0", "1.1"], "csv", "fbf4abb0877eb21c10300d48be9da63fb3d07821d9411baf12ff85b1f85cdd2a"),
    (["oracle-compare", "--n", "4", "--l", "2/3", "--u", "1", "--w0", "1.1"], "json", "02d11764dc0142bcdb6d5832d05ae9d267b7198326aa35447e1ea7d7d4279297"),
    (["table1", "--eta", "0.15"], "csv", "ea95cfcb1e1af5b162b899f9d15509f8fab6331e1b22e360bf03606d602570c4"),
    (["table1", "--eta", "0.15"], "json", "0e8729450b9c01de116c8ac8f7577e9af38a8fbe99b7aacdf6108aa13cc24fc8"),
    (["table1", "--l", "1/2", "--w0", "1.1"], "csv", "0950c26d38cc0d836257f96d025a694f6e795d7e1ebf3584fb520ecbdaef7401"),
    (["table1", "--l", "1/2", "--w0", "1.1"], "json", "1bfbdc064db0af952413d91286d6c95b8aa8f8ebec125af1458b5bd525d885a0"),
    (["crossover", "--n", "1000"], "csv", "61befb4352bf69bb66f7ab6054488db323334df8ceada5fe2bc4b16bd81b826d"),
    (["crossover", "--n", "1000"], "json", "d26992761fe075b2726c75a46ad05cd25c18d35d7166825f1b4b6fb94cbadc1b"),
]


@pytest.mark.parametrize(
    "argv, fmt, digest",
    GOLDEN_DIGESTS,
    ids=[f"{k:02d}-{a[0]}-{f}" for k, (a, f, _) in enumerate(GOLDEN_DIGESTS)],
)
def test_golden_output_digests(capsys, monkeypatch, argv, fmt, digest):
    """The command's own parser reads the line as the full parser does, and
    the command prints the golden bytes while the wrappers that only
    perfbench still calls raise: it runs on the kernels beneath them.  The
    bytes are the same in chunks of ``OUTPUT_CHUNK_CELLS`` cells and in
    chunks of 2, where every float table, number array and ladder of more
    than 2 cells is written in several chunks (``set_chunking``)."""
    argv = [*argv, "--format", fmt]
    by_command, by_full_parser = _parsed_by_command_and_by_full_parser(argv)
    assert isinstance(by_command, dict) and by_command == by_full_parser

    def refuse(*args, **kwargs):
        raise AssertionError("a wrapper was called")

    for module, name in WRAPPERS:
        monkeypatch.setattr(module, name, refuse)
    for cells in (qchain.cli.OUTPUT_CHUNK_CELLS, 2):
        set_chunking(monkeypatch, cells)
        code, out = run_cli(capsys, *argv)
        assert code == 0, cells
        assert hashlib.sha256(out.encode()).hexdigest() == digest, cells


def test_table1_pole_prints_null_and_empty_cells(capsys):
    argv = ["table1", "--l", "1/2", "--w0", "1.1"]
    _, out = run_cli(capsys, *argv, "--format", "json")
    assert [s["closed"] is None for s in json.loads(out)["states"]] == [False, True, False, False]
    _, out = run_cli(capsys, *argv)
    header, rows = parse_csv(out)
    closed = [header.index(f"closed_c{j}") for j in range(4)]
    assert [rows[1][k] for k in closed] == [""] * 4


@pytest.mark.parametrize(
    "argv, undefined",
    [
        # the undeformed ladder of state 3 has a zero c1 amplitude
        (["table1", "--l", "0.37", "--wq", "4096.5", "--w0", "0.37", "--eta", "1e-16"], True),
        # no golden case prints an undefined ratio
        *[(argv, False) for argv, fmt, _ in GOLDEN_DIGESTS if argv[0] == "table1" and fmt == "csv"],
    ],
)
def test_table1_prints_undefined_ratios_as_null_and_empty_cells(capsys, argv, undefined):
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    ratios = [s["undeformed_ratios"] for s in _strict_json(out)["states"]]
    assert any(r is None for state in ratios for r in state) == undefined, ratios
    code, out = run_cli(capsys, *argv)
    assert code == 0
    header, rows = parse_csv(out)
    columns = [header.index(f"ratio_c{j}") for j in (1, 2, 3)]
    for state, row in zip(ratios, rows):
        assert [row[k] for k in columns] == ["" if r is None else repr(r) for r in state]
        assert all(math.isfinite(float(cell)) for cell in row[1:] if cell)


# floats where repr switches notation (1e16, 1e-5), subnormals and the extremes
NOTATION_EDGES = [
    1e16, 9999999999999998.0, 1e-5, 0.0001, 1.0000000000000002e-05, -1e16, 1e22, 1e-7,
    5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
]
# finite 1-D float64 arrays, the only ones a command prints, with subnormals
# and -0.0, which keeps its sign
float_arrays = st.lists(
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 5e-324, -1e-310, 2.225073858507201e-308]),
    max_size=6,
).map(lambda xs: np.array(xs, dtype=np.float64))
json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")])
    | st.sampled_from(NOTATION_EDGES)
    | st.floats().map(np.float64)
    | st.text()
    | float_arrays
)
json_trees = st.recursive(
    json_leaves,
    lambda children: (
        st.lists(children, max_size=6)
        | st.lists(st.floats() | st.integers(), max_size=6)
        | st.dictionaries(st.text(), children, max_size=6)
    ),
    max_leaves=40,
)


@settings(max_examples=150, deadline=None)
@given(json_trees)
@example(True)
@example(False)
@example(7)
@example(-(2**70))
@example("\u00e9\u2028\ud83d\ude00")
@example(NOTATION_EDGES)
@example([-x for x in NOTATION_EDGES])
@example({"\u00e9t\u00e9": 1, 'q"uote': [True, None], "back\\slash\n\t\x00": {"\u2603": 1e16}})
@example({"": [], "\x7f": {}, "\ud800": [1e-5, 5e-324, 3], "k": "\u00e9\n"})
def test_json_text_matches_indented_json_dumps(obj):
    """As ``json.dumps`` of the same tree with each array as its list."""
    expected = json.dumps(_listed(obj), indent=2) + "\n"
    # and with every array longer than 2 rendered in several chunks
    for cells in (qchain.cli.OUTPUT_CHUNK_CELLS, 2):
        with mock.patch.object(qchain.cli, "OUTPUT_CHUNK_CELLS", cells):
            assert "".join(json_chunks(obj)) == expected, cells


def _listed(obj):
    """A JSON tree with each numpy array replaced by the list of its values."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: _listed(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return list(map(_listed, obj))
    return obj


def test_json_iterator_items_are_written_as_rendered_text():
    """An iterator's str items go out as they are, as a list's members; an
    empty iterator is the empty list."""
    items = iter(["1.5", '"a"', "[\n      null\n    ]"])
    assert "".join(json_chunks({"a": items, "b": iter([])})) == (
        json.dumps({"a": [1.5, "a", [None]], "b": []}, indent=2) + "\n"
    )


# the body of the qchain console script that setuptools generates: main()
# reads sys.argv, and its return value or argparse's SystemExit is the
# process's exit status
CONSOLE_SCRIPT = "import sys; from qchain.cli import main; sys.exit(main())"


def _console_script(*argv, lines=None):
    """``qchain *argv`` in a fresh interpreter that turns warnings into
    errors and buffers stdout, as it does by default: its exit status,
    stdout bytes and stderr text.  With ``lines``, stdout is closed once
    that many lines are read, as ``| head`` closes it."""
    with subprocess.Popen(
        [sys.executable, "-W", "error", "-c", CONSOLE_SCRIPT, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED=""),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as child:
        if lines is None:
            stdout, stderr = child.communicate()
        else:
            stdout = b"".join(child.stdout.readline() for _ in range(lines))
            child.stdout.close()
            stderr = child.stderr.read()
    return child.returncode, stdout, stderr.decode()


@pytest.mark.parametrize(
    "argv, lines, code, out, err",
    [
        # the bytes that GOLDEN_DIGESTS[0] hashes
        (["deform", "--n", "4", "--l", "2/3"], None, 0, b"N,l,R\n4,0.6666666666666666,0.625\n", ""),
        (["spectrum", "--bogus", "1"], None, 2, b"", r"usage: qchain spectrum .*\nqchain spectrum: error: [^\n]*\n"),
        (["deform", "--n", "4", "--l", "2/3", "--out", "{tmp}/missing/x.csv"], None, 2, b"", r"error: [^\n]*\n"),
        # a closed stdout: one error line, with no traceback, and no
        # "Exception ignored" from the interpreter's last flush of the
        # bytes still buffered. About 8 MB of CSV, far more than a pipe
        # holds, to a reader that stops after one line; and a reader gone
        # before the script, which imports numpy first, writes a byte
        (
            ["deform-sweep", "--n", "30", "--l-start", "0.01", "--l-end", "2", "--steps", "200000"],
            1, 2, b"l,R\n", r"error: \[Errno 32\] Broken pipe\n",
        ),
        (["deform", "--n", "4", "--l", "2/3"], 0, 2, b"", r"error: \[Errno 32\] Broken pipe\n"),
    ],
    ids=["deform", "refused-by-argparse", "unwritable-out", "closed-stdout", "stdout-closed-at-start"],
)
def test_console_script_prints_mains_bytes_and_exits_with_its_code(tmp_path, argv, lines, code, out, err):
    status, stdout, stderr = _console_script(*[arg.format(tmp=tmp_path) for arg in argv], lines=lines)
    assert status == code, stderr
    assert stdout == out
    assert re.fullmatch(err, stderr, re.DOTALL), stderr


def test_reused_parser_forgets_flags_of_earlier_calls(tmp_path, capsys):
    """Flags given to one main call do not leak into the next one, which
    omits them: each call prints what it would print in a fresh process."""
    chain = ["spectrum", "--n", "4", "--l", "2/3", "--u", "1"]
    target = tmp_path / "lower_irrep.json"
    code, out = run_cli(capsys, *chain, "--r", "1", "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    _, out = run_cli(capsys, *chain)
    assert _console_script(*chain) == (0, out.encode(), "")
    assert _console_script(*chain, "--r", "1", "--format", "json") == (0, target.read_bytes(), "")


def test_cli_runs_on_the_kernels_not_their_wrappers():
    """The CLI binds none of the wrappers that only perfbench still calls,
    under their names or others; ``test_golden_output_digests`` runs every
    golden line while they raise."""
    names = {name for _, name in WRAPPERS}
    ids = {id(getattr(module, name)) for module, name in WRAPPERS}
    assert not [name for name, value in vars(qchain.cli).items() if name in names or id(value) in ids]


# The flag grammar of each command, with sizes capped so that every command
# line runs in milliseconds: ladders of at most 41 states, oracle chains of
# at most 6 qubits, crossovers up to N = 300 and sweeps of at most 40 steps,
# plus values beyond each cap, which are refused before any work.
# Frequencies are decimals, as argparse reads them; the other number flags
# also take p/q.  Spacings, R, excitations and spins are drawn mostly in
# their domains, so that most command lines reach the solvers.
def _mostly(usual, rare):
    """``usual`` in about seven draws of eight, else ``rare``."""
    return st.integers(0, 7).flatmap(lambda k: usual if k else rare)


DECIMALS = st.floats(-8.0, 8.0).map(repr) | st.sampled_from([
    "0", "-0.0", "5e-324", "1e-310", "1e-300", "1e300", "-1e300", "1.7e308", "1e16",
    "1", "2", "-1", "0.5", "0.37", "-2.5", "4096.5", "1e20", "nan", "-inf",
])
RATIONALS = DECIMALS | st.builds("{}/{}".format, st.integers(-9, 9), st.integers(0, 9))
POSITIVE = _mostly(st.floats(0.0, 2.0, exclude_min=True).map(repr), RATIONALS)
HALVES = _mostly(st.integers(-8, 82).map("{}/2".format), RATIONALS)


def _integers(largest):
    # 10^400 is an int beyond float range
    rare = st.sampled_from(["1000001", "1" + "0" * 30, "1" + "0" * 400, "x"])
    return _mostly(st.integers(-1, largest).map(str), rare)


FREQUENCIES = {"--wq": DECIMALS, "--w0": DECIMALS, "--eta": DECIMALS}
# each command's required flags, then its optional ones
FLAG_GRAMMAR = {
    "deform": ({"--n": _integers(50), "--l": POSITIVE}, {}),
    "deform-sweep": (
        {"--n": _integers(50), "--l-start": POSITIVE, "--l-end": POSITIVE, "--steps": _integers(40)},
        {},
    ),
    "hcurve": (
        {"--R": POSITIVE, "--m-min": RATIONALS, "--m-max": RATIONALS, "--steps": _integers(40)},
        {},
    ),
    "spectrum": (
        {"--n": _integers(40), "--l": POSITIVE, "--u": HALVES},
        {"--r": HALVES, **FREQUENCIES},
    ),
    "oracle-compare": ({"--n": _integers(6), "--l": POSITIVE, "--u": HALVES}, FREQUENCIES),
    "table1": ({}, {"--l": POSITIVE, **FREQUENCIES}),
    "crossover": ({"--n": _integers(300)}, {}),
}


@st.composite
def command_lines(draw):
    """A command line of the grammar; about one in eight omits one of the
    command's required flags, and about one in eight adds a flag that no
    command has."""
    command = draw(st.sampled_from(sorted(FLAG_GRAMMAR)))
    required, optional = FLAG_GRAMMAR[command]
    missing = draw(_mostly(st.none(), st.sampled_from(sorted(required)) if required else st.none()))
    argv = [command]
    for flag, values in required.items():
        if flag != missing:
            argv += [flag, draw(values)]
    for flag, values in optional.items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    argv += draw(st.sampled_from([[], ["--format", "csv"], ["--format", "json"]]))
    unknown = draw(_mostly(st.just([]), st.sampled_from([["--bogus", "1"], ["--bogus"], ["-x"]])))
    position = draw(st.integers(1, len(argv)))
    return argv[:position] + unknown + argv[position:]


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse refuses the command line
            code = ("argparse", exc.code)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=120, deadline=None)
@given(command_lines())
@example(["table1", "--l", "0.37", "--wq", "4096.5", "--w0", "0.37", "--eta", "1e-16", "--format", "json"])
@example(["spectrum", "--n", "4", "--l", "0.3", "--u", "1", "--eta", "5e-324"])
@example(["oracle-compare", "--n", "13", "--l", "0.3", "--u", "1"])
@example(["crossover", "--n", "1000000"])
@example(["deform-sweep", "--n", "4", "--l-start", "0.1", "--l-end", "1", "--steps", "1000000000"])
# the ladder's eigenvalues are floats, but the resonant alternate pair overflows
@example(["spectrum", "--n", "4", "--l", "2/3", "--u", "1", "--eta", "4.1e307"])
@example(["spectrum", "--n", "4", "--l", "2/3", "--u", "1", "--eta", "4.1e307", "--format", "json"])
@example(["oracle-compare", "--n", "2", "--l", "0.3", "--u", "2", "--wq", "1e308", "--w0", "5e307", "--format", "json"])
# an --n beyond float range overflows N / 2 or N * l: exit 2, not a traceback
@example(["deform", "--n", "1" + "0" * 400, "--l", "0.3"])
@example(["deform-sweep", "--n", "1" + "0" * 400, "--l-start", "0.1", "--l-end", "0.3", "--steps", "3"])
@example(["crossover", "--n", "1" + "0" * 400])
@example(["spectrum", "--n", "1" + "0" * 400, "--l", "0.3", "--u", "1"])
@example(["oracle-compare", "--n", "1" + "0" * 400, "--l", "0.3", "--u", "1"])
def test_every_command_line_ends_in_a_whole_answer_or_one_refusal(argv):
    """The command's own parser gives the full parser's flags, less the
    command name, and refuses what the full parser refuses.  Exit 0 prints
    a rectangular CSV table or strict JSON with finite numbers only; a
    refusal by ``main`` prints one stderr line and nothing on stdout, under
    a code of ``EXIT_CODES``; argparse refuses with exit 2; and the same
    command line gives the same bytes twice."""
    by_command, by_full_parser = _parsed_by_command_and_by_full_parser(argv)
    assert by_command == by_full_parser
    code, out, err = result = _run_in_process(argv)
    assert _run_in_process(argv) == result
    if code == 0:
        assert err == ""
        if "json" in argv:
            _strict_json(out)
        else:
            header, rows = parse_csv(out)
            assert all(len(row) == len(header) for row in rows)
            for cell in (cell for row in rows for cell in row):
                with contextlib.suppress(ValueError):  # a label such as "state"
                    assert math.isfinite(float(cell)), cell
    elif isinstance(code, tuple):
        assert code == ("argparse", 2) and out == ""
    else:
        assert code in {EXIT_USAGE, *EXIT_CODES.values()}
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), err
