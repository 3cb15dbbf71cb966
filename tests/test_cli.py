"""Command-line surface: golden bytes, exit codes, format contracts."""

import hashlib
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qchain.linalg
from qchain.cli import json_text, main

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
    capsys.readouterr()


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


def test_sweep_rejects_bad_ranges(capsys):
    code, _ = run_cli(
        capsys, "deform-sweep", "--n", "4", "--l-start", "0.5", "--l-end", "0.1", "--steps", "10"
    )
    assert code == 2
    code, _ = run_cli(
        capsys, "deform-sweep", "--n", "4", "--l-start", "0.1", "--l-end", "0.5", "--steps", "1"
    )
    assert code == 2


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
def test_golden_output_digests(capsys, argv, fmt, digest):
    code, out = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_table1_pole_prints_null_and_empty_cells(capsys):
    argv = ["table1", "--l", "1/2", "--w0", "1.1"]
    _, out = run_cli(capsys, *argv, "--format", "json")
    assert [s["closed"] is None for s in json.loads(out)["states"]] == [False, True, False, False]
    _, out = run_cli(capsys, *argv)
    header, rows = parse_csv(out)
    closed = [header.index(f"closed_c{j}") for j in range(4)]
    assert [rows[1][k] for k in closed] == [""] * 4


json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")])
    | st.floats().map(np.float64)
    | st.text()
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
def test_json_text_matches_indented_json_dumps(obj):
    assert json_text(obj) == json.dumps(obj, indent=2) + "\n"


def _fresh_process(argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "qchain", *argv], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_reused_parser_forgets_flags_of_earlier_calls(tmp_path, capsys):
    """Flags given to one main call do not leak into the next one, which
    omits them: each call prints what it would print in a fresh process."""
    chain = ["spectrum", "--n", "4", "--l", "2/3", "--u", "1"]
    target = tmp_path / "lower_irrep.json"
    code, out = run_cli(capsys, *chain, "--r", "1", "--format", "json", "--out", str(target))
    assert code == 0 and out == ""
    _, out = run_cli(capsys, *chain)
    assert out == _fresh_process(chain)
    assert target.read_text(encoding="utf-8") == _fresh_process(
        chain + ["--r", "1", "--format", "json"]
    )
