"""Command-line surface: golden bytes, exit codes, format contracts."""

import json
import time

import numpy as np
import pytest

import qchain.linalg
from qchain.cli import main


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
    ],
)
def test_out_of_domain_values_exit_2(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""


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
