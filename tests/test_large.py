"""The large-size tier: routes that only large inputs take, checked at the
sizes where they run.  Skipped unless ``QCHAIN_LARGE=1``::

    QCHAIN_LARGE=1 OPENBLAS_NUM_THREADS=1 python -m pytest -q tests/test_large.py

The CLI renders each chunk of float arrays, and each chunk of ``spectrum``
states, through ``_floattext``; no golden case reaches the sizes below.
The crossover's branch structure is checked at N = 10**5 and at the cap
of its grid, N = 2.5*10**5.
"""

import hashlib
import os

import numpy as np
import pytest

from qchain import _floattext, crossover_point, stationarity_residual
from qchain.config import MAX_SWEEP_STEPS
from reference_forms import float_repr_join
from test_cli import _strict_json, parse_csv, run_cli

pytestmark = pytest.mark.skipif(
    os.environ.get("QCHAIN_LARGE") != "1", reason="the large tier runs with QCHAIN_LARGE=1"
)

RANDOM_VALUES = 10**7
SMALLEST_SUBNORMALS = 2 * 10**6
PIECE = 10**6  # values compared at once, to bound the text held


def _check_csv_and_json(values, checked):
    """``values``, of even size, in two CSV columns and in a JSON number
    list, each as the text of ``float.__repr__`` per value."""
    reprs = list(map(float.__repr__, values.tolist()))
    pairs = zip(*[iter(reprs)] * 2)
    assert _floattext.repr_join(values.reshape(-1, 2), [",", "\n"]) == (
        "\n".join(map(",".join, pairs)) + "\n"
    ), checked
    sep = ",\n    "
    assert _floattext.repr_join(values, [sep]) == sep.join(reprs) + sep, checked


def test_ten_million_random_bit_patterns_print_as_float_repr():
    """Random finite bit patterns, a million values at a time."""
    rng = np.random.default_rng(20_261_020)
    checked = 0
    while checked < RANDOM_VALUES:
        values = rng.integers(0, 2**64, PIECE, dtype=np.uint64).view(np.float64)
        values = values[np.isfinite(values)]
        values = values[: values.size // 2 * 2]
        _check_csv_and_json(values, checked)
        checked += values.size


def test_smallest_subnormals_print_as_float_repr():
    """The two million smallest subnormal magnitudes, 5e-324 upwards, with
    both signs, a million values at a time: every double of magnitude
    below 9.9e-318, whose reprs have 1 to 7 digits."""
    for sign in (0, 1 << 63):
        for start in range(0, SMALLEST_SUBNORMALS, PIECE):
            bits = np.arange(start + 1, start + PIECE + 1, dtype=np.uint64) | np.uint64(sign)
            _check_csv_and_json(bits.view(np.float64), (sign, start))


@pytest.mark.parametrize(
    "argv",
    [
        ["deform-sweep", "--n", "300", "--l-start", "0.003", "--l-end", "1.9"],
        ["hcurve", "--R", "0.37", "--m-min", "-7.5", "--m-max", "9.25"],
    ],
    ids=["deform-sweep", "hcurve"],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_largest_sweeps_print_the_same_bytes_on_both_routes(capsys, monkeypatch, argv, fmt):
    """At the sweep cap, ``repr_join`` and float.__repr__ per value
    (``reference_forms.float_repr_join``) print the same bytes: one line a
    step, a finite value in every cell."""
    argv = [*argv, "--steps", str(MAX_SWEEP_STEPS), "--format", fmt]
    digests = []
    for bulk in (True, False):
        if not bulk:  # every chunk through float.__repr__
            monkeypatch.setattr(_floattext, "repr_join", float_repr_join)
        code, out = run_cli(capsys, *argv)
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert digests[0] == digests[1]
    # one line a step, no non-finite value
    if fmt == "csv":
        assert out.count("\n") == 1 + MAX_SWEEP_STEPS
        assert "nan" not in out and "inf" not in out
    else:
        assert out.count("\n") == 7 + 2 * MAX_SWEEP_STEPS
        assert "NaN" not in out and "Infinity" not in out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_largest_ladder_prints_the_same_bytes_on_both_routes(capsys, monkeypatch, fmt):
    """At the ladder cap, dim 1001, ``repr_join`` and float.__repr__ per
    value (``reference_forms.float_repr_join``) print the same bytes: a
    rectangular table of 1001 states, or strict JSON of 1001 states."""
    argv = ["spectrum", "--n", "2000", "--l", "0.3", "--u", "0", "--format", fmt]
    digests = []
    for bulk in (True, False):
        if not bulk:  # every chunk of states through float.__repr__
            monkeypatch.setattr(_floattext, "repr_join", float_repr_join)
        code, out = run_cli(capsys, *argv)
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert digests[0] == digests[1]
    if fmt == "csv":
        header, rows = parse_csv(out)
        assert len(header) == 5 + 2 * 1001
        assert len(rows) == 1001 and all(len(row) == len(header) for row in rows)
    else:
        assert len(_strict_json(out)["states"]) == 1001


@pytest.mark.parametrize("n", [10**5, 250_000], ids=["1e5", "cap"])
def test_crossover_has_one_stationary_point_per_branch(n):
    """N - 1 points, each a sign change of the residual within 1e-12, the
    last at 1/2 and l* on the first negative lobe, l*(2N-1) ~ 1.4303.  The
    float branch bounds m*pi < k*pi*p < m*pi + pi/2 are not checked: at the
    cap the last roots lie within one float spacing of m*pi + pi/2."""
    report = crossover_point(n)
    points = report.stationary_points
    assert points.size == n - 1
    assert np.all(np.diff(points) > 0.0)
    assert points[-1] == pytest.approx(0.5, abs=1e-12)
    below = stationarity_residual(n, points - 1e-12)
    above = stationarity_residual(n, points + 1e-12)
    assert np.all(np.sign(below) * np.sign(above) < 0)
    assert report.crossover_spacing == points[0]
    assert report.crossover_spacing * (2 * n - 1) == pytest.approx(1.4303, abs=1e-4)
