"""The CLI's one float route: ``_floattext.repr_join`` writes exactly the
text of ``float.__repr__`` per value for every finite double, subnormals
too, and refuses a nan or an inf."""

import json
from itertools import accumulate

import numpy as np
import pytest

import qchain.cli
from qchain import _floattext
from reference_forms import float_repr_join
from test_cli import NOTATION_EDGES, run_cli

JSON_SEP = ",\n    "


def _reference(reprs, seps):
    """The text the route replaces: each value's repr, then its column's
    separator, for the separators of the CLI: commas, then a line end."""
    *commas, end = seps
    assert set(commas) <= {","}
    rows = zip(*[iter(reprs)] * len(seps))
    return end.join(map(",".join, rows)) + end


@pytest.fixture(scope="module")
def values_and_reprs():
    """Seeded random bit patterns, kept where they are finite, with +-0.0
    among them; then mantissas 0, 1 and 2^52 - 1 at every finite exponent,
    the subnormal one (0) included, and the notation edges, each with both
    signs; and the ``float.__repr__`` of each, formed once: dtoa takes
    1.5 us a value on random bit patterns."""
    bits = np.random.default_rng(20_260_531).integers(0, 2**64, 201_000, dtype=np.uint64)
    bits[::1000] &= np.uint64(1 << 63)
    mantissas = np.array([0, 1, 2**52 - 1], dtype=np.uint64)
    exponents = np.arange(0, 2047, dtype=np.uint64) << np.uint64(52)
    edges = np.concatenate([(exponents[:, None] | mantissas).view(np.float64).ravel(), NOTATION_EDGES])
    values = np.concatenate([bits.view(np.float64), edges, -edges])
    keep = np.isfinite(values)
    assert keep[: bits.size].sum() >= 200_000
    values = values[keep]
    return values, list(map(float.__repr__, values.tolist()))


@pytest.mark.parametrize(
    "seps, count",
    [([",", "\n"], None), ([JSON_SEP], None), ([",", ",", "\n"], 3 * 5000)],
    ids=["csv", "json", "csv3"],
)
def test_repr_join_writes_float_repr(values_and_reprs, seps, count):
    """Every value in two columns and in one, and the last 15,000 (the
    edges) in three, across blocks of whole rows."""
    values, reprs = values_and_reprs
    size = values.size - values.size % len(seps)
    start = 0 if count is None else size - count
    values = values[start:size]
    rows = values.reshape(-1, len(seps))
    assert _floattext.repr_join(rows, seps) == _reference(reprs[start:size], seps)


def test_repr_join_on_rows_wider_than_a_block(values_and_reprs):
    """A row of more than ``BLOCK`` values is rendered as a block of its own."""
    values, reprs = values_and_reprs
    width = _floattext.BLOCK + 808
    seps = [","] * (width - 1) + ["\n"]
    rows = values[: 3 * width].reshape(3, width)
    assert _floattext.repr_join(rows, seps) == _reference(reprs[: 3 * width], seps)


def test_each_notation_edge_alone():
    """A block of one value sizes its columns to that value alone: no
    fraction digits after the first (9999999999999998.0), no point
    (1e+16), the zeros after "0." (0.0001), a single digit (5e-324)."""
    for value in NOTATION_EDGES:
        for sign in (1.0, -1.0):
            assert _floattext.repr_join(np.array([sign * value]), ["\n"]) == repr(sign * value) + "\n"


def _chunked_text(monkeypatch, values, fmt, rendered):
    """A two-column CSV table of ``values`` and their reverse in chunks of 8
    cells (4 rows), or a JSON number list of them in chunks of 4 cells (4
    values): its text and the text by ``float.__repr__``.  The first value
    of each chunk handed to ``repr_join`` is appended to ``rendered``."""
    monkeypatch.setattr(qchain.cli, "OUTPUT_CHUNK_CELLS", {"csv": 8, "json": 4}[fmt])
    repr_join = _floattext.repr_join

    def counted(rows, seps):
        rendered.append(rows.flat[0])
        return repr_join(rows, seps)

    monkeypatch.setattr(_floattext, "repr_join", counted)
    if fmt == "csv":
        text = "".join(qchain.cli.csv_chunks(["a", "b"], columns=[values, values[::-1]]))
        rows = np.stack([values, values[::-1]], axis=1).ravel().tolist()
        expected = "a,b\n" + _reference(map(float.__repr__, rows), [",", "\n"])
    else:
        text = "".join(qchain.cli.json_chunks({"a": values}))
        expected = json.dumps({"a": values.tolist()}, indent=2) + "\n"
    return text, expected


@pytest.mark.parametrize("subnormal", [5e-324, -2.225073858507201e-308])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_subnormal_prints_through_repr_join_with_its_chunk(monkeypatch, subnormal, fmt):
    """A subnormal in the second chunk prints as ``float.__repr__`` prints
    it, and every chunk goes through ``repr_join``."""
    values = np.linspace(-1.0, 2.0, 12)
    values[5] = subnormal
    rendered = []
    text, expected = _chunked_text(monkeypatch, values, fmt, rendered)
    assert text == expected
    assert rendered == [values[0], values[4], values[8]]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_nan_or_inf_refuses_its_chunk(monkeypatch, value, fmt):
    """No command prints a nan or an inf: one in the second chunk of a CSV
    column or a JSON number list has no digits, and ``repr_join`` raises
    ValueError on that chunk, after rendering the first."""
    values = np.linspace(-1.0, 2.0, 12)
    values[5] = value
    rendered = []
    with pytest.raises(ValueError, match="nan or an inf"):
        _chunked_text(monkeypatch, values, fmt, rendered)
    assert rendered == [values[0], values[4]]


# ladders beyond the golden sizes: dims 31, 61 and 101, resonant and detuned;
# lower irreps with a c0 column (dim 31) and without one (dim 61); and eta = 0,
# whose states but one have no vacuum component
SPECTRA = {
    "31": ["--n", "30", "--l", "0.37", "--u", "15"],
    "31-detuned": ["--n", "30", "--l", "2/3", "--u", "15", "--w0", "1.3", "--eta", "0.4"],
    "61": ["--n", "60", "--l", "0.37", "--u", "30"],
    "61-detuned": ["--n", "60", "--l", "0.21", "--u", "30", "--w0", "0.8"],
    "101": ["--n", "100", "--l", "0.37", "--u", "50"],
    "101-detuned": ["--n", "100", "--l", "0.9", "--u", "50", "--w0", "1.05", "--eta", "0.02"],
    "31-lower-irrep": ["--n", "100", "--l", "0.37", "--u", "0", "--r", "30"],
    "61-lower-irrep-no-c0": ["--n", "100", "--l", "0.37", "--u", "40", "--r", "30", "--w0", "1.2"],
    "61-eta-0": ["--n", "60", "--l", "0.37", "--u", "30", "--w0", "1.3", "--eta", "0"],
}
CHUNK_CELLS = 500  # 2 to 7 states a chunk on these ladders, never a whole number of chunks


def _spectrum(capsys, argv, fmt):
    code, out = run_cli(capsys, "spectrum", *argv, "--format", fmt)
    assert code == 0
    return out


@pytest.mark.parametrize("argv", SPECTRA.values(), ids=SPECTRA.keys())
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_spectrum_prints_the_same_bytes_on_both_float_routes(capsys, monkeypatch, argv, fmt):
    """One chunk of the whole ladder, chunks of at most ``CHUNK_CELLS`` cells
    that end mid-ladder, and ``float.__repr__`` per value
    (``reference_forms.float_repr_join``) print the same
    bytes: a rectangular table, or indented ``json.dumps`` text.  Each chunk
    of states is one float matrix of whole states, in one ``repr_join``."""
    whole = _spectrum(capsys, argv, fmt)
    shapes = []
    repr_join = _floattext.repr_join
    monkeypatch.setattr(
        _floattext, "repr_join", lambda rows, seps: shapes.append(rows.shape) or repr_join(rows, seps)
    )
    monkeypatch.setattr(qchain.cli, "OUTPUT_CHUNK_CELLS", CHUNK_CELLS)
    chunked = _spectrum(capsys, argv, fmt)
    monkeypatch.setattr(_floattext, "repr_join", float_repr_join)
    assert whole == chunked == _spectrum(capsys, argv, fmt)
    if fmt == "csv":
        lines = whole.splitlines()
        assert len({line.count(",") for line in lines}) == 1
        states = [line for line in lines if line.startswith("state,")]
        blank = [",,," in line for line in states]
    else:
        doc = json.loads(whole)
        assert whole == json.dumps(doc, indent=2) + "\n"
        states = doc["states"]
        blank = [doc["photon_numbers"][0] == 0 and state["c0_is_one"] is None for state in states]
    # states without a vacuum component: blank c cells, or null
    assert any(blank) == (("--eta", "0") in zip(argv, argv[1:]))
    # whole states, as many as fit in CHUNK_CELLS, from the first to the last
    per_chunk = CHUNK_CELLS // shapes[0][1]
    assert {width for _, width in shapes} == {shapes[0][1]}
    assert all(rows * width <= CHUNK_CELLS for rows, width in shapes)
    assert [rows for rows, _ in shapes[:-1]] == [per_chunk] * (len(shapes) - 1)
    assert list(accumulate(rows for rows, _ in shapes))[-1] == len(states)
    assert 0 < shapes[-1][0] < per_chunk


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_subnormal_level_prints_through_repr_join_with_its_chunk_of_states(capsys, monkeypatch, fmt):
    """At eta = 1e-300 the middle level of the resonant dim-21 ladder is a
    subnormal v.  In chunks of four states every chunk, the one that holds
    it too, goes through ``repr_join``, and prints the bytes of
    ``float.__repr__`` per value (``reference_forms.float_repr_join``)."""
    argv = ["--n", "20", "--l", "0.37", "--u", "10", "--eta", "1e-300"]
    vs = [state["v"] for state in json.loads(_spectrum(capsys, argv, "json"))["states"]]
    assert [k for k, v in enumerate(vs) if 0.0 < abs(v) < np.finfo(np.float64).tiny] == [10]
    rendered = []
    repr_join = _floattext.repr_join
    monkeypatch.setattr(
        _floattext, "repr_join", lambda rows, seps: rendered.extend(rows[:, 0]) or repr_join(rows, seps)
    )
    # the lead values (v, E and, in CSV, R), then 21 c0 = 1 cells and 21 unit-norm cells
    monkeypatch.setattr(qchain.cli, "OUTPUT_CHUNK_CELLS", 4 * ({"csv": 3, "json": 2}[fmt] + 42))
    bulk = _spectrum(capsys, argv, fmt)
    assert rendered == vs
    monkeypatch.setattr(_floattext, "repr_join", float_repr_join)
    assert bulk == _spectrum(capsys, argv, fmt)
