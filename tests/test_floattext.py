"""The CLI's bulk float route: ``_floattext.repr_join`` writes exactly the
text of ``float.__repr__`` per value, and the CLI sends it only chunks of
zeros and finite normal doubles."""

import json

import numpy as np
import pytest

import qchain.cli
from qchain import _floattext
from test_cli import NOTATION_EDGES

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
    """Seeded random bit patterns, kept where they are zero or normal, with
    +-0.0 among them; then mantissas 0, 1 and 2^52 - 1 at every normal
    exponent, and the normal notation edges, each with both signs; and the
    ``float.__repr__`` of each, formed once: dtoa takes 1.5 us a value on
    random bit patterns."""
    bits = np.random.default_rng(20_260_531).integers(0, 2**64, 201_000, dtype=np.uint64)
    bits[::1000] &= np.uint64(1 << 63)
    mantissas = np.array([0, 1, 2**52 - 1], dtype=np.uint64)
    exponents = np.arange(1, 2047, dtype=np.uint64) << np.uint64(52)
    edges = np.concatenate([(exponents[:, None] | mantissas).view(np.float64).ravel(), NOTATION_EDGES])
    values = np.concatenate([bits.view(np.float64), edges, -edges])
    keep = np.isfinite(values) & ((np.abs(values) >= np.finfo(np.float64).tiny) | (values == 0.0))
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
    assert _floattext.renderable(values)
    columns = [values[j :: len(seps)] for j in range(len(seps))]
    assert _floattext.repr_join(columns, seps) == _reference(reprs[start:size], seps)


def test_each_notation_edge_alone():
    """A block of one value sizes its columns to that value alone: no
    fraction digits after the first (9999999999999998.0), no point
    (1e+16), the zeros after "0." (0.0001)."""
    for value in NOTATION_EDGES:
        if _floattext.renderable(np.array([value])):
            for sign in (1.0, -1.0):
                assert _floattext.repr_join([np.array([sign * value])], ["\n"]) == repr(sign * value) + "\n"


@pytest.mark.parametrize(
    "odd", [float("nan"), float("inf"), -float("inf"), 5e-324, -2.225073858507201e-308]
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_value_without_digits_or_subnormal_sends_the_chunk_to_float_repr(monkeypatch, odd, fmt):
    """A nan, an inf or a subnormal anywhere in a chunk keeps the whole chunk
    on float.__repr__; the other chunks still go through the bulk route."""
    monkeypatch.setattr(qchain.cli, "OUTPUT_CHUNK_ROWS", 4)
    values = np.linspace(-1.0, 2.0, 12)
    values[5] = odd  # in the second chunk of four
    assert not _floattext.renderable(values[4:8])
    rendered = []
    repr_join = _floattext.repr_join

    def counted(columns, seps):
        rendered.append(columns[0][0])
        return repr_join(columns, seps)

    monkeypatch.setattr(_floattext, "repr_join", counted)
    if fmt == "csv":
        text = "".join(qchain.cli.csv_chunks(["a", "b"], columns=[values, values[::-1]]))
        rows = np.stack([values, values[::-1]], axis=1).ravel().tolist()
        expected = "a,b\n" + _reference(map(float.__repr__, rows), [",", "\n"])
    else:
        text = JSON_SEP.join(qchain.cli._number_chunks(values, JSON_SEP))
        expected = json.dumps(values.tolist(), separators=(JSON_SEP, ": "))[1:-1]
    assert text == expected
    assert rendered == [values[0], values[8]]
