"""The numpy float encoder writes what json.dumps writes, byte for byte."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cre3d import _floattext
from cre3d._floattext import format_rows


def _expected(rows) -> list:
    return [json.dumps(row.tolist())[1:-1] for row in np.asarray(rows, dtype=float)]


def _edge_values() -> np.ndarray:
    """Powers of 2 and 10, the double below each power of 2, subnormal
    significands 1-20000, integers and the values at the layout switches."""
    powers2 = np.ldexp(1.0, np.arange(-1074, 1024))
    powers10 = np.array([float(f"1e{e}") for e in range(-323, 309)])
    below2 = np.nextafter(powers2, 0.0)
    subnormal = np.arange(1, 20001, dtype=np.uint64).view(np.float64)
    integers = np.arange(-1000.0, 1001.0)
    switches = np.array([0.0, -0.0, 1e16, 9999999999999998.0, 1e-5, 1e-4, 9.999999999999999e-5,
                         2.0 ** 53, 2.0 ** 53 - 1, 2.0 ** 53 + 2, 123456789012345680.0,
                         0.1, 0.2, 0.3, 1 / 3, 5e-324, 1.7976931348623157e308, 2.2250738585072014e-308])
    values = np.concatenate([powers2, powers10, below2, subnormal, integers, switches])
    return np.concatenate([values, -values])


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
def test_equals_json_dumps(values):
    assert format_rows(np.array([values])) == _expected([values])


def test_random_bit_patterns():
    bits = np.random.default_rng(20).integers(0, 2 ** 64, size=1_100_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)][:1_000_000].reshape(1000, 1000)
    assert format_rows(values) == _expected(values)


@pytest.mark.parametrize("length", [1, 7, 60_000])
def test_edge_values_in_rows(length):
    values = _edge_values()
    values = np.resize(values, -(-len(values) // length) * length).reshape(-1, length)
    assert format_rows(values) == _expected(values)


def test_rows_longer_than_a_chunk_and_chunks_across_rows(monkeypatch):
    monkeypatch.setattr(_floattext, "CHUNK", 5)
    values = np.random.default_rng(1).normal(size=(6, 13)) * 1e3
    assert format_rows(values) == _expected(values)
    assert format_rows(values[:, :2]) == _expected(values[:, :2])


def _drawn_in_runs(seed: int, shape, pool) -> np.ndarray:
    """An array of `shape` whose values come from `pool` in runs of 1 to 12 equal values."""
    rng = np.random.default_rng(seed)
    heads = np.asarray(pool, dtype=float)[rng.integers(len(pool), size=200)]
    return np.resize(np.repeat(heads, rng.integers(1, 13, size=200)), shape)


_POOL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 0.1, -0.1, 1e16, 123.456, 1e-5]


@pytest.mark.parametrize("seed", range(4))
def test_runs_of_equal_values_across_chunks_rows_and_cuts(monkeypatch, seed):
    values = _drawn_in_runs(seed, (9, 40), _POOL)
    assert (values.ravel()[1:] == values.ravel()[:-1]).mean() > 0.5  # runs form, and cross rows
    for chunk in (7, 40, 64, _floattext.CHUNK):
        monkeypatch.setattr(_floattext, "CHUNK", chunk)
        assert format_rows(values) == _expected(values)
        cuts = [values[i, a:b] for i in range(9) for a, b in ((0, 3), (3, 33), (33, 40))]
        assert format_rows(values, [3, 30, 7]) == [json.dumps(cut.tolist())[1:-1] for cut in cuts]


def test_zero_beside_negative_zero_and_subnormals():
    values = np.array([[0.0, -0.0, -0.0, 0.0, 0.0, 5e-324, 5e-324, -5e-324, -0.0, 1e-310, 1e-310, 0.0]])
    assert format_rows(values) == _expected(values)
    assert format_rows(values)[0].startswith("0.0, -0.0, -0.0, 0.0, 0.0, 5e-324, 5e-324, -5e-324, -0.0")


def test_a_pass_of_one_run_and_a_pass_without_repeats(monkeypatch):
    monkeypatch.setattr(_floattext, "CHUNK", 8)
    for values in (np.full((3, 8), 0.1), np.full((2, 13), -2.5e-7), np.full((1, 1), -0.0),
                   np.arange(1, 50).reshape(7, 7) * 0.1, np.resize([0.1, 0.2], (3, 11))):
        assert format_rows(values) == _expected(values)


def test_only_the_first_value_of_each_run_is_converted(monkeypatch):
    converted, decimal = [], _floattext._decimal
    monkeypatch.setattr(_floattext, "_decimal", lambda bits: converted.append(len(bits)) or decimal(bits))
    values = np.repeat([[0.5, -0.0, 0.5, 3e-320, 0.0]], [4, 3, 1, 2, 5], axis=1).reshape(3, 5)
    assert format_rows(values) == _expected(values)
    assert converted == [5]


@pytest.mark.parametrize("where", [slice(0, 20), slice(3, 6), slice(19, 20)])
def test_nan_inside_a_run_raises(where):
    values = np.full((2, 10), 1.5)
    values.ravel()[where] = np.nan
    with pytest.raises(ValueError) as exc:
        format_rows(values)
    assert str(exc.value) == f"cannot write the non-finite value {np.float64('nan')!r} as JSON"


def test_runs_of_each_row():
    values = np.random.default_rng(2).normal(size=(3, 6))
    runs = [values[i, a:b] for i in range(3) for a, b in ((0, 1), (1, 3), (3, 6))]
    assert format_rows(values, [1, 2, 3]) == [json.dumps(run.tolist())[1:-1] for run in runs]
    with pytest.raises(ValueError, match="do not cut rows of 6 values"):
        format_rows(values, [2, 2])
    with pytest.raises(ValueError, match="do not cut rows of 6 values"):
        format_rows(values, [6, 0])


def test_empty_rows_and_shapes():
    assert format_rows(np.zeros((3, 0))) == ["", "", ""]
    assert format_rows(np.zeros((0, 4))) == []
    with pytest.raises(ValueError, match="2-D"):
        format_rows(np.zeros(4))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_value_raises(bad):
    values = np.ones((2, 5000))
    values[1, 4321] = bad
    with pytest.raises(ValueError, match="non-finite"):
        format_rows(values)


def test_tables_are_built_on_first_use_not_at_import():
    check = ("from cre3d import _floattext, cli, io; import numpy as np; "
             "assert _floattext._tables.cache_info().currsize == 0; "
             "_floattext.format_rows(np.ones((1, 1))); "
             "assert _floattext._tables.cache_info().currsize == 1")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", check], check=True, env=env, timeout=120)
