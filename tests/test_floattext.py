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
