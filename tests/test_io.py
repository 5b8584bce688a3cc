import dataclasses
import errno
import json
import os
import re
import signal
import stat
import subprocess
import sys
import threading

import numpy as np
import pytest

from cre3d import io as cre3d_io
from cre3d.column import FluxSet, PhysConsts, ProfileBatch
from cre3d.features import fit_normalization, schema_for_grid
from cre3d.io import (
    DatasetError,
    atomic_write_text,
    load_model,
    read_fluxes,
    read_profiles,
    save_model,
    write_fluxes,
    write_json,
    write_jsonl,
    write_profiles,
)
from cre3d import net, rowblocks
from cre3d.net import init_model

from conftest import make_profile, os_threads, run_python, settle


# Values whose text is easy to get wrong: a subnormal, the least normal,
# -0.0, the switches between positional and exponent form, integers.
EDGE_VALUES = [5e-324, 2.2250738585072014e-308, -0.0, 1e16, 9999999999999998.0, 1e-5, 1e-4,
               280.0, -3.0, 1.7976931348623157e308, 0.1]


def _bits(arr):
    return np.asarray(arr, dtype=float).view(np.uint64)


@pytest.fixture
def records_per_part():
    """Fewest records per part of a JSON-Lines file; None puts every file in one part."""
    return None


@pytest.fixture(autouse=True)
def _part_layout(records_per_part, monkeypatch):
    if records_per_part is None:
        monkeypatch.setattr(cre3d_io, "PART_RECORDS", sys.maxsize)
    else:
        monkeypatch.setattr(cre3d_io, "PART_RECORDS", records_per_part)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)


class InParts:
    """Runs the tests of the class it is mixed into on files split into
    parts of at least 1 and at least 2 records, each part after the first
    in a forked child."""

    @pytest.fixture(params=[1, 2], ids=["1-record parts", "2-record parts"])
    def records_per_part(self, request):
        return request.param


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        records = [{"a": 1}, {"b": [1.5, 2.5]}]
        write_jsonl(path, len(records), lambda rows: (json.dumps(records[i]) for i in rows))
        assert [json.loads(line) for line in path.read_text().splitlines()] == records

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "hello")
        assert path.read_text() == "hello"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_streaming_write_leaves_nothing(self, tmp_path):
        def lines(rows):
            for i in rows:
                if i == 1:
                    raise RuntimeError("producer failed")
                yield '{"a": 1}'

        path = tmp_path / "out.jsonl"
        with pytest.raises(RuntimeError, match="producer failed"):
            write_jsonl(path, 2, lines)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_written_files_follow_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            atomic_write_text(tmp_path / "text.txt", "hello")
            write_jsonl(tmp_path / "records.jsonl", 1, lambda rows: ('{"a": 1}' for _ in rows))
        finally:
            os.umask(old)
        for name in ("text.txt", "records.jsonl"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode


class TestRecords:
    @pytest.mark.parametrize("start, stop", [(2, 4), (1, 11), (5, 5)],
                             ids=["mid-block", "across-blocks", "empty"])
    def test_lines_are_json_dumps_of_the_records_in_rows(self, monkeypatch, start, stop):
        # 4 values per row and CHUNK = 16: blocks of 4 records, at 0, 4, 8 in a whole-file write
        monkeypatch.setattr(cre3d_io, "CHUNK", 16)
        rng = np.random.default_rng(5)
        ids = [f"r{i}" for i in range(12)]
        ids[3], ids[8] = None, 8
        up, heat = rng.normal(size=(12, 3)), rng.normal(size=12)
        lines = cre3d_io._records(ids, [("p_hl", "[1.0, 2.5]"), ("up", up), ("heat", heat)])
        assert list(lines(range(start, stop))) == [
            json.dumps({"id": ids[i], "p_hl": [1.0, 2.5], "up": up[i].tolist(), "heat": float(heat[i])})
            for i in range(start, stop)]


class TestProfiles:
    def test_round_trip_bit_faithful(self, tmp_path, small_grid):
        profiles = [make_profile(small_grid, seed=s) for s in range(3)]
        path = tmp_path / "profiles.jsonl"
        write_profiles(path, profiles)
        back = read_profiles(path)
        assert len(back) == 3
        for orig, rt in zip(profiles, back):
            np.testing.assert_array_equal(rt.T, orig.T)
            np.testing.assert_array_equal(rt.grid.p_hl, orig.grid.p_hl)
            np.testing.assert_array_equal(rt.q, orig.q)
            assert rt.T_s == orig.T_s
            assert rt.alpha == orig.alpha
            assert rt.pid == orig.pid

    def test_missing_field_reported(self, tmp_path, small_grid):
        path = tmp_path / "profiles.jsonl"
        write_profiles(path, [make_profile(small_grid, seed=0)])
        record = json.loads(path.read_text())
        del record["T"]
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(DatasetError, match="'T'"):
            read_profiles(path)

    def test_invalid_values_reported_with_record(self, tmp_path, small_grid):
        path = tmp_path / "profiles.jsonl"
        write_profiles(path, [make_profile(small_grid, seed=0)])
        record = json.loads(path.read_text())
        record["f_c"][0] = 2.0
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(DatasetError, match="record 1"):
            read_profiles(path)

    def test_read_gives_one_validated_batch(self, tmp_path, small_grid):
        profiles = [make_profile(small_grid, seed=s) for s in range(4)]
        path = tmp_path / "profiles.jsonl"
        write_profiles(path, profiles)
        batch = read_profiles(path)
        assert isinstance(batch, ProfileBatch)
        assert batch.T.shape == (4, small_grid.n_fl)
        assert batch.ids == tuple(p.pid for p in profiles)
        np.testing.assert_array_equal(batch.alpha, [p.alpha for p in profiles])
        assert not batch.T.flags.writeable

    def test_written_batch_reads_back_byte_identical(self, tmp_path, small_grid):
        path = tmp_path / "profiles.jsonl"
        write_profiles(path, [make_profile(small_grid, seed=s) for s in range(3)])
        again = tmp_path / "again.jsonl"
        write_profiles(again, read_profiles(path))
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("with_q", [True, False])
    def test_lines_are_json_dumps_of_the_record(self, tmp_path, small_grid, with_q):
        # the grid's text is encoded once and spliced into each line, with
        # the bytes of json.dumps of the whole record
        ids = ["p0", None, 7]
        batch = ProfileBatch.from_profiles([make_profile(small_grid, seed=s) for s in range(3)])
        T, q_l, q = batch.T.copy(), batch.q_l.copy(), batch.q.copy()
        T[0, :len(EDGE_VALUES) - 1] = EDGE_VALUES[1:]
        T[1, :len(EDGE_VALUES) - 1] = EDGE_VALUES[:-1]
        q_l[2, :4] = q[0, :4] = [5e-324, 0.0, 1e-5, 1e-4]
        batch = dataclasses.replace(batch, ids=ids, T=T, q_l=q_l, q=q if with_q else None,
                                    T_s=[1e16, -0.0, 5e-324], alpha=[1e-5, 0.0, 1.0], mu0=[-0.0, 1e-4, -1.0])
        path = tmp_path / "profiles.jsonl"
        write_profiles(path, batch)
        records = [{"id": pid, "p_hl": small_grid.p_hl.tolist(),
                    **{name: float(getattr(batch, name)[i]) for name in ("T_s", "alpha", "mu0")},
                    **{name: getattr(batch, name)[i].tolist()
                       for name in ("T", "f_c", "q_l", "q_i", "r_l", "r_i", "q") if getattr(batch, name) is not None}}
                   for i, pid in enumerate(ids)]
        assert path.read_text() == "".join(json.dumps(record) + "\n" for record in records)

    def test_record_on_another_grid_rejected(self, tmp_path, small_grid):
        path = self._records(tmp_path, small_grid, 4)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[2]["p_hl"][-1] += 1.0
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(DatasetError, match="record 3: p_hl differs from record 1"):
            read_profiles(path)

    def test_duplicate_id_rejected(self, tmp_path, small_grid):
        path = self._records(tmp_path, small_grid, 3)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[2]["id"] = records[0]["id"]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(DatasetError, match=r"profiles.jsonl:record 3: duplicate id 't0'"):
            read_profiles(path)

    def test_list_id_rejected(self, tmp_path, small_grid):
        path = self._records(tmp_path, small_grid, 3)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[1]["id"] = [1, 2]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(DatasetError, match=r"record 2: id must be a string, a number or null"):
            read_profiles(path)

    def test_boolean_id_rejected(self, tmp_path, small_grid):
        path = self._records(tmp_path, small_grid, 3)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[1]["id"] = True
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(DatasetError, match=r"record 2: id must be a string, a number or null, got True"):
            read_profiles(path)

    @pytest.mark.parametrize("index, field, edit, message", [
        (1, "T_s", str, r"T_s must be a number, got '2"),
        (1, "mu0", lambda v: True, "mu0 must be a number, got True"),
        (2, "alpha", lambda v: [v], r"alpha must be a number, got \["),
        (1, "T", lambda v: [str(x) for x in v], "T must be a list of numbers"),
        (1, "f_c", lambda v: [x > 0.5 for x in v], "f_c must be a list of numbers"),
        (2, "q", lambda v: [str(x) for x in v], "q must be a list of numbers"),
        (0, "p_hl", lambda v: [str(x) for x in v], "p_hl must be a list of numbers"),
    ], ids=["string-T_s", "boolean-mu0", "list-alpha", "string-T", "boolean-f_c", "string-q", "string-p_hl"])
    def test_strings_and_booleans_are_not_numbers(self, tmp_path, small_grid, index, field, edit, message):
        path = self._records(tmp_path, small_grid, 3)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        # every record gets the edited p_hl, so that record 1's is the only bad one
        for r in records[index:] if field == "p_hl" else [records[index]]:
            r[field] = edit(r[field])
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(DatasetError, match=f"profiles.jsonl:record {index + 1}: {message}"):
            read_profiles(path)

    def test_integer_too_large_for_a_float_reported_with_record(self, tmp_path, small_grid):
        path = self._records(tmp_path, small_grid, 3)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[1]["T_s"] = 10 ** 400
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(DatasetError, match="profiles.jsonl:record 2: T_s must be a number, "
                                               "got an integer too large for a float"):
            read_profiles(path)

    def test_records_without_id_allowed(self, tmp_path, small_grid):
        path = self._records(tmp_path, small_grid, 3)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for r in records[:2]:
            r["id"] = None
        del records[2]["id"]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert read_profiles(path).ids == (None, None, None)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "profiles.jsonl"
        path.write_text("\n")
        with pytest.raises(DatasetError, match="no profiles"):
            read_profiles(path)

    def test_records_counted_past_blank_lines(self, tmp_path, small_grid):
        # the 2nd record follows a blank line: every error calls it record 2
        path = self._records(tmp_path, small_grid, 3)
        lines = path.read_text().splitlines()
        bad_mu0 = json.dumps({**json.loads(lines[1]), "mu0": 2.0})
        for bad, message in (("not json", "invalid JSON"), (bad_mu0, "mu0")):
            path.write_text("\n".join([lines[0], "", bad, lines[2]]) + "\n")
            with pytest.raises(DatasetError, match=f"record 2: {message}"):
                read_profiles(path)

    def test_bad_record_named_before_a_later_undecodable_one(self, tmp_path, small_grid):
        path = self._records(tmp_path, small_grid, 3)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[1]["mu0"] = 2.0
        path.write_text("".join(json.dumps(r) + "\n" for r in records[:2]) + "not json\n")
        with pytest.raises(DatasetError, match="record 2: mu0"):
            read_profiles(path)

    def test_write_rejects_repeated_id_before_creating_the_file(self, tmp_path, small_grid):
        path = tmp_path / "profiles.jsonl"
        profiles = [make_profile(small_grid, seed=s) for s in (0, 1, 0)]
        with pytest.raises(DatasetError, match=r"profiles.jsonl:record 3: duplicate id 't0' \(first in record 1\)"):
            write_profiles(path, profiles)
        assert list(tmp_path.iterdir()) == []

    def test_write_rejects_a_second_grid(self, tmp_path, small_grid):
        other = make_profile(type(small_grid)(small_grid.p_hl * 1.001), seed=1)
        with pytest.raises(ValueError, match="one vertical grid; profile 1"):
            write_profiles(tmp_path / "profiles.jsonl", [make_profile(small_grid, seed=0), other])
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def _records(tmp_path, grid, n):
        path = tmp_path / "profiles.jsonl"
        write_profiles(path, [make_profile(grid, seed=s) for s in range(n)])
        return path

    @pytest.mark.parametrize("edit, message", [
        (lambda r: r.pop("mu0"), "missing field 'mu0'"),
        (lambda r: r["T"].pop(), "T must have length n_fl=10, got 9"),
        (lambda r: r["q_i"].__setitem__(3, float("nan")), "q_i contains a non-finite value at level 3"),
        (lambda r: r["f_c"].__setitem__(5, 1.5), r"f_c must lie in \[0, 1\]; violated at level 5"),
        (lambda r: r["q_l"].__setitem__(2, -1e-6), "q_l must be >= 0; violated at level 2"),
        (lambda r: r.__setitem__("alpha", 1.2), r"alpha must lie in \[0.0, 1.0\], got 1.2"),
        (lambda r: r.__setitem__("mu0", -1.5), r"mu0 must lie in \[-1.0, 1.0\], got -1.5"),
        (lambda r: r.__setitem__("T_s", float("inf")), "T_s must be finite"),
        (lambda r: (r["q_l"].__setitem__(4, 1e-4), r["r_l"].__setitem__(4, 0.0)),
         "r_l must be > 0 where condensate is present; violated at level 4"),
        (lambda r: r.pop("q"), "q must be given in every record or in none"),
    ])
    def test_bad_second_record_named(self, tmp_path, small_grid, edit, message):
        path = self._records(tmp_path, small_grid, 3)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        edit(record)
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match=f"record 2: {message}"):
            read_profiles(path)

    @pytest.mark.parametrize("edit", [
        lambda r: r["T"].__setitem__(0, float("nan")),
        lambda r: r.pop("T"),
        lambda r: r["f_c"].pop(),
        lambda r: r["p_hl"].__setitem__(0, r["p_hl"][0] / 2),
        lambda r: r.pop("q"),
        lambda r: r.__setitem__("id", "p1"),
    ], ids=["non-finite", "missing-field", "wrong-length", "other-grid", "q-missing", "duplicate-id"])
    def test_first_bad_record_named_whatever_the_rule(self, tmp_path, small_grid, edit):
        # record 3 breaks a value rule, a field rule, the grid, q or id rule;
        # record 2 breaks a value rule and comes first
        path = self._records(tmp_path, small_grid, 3)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for i, r in enumerate(records):
            r["id"] = f"p{i}"
        records[1]["mu0"] = 2.0
        edit(records[2])
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(DatasetError, match="record 2: mu0"):
            read_profiles(path)


class TestFluxes:
    @staticmethod
    def _write(path, records):
        path.write_text("".join(json.dumps(r) + "\n" for r in records))

    @staticmethod
    def _record(pid, n_hl=4, direct=False):
        record = {"id": pid, "up": [1.0] * n_hl, "down": [2.0] * n_hl, "heat": [0.5] * (n_hl - 1)}
        if direct:
            record["direct_down"] = [3.0] * n_hl
        return record

    def test_round_trip(self, tmp_path, small_grid):
        m = small_grid.n_hl
        rng = np.random.default_rng(0)
        flux = FluxSet(up=rng.normal(size=(3, m)), down=rng.normal(size=(3, m)),
                       heat=rng.normal(size=(3, m - 1)), direct_down=rng.normal(size=(3, m)))
        path = tmp_path / "flux.jsonl"
        write_fluxes(path, ["p1", "p2", None], flux)
        ids, back = read_fluxes(path)
        assert ids == ["p1", "p2", None]
        np.testing.assert_array_equal(back.up, flux.up)
        np.testing.assert_array_equal(back.direct_down, flux.direct_down)

    def test_direct_down_optional(self, tmp_path):
        flux = FluxSet(up=np.zeros((1, 3)), down=np.zeros((1, 3)), heat=np.zeros((1, 2)))
        path = tmp_path / "flux.jsonl"
        write_fluxes(path, [None], flux)
        _, back = read_fluxes(path)
        assert back.direct_down is None

    def test_missing_heat_reported(self, tmp_path):
        path = tmp_path / "flux.jsonl"
        path.write_text(json.dumps({"id": "x", "up": [0, 0], "down": [0, 0]}) + "\n")
        with pytest.raises(DatasetError, match="heat"):
            read_fluxes(path)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "flux.jsonl"
        self._write(path, [self._record(pid) for pid in ["a", "b", None, None, "a"]])
        with pytest.raises(DatasetError, match=r"flux.jsonl:record 5: duplicate id 'a' \(first in record 1\)"):
            read_fluxes(path)

    def test_boolean_id_rejected(self, tmp_path):
        # true == 1 in Python: read as an id, it would pass for a duplicate of 1
        path = tmp_path / "flux.jsonl"
        self._write(path, [self._record(pid) for pid in [True, 1]])
        with pytest.raises(DatasetError, match="flux.jsonl:record 1: id must be a string, a number or null, got True"):
            read_fluxes(path)
        flux = FluxSet(up=np.zeros((2, 3)), down=np.zeros((2, 3)), heat=np.zeros((2, 2)))
        with pytest.raises(DatasetError, match="out.jsonl:record 2: id must be a string, a number or null, got False"):
            write_fluxes(tmp_path / "out.jsonl", [0, False], flux)
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("field, value", [("up", "1.0"), ("down", "2"), ("heat", True), ("direct_down", False)])
    def test_strings_and_booleans_are_not_numbers(self, tmp_path, field, value):
        records = [self._record(f"p{i}", direct=True) for i in range(3)]
        records[1][field] = [value] * len(records[1][field])
        path = tmp_path / "flux.jsonl"
        self._write(path, records)
        with pytest.raises(DatasetError, match=f"flux.jsonl:record 2: {field} must be a list of numbers"):
            read_fluxes(path)

    def test_records_counted_past_blank_lines(self, tmp_path):
        path = tmp_path / "flux.jsonl"
        good = [json.dumps(self._record(f"p{i}")) for i in range(3)]
        bad_heat = json.dumps({**self._record("p1"), "heat": [0.5, float("nan"), 0.5]})
        for bad, message in (("{", "invalid JSON"), (bad_heat, "heat contains a non-finite value")):
            path.write_text("\n".join([good[0], "", bad, good[2]]) + "\n")
            with pytest.raises(DatasetError, match=f"flux.jsonl:record 2: {message}"):
                read_fluxes(path)

    def test_bytes_that_are_not_utf8_reported_with_record(self, tmp_path):
        path = tmp_path / "flux.jsonl"
        lines = [json.dumps(self._record(f"p{i}")).encode() for i in range(3)]
        lines[1] = lines[1].replace(b'"p1"', b'"p\xff1"')
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(DatasetError, match="flux.jsonl:record 2: 'utf-8' codec can't decode byte 0xff"):
            read_fluxes(path)

    def test_write_rejects_repeated_id_before_creating_the_file(self, tmp_path):
        flux = FluxSet(up=np.zeros((3, 3)), down=np.zeros((3, 3)), heat=np.zeros((3, 2)))
        path = tmp_path / "flux.jsonl"
        with pytest.raises(DatasetError, match=r"flux.jsonl:record 3: duplicate id 7 \(first in record 2\)"):
            write_fluxes(path, [None, 7, 7], flux)
        assert not path.exists()

    def test_rows_are_written_one_record_each(self, tmp_path):
        flux = FluxSet(up=[[1.0, 2.0], [3.0, 4.0]], down=[[0.5, 0.25], [0.0, -1.0]],
                       heat=[[1e-5], [-2e-5]])
        path = tmp_path / "flux.jsonl"
        write_fluxes(path, ["a", 7], flux)
        assert [json.loads(line) for line in path.read_text().splitlines()] == [
            {"id": "a", "up": [1.0, 2.0], "down": [0.5, 0.25], "heat": [1e-5]},
            {"id": 7, "up": [3.0, 4.0], "down": [0.0, -1.0], "heat": [-2e-5]}]

    @pytest.mark.parametrize("direct", [True, False])
    def test_lines_are_json_dumps_of_the_record(self, tmp_path, direct):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(4, 3, len(EDGE_VALUES))) * 10.0 ** rng.integers(-30, 30, size=(4, 3, 1))
        rows[0, 0] = EDGE_VALUES
        rows[1, :] = EDGE_VALUES[::-1]
        up, down, direct_down = rows.transpose(1, 0, 2)
        heat = np.roll(up, 2, axis=1)[:, 1:]
        flux = FluxSet(up=up, down=down, heat=heat, direct_down=direct_down if direct else None)
        ids = ["a", None, 7, "d"]
        path = tmp_path / "flux.jsonl"
        write_fluxes(path, ids, flux)
        records = [{"id": pid, "up": up[i].tolist(), "down": down[i].tolist(), "heat": heat[i].tolist(),
                    **({"direct_down": direct_down[i].tolist()} if direct else {})}
                   for i, pid in enumerate(ids)]
        assert path.read_text() == "".join(json.dumps(record) + "\n" for record in records)
        _, back = read_fluxes(path)
        assert (_bits(back.up) == _bits(up)).all() and (_bits(back.heat) == _bits(heat)).all()

    @pytest.mark.parametrize("field", ["up", "down", "heat", "direct_down"])
    def test_record_with_other_lengths_rejected(self, tmp_path, field):
        records = [self._record(f"p{i}", direct=True) for i in range(3)]
        records[2][field].append(0.0)
        path = tmp_path / "flux.jsonl"
        self._write(path, records)
        with pytest.raises(DatasetError, match=rf"flux.jsonl:record 3: field shapes .*'{field}': \(\d,\)"):
            read_fluxes(path)

    @pytest.mark.parametrize("first_has_direct", [True, False])
    def test_direct_down_in_every_record_or_none(self, tmp_path, first_has_direct):
        records = [self._record(f"p{i}", direct=first_has_direct) for i in range(3)]
        records[1] = self._record("p1", direct=not first_has_direct)
        path = tmp_path / "flux.jsonl"
        self._write(path, records)
        with pytest.raises(DatasetError, match="flux.jsonl:record 2: .*direct_down in every record or in none"):
            read_fluxes(path)

    def test_record_one_checked_on_its_own(self, tmp_path):
        records = [self._record("p0"), self._record("p1")]
        records[0]["heat"].append(0.0)
        path = tmp_path / "flux.jsonl"
        self._write(path, records)
        with pytest.raises(DatasetError, match="flux.jsonl:record 1: heat must have shape"):
            read_fluxes(path)

    @pytest.mark.parametrize("field", ["up", "heat", "direct_down"])
    def test_non_finite_value_names_record_and_level(self, tmp_path, field):
        records = [self._record(f"p{i}", direct=True) for i in range(4)]
        records[2][field][1] = float("nan")
        path = tmp_path / "flux.jsonl"
        self._write(path, records)
        with pytest.raises(DatasetError, match=f"flux.jsonl:record 3: {field} contains a non-finite value at level 1"):
            read_fluxes(path)

    def test_first_bad_record_named(self, tmp_path):
        # record 2 holds an infinity, record 3 breaks the shape rule
        records = [self._record(f"p{i}") for i in range(3)]
        records[1]["down"][0] = float("inf")
        records[2]["up"].append(0.0)
        path = tmp_path / "flux.jsonl"
        self._write(path, records)
        with pytest.raises(DatasetError, match="flux.jsonl:record 2: down contains a non-finite value at level 0"):
            read_fluxes(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "flux.jsonl"
        path.write_text("\n")
        with pytest.raises(DatasetError, match="flux.jsonl: no flux records"):
            read_fluxes(path)

    @pytest.mark.parametrize("ids", [["a"], ["a", "b", "c"]])
    def test_write_needs_one_id_per_row(self, tmp_path, ids):
        flux = FluxSet(up=np.zeros((2, 3)), down=np.zeros((2, 3)), heat=np.zeros((2, 2)))
        path = tmp_path / "flux.jsonl"
        with pytest.raises(ValueError, match=f"flux.jsonl: need .* one id per row, got {len(ids)} ids"):
            write_fluxes(path, ids, flux)
        assert not path.exists()

    def test_write_needs_rows(self, tmp_path):
        flux = FluxSet(up=np.zeros(3), down=np.zeros(3), heat=np.zeros(2))
        with pytest.raises(ValueError, match="rows"):
            write_fluxes(tmp_path / "flux.jsonl", ["a"], flux)


def _read_outcome(path):
    """read_profiles(path), or the text of the error it raises."""
    try:
        return read_profiles(path)
    except DatasetError as exc:
        return str(exc)


class TestGridText:
    """Record 1's grid text is matched in the later records, not parsed
    again: each file reads as it does when every record is decoded in full,
    with the same arrays, ids and errors."""

    GRID = "100.0, 500.0, 1000.0, 2000.0, 4000.0, 6500.0, 9000.0, 20000.0, 50000.0, 80000.0, 101325.0"

    @pytest.fixture(params=[None, 1], ids=["one part", "1-record parts"])
    def records_per_part(self, request):
        # with 1-record parts, record 2 is in part 0 and records 3 and 4 in children
        return request.param

    @pytest.fixture
    def lines(self, tmp_path, small_grid):
        path = tmp_path / "profiles.jsonl"
        write_profiles(path, [make_profile(small_grid, seed=s) for s in range(4)])
        lines = path.read_text().splitlines()
        assert all(f'"p_hl": [{self.GRID}]' in line for line in lines)
        return lines

    def _check(self, tmp_path, monkeypatch, lines):
        """Read `lines` with and without the grid text matched; both give the same."""
        path = tmp_path / "profiles.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        got = _read_outcome(path)
        with monkeypatch.context() as m:
            m.setattr(cre3d_io, "_grid_decoder", lambda first, p_hl: json.loads)
            full = _read_outcome(path)
        if isinstance(full, str):
            assert got == full
            return got
        assert isinstance(got, ProfileBatch)
        assert got.ids == full.ids
        assert np.array_equal(_bits(got.grid.p_hl), _bits(full.grid.p_hl))
        for name in ("T", "f_c", "q_l", "q_i", "r_l", "r_i", "q", "T_s", "alpha", "mu0"):
            assert np.array_equal(_bits(getattr(got, name)), _bits(getattr(full, name))), name
        return got

    def test_written_file(self, tmp_path, monkeypatch, small_grid, lines):
        batch = self._check(tmp_path, monkeypatch, lines)
        written = ProfileBatch.from_profiles([make_profile(small_grid, seed=s) for s in range(4)])
        assert batch.ids == written.ids
        assert np.array_equal(_bits(batch.T), _bits(written.T))

    def test_equal_values_spelled_otherwise(self, tmp_path, monkeypatch, lines):
        lines[1:] = [line.replace("500.0, 1000.0,", "5e2, 1e3,") for line in lines[1:]]
        self._check(tmp_path, monkeypatch, lines)

    @pytest.mark.parametrize("index", [1, 3], ids=["record 2", "record 4"])
    def test_one_changed_value(self, tmp_path, monkeypatch, lines, index):
        lines[index] = lines[index].replace("9000.0,", "9000.5,", 1)
        message = self._check(tmp_path, monkeypatch, lines)
        assert f"record {index + 1}: p_hl differs from record 1" in message

    def test_record_1_without_the_space(self, tmp_path, monkeypatch, lines):
        lines[0] = lines[0].replace('"p_hl": [', '"p_hl":[')
        assert cre3d_io._grid_decoder(lines[0].encode(), json.loads(lines[0])["p_hl"]) is json.loads
        self._check(tmp_path, monkeypatch, lines)

    def test_record_1_key_spelled_twice(self, tmp_path, monkeypatch, lines):
        # record 1's grid is the escaped key's, not the text after "p_hl"
        grid = f'"p_hl": [{self.GRID}]'
        lines[0] = lines[0].replace(grid, f'"p_hl": [1.0], "p\\u005fhl": [{self.GRID}]')
        lines[1] = lines[1].replace(grid, '"p_hl": [1.0]')
        assert "record 2: p_hl differs" in self._check(tmp_path, monkeypatch, lines)

    @pytest.mark.parametrize("edit, message", [
        # JSON's last key wins: the grid text first, then another value
        (lambda line, grid: line[:-1] + ', "p_hl": [1.0]}', "record 2: p_hl differs"),
        (lambda line, grid: line[:-1] + ', "p_hl": null}', "record 2: p_hl differs"),
        (lambda line, grid: line[:-1] + ', "p\\u005fhl": null}', "record 2: p_hl differs"),
        (lambda line, grid: line[:-1] + ', "p_hl": "\\\\"}', "record 2: p_hl differs"),
        # another value first, then the grid text
        (lambda line, grid: line.replace(grid, '"p_hl": [1.0], ' + grid), None),
        # inside an id string, before the key or as a string holding the key's text
        (lambda line, grid: line.replace('"id": "t1"', '"id": "p_hl"'), None),
        (lambda line, grid: line.replace('"id": "t1"', '"id": ' + json.dumps(grid)), None),
        # inside a nested object, before the key or in place of it
        (lambda line, grid: line.replace(grid, '"meta": {' + grid + '}, ' + grid), None),
        (lambda line, grid: line.replace(grid, '"meta": {' + grid + '}'), "record 2: missing field 'p_hl'"),
    ], ids=["grid-then-list", "grid-then-null", "grid-then-escaped-key", "grid-then-backslash", "list-then-grid", "id-p_hl", "id-holding-grid",
            "nested-then-key", "nested-only"])
    def test_key_text_elsewhere(self, tmp_path, monkeypatch, lines, edit, message):
        lines[1] = edit(lines[1], f'"p_hl": [{self.GRID}]')
        got = self._check(tmp_path, monkeypatch, lines)
        assert isinstance(got, ProfileBatch) if message is None else message in got

    @pytest.mark.parametrize("edit", [
        lambda line: line[:-1],
        lambda line: line.replace('"T_s"', '"T_s" 1'),
        lambda line: line.replace("101325.0]", "101325.0]]"),
        lambda line: line + " x",
    ], ids=["truncated", "missing-colon", "extra-bracket", "trailing-text"])
    def test_malformed_record_reports_the_full_decode_error(self, tmp_path, monkeypatch, lines, edit):
        lines[1] = edit(lines[1])
        message = self._check(tmp_path, monkeypatch, lines)
        assert "record 2: invalid JSON (" in message and "(char " in message

    def test_written_lines_take_the_grid_text(self, lines):
        p_hl = json.loads(lines[0])["p_hl"]
        decode = cre3d_io._grid_decoder(lines[0].encode(), p_hl)
        for line in lines[1:]:
            record = decode(line.encode())
            assert record["p_hl"] is p_hl
            assert record == json.loads(line)


class TestJsonlInParts(InParts, TestJsonl):
    pass


class TestProfilesInParts(InParts, TestProfiles):
    pass


class TestFluxesInParts(InParts, TestFluxes):
    pass


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children forked during the test, each of which must
    be reaped by the time the test ends."""
    pids, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    yield pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _flux_lines(ids, **fields):
    return [json.dumps({**TestFluxes._record(pid), **fields}) for pid in ids]


class TestPartBoundaries:
    """Records on both sides of the boundary between two parts."""

    @pytest.fixture
    def records_per_part(self):
        return 1

    @staticmethod
    def _starts(path):
        """The byte offsets at which _split starts the parts after record 1."""
        with open(path, "rb") as fh:
            first = fh.readline()
            return [start for start, _ in cre3d_io._split(fh, len(first))[1:]]

    def test_write_bytes_do_not_depend_on_the_parts(self, tmp_path, monkeypatch, forks):
        rng = np.random.default_rng(0)
        flux = FluxSet(up=rng.normal(size=(5, 4)), down=rng.normal(size=(5, 4)), heat=rng.normal(size=(5, 3)))
        monkeypatch.setattr(cre3d_io, "PART_RECORDS", sys.maxsize)
        write_fluxes(tmp_path / "whole.jsonl", ["a", 2, None, "d", "e"], flux)
        assert forks == []
        monkeypatch.setattr(cre3d_io, "PART_RECORDS", 1)
        write_fluxes(tmp_path / "parts.jsonl", ["a", 2, None, "d", "e"], flux)
        assert len(forks) == 4
        assert (tmp_path / "parts.jsonl").read_bytes() == (tmp_path / "whole.jsonl").read_bytes()
        ids, back = read_fluxes(tmp_path / "parts.jsonl")
        assert len(forks) > 4
        assert ids == ["a", 2, None, "d", "e"]
        np.testing.assert_array_equal(back.heat, flux.heat)

    @pytest.mark.parametrize("ids, first", [(["p0", "p1", "p2", "p3", "p1"], 2),
                                            (["p0", "p1", "p2", "p3", "p2"], 3)],
                             ids=["first-copy-in-part-0", "first-copy-in-a-child-part"])
    def test_duplicate_of_an_id_in_an_earlier_part(self, tmp_path, forks, ids, first):
        path = tmp_path / "flux.jsonl"
        path.write_text("".join(line + "\n" for line in _flux_lines(ids)))
        with pytest.raises(DatasetError, match=rf"flux.jsonl:record 5: duplicate id '{ids[-1]}' "
                                               rf"\(first in record {first}\)"):
            read_fluxes(path)
        assert len(forks) == 3

    def test_blank_line_at_a_split(self, tmp_path, forks):
        path = tmp_path / "flux.jsonl"
        lines = _flux_lines(["p0", "p1"]) + [""] + _flux_lines(["p2", "p3", "p4"])
        path.write_text("".join(line + "\n" for line in lines))
        blank_at = sum(len(line) + 1 for line in lines[:2])
        assert blank_at in self._starts(path)
        ids, _ = read_fluxes(path)
        assert ids == ["p0", "p1", "p2", "p3", "p4"]
        lines[3] = json.dumps({**json.loads(lines[3]), "heat": [0.5, float("nan"), 0.5]})
        path.write_text("".join(line + "\n" for line in lines))
        assert blank_at in self._starts(path)
        with pytest.raises(DatasetError, match="flux.jsonl:record 3: heat contains a non-finite value at level 1"):
            read_fluxes(path)
        assert len(forks) == 6

    def test_value_rule_in_part_0_named_before_invalid_json_in_part_1(self, tmp_path, small_grid, forks):
        path = tmp_path / "profiles.jsonl"
        write_profiles(path, [make_profile(small_grid, seed=s) for s in range(3)])
        lines = path.read_text().splitlines()
        # record 2 is the longer, so the split falls between records 2 and 3
        lines[1] = json.dumps({**json.loads(lines[1]), "mu0": 2.0}) + " " * 100
        lines[2] += "x"
        path.write_text("".join(line + "\n" for line in lines))
        forks.clear()
        with pytest.raises(DatasetError, match=r"profiles.jsonl:record 2: mu0 must lie in \[-1.0, 1.0\], got 2.0"):
            read_profiles(path)
        assert len(forks) == 1

    def test_split_offset_in_the_middle_of_a_line(self, tmp_path, forks):
        ids = ["p0", "p1" * 40, "p2", "p3" * 25, "p4", "p5" * 60]
        path = tmp_path / "flux.jsonl"
        lines = _flux_lines(ids)
        path.write_text("".join(line + "\n" for line in lines))
        line_starts = {sum(len(line) + 1 for line in lines[:i]) for i in range(len(lines))}
        starts = self._starts(path)
        start, rest = len(lines[0]) + 1, path.stat().st_size - len(lines[0]) - 1
        k = rest // (len(lines[0]) + 1)
        assert any(start + rest * i // k not in line_starts for i in range(1, k))
        assert len(starts) > 1 and set(starts) <= line_starts
        assert read_fluxes(path)[0] == ids

    def test_one_part_while_other_threads_run(self, tmp_path, forks):
        flux = FluxSet(up=np.zeros((5, 3)), down=np.zeros((5, 3)), heat=np.zeros((5, 2)))
        path = tmp_path / "flux.jsonl"
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(10,))
        other.start()
        try:
            write_fluxes(path, [f"p{i}" for i in range(5)], flux)
            assert read_fluxes(path)[0] == [f"p{i}" for i in range(5)]
        finally:
            release.set()
            other.join(10)
        assert not other.is_alive()
        assert forks == []
        assert settle() == 1
        write_fluxes(path, [f"p{i}" for i in range(5)], flux)
        assert len(forks) == 4

    def test_no_fork_while_a_joined_forward_worker_is_listed(self, tmp_path, monkeypatch, forks):
        # forward's started worker is joined before forward returns, but its
        # OS thread can stay listed in /proc/self/task for a few ms: a write
        # right after it runs in one part then, and never forks beside it
        monkeypatch.setattr(rowblocks, "ROW_CHUNK", 4)
        threads_at_fork, fork = [], os.fork

        def counted():
            threads_at_fork.append(os_threads())
            return fork()
        monkeypatch.setattr(os, "fork", counted)
        model = init_model([3, 4, 3], 0)
        x = np.random.default_rng(0).normal(size=(16, 3))
        flux = FluxSet(up=np.zeros((5, 3)), down=np.zeros((5, 3)), heat=np.zeros((5, 2)))
        path = tmp_path / "flux.jsonl"
        whole = None
        for _ in range(30):
            assert settle() == 1
            net.forward(model, x)  # 4 blocks of 4 rows: a started worker beside the caller
            write_fluxes(path, [f"p{i}" for i in range(5)], flux)
            whole = whole or path.read_bytes()
            assert path.read_bytes() == whole
        assert threads_at_fork == [1] * len(forks)

    @pytest.mark.parametrize("op", ["write", "read"])
    def test_fork_that_fails_leaks_nothing(self, tmp_path, monkeypatch, op):
        # a part's pipe is open before its fork: an EAGAIN from the second
        # fork must close it, kill and reap the first child and remove
        # every temp and part file
        ids = [f"p{i}" for i in range(5)]
        flux = FluxSet(up=np.zeros((5, 3)), down=np.zeros((5, 3)), heat=np.zeros((5, 2)))
        path = tmp_path / "flux.jsonl"
        if op == "read":
            write_fluxes(path, ids, flux)
        pids, fork = [], os.fork

        def second_fails():
            if len(pids) == 1:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            pid = fork()
            if pid:
                pids.append(pid)
            return pid
        monkeypatch.setattr(os, "fork", second_fails)
        files, fds = sorted(os.listdir(tmp_path)), len(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            write_fluxes(path, ids, flux) if op == "write" else read_fluxes(path)
        assert len(pids) == 1
        assert len(os.listdir("/proc/self/fd")) == fds
        assert sorted(os.listdir(tmp_path)) == files
        with pytest.raises(ChildProcessError):
            os.waitpid(pids[0], os.WNOHANG)

    def test_unpinned_numpy_reads_and_writes_in_one_part(self, tmp_path):
        # numpy's OpenBLAS, not pinned, starts a thread pool as numpy loads
        code = ("import os, sys\n"
                "import numpy as np\n"
                "from cre3d import io, rowblocks\n"
                "from cre3d.column import FluxSet\n"
                "assert rowblocks.usable_cpus() == 1\n"
                "def no_fork():\n"
                "    raise AssertionError('forked beside the BLAS threads')\n"
                "os.fork = no_fork\n"
                "ids = [f'p{i}' for i in range(300)]\n"
                "io.write_fluxes(sys.argv[1], ids, FluxSet(up=np.zeros((300, 3)), down=np.zeros((300, 3)),\n"
                "                                          heat=np.zeros((300, 2))))\n"
                "assert io.read_fluxes(sys.argv[1])[0] == ids\n")
        run_python(code, {}, tmp_path / "flux.jsonl")
        assert len((tmp_path / "flux.jsonl").read_text().splitlines()) == 300

    def test_file_smaller_than_one_part_is_not_split(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(cre3d_io, "PART_RECORDS", 10)
        flux = FluxSet(up=np.zeros((5, 3)), down=np.zeros((5, 3)), heat=np.zeros((5, 2)))
        path = tmp_path / "flux.jsonl"
        write_fluxes(path, [f"p{i}" for i in range(5)], flux)
        assert read_fluxes(path)[0] == [f"p{i}" for i in range(5)]
        assert forks == []

    def test_fifo_read_in_one_part(self, tmp_path, small_grid, forks):
        path, fifo = tmp_path / "profiles.jsonl", tmp_path / "profiles.fifo"
        write_profiles(path, [make_profile(small_grid, seed=s) for s in range(5)])
        os.mkfifo(fifo)
        feed = ("import shutil, sys\n"
                "with open(sys.argv[1], 'rb') as src, open(sys.argv[2], 'wb') as dst:\n"
                "    shutil.copyfileobj(src, dst)\n")
        forks.clear()
        with subprocess.Popen([sys.executable, "-c", feed, str(path), str(fifo)]) as feeder:
            try:
                piped = read_profiles(fifo)
            except BaseException:
                feeder.kill()
                raise
        assert feeder.returncode == 0
        assert forks == []
        batch = read_profiles(path)
        assert forks  # the regular file is read in parts
        assert piped.ids == batch.ids
        for name in ("T", "f_c", "q_l", "q_i", "r_l", "r_i", "T_s", "alpha", "mu0", "q"):
            np.testing.assert_array_equal(getattr(piped, name), getattr(batch, name))


class TestLineEnds:
    """A record ends at \\n: \\r\\n reads as \\n does, a lone \\r ends no record."""

    @pytest.fixture(params=[None, 1], ids=["one part", "1-record parts"])
    def records_per_part(self, request):
        return request.param

    @staticmethod
    def _write(path, lines):
        path.write_text("".join(line + "\n" for line in lines))

    @staticmethod
    def _crlf_twin(path):
        """A copy of `path` beside it with each \\n written as \\r\\n."""
        twin = path.with_name("crlf-" + path.name)
        twin.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        return twin

    @staticmethod
    def _error(read, path):
        with pytest.raises(DatasetError) as exc:
            read(path)
        return str(exc.value).replace(str(path), "<path>")

    def _assert_named_alike(self, read, path, lines, locus):
        """`lines` fail to read with the same error, naming `locus`, with \\n and \\r\\n line ends."""
        self._write(path, lines)
        error = self._error(read, path)
        assert error.startswith(f"<path>:{locus}")
        assert self._error(read, self._crlf_twin(path)) == error

    def test_crlf_profiles_read_as_their_lf_twin(self, tmp_path, small_grid, forks, records_per_part):
        path = tmp_path / "profiles.jsonl"
        write_profiles(path, [make_profile(small_grid, seed=s) for s in range(6)])
        lines = path.read_text().splitlines()
        lines.insert(2, " \t")  # blank, so not counted
        self._write(path, lines)
        forks.clear()
        lf, crlf = read_profiles(path), read_profiles(self._crlf_twin(path))
        assert bool(forks) == bool(records_per_part)
        assert crlf.ids == lf.ids == tuple(f"t{s}" for s in range(6))
        for name in ("T", "f_c", "q_l", "q_i", "r_l", "r_i", "T_s", "alpha", "mu0", "q"):
            np.testing.assert_array_equal(getattr(crlf, name), getattr(lf, name))
        np.testing.assert_array_equal(crlf.grid.p_hl, lf.grid.p_hl)
        bad_mu0 = json.dumps({**json.loads(lines[4]), "mu0": 2.0})
        for bad, message in ((bad_mu0, "mu0 must lie in [-1.0, 1.0], got 2.0"), ("not json", "invalid JSON")):
            self._assert_named_alike(read_profiles, path, lines[:4] + [bad] + lines[5:], f"record 4: {message}")

    def test_crlf_fluxes_read_as_their_lf_twin(self, tmp_path, forks, records_per_part):
        path = tmp_path / "flux.jsonl"
        ids = ["p0", "p1", 2, None, "p4", "p5"]
        lines = _flux_lines(ids, direct_down=[3.0] * 4)
        lines.insert(2, "")
        self._write(path, lines)
        (lf_ids, lf), (crlf_ids, crlf) = read_fluxes(path), read_fluxes(self._crlf_twin(path))
        assert bool(forks) == bool(records_per_part)
        assert crlf_ids == lf_ids == ids
        for name in ("up", "down", "heat", "direct_down"):
            np.testing.assert_array_equal(getattr(crlf, name), getattr(lf, name))
        bad_heat = json.dumps({**json.loads(lines[4]), "heat": [0.5, float("nan"), 0.5]})
        for bad, message in ((bad_heat, "heat contains a non-finite value at level 1"), ("{x}", "invalid JSON"),
                             (lines[1], "duplicate id 'p1' (first in record 2)")):
            self._assert_named_alike(read_fluxes, path, lines[:4] + [bad] + lines[5:], f"record 4: {message}")

    @pytest.mark.parametrize("separator, record", [(b"\r", 1), (b"\n\xc2\xa0\n", 2)],
                             ids=["lone CR", "line of a no-break space"])
    def test_other_separators_are_not_line_ends_or_blank_lines(self, tmp_path, separator, record):
        path = tmp_path / "flux.jsonl"
        path.write_bytes(separator.join(line.encode() for line in _flux_lines(["p0", "p1", "p2"])) + b"\n")
        with pytest.raises(DatasetError, match=f"flux.jsonl:record {record}: invalid JSON"):
            read_fluxes(path)


def _fault(kind):
    if kind == "raises":
        raise RuntimeError("part failed on purpose")
    if kind == "exits":
        os._exit(3)
    os.kill(os.getpid(), signal.SIGKILL)


class TestPartFailures:
    """A part that fails fails the call, naming the file, and leaves no file and no child behind."""

    REPORTS = {"raises": "RuntimeError: part failed on purpose",
               "exits": "its process exited with status 3",
               "killed": f"its process was killed by signal {int(signal.SIGKILL)}"}

    @pytest.fixture
    def records_per_part(self):
        return 1

    @pytest.mark.parametrize("kind", sorted(REPORTS))
    def test_failed_child_of_a_write(self, tmp_path, forks, kind):
        parent = os.getpid()

        def lines(rows):
            for i in rows:
                if i == 1 and os.getpid() != parent:
                    _fault(kind)
                yield json.dumps({"a": i})

        with pytest.raises(RuntimeError, match=rf"out.jsonl: part 2 of 3 failed: {self.REPORTS[kind]}$"):
            write_jsonl(tmp_path / "out.jsonl", 3, lines)
        assert len(forks) == 2
        assert list(tmp_path.iterdir()) == []

    def test_failed_part_0_of_a_write_stops_the_children(self, tmp_path, forks):
        def lines(rows):
            for i in rows:
                if i == 0:
                    raise RuntimeError("producer failed")
                yield json.dumps({"a": i})

        with pytest.raises(RuntimeError, match="^producer failed$"):
            write_jsonl(tmp_path / "out.jsonl", 3, lines)
        assert len(forks) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", sorted(REPORTS))
    def test_failed_child_of_a_read(self, tmp_path, monkeypatch, forks, kind):
        path = tmp_path / "flux.jsonl"
        path.write_text("".join(line + "\n" for line in _flux_lines([f"p{i}" for i in range(4)])))
        parent, parse_rows = os.getpid(), cre3d_io._parse_rows

        def faulty(lines, *args):
            if os.getpid() != parent:
                _fault(kind)
            return parse_rows(lines, *args)

        monkeypatch.setattr(cre3d_io, "_parse_rows", faulty)
        with pytest.raises(RuntimeError, match=rf"flux.jsonl: part 2 of 3 failed: {self.REPORTS[kind]}$"):
            read_fluxes(path)
        assert len(forks) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["flux.jsonl"]


class TestModelFiles:
    @staticmethod
    def _model(small_grid, seed=0):
        schema = schema_for_grid("lw", small_grid)
        model = init_model([schema.input_len, 5, schema.output_len],
                           seed=seed, schema=schema)
        rng = np.random.default_rng(seed)
        model.norm_in = fit_normalization(rng.normal(size=(4, schema.input_len)))
        model.norm_out = fit_normalization(rng.normal(size=(4, schema.output_len)))
        model.meta["note"] = "fixture"
        return model

    def test_save_load_bit_faithful(self, tmp_path, small_grid, consts):
        model = self._model(small_grid)
        path = tmp_path / "model.json"
        save_model(path, model, consts)
        back, back_consts = load_model(path)
        for w1, w2 in zip(model.weights, back.weights):
            np.testing.assert_array_equal(w1, w2)
        for b1, b2 in zip(model.biases, back.biases):
            np.testing.assert_array_equal(b1, b2)
        np.testing.assert_array_equal(back.norm_in.mean, model.norm_in.mean)
        np.testing.assert_array_equal(back.norm_out.scale, model.norm_out.scale)
        assert back.schema == model.schema
        assert back.meta["note"] == "fixture"
        assert back_consts == consts

    def test_unfitted_model_rejected(self, tmp_path, small_grid, consts):
        model = init_model([4, 3, 2], seed=0)
        with pytest.raises(ValueError, match="fitted"):
            save_model(tmp_path / "m.json", model, consts)

    def test_bad_format_version_rejected(self, tmp_path, small_grid, consts):
        model = self._model(small_grid)
        path = tmp_path / "model.json"
        save_model(path, model, consts)
        obj = json.loads(path.read_text())
        obj["format_version"] = 99
        path.write_text(json.dumps(obj))
        with pytest.raises(DatasetError, match="format_version"):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path, small_grid, consts):
        model = self._model(small_grid)
        path = tmp_path / "model.json"
        save_model(path, model, consts)
        path.write_text(path.read_text()[:100])
        with pytest.raises(DatasetError, match="invalid JSON"):
            load_model(path)

    @pytest.mark.parametrize("content", [b'\xff\xfe{"a":1}', b'{"format_version": "\xff"}'])
    def test_bytes_that_are_not_utf8_rejected(self, tmp_path, content):
        path = tmp_path / "model.json"
        path.write_bytes(content)
        with pytest.raises(DatasetError, match=r"model\.json: invalid JSON \(.* codec can't decode byte"):
            load_model(path)

    def test_non_object_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1, 2]")
        with pytest.raises(DatasetError, match=r"model\.json: bad model file: .* list, not an object"):
            load_model(path)

    @pytest.mark.parametrize("what", ["first layer input", "norm_in", "last layer output", "norm_out"])
    def test_widths_disagreeing_with_the_schema_rejected(self, tmp_path, small_grid, consts, what):
        schema = schema_for_grid("lw", small_grid)
        n_in = 3 if what == "first layer input" else schema.input_len
        n_out = 3 if what == "last layer output" else schema.output_len
        model = init_model([n_in, 5, n_out], seed=0, schema=schema)
        rng = np.random.default_rng(0)
        model.norm_in = fit_normalization(rng.normal(size=(4, 3 if what == "norm_in" else n_in)))
        model.norm_out = fit_normalization(rng.normal(size=(4, 3 if what == "norm_out" else n_out)))
        path = tmp_path / "model.json"
        save_model(path, model, consts)
        want = schema.output_len if what in ("last layer output", "norm_out") else schema.input_len
        with pytest.raises(DatasetError, match=rf"model\.json: bad model file: {what} has width 3, "
                                               rf"but the schema's is {want}$"):
            load_model(path)

    def test_training_grid_window_round_trips(self, tmp_path, small_grid, consts):
        path = tmp_path / "model.json"
        save_model(path, self._model(small_grid), consts)
        assert json.loads(path.read_text())["schema"]["p_hl_window"] == small_grid.p_hl[4:].tolist()
        back, _ = load_model(path)
        np.testing.assert_array_equal(back.schema.p_hl_window, small_grid.p_hl[4:])

    def test_model_file_without_training_window_loads(self, tmp_path, small_grid, consts):
        path = tmp_path / "model.json"
        save_model(path, self._model(small_grid), consts)
        obj = json.loads(path.read_text())
        del obj["schema"]["p_hl_window"]
        path.write_text(json.dumps(obj))
        back, _ = load_model(path)
        assert back.schema.p_hl_window is None
        assert back.schema == self._model(small_grid).schema

    def test_file_is_json_dumps_of_the_model_and_loads_bit_equal(self, tmp_path, small_grid, consts):
        model = self._model(small_grid)
        w = model.weights[0].copy()
        w.ravel()[:len(EDGE_VALUES)] = EDGE_VALUES
        mean = model.norm_in.mean.copy()
        mean[:len(EDGE_VALUES)] = EDGE_VALUES
        model = dataclasses.replace(model, weights=[w] + model.weights[1:],
                                    biases=[model.biases[0]] + [-b for b in model.biases[1:]],
                                    norm_in=dataclasses.replace(model.norm_in, mean=mean))
        path = tmp_path / "model.json"
        save_model(path, model, consts)

        def as_lists(obj):
            if isinstance(obj, np.ndarray):
                return obj.tolist()
            if isinstance(obj, dict):
                return {key: as_lists(value) for key, value in obj.items()}
            return [as_lists(value) for value in obj] if isinstance(obj, list) else obj

        assert path.read_text() == json.dumps(as_lists(cre3d_io.model_to_json(model, consts)))
        back, _ = load_model(path)
        for a, b in zip(back.weights + back.biases, model.weights + model.biases):
            assert (_bits(a) == _bits(b)).all()
        for a, b in ((back.norm_in, model.norm_in), (back.norm_out, model.norm_out)):
            assert (_bits(a.mean) == _bits(b.mean)).all() and (_bits(a.scale) == _bits(b.scale)).all()

    # one edit of a saved model's JSON object per case, each a number or a
    # flag of the wrong JSON type that float(), int() or bool() would take
    WRONG_TYPES = {
        "w_rowmajor_strings": (
            lambda o: o["layers"][0].update(w_rowmajor=[str(v) for v in o["layers"][0]["w_rowmajor"]]),
            r"layers\[0\]\.w_rowmajor must be a list of numbers"),
        "b_booleans": (
            lambda o: o["layers"][1].update(b=[True] * len(o["layers"][1]["b"])),
            r"layers\[1\]\.b must be a list of numbers"),
        "scale_string": (
            lambda o: o["normalization"]["in"]["scale"].__setitem__(0, "1.5"),
            r"normalization\.in\.scale must be a list of numbers"),
        "p_hl_window_strings": (
            lambda o: o["schema"].update(p_hl_window=[str(v) for v in o["schema"]["p_hl_window"]]),
            r"schema\.p_hl_window must be a list of numbers"),
        "format_version_true": (
            lambda o: o.update(format_version=True), r"unsupported format_version True"),
        "n_fl_window_string": (
            lambda o: o["schema"].update(n_fl_window=str(o["schema"]["n_fl_window"])),
            r"schema\.n_fl_window must be an integer, got '\d+'"),
        "cols_string": (
            lambda o: o["layers"][1].update(cols="5"), r"layers\[1\]\.cols must be an integer, got '5'"),
        "p_trunc_true": (
            lambda o: o["constants"].update(p_trunc=True), r"constants\.p_trunc must be a number, got True"),
        "include_humidity_string": (
            lambda o: o["schema"].update(include_humidity="no"),
            r"schema\.include_humidity must be a boolean, got 'no'"),
    }

    # one edit per case of a value of the right JSON type that does not fit
    # the rest of the file; the small model's layers are 5 x 19 and 13 x 5
    DISAGREEING = {
        "rows_minus_one": (lambda o: o["layers"][0].update(rows=-1), r"layers\[0\]\.rows must be at least 1, got -1"),
        "cols_minus_one": (lambda o: o["layers"][1].update(cols=-1), r"layers\[1\]\.cols must be at least 1, got -1"),
        "rows_zero": (lambda o: o["layers"][1].update(rows=0), r"layers\[1\]\.rows must be at least 1, got 0"),
        "cols_zero": (lambda o: o["layers"][0].update(cols=0), r"layers\[0\]\.cols must be at least 1, got 0"),
        "rows_times_cols_above_length": (
            lambda o: o["layers"][0].update(rows=6),
            r"layers\[0\]\.rows \* layers\[0\]\.cols is 114, but layers\[0\]\.w_rowmajor holds 95 numbers"),
        "rows_times_cols_below_length": (
            lambda o: o["layers"][1].update(cols=4),
            r"layers\[1\]\.rows \* layers\[1\]\.cols is 52, but layers\[1\]\.w_rowmajor holds 65 numbers"),
        "component": (lambda o: o.update(component="sw"),
                      r"component is 'sw', but the schema built from the file has 'lw'"),
        "input_len": (lambda o: o["schema"].update(input_len=20),
                      r"schema\.input_len is 20, but the schema built from the file has 19"),
        "output_len": (lambda o: o["schema"].update(output_len=1),
                       r"schema\.output_len is 1, but the schema built from the file has 13"),
        "no_component": (lambda o: o.pop("component"), r"missing field 'component'"),
    }

    def _rejected(self, tmp_path, small_grid, consts, edit, message):
        path = tmp_path / "model.json"
        save_model(path, self._model(small_grid), consts)
        obj = json.loads(path.read_text())
        edit(obj)
        path.write_text(json.dumps(obj))
        with pytest.raises(DatasetError, match=rf"model\.json: bad model file: {message}$"):
            load_model(path)

    @pytest.mark.parametrize("case", list(WRONG_TYPES))
    def test_wrong_json_type_rejected(self, tmp_path, small_grid, consts, case):
        self._rejected(tmp_path, small_grid, consts, *self.WRONG_TYPES[case])

    @pytest.mark.parametrize("case", list(DISAGREEING))
    def test_value_disagreeing_with_the_file_rejected(self, tmp_path, small_grid, consts, case):
        self._rejected(tmp_path, small_grid, consts, *self.DISAGREEING[case])

    def test_constants_round_trip_non_default(self, tmp_path, small_grid):
        model = self._model(small_grid)
        consts = PhysConsts(g=9.80665)
        path = tmp_path / "model.json"
        save_model(path, model, consts)
        _, back = load_model(path)
        assert back.g == 9.80665


def test_write_json_writes_non_finite_numbers_as_null(tmp_path):
    path = tmp_path / "report.json"
    write_json(path, {"a": float("inf"), "b": [float("nan"), 1.5, -float("inf")], "c": {"d": 0.1}})

    def constant(name):
        raise AssertionError(f"{name} is not JSON")

    assert json.loads(path.read_text(), parse_constant=constant) == {"a": None, "b": [None, 1.5, None],
                                                                    "c": {"d": 0.1}}


# Every JSON value a field could be set to, by kind: null, a boolean, the
# numbers (an integer too large for a float included), the non-finite
# constants Python's json module reads, a string, and lists and objects
# empty, of a number, of a list, of a boolean, of a string and of a big integer.
MALFORMED = [None, True, 0, -1, 10 ** 400, 1e308, float("nan"), float("inf"), "x", [], [1], [[1]], {},
             {"a": 1}, [True], ["1"], [10 ** 400]]
# Python's own text for a lookup or a type error, or a message that is only a key
PYTHON_TEXT = (r"^'[^']*'$|not iterable|not subscriptable|indices must be|unhashable|has no attribute"
               r"|required positional argument|not supported between|too large to convert|inhomogeneous")


def _model_paths(value, path=()):
    """The paths of every field of a model file's JSON object, and of each object in a list."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        if isinstance(value, dict) or isinstance(item, dict):
            yield path + (key,)
        if isinstance(item, dict) or (isinstance(item, list) and item and isinstance(item[0], dict)):
            yield from _model_paths(item, path + (key,))


class TestMalformedValues:
    """One value of a small valid file set to each of MALFORMED: the reader
    returns, or raises a DatasetError naming the file (and record 2 of a
    dataset) in the reader's own words."""

    @staticmethod
    def _check(reader, path, prefix, case):
        try:
            reader(path)
        except DatasetError as exc:
            message = str(exc)
            assert message.startswith(prefix), (case, message)
            assert not re.search(PYTHON_TEXT, message[len(prefix):]), (case, message)

    def test_dataset_records(self, tmp_path, small_grid):
        profiles = tmp_path / "profiles.jsonl"
        write_profiles(profiles, [make_profile(small_grid, seed=s) for s in range(3)])
        flux = FluxSet(up=np.ones((3, 4)), down=np.ones((3, 4)), heat=np.zeros((3, 3)),
                       direct_down=np.ones((3, 4)))
        fluxes = tmp_path / "flux.jsonl"
        write_fluxes(fluxes, ["a", "b", "c"], flux)
        for reader, path in ((read_profiles, profiles), (read_fluxes, fluxes)):
            lines = path.read_text().splitlines()
            for key in [None] + list(json.loads(lines[1])):
                for value in MALFORMED:
                    record = value if key is None else {**json.loads(lines[1]), key: value}
                    path.write_text("\n".join([lines[0], json.dumps(record), lines[2]]) + "\n")
                    self._check(reader, path, f"{path}:record 2: ", (key, value))

    def test_model_file(self, tmp_path, small_grid, consts):
        path = tmp_path / "model.json"
        save_model(path, TestModelFiles._model(small_grid), consts)
        saved = json.loads(path.read_text())
        paths = list(_model_paths(saved))
        assert len(paths) == 38 and ("layers", 1) in paths  # the 36 fields and the 2 layers
        for field_path in paths:
            for value in MALFORMED:
                obj = json.loads(json.dumps(saved))
                parent = obj
                for key in field_path[:-1]:
                    parent = parent[key]
                parent[field_path[-1]] = value
                path.write_text(json.dumps(obj))
                self._check(load_model, path, f"{path}: bad model file: ", (field_path, value))


class TestIdRule:
    @pytest.mark.parametrize("pid, text", [(float("nan"), "nan"), (float("inf"), "inf"), (-float("inf"), "-inf"),
                                           (np.float64("nan"), r"np.float64\(nan\)")])
    def test_non_finite_id_rejected_by_writers_and_readers(self, tmp_path, small_grid, pid, text):
        flux = FluxSet(up=np.zeros((2, 3)), down=np.zeros((2, 3)), heat=np.zeros((2, 2)))
        out = tmp_path / "out.jsonl"
        with pytest.raises(DatasetError, match=rf"out.jsonl:record 2: id must be a string, a number or null, "
                                               rf"got {text}$"):
            write_fluxes(out, ["a", pid], flux)
        batch = dataclasses.replace(ProfileBatch.from_profiles([make_profile(small_grid, seed=s) for s in range(2)]),
                                    ids=["a", pid])
        with pytest.raises(DatasetError, match=rf"out.jsonl:record 2: id must be a string, a number or null"):
            write_profiles(out, batch)
        assert list(tmp_path.iterdir()) == []
        path = tmp_path / "flux.jsonl"
        path.write_text("".join(json.dumps({"id": i, "up": [0.0] * 3, "down": [0.0] * 3, "heat": [0.0] * 2}) + "\n"
                                for i in ["a", float(pid)]))
        assert "NaN" in path.read_text() or "Infinity" in path.read_text()
        with pytest.raises(DatasetError, match=rf"flux.jsonl:record 2: id must be a string, a number or null, "
                                               rf"got {float(pid)!r}$"):
            read_fluxes(path)

    def test_ids_that_write_as_json_still_work(self, tmp_path):
        ids = [np.float64(1.5), np.str_("b"), 7, 10 ** 30, -0.5, "", None]
        n = len(ids)
        flux = FluxSet(up=np.zeros((n, 3)), down=np.zeros((n, 3)), heat=np.zeros((n, 2)))
        path = tmp_path / "flux.jsonl"
        write_fluxes(path, ids, flux)

        def constant(name):
            raise AssertionError(f"{name} is not JSON")

        assert [json.loads(line, parse_constant=constant)["id"] for line in path.read_text().splitlines()] == ids
        assert read_fluxes(path)[0] == ids
