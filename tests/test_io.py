import json
import os
import signal
import stat
import sys
import threading
from collections.abc import Sequence

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
    write_jsonl,
    write_profiles,
)
from cre3d.net import init_model

from conftest import make_profile


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
        write_jsonl(path, records)
        assert [json.loads(line) for line in path.read_text().splitlines()] == records

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "hello")
        assert path.read_text() == "hello"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_streaming_write_leaves_nothing(self, tmp_path):
        class Records(Sequence):
            def __len__(self):
                return 2

            def __getitem__(self, i):
                if i == 1:
                    raise RuntimeError("producer failed")
                return {"a": 1}

        path = tmp_path / "out.jsonl"
        with pytest.raises(RuntimeError, match="producer failed"):
            write_jsonl(path, Records())
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_written_files_follow_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            atomic_write_text(tmp_path / "text.txt", "hello")
            write_jsonl(tmp_path / "records.jsonl", [{"a": 1}])
        finally:
            os.umask(old)
        for name in ("text.txt", "records.jsonl"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode


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
        write_fluxes(path, [f"p{i}" for i in range(5)], flux)
        assert len(forks) == 4

    def test_file_smaller_than_one_part_is_not_split(self, tmp_path, monkeypatch, forks):
        monkeypatch.setattr(cre3d_io, "PART_RECORDS", 10)
        flux = FluxSet(up=np.zeros((5, 3)), down=np.zeros((5, 3)), heat=np.zeros((5, 2)))
        path = tmp_path / "flux.jsonl"
        write_fluxes(path, [f"p{i}" for i in range(5)], flux)
        assert read_fluxes(path)[0] == [f"p{i}" for i in range(5)]
        assert forks == []


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

        class Records(Sequence):
            def __len__(self):
                return 3

            def __getitem__(self, i):
                if i == 1 and os.getpid() != parent:
                    _fault(kind)
                return {"a": i}

        with pytest.raises(RuntimeError, match=rf"out.jsonl: part 2 of 3 failed: {self.REPORTS[kind]}$"):
            write_jsonl(tmp_path / "out.jsonl", Records())
        assert len(forks) == 2
        assert list(tmp_path.iterdir()) == []

    def test_failed_part_0_of_a_write_stops_the_children(self, tmp_path, forks):
        class Records(Sequence):
            def __len__(self):
                return 3

            def __getitem__(self, i):
                if i == 0:
                    raise RuntimeError("producer failed")
                return {"a": i}

        with pytest.raises(RuntimeError, match="^producer failed$"):
            write_jsonl(tmp_path / "out.jsonl", Records())
        assert len(forks) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", sorted(REPORTS))
    def test_failed_child_of_a_read(self, tmp_path, monkeypatch, forks, kind):
        path = tmp_path / "flux.jsonl"
        path.write_text("".join(line + "\n" for line in _flux_lines([f"p{i}" for i in range(4)])))
        parent, parse_rows = os.getpid(), cre3d_io._parse_rows

        def faulty(lines, parse):
            if os.getpid() != parent:
                _fault(kind)
            return parse_rows(lines, parse)

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

    def test_constants_round_trip_non_default(self, tmp_path, small_grid):
        model = self._model(small_grid)
        consts = PhysConsts(g=9.80665)
        path = tmp_path / "model.json"
        save_model(path, model, consts)
        _, back = load_model(path)
        assert back.g == 9.80665
