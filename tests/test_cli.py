import json
import os
import statistics
import threading

import numpy as np
import pytest

from cre3d import cli, features, io, net, rowblocks
from cre3d.column import FluxSet

from conftest import os_threads, run_python, settle


def run(argv, capsys):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def synth(tmp_path, capsys, n=12, seed=0, levels=10, tag=""):
    paths = {key: tmp_path / f"{key}{tag}.jsonl"
             for key in ("profiles", "truth_lw", "truth_sw")}
    code, out, err = run(["synth", "--profiles", n, "--levels", levels,
                          "--seed", seed,
                          "--out-profiles", paths["profiles"],
                          "--out-truth-lw", paths["truth_lw"],
                          "--out-truth-sw", paths["truth_sw"]], capsys)
    assert code == 0, err
    return paths


class TestSynth:
    def test_outputs_and_determinism(self, tmp_path, capsys):
        a = synth(tmp_path, capsys, seed=3, tag="_a")
        b = synth(tmp_path, capsys, seed=3, tag="_b")
        for key in a:
            assert a[key].read_bytes() == b[key].read_bytes()
        assert len(io.read_profiles(a["profiles"])) == 12

    def test_seed_changes_output(self, tmp_path, capsys):
        a = synth(tmp_path, capsys, seed=1, tag="_a")
        b = synth(tmp_path, capsys, seed=2, tag="_b")
        assert a["profiles"].read_bytes() != b["profiles"].read_bytes()

    def test_truth_ids_match_profiles(self, tmp_path, capsys):
        paths = synth(tmp_path, capsys)
        ids = [p.pid for p in io.read_profiles(paths["profiles"])]
        assert io.read_fluxes(paths["truth_lw"])[0] == ids
        assert io.read_fluxes(paths["truth_sw"])[0] == ids

    @pytest.mark.parametrize("flags, message", [
        (["--decay", 0], "decay must be finite and > 0, got 0.0"),
        (["--decay", -2], "decay must be finite and > 0, got -2.0"),
        (["--decay", "nan"], "decay must be finite and > 0, got nan"),
        (["--decay", "inf"], "decay must be finite and > 0, got inf"),
        (["--amp-lw", "nan"], "amp_lw and amp_sw must be finite, got nan and 3.0"),
        (["--amp-sw=-inf"], "amp_lw and amp_sw must be finite, got 2.0 and -inf"),
        (["--levels", -3], "--levels -3 is below 1"),
        (["--levels", 0], "--levels 0 is below 1"),
    ])
    def test_bad_toy_truth_flags_rejected_before_writing(self, tmp_path, capsys, flags, message):
        outs = [tmp_path / f"{key}.jsonl" for key in ("profiles", "truth_lw", "truth_sw")]
        code, _, err = run(["synth", "--profiles", 5, "--levels", 12] + flags
                           + ["--out-profiles", outs[0], "--out-truth-lw", outs[1], "--out-truth-sw", outs[2]], capsys)
        assert code == 1
        assert err == f"error: ValueError: {message}\n"
        assert list(tmp_path.iterdir()) == []


class TestAugment:
    def test_counts_and_marginals(self, tmp_path, capsys):
        paths = synth(tmp_path, capsys, n=8)
        out = tmp_path / "augmented.jsonl"
        code, _, err = run(["augment", "--input", paths["profiles"],
                            "--copies", 4, "--seed", 5, "--out", out], capsys)
        assert code == 0, err
        originals = io.read_profiles(paths["profiles"])
        enlarged = io.read_profiles(out)
        assert len(enlarged) == 40
        alphas = {p.alpha for p in originals}
        assert all(p.alpha in alphas for p in enlarged)

    def test_copy_id_taken_by_an_original_rejected(self, tmp_path, capsys):
        # ids a and a_c1: the copy of a would repeat a_c1, which no reader accepts
        paths = synth(tmp_path, capsys, n=2)
        lines = paths["profiles"].read_text().splitlines()
        records = [dict(json.loads(line), id=pid) for line, pid in zip(lines, ["a", "a_c1"])]
        paths["profiles"].write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "augmented.jsonl"
        code, _, err = run(["augment", "--input", paths["profiles"],
                            "--copies", 1, "--out", out], capsys)
        assert code == 1
        assert "duplicate id 'a_c1'" in err
        assert not out.exists()


class TestCorrect:
    def test_zero_effect_reproduces_baseline(self, tmp_path, capsys):
        paths = synth(tmp_path, capsys)
        profiles = io.read_profiles(paths["profiles"])
        n, m = len(profiles), profiles.grid.n_hl
        rng = np.random.default_rng(0)
        baseline = tmp_path / "baseline.jsonl"
        io.write_fluxes(baseline, profiles.ids[::-1], FluxSet(
            up=rng.uniform(0, 300, (n, m)), down=rng.uniform(0, 300, (n, m)),
            heat=rng.normal(scale=1e-5, size=(n, m - 1))))
        zeros = tmp_path / "zeros.jsonl"
        io.write_fluxes(zeros, profiles.ids, FluxSet(
            up=np.zeros((n, m)), down=np.zeros((n, m)), heat=np.zeros((n, m - 1))))
        out = tmp_path / "corrected.jsonl"
        code, _, err = run(["correct", "--profiles", paths["profiles"],
                            "--baseline", baseline, "--effects", zeros,
                            "--out", out], capsys)
        assert code == 0, err
        base_ids, base = io.read_fluxes(baseline)
        base_row = {pid: row for row, pid in enumerate(base_ids)}
        out_ids, corrected = io.read_fluxes(out)
        assert out_ids == list(profiles.ids)
        for row, pid in enumerate(out_ids):
            np.testing.assert_array_equal(corrected.up[row], base.up[base_row[pid]])
            np.testing.assert_array_equal(corrected.down[row], base.down[base_row[pid]])

    def test_missing_record_fails_cleanly(self, tmp_path, capsys):
        paths = synth(tmp_path, capsys)
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code, out, err = run(["correct", "--profiles", paths["profiles"],
                              "--baseline", empty, "--effects", empty,
                              "--out", tmp_path / "x.jsonl"], capsys)
        assert code == 1
        assert err.count("\n") == 1
        assert err.startswith("error: DatasetError:")


def null_ids(path):
    """Rewrite a JSON-Lines file with every id set to null."""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    path.write_text("".join(json.dumps({**r, "id": None}) + "\n" for r in records))


class TestNullIds:
    """Records are matched by id, so a null id matches nothing: every null-id
    profile would otherwise get the file's last null-id record."""

    @pytest.mark.parametrize("command", ["correct", "train", "eval"])
    def test_null_id_rejected_naming_the_record(self, tmp_path, capsys, command):
        paths = synth(tmp_path, capsys)
        for key in paths:
            null_ids(paths[key])
        out = tmp_path / "out.json"
        argv = {
            "correct": ["correct", "--profiles", paths["profiles"], "--baseline", paths["truth_lw"],
                        "--effects", paths["truth_lw"], "--out", out],
            "train": ["train", "--profiles", paths["profiles"], "--truth", paths["truth_lw"],
                      "--component", "lw", "--hidden-width", 4, "--max-epochs", 2,
                      "--patience", 1, "--out", out],
            "eval": ["eval", "--truth", paths["truth_lw"], "--pred", paths["truth_sw"],
                     "--out", out],
        }[command]
        code, _, err = run(argv, capsys)
        named = paths["truth_lw"] if command == "eval" else paths["profiles"]
        assert code == 1
        assert err.startswith(f"error: DatasetError: {named}:record 1: id is null")
        assert not out.exists()


class TestGridMismatch:
    """A flux file on another grid than the records it is matched to is
    rejected, naming the flux file."""

    @pytest.mark.parametrize("command", ["correct", "train", "eval"])
    def test_other_grid_rejected_naming_the_file(self, tmp_path, capsys, command):
        paths = synth(tmp_path, capsys, levels=10)
        other = synth(tmp_path, capsys, levels=6, tag="_other")  # same ids, 7 half levels
        out = tmp_path / "out.json"
        argv = {
            "correct": ["correct", "--profiles", paths["profiles"], "--baseline", paths["truth_lw"],
                        "--effects", other["truth_lw"], "--out", out],
            "train": ["train", "--profiles", paths["profiles"], "--truth", other["truth_lw"],
                      "--component", "lw", "--hidden-width", 4, "--max-epochs", 2,
                      "--patience", 1, "--out", out],
            "eval": ["eval", "--truth", paths["truth_lw"], "--pred", other["truth_lw"],
                     "--out", out],
        }[command]
        code, _, err = run(argv, capsys)
        against = paths["truth_lw"] if command == "eval" else paths["profiles"]
        assert code == 1
        assert err == (f"error: DatasetError: {other['truth_lw']}: records have 7 half levels, "
                       f"but the grid of {against} has 11\n")
        assert not out.exists()


class TestErrorReporting:
    def test_malformed_profiles_single_line_stderr(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        code, out, err = run(["augment", "--input", bad, "--copies", 1,
                              "--seed", 0, "--out", tmp_path / "o.jsonl"], capsys)
        assert code == 1
        assert err.count("\n") == 1
        assert err.startswith("error: DatasetError:")

    def test_missing_file_reported(self, tmp_path, capsys):
        code, _, err = run(["augment", "--input", tmp_path / "nope.jsonl",
                            "--copies", 1, "--seed", 0,
                            "--out", tmp_path / "o.jsonl"], capsys)
        assert code == 1
        assert err.startswith("error: FileNotFoundError:")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small synth -> train (both components) -> predict run, shared
    across the end-to-end assertions below."""
    tmp = tmp_path_factory.mktemp("pipeline")
    argv_synth = ["synth", "--profiles", "60", "--levels", "10", "--seed", "0",
                  "--out-profiles", str(tmp / "profiles.jsonl"),
                  "--out-truth-lw", str(tmp / "truth_lw.jsonl"),
                  "--out-truth-sw", str(tmp / "truth_sw.jsonl")]
    assert cli.main(argv_synth) == 0
    for comp in ("lw", "sw"):
        argv_train = ["train", "--profiles", str(tmp / "profiles.jsonl"),
                      "--truth", str(tmp / f"truth_{comp}.jsonl"),
                      "--component", comp, "--hidden-layers", "1",
                      "--hidden-width", "24", "--max-epochs", "40",
                      "--patience", "10", "--batch-size", "32",
                      "--learning-rate", "0.01", "--seed", "0",
                      "--out", str(tmp / f"model_{comp}.json")]
        assert cli.main(argv_train) == 0
    argv_predict = ["predict", "--profiles", str(tmp / "profiles.jsonl"),
                    "--model-lw", str(tmp / "model_lw.json"),
                    "--model-sw", str(tmp / "model_sw.json"),
                    "--out-lw", str(tmp / "pred_lw.jsonl"),
                    "--out-sw", str(tmp / "pred_sw.jsonl")]
    assert cli.main(argv_predict) == 0
    return tmp


class TestEndToEnd:
    def test_models_are_self_describing(self, pipeline):
        model, consts = io.load_model(pipeline / "model_lw.json")
        assert model.schema.component == "lw"
        assert model.meta["split"]["fractions"] == [0.6, 0.2, 0.2]
        assert len(model.meta["split"]["train_ids"]) == 36

    def test_predictions_cover_all_profiles(self, pipeline):
        profiles = io.read_profiles(pipeline / "profiles.jsonl")
        ids, preds = io.read_fluxes(pipeline / "pred_sw.jsonl")
        assert ids == [p.pid for p in profiles]
        assert len(preds.up) == len(profiles)
        for up, p in zip(preds.up, profiles):
            assert up.size == p.grid.n_hl
        assert preds.direct_down is not None

    def test_night_predictions_have_zero_sw(self, pipeline):
        profiles = io.read_profiles(pipeline / "profiles.jsonl")
        ids, preds = io.read_fluxes(pipeline / "pred_sw.jsonl")
        row = {pid: i for i, pid in enumerate(ids)}
        night = [p for p in profiles if p.mu0 <= 0]
        assert night, "the synthetic set should include some night profiles"
        for p in night:
            assert np.all(preds.up[row[p.pid]] == 0.0)
            assert np.all(preds.heat[row[p.pid]] == 0.0)

    def test_predict_bytes_match_per_row_writer(self, pipeline):
        profiles = list(io.read_profiles(pipeline / "profiles.jsonl"))
        model_lw, consts = io.load_model(pipeline / "model_lw.json")
        model_sw, _ = io.load_model(pipeline / "model_sw.json")
        effects = net.predict_flux_effects(model_lw, model_sw, profiles, consts)
        for comp in ("lw", "sw"):
            e = effects[comp]
            text = ""
            for i, p in enumerate(profiles):
                record = {"id": p.pid, "up": e["up"][i].tolist(), "down": e["down"][i].tolist(),
                          "heat": e["heat"][i].tolist()}
                if comp == "sw":
                    record["direct_down"] = e["direct_down"][i].tolist()
                text += json.dumps(record) + "\n"
            assert (pipeline / f"pred_{comp}.jsonl").read_bytes() == text.encode()

    def test_predict_rejects_non_finite_effects(self, pipeline, capsys, monkeypatch):
        predict = net.predict_flux_effects

        def with_nan(*args):
            effects = predict(*args)
            effects["sw"]["heat"][2, 7] = np.nan
            return effects

        monkeypatch.setattr(net, "predict_flux_effects", with_nan)
        ids = io.read_profiles(pipeline / "profiles.jsonl").ids
        code, _, err = run(["predict", "--profiles", pipeline / "profiles.jsonl",
                            "--model-lw", pipeline / "model_lw.json",
                            "--model-sw", pipeline / "model_sw.json",
                            "--out-lw", pipeline / "nan_lw.jsonl",
                            "--out-sw", pipeline / "nan_sw.jsonl"], capsys)
        assert code != 0
        assert f"predicted sw effects of profile {ids[2]!r}: heat contains a non-finite value at level 7" in err
        assert not (pipeline / "nan_sw.jsonl").exists()
        assert not (pipeline / "nan_lw.jsonl").exists()

    def test_eval_report(self, pipeline, capsys):
        out = pipeline / "eval.json"
        code, _, err = run(["eval", "--truth", pipeline / "truth_lw.jsonl",
                            "--pred", pipeline / "pred_lw.jsonl", "--out", out],
                           capsys)
        assert code == 0, err
        report = json.loads(out.read_text())
        assert report["n_profiles"] == 60
        for key in ("up", "down", "up_toa", "down_boa"):
            assert "mabs_pct_error" in report["fluxes"][key]
        assert "heat_K_per_day" in report["heating"]

    def test_eval_per_level_output(self, pipeline, capsys):
        out = pipeline / "eval2.json"
        per_level = pipeline / "per_level.json"
        code, _, err = run(["eval", "--truth", pipeline / "truth_lw.jsonl",
                            "--pred", pipeline / "pred_lw.jsonl", "--out", out,
                            "--per-level", per_level], capsys)
        assert code == 0, err
        levels = json.loads(per_level.read_text())
        n_hl = 11
        assert len(levels["up"]["error"]["mean"]) == n_hl
        assert len(levels["up"]["signal"]["q90"]) == 2

    def test_bench_report(self, pipeline, capsys):
        out = pipeline / "bench.json"
        code, stdout, err = run(["bench", "--profiles", pipeline / "profiles.jsonl",
                                 "--model-lw", pipeline / "model_lw.json",
                                 "--model-sw", pipeline / "model_sw.json",
                                 "--replication", 2, "--repeats", 3, "--out", out],
                                capsys)
        assert code == 0, err
        report = json.loads(out.read_text())
        assert report["n_profiles"] == 120
        assert report["repeats"] == 3
        assert report["ms_per_profile_mean"] > 0.0
        stages = report["stage_ms_per_profile"]
        assert set(stages) == {"normalize", "inference", "denormalize", "postprocess"}
        assert "ms per profile" in stdout

    @pytest.mark.parametrize("command", ["predict", "bench"])
    def test_model_pair_with_other_constants_rejected(self, pipeline, tmp_path,
                                                      capsys, command):
        model = json.loads((pipeline / "model_sw.json").read_text())
        model["constants"]["g"] = 9.7
        other_sw = tmp_path / "model_sw_g97.json"
        other_sw.write_text(json.dumps(model))
        out = {"predict": ["--out-lw", tmp_path / "lw.jsonl", "--out-sw", tmp_path / "sw.jsonl"],
               "bench": ["--replication", 1, "--out", tmp_path / "bench.json"]}[command]
        code, _, err = run([command, "--profiles", pipeline / "profiles.jsonl",
                            "--model-lw", pipeline / "model_lw.json",
                            "--model-sw", other_sw] + out, capsys)
        assert code == 1
        assert err == "error: ValueError: LW and SW model files disagree on physical constants\n"
        assert list(tmp_path.iterdir()) == [other_sw]

    def test_train_is_deterministic(self, pipeline, tmp_path, capsys):
        out = tmp_path / "model_lw2.json"
        code, _, err = run(["train", "--profiles", pipeline / "profiles.jsonl",
                            "--truth", pipeline / "truth_lw.jsonl",
                            "--component", "lw", "--hidden-layers", "1",
                            "--hidden-width", "24", "--max-epochs", "40",
                            "--patience", "10", "--batch-size", "32",
                            "--learning-rate", "0.01", "--seed", "0",
                            "--out", out], capsys)
        assert code == 0, err
        m1, _ = io.load_model(pipeline / "model_lw.json")
        m2, _ = io.load_model(out)
        for w1, w2 in zip(m1.weights, m2.weights):
            np.testing.assert_array_equal(w1, w2)


class TestForkAfterParallelForward:
    def test_predict_joins_forward_workers_before_the_writer_forks(self, pipeline, monkeypatch, started, tmp_path,
                                                                    capsys):
        # 60 profiles in blocks of 8 rows: forward runs 8 blocks on up to 2
        # workers per component, and each file is read or written in parts of
        # at least 10 records. A joined worker's OS thread can stay listed for a
        # few ms, so SW's forward or a writer may find it and run alone; no
        # fork may happen beside it. Under -W "error:This process:DeprecationWarning"
        # (Python 3.12+), such a fork fails the command.
        monkeypatch.setattr(rowblocks, "ROW_CHUNK", 8)
        monkeypatch.setattr(io, "PART_RECORDS", 10)
        threads_at_fork, fork = [], os.fork

        def counted_fork():
            threads_at_fork.append(os_threads())
            return fork()
        monkeypatch.setattr(os, "fork", counted_fork)
        written = []
        for run_no, cpus in enumerate([1] + [2] * 5):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False)
            settle()
            out = {comp: tmp_path / f"{comp}_{run_no}.jsonl" for comp in ("lw", "sw")}
            code, _, err = run(["predict", "--profiles", pipeline / "profiles.jsonl",
                                "--model-lw", pipeline / "model_lw.json", "--model-sw", pipeline / "model_sw.json",
                                "--out-lw", out["lw"], "--out-sw", out["sw"]], capsys)
            assert code == 0, err
            written.append([out[comp].read_bytes() for comp in ("lw", "sw")])
        assert written[1:] == written[:1] * 5
        # on 2 CPUs, each run reads the profiles in 2 parts and LW's forward starts a worker
        assert len(threads_at_fork) >= 5 and len(started) >= 5
        assert threads_at_fork == [1] * len(threads_at_fork)
        assert not any(t.is_alive() for t in started)

    def test_predict_writes_in_parts_after_threaded_postprocess(self, pipeline, monkeypatch, started, tmp_path,
                                                                 capsys):
        # 60 profiles in blocks of 8 rows: every stage of each component runs
        # 8 blocks on 2 workers, SW's postprocess last, right before the LW
        # and SW files are written. Each stage returns once its started thread
        # has left /proc/self/task (the bound is raised so that a loaded
        # machine cannot end that wait early), so the writer finds one OS
        # thread and writes each file in 2 parts of 30 records.
        monkeypatch.setattr(rowblocks, "ROW_CHUNK", 8)
        monkeypatch.setattr(rowblocks, "LISTED_BOUND", 1.0)
        monkeypatch.setattr(io, "PART_RECORDS", 10)
        threads_at_fork, fork = [], os.fork
        parts, in_parts = {}, io._in_parts

        def counted_fork():
            threads_at_fork.append(os_threads())
            return fork()

        def counted_parts(path, work, chunks):
            parts[os.path.basename(path)] = len(chunks)
            return in_parts(path, work, chunks)
        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(io, "_in_parts", counted_parts)
        written = []
        for run_no, cpus in enumerate([1, 2, 2, 2]):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False)
            settle()
            del started[:]
            parts.clear()
            out = {comp: tmp_path / f"{comp}_{run_no}.jsonl" for comp in ("lw", "sw")}
            code, _, err = run(["predict", "--profiles", pipeline / "profiles.jsonl",
                                "--model-lw", pipeline / "model_lw.json", "--model-sw", pipeline / "model_sw.json",
                                "--out-lw", out["lw"], "--out-sw", out["sw"]], capsys)
            assert code == 0, err
            written.append([out[comp].read_bytes() for comp in ("lw", "sw")])
            if cpus == 2:
                # normalize, forward, denormalize and postprocess of LW and SW
                assert len(started) == 8
                assert parts[out["lw"].name] == parts[out["sw"].name] == 2
        assert written[1:] == written[:1] * 3
        assert threads_at_fork == [1] * len(threads_at_fork) and len(threads_at_fork) == 9


def run_bench(pipeline, capsys, out, *flags):
    return run(["bench", "--profiles", pipeline / "profiles.jsonl",
                "--model-lw", pipeline / "model_lw.json", "--model-sw", pipeline / "model_sw.json",
                *flags, "--out", out], capsys)


class TestBench:
    """`cre3d bench` times repeats of the replicated profile set and reads the
    stage times from the inference pipeline's own clock."""

    def report(self, pipeline, capsys, out, *flags):
        code, stdout, err = run_bench(pipeline, capsys, out, *flags)
        assert code == 0, err
        return json.loads(out.read_text()), stdout

    def test_replication_and_timing(self, pipeline, tmp_path, capsys):
        report, _ = self.report(pipeline, capsys, tmp_path / "bench.json", "--replication", 4)
        assert report["n_profiles"] == 4 * len(io.read_profiles(pipeline / "profiles.jsonl"))
        assert report["replication"] == 4
        assert report["repeats"] == 3 == len(report["ms_per_profile_repeats"])
        assert report["ms_per_profile_mean"] > 0.0

    def test_stage_dict_recorded(self, pipeline, tmp_path, capsys):
        report, _ = self.report(pipeline, capsys, tmp_path / "bench.json", "--replication", 2)
        stages = report["stage_ms_per_profile"]
        assert tuple(stages) == net.STAGES
        assert min(stages.values()) >= 0.0
        # the stages run inside each timed repeat
        assert sum(stages.values()) <= report["ms_per_profile_mean"]

    def test_format_string(self, pipeline, tmp_path, capsys):
        report, stdout = self.report(pipeline, capsys, tmp_path / "bench.json", "--replication", 2)
        mean, std = report["ms_per_profile_mean"], report["ms_per_profile_std"]
        assert stdout == f"{mean:.6g} ± {std:.3g} ms per profile\n"
        assert report["normalized_runtime"] == stdout.rstrip("\n")

    def test_std_is_population(self, pipeline, tmp_path, capsys):
        report, _ = self.report(pipeline, capsys, tmp_path / "bench.json", "--repeats", 4)
        ms = report["ms_per_profile_repeats"]
        assert len(ms) == 4
        assert report["ms_per_profile_mean"] == statistics.fmean(ms)
        assert report["ms_per_profile_std"] == statistics.pstdev(ms)

    def test_tuple_of_arrays_replicated(self, pipeline, tmp_path, capsys, monkeypatch):
        calls = []
        stage_seconds = net.stage_seconds

        def recorded(*args):
            calls.append(args)
            return stage_seconds(*args)

        monkeypatch.setattr(net, "stage_seconds", recorded)
        self.report(pipeline, capsys, tmp_path / "bench.json", "--replication", 3)
        assert len(calls) == 3
        model_lw, model_sw, consts = cli._model_pair(pipeline / "model_lw.json", pipeline / "model_sw.json")
        profiles = io.read_profiles(pipeline / "profiles.jsonl")
        rows = (features.build_input_matrix(profiles, model_lw.schema, consts),
                features.build_input_matrix(profiles, model_sw.schema, consts),
                profiles.alpha, profiles.mu0)
        for got, want in zip(calls[0][2:6], rows):
            np.testing.assert_array_equal(got, np.concatenate([want] * 3))

    @pytest.mark.parametrize("flags, workers", [(["--replication", 1], 1), (["--replication", 70], 2)])
    def test_forward_workers_recorded(self, pipeline, monkeypatch, tmp_path, capsys, flags, workers):
        # 70 copies of 60 profiles are 5 blocks: two workers on 2 CPUs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        report, _ = self.report(pipeline, capsys, tmp_path / "bench.json", *flags)
        assert report["threads"]["forward_workers"] == workers

    def test_one_forward_worker_beside_a_host_thread(self, pipeline, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        release = threading.Event()
        host = threading.Thread(target=release.wait, args=(10,))
        host.start()
        try:
            report, _ = self.report(pipeline, capsys, tmp_path / "bench.json", "--replication", 70)
        finally:
            release.set()
            host.join(10)
        assert report["threads"]["forward_workers"] == 1

    def rejected(self, pipeline, capsys, tmp_path, *flags):
        code, _, err = run_bench(pipeline, capsys, tmp_path / "bench.json", *flags)
        assert code == 1
        assert err.startswith("error: ValueError: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []
        return err

    def test_too_few_repeats_rejected(self, pipeline, tmp_path, capsys):
        assert "need at least 3 repeats" in self.rejected(pipeline, capsys, tmp_path, "--repeats", 2)

    def test_replication_below_one_rejected(self, pipeline, tmp_path, capsys):
        assert "--replication must be >= 1" in self.rejected(pipeline, capsys, tmp_path, "--replication", 0)


class TestTrainFlags:
    @pytest.mark.parametrize("command", ["train", "grid-search"])
    def test_patience_defaults_below_max_epochs(self, tmp_path, capsys, command):
        paths = synth(tmp_path, capsys, n=20)
        out = tmp_path / "out.json"
        small = {"train": ["--hidden-layers", 1, "--hidden-width", 8],
                 "grid-search": ["--layers", 1, "--multipliers", 1, "--regs", 1e-5, "--repeats", 1]}
        code, _, err = run([command, "--profiles", paths["profiles"], "--truth", paths["truth_lw"],
                            "--component", "lw", "--max-epochs", 3] + small[command] + ["--out", out],
                           capsys)
        assert code == 0, err
        if command == "train":
            assert json.loads(out.read_text())["training"]["config"]["patience"] == 2

    def test_explicit_patience_not_below_max_epochs_rejected(self, tmp_path, capsys):
        paths = synth(tmp_path, capsys, n=20)
        out = tmp_path / "model.json"
        code, _, err = run(["train", "--profiles", paths["profiles"], "--truth", paths["truth_lw"],
                            "--component", "lw", "--max-epochs", 3, "--patience", 3, "--out", out],
                           capsys)
        assert code == 1
        assert err == "error: ValueError: patience must be smaller than max_epochs\n"
        assert not out.exists()


    @pytest.mark.parametrize("command, flags, message", [
        ("train", ["--patience", -3], "patience -3 is below 0"),
        ("grid-search", ["--patience", -3], "patience -3 is below 0"),
        ("grid-search", ["--simplicity-tolerance", -1], "simplicity tolerance -1.0 is not >= 0"),
        ("grid-search", ["--simplicity-tolerance", "nan"], "simplicity tolerance nan is not >= 0"),
        ("grid-search", ["--regs", 1e-5, "-0.00001"], "regularization factor -1e-05 is below 0"),
        ("grid-search", ["--multipliers", 1, "nan"], "width multiplier nan is not a number"),
        ("grid-search", ["--regs", "nan"], "regularization factor nan is not a number"),
        ("train", ["--learning-rate", "nan"],
         "learning_rate must be > 0 and batch_size >= 1, got nan and 256"),
        ("train", ["--l2", "nan"], "regularization factors must be >= 0, got l1=1e-05, l2=nan"),
        ("train", ["--learning-rate", "inf"], "learning_rate must be finite, got inf"),
    ])
    def test_bad_training_flags_rejected_before_training(self, tmp_path, capsys, monkeypatch,
                                                         command, flags, message):
        paths = synth(tmp_path, capsys, n=20)
        out = tmp_path / "out.json"
        trained = []
        train = net.train
        monkeypatch.setattr(net, "train", lambda *args: trained.append(args) or train(*args))
        small = {"train": ["--hidden-layers", 1, "--hidden-width", 8],
                 "grid-search": ["--layers", 1, "--multipliers", 1, "--regs", 1e-5, "--repeats", 1]}
        code, _, err = run([command, "--profiles", paths["profiles"], "--truth", paths["truth_lw"],
                            "--component", "lw", "--max-epochs", 3] + small[command] + flags
                           + ["--out", out], capsys)
        assert code == 1
        assert err == f"error: ValueError: {message}\n"
        assert trained == []
        assert not out.exists()


class TestTrainArchitecture:
    def test_hidden_layers_alone_keeps_the_reference_width(self, tmp_path, capsys):
        paths = synth(tmp_path, capsys)
        out = tmp_path / "model.json"
        code, _, err = run(["train", "--profiles", paths["profiles"], "--truth", paths["truth_sw"],
                            "--component", "sw", "--hidden-layers", 1, "--max-epochs", 2,
                            "--patience", 1, "--out", out], capsys)
        assert code == 0, err
        model, _ = io.load_model(out)
        width = net.REFERENCE_HIDDEN_WIDTH["sw"]
        assert model.layer_sizes == [model.schema.input_len, width, model.schema.output_len]

    @pytest.mark.parametrize("command, flags, value", [
        ("train", ["--hidden-layers", -1], "-1"),
        ("train", ["--hidden-width", 0], "0"),
        ("train", ["--hidden-width", -3], "-3"),
        ("grid-search", ["--layers", -2], "-2"),
        ("grid-search", ["--multipliers", 0], "0.0"),
    ])
    def test_bad_architecture_rejected(self, tmp_path, capsys, command, flags, value):
        paths = synth(tmp_path, capsys, n=50, levels=20)
        out = tmp_path / "out.json"
        small = {"train": [], "grid-search": ["--layers", 1, "--multipliers", 1, "--regs", 1e-5, "--repeats", 1]}
        code, _, err = run([command, "--profiles", paths["profiles"], "--truth", paths["truth_lw"],
                            "--component", "lw", "--max-epochs", 1, "--patience", 1]
                           + small[command] + flags + ["--out", out], capsys)
        assert code == 1
        assert err.startswith("error: ValueError: ") and err.count("\n") == 1
        assert f" {value} is " in err
        assert not out.exists()


class TestGridSearchCommand:
    def test_small_search_writes_report(self, pipeline, tmp_path, capsys):
        out = tmp_path / "grid.json"
        code, stdout, err = run(
            ["grid-search", "--profiles", pipeline / "profiles.jsonl",
             "--truth", pipeline / "truth_lw.jsonl", "--component", "lw",
             "--variants", 6, "--layers", 1, 2, "--multipliers", 0.5,
             "--regs", 1e-5, "--repeats", 2, "--max-epochs", 5,
             "--patience", 2, "--batch-size", 32, "--out", out], capsys)
        assert code == 0, err
        report = json.loads(out.read_text())
        assert len(report["rows"]) == 2
        assert 0 <= report["selected"] < 2
        assert all(len(r["val_maes"]) == 2 for r in report["rows"])
        assert "selected config" in stdout

    def test_run_that_all_failed_has_a_null_mean(self, pipeline, tmp_path, capsys, monkeypatch):
        train = net.train

        def fails_with_two_layers(model, *args):
            if len(model.weights) == 3:
                raise FloatingPointError("diverged on purpose")
            return train(model, *args)

        monkeypatch.setattr(net, "train", fails_with_two_layers)
        out = tmp_path / "grid.json"
        code, _, err = run(
            ["grid-search", "--profiles", pipeline / "profiles.jsonl",
             "--truth", pipeline / "truth_lw.jsonl", "--component", "lw",
             "--layers", 1, 2, "--multipliers", 0.5, "--regs", 1e-5, "--repeats", 1,
             "--max-epochs", 2, "--patience", 1, "--out", out], capsys)
        assert code == 0, err
        report = json.loads(out.read_text(), parse_constant=not_json)
        assert report["rows"][1]["mean_mae"] is None
        assert report["rows"][1]["errors"] == ["diverged on purpose"]
        assert report["rows"][0]["mean_mae"] == report["rows"][0]["val_maes"][0]


def not_json(name):
    raise AssertionError(f"{name} is not JSON")


class TestEvalReport:
    def test_undefined_percentages_are_null(self, tmp_path, capsys):
        zeros = tmp_path / "zeros.jsonl"
        io.write_fluxes(zeros, ["a", "b"], FluxSet(up=np.zeros((2, 3)), down=np.zeros((2, 3)),
                                                   heat=np.zeros((2, 2))))
        out = tmp_path / "eval.json"
        code, _, err = run(["eval", "--truth", zeros, "--pred", zeros, "--out", out], capsys)
        assert code == 0, err
        report = json.loads(out.read_text(), parse_constant=not_json)
        for stats in (*report["fluxes"].values(), report["heating"]["heat_K_per_day"]):
            assert stats["pct_error"] is None and stats["mabs_pct_error"] is None
            assert stats["mean_error"] == stats["mabs_error"] == 0.0

    def test_overflowing_per_level_statistics_are_null(self, tmp_path, capsys):
        # 1e308 is finite, so the flux reader takes it, but the mean of two overflows
        truth, pred = tmp_path / "truth.jsonl", tmp_path / "pred.jsonl"
        ones = {"up": np.ones((2, 3)), "down": np.ones((2, 3)), "heat": np.ones((2, 2))}
        io.write_fluxes(truth, ["a", "b"], FluxSet(**ones))
        io.write_fluxes(pred, ["a", "b"], FluxSet(**{**ones, "up": np.full((2, 3), 1e308)}))
        out, per_level = tmp_path / "eval.json", tmp_path / "per_level.json"
        code, _, err = run(["eval", "--truth", truth, "--pred", pred, "--out", out,
                            "--per-level", per_level], capsys)
        assert code == 0, err
        assert json.loads(out.read_text(), parse_constant=not_json)["fluxes"]["up"]["mean_error"] is None
        levels = json.loads(per_level.read_text(), parse_constant=not_json)
        assert levels["up"]["prediction"]["mean"] == [None] * 3
        assert levels["up"]["signal"]["mean"] == [1.0] * 3
        assert levels["down"]["error"]["mabs"] == [0.0] * 3


class TestThreadPinning:
    """Every command pins the BLAS to one thread before numpy loads, unless
    the environment sets a count."""

    def test_importing_the_cli_pins_the_blas_before_numpy_loads(self):
        # OpenBLAS reads its thread variables when numpy loads, so the CLI can
        # pin them only if nothing before it (the package) has loaded numpy.
        run_python("""
import os, sys
import cre3d
assert 'numpy' not in sys.modules, 'import cre3d loaded numpy'
seen = []
class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == 'numpy':
            seen.append({var: os.environ.get(var) for var in ('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS')})
sys.meta_path.insert(0, Watch())
import cre3d.cli
assert seen == [{'OMP_NUM_THREADS': '1', 'OPENBLAS_NUM_THREADS': '1'}], seen
assert all(os.environ[var] == '1' for var in cre3d.cli._BLAS_ENV)
assert len(os.listdir('/proc/self/task')) == 1
missing = [n for n in cre3d.__all__ if getattr(cre3d, n, None) is None]
assert not missing, missing
names = {}
exec('from cre3d import *', names)
assert set(cre3d.__all__) <= set(names)
assert cre3d.postprocess.__module__ == 'cre3d.postproc'
""")

    def test_every_subcommand_runs_pinned(self, pipeline, tmp_path):
        # synth writes and predict reads and writes in parts, predict's
        # forward on row workers: every fork sees one OS thread
        run_python("""
import os, sys
import threading
forks, fork = [], os.fork
def counted():
    forks.append(len(os.listdir('/proc/self/task')))
    return fork()
os.fork = counted
os.sched_getaffinity = lambda pid: {0, 1}
from cre3d import cli, io, rowblocks
io.PART_RECORDS, rowblocks.ROW_CHUNK = 10, 8
started = []
class Counted(threading.Thread):
    def start(self):
        started.append(self)
        super().start()
threading.Thread = Counted
src, out = sys.argv[1:]
assert cli.main(['synth', '--profiles', '30', '--levels', '10', '--out-profiles', out + '/p.jsonl',
                 '--out-truth-lw', out + '/lw.jsonl', '--out-truth-sw', out + '/sw.jsonl']) == 0
assert cli.main(['predict', '--profiles', src + '/profiles.jsonl', '--model-lw', src + '/model_lw.json',
                 '--model-sw', src + '/model_sw.json', '--out-lw', out + '/pl.jsonl',
                 '--out-sw', out + '/ps.jsonl']) == 0
assert len(forks) >= 4 and forks == [1] * len(forks), forks
assert started
""", {}, pipeline, tmp_path)

    def test_multi_thread_leaves_the_environment_to_decide(self):
        # an explicit OPENBLAS_NUM_THREADS is the BLAS's count; the other
        # variables are pinned, and forward then runs on the calling thread
        run_python("""
import os
import cre3d.cli
from cre3d import rowblocks
assert {var: os.environ[var] for var in cre3d.cli._BLAS_ENV} == {
    var: '3' if var == 'OPENBLAS_NUM_THREADS' else '1' for var in cre3d.cli._BLAS_ENV}
assert rowblocks.forward_workers(8 * rowblocks.ROW_CHUNK) == 1
""", {"OPENBLAS_NUM_THREADS": "3"})

    def test_bench_report_records_the_effective_env(self, pipeline, monkeypatch, capsys):
        for var in cli._BLAS_ENV:
            monkeypatch.setenv(var, "1")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        monkeypatch.delenv("MKL_NUM_THREADS")
        out = pipeline / "bench_env.json"
        code, _, err = run(["bench", "--profiles", pipeline / "profiles.jsonl",
                            "--model-lw", pipeline / "model_lw.json",
                            "--model-sw", pipeline / "model_sw.json",
                            "--replication", 1, "--repeats", 3, "--out", out], capsys)
        assert code == 0, err
        threads = json.loads(out.read_text())["threads"]
        assert threads["env"] == {var: {"OPENBLAS_NUM_THREADS": "4", "MKL_NUM_THREADS": None}.get(var, "1")
                                  for var in cli._BLAS_ENV}

    def test_the_test_session_runs_one_os_thread(self):
        # conftest pins the BLAS, so fork tests fork a single-threaded process
        assert settle() == 1
        assert rowblocks.usable_cpus() == len(os.sched_getaffinity(0))
