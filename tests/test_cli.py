import json
import os
import signal
import statistics
import subprocess
import sys
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

    @pytest.mark.parametrize("same", [("--out-profiles", "--out-truth-lw"), ("--out-truth-lw", "--out-truth-sw"),
                                      ("--out-profiles", "--out-truth-sw")])
    def test_outputs_naming_one_file_rejected_before_writing(self, tmp_path, capsys, same):
        outs = {flag: tmp_path / f"{flag[2:]}.jsonl" for flag in ("--out-profiles", "--out-truth-lw", "--out-truth-sw")}
        outs[same[1]] = os.path.join(tmp_path, ".", f"{same[0][2:]}.jsonl")
        code, _, err = run(["synth", "--profiles", 5, "--levels", 12] + [a for item in outs.items() for a in item],
                           capsys)
        assert code == 1
        assert err == f"error: ValueError: {same[0]} and {same[1]} name the same file: {outs[same[1]]}\n"
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


def without_q(path, out):
    """Write the profile records of `path` to `out` without their `q`."""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    out.write_text("".join(json.dumps({k: v for k, v in r.items() if k != "q"}) + "\n" for r in records))


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
        ids = io.read_profiles(pipeline / "profiles.jsonl").ids

        def with_nan(model_lw, model_sw, profiles, consts):
            # predict maps the profiles a block at a time: the block that holds profile 2
            effects = predict(model_lw, model_sw, profiles, consts)
            if ids[2] in profiles.ids:
                effects["sw"]["heat"][profiles.ids.index(ids[2]), 7] = np.nan
            return effects

        monkeypatch.setattr(net, "predict_flux_effects", with_nan)
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
        assert err == (f"error: DatasetError: {other_sw}: physical constants differ from those of "
                       f"LW model file {pipeline / 'model_lw.json'}\n")
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


class TestOutputPaths:
    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_outputs_naming_one_file_rejected_before_reading(self, pipeline, tmp_path, capsys, monkeypatch,
                                                             command):
        def no_reading(*args, **kwargs):
            raise AssertionError("an input was read")

        for name in ("load_model", "read_profiles", "read_fluxes", "map_profiles"):
            monkeypatch.setattr(io, name, no_reading)
        (tmp_path / "link.json").symlink_to(tmp_path / "out.json")
        if command == "predict":
            flags = ("--out-lw", "--out-sw")
            argv = ["predict", "--profiles", pipeline / "profiles.jsonl", "--model-lw", pipeline / "model_lw.json",
                    "--model-sw", pipeline / "model_sw.json"]
        else:
            flags = ("--out", "--per-level")
            argv = ["eval", "--truth", pipeline / "truth_lw.jsonl", "--pred", pipeline / "pred_lw.jsonl"]
        code, out, err = run(argv + [flags[0], tmp_path / "out.json", flags[1], tmp_path / "link.json"], capsys)
        assert code == 1 and out == ""
        assert err == f"error: ValueError: {flags[0]} and {flags[1]} name the same file: {tmp_path / 'link.json'}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["link.json"]


class TestModelMismatch:
    """A model that does not fit fails `predict` and `bench` before anything
    is written, naming its file, and the profiles file where it does not
    fit their window."""

    @staticmethod
    def run_with(command, pipeline, tmp_path, capsys, profiles=None, model_lw=None, model_sw=None):
        out = {"predict": ["--out-lw", tmp_path / "lw.jsonl", "--out-sw", tmp_path / "sw.jsonl"],
               "bench": ["--replication", 1, "--out", tmp_path / "bench.json"]}[command]
        before = set(tmp_path.iterdir())
        code, _, err = run([command, "--profiles", profiles or pipeline / "profiles.jsonl",
                            "--model-lw", model_lw or pipeline / "model_lw.json",
                            "--model-sw", model_sw or pipeline / "model_sw.json"] + out, capsys)
        assert code == 1
        assert set(tmp_path.iterdir()) == before
        return err

    @pytest.mark.parametrize("command", ["predict", "bench"])
    def test_swapped_models_name_the_file_in_the_lw_place(self, pipeline, tmp_path, capsys, command):
        err = self.run_with(command, pipeline, tmp_path, capsys,
                            model_lw=pipeline / "model_sw.json", model_sw=pipeline / "model_lw.json")
        assert err == f"error: DatasetError: {pipeline / 'model_sw.json'}: expected a 'lw' model, got 'sw'\n"

    @pytest.mark.parametrize("command", ["predict", "bench"])
    def test_profiles_on_another_grid_name_the_model_and_the_profiles(self, pipeline, tmp_path, capsys,
                                                                      command):
        other = synth(tmp_path, capsys, levels=16, tag="_16")["profiles"]
        err = self.run_with(command, pipeline, tmp_path, capsys, profiles=other)
        assert err == (f"error: DatasetError: {pipeline / 'model_lw.json'}: the profiles' window "
                       f"(4 full levels) is not the one the lw model was trained on (3 full levels): "
                       f"their half-level pressures differ (profiles: {other})\n")

    @pytest.mark.parametrize("command", ["predict", "bench"])
    def test_sw_model_on_a_shifted_window_names_its_file(self, pipeline, tmp_path, capsys, command):
        model = json.loads((pipeline / "model_sw.json").read_text())
        model["schema"]["p_hl_window"][-2] *= 1.001  # same size, one pressure moved
        shifted = tmp_path / "model_sw_shifted.json"
        shifted.write_text(json.dumps(model))
        err = self.run_with(command, pipeline, tmp_path, capsys, model_sw=shifted)
        assert err == (f"error: DatasetError: {shifted}: the profiles' window (3 full levels) is not the one "
                       f"the sw model was trained on (3 full levels): their half-level pressures differ "
                       f"(profiles: {pipeline / 'profiles.jsonl'})\n")

    @pytest.mark.parametrize("command", ["predict", "bench"])
    def test_model_with_q_on_profiles_without_q_names_the_model_and_the_profiles(self, pipeline, tmp_path,
                                                                               capsys, command):
        model_lw, consts = io.load_model(pipeline / "model_lw.json")
        schema = features.schema_for_grid("lw", model_lw.schema.window_grid, include_humidity=True)
        with_q = net.init_model([schema.input_len, 4, schema.output_len], 0, schema=schema)
        with_q.norm_in = features.Normalization(np.zeros(schema.input_len), np.ones(schema.input_len))
        with_q.norm_out = model_lw.norm_out
        io.save_model(tmp_path / "model_lw_q.json", with_q, consts)
        dry = tmp_path / "dry.jsonl"
        without_q(pipeline / "profiles.jsonl", dry)
        err = self.run_with(command, pipeline, tmp_path, capsys, profiles=dry, model_lw=tmp_path / "model_lw_q.json")
        assert err == (f"error: DatasetError: {tmp_path / 'model_lw_q.json'}: the lw model needs specific "
                       f"humidity (q), but the profiles have none (profiles: {dry})\n")

    def test_reversed_training_window_fails_as_the_model_loads(self, pipeline, tmp_path, capsys):
        model = json.loads((pipeline / "model_lw.json").read_text())
        model["schema"]["p_hl_window"].reverse()
        reversed_lw = tmp_path / "model_lw_reversed.json"
        reversed_lw.write_text(json.dumps(model))
        err = self.run_with("predict", pipeline, tmp_path, capsys, model_lw=reversed_lw)
        assert err == (f"error: DatasetError: {reversed_lw}: bad model file: schema.p_hl_window is no window "
                       f"grid: half-level pressures must increase strictly; violated at index 0\n")


class TestTrainedWindow:
    @pytest.mark.parametrize("component", ["lw", "sw"])
    def test_train_records_the_profiles_window(self, tmp_path, capsys, component):
        # what `synth` writes and `train` reads: the model file holds the window's half-level pressures
        paths = {key: tmp_path / f"{key}.jsonl" for key in ("profiles", "truth_lw", "truth_sw")}
        code, _, err = run(["synth", "--profiles", 300, "--seed", 0, "--out-profiles", paths["profiles"],
                            "--out-truth-lw", paths["truth_lw"], "--out-truth-sw", paths["truth_sw"]], capsys)
        assert code == 0, err
        out = tmp_path / "model.json"
        code, _, err = run(["train", "--profiles", paths["profiles"], "--truth", paths[f"truth_{component}"],
                            "--component", component, "--max-epochs", 2, "--out", out], capsys)
        assert code == 0, err
        window = io.read_profiles(paths["profiles"]).grid.window()
        assert window.n_fl == 90
        assert json.loads(out.read_text())["schema"]["p_hl_window"] == window.p_hl.tolist()


def predict_whole_file(pipeline, out):
    """The library's read-all path: read every profile, predict them in one
    `net.predict_flux_effects` call and write each component with
    `io.write_fluxes`; `out` maps "lw" and "sw" to the files to write."""
    model_lw, model_sw, consts = cli._model_pair(pipeline / "model_lw.json", pipeline / "model_sw.json")
    profiles = io.read_profiles(pipeline / "profiles.jsonl")
    effects = net.predict_flux_effects(model_lw, model_sw, profiles, consts)
    for comp in ("lw", "sw"):
        io.write_fluxes(out[comp], profiles.ids, FluxSet(**effects[comp]))


class TestForkAfterParallelForward:
    def test_predict_joins_forward_workers_before_the_writer_forks(self, pipeline, monkeypatch, started, tmp_path):
        # 60 profiles in blocks of 8 rows: forward runs 8 blocks on up to 2
        # workers per component, and each file is read or written in parts of
        # at least 10 records. A joined worker's OS thread can stay listed for a
        # few ms, so SW's forward or a writer may find it and run alone; no
        # fork may happen beside it. Under -W "error:This process:DeprecationWarning"
        # (Python 3.12+), such a fork fails the write.
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
            predict_whole_file(pipeline, out)
            written.append([out[comp].read_bytes() for comp in ("lw", "sw")])
        assert written[1:] == written[:1] * 5
        # on 2 CPUs, each run reads the profiles in 2 parts and LW's forward starts a worker
        assert len(threads_at_fork) >= 5 and len(started) >= 5
        assert threads_at_fork == [1] * len(threads_at_fork)
        assert not any(t.is_alive() for t in started)

    def test_predict_writes_in_parts_after_threaded_postprocess(self, pipeline, monkeypatch, started, tmp_path):
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
            predict_whole_file(pipeline, out)
            written.append([out[comp].read_bytes() for comp in ("lw", "sw")])
            if cpus == 2:
                # normalize, forward, denormalize and postprocess of LW and SW
                assert len(started) == 8
                assert parts[out["lw"].name] == parts[out["sw"].name] == 2
        assert written[1:] == written[:1] * 3
        # on each 2-CPU run: one fork to load the SW model, one to read the profiles, one to write each file
        assert threads_at_fork == [1] * len(threads_at_fork) and len(threads_at_fork) == 12


class TestPredictInParts:
    """`predict` reads, maps and writes the profile file one part at a time,
    each part in blocks of ROW_CHUNK records: here 60 profiles in blocks of
    8, in 2 parts of about 30 records on 2 CPUs."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """How many parts each `_in_parts` call ran, and the OS threads listed at each fork."""
        monkeypatch.setattr(rowblocks, "ROW_CHUNK", 8)
        monkeypatch.setattr(io, "PART_RECORDS", 10)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        seen = {"parts": [], "threads_at_fork": []}
        fork, in_parts = os.fork, io._in_parts

        def counted_fork():
            seen["threads_at_fork"].append(os_threads())
            return fork()

        def counted_parts(path, work, chunks):
            seen["parts"].append(len(chunks))
            return in_parts(path, work, chunks)
        monkeypatch.setattr(os, "fork", counted_fork)
        monkeypatch.setattr(io, "_in_parts", counted_parts)
        return seen

    @staticmethod
    def predict(pipeline, out_dir, capsys, profiles=None):
        """Run `predict` into out_dir: its exit code, its stderr and the bytes it wrote."""
        out = {comp: out_dir / f"pred_{comp}.jsonl" for comp in ("lw", "sw")}
        code, _, err = run(["predict", "--profiles", profiles or pipeline / "profiles.jsonl",
                            "--model-lw", pipeline / "model_lw.json",
                            "--model-sw", pipeline / "model_sw.json",
                            "--out-lw", out["lw"], "--out-sw", out["sw"]], capsys)
        return code, err, [out[comp].read_bytes() for comp in ("lw", "sw")] if code == 0 else None

    @staticmethod
    def edited(pipeline, tmp_path, edits):
        """A copy of the pipeline's profiles in a directory of its own, record
        n replaced by `edits[n](record)`: a new record, or a line of text."""
        lines = (pipeline / "profiles.jsonl").read_text().splitlines()
        for n, edit in edits.items():
            new = edit(json.loads(lines[n - 1]))
            lines[n - 1] = new if isinstance(new, str) else json.dumps(new)
        path = tmp_path / "in" / "profiles.jsonl"
        path.parent.mkdir()
        path.write_text("".join(line + "\n" for line in lines))
        return path

    def fails_cleanly(self, pipeline, tmp_path, capsys, profiles=None):
        """The stderr of a `predict` into tmp_path that fails and leaves no
        new file there: no output and no part file."""
        before = sorted(p.name for p in tmp_path.iterdir())
        code, err, _ = self.predict(pipeline, tmp_path, capsys, profiles)
        assert code == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        return err

    @staticmethod
    def bad_f_c(record):
        return {**record, "f_c": [7.0] + record["f_c"][1:]}

    def test_forks_once_per_further_part_on_one_thread(self, pipeline, monkeypatch, started, tmp_path, capsys,
                                                       seen):
        # Every block holds at most ROW_CHUNK rows, so no row worker starts
        # and each fork finds one OS thread. Under
        # -W "error:This process:DeprecationWarning" (Python 3.12+), a fork
        # beside another thread fails the command.
        written = []
        for run_no, cpus in enumerate([1, 2, 2, 2, 2, 1]):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)), raising=False)
            settle()
            seen["parts"].clear()
            seen["threads_at_fork"].clear()
            (tmp_path / str(run_no)).mkdir()
            code, err, out = self.predict(pipeline, tmp_path / str(run_no), capsys)
            assert code == 0, err
            written.append(out)
            # on 2 CPUs the model pair loads in 2 parts first (see TestModelPair)
            assert seen["parts"] == [2] * (cpus > 1) + [cpus]
            assert seen["threads_at_fork"] == [1] * ((cpus > 1) + cpus - 1)
        assert started == []
        assert written[1:] == written[:1] * 5

    def test_bad_value_in_part_2_is_named_by_its_record_in_the_file(self, pipeline, tmp_path, capsys, seen):
        bad = self.edited(pipeline, tmp_path, {50: self.bad_f_c})
        err = self.fails_cleanly(pipeline, tmp_path, capsys, profiles=bad)
        assert seen["parts"] == [2, 2]
        with pytest.raises(io.DatasetError) as read:
            io.read_profiles(bad)
        assert err == f"error: DatasetError: {read.value}\n"
        assert err.startswith(f"error: DatasetError: {bad}:record 50: f_c must lie in [0, 1]")

    def test_duplicate_of_an_id_in_part_1(self, pipeline, tmp_path, capsys, seen):
        ids = io.read_profiles(pipeline / "profiles.jsonl").ids
        seen["parts"].clear()
        bad = self.edited(pipeline, tmp_path, {50: lambda record: {**record, "id": ids[2]}})
        err = self.fails_cleanly(pipeline, tmp_path, capsys, profiles=bad)
        assert seen["parts"] == [2, 2]
        assert err == f"error: DatasetError: {bad}:record 50: duplicate id {ids[2]!r} (first in record 3)\n"

    def test_value_rule_in_part_1_named_before_invalid_json_in_part_2(self, pipeline, tmp_path, capsys, seen):
        bad = self.edited(pipeline, tmp_path, {5: self.bad_f_c, 50: lambda record: "{not json"})
        err = self.fails_cleanly(pipeline, tmp_path, capsys, profiles=bad)
        assert seen["parts"] == [2, 2]
        assert err.startswith(f"error: DatasetError: {bad}:record 5: f_c must lie in [0, 1]")

    def test_model_that_does_not_fit_fails_before_any_fork(self, pipeline, tmp_path, capsys, seen):
        other = synth(tmp_path, capsys, n=60, levels=16, tag="_16")["profiles"]
        seen["parts"].clear()
        seen["threads_at_fork"].clear()
        err = self.fails_cleanly(pipeline, tmp_path, capsys, profiles=other)
        # the one part call and fork are the model pair's; the profile file is never split
        assert seen == {"parts": [2], "threads_at_fork": [1]}
        assert err == (f"error: DatasetError: {pipeline / 'model_lw.json'}: the profiles' window "
                       f"(4 full levels) is not the one the lw model was trained on (3 full levels): "
                       f"their half-level pressures differ (profiles: {other})\n")

    def test_non_finite_effect_in_part_2_keeps_its_message(self, pipeline, tmp_path, capsys, monkeypatch, seen):
        predict, ids = net.predict_flux_effects, io.read_profiles(pipeline / "profiles.jsonl").ids

        def with_nan(model_lw, model_sw, profiles, consts):
            effects = predict(model_lw, model_sw, profiles, consts)
            if ids[50] in profiles.ids:
                effects["sw"]["heat"][profiles.ids.index(ids[50]), 7] = np.nan
            return effects

        monkeypatch.setattr(net, "predict_flux_effects", with_nan)
        seen["parts"].clear()
        err = self.fails_cleanly(pipeline, tmp_path, capsys)
        assert seen["parts"] == [2, 2]
        assert err == (f"error: ValueError: predicted sw effects of profile {ids[50]!r}: "
                       f"heat contains a non-finite value at level 7\n")

    def test_fifo_is_read_in_one_part_in_blocks(self, pipeline, tmp_path, capsys, monkeypatch, seen):
        rows, predict = [], net.predict_flux_effects

        def counted(model_lw, model_sw, profiles, consts):
            rows.append(len(profiles))
            return predict(model_lw, model_sw, profiles, consts)

        monkeypatch.setattr(net, "predict_flux_effects", counted)
        (tmp_path / "file").mkdir()
        code, err, from_file = self.predict(pipeline, tmp_path / "file", capsys)
        assert code == 0, err
        assert seen["parts"] == [2, 2]
        fifo = tmp_path / "profiles.fifo"
        os.mkfifo(fifo)
        feed = ("import shutil, sys\n"
                "with open(sys.argv[1], 'rb') as src, open(sys.argv[2], 'wb') as dst:\n"
                "    shutil.copyfileobj(src, dst)\n")
        seen["parts"].clear()
        seen["threads_at_fork"].clear()
        del rows[:]
        (tmp_path / "fifo").mkdir()
        with subprocess.Popen([sys.executable, "-c", feed, str(pipeline / "profiles.jsonl"), str(fifo)]) as feeder:
            try:
                code, err, from_fifo = self.predict(pipeline, tmp_path / "fifo", capsys, profiles=fifo)
            except BaseException:
                feeder.kill()
                raise
        assert feeder.returncode == 0
        assert code == 0, err
        assert seen == {"parts": [2, 1], "threads_at_fork": [1]}  # the model pair's, then the FIFO in one part
        assert rows == [1] + [8] * 7 + [3]  # record 1 alone, then blocks of ROW_CHUNK
        assert from_fifo == from_file


def assert_same(a, b, where="pair"):
    """`a` and `b` are equal values of the same types, their arrays of the
    same dtype, shape, bits, writeable flag and layout."""
    assert type(a) is type(b), where
    if isinstance(a, np.ndarray):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), where
        assert (a.flags.writeable, a.flags.c_contiguous) == (b.flags.writeable, b.flags.c_contiguous), where
    elif isinstance(a, dict):
        assert list(a) == list(b), where
        for key in a:
            assert_same(a[key], b[key], f"{where}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            assert_same(x, y, f"{where}[{i}]")
    elif hasattr(a, "__dict__"):
        assert_same(vars(a), vars(b), where)
    else:
        assert a == b, where


class TestModelPair:
    """`cli._model_pair` (`predict` and `bench`) loads LW here and SW in a
    forked part on more than one usable CPU, and gives what two one-process
    `io.load_model` calls give: the same models, constants and errors."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """The pid of each child forked while the test runs."""
        pids, fork = [], os.fork

        def counted_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid
        monkeypatch.setattr(os, "fork", counted_fork)
        return pids

    @staticmethod
    def assert_reaped(pids):
        for pid in pids:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    @staticmethod
    def alone(pipeline, lw=None, sw=None):
        """What `_model_pair` must give: two one-process loads, LW first."""
        model_lw, consts = io.load_model(lw or pipeline / "model_lw.json")
        return model_lw, io.load_model(sw or pipeline / "model_sw.json")[0], consts

    @staticmethod
    def bad_file(pipeline, directory, kind):
        """A model file in a new `directory` that fails to load: one with a
        bad field, one that is no JSON, or one that is missing."""
        directory.mkdir()
        path = directory / f"{kind}.json"
        if kind == "field":
            model = json.loads((pipeline / "model_sw.json").read_text())
            model["layers"][0]["rows"] = 0
            path.write_text(json.dumps(model))
        elif kind == "json":
            path.write_text("{not json")
        return path

    @pytest.mark.parametrize("count", [2, 1])
    def test_same_models_constants_and_flags_as_one_process_loads(self, pipeline, cpus, forks, count):
        cpus(count)
        pair = cli._model_pair(pipeline / "model_lw.json", pipeline / "model_sw.json")
        assert len(forks) == count - 1
        self.assert_reaped(forks)
        assert_same(pair, self.alone(pipeline))
        # both flags occur, so the comparison above tells them apart
        assert pair[1].weights[0].flags.writeable and not pair[1].schema.window_grid.p_hl.flags.writeable

    @pytest.mark.parametrize("count", [2, 1])
    @pytest.mark.parametrize("bad", ["lw", "sw", "both"])
    @pytest.mark.parametrize("kind", ["field", "json", "missing"])
    def test_bad_file_fails_as_it_fails_alone(self, pipeline, tmp_path, cpus, forks, count, bad, kind):
        lw, sw = (self.bad_file(pipeline, tmp_path / which, kind) if bad in (which, "both")
                  else pipeline / f"model_{which}.json" for which in ("lw", "sw"))
        with pytest.raises(Exception) as alone:
            self.alone(pipeline, lw, sw)
        assert str(lw if bad != "sw" else sw) in str(alone.value)  # LW's error first
        cpus(count)
        with pytest.raises(type(alone.value)) as pair:
            cli._model_pair(lw, sw)
        assert type(pair.value) is type(alone.value) and str(pair.value) == str(alone.value)
        assert len(forks) == count - 1
        self.assert_reaped(forks)

    @pytest.mark.parametrize("count", [2, 1])
    def test_other_constants_keep_their_message(self, pipeline, tmp_path, cpus, count):
        model = json.loads((pipeline / "model_sw.json").read_text())
        model["constants"]["g"] = 9.7
        other_sw = tmp_path / "model_sw_g97.json"
        other_sw.write_text(json.dumps(model))
        cpus(count)
        with pytest.raises(io.DatasetError) as pair:
            cli._model_pair(pipeline / "model_lw.json", other_sw)
        assert str(pair.value) == (f"{other_sw}: physical constants differ from those of LW model file "
                                   f"{pipeline / 'model_lw.json'}")

    def test_one_usable_cpu_forks_nothing(self, pipeline, monkeypatch, cpus, forks):
        cpus(2)
        monkeypatch.setattr(rowblocks, "usable_cpus", lambda: 1)
        calls, in_parts = [], io._in_parts
        monkeypatch.setattr(io, "_in_parts", lambda *args: calls.append(args) or in_parts(*args))
        pair = cli._model_pair(pipeline / "model_lw.json", pipeline / "model_sw.json")
        assert forks == [] and calls == []
        assert_same(pair, self.alone(pipeline))

    @pytest.mark.parametrize("fails", ["lw", "sw", "sw killed"])
    def test_no_child_is_left_after_a_failed_part(self, pipeline, tmp_path, monkeypatch, cpus, forks, fails):
        # LW fails here while SW's part may still run; SW fails in its part;
        # or SW's part dies of a signal, and SW then loads here
        bad = self.bad_file(pipeline, tmp_path / "bad", "json")
        lw, sw = pipeline / "model_lw.json", pipeline / "model_sw.json"
        parent, load = os.getpid(), io.load_model

        def killed_in_a_child(path):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return load(path)
        if fails == "sw killed":
            monkeypatch.setattr(io, "load_model", killed_in_a_child)
        cpus(2)
        if fails == "sw killed":
            assert_same(cli._model_pair(lw, sw), self.alone(pipeline))
        else:
            with pytest.raises(io.DatasetError, match="invalid JSON"):
                cli._model_pair(*((bad, sw) if fails == "lw" else (lw, bad)))
        assert len(forks) == 1
        self.assert_reaped(forks)


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


class TestTrainingInputs:
    """`train` and `grid-search` read their inputs through one front end,
    which names the file that cannot build the requested set before any
    training."""

    SMALL = {"train": ["--hidden-layers", 1, "--hidden-width", 8],
             "grid-search": ["--layers", 1, "--multipliers", 1, "--regs", 1e-5, "--repeats", 1]}

    def run_with(self, command, tmp_path, capsys, monkeypatch, profiles, truth, component, *flags):
        trained = []
        train = net.train
        monkeypatch.setattr(net, "train", lambda *args: trained.append(args) or train(*args))
        out = tmp_path / "out.json"
        code, _, err = run([command, "--profiles", profiles, "--truth", truth, "--component", component,
                            "--max-epochs", 2, "--patience", 1] + self.SMALL[command] + list(flags)
                           + ["--out", out], capsys)
        return code, err, trained, out

    @pytest.mark.parametrize("command", ["train", "grid-search"])
    def test_shortwave_truth_without_direct_down_names_the_truth(self, tmp_path, capsys, monkeypatch, command):
        paths = synth(tmp_path, capsys, n=3, seed=2)
        code, err, trained, out = self.run_with(command, tmp_path, capsys, monkeypatch,
                                                paths["profiles"], paths["truth_lw"], "sw")
        assert code == 1
        assert err == (f"error: DatasetError: {paths['truth_lw']}: shortwave targets need direct_down, "
                       f"but the records have none\n")
        assert trained == [] and not out.exists()

    @pytest.mark.parametrize("variants", [[7], [6, 8]])
    def test_variant_with_q_on_profiles_without_q_names_the_profiles(self, tmp_path, capsys, monkeypatch,
                                                                     variants):
        paths = synth(tmp_path, capsys, n=20)
        dry = tmp_path / "dry.jsonl"
        without_q(paths["profiles"], dry)
        code, err, trained, out = self.run_with("grid-search", tmp_path, capsys, monkeypatch, dry,
                                                paths["truth_lw"], "lw", "--variants", *variants)
        assert code == 1
        assert err == (f"error: DatasetError: {dry}: input variant {variants[-1]} needs specific humidity (q), "
                       f"but the records have none\n")
        assert trained == [] and not out.exists()

    @pytest.mark.parametrize("command", ["train", "grid-search"])
    def test_inputs_without_q_train_on_variant_6(self, tmp_path, capsys, monkeypatch, command):
        paths = synth(tmp_path, capsys, n=20)
        dry = tmp_path / "dry.jsonl"
        without_q(paths["profiles"], dry)
        code, err, trained, out = self.run_with(command, tmp_path, capsys, monkeypatch, dry,
                                                paths["truth_sw"], "sw")
        assert code == 0, err
        assert len(trained) == 1 and out.exists()


class TestGridSearchCommand:
    def test_report_keys_follow_the_dataclass_fields(self, pipeline, tmp_path, capsys):
        out = tmp_path / "grid.json"
        code, _, err = run(
            ["grid-search", "--profiles", pipeline / "profiles.jsonl",
             "--truth", pipeline / "truth_sw.jsonl", "--component", "sw",
             "--variants", 6, 8, "--layers", 0, "--multipliers", 0.5, "--regs", 1e-5,
             "--repeats", 1, "--max-epochs", 2, "--patience", 1, "--out", out], capsys)
        assert code == 0, err
        report = json.loads(out.read_text())
        assert list(report) == ["selected", "rows"]
        assert len(report["rows"]) == 2
        for row in report["rows"]:
            assert list(row) == ["input_variant", "n_inputs", "n_layers", "multiplier", "width", "reg",
                                 "val_maes", "mean_mae", "errors"]

    @pytest.mark.parametrize("flags, axis, value", [
        (["--variants", 6, 6], "input_variants", "6"),
        (["--layers", 1, 1], "hidden_layer_counts", "1"),
        (["--multipliers", 0.5, 1, 0.5], "width_multipliers", "0.5"),
        (["--regs", 1e-5, "0.00001"], "reg_factors", "1e-05"),
    ])
    def test_repeated_axis_value_rejected_before_reading_or_training(self, tmp_path, capsys, monkeypatch,
                                                                     flags, axis, value):
        paths = synth(tmp_path, capsys, n=5, seed=2, levels=1)
        read, trained = [], []
        read_profiles, train = io.read_profiles, net.train
        monkeypatch.setattr(io, "read_profiles", lambda *args: read.append(args) or read_profiles(*args))
        monkeypatch.setattr(net, "train", lambda *args: trained.append(args) or train(*args))
        out = tmp_path / "grid.json"
        argv = {"--variants": [6], "--layers": [1], "--multipliers": [0.5], "--regs": [1e-5]}
        argv[flags[0]] = flags[1:]
        code, _, err = run(["grid-search", "--profiles", paths["profiles"], "--truth", paths["truth_lw"],
                            "--component", "lw", "--repeats", 1, "--max-epochs", 2]
                           + [a for flag, values in argv.items() for a in [flag, *values]] + ["--out", out], capsys)
        assert code == 1
        assert err == f"error: ValueError: grid axis {axis} repeats the value {value}\n"
        assert read == [] and trained == [] and not out.exists()

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
assert cre3d.EffectTargets.__module__ == 'cre3d.postproc'
""")

    def test_every_subcommand_runs_pinned(self, pipeline, tmp_path):
        # synth writes and predict reads and writes in parts, on no row
        # worker: every fork sees one OS thread
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
assert not started
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
