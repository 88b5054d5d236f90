import csv
import json
import os

import numpy as np
import pytest

from echokit import checkpoint, cli, convops
from echokit.ef import EfModel, EfModelConfig
from echokit.errors import ConfigurationError, ShapeError
from echokit.lvd import LvdModel, LvdModelConfig
from echokit.report import Report, jsonable
from echokit.synth import EfSceneParams, gen_ef_video
from echokit.tensorio import read_tensor, write_tensor


def run(argv):
    return cli.main(argv)


def read_report(path):
    return Report(**json.loads(path.read_text()))


def assert_failed_report(path, error, message_part):
    report = read_report(path)
    assert report.passed is False
    assert report.metrics["error"] == error
    assert message_part in report.metrics["message"]


class TestOracleCheck:
    def test_small_run_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["oracle-check", "--trials", "5", "--max-dim", "8",
                    "--max-kernel", "3", "--seed", "42", "--out", str(out)])
        assert code == 0
        report = read_report(out)
        assert report.verdicts["factorization_equivalence"]
        assert report.verdicts["control_detects_mismatch"]
        assert report.metrics["max_rel_err"] <= 1e-10
        assert report.metrics["control_rel_err"] > 1e-6

    def test_deterministic_given_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["oracle-check", "--trials", "3", "--seed", "7", "--out", str(a)])
        run(["oracle-check", "--trials", "3", "--seed", "7", "--out", str(b)])
        assert (
            read_report(a).canonical_json() == read_report(b).canonical_json()
        )


class TestBench:
    def test_counts_and_ratio_16_cubed(self, tmp_path):
        out = tmp_path / "bench.json"
        code = run(["bench", "--video-dims", "16", "16", "16",
                    "--kernel-dims", "3", "3", "3", "--repeats", "2", "--out", str(out)])
        assert code == 0
        report = read_report(out)
        assert report.verdicts["count_full_matches_model"]
        assert report.verdicts["count_factored_matches_model"]
        assert report.metrics["count_ratio"] == pytest.approx(27 / 12)
        assert report.metrics["count_full"] == 27 * 16**3
        assert report.metrics["count_factored"] == 12 * 16**3

    def test_forms_alternate_on_every_repeat(self, monkeypatch):
        calls = []

        def spy(name, real):
            def call(*args):
                calls.append(name)
                return real(*args)
            return call

        monkeypatch.setattr(convops, "conv3d_full", spy("full", convops.conv3d_full))
        monkeypatch.setattr(convops, "conv_factored", spy("factored", convops.conv_factored))
        result = cli.run_bench((6, 6, 6), (3, 3, 3), repeats=3, padding="same", seed=0)
        # one counted call of each form, then one timed call of each per repeat
        assert calls == ["full", "factored"] * 4
        assert result["wall_full_ms"] > 0 and result["wall_factored_ms"] > 0


class TestNumericFlags:
    @pytest.mark.parametrize("argv, message", [
        (["oracle-check", "--max-kernel", "0"], "max_kernel"),
        (["oracle-check", "--max-dim", "2", "--max-kernel", "3"], "max_kernel"),
        (["oracle-check", "--trials", "0"], "trials"),
        (["bench", "--video-dims", "8", "8", "8", "--kernel-dims", "3", "3", "3",
          "--repeats", "0"], "repeats"),
        # checked before the inputs are drawn, which a negative dim would stop
        (["bench", "--video-dims", "-1", "64", "64"], "video_dims"),
        (["bench", "--kernel-dims", "7", "-1", "7"], "kernel_dims"),
        (["gradcheck", "--instances", "0"], "instances"),
        # checked before the data is read, so a missing dataset is not reached
        (["train-ef", "--data", "no_such_dataset", "--epochs", "0"], "epochs"),
        (["train-lvd", "--data", "no_such_dataset", "--epochs", "0"], "epochs"),
    ], ids=["oracle_max_kernel_0", "oracle_kernel_above_dim", "oracle_trials_0",
            "bench_repeats_0", "bench_video_dim_negative", "bench_kernel_dim_negative",
            "gradcheck_instances_0", "train_ef_epochs_0",
            "train_lvd_epochs_0"])
    def test_out_of_range_value_writes_failed_report(self, tmp_path, argv, message):
        out = tmp_path / "report.json"
        assert run([*argv, "--out", str(out)]) == 2
        assert_failed_report(out, "ConfigurationError", message)


class TestGradcheckCommand:
    def test_passes_quickly_with_few_instances(self, tmp_path):
        out = tmp_path / "grad.json"
        code = run(["gradcheck", "--instances", "2", "--out", str(out)])
        assert code == 0
        report = read_report(out)
        assert all(report.verdicts.values())
        assert all(
            v <= 1e-4 for k, v in report.metrics.items() if k.startswith("rel_err_")
        )


class TestExtractBeats:
    def test_clip_count_matches_beats(self, tmp_path):
        scene = gen_ef_video(
            EfSceneParams(frame_dims=(24, 24), n_beats=2, base_area=0.12,
                          pulsatility=0.2, seed=3)
        )
        video_path, masks_path = tmp_path / "v.ctr", tmp_path / "m.ctr"
        write_tensor(video_path, scene.video)
        write_tensor(masks_path, scene.masks)
        out_dir = tmp_path / "clips"
        code = run(["extract-beats", "--video", str(video_path), "--masks", str(masks_path),
                    "--out-dir", str(out_dir), "--frame-rate", str(scene.frame_rate),
                    "--out", str(tmp_path / "report.json")])
        assert code == 0
        report = read_report(tmp_path / "report.json")
        assert report.metrics["n_clips"] == 2
        index = json.loads((out_dir / "index.json").read_text())
        assert len(index["clips"]) == 2
        assert (out_dir / index["clips"][0]["path"]).exists()
        first = index["clips"][0]
        assert first["start_area"] > first["end_area"]  # diastole to systole

    def test_shape_mismatch_exits_nonzero(self, tmp_path):
        write_tensor(tmp_path / "v.ctr", np.zeros((4, 4, 10)))
        write_tensor(tmp_path / "m.ctr", np.zeros((4, 4, 8)))
        code = run(["extract-beats", "--video", str(tmp_path / "v.ctr"),
                    "--masks", str(tmp_path / "m.ctr"), "--out-dir", str(tmp_path / "o"),
                    "--out", str(tmp_path / "report.json")])
        assert code == 2
        assert_failed_report(tmp_path / "report.json", "ShapeError", "differ in shape")

    def test_non_finite_video_writes_failed_report(self, tmp_path):
        scene = gen_ef_video(
            EfSceneParams(frame_dims=(24, 24), n_beats=2, base_area=0.12,
                          pulsatility=0.2, seed=3)
        )
        video = scene.video.copy()
        video[5, 7, 10] = np.nan
        video_path, masks_path = tmp_path / "v.ctr", tmp_path / "m.ctr"
        write_tensor(video_path, video)
        write_tensor(masks_path, scene.masks)
        out_dir = tmp_path / "clips"
        code = run(["extract-beats", "--video", str(video_path), "--masks", str(masks_path),
                    "--out-dir", str(out_dir), "--frame-rate", str(scene.frame_rate),
                    "--out", str(tmp_path / "report.json")])
        assert code == 2
        assert_failed_report(tmp_path / "report.json", "ValidationError", f"{video_path}: holds NaN")
        assert not out_dir.exists()

    def test_missing_input_exits(self, tmp_path):
        code = run(["extract-beats", "--video", str(tmp_path / "nope.ctr"),
                    "--masks", str(tmp_path / "nope.ctr"), "--out-dir", str(tmp_path / "o"),
                    "--out", str(tmp_path / "report.json")])
        assert code == 2
        assert_failed_report(tmp_path / "report.json", "InputNotFoundError", "nope.ctr")


class TestSynthCommand:
    def test_ef_dataset_schema(self, tmp_path):
        out_dir = tmp_path / "ef_data"
        code = run(["synth", "ef", "--out-dir", str(out_dir), "--videos", "3",
                    "--frame-size", "16", "--seed", "11"])
        assert code == 0
        with open(out_dir / "labels.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and set(rows[0]) == {"clip_path", "ef_percent"}
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["n_videos"] == 3
        assert (out_dir / rows[0]["clip_path"]).exists()

    def test_lvd_dataset_schema(self, tmp_path):
        out_dir = tmp_path / "lvd_data"
        code = run(["synth", "lvd", "--out-dir", str(out_dir), "--frames", "4",
                    "--frame-size", "32", "--seed", "12"])
        assert code == 0
        with open(out_dir / "labels.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert list(rows[0]) == ["frame_path", "x1", "y1", "x2", "y2", "x3", "y3",
                                 "x4", "y4", "mm_per_pixel"]

    @pytest.mark.parametrize("kind, flag, message", [
        ("ef", "--videos", "n_videos"), ("lvd", "--frames", "n_frames"),
    ], ids=["ef", "lvd"])
    def test_empty_dataset_rejected(self, tmp_path, kind, flag, message):
        out_dir, out = tmp_path / "data", tmp_path / "report.json"
        assert run(["synth", kind, "--out-dir", str(out_dir), flag, "0", "--out", str(out)]) == 2
        assert_failed_report(out, "ConfigurationError", message)
        assert not out_dir.exists()


class TestTrainEvalFlow:
    def test_ef_train_then_eval(self, tmp_path):
        data = tmp_path / "data"
        run(["synth", "ef", "--out-dir", str(data), "--videos", "8",
             "--frame-size", "12", "--seed", "5"])
        ckpt = tmp_path / "ckpt"
        code = run(["train-ef", "--data", str(data), "--out-dir", str(ckpt),
                    "--epochs", "2", "--batch-size", "4", "--encoder-dim", "8",
                    "--seed", "5", "--out", str(tmp_path / "train.json")])
        assert code == 0
        train_report = read_report(tmp_path / "train.json")
        assert len(train_report.metrics["history"]) == 2
        assert (ckpt / "manifest.json").exists() and (ckpt / "params.ctr").exists()

        code = run(["eval-ef", "--data", str(data), "--model", str(ckpt),
                    "--out", str(tmp_path / "eval.json")])
        assert code == 0
        eval_report = read_report(tmp_path / "eval.json")
        assert np.isfinite(eval_report.metrics["mae"])
        assert eval_report.metrics["baseline_mae"] > 0

    def test_lvd_train_then_eval(self, tmp_path):
        data = tmp_path / "data"
        run(["synth", "lvd", "--out-dir", str(data), "--frames", "16",
             "--frame-size", "32", "--seed", "6"])
        ckpt = tmp_path / "ckpt"
        code = run(["train-lvd", "--data", str(data), "--out-dir", str(ckpt),
                    "--epochs", "2", "--batch-size", "8", "--seed", "6",
                    "--out", str(tmp_path / "train.json")])
        assert code == 0
        report = read_report(tmp_path / "train.json")
        assert len(report.metrics["loss_weights"]) == 3

        code = run(["eval-lvd", "--data", str(data), "--model", str(ckpt),
                    "--out", str(tmp_path / "eval.json")])
        assert code == 0
        eval_report = read_report(tmp_path / "eval.json")
        for key in ("mae_ivs", "mae_lvid", "mae_lvpw", "mae_mean", "baseline_mae_mean"):
            assert np.isfinite(eval_report.metrics[key])
        assert eval_report.metrics["loss_weights"] is not None


class TestCheckpoint:
    def test_ef_roundtrip_preserves_predictions(self, tmp_path):
        model = EfModel.build(EfModelConfig(frame_shape=(8, 8), encoder_dim=8, seed=1))
        checkpoint.save_checkpoint(tmp_path / "ck", "ef", model.config, model.graph)
        loaded, manifest = checkpoint.load_ef_model(tmp_path / "ck")
        clip = np.random.default_rng(2).uniform(0, 1, (8, 8, 5))
        assert loaded.predict(clip) == model.predict(clip)
        assert manifest["layers"][0]["kind"] == "frame_encoder"

    def test_lvd_roundtrip_preserves_predictions(self, tmp_path):
        model = LvdModel.build(
            LvdModelConfig(frame_shape=(16, 16), channels=(4, 8, 8), hidden=16, seed=3)
        )
        checkpoint.save_checkpoint(tmp_path / "ck", "lvd", model.config, model.graph)
        loaded, _ = checkpoint.load_lvd_model(tmp_path / "ck")
        frame = np.random.default_rng(4).uniform(0, 1, (16, 16))
        np.testing.assert_array_equal(loaded.predict_raw(frame), model.predict_raw(frame))

    @staticmethod
    def ef_model(seed):
        return EfModel.build(EfModelConfig(frame_shape=(8, 8), encoder_dim=8, seed=seed))

    def test_overwrite_replaces_checkpoint_and_leaves_nothing_else(self, tmp_path):
        old, new = self.ef_model(1), self.ef_model(2)
        checkpoint.save_checkpoint(tmp_path / "ck", "ef", old.config, old.graph)
        checkpoint.save_checkpoint(tmp_path / "ck", "ef", new.config, new.graph)
        loaded, _ = checkpoint.load_ef_model(tmp_path / "ck")
        clip = np.random.default_rng(2).uniform(0, 1, (8, 8, 5))
        assert loaded.predict(clip) == new.predict(clip)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck"]
        assert sorted(p.name for p in (tmp_path / "ck").iterdir()) == ["manifest.json",
                                                                       "params.ctr"]

    def test_failed_save_leaves_previous_checkpoint(self, tmp_path, monkeypatch):
        old, new = self.ef_model(1), self.ef_model(2)
        ck = checkpoint.save_checkpoint(tmp_path / "ck", "ef", old.config, old.graph)
        before = {p.name: p.read_bytes() for p in ck.iterdir()}
        write = checkpoint.write_tensor_stream
        calls = []

        def fail_on_third(fh, array):
            calls.append(1)
            if len(calls) == 3:
                raise OSError("disk full")
            write(fh, array)

        monkeypatch.setattr(checkpoint, "write_tensor_stream", fail_on_third)
        with pytest.raises(OSError, match="disk full"):
            checkpoint.save_checkpoint(ck, "ef", new.config, new.graph, extra={"run": 2})
        assert {p.name: p.read_bytes() for p in ck.iterdir()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck"]
        loaded, _ = checkpoint.load_ef_model(ck)
        clip = np.random.default_rng(2).uniform(0, 1, (8, 8, 5))
        assert loaded.predict(clip) == old.predict(clip)

    def test_directory_with_other_files_not_replaced(self, tmp_path):
        (tmp_path / "ck").mkdir()
        (tmp_path / "ck" / "notes.txt").write_text("keep")
        model = self.ef_model(1)
        with pytest.raises(ConfigurationError, match="not a checkpoint directory"):
            checkpoint.save_checkpoint(tmp_path / "ck", "ef", model.config, model.graph)
        assert [p.name for p in (tmp_path / "ck").iterdir()] == ["notes.txt"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck"]

    def test_non_utf8_manifest_writes_failed_report(self, tmp_path):
        data = tmp_path / "data"
        run(["synth", "ef", "--out-dir", str(data), "--videos", "2",
             "--frame-size", "8", "--seed", "5"])
        model = self.ef_model(1)
        ck = checkpoint.save_checkpoint(tmp_path / "ck", "ef", model.config, model.graph)
        (ck / "manifest.json").write_bytes(b"\xff\xfe{")
        out = tmp_path / "report.json"
        code = run(["eval-ef", "--data", str(data), "--model", str(ck), "--out", str(out)])
        assert code == 2
        assert_failed_report(out, "ConfigurationError", "manifest.json")

    def test_kind_mismatch_rejected(self, tmp_path):
        model = EfModel.build(EfModelConfig(frame_shape=(8, 8), encoder_dim=8, seed=1))
        checkpoint.save_checkpoint(tmp_path / "ck", "ef", model.config, model.graph)
        with pytest.raises(ValueError):
            checkpoint.load_lvd_model(tmp_path / "ck")

    @pytest.mark.parametrize("kind, other", [("lvd", "ef"), ("ef", "lvd")])
    def test_eval_on_other_kind_writes_failed_report(self, replay_data, tmp_path, kind, other):
        out = tmp_path / "report.json"
        code = run([f"eval-{kind}", "--data", str(replay_data / kind),
                    "--model", str(replay_data / f"{other}_ck"), "--out", str(out)])
        assert code == 2
        assert_failed_report(out, "ConfigurationError", f"is not an {kind.upper()} model")

    @staticmethod
    def edit_ef_manifest(tmp_path, edit):
        model = EfModel.build(EfModelConfig(frame_shape=(8, 8), encoder_dim=8, seed=1))
        checkpoint.save_checkpoint(tmp_path / "ck", "ef", model.config, model.graph)
        path = tmp_path / "ck" / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        return tmp_path / "ck"

    def test_missing_config_key_rejected(self, tmp_path):
        ck = self.edit_ef_manifest(tmp_path, lambda m: m["model_config"].pop("padding"))
        with pytest.raises(ConfigurationError, match="padding"):
            checkpoint.load_ef_model(ck)

    def test_unknown_config_key_rejected(self, tmp_path):
        ck = self.edit_ef_manifest(
            tmp_path, lambda m: m["model_config"].update(dropout=0.5)
        )
        with pytest.raises(ConfigurationError, match="exactly the keys"):
            checkpoint.load_ef_model(ck)

    def test_mistyped_config_value_rejected(self, tmp_path):
        ck = self.edit_ef_manifest(
            tmp_path, lambda m: m["model_config"].update(encoder_dim="8")
        )
        with pytest.raises(ConfigurationError, match="bad model_config"):
            checkpoint.load_ef_model(ck)

    @pytest.mark.parametrize("edit", [
        lambda m: m["model_config"].update(encoder_dim=16),
        lambda m: m["layers"][4].update(kind="dense"),
    ], ids=["encoder_dim", "layer_kind"])
    def test_layer_mismatch_rejected_before_params_read(self, tmp_path, edit):
        ck = self.edit_ef_manifest(tmp_path, edit)
        (ck / "params.ctr").unlink()  # the manifest check must come first
        with pytest.raises(ShapeError, match="manifest layer"):
            checkpoint.load_ef_model(ck)

    @pytest.mark.parametrize("field, value", [
        ("hidden", [16]), ("hidden", 16.0), ("hidden", -1), ("seed", True), ("seed", -5),
        ("channels", [4, [8], 8]), ("frame_shape", [16, 16, 1]),
    ])
    def test_mistyped_lvd_config_writes_failed_report(self, replay_data, tmp_path, field,
                                                      value):
        ck = tmp_path / "ck"
        ck.mkdir()
        for name in ("manifest.json", "params.ctr"):
            (ck / name).write_bytes((replay_data / "lvd_ck" / name).read_bytes())
        manifest = json.loads((ck / "manifest.json").read_text())
        manifest["model_config"][field] = value
        (ck / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "report.json"
        code = run(["eval-lvd", "--data", str(replay_data / "lvd"), "--model", str(ck),
                    "--out", str(out)])
        assert code == 2
        assert_failed_report(out, "ConfigurationError", f"bad model_config ({field} must be")

    @pytest.mark.parametrize("config_cls, kwargs", [
        (LvdModelConfig, {"hidden": (16,)}),
        (LvdModelConfig, {"channels": (4, 8)}),
        (LvdModelConfig, {"frame_shape": (16, 16.0)}),
        (EfModelConfig, {"encoder_dim": (8,)}),
        (EfModelConfig, {"frame_shape": 8}),
        (EfModelConfig, {"seed": [1, 2]}),
    ])
    def test_model_config_rejects_non_integer_fields(self, config_cls, kwargs):
        with pytest.raises(ConfigurationError, match=f"{next(iter(kwargs))} must be"):
            config_cls(**kwargs)

    def test_model_config_accepts_numpy_integers(self):
        config = LvdModelConfig(frame_shape=(np.int64(16), 16), hidden=np.int32(8))
        assert config.hidden == 8

    def test_eval_without_checkpoint_writes_failed_report(self, tmp_path):
        data = tmp_path / "data"
        run(["synth", "lvd", "--out-dir", str(data), "--frames", "4",
             "--frame-size", "16", "--seed", "1"])
        (tmp_path / "empty").mkdir()
        code = run(["eval-lvd", "--data", str(data), "--model", str(tmp_path / "empty"),
                    "--out", str(tmp_path / "report.json")])
        assert code == 2
        assert_failed_report(tmp_path / "report.json", "InputNotFoundError", "manifest.json")


class TestDatasetFaults:
    @staticmethod
    def dataset_and_model(tmp_path, kind):
        data, ck = tmp_path / "data", tmp_path / "ck"
        if kind == "ef":
            run(["synth", "ef", "--out-dir", str(data), "--videos", "2",
                 "--frame-size", "12", "--seed", "5"])
            model = EfModel.build(EfModelConfig(frame_shape=(12, 12), encoder_dim=8, seed=1))
        else:
            run(["synth", "lvd", "--out-dir", str(data), "--frames", "2",
                 "--frame-size", "16", "--seed", "5"])
            model = LvdModel.build(
                LvdModelConfig(frame_shape=(16, 16), channels=(4, 8, 8), hidden=16, seed=1)
            )
        checkpoint.save_checkpoint(ck, kind, model.config, model.graph)
        return data, ck

    @pytest.mark.parametrize("body", [
        "{", "[]", '{"clips": [{"video_id": "v0"}]}',
        '{"clips": [{"clip_path": "clips/video_0000_beat0.ctr", "video_id": ["v0"]}]}',
        '{"clips": [{"clip_path": ["clips/video_0000_beat0.ctr"], "video_id": "v0"}]}',
    ], ids=["not_json", "not_object", "no_clip_path", "list_video_id", "list_clip_path"])
    def test_malformed_manifest_writes_failed_report(self, tmp_path, body):
        data, ck = self.dataset_and_model(tmp_path, "ef")
        (data / "manifest.json").write_text(body)
        out = tmp_path / "report.json"
        code = run(["eval-ef", "--data", str(data), "--model", str(ck), "--out", str(out)])
        assert code == 2
        assert_failed_report(out, "ConfigurationError", "manifest.json")

    @pytest.mark.parametrize("fault", ["non_numeric", "non_finite", "short_row", "non_utf8",
                                       "oversized_field"])
    @pytest.mark.parametrize("kind", ["ef", "lvd"])
    def test_malformed_labels_write_failed_report(self, tmp_path, kind, fault):
        # The fault is in the second row, line 3; field 1 is ef_percent or x1.
        data, ck = self.dataset_and_model(tmp_path, kind)
        labels = data / "labels.csv"
        header, first, second, *rest = labels.read_bytes().splitlines(keepends=True)
        values = second.rstrip(b"\r\n").split(b",")
        if fault == "non_numeric":
            values[1] = b"abc"
        elif fault == "non_finite":
            values[1] = b"nan"
        elif fault == "short_row":
            values.pop()
        elif fault == "oversized_field":
            values[0] = b"x" * (csv.field_size_limit() + 1)
        else:
            values[0] = b"\xff\xfe" + values[0]
        labels.write_bytes(b"".join([header, first, b",".join(values) + b"\r\n", *rest]))
        out = tmp_path / "report.json"
        code = run([f"eval-{kind}", "--data", str(data), "--model", str(ck), "--out", str(out)])
        assert code == 2
        assert_failed_report(out, "ConfigurationError", f"{labels}, line 3")
        if fault in ("non_numeric", "non_finite"):
            field = "ef_percent" if kind == "ef" else "x1"
            assert f"{field}='{values[1].decode()}'" in read_report(out).metrics["message"]

    @pytest.mark.parametrize("kind", ["ef", "lvd"])
    def test_missing_sample_file_writes_failed_report(self, tmp_path, kind):
        data, ck = self.dataset_and_model(tmp_path, kind)
        with open(data / "labels.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        rel = row["clip_path" if kind == "ef" else "frame_path"]
        (data / rel).unlink()
        out = tmp_path / "report.json"
        code = run([f"eval-{kind}", "--data", str(data), "--model", str(ck), "--out", str(out)])
        assert code == 2
        assert_failed_report(out, "InputNotFoundError", rel)

    @pytest.mark.parametrize("kind", ["ef", "lvd"])
    def test_sample_path_naming_a_directory_writes_failed_report(self, tmp_path, kind):
        data, _ = self.dataset_and_model(tmp_path, kind)
        column, directory = ("clip_path", "clips") if kind == "ef" else ("frame_path", "frames")
        with open(data / "labels.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        rows[0][column] = directory
        with open(data / "labels.csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        out = tmp_path / "report.json"
        code = run([f"train-{kind}", "--data", str(data), "--epochs", "1", "--out", str(out)])
        assert code == 2
        assert_failed_report(out, "InputNotFoundError",
                             f"is a directory, not a file: {data / directory}")

    @pytest.mark.parametrize("where, error", [
        ("data/labels.csv", "InputNotFoundError"), ("data/manifest.json", "ConfigurationError"),
        ("ck/manifest.json", "InputNotFoundError"), ("ck/params.ctr", "InputNotFoundError"),
    ])
    def test_directory_in_place_of_a_file_writes_failed_report(self, tmp_path, where, error):
        data, ck = self.dataset_and_model(tmp_path, "ef")
        (tmp_path / where).unlink()
        (tmp_path / where).mkdir()
        out = tmp_path / "report.json"
        code = run(["eval-ef", "--data", str(data), "--model", str(ck), "--out", str(out)])
        assert code == 2
        assert_failed_report(out, error, str(tmp_path / where))

    @pytest.mark.parametrize("extra", [[], "x", None], ids=["list", "string", "null"])
    @pytest.mark.parametrize("kind", ["ef", "lvd"])
    def test_checkpoint_extra_that_is_not_an_object_writes_failed_report(self, tmp_path, kind,
                                                                         extra):
        data, ck = self.dataset_and_model(tmp_path, kind)
        manifest = json.loads((ck / "manifest.json").read_text())
        manifest["extra"] = extra
        (ck / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "report.json"
        code = run([f"eval-{kind}", "--data", str(data), "--model", str(ck), "--out", str(out)])
        assert code == 2
        assert_failed_report(out, "ConfigurationError", "extra must be an object")

    @pytest.mark.parametrize("kind, value", [("ef", np.nan), ("lvd", np.inf)])
    def test_non_finite_sample_writes_failed_report(self, tmp_path, kind, value):
        data, _ = self.dataset_and_model(tmp_path, kind)
        with open(data / "labels.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        path = data / row["clip_path" if kind == "ef" else "frame_path"]
        array = read_tensor(path)
        array[1, 2] = value
        write_tensor(path, array)
        out = tmp_path / "report.json"
        code = run([f"train-{kind}", "--data", str(data), "--epochs", "1", "--out", str(out)])
        assert code == 2
        assert_failed_report(out, "ValidationError", f"{path}: ")


def unopenable(tmp_path, case):
    """A path that open() rejects with neither FileNotFoundError nor
    IsADirectoryError: a name over the OS limit, a symlink loop or a NUL byte."""
    if case == "long_name":
        return tmp_path / ("x" * (os.pathconf(tmp_path, "PC_NAME_MAX") + 1))
    if case == "symlink_loop":
        (tmp_path / "loop").symlink_to("loop")
        return tmp_path / "loop"
    return tmp_path / "nul\0byte"


UNOPENABLE = ["long_name", "symlink_loop", "nul_byte"]


class TestUnopenablePaths:
    @pytest.mark.parametrize("case", UNOPENABLE)
    @pytest.mark.parametrize("kind", ["ef", "lvd"])
    def test_sample_path_cell_writes_failed_report(self, tmp_path, kind, case):
        data, _ = TestDatasetFaults.dataset_and_model(tmp_path, kind)
        bad = unopenable(tmp_path, case)
        with open(data / "labels.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        rows[1][0] = str(bad)
        with open(data / "labels.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        out = tmp_path / "report.json"
        code = run([f"train-{kind}", "--data", str(data), "--epochs", "1", "--out", str(out)])
        assert code == 2
        assert_failed_report(out, "InputNotFoundError", str(bad))

    @pytest.mark.parametrize("case", UNOPENABLE)
    @pytest.mark.parametrize("kind", ["ef", "lvd"])
    def test_model_path_writes_failed_report(self, tmp_path, kind, case):
        data, _ = TestDatasetFaults.dataset_and_model(tmp_path, kind)
        bad = unopenable(tmp_path, case)
        out = tmp_path / "report.json"
        code = run([f"eval-{kind}", "--data", str(data), "--model", str(bad), "--out", str(out)])
        assert code == 2
        assert_failed_report(out, "InputNotFoundError", str(bad / "manifest.json"))

    @pytest.mark.parametrize("case", UNOPENABLE)
    @pytest.mark.parametrize("flag", ["--video", "--masks"])
    def test_extract_beats_input_writes_failed_report(self, tmp_path, flag, case):
        paths = {"--video": tmp_path / "v.ctr", "--masks": tmp_path / "m.ctr"}
        for path in paths.values():
            write_tensor(path, np.zeros((4, 4, 10)))
        paths[flag] = unopenable(tmp_path, case)
        out = tmp_path / "report.json"
        code = run(["extract-beats", "--video", str(paths["--video"]),
                    "--masks", str(paths["--masks"]), "--out-dir", str(tmp_path / "o"),
                    "--out", str(out)])
        assert code == 2
        assert_failed_report(out, "InputNotFoundError", str(paths[flag]))


class TestOutputPaths:
    @pytest.mark.parametrize("where", ["afile", "afile/sub"])
    @pytest.mark.parametrize("command", ["synth", "extract-beats"])
    def test_out_dir_that_cannot_be_made_writes_failed_report(self, tmp_path, command, where):
        (tmp_path / "afile").write_bytes(b"")
        if command == "synth":
            argv = ["synth", "ef", "--videos", "1"]
        else:
            write_tensor(tmp_path / "v.ctr", np.zeros((4, 4, 10)))
            argv = ["extract-beats", "--video", str(tmp_path / "v.ctr"),
                    "--masks", str(tmp_path / "v.ctr")]
        out = tmp_path / "report.json"
        code = run([*argv, "--out-dir", str(tmp_path / where), "--out", str(out)])
        assert code == 2
        assert_failed_report(out, "ConfigurationError",
                             f"cannot create output directory {tmp_path / where}")

    def test_train_out_dir_below_a_file_writes_failed_report(self, tmp_path):
        data, _ = TestDatasetFaults.dataset_and_model(tmp_path, "ef")
        (tmp_path / "afile").write_bytes(b"")
        out = tmp_path / "report.json"
        code = run(["train-ef", "--data", str(data), "--epochs", "1",
                    "--out-dir", str(tmp_path / "afile" / "ck"), "--out", str(out)])
        assert code == 2
        assert_failed_report(out, "ConfigurationError",
                             f"cannot create output directory {tmp_path / 'afile'}")

    @pytest.mark.parametrize("where", ["adir", "afile/report.json"])
    def test_report_that_cannot_be_written_exits_2(self, tmp_path, capsys, where):
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_bytes(b"")
        code = run(["oracle-check", "--trials", "1", "--out", str(tmp_path / where)])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"cannot write the report to {tmp_path / where}: ")


class TestExitCodes:
    def test_failed_verdict_exits_nonzero(self, monkeypatch):
        def failing(args):
            return Report("oracle-check", verdicts={"factorization_equivalence": False})

        # build_parser resolves the command functions at call time
        monkeypatch.setattr(cli, "cmd_oracle_check", failing)
        assert cli.main(["oracle-check", "--trials", "1"]) == 1

    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["oracle-check", "--no-such-flag"])

    # SGD at this learning rate diverges, so overflow warnings are expected.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_typed_error_writes_failed_report_and_exits_2(self, tmp_path):
        data = tmp_path / "data"
        run(["synth", "lvd", "--out-dir", str(data), "--frames", "30",
             "--frame-size", "32", "--seed", "6"])
        out = tmp_path / "report.json"
        code = run(["train-lvd", "--data", str(data), "--optimizer", "sgd", "--epochs", "3",
                    "--batch-size", "8", "--seed", "6", "--out", str(out)])
        assert code == 2
        report = read_report(out)
        assert report.subcommand == "train-lvd"
        assert report.passed is False
        assert report.metrics["error"] == "DomainError"
        assert report.metrics["message"] == "training loss is inf at epoch 1, batch 0"


def replay_argv(report):
    """The command line a report's config records: *kind* is positional,
    every other key a flag with its values, and None means the flag was
    not given."""
    argv = [report.subcommand]
    for key, value in sorted(report.config.items()):
        if key == "kind":
            argv.append(value)
        elif value is not None:
            values = value if isinstance(value, list) else [value]
            argv += [f"--{key.replace('_', '-')}", *map(str, values)]
    return argv


# One small run of each subcommand; {data} holds shared inputs, {tmp} is
# the test's own directory.
REPLAY_CASES = {
    "oracle-check": ["oracle-check", "--trials", "2", "--max-dim", "5", "--max-kernel", "3"],
    "bench": ["bench", "--video-dims", "6", "6", "6", "--kernel-dims", "3", "3", "3",
              "--repeats", "1", "--padding", "valid"],
    "gradcheck": ["gradcheck", "--instances", "1"],
    "extract-beats": ["extract-beats", "--video", "{data}/video.ctr", "--masks",
                      "{data}/masks.ctr", "--out-dir", "{tmp}/clips", "--frame-rate", "10"],
    "synth": ["synth", "ef", "--out-dir", "{tmp}/ef", "--videos", "2", "--frame-size", "12",
              "--period", "8", "--seed", "3"],
    "train-ef": ["train-ef", "--data", "{data}/ef", "--out-dir", "{tmp}/ck", "--epochs", "1",
                 "--batch-size", "2", "--encoder-dim", "8", "--lr", "0.01"],
    "eval-ef": ["eval-ef", "--data", "{data}/ef", "--model", "{data}/ef_ck"],
    "train-lvd": ["train-lvd", "--data", "{data}/lvd", "--epochs", "1", "--batch-size", "2"],
    "eval-lvd": ["eval-lvd", "--data", "{data}/lvd", "--model", "{data}/lvd_ck"],
}


@pytest.fixture(scope="module")
def replay_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("replay")
    scene = gen_ef_video(EfSceneParams(frame_dims=(16, 16), period_frames=8, n_beats=2,
                                       base_area=0.12, pulsatility=0.2, seed=3))
    write_tensor(data / "video.ctr", scene.video)
    write_tensor(data / "masks.ctr", scene.masks)
    run(["synth", "ef", "--out-dir", str(data / "ef"), "--videos", "3",
         "--frame-size", "12", "--period", "8", "--seed", "5"])
    run(["synth", "lvd", "--out-dir", str(data / "lvd"), "--frames", "3",
         "--frame-size", "16", "--seed", "5"])
    model = EfModel.build(EfModelConfig(frame_shape=(12, 12), encoder_dim=8, seed=1))
    checkpoint.save_checkpoint(data / "ef_ck", "ef", model.config, model.graph)
    model = LvdModel.build(
        LvdModelConfig(frame_shape=(16, 16), channels=(4, 8, 8), hidden=16, seed=1)
    )
    checkpoint.save_checkpoint(data / "lvd_ck", "lvd", model.config, model.graph)
    return data


class TestReportConfig:
    @pytest.mark.parametrize("argv", REPLAY_CASES.values(), ids=REPLAY_CASES)
    def test_replaying_config_reproduces_report(self, replay_data, tmp_path, argv):
        argv = [a.format(data=replay_data, tmp=tmp_path) for a in argv]
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert run([*argv, "--out", str(first)]) == 0
        report = read_report(first)
        parsed = vars(cli.build_parser().parse_args(argv))
        assert report.config == jsonable(
            {k: v for k, v in parsed.items() if k not in ("fn", "out", "subcommand")}
        )
        if argv[:2] == ["synth", "ef"]:
            assert {"videos", "frames", "period", "beats"} <= set(report.config)
        assert run([*replay_argv(report), "--out", str(second)]) == 0
        assert read_report(second).canonical_json() == report.canonical_json()

    def test_failed_run_records_the_same_config_keys(self, replay_data, tmp_path):
        ok, failed = tmp_path / "ok.json", tmp_path / "failed.json"
        argv = ["eval-ef", "--data", str(replay_data / "ef")]
        assert run([*argv, "--model", str(replay_data / "ef_ck"), "--out", str(ok)]) == 0
        assert run([*argv, "--model", str(tmp_path / "missing"), "--out", str(failed)]) == 2
        report = read_report(failed)
        assert report.subcommand == "eval-ef"
        assert report.metrics["error"] == "InputNotFoundError"
        assert set(report.config) == set(read_report(ok).config)
        assert report.config["model"] == str(tmp_path / "missing")


class TestTaskOutputs:
    """What each task adds to the shared train-*/eval-* reports and checkpoints."""

    TRAIN_KEYS = {"n_samples", "n_params", "best_epoch", "best_val_mae", "baseline_val_mae",
                  "history"}
    EXTRA_KEYS = {"train_config", "best_epoch", "best_val_mae"}

    @staticmethod
    def train_and_eval(data, tmp_path, kind, *flags):
        """(train report, checkpoint manifest, eval report) of one small run."""
        ck, train, evaluate = tmp_path / "ck", tmp_path / "train.json", tmp_path / "eval.json"
        assert run([f"train-{kind}", "--data", str(data / kind), "--out-dir", str(ck),
                    "--epochs", "1", "--batch-size", "2", *flags, "--out", str(train)]) == 0
        assert run([f"eval-{kind}", "--data", str(data / kind), "--model", str(ck),
                    "--out", str(evaluate)]) == 0
        manifest = json.loads((ck / "manifest.json").read_text())
        assert manifest["model_kind"] == kind
        return read_report(train), manifest, read_report(evaluate)

    @staticmethod
    def check_shared_extra(report, extra):
        assert extra["train_config"] == {"learning_rate": 3e-3, "batch_size": 2, "epochs": 1,
                                         "optimizer": "adam", "seed": 42, "loss": "mae"}
        assert extra["best_epoch"] == report.metrics["best_epoch"]
        assert extra["best_val_mae"] == report.metrics["best_val_mae"]

    def test_ef(self, replay_data, tmp_path):
        report, manifest, evaluated = self.train_and_eval(replay_data, tmp_path, "ef",
                                                          "--encoder-dim", "8")
        assert set(report.metrics) == self.TRAIN_KEYS
        assert set(manifest["extra"]) == self.EXTRA_KEYS
        self.check_shared_extra(report, manifest["extra"])
        assert set(evaluated.metrics) == {"mae", "baseline_mae", "n_samples"}

    def test_lvd(self, replay_data, tmp_path):
        report, manifest, evaluated = self.train_and_eval(replay_data, tmp_path, "lvd",
                                                          "--coord-coef", "0.5")
        extra = manifest["extra"]
        assert set(report.metrics) == self.TRAIN_KEYS | {"loss_weights"}
        assert set(extra) == self.EXTRA_KEYS | {"coord_coef", "loss_weights"}
        self.check_shared_extra(report, extra)
        assert extra["coord_coef"] == 0.5
        assert len(extra["loss_weights"]) == 3
        assert report.metrics["loss_weights"] == extra["loss_weights"]
        assert set(evaluated.metrics) == {"mae_ivs", "mae_lvid", "mae_lvpw", "mae_mean",
                                          "n_samples", "n_degenerate", "baseline_mae_mean",
                                          "loss_weights"}
        assert evaluated.metrics["loss_weights"] == extra["loss_weights"]


class TestReport:
    def test_roundtrip_is_byte_identical(self):
        report = Report(
            subcommand="bench",
            config={"seed": 42, "dims": [3, 4, 5]},
            metrics={"count": 120, "ratio": 6.125, "wall_full_ms": 1.25},
            verdicts={"ok": True},
            wall_clock_ms=17.5,
        )
        text = report.to_json()
        assert Report(**json.loads(text)).to_json() == text

    def test_canonical_excludes_volatile(self):
        report = Report("x", metrics={"a": 1, "wall_t": 2.0}, wall_clock_ms=3.0)
        canon = report.canonical_json()
        assert "wall_t" not in canon and "wall_clock_ms" not in canon
        assert "wall_t" in report.canonical_json(volatile=True)

    def test_passed_requires_all_verdicts(self):
        assert Report("x", verdicts={"a": True, "b": False}).passed is False
        assert Report("x", verdicts={"a": True}).passed is True
