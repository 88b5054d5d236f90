import csv
import json

import numpy as np
import pytest

from echokit import checkpoint, cli
from echokit.ef import EfModel, EfModelConfig
from echokit.errors import ConfigurationError, ShapeError
from echokit.lvd import LvdModel, LvdModelConfig
from echokit.report import Report
from echokit.synth import EfSceneParams, gen_ef_video
from echokit.tensorio import write_tensor


def run(argv):
    return cli.main(argv)


def read_report(path):
    return Report.from_json(path.read_text())


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
        with pytest.raises(SystemExit):
            run(["extract-beats", "--video", str(tmp_path / "v.ctr"),
                 "--masks", str(tmp_path / "m.ctr"), "--out-dir", str(tmp_path / "o")])

    def test_missing_input_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            run(["extract-beats", "--video", str(tmp_path / "nope.ctr"),
                 "--masks", str(tmp_path / "nope.ctr"), "--out-dir", str(tmp_path / "o")])


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

    def test_kind_mismatch_rejected(self, tmp_path):
        model = EfModel.build(EfModelConfig(frame_shape=(8, 8), encoder_dim=8, seed=1))
        checkpoint.save_checkpoint(tmp_path / "ck", "ef", model.config, model.graph)
        with pytest.raises(ValueError):
            checkpoint.load_lvd_model(tmp_path / "ck")

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
        assert report.metrics["message"] == "keypoints must be finite"


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
        assert Report.from_json(text).to_json() == text

    def test_canonical_excludes_volatile(self):
        report = Report("x", metrics={"a": 1, "wall_t": 2.0}, wall_clock_ms=3.0)
        canon = report.canonical_json()
        assert "wall_t" not in canon and "wall_clock_ms" not in canon
        assert "wall_t" in report.canonical_json(volatile=True)

    def test_passed_requires_all_verdicts(self):
        assert Report("x", verdicts={"a": True, "b": False}).passed is False
        assert Report("x", verdicts={"a": True}).passed is True
