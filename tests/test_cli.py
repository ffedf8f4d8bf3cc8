import re
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from hybridprec.cli import (
    ConfigError,
    ExperimentConfig,
    main,
    parse_config,
    run_experiment,
)
from hybridprec.dnn import DEFAULT_NOISE_SIGMA, build_precoder_mlp, save_mlp
from hybridprec.precoder import FactorizeConfig, SystemDims


ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


BER_CFG = """
nt = 16
nr = 8
nt_rf = 4
nr_rf = 4
ns = 2
snr_grid_db = -5, 5
trials = 200
seed = 3
schemes = fully_digital_gmd, phase_projection
max_iters = 100
learning_rate = 0.02
tolerance = 0.0
"""


class TestParseConfig:
    def test_values_parsed(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, "learning_rate = 0.001\n"), kind="ber")
        assert cfg.learning_rate == 0.001

    def test_batch_size_default(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, "seed = 1\n"), kind="ber")
        assert cfg.batch_size == 20

    def test_documented_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, ""), kind="ber")
        assert cfg.tolerance == 1e-7
        assert cfg.learning_rate == 0.001
        assert cfg.momentum == 0.9
        assert cfg.p_nlos == 3

    def test_dimension_violation_names_rule(self, tmp_path):
        with pytest.raises(ConfigError, match="ns <= nt_rf <= nt"):
            parse_config(write_config(tmp_path, "ns = 4\nnt_rf = 2\n"), kind="ber")

    def test_too_few_paths_for_streams_with_line_number(self, tmp_path):
        # p_nlos = 0 draws rank-1 channels, which cannot carry ns = 2 streams
        with pytest.raises(ConfigError, match=r"line 2: p_nlos \+ 1 >= ns"):
            parse_config(write_config(tmp_path, "ns = 2\np_nlos = 0\n"), kind="ber")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("learning_rate = nan\n", 1),
            ("seed = 1\nsnr_grid_db = nan, inf\n", 2),
            ("snr_grid_db = -5, inf\n", 1),
        ],
    )
    def test_non_finite_value_with_line_number(self, tmp_path, text, line):
        with pytest.raises(ConfigError, match=f"line {line}: .*must be finite"):
            parse_config(write_config(tmp_path, text), kind="ber")

    def test_unknown_key_with_line_number(self, tmp_path):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config(write_config(tmp_path, "seed = 1\nbogus = 2\n"), kind="ber")
        # the subcommand alone gives a run its kind
        with pytest.raises(ConfigError, match="line 2: unknown key 'kind'"):
            parse_config(write_config(tmp_path, "seed = 1\nkind = ber\n"), kind="ber")

    def test_malformed_line_with_line_number(self, tmp_path):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(write_config(tmp_path, "just some words\n"), kind="ber")

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(write_config(tmp_path, "seed = 1\nseed = 2\n"), kind="ber")

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, "# comment\n\nseed = 9\n"), kind="ber")
        assert cfg.seed == 9

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.cfg", kind="ber")

    @pytest.mark.parametrize("kind", ["mse", "ber"])
    def test_empty_schemes_rejected_with_line_number(self, tmp_path, kind):
        with pytest.raises(ConfigError, match="line 2: schemes: at least one scheme is required"):
            parse_config(write_config(tmp_path, "seed = 1\nschemes =\n"), kind=kind)

    @pytest.mark.parametrize(
        "kind, text, message",
        [
            ("ber", "seed = 1\nspacing_ratio = 0\n", "spacing_ratio must be > 0"),
            ("mse", "seed = 1\nspacing_ratio = -0.5\n", "spacing_ratio must be > 0"),
            ("complexity-bench", "seed = 1\nbench_repeats = 0\n", "bench_repeats must be >= 1"),
            ("train", "seed = 1\ntrain_size = 0\n", "train_size >= 1"),
            ("se", "seed = 1\nschemes = dnn_hybrid\n", "schemes: dnn_hybrid needs a model file"),
            ("ber", "seed = 1\nschemes = dnn_hybrid, fully_digital_gmd\n", "schemes: dnn_hybrid needs a model file"),
            ("train", "seed = 1\nnoise_sigma = -0.1\n", "noise_sigma must be >= 0"),
            ("ber", "seed = 1\nlearning_rate = -0.1\n", "learning_rate must be >= 0"),
            ("mse", "seed = 1\nmomentum = 1.0\n", r"momentum must be in \[0, 1\)"),
            ("se", "seed = 1\nmax_iters = -1\n", "max_iters must be >= 0"),
            ("ber", "seed = 1\ntolerance = -1e-3\n", "tolerance must be >= 0"),
            ("train", "seed = 1\nbatch_size = 0\n", "batch must be >= 1"),
            ("ber", "seed = 1\ntrials = 0\n", "trials must be >= 1"),
            ("se", "seed = 1\nthreads = -1\n", "threads must be >= 0"),
            ("ber", "seed = 1\nschemes = fully_digital_gmd, bogus\n", "unknown scheme 'bogus'"),
            ("se", "seed = 1\nschemes = bogus\n", "unknown scheme 'bogus'"),
            ("mse", "seed = 1\nschemes = sgd_hybrid, fully_digital_gmd\n", "unknown scheme 'fully_digital_gmd'"),
            ("complexity-bench", "seed = 1\nnt_sweep = 16\n", "at least two nt_sweep values"),
            ("complexity-bench", "seed = 1\nnt_sweep = 16, 2\n", "dimension rule violated .* at sweep nt=2"),
            ("ber", "trials = 5\nseed = -1\n", "seed must be >= 0"),
            ("ber", "ns = 4\nnt_rf = 2\n", "ns <= nt_rf <= nt"),
            ("ber", "seed = 1\ntrials = 1.5\n", "cannot parse trials"),
            ("complexity-bench", "seed = 1\nnt_sweep = 16, 3.5\n", "cannot parse nt_sweep"),
            ("ber", "seed = 1\nsnr_grid_db = 0, 0\n", "repeated entry in snr_grid_db"),
            ("ber", "seed = 1\nschemes = fully_digital_gmd, fully_digital_gmd\n", "repeated entry in schemes"),
            ("complexity-bench", "seed = 1\nnt_sweep = 16, 32, 16\n", "repeated entry in nt_sweep"),
        ],
    )
    def test_bad_value_rejected_with_line_number(self, tmp_path, kind, text, message):
        with pytest.raises(ConfigError, match=f"line 2: .*{message}"):
            parse_config(write_config(tmp_path, text), kind=kind)

    @pytest.mark.parametrize("iters", [-1, 0])
    def test_bench_iters_rejected_with_line_number(self, tmp_path, iters):
        text = f"seed = 1\nbench_iters = {iters}\n"
        with pytest.raises(ConfigError, match=f"line 2: bench_iters must be >= 1, got {iters}"):
            parse_config(write_config(tmp_path, text), kind="complexity-bench")
        # only complexity-bench runs the timed factorization
        assert parse_config(write_config(tmp_path, text), kind="ber").bench_iters == iters

    def test_train_size_free_when_nothing_trains(self, tmp_path):
        # a loaded model, or no dnn_hybrid at all, never builds a training set
        text = "schemes = dnn_hybrid\nmodel = model.npz\ntrain_size = 0\n"
        assert parse_config(write_config(tmp_path, text), kind="se").train_size == 0
        assert parse_config(write_config(tmp_path, "train_size = 0\n"), kind="ber").train_size == 0

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.stem)
    def test_shipped_config_parses(self, path):
        parse_config(path, kind=path.stem.replace("_", "-"))

    def test_value_quoted_back_does_not_pick_the_line(self, tmp_path):
        # the message quotes the value 'seed'; only the key schemes names a line
        with pytest.raises(ConfigError, match="line 1: schemes: unknown scheme 'seed'"):
            parse_config(write_config(tmp_path, "schemes = seed\nseed = 1\n"), kind="ber")

    def test_mse_scheme_validation(self, tmp_path):
        with pytest.raises(ConfigError, match="line 1: schemes: unknown scheme 'fully_digital_gmd'"):
            parse_config(
                write_config(tmp_path, "schemes = fully_digital_gmd\n"), kind="mse"
            )


class TestConfigChecksItself:
    """The rules hold for every ExperimentConfig, not only for one parsed from a file."""

    def test_bench_without_repeats_rejected(self):
        with pytest.raises(ConfigError, match="bench_repeats must be >= 1"):
            ExperimentConfig(kind="complexity-bench", bench_repeats=0)

    def test_train_without_steps_rejected(self):
        with pytest.raises(ConfigError, match="a run that trains needs max_iters >= 1"):
            ExperimentConfig(kind="train", max_iters=0)

    def test_curve_without_grid_rejected(self):
        with pytest.raises(ConfigError, match="ber requires a non-empty snr_grid_db"):
            ExperimentConfig(kind="ber", snr_grid_db=())

    @pytest.mark.parametrize("kind", ["ber", "se"])
    def test_dnn_hybrid_without_model_rejected(self, kind):
        with pytest.raises(ConfigError, match="schemes: dnn_hybrid needs a model file"):
            ExperimentConfig(kind=kind, schemes=("phase_projection", "dnn_hybrid"))
        assert ExperimentConfig(kind=kind, schemes=("dnn_hybrid",), model="model.npz").model == "model.npz"

    def test_replace_checks_the_new_value(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, BER_CFG), kind="ber")
        with pytest.raises(ConfigError, match="trials must be >= 1"):
            replace(cfg, trials=0)

    def test_defaults_come_from_their_owners(self):
        cfg = ExperimentConfig(kind="train")
        assert cfg.factorize_config() == FactorizeConfig()
        assert cfg.dims() == SystemDims(nt=cfg.nt, nr=cfg.nr, nt_rf=cfg.nt_rf, nr_rf=cfg.nr_rf, ns=cfg.ns)
        assert cfg.noise_sigma == DEFAULT_NOISE_SIGMA


class TestRunExperiment:
    def test_ber_row_count_and_columns(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, BER_CFG), kind="ber")
        outputs = run_experiment(cfg, tmp_path / "out")
        csv = (tmp_path / "out" / "ber.csv").read_text().splitlines()
        assert csv[0] == "snr_db,scheme,ber,ci_halfwidth,trials"
        assert len(csv) == 1 + 2 * 2  # header + schemes x grid points

    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, BER_CFG), kind="ber")
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "ber.csv").read_bytes() == (tmp_path / "b" / "ber.csv").read_bytes()

    def test_seed_changes_output(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, BER_CFG), kind="ber")
        from dataclasses import replace

        run_experiment(cfg, tmp_path / "a")
        run_experiment(replace(cfg, seed=4), tmp_path / "b")
        assert (tmp_path / "a" / "ber.csv").read_bytes() != (tmp_path / "b" / "ber.csv").read_bytes()

    def test_manifest_written(self, tmp_path):
        import json

        cfg = parse_config(write_config(tmp_path, BER_CFG), kind="ber")
        run_experiment(cfg, tmp_path / "out")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 3
        assert "compute" in manifest["stages_seconds"]
        assert "ber.csv" in manifest["outputs"]

    def test_threads_key_is_recorded_and_changes_nothing(self, tmp_path):
        import json

        csvs = {}
        for threads in (1, 0, 3):
            cfg = parse_config(write_config(tmp_path, BER_CFG + f"threads = {threads}\n"), kind="ber")
            run_experiment(cfg, tmp_path / str(threads))
            csvs[threads] = (tmp_path / str(threads) / "ber.csv").read_bytes()
            assert json.loads((tmp_path / str(threads) / "manifest.json").read_text())["config"]["threads"] == threads
        assert csvs[0] == csvs[1] == csvs[3]

    def test_se_columns(self, tmp_path):
        text = BER_CFG.replace("trials = 200", "trials = 30")
        cfg = parse_config(write_config(tmp_path, text), kind="se")
        run_experiment(cfg, tmp_path / "out")
        csv = (tmp_path / "out" / "se.csv").read_text().splitlines()
        assert csv[0] == "snr_db,scheme,bits_per_s_hz"

    def test_mse_columns(self, tmp_path):
        text = "nt = 16\nnr = 8\nnt_rf = 4\nnr_rf = 4\nns = 2\ntrials = 4\nseed = 1\nmax_iters = 40\ntolerance = 0.0\nlearning_rate = 0.01\n"
        cfg = parse_config(write_config(tmp_path, text), kind="mse")
        run_experiment(cfg, tmp_path / "out")
        csv = (tmp_path / "out" / "mse.csv").read_text().splitlines()
        assert csv[0] == "iteration,scheme,mse"
        schemes = {line.split(",")[1] for line in csv[1:]}
        assert schemes == {"sgd_hybrid", "analog_only"}

    def test_complexity_bench_quadratic_margin(self, tmp_path, capsys):
        text = "nt_sweep = 16, 32, 64\nnt_rf = 4\nns = 2\nnr = 8\nbench_repeats = 5\nbench_iters = 50\nseed = 1\n"
        cfg = parse_config(write_config(tmp_path, text), kind="complexity-bench")
        run_experiment(cfg, tmp_path / "out")
        rows = (tmp_path / "out" / "complexity.csv").read_text().splitlines()[1:]
        medians = [float(r.split(",")[1]) for r in rows]
        assert medians[-1] / medians[0] <= 25.0

    def test_train_writes_model_and_history(self, tmp_path):
        text = (
            "nt = 8\nnr = 4\nnt_rf = 4\nnr_rf = 4\nns = 2\ntrain_size = 6\n"
            "max_iters = 10\nbatch_size = 2\nseed = 2\ntolerance = 0.0\n"
        )
        cfg = parse_config(write_config(tmp_path, text), kind="train")
        outputs = run_experiment(cfg, tmp_path / "out")
        names = {p.name for p in outputs}
        assert {"model.npz", "train_history.csv", "manifest.json"} <= names
        from hybridprec.dnn import load_mlp

        net = load_mlp(str(tmp_path / "out" / "model.npz"))
        assert net.codec.nt == 8

    def test_train_manifest_records_stages_and_training(self, tmp_path, monkeypatch):
        import json

        import hybridprec.dnn as dnn_module

        steps = []
        step = dnn_module.sgd_momentum_step

        def counted_step(*args, **kwargs):
            steps.append(1)
            return step(*args, **kwargs)

        monkeypatch.setattr(dnn_module, "sgd_momentum_step", counted_step)
        # one batch per epoch; tolerance 1 stops at the first window check, epoch 100
        text = (
            "nt = 8\nnr = 4\nnt_rf = 4\nnr_rf = 4\nns = 2\ntrain_size = 6\n"
            "max_iters = 1000\nbatch_size = 6\nseed = 2\ntolerance = 1.0\n"
        )
        cfg = parse_config(write_config(tmp_path, text), kind="train")
        run_experiment(cfg, tmp_path / "out")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert {"dataset", "train", "save", "compute"} <= set(manifest["stages_seconds"])
        history = (tmp_path / "out" / "train_history.csv").read_text().splitlines()[1:]
        assert manifest["training"] == {
            "epochs": len(history),
            "steps": len(steps),
            "final_loss": float(history[-1].split(",")[1]),
        }
        assert manifest["training"]["steps"] == 100

    def test_train_steps_capped_mid_epoch(self, tmp_path):
        import json

        # 3 batches per epoch; 10 steps end in the fourth epoch's first batch
        text = (
            "nt = 8\nnr = 4\nnt_rf = 4\nnr_rf = 4\nns = 2\ntrain_size = 6\n"
            "max_iters = 10\nbatch_size = 2\nseed = 2\ntolerance = 0.0\n"
        )
        cfg = parse_config(write_config(tmp_path, text), kind="train")
        run_experiment(cfg, tmp_path / "out")
        training = json.loads((tmp_path / "out" / "manifest.json").read_text())["training"]
        assert (training["epochs"], training["steps"]) == (4, 10)

    def test_failed_train_run_removes_its_model(self, tmp_path, capsys):
        # the history cannot be written over a directory, after the model is saved
        text = (
            "nt = 8\nnr = 4\nnt_rf = 4\nnr_rf = 4\nns = 2\ntrain_size = 6\n"
            "max_iters = 10\nbatch_size = 2\nseed = 2\ntolerance = 0.0\n"
        )
        (tmp_path / "out" / "train_history.csv").mkdir(parents=True)
        rc = main(["train", "--config", str(write_config(tmp_path, text)), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out" / "model.npz").exists()
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_failed_manifest_leaves_no_temporary_file(self, tmp_path, capsys):
        # the manifest cannot replace a directory, after the curve and its temporary file are written
        text = BER_CFG.replace("trials = 200", "trials = 30")
        (tmp_path / "out" / "manifest.json").mkdir(parents=True)
        rc = main(["se", "--config", str(write_config(tmp_path, text)), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["manifest.json"]

    def test_train_without_steps_rejected_with_line_number(self, tmp_path):
        with pytest.raises(ConfigError, match="line 2: a run that trains needs max_iters >= 1"):
            parse_config(write_config(tmp_path, "seed = 1\nmax_iters = 0\n"), kind="train")

    def test_diverging_factorization_exits_with_error(self, tmp_path, capsys):
        text = (
            BER_CFG.replace("schemes = fully_digital_gmd, phase_projection", "schemes = sgd_hybrid")
            .replace("learning_rate = 0.02", "learning_rate = 5")
            .replace("trials = 200", "trials = 20")
        )
        rc = main(["ber", "--config", str(write_config(tmp_path, text)), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: factorization diverged in 20 of 20 instances")
        assert "learning_rate = 5.0" in err
        assert not (tmp_path / "out" / "ber.csv").exists()


class TestModelCheck:
    """A loaded model.npz must fit the config's codec (nt, nt_rf, ns) and input width."""

    def write_model_config(self, tmp_path, model_dims):
        save_mlp(build_precoder_mlp(model_dims, seed=0), str(tmp_path / "model.npz"))
        text = BER_CFG.replace(
            "schemes = fully_digital_gmd, phase_projection", "schemes = dnn_hybrid\nmodel = model.npz"
        )
        return write_config(tmp_path, text)

    def run_with_model(self, tmp_path, model_dims):
        cfg = parse_config(self.write_model_config(tmp_path, model_dims), kind="ber")
        run_experiment(cfg, tmp_path / "out", config_dir=tmp_path)

    def test_model_for_other_nt_rejected(self, tmp_path):
        # same input width (2 * 8 * 16 = 2 * 16 * 8) but an nt=8 codec
        with pytest.raises(ConfigError, match=r"\(8, 2, 2, 256\).*\(16, 4, 2, 256\)"):
            self.run_with_model(tmp_path, SystemDims(nt=8, nr=16, nt_rf=2, nr_rf=2, ns=2))

    def test_model_for_other_nt_rf_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\(16, 2, 2, 256\).*\(16, 4, 2, 256\)"):
            self.run_with_model(tmp_path, SystemDims(nt=16, nr=8, nt_rf=2, nr_rf=4, ns=2))

    def test_matching_model_runs(self, tmp_path):
        self.run_with_model(tmp_path, SystemDims(nt=16, nr=8, nt_rf=4, nr_rf=4, ns=2))
        assert len((tmp_path / "out" / "ber.csv").read_text().splitlines()) == 1 + 2

    def test_absolute_model_path_loads_from_another_directory(self, tmp_path):
        (tmp_path / "models").mkdir()
        (tmp_path / "configs").mkdir()
        model = tmp_path / "models" / "model.npz"
        save_mlp(build_precoder_mlp(SystemDims(nt=16, nr=8, nt_rf=4, nr_rf=4, ns=2), seed=0), str(model))
        text = BER_CFG.replace("schemes = fully_digital_gmd, phase_projection", f"schemes = dnn_hybrid\nmodel = {model}")
        cfg_path = write_config(tmp_path / "configs", text)
        assert main(["ber", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        assert len((tmp_path / "out" / "ber.csv").read_text().splitlines()) == 1 + 2

    def test_mismatch_exits_nonzero_with_message(self, tmp_path, capsys):
        path = self.write_model_config(tmp_path, SystemDims(nt=8, nr=4, nt_rf=2, nr_rf=2, ns=2))
        rc = main(["ber", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "does not fit the config" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["truncated", "two bytes", "without w6"])
    def test_broken_model_file_exits_with_error(self, tmp_path, capsys, damage):
        path = self.write_model_config(tmp_path, SystemDims(nt=16, nr=8, nt_rf=4, nr_rf=4, ns=2))
        model = tmp_path / "model.npz"
        if damage == "truncated":
            model.write_bytes(model.read_bytes()[: model.stat().st_size // 2])
        elif damage == "two bytes":  # shorter than the zip signature
            model.write_bytes(model.read_bytes()[:2])
        else:
            arrays = dict(np.load(model))
            del arrays["w6"]
            np.savez(model, **arrays)
        rc = main(["se", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "model.npz" in err

    def test_model_with_clamp_max_below_one_exits_with_error(self, tmp_path, capsys):
        path = self.write_model_config(tmp_path, SystemDims(nt=16, nr=8, nt_rf=4, nr_rf=4, ns=2))
        model = tmp_path / "model.npz"
        arrays = dict(np.load(model))
        arrays["clamp_max"] = np.array(0.5)
        np.savez(model, **arrays)
        rc = main(["se", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot load the model {model}: clamp_max must be >= 1, got 0.5")

    def test_model_whose_codec_does_not_fit_its_output_layer_exits_with_error(self, tmp_path, capsys):
        path = self.write_model_config(tmp_path, SystemDims(nt=16, nr=8, nt_rf=4, nr_rf=4, ns=2))
        model = tmp_path / "model.npz"
        arrays = dict(np.load(model))
        arrays["w6"], arrays["b6"] = arrays["w6"][:, :79], arrays["b6"][:79]
        arrays["widths"][-1] = 79
        np.savez(model, **arrays)
        rc = main(["se", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot load the model {model}: codec output_dim 80 != output layer width 79")

    def test_model_that_is_a_directory_exits_with_error(self, tmp_path, capsys):
        text = BER_CFG.replace("schemes = fully_digital_gmd, phase_projection", "schemes = dnn_hybrid\nmodel = .")
        path = write_config(tmp_path, text)
        rc = main(["se", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: cannot load the model {tmp_path}")


class TestPlotScript:
    def test_ber_script_logscale_and_columns(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, BER_CFG), kind="ber")
        run_experiment(cfg, tmp_path / "out")
        script = (tmp_path / "out" / "ber.gp").read_text()
        assert "set logscale y" in script
        header = (tmp_path / "out" / "ber.csv").read_text().splitlines()[0].split(",")
        # referenced column indices must exist in the header
        assert f"${header.index('snr_db') + 1}" in script
        assert f":{header.index('ber') + 1} " in script
        assert "fully_digital_gmd" in script

    def test_se_script_linear_axes(self, tmp_path):
        text = BER_CFG.replace("trials = 200", "trials = 20")
        cfg = parse_config(write_config(tmp_path, text), kind="se")
        run_experiment(cfg, tmp_path / "out")
        script = (tmp_path / "out" / "se.gp").read_text()
        assert "unset logscale" in script
        assert "set logscale" not in script.replace("unset logscale", "")


class TestMainEntry:
    def test_cli_round_trip(self, tmp_path):
        cfg_path = write_config(tmp_path, BER_CFG)
        rc = main(["ber", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "ber.csv").is_file()

    def test_seed_override(self, tmp_path):
        cfg_path = write_config(tmp_path, BER_CFG)
        main(["ber", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
        main(["ber", "--config", str(cfg_path), "--out", str(tmp_path / "b"), "--seed", "99"])
        assert (tmp_path / "a" / "ber.csv").read_bytes() != (tmp_path / "b" / "ber.csv").read_bytes()

    def test_negative_seed_override_rejected(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, BER_CFG)
        rc = main(["ber", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--seed", "-1"])
        assert rc == 1
        assert "seed" in capsys.readouterr().err

    def test_unknown_kind_exits_nonzero(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, "trials = 5\n")
        with pytest.raises(SystemExit) as info:
            main(["gmd-check", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert info.value.code != 0
        assert "invalid choice: 'gmd-check'" in capsys.readouterr().err

    def test_validation_error_exit_code(self, tmp_path):
        cfg_path = write_config(tmp_path, "ns = 4\nnt_rf = 2\n")
        rc = main(["ber", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 1

    def test_out_that_is_a_file_exits_with_error(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, BER_CFG)
        rc = main(["ber", "--config", str(cfg_path), "--out", str(cfg_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_console_subprocess(self, tmp_path):
        cfg_path = write_config(tmp_path, BER_CFG)
        proc = subprocess.run(
            [sys.executable, "-m", "hybridprec.cli", "ber", "--config", str(cfg_path),
             "--out", str(tmp_path / "out")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "manifest.json").is_file()


def test_readme_documents_every_config_key():
    """ExperimentConfig is the only list of keys, so each must appear in a backticked span of the docs."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("### Config keys", 1)[1].split("\n### ", 1)[0]
    documented = {word for span in re.findall(r"`([^`]+)`", section) for word in re.findall(r"\w+", span)}
    missing = [f.name for f in fields(ExperimentConfig) if f.name not in documented]
    assert not missing, f"README's Config keys section names no key {missing}"


def test_readme_quick_start_runs(capsys):
    """The python block under README's "Library quick start" runs as written."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    loss, converged = capsys.readouterr().out.split()
    assert float(loss) < 0.1
    assert converged in ("True", "False")
