"""Command-line interface: subcommands, exit codes, output layout."""

import json

import numpy as np
import pytest

from tucker_adapters.cli import build_parser, load_config, main
from tucker_adapters.config import ExperimentConfig
from tucker_adapters.degrade import load_image, save_image

TINY = ["--set", "n_scenes=3", "--set", "n_envs=2", "--set", "n_tasks=2",
        "--set", "d_f=16", "--set", "hidden=12", "--set", "horizon=8",
        "--set", "train_episodes=10", "--set", "test_episodes=6",
        "--set", "epochs=3", "--seed", "4"]


@pytest.fixture
def out_root(tmp_path, monkeypatch):
    monkeypatch.setenv("TUCKER_ADAPTERS_OUT", str(tmp_path / "runs"))
    return tmp_path


def test_train_eval_report_happy_path(out_root, capsys):
    run_dir = out_root / "exp"
    assert main(["train", *TINY, "--run-dir", str(run_dir)]) == 0
    assert (run_dir / "config.json").exists()
    assert (run_dir / "manifest.json").exists()
    assert (run_dir / "train_log.jsonl").exists()
    assert main(["eval", *TINY, "--run-dir", str(run_dir)]) == 0
    assert (run_dir / "eval" / "scores.csv").exists()
    assert main(["report", str(run_dir / "eval")]) == 0
    out = capsys.readouterr().out
    assert "avg" in out


def test_default_run_dir_uses_env_root(out_root):
    assert main(["train", *TINY]) == 0
    candidates = list((out_root / "runs").glob("tucker4-*"))
    assert len(candidates) == 1


def test_train_resume_is_noop_when_complete(out_root):
    run_dir = out_root / "exp"
    assert main(["train", *TINY, "--run-dir", str(run_dir)]) == 0
    marker = run_dir / "task_001" / "complete.marker"
    stamp = marker.stat().st_mtime_ns
    assert main(["train", *TINY, "--run-dir", str(run_dir)]) == 0
    assert marker.stat().st_mtime_ns == stamp


def test_reference_command(out_root, capsys):
    run_dir = out_root / "exp"
    assert main(["reference", *TINY, "--run-dir", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "M-SR" in out
    assert (run_dir / "reference.json").exists()


def test_invalid_config_exit_code_1(out_root, capsys):
    code = main(["train", "--set", "lam1=0.9", "--set", "lam2=0.2"])
    assert code == 1
    assert "configuration error" in capsys.readouterr().err
    # validation failed before any output directory was created
    assert not list((out_root / "runs").glob("*"))


def test_unknown_config_field_rejected(out_root, capsys):
    assert main(["train", "--set", "nonsense=1"]) == 1


def test_tucker3_with_two_ranks_exit_code_1(out_root, capsys):
    assert main(["train", "--set", "adapter_kind=tucker3", "--set", "ranks=2 2"]) == 1
    assert "ranks" in capsys.readouterr().err


def test_eval_before_train_exit_code_2(out_root, capsys):
    assert main(["eval", *TINY, "--run-dir", str(out_root / "nope")]) == 2
    assert "error" in capsys.readouterr().err


def test_gradcheck_passes_on_tiny_config(out_root, capsys):
    code = main(["gradcheck", "--set", "d_f=8", "--set", "hidden=6",
                 "--set", "n_scenes=3", "--set", "n_envs=2",
                 "--set", "n_tasks=2", "--set", "ranks=2 2 2 2", "--seed", "0"])
    assert code == 0
    assert "gradient check passed" in capsys.readouterr().out


def test_config_file_plus_overrides(out_root, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"n_scenes": 3, "n_envs": 2, "n_tasks": 2,
                                    "d_f": 16, "hidden": 12, "horizon": 8,
                                    "train_episodes": 10, "test_episodes": 6,
                                    "epochs": 3}))
    run_dir = out_root / "exp"
    assert main(["train", "--config", str(cfg_file), "--seed", "4",
                 "--run-dir", str(run_dir)]) == 0
    saved = json.loads((run_dir / "config.json").read_text())
    assert saved["seed"] == 4 and saved["n_tasks"] == 2


def test_degrade_command_identity_and_manifest(out_root, tmp_path, capsys):
    src = tmp_path / "in"
    src.mkdir()
    rng = np.random.default_rng(0)
    save_image(src / "a.ppm", rng.uniform(0, 1, size=(6, 8, 3)))
    out = tmp_path / "out"
    code = main(["degrade", "--mode", "scattering", "--input", str(src),
                 "--output", str(out), "--set", "beta=0"])
    assert code == 0
    assert (out / "manifest.json").exists()
    assert (src / "a.ppm").read_bytes() == (out / "a.ppm").read_bytes()


def test_degrade_vector_override(out_root, tmp_path):
    src = tmp_path / "in"
    src.mkdir()
    save_image(src / "a.ppm", np.full((4, 4, 3), 0.5))
    out = tmp_path / "out"
    code = main(["degrade", "--mode", "overexposure", "--input", str(src),
                 "--output", str(out), "--set", "color_shift=1.0,1.0,1.0",
                 "--set", "read_noise=0", "--set", "bloom_strength=0"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["images"][0]["params"]["color_shift"] == [1.0, 1.0, 1.0]


def test_report_missing_scores_exit_code_2(out_root, tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert main(["report", str(tmp_path / "empty")]) == 2
    assert "scores.json" in capsys.readouterr().err


def _one_image_dir(tmp_path):
    src = tmp_path / "in"
    src.mkdir()
    save_image(src / "a.ppm", np.full((4, 4, 3), 0.5))
    return src


def test_degrade_bool_override_is_typed(out_root, tmp_path):
    out = tmp_path / "out"
    code = main(["degrade", "--mode", "lowlight", "--input",
                 str(_one_image_dir(tmp_path)), "--output", str(out),
                 "--set", "crf_inverse=false"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["images"][0]["params"]["crf_inverse"] is False


@pytest.mark.parametrize("override", ["seed=3", "bogus=1", "crf_inverse=maybe",
                                      "gain=high", "gain=-1"])
def test_degrade_bad_override_exit_code_1(out_root, tmp_path, capsys, override):
    code = main(["degrade", "--mode", "lowlight", "--input",
                 str(_one_image_dir(tmp_path)), "--output", str(tmp_path / "out"),
                 "--set", override])
    assert code == 1
    assert override.split("=")[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_malformed_config_file_exit_code_1(out_root, tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text('{"epochs": 3,')
    assert main(["train", "--config", str(cfg_file)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("raw,field", [({"epochs": "3"}, "epochs"),
                                       ({"epochs": True}, "epochs"),
                                       ({"lam1": "0.1"}, "lam1"),
                                       ({"ranks": [4, 4, "8", 8]}, "ranks"),
                                       ([1, 2], "JSON object")])
def test_mistyped_config_file_exit_code_1(out_root, tmp_path, capsys, raw, field):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(raw))
    assert main(["train", "--config", str(cfg_file)]) == 1
    assert field in capsys.readouterr().err
    assert not list((out_root / "runs").glob("*"))


def test_config_file_float_field_takes_an_int(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"lam1": 0, "ranks": [2, 2, 2, 2]}))
    cfg = ExperimentConfig.from_file(cfg_file)
    assert cfg.lam1 == 0 and cfg.ranks == (2, 2, 2, 2)


def test_int_in_float_field_hashes_like_the_float(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"lam1": 0}))
    from_file = ExperimentConfig.from_file(cfg_file)
    from_set = load_config(build_parser().parse_args(["train", "--set", "lam1=0"]))
    assert isinstance(from_file.lam1, float)
    assert from_file.config_hash() == from_set.config_hash()


SMALL = ["--set", "n_tasks=1", "--set", "epochs=1", "--set", "train_episodes=4",
         "--set", "test_episodes=2"]


@pytest.mark.parametrize("argv,field", [
    (["train", "--set", "lam1=nan"], "lam1"),
    (["train", "--set", "lr=nan"], "lr"),
    (["train", "--set", "hidden=0"], "hidden"),
    (["train", "--set", "ranks=0,0,0,0"], "ranks"),
    (["train", "--set", "horizon=0"], "horizon"),
    (["train", "--set", "n_tasks=0"], "n_tasks"),
    (["train", "--set", "feature_noise=-1"], "feature_noise"),
    (["train", "--set", "epsilon=inf"], "epsilon"),
    (["degrade", "--mode", "scattering", "--set", "beta=nan"], "beta"),
    (["degrade", "--mode", "lowlight", "--set", "gain=nan"], "gain"),
    (["degrade", "--mode", "lowlight", "--set", "gamma=inf"], "gamma"),
])
def test_non_finite_or_degenerate_value_exit_code_1(out_root, tmp_path, capsys,
                                                    argv, field):
    if argv[0] == "degrade":
        argv = argv + ["--input", str(_one_image_dir(tmp_path)),
                       "--output", str(tmp_path / "out")]
    else:
        argv = argv[:1] + SMALL + argv[1:]
    assert main(argv) == 1
    assert f"{field}:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert not list((out_root / "runs").glob("*"))


def test_divergence_exit_code_2(out_root, capsys):
    run_dir = out_root / "exp"
    argv = ["train", "--set", "n_tasks=2", "--set", "epochs=2",
            "--set", "train_episodes=4", "--set", "test_episodes=2",
            "--set", "lr=1e300", "--run-dir", str(run_dir)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "task 0 " in err and "epoch 0:" in err and "task_loss" in err
    assert not list(run_dir.glob("task_*/complete.marker"))
    assert not (run_dir / "train_log.jsonl").exists()
