"""Command-line interface: subcommands, exit codes, output layout."""

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tucker_adapters.cli import build_parser, load_config, main
from tucker_adapters.config import ConfigError, ExperimentConfig, check_ranges
from tucker_adapters.degrade import (
    LowLightParams,
    OverexposeParams,
    ScatterParams,
    load_image,
    save_depth,
    save_image,
)

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


@pytest.mark.parametrize("command", ["train", "reference"])
def test_reference_of_a_run_trained_without_eval_each(out_root, command):
    """``train`` or ``reference`` after ``train --no-eval-each`` scores every
    sealed task from its checkpoint and writes the ``reference.json`` bytes
    of a run trained with eval after each task."""
    assert main(["train", *TINY, "--run-dir", str(out_root / "each")]) == 0
    run_dir = out_root / "later"
    assert main(["train", *TINY, "--no-eval-each", "--run-dir", str(run_dir)]) == 0
    assert not (run_dir / "reference.json").exists()
    assert main([command, *TINY, "--run-dir", str(run_dir)]) == 0
    assert ((run_dir / "reference.json").read_bytes()
            == (out_root / "each" / "reference.json").read_bytes())


@pytest.mark.parametrize("command", ["eval", "reference"])
def test_run_directory_of_another_config_is_refused(out_root, capsys, command):
    run_dir = out_root / "exp"
    tiny = [*TINY[:-2], "--run-dir", str(run_dir)]   # TINY less its seed
    assert main(["train", *tiny, "--seed", "0"]) == 0
    before = {p: p.stat().st_mtime_ns for p in run_dir.rglob("*")}
    assert main([command, *tiny, "--seed", "5"]) == 2
    assert "belongs to a different config" in capsys.readouterr().err
    assert not (run_dir / "eval").exists()
    assert {p: p.stat().st_mtime_ns for p in run_dir.rglob("*")} == before


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


@pytest.mark.parametrize("content,what", [("[1]", "expected a JSON object"),
                                          ("{", "invalid JSON")])
def test_broken_manifest_named_exit_code_2(out_root, capsys, content, what):
    manifest = out_root / "exp" / "manifest.json"
    manifest.parent.mkdir()
    manifest.write_text(content)
    assert main(["eval", *TINY, "--run-dir", str(manifest.parent)]) == 2
    err = capsys.readouterr().err
    assert str(manifest) in err and what in err


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """A trained TINY run directory; each test damages a copy of it."""
    run_dir = tmp_path_factory.mktemp("finished") / "exp"
    assert main(["train", *TINY, "--run-dir", str(run_dir)]) == 0
    return run_dir


@settings(max_examples=150)
@given(data=st.data())
def test_a_damaged_run_file_is_named(finished_run, data):
    """Damage one file that ``eval`` reads: it exits 2 naming the file,
    except that a damaged ``reference.json`` only warns (a deleted one is
    absent) and only the existence of ``complete.marker`` is read."""
    checkpoint = sorted(p.name for p in (finished_run / "task_001").iterdir())
    names = ["manifest.json", "reference.json",
             *(f"task_001/{n}" for n in checkpoint)]
    name = data.draw(st.sampled_from(names), label="file")
    damage = data.draw(st.sampled_from(["truncate", "[1]", "{", "delete"]),
                       label="damage")
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "exp"
        shutil.copytree(finished_run, run_dir)
        path = run_dir / name
        if damage == "delete":
            path.unlink()
        elif damage == "truncate":
            cut = data.draw(st.integers(0, path.stat().st_size - 1), label="byte")
            path.write_bytes(path.read_bytes()[:cut])
        else:
            path.write_text(damage)
        err = io.StringIO()
        with (contextlib.redirect_stdout(io.StringIO()),
              contextlib.redirect_stderr(err),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            code = main(["eval", *TINY, "--run-dir", str(run_dir)])
    err = err.getvalue()
    assert "Traceback" not in err and "allow_pickle" not in err
    if name == "reference.json":
        assert code == 0, err
        warned = [w for w in caught if str(path) in str(w.message) and
                  "eval reports without reference values" in str(w.message)]
        assert len(warned) == (damage != "delete")
    elif name.endswith("complete.marker") and damage != "delete":
        assert code == 0, err
    else:
        assert code == 2 and str(path) in err, err


def _edit_json(key, value):
    def edit(path):
        meta = json.loads(path.read_text())
        meta[key] = value
        path.write_text(json.dumps(meta))
    return edit


def _edit_npz(key, change):
    """Rewrite an npz with the array ``key`` changed by ``change`` (called
    with None where there is no such array), or deleted when ``change`` is
    None."""
    def edit(path):
        with np.load(path) as data:
            arrays = dict(data)
        if change is None:
            del arrays[key]
        else:
            arrays[key] = change(arrays.get(key))
        np.savez(path, **arrays)
    return edit


def _edit_header(key, change):
    """``_edit_npz`` of the JSON header ``key``, its value changed by ``change``."""
    return _edit_npz(key, lambda a: np.array(json.dumps(change(json.loads(str(a))))))


@pytest.mark.parametrize("name,damage,what", [
    pytest.param("state.json", lambda p: p.write_text('{"task_count": 2}'),
                 "pair_to_task", id="state-without-pairs"),
    pytest.param("state.json", _edit_json("pair_to_task", [[0, 1]]),
                 "pair_to_task", id="state-pair-not-a-triple"),
    pytest.param("state.json", _edit_json("seen_instr", [True]),
                 "seen_instr", id="state-instr-not-an-int"),
    pytest.param("state.json", _edit_json("pair_to_task", [[3, 0, 0], [0, 1, 1]]),
                 "pair_to_task", id="state-scene-out-of-range"),
    pytest.param("state.json", _edit_json("pair_to_task", [[0, 2, 0], [0, 1, 1]]),
                 "pair_to_task", id="state-env-out-of-range"),
    pytest.param("state.json", _edit_json("pair_to_task", [[0, 0, 0], [2, 0, 7]]),
                 "pair_to_task", id="state-task-out-of-range"),
    pytest.param("state.json", _edit_json("pair_to_task", [[0, 0, 0], [0, 0, 1]]),
                 "pair_to_task", id="state-pair-repeated"),
    pytest.param("state.json", _edit_json("seen_instr", [0]),
                 "seen_instr", id="state-instr-out-of-range"),
    pytest.param("state.json", _edit_json("task_count", 7),
                 "task_count", id="state-count-past-the-stream"),
    pytest.param("state.json", _edit_json("task_count", "2"),
                 "task_count", id="state-count-a-string"),
    pytest.param("state.json", _edit_json("task_count", True),
                 "task_count", id="state-count-a-bool"),
    pytest.param("state.json", _edit_json("kind", "lora"),
                 "kind", id="state-kind-of-another-adapter"),
    pytest.param("state.json", _edit_json("seed", 4.0),
                 "seed", id="state-seed-a-float"),
    pytest.param("state.json", _edit_json("seen_pairs", [[2, 1], [2, 0]]),
                 "seen_pairs", id="state-pairs-out-of-order"),
    pytest.param("state.json", _edit_json("rng_scheme", "default_rng(seed)"),
                 "rng_scheme", id="state-rng-scheme-changed"),
    pytest.param("fisher.npz", _edit_npz("L0:core", lambda a: a.ravel()[:1]),
                 "L0:core", id="fisher-broadcast-shape"),
    pytest.param("fisher.npz", _edit_npz("L0:core", None),
                 "L0:core", id="fisher-missing-block"),
    pytest.param("store.npz", _edit_npz("scene_sums", lambda a: a[:-1]),
                 "scene_sums", id="store-row-short"),
    pytest.param("adapter_L0.npz", _edit_header("__meta__", lambda m: {
        **m, "kind": "tucker9"}), "tucker9", id="adapter-unknown-kind"),
    pytest.param("adapter_L0.npz", _edit_header("__meta__", lambda m: {
        k: v for k, v in m.items() if k != "kind"}), "kind", id="adapter-no-kind"),
    pytest.param("adapter_L0.npz", _edit_npz("extra", lambda _: np.zeros(1)),
                 "extra", id="adapter-extra-array"),
    pytest.param("adapter_L1.npz", _edit_header("__meta__", lambda m: [1]),
                 "__meta__", id="adapter-header-a-list"),
    pytest.param("store.npz", _edit_header("meta", lambda m: {**m, "dim": "3"}),
                 "dim", id="store-dim-a-string"),
    pytest.param("store.npz", _edit_header("meta", lambda m: {
        **m, "scene_ids": ["a", *m["scene_ids"][1:]]}), "scene_ids",
                 id="store-id-a-string"),
    pytest.param("store.npz", _edit_header("meta", lambda m: {
        **m, "env_counts": [0, *m["env_counts"][1:]]}), "env_counts",
                 id="store-count-zero"),
    pytest.param("store.npz", _edit_header("meta", lambda m: {
        **m, "scene_ids": [s + 7 for s in m["scene_ids"]]}), "scene_ids",
                 id="store-scene-shifted"),
    pytest.param("store.npz", _edit_header("meta", lambda m: {
        **m, "scene_ids": [(s + 1) % 3 for s in m["scene_ids"]]}), "scene_ids",
                 id="store-scene-untrained"),
    pytest.param("store.npz", _edit_header("meta", lambda m: {
        **m, "env_ids": [*m["env_ids"][:-1], 2]}), "env_ids",
                 id="store-env-untrained"),
])
def test_damaged_checkpoint_named_exit_code_2(finished_run, tmp_path, capsys,
                                              name, damage, what):
    """A checkpoint file that loads but holds the wrong keys, types or
    shapes fails naming the file and the key or array at fault."""
    run_dir = tmp_path / "exp"
    shutil.copytree(finished_run, run_dir)
    damage(run_dir / "task_001" / name)
    assert main(["eval", *TINY, "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert str(run_dir / "task_001" / name) in err and what in err, err


@pytest.mark.parametrize("command", ["eval", "train"])
def test_manifest_of_another_stream_named_exit_code_2(finished_run, tmp_path,
                                                      capsys, command):
    """A manifest that is not the one the config writes is refused, naming
    the file and the key, though its config hash is right."""
    run_dir = tmp_path / "exp"
    shutil.copytree(finished_run, run_dir)
    _edit_json("stream", [[0, 0], [1, 1]])(run_dir / "manifest.json")
    before = {p: p.stat().st_mtime_ns for p in run_dir.rglob("*")}
    assert main([command, *TINY, "--run-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert str(run_dir / "manifest.json") in err and "stream" in err, err
    assert {p: p.stat().st_mtime_ns for p in run_dir.rglob("*")} == before


def _log_records(path):
    return [{k: v for k, v in json.loads(line).items() if k != "wall_time"}
            for line in path.read_text().splitlines()]


@pytest.mark.parametrize("edit,line", [
    pytest.param(lambda text: "[1]\n" + text, 1, id="first-line-an-array"),
    pytest.param(lambda text: text.replace('"task": 0', '"task": "0"', 1), 1,
                 id="task-not-an-int"),
    pytest.param(lambda text: text + '{"task": 1, "ep\n' + text, 7,
                 id="cut-line-not-last"),
    pytest.param(lambda text: text + '{"task": 1, "ep', None, id="last-line-cut"),
])
def test_resume_names_a_bad_training_log_line(finished_run, tmp_path, capsys,
                                              edit, line):
    """Resuming trims ``train_log.jsonl``: a line that is not an object with
    an int "task" exits 2 naming the file and the line, but a last line cut
    short mid-write is dropped and task 1 trains again to the same log."""
    run_dir = tmp_path / "exp"
    shutil.copytree(finished_run, run_dir)
    log = run_dir / "train_log.jsonl"
    log.write_text(edit(log.read_text()))
    (run_dir / "task_001" / "complete.marker").unlink()
    code = main(["train", *TINY, "--run-dir", str(run_dir)])
    err = capsys.readouterr().err
    if line is None:
        assert code == 0, err
        assert _log_records(log) == _log_records(finished_run / "train_log.jsonl")
    else:
        assert code == 2
        assert f"error: {log}: line {line}: expected a JSON object" in err, err


def test_gradcheck_passes_on_tiny_config(out_root, capsys):
    # the second config has gradient entries near 1e-6 on a loss near 21,
    # finer than a second-order central difference resolves to 1e-4
    for args in (["--set", "d_f=8", "--set", "hidden=6", "--set", "n_scenes=3",
                  "--set", "n_envs=2", "--set", "n_tasks=2",
                  "--set", "ranks=2 2 2 2", "--seed", "0"],
                 ["--set", "adapter_kind=tucker3", "--set", "ranks=3,3,4,4,2"]):
        assert main(["gradcheck", *args]) == 0, args
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


def test_degrade_depth_of_the_wrong_shape_names_its_file(out_root, tmp_path,
                                                        capsys):
    src, dep, out = tmp_path / "in", tmp_path / "depth", tmp_path / "out"
    src.mkdir(), dep.mkdir()
    save_image(src / "a.ppm", np.full((9, 14, 3), 0.5))
    save_depth(dep / "a.pgm", np.ones((8, 14)))
    code = main(["degrade", "--mode", "scattering", "--input", str(src),
                 "--output", str(out), "--depth-dir", str(dep)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {dep / 'a.pgm'}: depth shape (8, 14) does not match image "
        f"{src / 'a.ppm'} (9, 14)\n")
    assert not (out / "manifest.json").exists()


def test_report_missing_scores_exit_code_2(out_root, tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    assert main(["report", str(tmp_path / "empty")]) == 2
    assert "scores.json" in capsys.readouterr().err


@pytest.mark.parametrize("payload,what", [
    ('{"task": 0, "sr": 1.0}', "expected a JSON array"),
    ('[{"task": 0, "spl": 1.0, "osr": 1.0}]', "row 0 has no sr"),
    ('[{"task": 0, "sr"', "invalid JSON"),
    ('[{"task": 0, "sr": "x", "spl": 1, "osr": 1}]', "row 0: sr: expected float"),
    ('[{"task": 0, "sr": 1, "spl": true, "osr": 1}]', "row 0: spl: expected float"),
    ('[{"task": "avg", "sr": 1, "spl": 1, "osr": 1}, {"task": 1.5, "sr": 1, '
     '"spl": 1, "osr": 1}]', "row 1: task: expected int"),
    ('[{"task": 0, "sr": 1, "spl": 1, "osr": 1, "m_sr": "x"}]',
     "row 0: m_sr: expected float"),
    ('[1]', "row 0: expected a score object"),
])
def test_report_malformed_scores_exit_code_2(tmp_path, capsys, payload, what):
    (tmp_path / "scores.json").write_text(payload)
    assert main(["report", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert str(tmp_path / "scores.json") in err and what in err


@pytest.mark.parametrize("extra", ['', ', "m_sr": null', ', "m_sr": 1',
                                   ', "m_sr": 1, "m_spl": 0.5, "m_osr": 0'])
def test_report_accepts_reference_columns(tmp_path, capsys, extra):
    (tmp_path / "scores.json").write_text(
        f'[{{"task": 0, "sr": 1, "spl": 1, "osr": 1{extra}}}]')
    assert main(["report", str(tmp_path)]) == 0
    assert capsys.readouterr().out


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
    (["train", "--set", "n_instr=65"], "n_instr"),
    (["degrade", "--mode", "lowlight", "--set", "read_noise=-1"], "read_noise"),
    (["degrade", "--mode", "scattering", "--set", "atmospheric_light=2,0,0"],
     "atmospheric_light"),
    (["degrade", "--mode", "overexposure", "--set", "color_shift=-1,1,1"],
     "color_shift"),
    (["degrade", "--mode", "overexposure", "--set", "gain=1e308"], "gain"),
    (["degrade", "--mode", "lowlight", "--seed", "-1"], "seed"),
    (["train", "--set", "scene_scale=1e300"], "scene_scale"),
    (["degrade", "--mode", "bogus"], "mode"),
    (["degrade", "--mode", "scattering", "--depth-dir", "/nonexistent/depths"],
     "depth_dir"),
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


def test_cli_import_loads_no_scipy():
    """Only ``degrade`` needs scipy, so importing the CLI must not load it."""
    code = ("import sys, tucker_adapters.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_train_and_eval_at_the_world_float_caps(out_root):
    """The largest world floats validation accepts train and evaluate
    without a non-finite feature, centroid or similarity."""
    run_dir = str(out_root / "exp")
    argv = ["--set", "n_tasks=3", "--set", "train_episodes=8",
            "--set", "test_episodes=5", "--set", "epochs=1", "--set", "d_f=16",
            "--set", "hidden=8", "--set", "horizon=8",
            "--set", "scene_scale=1e6", "--set", "env_scale=1e6",
            "--set", "instr_scale=1e6", "--set", "feature_noise=1e6",
            "--run-dir", run_dir]
    assert main(["train", *argv]) == 0
    assert main(["eval", *argv]) == 0


@pytest.mark.parametrize("cls,name,text", [
    (cls, name, text)
    for cls in (ExperimentConfig, ScatterParams, LowLightParams, OverexposeParams)
    for name, text in cls.RANGES.items()])
def test_range_table_bounds(cls, name, text):
    """A closed bound passes and the float just outside it fails; an open
    bound fails and the float just inside it passes. A tuple field is
    checked through its first item."""
    default = cls()

    def check(v):
        old = getattr(default, name)
        value = (v,) + old[1:] if isinstance(old, tuple) else v
        check_ranges(dataclasses.replace(default, **{name: value}), cls.RANGES)

    lo, hi = (float(b) for b in text[1:-1].split(","))
    for bound, closed, outward in ((lo, text[0] == "[", -np.inf),
                                   (hi, text[-1] == "]", np.inf)):
        if closed:
            check(bound)
            with pytest.raises(ConfigError, match=f"^{name}: must lie in"):
                check(float(np.nextafter(bound, outward)))
        else:
            check(float(np.nextafter(bound, -outward)))
            with pytest.raises(ConfigError, match=f"^{name}: must lie in"):
                check(bound)


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
