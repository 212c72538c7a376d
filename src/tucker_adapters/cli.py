"""Experiment command-line front end.

Subcommands: train, eval, reference, gradcheck, degrade, report.
Exit codes: 0 success, 1 configuration/validation error, 2 runtime failure.

Run directories default to ``$TUCKER_ADAPTERS_OUT`` (or ``./runs``) plus the
config hash, so identical configs land in the same resumable directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import ConfigError, ExperimentConfig, check_field, coerce_field
from .metrics import TaskScore, render_table, write_reports
from .pipeline import run_eval, run_gradcheck, run_reference, run_training
from .runfiles import read_json

GRADCHECK_TOLERANCE = 1e-4


def _set_pairs(args, cls) -> dict:
    """The ``--set key=value`` overrides, each converted to the type of its
    field of the dataclass ``cls``."""
    overrides = {}
    for pair in args.set or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, val = pair.split("=", 1)
        overrides[key] = coerce_field(cls, key, val)
    return overrides


def load_config(args) -> ExperimentConfig:
    overrides = _set_pairs(args, ExperimentConfig)
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.config:
        return ExperimentConfig.from_file(args.config, overrides)
    return ExperimentConfig.from_dict(overrides)


def resolve_run_dir(args, cfg: ExperimentConfig) -> Path:
    if args.run_dir:
        return Path(args.run_dir)
    root = Path(os.environ.get("TUCKER_ADAPTERS_OUT", "runs"))
    return root / f"{cfg.adapter_kind}-{cfg.config_hash()}"


def _add_config_args(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file (flat key/value)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a config field (repeatable)")
    p.add_argument("--seed", type=int, default=None, help="override the seed")
    p.add_argument("--run-dir", help="run directory (default: output root + hash)")


def cmd_train(args) -> int:
    cfg = load_config(args)
    run_dir = resolve_run_dir(args, cfg)
    summary = run_training(cfg, run_dir, eval_each=not args.no_eval_each,
                           progress=lambda msg: print(msg, flush=True))
    print(f"training complete: {summary['run_dir']} "
          f"(config {summary['config_hash']})")
    return 0


def cmd_eval(args) -> int:
    cfg = load_config(args)
    run_dir = resolve_run_dir(args, cfg)
    scores = run_eval(cfg, run_dir, oracle_ids=args.oracle_ids)
    out = write_reports(Path(run_dir) / "eval", scores,
                        {"config_hash": cfg.config_hash(),
                         "oracle_ids": args.oracle_ids,
                         "reference": str(Path(run_dir) / "reference.json")})
    print(render_table(scores))
    print(f"reports written to {out}")
    return 0


def cmd_reference(args) -> int:
    cfg = load_config(args)
    run_dir = resolve_run_dir(args, cfg)
    values = run_reference(cfg, run_dir,
                           progress=lambda msg: print(msg, flush=True))
    for key in sorted(values, key=int):
        v = values[key]
        print(f"task {key}: M-SR={v['sr']:.3f} M-SPL={v['spl']:.3f} "
              f"M-OSR={v['osr']:.3f}")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = load_config(args)
    report = run_gradcheck(cfg)
    failed = {k: v for k, v in report.items() if v >= GRADCHECK_TOLERANCE}
    for name, err in sorted(report.items()):
        status = "ok" if err < GRADCHECK_TOLERANCE else "FAIL"
        print(f"{status:4} {name}: max rel err {err:.3e}")
    if failed:
        print(f"gradient check FAILED for {len(failed)} block(s)", file=sys.stderr)
        return 2
    print(f"gradient check passed ({len(report)} blocks, "
          f"tolerance {GRADCHECK_TOLERANCE})")
    return 0


def cmd_degrade(args) -> int:
    # imported here so that no other command loads scipy
    from .degrade import MODE_DEFAULTS, degrade_directory
    if args.mode not in MODE_DEFAULTS:
        raise ConfigError(f"mode: {args.mode!r} is not one of {sorted(MODE_DEFAULTS)}")
    manifest = degrade_directory(args.mode, args.input, args.output,
                                 depth_dir=args.depth_dir, seed=args.seed,
                                 overrides=_set_pairs(args, MODE_DEFAULTS[args.mode]))
    print(f"degraded {manifest['count']} image(s) -> {args.output} "
          f"(manifest.json written)")
    return 0


def cmd_report(args) -> int:
    directory = Path(args.dir)
    scores_file = directory / "scores.json"
    if not scores_file.exists():
        scores_file = directory / "eval" / "scores.json"
    if not scores_file.exists():
        print(f"no scores.json under {args.dir} (run `eval` first)",
              file=sys.stderr)
        return 2
    rows = read_json(scores_file, list)
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValueError(f"{scores_file}: row {i}: expected a score object")
        missing = [k for k in ("task", "sr", "spl", "osr") if k not in row]
        if missing:
            raise ValueError(f"{scores_file}: row {i} has no {', '.join(missing)}")
        for key in TaskScore.__dataclass_fields__ if row["task"] != "avg" else ():
            try:
                check_field(TaskScore, key, row.get(key))
            except ConfigError as exc:
                raise ValueError(f"{scores_file}: row {i}: {exc}") from None
    scores = [TaskScore(task=r["task"], sr=r["sr"], spl=r["spl"], osr=r["osr"],
                        m_sr=r.get("m_sr"), m_spl=r.get("m_spl"),
                        m_osr=r.get("m_osr"))
              for r in rows if r["task"] != "avg"]
    print(render_table(scores))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tucker-adapters",
        description="Tensor-adapter lifelong-learning experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train sequentially over the task stream")
    _add_config_args(p)
    p.add_argument("--no-eval-each", action="store_true",
                   help="skip the after-each-task reference evaluation")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score all tasks with the final checkpoint")
    _add_config_args(p)
    p.add_argument("--oracle-ids", action="store_true",
                   help="bypass retrieval and use true scenario ids")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("reference", help="cache per-prefix reference metrics")
    _add_config_args(p)
    p.set_defaults(func=cmd_reference)

    p = sub.add_parser("gradcheck",
                       help="validate analytic gradients by finite differences")
    _add_config_args(p)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("degrade", help="synthesize degraded images")
    p.add_argument("--mode", required=True, help="degradation to apply")
    p.add_argument("--input", required=True, help="directory of .ppm images")
    p.add_argument("--output", required=True)
    p.add_argument("--depth-dir", help="directory of .pgm depth maps "
                                       "(scattering only)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override a degradation parameter (repeatable)")
    p.set_defaults(func=cmd_degrade)

    p = sub.add_parser("report", help="render score tables from a directory")
    p.add_argument("dir", help="run or eval directory containing scores.json")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure contract: exit code 2
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
