"""Command-line interface.

Subcommands:
  build-archive   illuminate the walker behavior space and save the archive
  run             run the configured methods over replicate seeds
  summarize       recompute summary statistics from an existing runs.csv

Exit codes: 0 on success, 1 on configuration errors, 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .config import ConfigError, parse_config_file, with_overrides
from .map_elites import save_archive
from .experiment import (
    build_archive,
    run_experiment,
    summarize_runs,
    summary_csv_text,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sela",
        description="Semi-episodic damage-recovery experiments on desk-scale worlds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build-archive", help="illuminate and save a walker archive")
    build.set_defaults(handler=_cmd_build_archive)
    build.add_argument("--config", required=True, help="experiment config file")
    build.add_argument("--out", required=True, help="output archive file")

    run = sub.add_parser("run", help="run configured methods over replicate seeds")
    run.set_defaults(handler=_cmd_run)
    run.add_argument("--config", required=True, help="experiment config file")
    run.add_argument("--out", required=True, help="output directory for CSV results")
    run.add_argument("--replicates", type=int, default=None, help="override replicate count")
    run.add_argument("--base-seed", type=int, default=None, help="override base seed")

    summarize = sub.add_parser("summarize", help="recompute stats from a runs.csv")
    summarize.set_defaults(handler=_cmd_summarize)
    summarize.add_argument("--runs", required=True, help="existing runs.csv file")
    summarize.add_argument("--out", default=None, help="write summary here instead of stdout")
    return parser


def _cmd_build_archive(args) -> int:
    config = parse_config_file(args.config)
    started = time.perf_counter()
    archive = build_archive(config)
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_bytes(save_archive(archive))
    elapsed = time.perf_counter() - started
    print(
        f"wrote {out_path} ({len(archive)} elites, "
        f"coverage {archive.coverage:.1%}, {elapsed:.1f}s)"
    )
    return 0


def _cmd_run(args) -> int:
    config = parse_config_file(args.config)
    given = {"replicates": args.replicates, "base_seed": args.base_seed}
    config = with_overrides(config, **{k: v for k, v in given.items() if v is not None})
    started = time.perf_counter()
    records, summary = run_experiment(config, out_dir=args.out)
    elapsed = time.perf_counter() - started
    print(f"wrote {Path(args.out) / 'runs.csv'} ({len(records)} runs, {elapsed:.1f}s)")
    for row in summary:
        if row.metric != "total_steps":
            continue
        print(
            f"  {row.method.value}: median total {row.median:g} steps "
            f"(q25 {row.q25:g}, q75 {row.q75:g}), success {row.success_rate:.0%}"
        )
    return 0


def _cmd_summarize(args) -> int:
    summary = summarize_runs(args.runs)
    text = summary_csv_text(summary)
    if args.out is None:
        sys.stdout.write(text)
    else:
        out_path = Path(args.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(text, encoding="utf-8", newline="")
        print(f"wrote {out_path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, RuntimeError) as exc:
        # ArchiveFormatError is a ValueError; notes name the failed replicate
        print(f"error: {exc}", *getattr(exc, "__notes__", ()), sep="\n  ", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
