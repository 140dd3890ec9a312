"""Command-line entry point.

One executable, five subcommands covering the pipeline stages:

    fuzztriage prepare   --config run.ini          # dataset + splits
    fuzztriage calibrate --config run.ini          # per-class height table
    fuzztriage rank      --config run.ini          # ranked queue CSVs
    fuzztriage evaluate  --config run.ini          # full evaluation report
    fuzztriage stress    --config run.ini          # flags-only end-to-end run

Exit codes: 0 success, 2 configuration or input error (a path that cannot
be read or written included), 3 runtime error.
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import Sequence

from .config import artifact_stamp, load_config, parse_key
from .errors import ConfigError, FuzztriageError, ParseError, TrainingError, ValidationError
from .pipeline import cmd_calibrate, cmd_evaluate, cmd_prepare, cmd_rank, cmd_stress

_COMMANDS = {
    "prepare": cmd_prepare,
    "calibrate": cmd_calibrate,
    "rank": cmd_rank,
    "evaluate": cmd_evaluate,
    "stress": cmd_stress,
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="INI run configuration file")
    common.add_argument("--out", metavar="DIR", help="results directory (overrides config)")
    common.add_argument("--seed", metavar="N", type=int, help="random seed (overrides config)")
    common.add_argument(
        "--kappa",
        metavar="LIST",
        help="comma-separated risk-attitude values (overrides config)",
    )

    parser = argparse.ArgumentParser(
        prog="fuzztriage",
        description="Fuzzy severity-and-confidence alert triage pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("prepare", parents=[common], help="load or generate the dataset and write splits")
    sub.add_parser("calibrate", parents=[common], help="train the detector and write the height table")
    sub.add_parser("rank", parents=[common], help="write one ranked queue CSV per method")
    sub.add_parser("evaluate", parents=[common], help="write the full evaluation report")
    sub.add_parser("stress", parents=[common], help="run evaluate with the flags-only detector")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        kappas = None if args.kappa is None else parse_key("ranking", "kappa", args.kappa, "--kappa")
        config = load_config(args.config, seed=args.seed, out_dir=args.out, kappas=kappas)
        result = _COMMANDS[args.command](config)
    except (ConfigError, ParseError, ValidationError, TrainingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FuzztriageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for path in result.written:
        print(path)
    print(artifact_stamp(config))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
