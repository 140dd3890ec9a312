"""Command-line entry point.

One executable, five subcommands covering the pipeline stages:

    fuzztriage prepare   --config run.ini          # dataset + splits
    fuzztriage calibrate --config run.ini          # per-class height table
    fuzztriage rank      --config run.ini          # ranked queue CSVs
    fuzztriage evaluate  --config run.ini          # full evaluation report
    fuzztriage stress    --config run.ini          # flags-only end-to-end run

Each runs ``pipeline.run`` and prints the paths it wrote, then the stamp
that heads each of them. Exit codes: 0 success, 2 configuration or input
error (a path that cannot be read or written included), 3 runtime error
(running out of memory included).
"""

from __future__ import annotations

import argparse
import gc
import logging
import sys
from typing import Sequence

from . import pipeline
from .config import load_config, parse_key
from .errors import ConfigError, FuzztriageError, ParseError, ValidationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="INI run configuration file")
    common.add_argument("--out", metavar="DIR", help="results directory (overrides config)")
    common.add_argument("--seed", metavar="N", help="random seed (overrides config)")
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
    for command, help_text in pipeline.COMMANDS.items():
        sub.add_parser(command, parents=[common], help=help_text)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if not logging.getLogger().handlers:
        logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        seed = None if args.seed is None else parse_key("run", "seed", args.seed, "--seed")
        kappas = None if args.kappa is None else parse_key("ranking", "kappa", args.kappa, "--kappa")
        config = load_config(args.config, seed=seed, out_dir=args.out, kappas=kappas)
        try:
            result = pipeline.run(config, args.command)
        except ConfigError as exc:  # a key only the data shows to be bad; no flag sets it
            raise ConfigError(f"{args.config or '<defaults>'}: {exc}") from exc
    except (ConfigError, ParseError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FuzztriageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:  # a size the config asks for that this machine cannot hold
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_RUNTIME
    for path in result.written:
        print(path)
    print(result.stamp)
    return EXIT_OK


def run() -> None:
    """:func:`main` as a process: the heap the imports built, and at exit
    every object left, is frozen out of garbage collection, so no collection
    scans it again. :func:`main` itself leaves the collector alone."""
    gc.freeze()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
