"""Command line entry point.

    lcalim <verify|sample|conditions|selftest> --config <path> [--out DIR] [--seed U64]

``--config`` takes a file path or the name of a bundled example config
(see ``lcalim.examples``).
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from importlib import resources

from .config import ExperimentConfig, parse_config
from .runner import EXIT_BAD_CONFIG, EXIT_IO_ERROR, run_check, run_sample, run_selftest
from .verify import ConfigError


def bundled_example_names() -> list[str]:
    files = resources.files("lcalim.examples")
    return sorted(
        p.name[: -len(".json")] for p in files.iterdir() if p.name.endswith(".json")
    )


def load_config_text(spec: str) -> str:
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        bundled = resources.files("lcalim.examples").joinpath(f"{spec}.json")
        if bundled.is_file():
            return bundled.read_text(encoding="utf-8")
        raise


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcalim",
        description="Numerical verification of limit theorems for triangular "
        "arrays on the torus, p-adic integers and p-adic solenoid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("verify", "run the exact engine and write verdicts"),
        ("sample", "Monte Carlo cross-check against the exact engine"),
        ("conditions", "write the hypothesis condition sequences only"),
    ):
        cmd = sub.add_parser(name, help=doc)
        cmd.add_argument("--config", required=True, help="config file or bundled example name")
        cmd.add_argument("--out", default=None, help="output directory (default: from config)")
        cmd.add_argument("--seed", type=int, default=None, help="override the master seed")
    sel = sub.add_parser("selftest", help="run the acceptance suite")
    sel.add_argument("--config", default=None, help=argparse.SUPPRESS)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: parse_args keeps no state between
    calls, so every call of main can share it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "selftest":
        return run_selftest()
    try:
        text = load_config_text(args.config)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    except UnicodeDecodeError as exc:
        print(f"error: invalid config: config is not valid UTF-8: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed must be non-negative")
        cfg: ExperimentConfig = parse_config(text)
        out_dir = args.out or cfg.out_dir
        if args.command == "sample":
            return run_sample(cfg, out_dir, seed_override=args.seed)
        return run_check(cfg, out_dir, args.command)
    except ConfigError as exc:
        # parse errors, and pairs that parse but match no verifiable theorem
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
