"""Command-line interface.

Subcommands: sweep-gamma3 | compare | verify.  Options may come from a flat
key=value config file (--config) and are overridable by flags of the same
name: every ``ExperimentConfig`` field is a flag, parsed as the config file
parses it.  ``gamma3`` and ``proj``, which only sweep-gamma3 reads, are a
usage error for the other two, as a flag or as a key.  Exit codes: 0 ok, 1
usage error, 2 run failure, 3 monitor violation in strict mode.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .harness import (
    ExperimentConfig,
    _coerce,
    cmd_compare,
    cmd_sweep_gamma3,
    cmd_verify,
    config_from_mapping,
    load_config_file,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUN_FAILURE = 2
EXIT_STRICT_VIOLATION = 3

# compare runs both projections with the rules' own gamma3, and verify the
# inexact one: only sweep-gamma3 reads these options
_SWEEP_ONLY = ("gamma3", "proj")


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipgm",
        description="Gradient projection with feasible inexact projections: "
                    "benchmark instances, sweeps and verification.  Set "
                    "OPENBLAS_NUM_THREADS=1 before starting Python: the "
                    "solvers' BLAS calls are small, and BLAS threads made "
                    "a benchmark pass 2-3 times slower on a 2-core VM.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("sweep-gamma3", "constant-step runs across gamma3 caps (CSV)"),
            ("compare", "inexact vs exact, constant vs Armijo grid (CSV)"),
            ("verify", "replay the inequality monitors (JSON)")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value config file")
        for f in dataclasses.fields(ExperimentConfig):
            if isinstance(f.default, bool):
                p.add_argument(_flag(f.name), action="store_const", const=True)
            else:
                p.add_argument(_flag(f.name), help=f.metadata.get("help"))
    return parser


def _given(args: argparse.Namespace) -> dict:
    """The options the config file and the flags give, a flag over a key."""
    mapping: dict = {}
    if args.config:
        mapping.update(load_config_file(args.config))
    for f in dataclasses.fields(ExperimentConfig):
        value = getattr(args, f.name)
        if value is None:
            continue
        try:
            mapping[f.name] = _coerce(f.name, value)
        except ValueError as exc:
            raise ValueError(f"{_flag(f.name)}: {exc}") from None
    return mapping


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        given = _given(args)
        config = config_from_mapping(given)
        if args.command != "compare":
            config.one_beta(args.command)
        ignored = [k for k in _SWEEP_ONLY if k in given]
        if args.command != "sweep-gamma3" and ignored:
            raise ValueError(f"{args.command} does not read "
                             f"{', '.join(ignored)}: only sweep-gamma3 does")
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.command in ("sweep-gamma3", "compare"):
            report = (cmd_sweep_gamma3 if args.command == "sweep-gamma3"
                      else cmd_compare)(config)
            if config.out:
                csv_path, json_path = report.write(config.out)
                print(f"wrote {csv_path} and {json_path}")
            else:
                sys.stdout.write(report.to_csv())
            if any(str(r.get("monitors", "")).startswith("error")
                   for r in report.rows):
                return EXIT_RUN_FAILURE
            if config.strict and report.monitor_failures:
                return EXIT_STRICT_VIOLATION
            return EXIT_OK
        if args.command == "verify":
            checks = cmd_verify(config)
            payload = json.dumps(checks, indent=2, sort_keys=True) + "\n"
            if config.out:
                with open(config.out, "w") as fh:
                    fh.write(payload)
                print(f"wrote {config.out}")
            else:
                sys.stdout.write(payload)
            failed = [k for k, v in checks.items() if not v.get("passed", False)]
            if failed:
                print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
                if config.strict:
                    return EXIT_STRICT_VIOLATION
            return EXIT_OK
        raise AssertionError(f"unhandled command {args.command}")
    except Exception as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE


if __name__ == "__main__":
    sys.exit(main())
