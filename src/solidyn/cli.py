"""Command-line interface: run, validate, and list scenarios.

All run state lives in the configuration file plus the seed, so repeated
invocations with identical inputs reproduce byte-identical outputs.  No
environment variables are consulted.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ConfigError
from .scenarios import KINDS, parse_config, run_scenario


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="solidyn",
        description="Pilot-wave / soliton co-evolution scenarios")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a scenario configuration")
    run.add_argument("config", help="path to a YAML scenario file")
    run.add_argument("--output-dir", default=None,
                     help="override the configured output directory")
    run.add_argument("--snapshots", type=int, metavar="EVERY_K", default=None,
                     help="write field snapshots every k steps")
    run.add_argument("--seed", type=int, default=None,
                     help="override the configured seed")
    run.add_argument("--quiet", action="store_true",
                     help="suppress the summary echo")

    val = sub.add_parser("validate", help="parse and validate a config only")
    val.add_argument("config", help="path to a YAML scenario file")
    val.add_argument("--quiet", action="store_true")

    sub.add_parser("list-scenarios", help="list available scenario kinds")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "list-scenarios":
        for kind, spec in KINDS.items():
            print(f"{kind:18s} {spec.description}")
        return 0

    overrides = {}
    if args.command == "run":
        # each flag is the config key it overrides, checked by the parser
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.snapshots is not None:
            overrides["run"] = {"snapshot_every": args.snapshots}
        if args.output_dir is not None:
            overrides["output"] = {"directory": args.output_dir}
    try:
        cfg = parse_config(args.config, overrides)
        if args.command == "run":
            return run_scenario(cfg, quiet=args.quiet)
    except ConfigError as err:
        if not args.quiet:
            print(f"configuration error: {err}", file=sys.stderr)
        return 2
    if not args.quiet:
        points = "x".join(str(int(p)) for p in cfg.points)
        lengths = "x".join(f"{float(ell):g}" for ell in cfg.lengths)
        print(f"ok: {cfg.kind} scenario, grid {points} over {lengths}, "
              f"dt={cfg.dt:g}, t_final={cfg.t_final:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
