"""Command-line interface: nlslab SUBCOMMAND [--config PATH] [--out DIR] ...

Subcommands: simulate, energy-track, strichartz, census, verify, budget,
almost-conservation.  Config keys come from --config (flat key=value text or
a JSON mirror) plus command-line overrides for the shared flags; the
NLSLAB_OUT environment variable overrides --out.  Exit code 0 on success,
2 if an invariant check failed, 1 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .config import ConfigError, load_config, resolve_out_dir, validate
from .experiments import (run_almost_conservation, run_budget, run_census,
                          run_energy_track, run_simulate, run_strichartz,
                          run_verify)

RUNNERS = {
    "simulate": run_simulate,
    "energy-track": run_energy_track,
    "strichartz": run_strichartz,
    "census": run_census,
    "verify": run_verify,
    "budget": run_budget,
    "almost-conservation": run_almost_conservation,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parse_args
    keeps no state between calls."""
    parser = argparse.ArgumentParser(prog="nlslab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None,
                       help="flat key=value config file (or JSON mirror)")
        p.add_argument("--out", type=Path, default=None,
                       help="run directory (NLSLAB_OUT overrides)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--threads", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    raw = {}
    try:
        if args.config is not None:
            raw = load_config(args.config)
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.threads is not None:
            raw["threads"] = args.threads
        cfg = validate(args.command, raw)
    except (ConfigError, FileNotFoundError) as err:
        print(f"nlslab: config error: {err}", file=sys.stderr)
        return 1
    out_dir = resolve_out_dir(args.out)
    try:
        code = RUNNERS[args.command](cfg, out_dir)
    except ValueError as err:
        print(f"nlslab: {err}", file=sys.stderr)
        return 1
    if code != 0:
        print(f"nlslab: invariant check failed (see {out_dir}/summary.txt)",
              file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
