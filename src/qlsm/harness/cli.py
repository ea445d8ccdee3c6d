"""Command-line experiment runner.

Subcommands: price, scaling, validate-bounds, dump-oracle. Outputs one JSON
report plus a flat CSV per run. Exit codes: 0 success, 2 config error or an
unwritable output directory, 3 bound-validation failure under --strict."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..errors import ConfigError, QlsmError
from .config import ExperimentConfig
from .experiments import dump_oracle, run_price, run_scaling, validate_bounds

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BOUNDS = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON experiment configuration file")
    parser.add_argument("--out", type=Path, default=Path("reports"),
                        help="output directory for JSON/CSV reports")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlsm",
        description="Optimal-stopping pricing experiments: classical and "
                    "simulated-quantum regression Monte Carlo against exact oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_price = sub.add_parser("price", help="run pricing trials against the oracle")
    _add_common(p_price)
    p_price.add_argument("--trials", type=int, default=None,
                         help="override the config trial count")

    p_scaling = sub.add_parser("scaling", help="cost-vs-accuracy slope study")
    _add_common(p_scaling)
    p_scaling.add_argument("--epsilons", type=float, nargs="+",
                           default=[2.0**-k for k in range(3, 8)],
                           help="accuracy grid (at least 4 points)")

    p_bounds = sub.add_parser(
        "validate-bounds",
        help="audit the configured instance: its end-to-end error bounds, and the Hermite "
             "tail or Vandermonde sigma_min bounds its basis uses")
    _add_common(p_bounds)
    p_bounds.add_argument("--strict", action="store_true",
                          help="exit 3 if any bound check fails")

    p_oracle = sub.add_parser("dump-oracle", help="write the exact value table")
    _add_common(p_oracle)
    # Only the commands that draw random numbers take a seed.
    for p in (p_price, p_scaling, p_bounds):
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config is not None:
        config = ExperimentConfig.load(args.config)
    else:
        config = ExperimentConfig()
        config.validate()
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        updates["trials"] = args.trials
    if updates:
        import dataclasses

        config = dataclasses.replace(config, **updates)
        config.validate()
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
    except (ConfigError, OSError, UnicodeDecodeError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "price":
            report = run_price(config)
        elif args.command == "scaling":
            report = run_scaling(config, args.epsilons)
        elif args.command == "validate-bounds":
            report = validate_bounds(config)
        else:
            report = dump_oracle(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QlsmError as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        json_path, csv_path = report.write(args.out)
    except QlsmError as exc:
        print(f"run error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"wrote {json_path} and {csv_path}")
    if args.command == "validate-bounds":
        for row in report.rows:
            status = "pass" if row["passed"] else "FAIL"
            print(f"{status}  {row['check']}: lhs={row['lhs']:.6g} "
                  f"rhs={row['rhs']:.6g} margin={row['margin']:.3g}")
        if not report.summary["all_passed"]:
            print(f"failed checks: {report.summary['failed']}", file=sys.stderr)
            if args.strict:
                return EXIT_BOUNDS
    elif args.command == "price":
        print(f"oracle value: {report.exact_value:.10g}")
        for algo, stats in report.summary.items():
            if isinstance(stats, dict):
                print(f"{algo}: mean estimate {stats['mean_estimate']:.6g} "
                      f"(+-{stats['std_estimate']:.3g}), "
                      f"mean cost {stats['mean_cost_units']:.6g}")
    elif args.command == "scaling":
        s = report.summary
        print(f"quantum slope {s['quantum_slope']:.3f} "
              f"(+-{s['quantum_slope_halfwidth']:.3f}); "
              f"classical slope {s['classical_slope']:.3f} "
              f"(+-{s['classical_slope_halfwidth']:.3f})")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
