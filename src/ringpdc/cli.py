"""Command line front end for scenario runs, sweeps and method comparisons.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 resource refusal (memory budget).  `sweep --max-workers` (at least 1)
caps the sweep's thread pool, and `compare` runs its methods in turn;
PDC_MEMORY_BUDGET_MB sets the refusal threshold.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import scenarios as sc


def _add_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", help="name of a shipped preset (see list-presets)")
    group.add_argument("--config", help="path to a YAML config file")


def _add_common(parser: argparse.ArgumentParser) -> None:
    _add_source(parser)
    parser.add_argument(
        "--output-dir", default=None, help="directory for CSV/JSON outputs (default from config)"
    )


def _load(args) -> sc.ScenarioConfig:
    return sc.load_preset(args.preset) if args.preset else sc.load_config(args.config)


def _fmt(value) -> str:
    if value is None:
        return "-"
    return format(float(value), ".4g")


def _print_run(res: sc.ScenarioResult) -> None:
    ex = res.summary["extrema"]
    print(
        f"{res.summary['label'] or res.summary['scenario']} [{res.summary['method']}]: "
        f"n2_max = {_fmt(ex['n2_max'])} at {_fmt(ex['t_n2_max_ps'])} ps, "
        f"q2_min = {_fmt(ex['q2_min'])}, eta = {_fmt(res.summary['eta'])}, "
        f"{res.summary['runtime_s']:.1f} s"
    )
    print(f"wrote {res.csv_path} and {res.json_path}")


def _cmd_run(args) -> int:
    config = _load(args)
    if args.method:
        config = sc.with_method(config, args.method)
    res = sc.run_scenario(config, out_dir=args.output_dir)
    _print_run(res)
    return 0


def _cmd_sweep(args) -> int:
    config = _load(args)
    res = sc.run_sweep(config, out_dir=args.output_dir, max_workers=args.max_workers)
    for row in res.rows:
        if row["error"] is not None:
            print(f"{res.parameter} = {row['value']:g}: FAILED ({row['error']})")
        else:
            print(
                f"{res.parameter} = {row['value']:g}: n2_max = {_fmt(row['n2_max'])} "
                f"at {_fmt(row['t_n2_max_ps'])} ps, q2_min = {_fmt(row['q2_min'])}, "
                f"eta = {_fmt(row['eta'])}"
            )
    print(f"wrote {res.table_path} and {res.json_path}")
    if all(row["error"] is not None for row in res.rows):
        print("every sweep row failed", file=sys.stderr)
        return 3
    return 0


def _cmd_compare(args) -> int:
    config = _load(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    res = sc.compare_methods(config, methods, out_dir=args.output_dir)
    for name, run in res.runs.items():
        _print_run(run)
    for method, entries in res.deviations["methods"].items():
        if entries:
            worst = max(entries, key=lambda e: abs(e["max_signed_deviation"]))
            print(
                f"{method} vs {res.reference}: largest deviation "
                f"{worst['max_signed_deviation']:+.4g} in {worst['column']} "
                f"at {worst['t_ps']:.3g} ps"
            )
    print(f"wrote {res.table_path} and {res.json_path}")
    return 0


def _cmd_calibrate(args) -> int:
    config = _load(args)
    report = sc.calibrate_drive(config)
    print(
        f"calibrated j0 = {report['j0']:.10g} "
        f"(n1({report['t_check_ps']:g} ps) = {report['target_n1']:g} "
        f"within {report['tolerance']:g})"
    )
    print(json.dumps(sc._jsonable(report), indent=2, sort_keys=True))
    return 0


def _cmd_validate(args) -> int:
    config = _load(args)
    report = sc.validate_config(config)
    print(
        f"ok: state dimension {report['total_dim']} ({sc._dims_text(report)}), "
        f"estimated {report['estimated_mb']:.1f} MB within "
        f"budget {report['budget_mb']:.0f} MB"
    )
    return 0


def _cmd_list_presets(_args) -> int:
    for name, description in sc.list_presets():
        print(f"{name:26s} {description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringpdc",
        description="Photon down-conversion runs for a quantum ring in a cavity.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("run", help="run one scenario and write CSV + JSON")
    _add_common(p)
    p.add_argument(
        "--method",
        choices=sc.METHOD_KINDS,
        default=None,
        help="override the configured method",
    )
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("sweep", help="run the sweep declared in the config")
    _add_common(p)
    p.add_argument("--max-workers", type=int, default=None, help="parallel sweep rows, >= 1")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("compare", help="run several methods on one scenario")
    _add_common(p)
    p.add_argument(
        "--methods",
        default="full,few_level,mean_field",
        help="comma-separated method list (first is the reference)",
    )
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("calibrate-drive", help="bisect the drive amplitude only")
    _add_source(p)
    p.set_defaults(handler=_cmd_calibrate)

    p = sub.add_parser("validate-config", help="check a config without running it")
    _add_source(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("list-presets", help="list shipped presets")
    p.set_defaults(handler=_cmd_list_presets)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except sc.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except sc.MemoryBudgetError as exc:
        print(f"resource refusal: {exc}", file=sys.stderr)
        return 4
    except (RuntimeError, ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
