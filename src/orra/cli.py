"""Command-line entry points for runs, studies, and trace checks.

Exit codes: 0 on success, 2 on configuration or file problems (an output
directory that cannot be made, a trace that cannot be read), 3 on numerical
failures (plant divergence, an SoC box violation, an ill-conditioned
surrogate, or a failed trace verification).
"""
from __future__ import annotations

import argparse
import json
import sys

from .aie import IllConditioningError
from .bess import SocViolationError
from .grid import GridInstabilityError
from .scenario import (ConfigError, FleetConfig, ScenarioConfig,
                       run_scenario, verify_trace)
from .studies import (
    export_ablation_curves,
    export_fluctuation_curves,
    export_step_event_curves,
    nadir,
    run_ablation,
    run_regret_study,
    settle_time,
)

EXIT_CONFIG = 2
EXIT_NUMERIC = 3


def cmd_run(args) -> int:
    config = ScenarioConfig.from_json(args.config)
    result = run_scenario(config, out_dir=args.out, oracle_every=args.oracle)
    print(f"trace: {result.trace_path}")
    print(
        f"nadir {nadir(result.df[:, 0]):+.4f} Hz; "
        f"settle {settle_time(result.time, result.df[:, 0]):.1f} s; "
        f"final fleet power {result.p_bess[-1]:+.4f} MW"
    )
    if args.curves:
        if config.kind == "step":
            paths = export_step_event_curves(result, args.out)
        else:
            paths = export_fluctuation_curves(result, args.out)
        for p in paths:
            print(f"curve: {p}")
    return 0


def cmd_ablation(args) -> int:
    config = ScenarioConfig.from_json(args.config)
    results, summaries = run_ablation(config, out_dir=args.out)
    for s in summaries:
        fleet = "fleet" if s.bess_enabled else "no fleet"
        print(
            f"{s.signal:>3} {fleet:>8}: nadir {s.nadir_hz:+.4f} Hz, "
            f"settle {s.settle_s:7.1f} s, signal rms {s.signal_rms:.4f} MW"
        )
        print(f"    trace: {s.trace_path}")
    if args.curves:
        for p in export_ablation_curves(results, args.out):
            print(f"curve: {p}")
    return 0


def cmd_regret(args) -> int:
    config = ScenarioConfig.from_json(args.config)
    result, report = run_regret_study(
        config, args.horizons, out_dir=args.out
    )
    st = report["longest_stage"]
    print(
        f"trace: {report['trace']}\n"
        f"stages: {report['stage_count']}; longest starts at "
        f"{st['start_s']:.1f} s with {st['length']} iterations"
    )
    for entry in report["regret"]:
        print(f"  horizon {entry['horizon']:>5}: {entry['value']:+.6g}")
    fit = report["slope"]
    if "slope" in fit:
        print(
            f"growth exponent {fit['slope']:.3f} from {fit['n_used']} "
            f"positive points (decade span: {fit['spans_decade']})"
        )
    else:
        print(f"growth exponent unavailable: {fit['error']}")
    bad = [
        c["stage"]
        for c in report["certificates"]
        if not (c["lemma1"]["holds"] and c["lemma2"]["holds"])
    ]
    print(
        f"certificates: {len(report['certificates'])} stages checked, "
        + ("all hold" if not bad else f"failing stages {bad}")
    )
    if args.curves:
        for p in export_step_event_curves(result, args.out):
            print(f"curve: {p}")
    return 0 if not bad else EXIT_NUMERIC


def cmd_verify(args) -> int:
    report = verify_trace(args.trace, soc_min=args.soc_min,
                          soc_max=args.soc_max)
    print(json.dumps(report, indent=2))
    return 0 if report["passed"] else EXIT_NUMERIC


def cmd_validate(args) -> int:
    config = ScenarioConfig.from_json(args.config)
    reparsed = ScenarioConfig.from_dict(config.to_dict())
    if reparsed.to_dict() != config.to_dict():
        print("config round-trip changed the configuration",
              file=sys.stderr)
        return EXIT_CONFIG
    print(f"config ok: {config.name} ({config.kind}, {config.signal}, "
          f"{config.duration:g} s, fleet of {config.fleet.n})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orra",
        description="Fleet coordination scenarios and reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one scenario and write its trace")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--oracle", action="store_true",
                   help="also solve the centralized reference per interval")
    p.add_argument("--curves", action="store_true",
                   help="export figure CSVs and SVG charts")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "ablation",
        help="run the four signal/participation arms with one seed",
    )
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.add_argument("--curves", action="store_true")
    p.set_defaults(func=cmd_ablation)

    p = sub.add_parser(
        "regret",
        help="run against the centralized reference and report",
    )
    p.add_argument("config")
    p.add_argument("--horizons", type=int, nargs="+",
                   default=[10, 20, 50, 100])
    p.add_argument("--out", default=None)
    p.add_argument("--curves", action="store_true")
    p.set_defaults(func=cmd_regret)

    p = sub.add_parser("verify", help="check a written trace file")
    p.add_argument("trace")
    p.add_argument("--soc-min", type=float, default=FleetConfig.soc_min,
                   help="lower SoC bound the trace is checked against; "
                   "give the run's fleet.soc_min (default %(default)s)")
    p.add_argument("--soc-max", type=float, default=FleetConfig.soc_max,
                   help="upper SoC bound the trace is checked against; "
                   "give the run's fleet.soc_max (default %(default)s)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("validate", help="parse and validate a config file")
    p.add_argument("config")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"file error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (GridInstabilityError, SocViolationError, IllConditioningError,
            FloatingPointError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
