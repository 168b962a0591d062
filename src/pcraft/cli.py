"""Command-line front end.

Scenario configuration files go in, CSV tables come out.  Subcommands:

* ``ingest``: extract saturation throughputs and degradation ratios
  from benchmark CSVs.
* ``avail``: availability of one configured cluster.
* ``integrity``: correct/corrupt/down shares of one node over the
  configured horizon (``horizon_hours = 730.5`` gives one month).
* ``plan``: smallest extra-node counts meeting the configured target.
* ``sweep``: run a canned table or figure-data suite.
* ``simulate``: Monte Carlo estimate of the configured cluster's
  availability, as a cross-check of the analytic result.

Exit codes: 0 on success, 2 for usage or configuration errors, 1 when a
computation fails.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys

from .availability import ClusterSpec, _model_to_simulate, _model_to_solve, availability
from .config import ConfigError, ScenarioConfig, load_config
from .integrity import build_integrity_model, integrity_breakdown
from .perf import degradation_ratios, parse_benchmark_csv, saturation_throughput
from .planner import plan_capacity
from .simulate import simulate_ctmc
from .suites import SUITES, run_suite
from .variants import NODE_VARIANTS

__all__ = ["main"]


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse handles --help (0) and usage (2)
        return int(exit_.code or 0)

    try:
        config = load_config(args.config) if args.config else ScenarioConfig()
    except (ConfigError, OSError) as err:
        print(f"pcraft: {err}", file=sys.stderr)
        return 2

    try:
        header, rows = args.handler(args, config)
    except ConfigError as err:
        print(f"pcraft: {err}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, OSError) as err:
        print(f"pcraft: {err}", file=sys.stderr)
        return 1

    if not args.out:
        _write_csv(header, rows, sys.stdout)
        return 0
    try:
        with open(args.out, "w", newline="") as handle:
            _write_csv(header, rows, handle)
    except OSError as err:
        print(f"pcraft: cannot write {args.out}: {err.strerror or err}", file=sys.stderr)
        return 2
    return 0


@functools.cache   # parsing does not change the parser; building it costs ~1.4 ms
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcraft",
        description="Capacity planning for fault-tolerant services: "
                    "availability and integrity models plus cluster sizing.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--config", metavar="FILE",
                       help="scenario file of key = value lines")
        p.add_argument("--out", metavar="FILE",
                       help="write CSV here instead of stdout")
        p.set_defaults(handler=handler)
        return p

    p = add("ingest", _cmd_ingest,
            "Extract saturation throughput per benchmark curve and "
            "degradation ratios versus native.")
    p.add_argument("curves", nargs="+", metavar="APP:VARIANT:CSV",
                   help="benchmark curve labelled as application:variant:path")
    # Parsed and range-checked as the config key it overrides.
    p.add_argument("--latency-threshold-ms", default=None,
                   help="latency bound defining saturation (required here "
                        "or via the config key latency_threshold_ms)")

    add("avail", _cmd_avail,
        "Availability of the configured cluster over the horizon.")
    add("integrity", _cmd_integrity,
        "Correct/corrupt/down time shares of one node over the horizon "
        "(horizon_hours; 730.5 is one month).")
    add("plan", _cmd_plan,
        "Smallest extra-node count per variant meeting the target nines.")
    p = add("sweep", _cmd_sweep, "Run a canned table or figure-data sweep.")
    p.add_argument("--suite", required=True, choices=sorted(SUITES),
                   help="which canned sweep to run")
    p = add("simulate", _cmd_simulate,
            "Monte Carlo availability estimate of the configured cluster.")
    # Parsed and range-checked as the config keys they override.
    p.add_argument("--replications", default=None,
                   help="override the config replication count")
    p.add_argument("--seed", default=None,
                   help="override the config seed")
    return parser


def _write_csv(header, rows, handle) -> None:
    def render(value):
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        if isinstance(value, float):
            return repr(value)
        return str(value)

    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([render(v) for v in row])


def _variants_for(config: ScenarioConfig) -> list[str]:
    if config.node_variant:
        return [config.node_variant]
    return list(NODE_VARIANTS)


def _cluster_spec(config: ScenarioConfig, variant: str) -> ClusterSpec:
    config.require("technique", "deployment")
    return ClusterSpec.with_extra(config.technique, config.deployment,
                                  config.base_nodes(variant), config.extra_nodes)


def _cmd_ingest(args, config: ScenarioConfig):
    if args.latency_threshold_ms is not None:
        config.set_value("latency_threshold_ms", args.latency_threshold_ms)
    threshold = config.latency_threshold_ms
    if threshold is None:
        raise ConfigError(
            "a latency threshold is required: pass --latency-threshold-ms "
            "or set the configuration key 'latency_threshold_ms'")

    nodt: dict[str, dict[str, float]] = {}
    order: list[tuple[str, str]] = []
    for item in args.curves:
        parts = item.split(":", 2)
        if len(parts) != 3:
            raise ConfigError(
                f"curve {item!r} must be labelled APP:VARIANT:CSV")
        app, variant, path = parts
        if variant in nodt.get(app, {}):
            raise ConfigError(f"curve label {app}:{variant} is given more than once")
        curve = parse_benchmark_csv(path, application=app, variant=variant)
        nodt.setdefault(app, {})[variant] = saturation_throughput(curve, threshold)
        order.append((app, variant))

    ratios = {
        app: degradation_ratios({app: table}).ratios if "native" in table else {}
        for app, table in nodt.items()
    }
    rows = [
        [app, variant, nodt[app][variant],
         ratios[app].get(variant, None)]
        for app, variant in order
    ]
    return ("application", "variant", "nodt", "ratio_vs_native"), rows


def _cmd_avail(args, config: ScenarioConfig):
    rows = []
    for variant in _variants_for(config):
        spec = _cluster_spec(config, variant)
        model = _model_to_solve(spec, config.avail_rates(), config.parallel_recovery)
        report = availability(model, config.horizon_s)
        rows.append([config.technique, config.deployment, variant, spec.num,
                     config.extra_nodes, report.availability, report.nines,
                     report.downtime_hours])
    return ("technique", "deployment", "variant", "base", "extra",
            "availability", "nines", "downtime_hours"), rows


def _cmd_integrity(args, config: ScenarioConfig):
    rows = []
    for variant in _variants_for(config):
        model = build_integrity_model(config.integrity_rates(variant))
        report = integrity_breakdown(model, config.horizon_s)
        rows.append([variant, config.transient_rate_per_month,
                     config.horizon_hours, report.correct, report.corrupt,
                     report.down])
    return ("variant", "transient_rate_per_month", "horizon_hours",
            "correct", "corrupt", "down"), rows


def _cmd_plan(args, config: ScenarioConfig):
    rows = []
    for variant in _variants_for(config):
        result = plan_capacity(config.plan_request(variant))
        extra = result.extra if result.feasible else "x"
        rows.append([variant, result.base, extra, result.availability,
                     result.nines])
    return ("variant", "base", "extra", "availability", "nines"), rows


def _cmd_sweep(args, config: ScenarioConfig):
    return run_suite(args.suite, config)


def _cmd_simulate(args, config: ScenarioConfig):
    for key in ("replications", "seed"):
        if getattr(args, key) is not None:
            config.set_value(key, getattr(args, key))
    replications, seed = config.replications, config.seed
    rows = []
    for variant in _variants_for(config):
        model = _model_to_simulate(_cluster_spec(config, variant), config.avail_rates(),
                                   config.parallel_recovery, replications)
        est = simulate_ctmc(model.ctmc, model.up_reward, config.horizon_s,
                            replications, seed)
        rows.append([config.technique, config.deployment, variant, model.spec.num,
                     config.extra_nodes, est.mean, est.ci_half_width, est.low, est.high,
                     replications, seed])
    return ("technique", "deployment", "variant", "base", "extra", "mean",
            "ci_half_width", "ci_low", "ci_high", "replications", "seed"), rows
