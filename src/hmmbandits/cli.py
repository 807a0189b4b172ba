"""Command-line surface.

Subcommands: ``simulate`` (full policy x horizon x seed grid), ``estimate``
(spectral estimation error curves), ``check-lemmas`` (randomized invariant
suite), ``fit-rate`` (log-log slope over existing summaries), and
``print-config-schema``.

Exit codes: 0 success, 1 usage error, 2 configuration/validation failure,
3 numerical failure.  The ``LBL_SEED`` environment variable overrides the
configured master seed; ``--seed`` overrides both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import CONFIG_SCHEMA, FLAG_KEYS, ExperimentConfig, apply_overrides, load_config
from .errors import ConfigError, HmmBanditsError, InsufficientData
from .evaluation import fit_rate, read_summaries, run_lemma_trials
from .runner import _atomic_write, estimation_curves, run_experiment, write_estimation_csv

COMMANDS = ("simulate", "estimate", "check-lemmas", "fit-rate", "print-config-schema")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    """One override flag per key of the configuration table that has one."""
    for key in FLAG_KEYS:
        if isinstance(key.default, bool):
            kind = {"action": "store_true", "default": None}
        else:
            kind = {"type": key.convert, "choices": getattr(key.bound, "choices", None)}
        parser.add_argument(key.flag, dest=key.attr,
                            help=f"overrides '{key.name}' in [{key.section}]", **kind)


def _load(args) -> ExperimentConfig:
    config = load_config(args.config)
    overrides = {key.attr: getattr(args, key.attr) for key in FLAG_KEYS}
    if overrides["master_seed"] is None and "LBL_SEED" in os.environ:
        raw = os.environ["LBL_SEED"]
        try:
            overrides["master_seed"] = int(raw)
        except ValueError as exc:
            raise ConfigError(f"LBL_SEED must be an integer, got {raw!r}") from exc
    return apply_overrides(config, **overrides)


def _cmd_simulate(args) -> int:
    config = _load(args)
    return run_experiment(config)


def _cmd_estimate(args) -> int:
    config = _load(args)
    rows = estimation_curves(config)
    os.makedirs(config.run.out, exist_ok=True)
    write_estimation_csv(rows, os.path.join(config.run.out, "estimation_curves.csv"))
    return 0


def _cmd_check_lemmas(args) -> int:
    if args.trials < 1:
        print(f"check-lemmas: --trials must be >= 1, got {args.trials}", file=sys.stderr)
        return 1
    if args.seed is not None and args.seed < 0:
        print(f"check-lemmas: --seed must be >= 0, got {args.seed}", file=sys.stderr)
        return 1
    results = run_lemma_trials(args.trials, seed=args.seed or 0)
    trials = results.pop("trials")
    all_pass = True
    for name, passed in results.items():
        status = "ok" if passed == trials else "FAIL"
        print(f"{name}: {passed}/{trials} {status}")
        all_pass &= passed == trials
    return 0 if all_pass else 3


def _cmd_fit_rate(args) -> int:
    if args.out == "":
        raise ConfigError("--out must name an output directory, got an empty value")
    groups = read_summaries(args.results_dir)
    if not groups:
        print("no summary.csv found", file=sys.stderr)
        return 2
    report = {}
    for policy, by_horizon in sorted(groups.items()):
        try:
            fit = fit_rate(by_horizon)
        except InsufficientData as exc:
            report[policy] = {"error": str(exc)}
            continue
        report[policy] = {
            "slope": fit.slope,
            "slope_ci_90": list(fit.slope_ci),
            "horizons": list(fit.horizons),
            "mean_regrets": list(fit.final_regrets),
        }
    text = json.dumps(report, indent=2)
    print(text)
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        _atomic_write(os.path.join(args.out, "rate_fit.json"), text + "\n")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_usage())
        return 0 if argv else 1
    command = argv[0]
    if command not in COMMANDS:
        print(f"unknown subcommand '{command}'\n{_usage()}", file=sys.stderr)
        return 1

    parser = argparse.ArgumentParser(prog=f"hmmbandits {command}")
    if command in ("simulate", "estimate"):
        parser.add_argument("config", nargs="?", default=None,
                            help="INI experiment configuration")
        parser.add_argument("--config", dest="config_flag", default=None,
                            help="alternative way to pass the configuration")
        _add_common_flags(parser)
    elif command == "check-lemmas":
        parser.add_argument("--trials", type=int, default=1000)
        parser.add_argument("--seed", type=int, default=None)
    elif command == "fit-rate":
        parser.add_argument("results_dir")
        parser.add_argument("--out", default=None)
    try:
        args = parser.parse_args(argv[1:])
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    if command in ("simulate", "estimate"):
        if args.config_flag is not None:
            args.config = args.config_flag
        if args.config is None:
            print(f"{command}: a configuration file is required", file=sys.stderr)
            return 1

    try:
        if command == "simulate":
            return _cmd_simulate(args)
        if command == "estimate":
            return _cmd_estimate(args)
        if command == "check-lemmas":
            return _cmd_check_lemmas(args)
        if command == "fit-rate":
            return _cmd_fit_rate(args)
        if command == "print-config-schema":
            print(CONFIG_SCHEMA)
            return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except HmmBanditsError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


def _usage() -> str:
    return (
        "usage: hmmbandits <command> [options]\n"
        "commands:\n"
        "  simulate <config>        run the policy x horizon x seed grid\n"
        "  estimate <config>        spectral estimation error curves\n"
        "  check-lemmas [--trials N]  randomized lemma-check suite\n"
        "  fit-rate <results-dir>   log-log regret slope from summaries\n"
        "  print-config-schema      documented configuration keys\n"
    )


if __name__ == "__main__":
    raise SystemExit(main())
