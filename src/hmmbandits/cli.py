"""Command-line surface: one ``argparse`` tree under ``hmmbandits``.

Subcommands: ``simulate`` (full policy x horizon x seed grid), ``estimate``
(spectral estimation error curves), ``check-lemmas`` (randomized invariant
suite), ``fit-rate`` (log-log slope over existing summaries), and
``print-config-schema``; ``hmmbandits <command> --help`` lists the
arguments of one.

Each subcommand imports the modules it runs when it runs, so
``print-config-schema`` loads neither the runner nor the evaluation suite.

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


def _int_at_least(low: int):
    """An argparse ``type``: an integer ``>= low``."""
    def convert(raw: str) -> int:
        value = int(raw)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    convert.__name__ = "int"  # argparse names the type in its message on bad text
    return convert


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
    from .runner import run_experiment

    config = _load(args)
    return run_experiment(config)


def _cmd_estimate(args) -> int:
    from .runner import (estimation_checkpoints, estimation_curves, make_out_dir,
                         write_estimation_csv)

    config = _load(args)
    estimation_checkpoints(config)   # bad inputs fail before --out is created
    out = make_out_dir(config.run.out)
    write_estimation_csv(estimation_curves(config), os.path.join(out, "estimation_curves.csv"))
    return 0


def _cmd_check_lemmas(args) -> int:
    from .evaluation import run_lemma_trials

    results = run_lemma_trials(args.trials, seed=args.seed)
    trials = results.pop("trials")
    all_pass = True
    for name, passed in results.items():
        status = "ok" if passed == trials else "FAIL"
        print(f"{name}: {passed}/{trials} {status}")
        all_pass &= passed == trials
    return 0 if all_pass else 3


def _cmd_fit_rate(args) -> int:
    from .evaluation import fit_rate, read_summaries

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
        from .runner import _atomic_write, make_out_dir

        _atomic_write(os.path.join(make_out_dir(args.out), "rate_fit.json"), text + "\n")
    return 0


def _cmd_print_config_schema(args) -> int:
    print(CONFIG_SCHEMA)
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hmmbandits")
    commands = parser.add_subparsers(title="commands", dest="command", required=True)
    for name, run, summary in (("simulate", _cmd_simulate, "run the policy x horizon x seed grid"),
                               ("estimate", _cmd_estimate, "spectral estimation error curves")):
        sub = commands.add_parser(name, help=summary)
        sub.add_argument("config", help="INI experiment configuration")
        for key in FLAG_KEYS:  # one override flag per key of the table that has one
            if isinstance(key.default, bool):
                kind = {"action": "store_true", "default": None}
            else:
                kind = {"type": key.convert, "choices": getattr(key.bound, "choices", None)}
            sub.add_argument(key.flag, dest=key.attr,
                             help=f"overrides '{key.name}' in [{key.section}]", **kind)
        sub.set_defaults(run=run)
    sub = commands.add_parser("check-lemmas", help="randomized lemma-check suite")
    sub.add_argument("--trials", type=_int_at_least(1), default=1000)
    sub.add_argument("--seed", type=_int_at_least(0), default=0)
    sub.set_defaults(run=_cmd_check_lemmas)
    sub = commands.add_parser("fit-rate", help="log-log regret slope from summaries")
    sub.add_argument("results_dir")
    sub.add_argument("--out", default=None)
    sub.set_defaults(run=_cmd_fit_rate)
    sub = commands.add_parser("print-config-schema", help="documented configuration keys")
    sub.set_defaults(run=_cmd_print_config_schema)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help or the usage error
        return 0 if exc.code in (0, None) else 1
    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except HmmBanditsError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
