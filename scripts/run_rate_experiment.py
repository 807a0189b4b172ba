#!/usr/bin/env python3
"""Run the reference rate experiment and fit log-log regret slopes.

Runs the (policy x horizon x seed) grid from configs/reference.ini for the
selected policies, writes the usual artifacts, and prints the fitted slope
with its bootstrap interval per policy.

    python3 scripts/run_rate_experiment.py --policies boxB random --out results/rates
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hmmbandits import fit_rate, load_config, read_summaries, run_experiment  # noqa: E402
from hmmbandits.errors import InsufficientData  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", default=str(ROOT / "configs" / "reference.ini"))
    parser.add_argument("--policies", nargs="+",
                        default=["boxA", "boxB", "oracle", "random"])
    parser.add_argument("--beliefs", choices=("spectral", "oracle"),
                        default="spectral")
    parser.add_argument("--seeds", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    config = load_config(args.config)
    run = config.run
    if args.out is not None:
        run = replace(run, out=args.out)
    if args.seeds is not None:
        run = replace(run, seeds=tuple(range(args.seeds)))
    config = replace(
        config,
        run=run,
        policy=replace(config.policy, policies=tuple(args.policies),
                       beliefs=args.beliefs),
    )
    code = run_experiment(config)
    if code != 0:
        return code

    for policy, regrets in sorted(read_summaries(config.run.out).items()):
        if policy == "oracle":
            continue  # regret is identically zero; nothing to fit
        try:
            fit = fit_rate(regrets)
        except InsufficientData as exc:  # small grids
            print(f"{policy}: no fit ({exc})")
            continue
        print(f"{policy}: slope {fit.slope:.3f}  ci90 "
              f"[{fit.slope_ci[0]:.3f}, {fit.slope_ci[1]:.3f}]  "
              f"mean R_T {['%.0f' % r for r in fit.final_regrets]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
