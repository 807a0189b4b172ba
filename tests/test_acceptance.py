"""Acceptance suite: each criterion runs at its stated tolerance and prints
one pass/fail line (run ``pytest tests/test_acceptance.py -s`` to see them).

Criteria 6 and 7 assert rate-direction targets for the bonus-driven policies.
The belief-error-budget prefix sums prescribed by the bonus formulas reach
~1.4e5 by T=2^16, which makes the exploration width dwarf the unit-bounded
reward gaps on the mandated horizon grid; the corresponding slope clauses
fail by construction (see the assertion messages and the analysis notes).
"""

import itertools
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from hmmbandits.cli import main as cli_main
from hmmbandits.config import ExperimentConfig, PolicySettings, RunSettings, load_config
from hmmbandits.environment import NoiseModel, RewardSpec, TransferFunction, sample_theta
from hmmbandits.evaluation import fit_rate, run_lemma_trials
from hmmbandits.hmm import HmmParams, filter_trace, sample_trajectory
from hmmbandits.runner import draw_tape, play_arm, simulate_group

from conftest import one_set_estimate, random_hmm, simulate_cell, stream_moments
from oracles import best_permutation_distance, enumerate_posterior, population_moments

CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "reference.ini"
HORIZONS = (4096, 8192, 16384, 32768, 65536)
NUM_SEEDS = 10
# (policy, beliefs) arms of criteria 6 and 7
GRID_ARMS = (("boxB", "spectral"), ("boxB", "oracle"), ("boxA", "spectral"),
             ("random", "spectral"))
_GRID_CACHE: dict = {}


def reference_config() -> "ExperimentConfig":
    return load_config(str(CONFIG_PATH))


def grid_regrets(policy: str, beliefs: str) -> dict:
    """Final regrets per horizon/seed for one arm of ``GRID_ARMS`` (cached).

    The first call plays all four arms on each (T, seed) tape, drawn once:
    the tape does not read ``beliefs``, so the two belief modes share it.
    """
    if not _GRID_CACHE:
        base = reference_config()
        configs = {b: replace(base, policy=replace(base.policy, beliefs=b))
                   for b in ("spectral", "oracle")}
        regrets = {arm: {T: [] for T in HORIZONS} for arm in GRID_ARMS}
        for T, s in itertools.product(HORIZONS, range(NUM_SEEDS)):
            tape = draw_tape(base, T, s)
            for policy_name, mode in GRID_ARMS:
                result = play_arm(configs[mode], policy_name, tape, s)
                regrets[policy_name, mode][T].append(result.regret_total)
        _GRID_CACHE.update(regrets)
    return _GRID_CACHE[policy, beliefs]


def report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {criterion} {name}: {status}{suffix}")


def test_criterion_1_filter_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        H, X = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        params = random_hmm(rng, H, X, min_entry=0.02)
        t = int(rng.integers(1, 9))
        contexts = rng.integers(0, X, size=t)
        got = filter_trace(params, contexts)[-1]
        want = enumerate_posterior(params, contexts)
        worst = max(worst, float(np.abs(got - want).sum()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 10.0
    report(1, "filter-oracle equivalence", ok,
           f"worst l1 gap {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-10
    assert elapsed < 10.0


def test_criterion_2_population_moment_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    produced = 0
    worst = 0.0
    while produced < 20:
        params = random_hmm(rng, 2, 4, min_entry=0.1, stationary=True)
        from hmmbandits.hmm import validate

        diag = validate(params)
        if diag.eps_M < 0.1 or diag.sigma_min_E < 0.1:
            continue
        produced += 1
        est = one_set_estimate(population_moments(params), H=2, seed=produced)
        worst = max(
            worst,
            best_permutation_distance(est.transition_hat, params.transition, "both"),
            best_permutation_distance(est.emission_hat, params.emission, "columns"),
        )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 30.0
    report(2, "spectral recovery on population moments", ok,
           f"worst Frobenius {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-6
    assert elapsed < 30.0


def test_criterion_3_spectral_consistency_direction():
    from hmmbandits.errors import DiagonalizationFailed

    start = time.perf_counter()
    params = reference_config().params
    uniform_error = best_permutation_distance(
        np.full((2, 2), 0.5), params.transition, "both"
    )
    improved = 0
    errors_small, errors_large = [], []
    for seed in range(20):
        traj = sample_trajectory(params, 100_000, seed=seed)
        errs = {}
        for t in (1000, 100_000):
            moments = stream_moments(traj.contexts[:t], params.num_contexts)
            try:
                est = one_set_estimate(moments, H=2, seed=seed)
            except DiagonalizationFailed:
                # a small-sample moment set can have a complex eigenstructure
                # for every contraction direction: score it as the
                # no-information (uniform) estimate
                errs[t] = uniform_error
                continue
            errs[t] = best_permutation_distance(
                est.transition_hat, params.transition, "both"
            )
        errors_small.append(errs[1000])
        errors_large.append(errs[100_000])
        improved += errs[100_000] < errs[1000]
    shrink = float(np.median(errors_small) / np.median(errors_large))
    elapsed = time.perf_counter() - start
    ok = improved >= 18 and shrink >= 3.0 and elapsed < 300.0
    report(3, "spectral consistency direction", ok,
           f"improved {improved}/20, median shrink x{shrink:.1f}, {elapsed:.0f}s")
    assert improved >= 18
    assert shrink >= 3.0
    assert elapsed < 300.0


def test_criterion_4_lemma_suite():
    start = time.perf_counter()
    results = run_lemma_trials(trials=1000, seed=404)
    trials = results.pop("trials")
    elapsed = time.perf_counter() - start
    all_pass = all(int(count) == trials for count in results.values())
    ok = all_pass and elapsed < 120.0
    report(4, "lemma suite (1000 trials each)", ok,
           ", ".join(f"{k}={v}/{trials}" for k, v in results.items())
           + f", {elapsed:.0f}s")
    assert all_pass, results
    assert elapsed < 120.0


def test_criterion_5_oracle_zero_regret():
    instances = [reference_config(), _degenerate_instance("belief_dependent")]
    worst = 0.0
    for config in instances:
        for T, seed in itertools.product((512, 4096), range(3)):
            result = simulate_cell(config, "oracle", T, seed)
            worst = max(worst, float(result.increments.max()), result.regret_total)
    ok = worst == 0.0
    report(5, "oracle pseudo-regret is exactly zero", ok, f"max increment {worst}")
    assert worst == 0.0


def test_criterion_6_boxB_sublinearity():
    start = time.perf_counter()
    spectral = grid_regrets("boxB", "spectral")
    oracle = grid_regrets("boxB", "oracle")
    fit_spectral = fit_rate(spectral, seed=6)
    fit_oracle = fit_rate(oracle, seed=6)
    elapsed = time.perf_counter() - start
    spectral_ok = fit_spectral.slope <= 0.95 and fit_spectral.slope_ci[1] < 1.0
    oracle_ok = fit_oracle.slope <= 0.80
    ok = spectral_ok and oracle_ok and elapsed < 1800.0
    report(
        6, "non-staged sublinearity", ok,
        f"spectral slope {fit_spectral.slope:.3f} ci {fit_spectral.slope_ci},"
        f" oracle slope {fit_oracle.slope:.3f}, {elapsed:.0f}s",
    )
    assert elapsed < 1800.0
    assert oracle_ok, (
        f"oracle-belief slope {fit_oracle.slope:.3f} exceeds 0.80; "
        f"means {fit_oracle.final_regrets}"
    )
    assert spectral_ok, (
        "spectral-belief arm does not separate from the linear rate: slope "
        f"{fit_spectral.slope:.3f}, ci {fit_spectral.slope_ci}. The bonus width "
        "(belief-budget prefix sum / sqrt(lambda), ~8.8e3 at T=2^16) dominates "
        "the unit-bounded reward gaps on this horizon grid, so actions are "
        "bonus-driven and the regret tracks the uniform-random baseline."
    )


def test_criterion_7_boxA_sublinearity_and_random_dominance():
    start = time.perf_counter()
    box_a = grid_regrets("boxA", "spectral")
    random_grid = grid_regrets("random", "spectral")
    fit_a = fit_rate(box_a, seed=7)
    elapsed = time.perf_counter() - start
    slope_ok = fit_a.slope <= 0.97 and fit_a.slope_ci[1] < 1.0
    dominance = {
        T: float(np.mean(box_a[T])) < float(np.mean(random_grid[T]))
        for T in HORIZONS if T >= 2**14
    }
    dominance_ok = all(dominance.values())
    ok = slope_ok and dominance_ok and elapsed < 2700.0
    report(
        7, "staged sublinearity vs random", ok,
        f"slope {fit_a.slope:.3f} ci {fit_a.slope_ci}, below-random {dominance},"
        f" {elapsed:.0f}s",
    )
    assert elapsed < 2700.0
    assert dominance_ok, (
        "staged policy mean regret not strictly below uniform-random at every "
        f"horizon >= 2^14: {dominance}; means boxA "
        f"{[round(float(np.mean(box_a[T])), 1) for T in HORIZONS]} vs random "
        f"{[round(float(np.mean(random_grid[T])), 1) for T in HORIZONS]}"
    )
    assert slope_ok, (
        f"staged slope {fit_a.slope:.3f}, ci {fit_a.slope_ci}: the staged bonus "
        "width (Markov deviation terms plus the belief-budget prefix sum, "
        "~2.1e5 by the last stage of T=2^16, times the frozen-Gram norm) "
        "dominates reward gaps on this grid, so the action choice is "
        "bonus-driven and the regret stays near-linear."
    )


def _degenerate_instance(model: str) -> "ExperimentConfig":
    params = HmmParams(
        num_states=2, num_contexts=2,
        initial_dist=np.array([0.5, 0.5]),
        transition=np.array([[0.7, 0.3], [0.4, 0.6]]),
        emission=np.eye(2),  # contexts reveal the state: beliefs are one-hot
    )
    phi = TransferFunction.one_hot_action(3, 2)
    theta, c_theta = sample_theta(phi, 2, np.random.default_rng(88))
    spec = RewardSpec(theta_star=theta, c_theta=c_theta,
                      noise=NoiseModel.gaussian(0.1), model=model)
    return ExperimentConfig(
        params=params, reward=spec, phi=phi,
        policy=PolicySettings(policies=("boxA", "boxB")),
        run=RunSettings(horizons=(800,), seeds=(0, 1), master_seed=99),
    )


def test_criterion_8_belief_state_reduction_at_degenerate_beliefs():
    belief_cfg = _degenerate_instance("belief_dependent")
    state_cfg = _degenerate_instance("state_dependent")
    identical = True
    for policy in ("boxA", "boxB"):
        for seed in (0, 1):
            tape_b, (cell_b,) = simulate_group(belief_cfg, 800, seed, [policy])
            tape_s, (cell_s,) = simulate_group(state_cfg, 800, seed, [policy])
            identical &= np.array_equal(tape_b["contexts"], tape_s["contexts"]) and all(
                np.array_equal(getattr(cell_b, name), getattr(cell_s, name))
                for name in ("actions", "rewards", "increments")
            )
    report(8, "belief-dependent = state-dependent at one-hot beliefs", identical)
    assert identical


def test_criterion_9_determinism_byte_identical(tmp_path):
    config_text = (CONFIG_PATH.read_text()
                   .replace("horizons = 4096 8192 16384 32768 65536",
                            "horizons = 256 512")
                   .replace("seeds = 10", "seeds = 2")
                   .replace("policy = boxB", "policy = boxA boxB oracle random"))
    path = tmp_path / "acc.ini"
    path.write_text(config_text)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(["simulate", str(path), "--out", str(out1)]) == 0
    assert cli_main(["simulate", str(path), "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir() if p.suffix == ".csv")
    identical = bool(names) and all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes() for name in names
    )
    report(9, "byte-identical artifacts on repeated runs", identical,
           f"{len(names)} CSVs compared")
    assert identical
