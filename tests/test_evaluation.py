import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmmbandits.runner as runner
from hmmbandits.environment import NoiseModel, RewardSpec, TransferFunction, sample_theta
from hmmbandits.errors import ConfigError, InsufficientData, ShapeMismatch, SingularA
from hmmbandits.evaluation import (
    check_determinant_trace,
    check_elliptic_potential,
    check_matrix_determinant_lemma,
    check_staged_elliptic_potential,
    fit_rate,
    run_lemma_trials,
)
from hmmbandits.hmm import HmmParams
from hmmbandits.runner import draw_tape

from conftest import cell_config, random_hmm, scripted_policy, simulate_cell
from oracles import (
    reference_baseline_cell,
    reference_determinant_trace,
    reference_elliptic_potential,
    reference_staged_elliptic_potential,
)


@pytest.fixture
def toy_world():
    params = HmmParams(2, 2, np.array([0.5, 0.5]),
                       np.array([[0.8, 0.2], [0.3, 0.7]]),
                       np.array([[0.7, 0.2], [0.3, 0.8]]))
    phi = TransferFunction.one_hot_action(3, 2)
    theta = np.array([[0.6, -0.2, 0.1], [-0.4, 0.5, 0.2]])
    spec = RewardSpec(theta_star=theta, c_theta=1.0, noise=NoiseModel.gaussian(0.1))
    return params, phi, spec


def run_cell(params, spec, phi, horizon, policy, beliefs="spectral"):
    """``simulate_cell`` of one arm at seed index 0, and its tape."""
    config = cell_config(params, spec, phi, horizon, policies=(policy,), beliefs=beliefs)
    return simulate_cell(config, policy, horizon, 0), draw_tape(config, horizon, 0)


class TestRegretLedger:
    """Per-round pseudo-regret of ``simulate_cell``: the benchmark and the
    chosen action's value are the tape's oracle-side scores."""

    def test_oracle_actions_give_zero(self, toy_world):
        params, phi, spec = toy_world
        result, _ = run_cell(params, spec, phi, 60, "oracle")
        assert result.regret_total == 0.0
        assert all(inc == 0.0 for inc in result.increments.tolist())

    def test_increments_bounded_and_monotone(self, toy_world):
        params, phi, spec = toy_world
        result, tape = run_cell(params, spec, phi, 200, "random")
        inc = result.increments
        assert inc.shape == (200,)
        assert np.all(inc >= 0.0)
        assert np.all(inc <= 2.0)
        assert inc.max() > 0.0
        assert np.array_equal(
            inc, tape.scores.max(axis=1) - tape.scores[np.arange(200), result.actions])

    def test_three_round_hand_enumeration(self, monkeypatch):
        # A=2, X=1, H=1: the benchmark is simply the larger mean each round
        params = HmmParams(1, 1, np.array([1.0]), np.array([[1.0]]), np.array([[1.0]]))
        phi = TransferFunction.from_table(np.array([[[1.0]], [[0.5]]]))
        spec = RewardSpec(theta_star=np.array([[0.8]]), c_theta=1.0,
                          noise=NoiseModel.gaussian(0.0))
        monkeypatch.setattr(runner, "_build_policy",
                            scripted_policy(lambda t: [0, 1, 1][t - 1], []))
        result, _ = run_cell(params, spec, phi, 3, "boxB", beliefs="oracle")
        # benchmark = 0.8 each round; values: 0.8, 0.4, 0.4
        assert result.actions.tolist() == [0, 1, 1]
        assert result.increments.tolist() == [0.0, 0.4, 0.4]
        assert result.regret_total == pytest.approx(0.8)

    def test_single_action_has_zero_regret(self):
        params = HmmParams(1, 1, np.array([1.0]), np.array([[1.0]]), np.array([[1.0]]))
        phi = TransferFunction.from_table(np.array([[[0.9]]]))
        spec = RewardSpec(theta_star=np.array([[0.7]]), c_theta=1.0,
                          noise=NoiseModel.gaussian(0.1))
        result, _ = run_cell(params, spec, phi, 5, "random")
        assert result.regret_total == 0.0

    def test_total_sums_increments_left_to_right(self, toy_world):
        params, phi, spec = toy_world
        result, _ = run_cell(params, spec, phi, 100, "random")
        total = 0.0
        for inc in result.increments.tolist():
            total += inc
        assert result.regret_total == total

    def test_unknown_policy_rejected(self, toy_world):
        params, phi, spec = toy_world
        config = cell_config(params, spec, phi, 10, policies=("thompson",))
        with pytest.raises(ConfigError, match="thompson"):
            simulate_cell(config, "thompson", 10, 0)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=150),
    st.sampled_from(["state_dependent", "belief_dependent"]),
    st.sampled_from(["sampled", "flat", "zero"]),
    st.booleans(),
)
def test_baseline_arms_match_reference_cell(seed, H, X, A, T, model, theta_kind, emit):
    """The random and oracle arms' columns, and the tape columns of their
    CSVs, equal a round-by-round cell."""
    rng = np.random.default_rng(seed)
    params = random_hmm(rng, H, X, min_entry=0.02)
    table = rng.normal(size=(A, X, 2))
    if theta_kind != "sampled":
        table[1::2] = table[0]  # duplicate actions: argmax ties
    phi = TransferFunction.from_table(table)
    theta, c_theta = sample_theta(phi, H, rng)
    if theta_kind == "flat":  # state-independent
        theta = np.tile(theta[:1], (H, 1))
    elif theta_kind == "zero":
        theta = np.zeros_like(theta)
    spec = RewardSpec(theta_star=theta, c_theta=c_theta,
                      noise=NoiseModel.gaussian(0.1), model=model)
    config = cell_config(params, spec, phi, T, policies=("random", "oracle"),
                         master_seed=seed, emit_oracle_columns=emit)
    with tempfile.TemporaryDirectory() as out:
        config = dataclasses.replace(config, run=dataclasses.replace(config.run, out=out))
        assert runner.run_experiment(config, echo=lambda *_: None) == 0
        csvs = {policy: (Path(out) / f"{policy}_T{T}_s0.csv").read_text().splitlines()
                for policy in ("random", "oracle")}
    for policy in ("random", "oracle"):
        result = simulate_cell(config, policy, T, 0)
        env_ss = runner.environment_seed_sequence(seed, T, 0)
        policy_ss, _ = runner.learner_seed_sequence(seed, policy, T, 0).spawn(2)
        want, total = reference_baseline_cell(params, spec, phi, T, env_ss,
                                              policy_ss, policy)
        hidden, contexts, beliefs, actions, rewards, increments = want
        header, *rows = csvs[policy]
        columns = dict(zip(header.split(","), np.array([row.split(",") for row in rows]).T))
        assert np.array_equal(columns["x"].astype(np.int64), contexts)
        assert np.array_equal(result.actions, actions)
        assert np.array_equal(result.rewards, rewards)
        assert np.array_equal(result.increments, increments)
        assert result.regret_total == total
        assert result.learner_beliefs is None
        if emit:
            assert np.array_equal(columns["h"].astype(np.int64), hidden)
            true_beliefs = np.stack([columns[f"b{h + 1}"] for h in range(H)], axis=1)
            assert np.array_equal(true_beliefs.astype(float), beliefs)
        else:
            assert header == "t,x,a,r,regret_inc"
        if policy == "oracle":
            assert total == 0.0


class TestFitRate:
    def test_exact_linear_power_law(self):
        data = {T: [3.0 * T] * 10 for T in (100, 200, 400, 800)}
        fit = fit_rate(data)
        assert fit.slope == pytest.approx(1.0, abs=1e-9)
        assert fit.slope_ci[0] == pytest.approx(1.0, abs=1e-9)

    def test_square_root_power_law(self):
        data = {T: [2.0 * math.sqrt(T)] * 12 for T in (128, 256, 512, 1024, 2048)}
        fit = fit_rate(data)
        assert fit.slope == pytest.approx(0.5, abs=1e-9)

    def test_noisy_slope_interval_covers(self):
        rng = np.random.default_rng(3)
        data = {
            T: list(0.9 * T ** 0.75 * rng.uniform(0.9, 1.1, size=20))
            for T in (256, 512, 1024, 2048, 4096)
        }
        fit = fit_rate(data, seed=1)
        assert fit.slope_ci[0] <= 0.75 <= fit.slope_ci[1] + 0.05
        assert fit.slope == pytest.approx(0.75, abs=0.08)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            fit_rate({T: [1.0] * 10 for T in (100, 200, 400)})
        with pytest.raises(InsufficientData):
            fit_rate({T: [1.0] * 3 for T in (100, 200, 400, 800)})


class TestEllipticPotential:
    def test_scalar_hand_computation(self):
        # d=1, lam=1, y=1: sum = 1 + 1/sqrt2 + 1/sqrt3 ~ 2.2845 <= sqrt(6 ln 4)
        ys = np.ones((3, 1))
        assert check_elliptic_potential(ys, lam=1.0)
        total = 1.0 + 1.0 / math.sqrt(2.0) + 1.0 / math.sqrt(3.0)
        bound = math.sqrt(6.0 * math.log(4.0))
        assert total == pytest.approx(2.2845, abs=5e-4)
        assert bound == pytest.approx(2.8837, abs=5e-4)
        assert total <= bound

    def test_zero_vectors(self):
        assert check_elliptic_potential(np.zeros((5, 3)), lam=1.0)

    def test_lambda_guard(self):
        with pytest.raises(ShapeMismatch):
            check_elliptic_potential(np.zeros((2, 2)), lam=0.5)

    def test_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(150):
            d = int(rng.integers(1, 9))
            T = int(rng.integers(1, 260))
            ys = rng.normal(size=(T, d))
            ys /= np.maximum(np.linalg.norm(ys, axis=1, keepdims=True), 1.0)
            assert check_elliptic_potential(ys, lam=float(rng.uniform(1, 5)))


class TestStagedEllipticPotential:
    def test_stage_length_one_consistent_with_plain(self):
        rng = np.random.default_rng(5)
        ys = rng.normal(size=(24, 3))
        ys /= np.maximum(np.linalg.norm(ys, axis=1, keepdims=True), 1.0)
        assert check_elliptic_potential(ys, lam=2.0)
        assert check_staged_elliptic_potential(ys, lam=2.0, ell=1, num_stages=24)

    def test_zero_vectors(self):
        assert check_staged_elliptic_potential(np.zeros((12, 2)), 1.0, 3, 4)

    def test_length_guard(self):
        with pytest.raises(ShapeMismatch):
            check_staged_elliptic_potential(np.zeros((10, 2)), 1.0, 3, 4)

    def test_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            d = int(rng.integers(1, 9))
            S = int(rng.integers(1, 17))
            ell = int(rng.integers(1, 33))
            ys = rng.normal(size=(S * ell, d))
            ys /= np.maximum(np.linalg.norm(ys, axis=1, keepdims=True), 1.0)
            assert check_staged_elliptic_potential(
                ys, float(rng.uniform(1, 5)), ell, S
            )


class TestDeterminantChecks:
    def test_zero_vector_trivial(self):
        A = np.diag([2.0, 3.0])
        assert check_matrix_determinant_lemma(A, np.zeros(2), np.zeros(2))

    def test_identity_rank_one(self):
        e1 = np.array([1.0, 0.0])
        assert check_matrix_determinant_lemma(np.eye(2), e1, e1)
        left = np.linalg.det(np.eye(2) + np.outer(e1, e1))
        assert left == pytest.approx(2.0)

    def test_random_instances_cross_checked(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            A = rng.normal(size=(5, 5)) + 5.0 * np.eye(5)
            assert check_matrix_determinant_lemma(
                A, rng.normal(size=5), rng.normal(size=5)
            )

    def test_singular_a_rejected(self):
        with pytest.raises(SingularA):
            check_matrix_determinant_lemma(np.zeros((2, 2)), np.ones(2), np.ones(2))

    def test_determinant_trace_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            T = int(rng.integers(1, 100))
            ys = rng.normal(size=(T, d))
            ys /= np.maximum(np.linalg.norm(ys, axis=1, keepdims=True), 1.0)
            assert check_determinant_trace(ys, lam=float(rng.uniform(1, 4)))

    def test_determinant_trace_violation(self):
        # d = 1, lam = 1: V_1 = 1.25 <= 2, then V_2 = 5.25 > 3
        ys = np.array([[0.5], [2.0]])
        assert check_determinant_trace(ys[:1], lam=1.0)
        assert not check_determinant_trace(ys, lam=1.0)
        assert not reference_determinant_trace(ys, lam=1.0)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_elliptic_potential_property(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 6))
    T = int(rng.integers(1, 120))
    ys = rng.normal(size=(T, d))
    ys /= np.maximum(np.linalg.norm(ys, axis=1, keepdims=True), 1.0)
    ys *= rng.uniform(0.0, 1.0, size=(T, 1))
    assert check_elliptic_potential(ys, lam=float(rng.uniform(1.0, 10.0)))


def test_lemma_trial_suite_small():
    results = run_lemma_trials(trials=25, seed=0)
    trials = results.pop("trials")
    assert trials == 25
    assert all(count == trials for count in results.values())


def test_lemma_counts_are_ints():
    results = run_lemma_trials(trials=2, seed=0)
    assert all(type(count) is int for count in results.values())
    assert json.loads(json.dumps(results)) == results


def ridge_outcomes(seed):
    """``(check, its loop)`` booleans of the three ridge checks on one draw:
    vectors of norm up to 3 (so every bound can fail), a random ``lam`` and a
    stage split whose sizes are log-uniform (short sequences fail most)."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 9))
    S = int(2 ** rng.uniform(0.0, 3.6))
    ell = int(2 ** rng.uniform(0.0, 4.4))
    ys = rng.normal(size=(S * ell, d))
    ys /= np.maximum(np.linalg.norm(ys, axis=1, keepdims=True), 1e-12)
    ys *= rng.uniform(0.0, rng.uniform(0.5, 3.0), size=(S * ell, 1))
    lam = float(rng.uniform(1.0, 10.0))
    return [
        (check_elliptic_potential(ys, lam), reference_elliptic_potential(ys, lam)),
        (check_staged_elliptic_potential(ys, lam, ell, S),
         reference_staged_elliptic_potential(ys, lam, ell, S)),
        (check_determinant_trace(ys, lam), reference_determinant_trace(ys, lam)),
    ]


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_ridge_checks_match_their_loops(seed):
    for got, want in ridge_outcomes(seed):
        assert type(got) is bool
        assert got == want


def test_ridge_draws_reach_both_outcomes():
    outcomes = np.array([[want for _, want in ridge_outcomes(seed)] for seed in range(60)])
    assert outcomes.any(axis=0).all()
    assert not outcomes.all(axis=0).any()
