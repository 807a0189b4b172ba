import collections
import dataclasses
import errno
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hmmbandits.runner as runner
from hmmbandits.environment import (
    NoiseModel,
    RewardSpec,
    TransferFunction,
    check_reward_bounds,
    sample_tape,
    sample_theta,
)
from hmmbandits.errors import ShapeMismatch
from hmmbandits.hmm import HmmParams, filter_trace
from hmmbandits.runner import CellResult, draw_tape, simulate_group

from conftest import cell_config, random_hmm, run_under_blas_core, scripted_policy, simulate_cell
from oracles import mean_reward, reference_environment_path, reference_round_csv_text


@pytest.fixture
def phi3(reference_params):
    return TransferFunction.one_hot_action(3, reference_params.num_contexts)


@pytest.fixture
def spec3(reference_params, phi3):
    rng = np.random.default_rng(17)
    theta, c_theta = sample_theta(phi3, reference_params.num_states, rng)
    return RewardSpec(theta_star=theta, c_theta=c_theta,
                      noise=NoiseModel.gaussian(0.1))


class TestTransferFunction:
    def test_one_hot_action_is_unit_norm(self):
        phi = TransferFunction.one_hot_action(3, 4)
        assert phi.dim == 3
        norms = np.linalg.norm(phi.table, axis=2)
        assert np.allclose(norms, 1.0)
        assert np.array_equal(phi.table[1, 2], [0.0, 1.0, 0.0])

    def test_action_context_outer_is_unit_norm(self):
        phi = TransferFunction.action_context_outer(2, 3)
        assert phi.dim == 6
        assert np.allclose(np.linalg.norm(phi.table, axis=2), 1.0)
        assert phi.table[1, 2, 1 * 3 + 2] == 1.0

    def test_table_rescaled_to_unit_ball(self):
        rng = np.random.default_rng(0)
        table = 3.0 * rng.normal(size=(2, 3, 4))
        phi = TransferFunction.from_table(table)
        assert np.linalg.norm(phi.table, axis=2).max() <= 1.0 + 1e-12

    def test_rescaled_table_is_a_fixed_point(self):
        # config_snapshot.ini writes the rescaled table, and reading it back
        # must give the same bits, though its norm rounded an ulp above 1
        table = np.array([-1.0, -0.5, -1.0, -0.5, -0.5, -1.0, 0.8146287145582514,
                          0.8250579932906069]).reshape(2, 2, 2)
        once = TransferFunction.from_table(table).table
        assert np.linalg.norm(once, axis=2).max() > 1.0
        assert np.array_equal(TransferFunction.from_table(once).table, once)

    def test_oversized_table_rejected_without_rescale(self):
        with pytest.raises(ShapeMismatch):
            TransferFunction(kind="table", table=np.full((1, 1, 2), 5.0))


class TestNoiseModel:
    def test_gaussian_second_moment_convention(self):
        noise = NoiseModel.gaussian(0.2)
        assert noise.c_eta == pytest.approx(0.04)

    def test_bounded_uniform_subgaussian_proxy(self):
        noise = NoiseModel.bounded_uniform(0.03)
        assert noise.v_eta == pytest.approx(np.sqrt(0.09))

    def test_uniform_empirical_second_moment(self):
        noise = NoiseModel.bounded_uniform(0.05)
        draws = noise.draw(np.random.default_rng(1), 100_000)
        assert abs(draws.max()) <= np.sqrt(3 * 0.05) + 1e-12
        assert np.mean(draws**2) == pytest.approx(0.05, rel=0.05)

    def test_gaussian_empirical_moments(self):
        noise = NoiseModel.gaussian(0.3)
        draws = noise.draw(np.random.default_rng(2), 100_000)
        assert abs(draws.mean()) < 4 * 0.3 / np.sqrt(100_000)
        assert np.mean(draws**2) == pytest.approx(0.09, rel=0.05)


class TestMeanReward:
    def test_one_hot_belief_equals_state_value(self, spec3, phi3):
        belief_spec = RewardSpec(theta_star=spec3.theta_star, c_theta=spec3.c_theta,
                                 noise=spec3.noise, model="belief_dependent")
        for h in range(2):
            belief = np.eye(2)[h]
            for a in range(3):
                assert mean_reward(belief_spec, phi3, a, 1, belief) == pytest.approx(
                    mean_reward(spec3, phi3, a, 1, h)
                )

    def test_state_independent_theta_ignores_belief(self, phi3):
        theta = np.tile(np.array([[0.2, -0.1, 0.4]]), (2, 1))
        spec = RewardSpec(theta_star=theta, c_theta=1.0,
                          noise=NoiseModel.gaussian(0.0), model="belief_dependent")
        v1 = mean_reward(spec, phi3, 2, 0, np.array([0.9, 0.1]))
        v2 = mean_reward(spec, phi3, 2, 0, np.array([0.2, 0.8]))
        assert v1 == pytest.approx(v2)

    def test_concrete_dot_product(self):
        # d=2 table instance checked by hand: phi=(0.6,0.8)/sqrt(2), theta=(0.5,0.25)
        table = np.array([[[0.6, 0.8]]]) / np.sqrt(2.0)
        phi = TransferFunction.from_table(table)
        spec = RewardSpec(theta_star=np.array([[0.5, 0.25]]), c_theta=1.0,
                          noise=NoiseModel.gaussian(0.0))
        want = (0.6 * 0.5 + 0.8 * 0.25) / np.sqrt(2.0)
        assert mean_reward(spec, phi, 0, 0, 0) == pytest.approx(want, abs=1e-15)

    def test_belief_average_identity(self, spec3, phi3):
        # averaging state-dependent means over h ~ b equals the belief model
        belief_spec = RewardSpec(theta_star=spec3.theta_star, c_theta=spec3.c_theta,
                                 noise=spec3.noise, model="belief_dependent")
        rng = np.random.default_rng(3)
        for _ in range(20):
            b = rng.dirichlet([1.0, 1.0])
            a, x = int(rng.integers(3)), int(rng.integers(4))
            avg = sum(b[h] * mean_reward(spec3, phi3, a, x, h) for h in range(2))
            assert mean_reward(belief_spec, phi3, a, x, b) == pytest.approx(avg)


class TestDrawReward:
    """The tape's reward entries: model mean plus one independent noise draw."""

    def test_noiseless_returns_mean(self, reference_params, phi3, spec3):
        for model in ("state_dependent", "belief_dependent"):
            spec = RewardSpec(theta_star=spec3.theta_star, c_theta=spec3.c_theta,
                              noise=NoiseModel.gaussian(0.0), model=model)
            tape = sample_tape(reference_params, spec, phi3, 60, seed=0)
            for t in range(60):
                x, h, b = int(tape.contexts[t]), int(tape.hidden[t]), tape.beliefs[t]
                target = h if model == "state_dependent" else b
                for a in range(3):
                    assert tape.rewards[t, a] == pytest.approx(
                        mean_reward(spec, phi3, a, x, target), rel=1e-12, abs=1e-15)

    def test_empirical_mean_clt(self, reference_params, phi3, spec3):
        n = 100_000
        tape = sample_tape(reference_params, spec3, phi3, n, seed=5)
        means = phi3.table[:, tape.contexts, :].transpose(1, 0, 2) @ spec3.theta_star.T
        noise = tape.rewards - means[np.arange(n), :, tape.hidden]
        assert np.abs(noise.mean(axis=0)).max() < 4 * 0.1 / np.sqrt(n)
        assert np.mean(noise**2) == pytest.approx(0.01, rel=0.05)


class TestRewardBounds:
    def test_sample_theta_hits_target(self, phi3):
        theta, c_theta = sample_theta(phi3, 2, np.random.default_rng(7), target=0.9)
        vals = np.einsum("axd,hd->axh", phi3.table, theta)
        assert np.abs(vals).max() == pytest.approx(0.9)
        assert c_theta == pytest.approx(np.linalg.norm(theta, axis=1).max())

    def test_violation_rejected(self, phi3):
        theta = np.full((2, 3), 2.0)
        spec = RewardSpec(theta_star=theta, c_theta=4.0,
                          noise=NoiseModel.gaussian(0.1))
        with pytest.raises(ShapeMismatch):
            check_reward_bounds(spec, phi3)

    def test_env_mean_rewards_bounded(self, reference_params, spec3, phi3):
        noiseless = RewardSpec(theta_star=spec3.theta_star, c_theta=spec3.c_theta,
                               noise=NoiseModel.gaussian(0.0))
        tape = sample_tape(reference_params, noiseless, phi3, 50, seed=0)
        assert np.abs(tape.rewards).max() <= 1.0
        assert np.abs(tape.scores).max() <= 1.0


class TestEnvironmentProtocol:
    def test_identity_chain_keeps_state(self, phi3, spec3):
        params = HmmParams(2, 4, np.array([0.0, 1.0]), np.eye(2),
                           np.array([[0.4, 0.1], [0.3, 0.2], [0.2, 0.3], [0.1, 0.4]]))
        tape = sample_tape(params, spec3, phi3, 2, seed=1)
        assert tape.hidden.tolist() == [1, 1]

    def test_transcript_length_and_horizon_guard(self, reference_params, spec3, phi3):
        tape = sample_tape(reference_params, spec3, phi3, 5, seed=2)
        assert tape.hidden.shape == tape.contexts.shape == (5,)
        assert tape.beliefs.shape == (5, 2)
        assert tape.rewards.shape == tape.scores.shape == (5, 3)
        result = simulate_cell(cell_config(reference_params, spec3, phi3, 5),
                               "random", 5, 0)
        for name in ("contexts", "actions", "rewards", "increments"):
            assert getattr(result, name).shape == (5,)
        rows = slice(0, 5)
        text = runner._csv_rows(result, False, 2, runner._tape_columns(result, False, rows), rows)
        assert [int(line.split(",")[0]) for line in text.splitlines()] == [1, 2, 3, 4, 5]
        with pytest.raises(ShapeMismatch):
            sample_tape(reference_params, spec3, phi3, 0, seed=2)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_action_rejected(self, reference_params, spec3, phi3,
                                          monkeypatch, bad):
        # a negative index would otherwise wrap around the reward row; with
        # one-round blocks the arm stops at the block of the bad action
        log = []
        monkeypatch.setattr(runner, "_build_policy",
                            scripted_policy(lambda t: 0 if t < 3 else bad, log))
        monkeypatch.setattr(runner, "TILE_BYTES", 1)
        config = cell_config(reference_params, spec3, phi3, 5, policies=("boxB",),
                             beliefs="oracle")
        with pytest.raises(ShapeMismatch):
            simulate_cell(config, "boxB", 5, 0)
        assert [e[:2] for e in log] == [("act", 1), ("update", 1), ("act", 2),
                                        ("update", 2), ("act", 3)]

    def test_paired_paths_across_policies(self, reference_params, spec3, phi3):
        # same seed => identical latent/context/noise path no matter the actions
        config = cell_config(reference_params, spec3, phi3, 40,
                             policies=("random", "oracle"), emit_oracle_columns=True)
        tape = draw_tape(config, 40, 0)
        random_arm = simulate_cell(config, "random", 40, 0)
        oracle_arm = simulate_cell(config, "oracle", 40, 0)
        assert np.array_equal(random_arm.contexts, oracle_arm.contexts)
        assert np.array_equal(random_arm.hidden, oracle_arm.hidden)
        for arm in (random_arm, oracle_arm):
            assert arm.rewards.tolist() == [
                tape.rewards[t, a] for t, a in enumerate(arm.actions.tolist())]

    def test_same_action_same_reward_across_runs(self, reference_params, spec3, phi3):
        first = sample_tape(reference_params, spec3, phi3, 30, seed=12)
        second = sample_tape(reference_params, spec3, phi3, 30, seed=12)
        for name in ("hidden", "contexts", "beliefs", "rewards", "scores"):
            assert np.array_equal(getattr(first, name), getattr(second, name))

    def test_true_belief_matches_exact_filter(self, reference_params, spec3, phi3):
        tape = sample_tape(reference_params, spec3, phi3, 20, seed=13)
        for t in range(1, 21):
            want = filter_trace(reference_params, tape.contexts[:t])[-1]
            assert np.max(np.abs(tape.beliefs[t - 1] - want)) < 1e-12

    def test_tape_is_read_only(self, reference_params, spec3, phi3):
        tape = sample_tape(reference_params, spec3, phi3, 5, seed=14)
        with pytest.raises(ValueError):
            tape.rewards[0, 0] = 0.0


class TestInformationBarrier:
    def test_probe_policy_sees_only_allowed_inputs(self, reference_params, spec3, phi3,
                                                   monkeypatch):
        """The policy boundary carries the rounds of a block and each round's
        rows b_t (x) phi(a, x_t), one per action, plus the rounds' rewards."""
        seen = []
        monkeypatch.setattr(runner, "_build_policy", scripted_policy(lambda t: 0, seen))
        config = cell_config(reference_params, spec3, phi3, 15, policies=("boxB",),
                             beliefs="oracle")
        simulate_cell(config, "boxB", 15, 0)
        tape = draw_tape(config, 15, 0)
        acts = [e for e in seen if e[0] == "act"]
        assert len(acts) == 15
        for i, (_, t, feats) in enumerate(acts):
            assert t == i + 1  # round index
            x, b = int(tape.contexts[i]), tape.beliefs[i]
            want = np.array([np.kron(b, phi3.table[a, x]) for a in range(3)])
            assert np.array_equal(feats, want)


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from(["boxA", "boxB"]),
    st.sampled_from(["spectral", "oracle"]),
    st.sampled_from([1, 3, 7, 64]),
    st.integers(min_value=0, max_value=60),
)
def test_reward_vector_only_chosen_entry_revealed(seed, name, beliefs, tile_rounds, cut):
    """The learners are handed every reward of their block's rounds but read
    only the chosen entry of each round, and none of a later round: blanking
    the rest of the reward vector leaves the actions and the final ridge state
    unchanged, and blanking every reward from round ``cut + 1`` on leaves the
    first ``cut`` actions unchanged."""
    params = HmmParams(2, 4, np.array([0.5, 0.5]),
                       np.array([[0.7, 0.3], [0.3, 0.7]]),
                       np.array([[0.4, 0.1], [0.3, 0.2], [0.2, 0.3], [0.1, 0.4]]))
    phi = TransferFunction.one_hot_action(3, 4)
    theta, c_theta = sample_theta(phi, 2, np.random.default_rng(0))
    spec = RewardSpec(theta_star=theta, c_theta=c_theta,
                      noise=NoiseModel.gaussian(0.1))
    config = cell_config(params, spec, phi, 60, policies=(name,), master_seed=seed,
                         beliefs=beliefs)
    config = dataclasses.replace(
        config, run=dataclasses.replace(config.run, plugin_gamma=True),
        policy=dataclasses.replace(config.policy, ell=5, refit_every=10))
    built = []

    def build(*args):
        built.append(original(*args))
        return built[-1]

    original, original_tile = runner._build_policy, runner.TILE_BYTES
    runner._build_policy, runner.TILE_BYTES = build, tile_rounds * 8 * 3 * 2 * 3
    try:
        tape = draw_tape(config, 60, 0)
        full = runner.play_arm(config, name, tape, 0)
        rounds = np.arange(60)
        chosen = np.full_like(tape.rewards, np.nan)
        chosen[rounds, full.actions] = tape.rewards[rounds, full.actions]
        masked = runner.play_arm(config, name, dataclasses.replace(tape, rewards=chosen.copy()), 0)
        chosen[cut:] = np.nan
        prefix = runner.play_arm(config, name, dataclasses.replace(tape, rewards=chosen), 0)
    finally:
        runner._build_policy, runner.TILE_BYTES = original, original_tile
    assert np.array_equal(masked.actions, full.actions)
    assert np.array_equal(prefix.actions[:cut], full.actions[:cut])
    names = (["_theta_frozen", "_gram_frozen_inv"] if name == "boxA"
             else ["_gram_inv", "_theta"])
    for field in ["_gram", "_moment", *names]:
        assert np.array_equal(getattr(built[1], field), getattr(built[0], field)), field


@settings(deadline=None, max_examples=80)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=200),
    st.sampled_from(["state_dependent", "belief_dependent"]),
    st.sampled_from(["gaussian", "bounded_uniform"]),
    st.sampled_from([0.0, 0.05, 0.5]),
)
@example(seed=3, H=3, X=2, A=1, d=3, T=50, model="belief_dependent",
         noise_kind="gaussian", level=0.0)
def test_tape_matches_scalar_reference(seed, H, X, A, d, T, model, noise_kind, level):
    """Bulk draws reproduce the per-round protocol with scalar draws exactly:
    the stacked score products have each round's bits, also for a dot (one
    action, or d = 1) on odd-length rows."""
    rng = np.random.default_rng(seed)
    params = random_hmm(rng, H, X, min_entry=0.02)
    phi = TransferFunction.from_table(rng.normal(size=(A, X, d)))
    theta, c_theta = sample_theta(phi, H, rng)
    noise = (NoiseModel.gaussian(level) if noise_kind == "gaussian"
             else NoiseModel.bounded_uniform(level))
    spec = RewardSpec(theta_star=theta, c_theta=c_theta, noise=noise, model=model)
    tape = sample_tape(params, spec, phi, T, np.random.SeedSequence(seed))
    want = reference_environment_path(params, spec, phi.table, T,
                                      np.random.SeedSequence(seed))
    for name, expected in zip(("hidden", "contexts", "beliefs", "rewards", "scores"), want):
        assert np.array_equal(getattr(tape, name), expected), name
    if level == 0.0:
        belief_spec = RewardSpec(theta_star=theta, c_theta=c_theta, noise=noise,
                                 model="belief_dependent")
        for t in range(T):
            x, h, b = int(tape.contexts[t]), int(tape.hidden[t]), tape.beliefs[t]
            target = h if model == "state_dependent" else b
            for a in range(A):
                assert tape.scores[t, a] == pytest.approx(
                    mean_reward(belief_spec, phi, a, x, b), rel=1e-12, abs=1e-15)
                assert tape.rewards[t, a] == pytest.approx(
                    mean_reward(spec, phi, a, x, target), rel=1e-12, abs=1e-15)


# Runs the filter kernel (forward_step, filter_trace, a lone forward_steps
# segment) and sample_tape on small fixed cases and prints, as JSON, whether
# each equals its per-round numpy reference on the same OpenBLAS kernel.
FILTER_AND_TAPE = """
import json
import numpy as np
from conftest import random_hmm, sparse_estimate
from oracles import forward_step, reference_environment_path, reference_step
from hmmbandits.environment import (NoiseModel, RewardSpec, TransferFunction, sample_tape,
                                    sample_theta)
from hmmbandits.hmm import filter_trace, forward_steps

rng = np.random.default_rng(19)
equal = {}
for H in range(1, 10):
    M, E = sparse_estimate(rng, H, 4, zero_row=True)
    uniform = np.full(H, 1.0 / H)
    xs = rng.integers(0, 4, size=80)
    want, got, a, b = [], [], None, None
    for x in xs.tolist():
        a = reference_step(a, uniform, M, E, x, "uniform")
        b = forward_step(b, uniform, M, E, x, "uniform")
        want.append(a)
        got.append(b)
    equal[f"forward_step H={H}"] = np.array_equal(got, want)
    first = rng.dirichlet(np.ones(H), size=1)
    rows, a = np.empty((80, H)), first[0]
    forward_steps([(M, E)], first, xs, [0], [80], rows)
    want = []
    for x in xs.tolist():
        a = reference_step(a, None, M, E, x, "uniform")
        want.append(a)
    equal[f"forward_steps H={H}"] = np.array_equal(rows, want)
    params = random_hmm(rng, H, 4, min_entry=0.02)
    want, a = [], None
    for x in xs.tolist():
        a = reference_step(a, params.initial_dist, params.transition, params.emission, x)
        want.append(a)
    equal[f"filter_trace H={H}"] = np.array_equal(filter_trace(params, xs), want)
for H, A, d in [(3, 1, 3), (5, 1, 1), (2, 3, 3), (9, 4, 7), (1, 1, 2), (4, 2, 1), (7, 2, 5)]:
    params = random_hmm(rng, H, 3, min_entry=0.02)
    phi = TransferFunction.from_table(rng.normal(size=(A, 3, d)))
    theta, c_theta = sample_theta(phi, H, rng)
    spec = RewardSpec(theta_star=theta, c_theta=c_theta, noise=NoiseModel.gaussian(0.1),
                      model="belief_dependent")
    tape = sample_tape(params, spec, phi, 150, 7)
    want = reference_environment_path(params, spec, phi.table, 150, 7)
    equal[f"tape H={H} A={A} d={d}"] = all(
        np.array_equal(getattr(tape, name), value)
        for name, value in zip(("hidden", "contexts", "beliefs", "rewards", "scores"), want))
print(json.dumps(equal))
"""


@pytest.mark.parametrize("core", ["Haswell", "Prescott"])
def test_filter_and_tape_match_reference_under_blas_kernel(core):
    """On each OpenBLAS kernel the filter kernel and the stacked tape scores
    equal that kernel's own per-round numpy reference (the bytes themselves
    may differ between kernels)."""
    equal = json.loads(run_under_blas_core(FILTER_AND_TAPE, core))
    assert len(equal) == 3 * 9 + 7
    assert [name for name, same in equal.items() if not same] == []


@settings(deadline=None, max_examples=30)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=3),
    st.lists(st.sampled_from(["boxA", "boxB", "oracle", "random"]),
             min_size=1, max_size=4, unique=True),
    st.sampled_from(["spectral", "oracle"]),
    st.booleans(),
)
def test_group_play_equals_independent_cells(seed, H, extra_contexts, A, T, seed_index,
                                             policies, beliefs, emit_oracle):
    """Arms played in turn on one shared tape, in any order, give the cells
    that each draw their own tape: no arm sees what another did."""
    rng = np.random.default_rng(seed)
    params = random_hmm(rng, H, H + extra_contexts, min_entry=0.02)
    phi = TransferFunction.from_table(rng.normal(size=(A, params.num_contexts, 2)))
    theta, c_theta = sample_theta(phi, H, rng)
    spec = RewardSpec(theta_star=theta, c_theta=c_theta, noise=NoiseModel.gaussian(0.1))
    config = cell_config(params, spec, phi, T, policies=tuple(policies), master_seed=seed,
                         emit_oracle_columns=emit_oracle, beliefs=beliefs)
    group = simulate_group(config, T, seed_index, policies)
    assert [r.plan.policy for r in group] == policies
    for got in group:
        want = simulate_cell(config, got.plan.policy, T, seed_index)
        for field in dataclasses.fields(CellResult):
            if field.name == "duration":
                continue
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(b, np.ndarray):
                assert isinstance(a, np.ndarray) and np.array_equal(a, b), field.name
            else:
                assert a == b, field.name


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=60),
    st.lists(st.sampled_from(["boxA", "boxB", "oracle", "random"]),
             min_size=1, max_size=4, unique=True),
    st.sampled_from(["oracle", "spectral"]),
    st.booleans(),
)
@example(seed=0, H=1, T=1, policies=["random", "boxA"], beliefs="oracle", emit_oracle=True)
@example(seed=1, H=2, T=60, policies=["boxA", "boxB"], beliefs="spectral", emit_oracle=True)
def test_group_csv_bytes_equal_reference(seed, H, T, policies, beliefs, emit_oracle):
    """The files run_experiment writes for a group, from tape columns it
    renders once, hold the bytes of each arm rendered on its own.  Spectral
    beliefs give each learner its own b*_hat columns; H = 1 gives the
    baselines a tail of one empty cell."""
    rng = np.random.default_rng(seed)
    params = random_hmm(rng, H, H + 1, min_entry=0.02)
    phi = TransferFunction.from_table(rng.normal(size=(2, params.num_contexts, 2)))
    theta, c_theta = sample_theta(phi, H, rng)
    spec = RewardSpec(theta_star=theta, c_theta=c_theta, noise=NoiseModel.gaussian(0.1))
    config = cell_config(params, spec, phi, T, policies=tuple(policies), master_seed=seed,
                         emit_oracle_columns=emit_oracle, beliefs=beliefs)
    with tempfile.TemporaryDirectory() as out:
        config = dataclasses.replace(config, run=dataclasses.replace(config.run, out=out))
        assert runner.run_experiment(config, echo=lambda *_: None) == 0
        for result in simulate_group(config, T, 0, policies):
            got = (Path(out) / f"{result.plan.policy}_T{T}_s0.csv").read_bytes()
            want = reference_round_csv_text(result, emit_oracle, H).encode()
            assert got == want, result.plan.policy


BLOCK_ROWS = 4


@pytest.mark.parametrize("H", [1, 2])
@pytest.mark.parametrize("emit_oracle", [False, True])
@pytest.mark.parametrize("policies", [("boxB",), ("random",), ("oracle", "boxA"),
                                      ("random", "oracle", "boxB")])
def test_group_csv_bytes_across_blocks(H, emit_oracle, policies, tmp_path, monkeypatch):
    """Written a block of rows at a time, every CSV of a group holds the bytes
    of its arm rendered whole, at horizons of one row and one row either side
    of a block boundary, and the files are the same at 1 and 2 workers."""
    monkeypatch.setattr(runner, "TILE_BYTES", 64 * BLOCK_ROWS)
    rng = np.random.default_rng(H)
    params = random_hmm(rng, H, H + 1, min_entry=0.02)
    phi = TransferFunction.from_table(rng.normal(size=(2, params.num_contexts, 2)))
    theta, c_theta = sample_theta(phi, H, rng)
    spec = RewardSpec(theta_star=theta, c_theta=c_theta, noise=NoiseModel.gaussian(0.1))
    config = cell_config(params, spec, phi, 1, policies=policies, emit_oracle_columns=emit_oracle)
    horizons = (1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1)
    written = []
    for workers in (1, 2):
        config = dataclasses.replace(config, run=dataclasses.replace(
            config.run, horizons=horizons, workers=workers, out=str(tmp_path / str(workers))))
        assert runner.run_experiment(config, echo=lambda *_: None) == 0
        written.append({p.name: p.read_bytes() for p in Path(config.run.out).iterdir()
                        if p.suffix == ".csv"})
    assert written[0] == written[1] and len(written[0]) == len(policies) * 5 + 1
    for T in horizons:
        for result in simulate_group(config, T, 0, policies):
            want = reference_round_csv_text(result, emit_oracle, H).encode()
            assert written[0][f"{result.plan.policy}_T{T}_s0.csv"] == want


def test_write_failing_mid_group_publishes_none_of_its_files(reference_params, spec3, phi3,
                                                               tmp_path, monkeypatch):
    """A write that fails in the second block of a group's second arm leaves
    no temporary file and publishes no CSV of that group; the group written
    before it stays whole."""
    config = cell_config(reference_params, spec3, phi3, 9, policies=("random", "oracle"))
    run = dataclasses.replace(config.run, horizons=(9, 10))
    monkeypatch.setattr(runner, "TILE_BYTES", 64 * BLOCK_ROWS)
    clean, out = tmp_path / "clean", tmp_path / "full"
    config = dataclasses.replace(config, run=dataclasses.replace(run, out=str(clean)))
    assert runner.run_experiment(config, echo=lambda *_: None) == 0
    writes = collections.Counter()

    class FullDisk:
        """A text file whose third write (after the header and the first block
        of rows) to the second arm's CSV of the second group fails."""

        def __init__(self, path, *args, **kwargs):
            self.name, self.fh = os.path.basename(path), open(path, *args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            writes[self.name] += 1
            if self.name.startswith("oracle_T10_s0.csv.tmp-") and writes[self.name] == 3:
                raise OSError(errno.ENOSPC, "No space left on device")
            return self.fh.write(text)

    monkeypatch.setattr(runner, "open", FullDisk, raising=False)
    config = dataclasses.replace(config, run=dataclasses.replace(run, out=str(out)))
    with pytest.raises(OSError, match="No space left"):
        runner.run_experiment(config, echo=lambda *_: None)
    tmp = f".csv.tmp-{os.getpid()}"
    assert writes[f"random_T10_s0{tmp}"] == writes[f"oracle_T10_s0{tmp}"] == 3
    assert sorted(os.listdir(out)) == ["config_snapshot.ini", "oracle_T9_s0.csv",
                                       "random_T9_s0.csv"]
    for name in ("oracle_T9_s0.csv", "random_T9_s0.csv"):
        assert (out / name).read_bytes() == (clean / name).read_bytes()


def test_tape_columns_shared_only_by_groups_of_several_arms(reference_params, spec3, phi3,
                                                            tmp_path, monkeypatch):
    """Each group of two or more arms renders a block's tape columns once,
    and every arm of it renders that block from them; a one-arm group shares
    nothing."""
    built, rendered = [], []
    build, render = runner._shared_tape_columns, runner._csv_rows

    def build_spy(result, emit_oracle, rows):
        built.append((build(result, emit_oracle, rows), rows))
        return built[-1][0]

    def render_spy(result, emit_oracle, num_states, tape_columns, rows):
        rendered.append((tape_columns, rows))
        return render(result, emit_oracle, num_states, tape_columns, rows)

    monkeypatch.setattr(runner, "_shared_tape_columns", build_spy)
    monkeypatch.setattr(runner, "_csv_rows", render_spy)
    monkeypatch.setattr(runner, "TILE_BYTES", 64 * 8)  # blocks of 8 rows
    for policies in (("random", "oracle", "boxA"), ("boxB",)):
        config = cell_config(reference_params, spec3, phi3, 20, policies=policies,
                             emit_oracle_columns=True, beliefs="oracle")
        config = dataclasses.replace(config, run=dataclasses.replace(
            config.run, horizons=(20, 30), seeds=(0, 1), out=str(tmp_path / policies[0])))
        assert runner.run_experiment(config, echo=lambda *_: None) == 0
    # (horizon, seed) groups of 3 + 3 + 4 + 4 blocks, of three arms, then of boxB alone
    assert len(built) == 14 and len(rendered) == 3 * 14 + 14
    assert [[columns is b for columns, _ in rendered[3 * k:3 * k + 3]]
            for k, (b, _) in enumerate(built)] == [[True] * 3] * 14
    assert [rows for _, rows in rendered[:42:3]] == [rows for _, rows in built]
    assert not any(columns is b for columns, _ in rendered[42:] for b, _ in built)
    assert [rows.start for _, rows in rendered[42:]] == [0, 8, 16] * 2 + [0, 8, 16, 24] * 2
