import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmmbandits import (
    BeliefErrorBudget,
    EstimatedHmm,
    OnlineBeliefEstimator,
    belief_error_trace,
    filter_trace,
    postprocess,
    sample_trajectory,
    true_belief_filter,
    u_belief,
)
from hmmbandits.beliefs import belief_gaps
from hmmbandits.errors import ShapeMismatch
from hmmbandits.hmm import ForwardFilter, forward_pass, forward_step

from conftest import random_hmm
from oracles import u_belief_reference


def oracle_estimate(params) -> EstimatedHmm:
    return EstimatedHmm(
        raw_transition=params.transition.copy(),
        raw_emission=params.emission.copy(),
        transition_hat=params.transition.copy(),
        emission_hat=params.emission.copy(),
    )


class TestUBelief:
    def test_zero_at_round_one(self):
        assert u_belief(BeliefErrorBudget(2, 4, 0.1), 1) == 0.0

    def test_worked_value(self):
        budget = BeliefErrorBudget(2, 4, 0.1)
        got = u_belief(budget, 100)
        assert got == pytest.approx(u_belief_reference(2, 4, 0.1, 100), rel=1e-12)
        assert got == pytest.approx(9.9887, abs=5e-4)

    def test_sum_grows_like_sqrt(self):
        budget = BeliefErrorBudget(2, 4, 0.1)
        s1 = sum(u_belief(budget, t) for t in range(1, 10_000 + 1))
        s2 = sum(u_belief(budget, t) for t in range(1, 40_000 + 1))
        assert 1.8 <= s2 / s1 <= 2.6

    def test_nonnegative_and_eventually_decreasing(self):
        for H, X, delta in [(1, 1, 0.5), (2, 4, 0.1), (3, 5, 0.01)]:
            budget = BeliefErrorBudget(H, X, delta)
            values = [u_belief(budget, t) for t in range(1, 2001)]
            assert min(values) >= 0.0
            peak = int(np.argmax(values)) + 1
            assert peak <= 20
            tail = values[peak - 1:]
            assert all(a >= b for a, b in zip(tail, tail[1:]))

    def test_invalid_round(self):
        with pytest.raises(ShapeMismatch):
            u_belief(BeliefErrorBudget(2, 4, 0.1), 0)


def estimate_filter(est: EstimatedHmm, prior=None) -> ForwardFilter:
    """The filter the online estimator runs on post-processed estimates."""
    return ForwardFilter(est.transition_hat, est.emission_hat, prior=prior,
                         on_degenerate="uniform")


class TestFilterStep:
    """The incremental filter and the batched pass under estimated parameters."""

    def test_oracle_parameters_track_true_filter(self, reference_params):
        traj = sample_trajectory(reference_params, 300, seed=0)
        est = oracle_estimate(reference_params)
        truth = true_belief_filter(reference_params, traj.contexts)
        stepped = estimate_filter(est, reference_params.initial_dist).run(traj.contexts)
        batched = forward_pass(est.transition_hat, est.emission_hat,
                               reference_params.initial_dist, traj.contexts)
        assert np.max(np.abs(stepped - truth.probs)) < 1e-12
        assert np.max(np.abs(batched - truth.probs)) < 1e-12

    def test_uninformative_emissions_follow_markov_prior(self):
        M = np.array([[0.7, 0.3], [0.2, 0.8]])
        est = EstimatedHmm(
            raw_transition=M, raw_emission=np.array([[0.5, 0.5], [0.5, 0.5]]),
            transition_hat=M, emission_hat=np.array([[0.5, 0.5], [0.5, 0.5]]),
        )
        prior = np.array([0.5, 0.5])
        filt = estimate_filter(est, prior)
        expected = prior.copy()
        xs = [0, 1, 1, 0]
        for t, x in enumerate(xs):
            belief = filt.step(x)
            if t > 0:
                expected = M.T @ expected
            assert belief == pytest.approx(expected, abs=1e-12)
            assert forward_pass(M, est.emission_hat, prior, xs[: t + 1]) == pytest.approx(
                expected, abs=1e-12)

    def test_first_update_worked_example(self, two_state_params):
        est = oracle_estimate(two_state_params)
        assert estimate_filter(est).step(0) == pytest.approx([8 / 11, 3 / 11], abs=1e-12)
        assert estimate_filter(est).restart([0]) == pytest.approx([8 / 11, 3 / 11],
                                                                  abs=1e-12)

    def test_degenerate_resets_to_uniform(self):
        est = EstimatedHmm(
            raw_transition=np.array([[0.5, 0.5], [0.5, 0.5]]),
            raw_emission=np.array([[1.0, 1.0], [0.0, 0.0]]),
            transition_hat=np.array([[0.5, 0.5], [0.5, 0.5]]),
            emission_hat=np.array([[1.0, 1.0], [0.0, 0.0]]),
        )
        assert estimate_filter(est).step(1) == pytest.approx([0.5, 0.5])
        assert estimate_filter(est).restart([0, 1]) == pytest.approx([0.5, 0.5])


def test_likelihood_scale_invariance(two_state_params):
    # multiplying every state's likelihood at a round by c > 0 is a no-op
    belief = np.array([0.3, 0.7])
    scaled = two_state_params.emission.copy()
    scaled[0, :] *= 7.5
    base, _ = forward_step(belief, belief, two_state_params.transition,
                           two_state_params.emission, 0)
    alt, _ = forward_step(belief, belief, two_state_params.transition, scaled, 0)
    assert np.max(np.abs(base - alt)) < 1e-15


class TestBeliefErrorTrace:
    def test_truth_gives_zero_gaps(self, reference_params):
        traj = sample_trajectory(reference_params, 500, seed=1)
        est = EstimatedHmm(
            raw_transition=reference_params.transition.copy(),
            raw_emission=reference_params.emission.copy(),
            transition_hat=reference_params.transition.copy(),
            emission_hat=reference_params.emission.copy(),
        )
        # estimated filter starts from the uniform prior; on a stationary
        # symmetric instance that equals the true initial distribution
        gaps = belief_error_trace(reference_params, est, traj.contexts)
        assert np.max(gaps) < 1e-12

    def test_perturbed_truth_stays_bounded(self, reference_params):
        raw_e = np.clip(reference_params.emission + 0.01, 0, None)
        perturbed = postprocess(EstimatedHmm(
            raw_transition=reference_params.transition.copy(),
            raw_emission=raw_e,
        ))
        traj = sample_trajectory(reference_params, 400, seed=2)
        gaps = belief_error_trace(reference_params, perturbed, traj.contexts)
        assert np.max(gaps) <= 2.0
        assert np.median(gaps) < 0.2

    def test_schedule_refilters_at_activation(self, reference_params):
        traj = sample_trajectory(reference_params, 50, seed=3)
        est = oracle_estimate(reference_params)
        gaps = belief_error_trace(reference_params, [(1, est), (25, est)], traj.contexts)
        assert np.max(gaps) < 1e-12

    def test_one_truth_pass_serves_every_prefix(self, reference_params):
        # estimation_curves filters the longest trajectory once and slices it
        raw_e = np.clip(reference_params.emission + 0.02, 0, None)
        est = postprocess(EstimatedHmm(
            raw_transition=reference_params.transition.copy(),
            raw_emission=raw_e,
        ))
        traj = sample_trajectory(reference_params, 400, seed=5)
        truth = filter_trace(reference_params, traj.contexts)
        for t in (1, 64, 250, 400):
            want = belief_error_trace(reference_params, est, traj.contexts[:t])
            assert np.array_equal(belief_gaps(truth[:t], est, traj.contexts[:t]), want)

    def test_dump_csv_schema(self, reference_params, tmp_path):
        from hmmbandits import dump_belief_trace

        traj = sample_trajectory(reference_params, 40, seed=4)
        est = oracle_estimate(reference_params)
        path = tmp_path / "trace.csv"
        dump_belief_trace(str(path), reference_params, est, traj.contexts)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "round,b1,b2,b1_hat,b2_hat,l1_gap"
        assert len(lines) == 41
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) + float(first[2]) == pytest.approx(1.0)
        assert float(first[-1]) == pytest.approx(0.0, abs=1e-12)


class TestOnlineBeliefEstimator:
    def test_uniform_before_first_estimate(self, reference_params):
        traj = sample_trajectory(reference_params, 30, seed=4)
        est = OnlineBeliefEstimator(2, 4, refit_every=100, seed=0)
        beliefs = [est.observe(int(x)) for x in traj.contexts]
        assert all(np.allclose(b, [0.5, 0.5]) for b in beliefs)
        assert est.estimate is None

    def test_refits_and_beliefs_become_informative(self, reference_params):
        # internal state labels are arbitrary: diagnostics against the truth
        # are taken under the identifying (best global) permutation
        traj = sample_trajectory(reference_params, 30_000, seed=5)
        est = OnlineBeliefEstimator(2, 4, refit_every=2500, seed=0)
        beliefs = np.array([est.observe(int(x)) for x in traj.contexts])
        assert est.params_version >= 10
        filt = ForwardFilter(reference_params.transition, reference_params.emission,
                             prior=reference_params.initial_dist)
        truth = np.array([filt.step(int(x)).copy() for x in traj.contexts])
        late = slice(15_000, None)
        gap = min(
            float(np.median(np.abs(beliefs[late] - truth[late]).sum(axis=1))),
            float(np.median(np.abs(beliefs[late, ::-1] - truth[late]).sum(axis=1))),
        )
        uniform_gap = float(np.median(np.abs(truth[late] - 0.5).sum(axis=1)))
        assert gap < uniform_gap

    def test_determinism(self, reference_params):
        traj = sample_trajectory(reference_params, 1500, seed=6)
        runs = []
        for _ in range(2):
            est = OnlineBeliefEstimator(2, 4, refit_every=250, seed=9)
            runs.append(np.array([est.observe(int(x)) for x in traj.contexts]))
        assert np.array_equal(runs[0], runs[1])

    def test_exact_refilter_matches_default_between_refits(self, reference_params):
        traj = sample_trajectory(reference_params, 600, seed=7)
        default = OnlineBeliefEstimator(2, 4, refit_every=200, seed=1)
        exact = OnlineBeliefEstimator(2, 4, refit_every=200, seed=1,
                                      exact_refilter=True)
        got_default = np.array([default.observe(int(x)) for x in traj.contexts])
        got_exact = np.array([exact.observe(int(x)) for x in traj.contexts])
        # identical estimates and an identical recursion: the incremental path
        # must agree with per-round re-filtering to floating-point noise
        assert np.max(np.abs(got_default - got_exact)) < 1e-9

    def test_rank_deficient_stream_keeps_uniform(self):
        est = OnlineBeliefEstimator(2, 2, refit_every=10, seed=0)
        for _ in range(40):
            belief = est.observe(0)
        assert est.estimate is None
        assert est.refit_failures > 0
        assert belief == pytest.approx([0.5, 0.5])

    def test_spectral_beliefs_improve_with_data(self, reference_params):
        # direction of the consistency statement: longer prefixes give a
        # smaller median belief gap on the back half of the run
        medians = {}
        for horizon in (1000, 30_000):
            traj = sample_trajectory(reference_params, horizon, seed=8)
            est = OnlineBeliefEstimator(2, 4, refit_every=max(100, horizon // 8),
                                        seed=2)
            beliefs = np.array([est.observe(int(x)) for x in traj.contexts])
            filt = ForwardFilter(reference_params.transition,
                                 reference_params.emission,
                                 prior=reference_params.initial_dist)
            truth = np.array([filt.step(int(x)).copy() for x in traj.contexts])
            back = slice(horizon // 2, None)
            medians[horizon] = min(
                float(np.median(np.abs(beliefs[back] - truth[back]).sum(axis=1))),
                float(np.median(np.abs(beliefs[back, ::-1] - truth[back]).sum(axis=1))),
            )
        assert medians[30_000] < medians[1000]


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_filtering_consistency_under_estimates(seed):
    # any post-processed estimate yields valid beliefs on any stream
    rng = np.random.default_rng(seed)
    H, X = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    if X < H:
        H, X = X, H if H >= X else X  # keep X >= H irrelevant here; filters only
    params = random_hmm(rng, H, X, min_entry=0.02)
    est = postprocess(EstimatedHmm(
        raw_transition=rng.normal(size=(H, H)),
        raw_emission=rng.normal(size=(X, H)),
    ))
    xs = rng.integers(0, X, size=12)
    for belief in (estimate_filter(est).run(xs), forward_pass(
            est.transition_hat, est.emission_hat, np.full(H, 1.0 / H), xs)):
        assert abs(belief.sum() - 1.0) < 1e-10
        assert np.all(belief >= 0)
