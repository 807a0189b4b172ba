import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmmbandits.beliefs import (
    BeliefErrorBudget,
    belief_gaps,
    refit_schedule,
    scheduled_beliefs,
    u_belief,
)
from hmmbandits.errors import ShapeMismatch
from hmmbandits.hmm import filter_trace, forward_pass, forward_step, sample_trajectory
from hmmbandits.spectral import EstimatedHmm, postprocess

from conftest import random_hmm, sparse_estimate
from oracles import (
    reference_forward_pass,
    reference_online_beliefs,
    reference_scheduled_beliefs,
    stepwise_filter,
    u_belief_reference,
)


def oracle_estimate(params) -> EstimatedHmm:
    return EstimatedHmm(params.transition.copy(), params.emission.copy())


def refilter(estimate: EstimatedHmm, prior, contexts) -> np.ndarray:
    """``forward_pass`` of one estimate over the whole of ``contexts``."""
    return forward_pass([(estimate.transition_hat, estimate.emission_hat)], prior,
                        contexts, [len(contexts)])[0]


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


class TestFilterStep:
    """The one-step update and the batched pass under estimated parameters."""

    def test_oracle_parameters_track_true_filter(self, reference_params):
        traj = sample_trajectory(reference_params, 300, seed=0)
        est = oracle_estimate(reference_params)
        truth = filter_trace(reference_params, traj.contexts)[-1]
        stepped = stepwise_filter(est.transition_hat, est.emission_hat,
                                  reference_params.initial_dist, traj.contexts)
        batched = refilter(est, reference_params.initial_dist, traj.contexts)
        assert np.max(np.abs(stepped - truth)) < 1e-12
        assert np.max(np.abs(batched - truth)) < 1e-12

    def test_uninformative_emissions_follow_markov_prior(self):
        M = np.array([[0.7, 0.3], [0.2, 0.8]])
        est = EstimatedHmm(M, np.array([[0.5, 0.5], [0.5, 0.5]]))
        prior = np.array([0.5, 0.5])
        expected = prior.copy()
        belief = None
        xs = [0, 1, 1, 0]
        for t, x in enumerate(xs):
            belief = forward_step(belief, prior, M, est.emission_hat, x, "uniform")
            if t > 0:
                expected = M.T @ expected
            assert belief == pytest.approx(expected, abs=1e-12)
            assert refilter(est, prior, xs[: t + 1]) == pytest.approx(expected, abs=1e-12)

    def test_first_update_worked_example(self, two_state_params):
        est = oracle_estimate(two_state_params)
        M, E, uniform = est.transition_hat, est.emission_hat, np.full(2, 0.5)
        assert forward_step(None, uniform, M, E, 0) == pytest.approx([8 / 11, 3 / 11],
                                                                     abs=1e-12)
        assert refilter(est, uniform, [0]) == pytest.approx([8 / 11, 3 / 11], abs=1e-12)

    def test_degenerate_resets_to_uniform(self):
        est = EstimatedHmm(np.array([[0.5, 0.5], [0.5, 0.5]]),
                           np.array([[1.0, 1.0], [0.0, 0.0]]))
        M, E, uniform = est.transition_hat, est.emission_hat, np.full(2, 0.5)
        assert forward_step(None, uniform, M, E, 1, "uniform") == pytest.approx([0.5, 0.5])
        assert refilter(est, uniform, [0, 1]) == pytest.approx([0.5, 0.5])


def test_likelihood_scale_invariance(two_state_params):
    # multiplying every state's likelihood at a round by c > 0 is a no-op
    belief = np.array([0.3, 0.7])
    scaled = two_state_params.emission.copy()
    scaled[0, :] *= 7.5
    base = forward_step(belief, belief, two_state_params.transition,
                        two_state_params.emission, 0)
    alt = forward_step(belief, belief, two_state_params.transition, scaled, 0)
    assert np.max(np.abs(base - alt)) < 1e-15


class TestBeliefErrorTrace:
    def test_truth_gives_zero_gaps(self, reference_params):
        traj = sample_trajectory(reference_params, 500, seed=1)
        est = oracle_estimate(reference_params)
        # estimated filter starts from the uniform prior; on a stationary
        # symmetric instance that equals the true initial distribution
        gaps = belief_gaps(filter_trace(reference_params, traj.contexts), [(1, est)],
                           traj.contexts)
        assert np.max(gaps) < 1e-12

    def test_perturbed_truth_stays_bounded(self, reference_params):
        raw_e = np.clip(reference_params.emission + 0.01, 0, None)
        perturbed = postprocess(reference_params.transition, raw_e)
        traj = sample_trajectory(reference_params, 400, seed=2)
        gaps = belief_gaps(filter_trace(reference_params, traj.contexts),
                           [(1, perturbed)], traj.contexts)
        assert np.max(gaps) <= 2.0
        assert np.median(gaps) < 0.2

    def test_schedule_refilters_at_activation(self, reference_params):
        traj = sample_trajectory(reference_params, 50, seed=3)
        est = oracle_estimate(reference_params)
        gaps = belief_gaps(filter_trace(reference_params, traj.contexts),
                           [(1, est), (25, est)], traj.contexts)
        assert np.max(gaps) < 1e-12

    def test_one_truth_pass_serves_every_prefix(self, reference_params):
        # estimation_curves filters the longest trajectory once and slices it
        raw_e = np.clip(reference_params.emission + 0.02, 0, None)
        est = postprocess(reference_params.transition, raw_e)
        traj = sample_trajectory(reference_params, 400, seed=5)
        truth = filter_trace(reference_params, traj.contexts)
        for t in (1, 64, 250, 400):
            prefix = traj.contexts[:t]
            want = belief_gaps(filter_trace(reference_params, prefix), [(1, est)], prefix)
            assert np.array_equal(belief_gaps(truth[:t], [(1, est)], prefix), want)


def online_beliefs(contexts, H, X, refit_every, seed):
    """The belief subroutine over a whole stream: schedule, beliefs, failures."""
    schedule, failures = refit_schedule(contexts, H, X, refit_every, seed)
    return schedule, scheduled_beliefs(schedule, contexts, H), failures


class TestOnlineBeliefEstimator:
    """``refit_schedule`` + ``scheduled_beliefs``, the belief subroutine."""

    def test_uniform_before_first_estimate(self, reference_params):
        traj = sample_trajectory(reference_params, 30, seed=4)
        schedule, beliefs, _ = online_beliefs(traj.contexts, 2, 4, 100, 0)
        assert np.array_equal(beliefs, np.full((30, 2), 0.5))
        assert schedule == []

    def test_refits_and_beliefs_become_informative(self, reference_params):
        # internal state labels are arbitrary: diagnostics against the truth
        # are taken under the identifying (best global) permutation
        traj = sample_trajectory(reference_params, 30_000, seed=5)
        schedule, beliefs, _ = online_beliefs(traj.contexts, 2, 4, 2500, 0)
        assert len({id(est) for _, est in schedule}) >= 10
        truth = filter_trace(reference_params, traj.contexts)
        late = slice(15_000, None)
        gap = min(
            float(np.median(np.abs(beliefs[late] - truth[late]).sum(axis=1))),
            float(np.median(np.abs(beliefs[late, ::-1] - truth[late]).sum(axis=1))),
        )
        uniform_gap = float(np.median(np.abs(truth[late] - 0.5).sum(axis=1)))
        assert gap < uniform_gap

    def test_determinism(self, reference_params):
        traj = sample_trajectory(reference_params, 1500, seed=6)
        runs = [online_beliefs(traj.contexts, 2, 4, 250, 9)[1] for _ in range(2)]
        assert np.array_equal(runs[0], runs[1])

    def test_rows_match_prefix_refilter(self, reference_params):
        # every row is the belief after re-filtering its whole prefix from
        # the uniform prior under the estimate active at that round: one
        # batched pass over all 600 prefixes, each checked against the
        # straight single-prefix pass
        traj = sample_trajectory(reference_params, 600, seed=7)
        schedule, beliefs, _ = online_beliefs(traj.contexts, 2, 4, 200, 1)
        assert [t for t, _ in schedule] == [200, 400, 600]
        assert np.array_equal(beliefs[:199], np.full((199, 2), 0.5))
        rounds = range(200, 601)
        active = [[est for start, est in schedule if start <= t][-1] for t in rounds]
        models = [(est.transition_hat, est.emission_hat) for est in active]
        refilters = forward_pass(models, np.full(2, 0.5), traj.contexts, rounds)
        for t, (M, E), want in zip(rounds, models, refilters):
            assert np.array_equal(want, reference_forward_pass(
                M, E, np.full(2, 0.5), traj.contexts[:t]))
            assert np.max(np.abs(beliefs[t - 1] - want)) < 1e-12

    def test_rank_deficient_stream_keeps_uniform(self):
        schedule, beliefs, failures = online_beliefs(np.zeros(40, dtype=int), 2, 2, 10, 0)
        assert schedule == []
        assert failures > 0
        assert beliefs[-1] == pytest.approx([0.5, 0.5])

    def test_failed_refits_before_and_after_first_success(self):
        # an HMM stretch then a structureless one: the refit at round 10 fails
        # before any estimate exists, the one at round 200 after a success
        rng = np.random.default_rng(6)
        params = random_hmm(rng, 3, 3, min_entry=0.05)
        contexts = np.concatenate([sample_trajectory(params, 100, seed=6).contexts,
                                   rng.integers(0, 3, size=300)])
        schedule, beliefs, failures = online_beliefs(contexts, 3, 3, 10, 6)
        kept = [t for (t, est), (_, prev) in zip(schedule[1:], schedule) if est is prev]
        assert schedule[0][0] == 20 and kept == [200] and failures == 2
        assert np.array_equal(beliefs[:19], np.full((19, 3), 1 / 3))
        # the failed refit still re-filters the prefix under the kept estimate
        est = dict(schedule)[200]
        assert np.array_equal(beliefs[199], refilter(est, np.full(3, 1 / 3), contexts[:200]))
        want, want_failures, want_estimate = reference_online_beliefs(contexts, 3, 3, 10, 6)
        assert np.array_equal(beliefs, want) and failures == want_failures
        assert schedule[-1][1].to_text() == want_estimate.to_text()

    def test_spectral_beliefs_improve_with_data(self, reference_params):
        # direction of the consistency statement: longer prefixes give a
        # smaller median belief gap on the back half of the run
        medians = {}
        for horizon in (1000, 30_000):
            traj = sample_trajectory(reference_params, horizon, seed=8)
            _, beliefs, _ = online_beliefs(traj.contexts, 2, 4,
                                           max(100, horizon // 8), 2)
            truth = filter_trace(reference_params, traj.contexts)
            back = slice(horizon // 2, None)
            medians[horizon] = min(
                float(np.median(np.abs(beliefs[back] - truth[back]).sum(axis=1))),
                float(np.median(np.abs(beliefs[back, ::-1] - truth[back]).sum(axis=1))),
            )
        assert medians[30_000] < medians[1000]


@st.composite
def context_streams(draw):
    """Streams of up to 400 contexts glued from HMM, constant, cyclic and
    i.i.d. segments.  A constant or short start makes early refits fail; a
    structureless stretch after an HMM one can make a later refit fail."""
    H = draw(st.integers(1, 3))
    X = draw(st.integers(H, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    segments = draw(st.lists(
        st.tuples(st.sampled_from(("hmm", "constant", "cycle", "iid")),
                  st.integers(1, 200)),
        min_size=1, max_size=4))
    parts = []
    for kind, length in segments:
        width = int(rng.integers(1, X + 1))
        if kind == "hmm":
            params = random_hmm(rng, H, X, min_entry=0.05)
            parts.append(sample_trajectory(params, length, seed=int(rng.integers(2**31))).contexts)
        elif kind == "constant":
            parts.append(np.full(length, rng.integers(X)))
        elif kind == "cycle":
            parts.append(np.arange(length) % width)
        else:
            parts.append(rng.integers(0, width, size=length))
    contexts = np.concatenate(parts)[:400]
    refit_every = draw(st.integers(1, 40))
    return contexts, H, X, refit_every, draw(st.integers(0, 2**31))


@settings(deadline=None, max_examples=80)
@given(context_streams())
def test_online_beliefs_match_reference_protocol(stream):
    contexts, H, X, refit_every, seed = stream
    schedule, beliefs, failures = online_beliefs(contexts, H, X, refit_every, seed)
    want, want_failures, want_estimate = reference_online_beliefs(
        contexts, H, X, refit_every, seed)
    assert np.array_equal(beliefs, want)
    assert failures == want_failures
    final = schedule[-1][1] if schedule else None
    assert (final is None) == (want_estimate is None)
    if final is not None:
        assert final.to_text() == want_estimate.to_text()


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 6),
       st.integers(2, 8), st.integers(1, 700), st.integers(0, 12), st.booleans())
def test_scheduled_beliefs_on_degenerate_paths(seed, H, X, T, draws, at_end):
    # zero emission rows make contexts impossible under every state, inside
    # stepped segments and inside the 64-step chunks of the refit pass; the
    # schedule may end with a pair at round T (an empty tail segment) and
    # always repeats a round (the last pair given for it wins).  Up to a
    # dozen refits share chunks and leave ragged segments, H may exceed X,
    # and C- and F-ordered transitions are mixed: BLAS rounds the two
    # layouts' matvecs differently, so the stacked steps must keep each
    # one's layout
    rng = np.random.default_rng(seed)

    def estimate():
        M, E = sparse_estimate(rng, H, X, zero_row=True)
        return EstimatedHmm(np.asfortranarray(M) if rng.random() < 0.5 else M, E)

    contexts = rng.integers(0, X, size=T)
    rounds = sorted(rng.integers(1, T + 1, size=draws).tolist()) + [T] * at_end
    schedule = [(t, estimate()) for t in rounds or [1]]
    schedule.append((schedule[int(rng.integers(len(schedule)))][0], estimate()))
    assert np.array_equal(scheduled_beliefs(schedule, contexts, H),
                          reference_scheduled_beliefs(schedule, contexts, H))


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_filtering_consistency_under_estimates(seed):
    # any post-processed estimate yields valid beliefs on any stream
    rng = np.random.default_rng(seed)
    H, X = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    if X < H:
        H, X = X, H if H >= X else X  # keep X >= H irrelevant here; filters only
    params = random_hmm(rng, H, X, min_entry=0.02)
    est = postprocess(rng.normal(size=(H, H)), rng.normal(size=(X, H)))
    xs = rng.integers(0, X, size=12)
    uniform = np.full(H, 1.0 / H)
    for belief in (stepwise_filter(est.transition_hat, est.emission_hat, uniform, xs),
                   refilter(est, uniform, xs)):
        assert abs(belief.sum() - 1.0) < 1e-10
        assert np.all(belief >= 0)
