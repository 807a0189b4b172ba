import math
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmmbandits.errors import DegenerateLikelihood, NotMixing, ShapeMismatch, TooLarge
from hmmbandits.hmm import (
    TILE_BYTES,
    HmmParams,
    _pairwise_sum,
    check_forgetting,
    filter_trace,
    forgetting_rate,
    forward_pass,
    forward_steps,
    sample_trajectory,
    validate,
)

from conftest import random_hmm, sparse_estimate
from oracles import (
    conditional_terminal_distribution,
    enumerate_posterior,
    forward_step,
    reference_chunk_step,
    reference_forward_pass,
    reference_step,
    stationary_distribution,
    stepwise_filter,
)


def smallest_singular_2x2(A: np.ndarray) -> float:
    """Closed-form smallest singular value of a 2x2 matrix (hand formula)."""
    g = A.T @ A
    tr, det = g[0, 0] + g[1, 1], g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    return math.sqrt((tr - math.sqrt(tr * tr - 4.0 * det)) / 2.0)


class TestParamsValidation:
    def test_bad_row_sum_rejected(self):
        with pytest.raises(ShapeMismatch):
            HmmParams(2, 2, np.array([0.5, 0.5]),
                      np.array([[0.9, 0.2], [0.2, 0.8]]),
                      np.array([[0.8, 0.3], [0.2, 0.7]]))

    def test_negative_entry_rejected(self):
        with pytest.raises(ShapeMismatch):
            HmmParams(2, 2, np.array([1.5, -0.5]),
                      np.array([[0.9, 0.1], [0.2, 0.8]]),
                      np.array([[0.8, 0.3], [0.2, 0.7]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            HmmParams(2, 3, np.array([0.5, 0.5]),
                      np.array([[0.9, 0.1], [0.2, 0.8]]),
                      np.array([[0.8, 0.3], [0.2, 0.7]]))


class TestValidate:
    def test_equal_emission_columns_flagged(self):
        params = HmmParams(2, 2, np.array([0.5, 0.5]),
                           np.array([[0.5, 0.5], [0.5, 0.5]]),
                           np.array([[0.6, 0.6], [0.4, 0.4]]))
        diag = validate(params)
        assert diag.sigma_min_E == pytest.approx(0.0, abs=1e-12)
        assert not diag.regularity_ok

    def test_identity_transition_flagged(self):
        params = HmmParams(2, 2, np.array([0.5, 0.5]),
                           np.eye(2),
                           np.array([[0.8, 0.3], [0.2, 0.7]]))
        diag = validate(params)
        assert diag.eps_M == 0.0
        assert not diag.regularity_ok

    def test_regular_instance(self, two_state_params):
        diag = validate(two_state_params)
        assert diag.eps_M == pytest.approx(0.1)
        assert diag.e_nu_min == pytest.approx(0.2)
        assert diag.sigma_min_E == pytest.approx(
            smallest_singular_2x2(two_state_params.emission), abs=1e-12
        )
        assert diag.sigma_min_M == pytest.approx(
            smallest_singular_2x2(two_state_params.transition), abs=1e-12
        )
        assert diag.regularity_ok

    def test_more_states_than_contexts_flagged(self):
        params = HmmParams(3, 2, np.full(3, 1 / 3),
                           np.full((3, 3), 1 / 3),
                           np.array([[0.5, 0.4, 0.3], [0.5, 0.6, 0.7]]))
        assert not validate(params).regularity_ok

    def test_stationary_detection(self, reference_params):
        assert validate(reference_params).is_stationary_init


class TestSampleTrajectory:
    def test_absorbing_chain_constant_state(self):
        params = HmmParams(2, 2, np.array([1.0, 0.0]), np.eye(2),
                           np.array([[0.8, 0.3], [0.2, 0.7]]))
        traj = sample_trajectory(params, 200, seed=1)
        assert np.all(traj.hidden == 0)

    def test_deterministic_emission_reveals_state(self):
        params = HmmParams(2, 2, np.array([0.4, 0.6]),
                           np.array([[0.6, 0.4], [0.3, 0.7]]),
                           np.eye(2))
        traj = sample_trajectory(params, 500, seed=3)
        assert np.array_equal(traj.hidden, traj.contexts)

    def test_occupancy_matches_stationary(self, two_state_params):
        traj = sample_trajectory(two_state_params, 10_000, seed=42)
        pi = stationary_distribution(two_state_params.transition)
        occupancy = np.bincount(traj.hidden, minlength=2) / traj.horizon
        assert np.max(np.abs(occupancy - pi)) < 0.02

    def test_seed_determinism(self, reference_params):
        a = sample_trajectory(reference_params, 1000, seed=7)
        b = sample_trajectory(reference_params, 1000, seed=7)
        assert np.array_equal(a.hidden, b.hidden)
        assert np.array_equal(a.contexts, b.contexts)

    def test_horizon_lengths(self, reference_params):
        traj = sample_trajectory(reference_params, 123, seed=0)
        assert len(traj.hidden) == len(traj.contexts) == 123


class TestTrueBeliefFilter:
    def test_symmetric_instance_stays_uniform(self):
        params = HmmParams(2, 2, np.array([0.5, 0.5]),
                           np.array([[0.3, 0.7], [0.7, 0.3]]),
                           np.array([[0.6, 0.6], [0.4, 0.4]]))
        for t in (1, 3, 8):
            belief = filter_trace(params, [0, 1, 0, 1, 1, 0, 0, 1][:t])[-1]
            assert belief == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_single_observation_worked_example(self, two_state_params):
        belief = filter_trace(two_state_params, [0])[-1]
        assert belief == pytest.approx([8 / 11, 3 / 11], abs=1e-12)

    def test_matches_path_enumeration(self):
        rng = np.random.default_rng(2024)
        for _ in range(25):
            H, X = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            params = random_hmm(rng, H, X, min_entry=0.05)
            t = int(rng.integers(1, 9))
            contexts = rng.integers(0, X, size=t)
            got = filter_trace(params, contexts)[-1]
            want = enumerate_posterior(params, contexts)
            assert np.max(np.abs(got - want)) < 1e-10

    def test_impossible_observation_raises(self):
        params = HmmParams(2, 2, np.array([0.5, 0.5]),
                           np.array([[0.5, 0.5], [0.5, 0.5]]),
                           np.array([[1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(DegenerateLikelihood):
            filter_trace(params, [1])

    def test_empty_contexts_rejected(self, two_state_params):
        with pytest.raises(ShapeMismatch):
            filter_trace(two_state_params, [])

    def test_long_horizon_stability(self, reference_params):
        traj = sample_trajectory(reference_params, 50_000, seed=5)
        belief = filter_trace(reference_params, traj.contexts)[-1]
        assert belief.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(belief >= 0)


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=10))
def test_belief_normalization_property(seed, t):
    rng = np.random.default_rng(seed)
    H, X = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    params = random_hmm(rng, H, X, min_entry=0.02)
    contexts = rng.integers(0, X, size=t)
    belief = filter_trace(params, contexts)[-1]
    assert abs(belief.sum() - 1.0) < 1e-10
    assert np.all(belief >= 0)


def pass_one(M, E, prior, contexts):
    """``forward_pass`` over a single model and the whole stream (K = 1)."""
    return forward_pass([(M, E)], prior, contexts, [len(contexts)])[0]


class TestForwardPass:
    @settings(deadline=None, max_examples=150)
    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=300), st.booleans())
    def test_matches_stepwise_filter(self, seed, H, X, t, zero_row):
        # K = 1: the batched pass crosses 64-step chunk boundaries and, through
        # the zero entries, the uniform-reset fallback of the per-step scan
        rng = np.random.default_rng(seed)
        zero_row = zero_row and X >= 2
        M, E = sparse_estimate(rng, H, X, zero_row)
        prior = rng.dirichlet(np.ones(H))
        contexts = rng.integers(0, X, size=t)
        got = pass_one(M, E, prior, contexts)
        assert np.array_equal(got, reference_forward_pass(M, E, prior, contexts))
        assert np.max(np.abs(got - stepwise_filter(M, E, prior, contexts))) <= 1e-12

    @settings(deadline=None, max_examples=100)
    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 6),
           st.integers(1, 700), st.integers(1, 12))
    def test_many_models_match_reference(self, seed, H, t, K):
        # K > 1: repeated and ragged prefix ends, so chunks are shared and
        # tails differ in length; H may exceed X
        rng = np.random.default_rng(seed)
        X = int(rng.integers(2, 9))
        models = []
        for _ in range(K):
            models.append(sparse_estimate(rng, H, X, zero_row=bool(rng.random() < 0.5)))
        prior = rng.dirichlet(np.ones(H))
        contexts = rng.integers(0, X, size=t)
        ends = np.sort(rng.integers(1, t + 1, size=K))
        got = forward_pass(models, prior, contexts, ends)
        for (M, E), end, row in zip(models, ends, got):
            assert np.array_equal(row, reference_forward_pass(M, E, prior, contexts[:end]))

    def test_six_states_over_several_tiles_match_reference(self):
        # H = 6 (the wide benchmark instance's size): 40 prefixes of up to
        # 4,000 contexts make about 1,200 (model, chunk) pairs, more than the
        # 910 of one tile, and zero entries reach the per-step fallback
        rng = np.random.default_rng(21)
        models = [sparse_estimate(rng, 6, 8, zero_row=k % 4 == 0) for k in range(40)]
        prior = rng.dirichlet(np.ones(6))
        contexts = rng.integers(0, 8, size=4000)
        ends = np.sort(rng.integers(1, 4001, size=40))
        assert ((ends - 1) // 64).sum() > TILE_BYTES // (8 * 36)
        got = forward_pass(models, prior, contexts, ends)
        for (M, E), end, row in zip(models, ends, got):
            assert np.array_equal(row, reference_forward_pass(M, E, prior, contexts[:end]))

    def test_zero_likelihood_inside_a_chunk(self):
        # context 2 is impossible in every state: the chunk holding it falls
        # back to the per-step scan and resets to uniform there, for the
        # model whose prefix reaches it and not for the shorter one
        M = np.array([[0.9, 0.1], [0.2, 0.8]])
        E = np.array([[0.9, 0.1], [0.1, 0.9], [0.0, 0.0]])
        contexts = np.array([0] * 100 + [2] + [1] * 30)
        uniform = np.full(2, 0.5)
        assert stepwise_filter(M, E, uniform, contexts[:101]) == pytest.approx([0.5, 0.5])
        ends = [100, 104, 131]
        got = forward_pass([(M, E)] * 3, uniform, contexts, ends)
        for end, row in zip(ends, got):
            assert np.array_equal(row, reference_forward_pass(M, E, uniform, contexts[:end]))
            assert np.max(np.abs(row - stepwise_filter(M, E, uniform, contexts[:end]))) <= 1e-12

    def test_rejects_bad_prefix_ends(self):
        M, E, uniform = np.full((2, 2), 0.5), np.full((3, 2), 1 / 3), np.full(2, 0.5)
        for ends in ([1], [0, 2], [3, 2], [2, 5], [1, 2, 3]):
            with pytest.raises(ShapeMismatch):
                forward_pass([(M, E)] * 2, uniform, [0, 1, 2, 0], ends)
        with pytest.raises(ShapeMismatch):
            pass_one(M, E, uniform, [])


@settings(deadline=None, max_examples=150)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 9),
       st.one_of(st.just(1), st.integers(0, 455).map(lambda n: 2 * n + 1)),
       st.floats(0.0, 0.6), st.integers(1, 5))
def test_chunk_step_einsum_adds_products_in_order(seed, H, width, zeros, steps):
    """forward_pass multiplies a tile's chunk products with one
    ``np.einsum("ijp,jkp->ikp", a, prod)`` per step: the summed index j is
    not the contiguous one, so each entry is the products added in j order,
    bit for bit, over tiles of one pair and of odd widths up to 911, with
    zero entries, through several chained steps."""
    rng = np.random.default_rng(seed)

    def tile():
        a = rng.uniform(size=(H, H, width))
        a[rng.uniform(size=a.shape) < zeros] = 0.0
        return a

    got = want = tile()
    for _ in range(steps):
        a = tile()
        got = np.einsum("ijp,jkp->ikp", a, got)
        want = reference_chunk_step(a, want)
        assert np.array_equal(got, want)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.floats(0.0, 1e6), min_size=8, max_size=300),
       st.lists(st.integers(-12, 0), min_size=300, max_size=300))
def test_pairwise_sum_is_numpys(values, exponents):
    terms = [v * 10.0**e for v, e in zip(values, exponents)]
    assert _pairwise_sum(terms) == float(np.add.reduce(np.array(terms)))


@pytest.mark.parametrize("H", [8, 9])
def test_filter_kernel_at_eight_and_nine_states(H):
    """From 8 states up numpy adds the normalizer in pairs: the kernel's
    filter_trace and lone forward_steps segment are the reference step's
    bits there, over zero entries and an impossible context."""
    rng = np.random.default_rng(H)
    M, E = sparse_estimate(rng, H, 6, zero_row=True)
    contexts = rng.integers(0, 6, size=3000)
    first = rng.dirichlet(np.ones(H), size=1)
    want, _ = reference_trace(first[0], None, M, E, contexts, "uniform")
    got = np.empty((3000, H))
    forward_steps([(M, E)], first, contexts, [0], [3000], got)
    assert np.array_equal(got, want)
    params = random_hmm(rng, H, 6, min_entry=0.01)
    want, _ = reference_trace(None, params.initial_dist, params.transition, params.emission,
                              contexts, "raise")
    assert np.array_equal(filter_trace(params, contexts), want)


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 6),
       st.integers(2, 8), st.integers(1, 300), st.integers(1, 8))
def test_forward_steps_match_forward_step(seed, H, X, T, K):
    # disjoint ragged segments (some empty), H may exceed X, zero emission
    # rows reset to uniform: every row is forward_step's (the reference
    # step's) bit for bit
    rng = np.random.default_rng(seed)
    models = [sparse_estimate(rng, H, X, zero_row=True) for _ in range(K)]
    beliefs = rng.dirichlet(np.ones(H), size=K)
    contexts = rng.integers(0, X, size=T)
    cuts = np.sort(rng.integers(0, T + 1, size=2 * K))
    starts, stops = cuts[0::2], cuts[1::2]
    got = np.full((T, H), np.nan)
    forward_steps(models, beliefs, contexts, starts, stops, got)
    want = np.full((T, H), np.nan)
    for (M, E), belief, start, stop in zip(models, beliefs, starts, stops):
        for i in range(start, stop):
            belief = reference_step(belief, None, M, E, contexts[i], "uniform")
            want[i] = belief
    assert np.array_equal(got, want, equal_nan=True)


def reference_trace(belief, prior, M, E, contexts, on_degenerate):
    """Rows of :func:`reference_step` over ``contexts``, and whether a step
    raised ``DegenerateLikelihood`` (the rows then stop before it)."""
    rows, raised = [], False
    try:
        for x in contexts:
            belief = reference_step(belief, prior, M, E, int(x), on_degenerate)
            rows.append(belief)
    except DegenerateLikelihood:
        raised = True
    return np.array(rows).reshape(-1, M.shape[0]), raised


@settings(deadline=None, max_examples=150)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 9),
       st.integers(1, 6), st.integers(1, 120), st.booleans(),
       st.sampled_from(["raise", "uniform"]))
@example(seed=1, H=8, X=3, T=60, zero_row=False, on_degenerate="raise")
@example(seed=2, H=9, X=4, T=60, zero_row=True, on_degenerate="uniform")
def test_bayes_step_kernel_matches_reference_step(seed, H, X, T, zero_row, on_degenerate):
    """forward_step, filter_trace and a lone forward_steps segment share one
    kernel that steps on Python floats; each row is the numpy reference
    step's bit for bit, on either side of numpy's pairwise sums (H >= 8), with
    zero emission rows raising or resetting to uniform as asked."""
    rng = np.random.default_rng(seed)
    M, E = sparse_estimate(rng, H, X, zero_row)
    prior = rng.dirichlet(np.ones(H))
    contexts = rng.integers(0, X, size=T)

    want, raised = reference_trace(None, prior, M, E, contexts, on_degenerate)
    got, belief = [], None
    with pytest.raises(DegenerateLikelihood) if raised else nullcontext():
        for x in contexts.tolist():
            belief = forward_step(belief, prior, M, E, x, on_degenerate)
            got.append(belief)
    assert np.array_equal(np.array(got).reshape(-1, H), want)

    params = HmmParams(H, X, prior, M, E)
    want, raised = reference_trace(None, prior, params.transition, params.emission,
                                   contexts, "raise")
    if raised:
        with pytest.raises(DegenerateLikelihood):
            filter_trace(params, contexts)
    else:
        assert np.array_equal(filter_trace(params, contexts), want)

    start = int(rng.integers(0, T + 1))
    first = rng.dirichlet(np.ones(H), size=1)
    got = np.full((T, H), np.nan)
    forward_steps([(M, E)], first, contexts, [start], [T], got)
    want, _ = reference_trace(first[0], None, M, E, contexts[start:], "uniform")
    assert np.isnan(got[:start]).all()
    assert np.array_equal(got[start:], want)


class TestForgettingRate:
    def test_uniform_transition_forgets_in_one_step(self):
        params = HmmParams(2, 2, np.array([0.5, 0.5]),
                           np.full((2, 2), 0.5),
                           np.array([[0.8, 0.3], [0.2, 0.7]]))
        assert forgetting_rate(params) == pytest.approx(0.0)

    def test_worked_example(self, two_state_params):
        assert forgetting_rate(two_state_params) == pytest.approx(8 / 9)

    def test_zero_entry_raises(self):
        params = HmmParams(2, 2, np.array([1.0, 0.0]), np.eye(2),
                           np.array([[0.8, 0.3], [0.2, 0.7]]))
        with pytest.raises(NotMixing):
            forgetting_rate(params)


class TestCheckForgetting:
    def test_uniform_transition(self):
        params = HmmParams(2, 2, np.array([0.5, 0.5]),
                           np.full((2, 2), 0.5),
                           np.array([[0.8, 0.3], [0.2, 0.7]]))
        assert check_forgetting(params, 0.0, max_gap=4)

    def test_worked_example_rate_is_valid(self, two_state_params):
        assert check_forgetting(two_state_params, 8 / 9, max_gap=6)

    def test_rate_too_small_fails(self, two_state_params):
        # 8/9 is the constructed rate; something far smaller must be refuted
        assert not check_forgetting(two_state_params, 0.05, max_gap=4)

    def test_size_guard(self):
        params = HmmParams(2, 2, np.array([0.5, 0.5]),
                           np.full((2, 2), 0.5),
                           np.array([[0.8, 0.3], [0.2, 0.7]]))
        with pytest.raises(TooLarge):
            check_forgetting(params, 0.5, max_gap=9)

    def test_conditional_dists_match_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        from hmmbandits.hmm import _conditional_state_dists

        for _ in range(20):
            params = random_hmm(rng, 2, 3, min_entry=0.05)
            seq = tuple(rng.integers(0, 3, size=int(rng.integers(1, 5))))
            rows, feasible = _conditional_state_dists(params, seq)
            for h in range(2):
                want = conditional_terminal_distribution(params, h, seq)
                if want is None:
                    assert not feasible[h]
                else:
                    assert np.max(np.abs(rows[h] - want)) < 1e-12

    def test_random_instances_satisfy_constructed_rate(self):
        rng = np.random.default_rng(99)
        for _ in range(15):
            params = random_hmm(rng, int(rng.integers(2, 4)), int(rng.integers(2, 4)),
                                min_entry=0.05)
            gamma = forgetting_rate(params)
            assert check_forgetting(params, gamma, max_gap=6)
