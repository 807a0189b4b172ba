from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hmmbandits.errors import (
    DiagonalizationFailed,
    EstimationFailed,
    NearSingularPivot,
    NonFinite,
    RankDeficient,
    ShapeMismatch,
)
from hmmbandits.hmm import HmmParams, sample_trajectory
from hmmbandits.spectral import (COND_LIMIT, RANK_TOL, EstimatedHmm, Subspaces, align,
                                 prefix_tables, relabel, seeded_estimates, subspaces)

from conftest import one_postprocess, one_set_estimate, random_hmm, stream_moments
from oracles import (
    best_permutation_distance,
    count_moments,
    estimate_from_text,
    population_moments,
    reference_align,
    stream_triple_counts,
)


class TestMoments:
    def test_constant_stream_concentrates(self):
        p31, _, _ = stream_moments([0] * 10, num_contexts=2)
        assert p31[0, 0] == pytest.approx(1.0)
        assert p31.sum() == pytest.approx(1.0)

    def test_two_triple_stream_counts(self):
        # stream (1,2,1,2) in 1-based context labels; triples are
        # (x3,x1,x2)=(1,1,2) and (x4,x2,x3)=(2,2,1), recomputed by the
        # counting oracle below
        stream = [0, 1, 0, 1]
        tables = stream_moments(stream, num_contexts=2)
        for table, want in zip(tables, count_moments(stream, 2)):
            assert np.allclose(table, want)
        assert tables[0] == pytest.approx(np.diag([0.5, 0.5]))

    def test_tables_are_distributions(self):
        rng = np.random.default_rng(0)
        stream = rng.integers(0, 3, size=200)
        for table in stream_moments(stream, num_contexts=3):
            assert table.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(table >= 0)

    def test_incremental_matches_batch(self):
        # streaming triple counts after every round equal the batch tables
        # of that prefix, bit for bit
        rng = np.random.default_rng(1)
        stream = rng.integers(0, 4, size=157)
        for t, (c31, c32, c312) in enumerate(stream_triple_counts(stream, 4), start=1):
            if t < 3:
                continue
            p31, p32, p312 = stream_moments(stream[:t], num_contexts=4)
            assert np.array_equal(c31 / (t - 2), p31)
            assert np.array_equal(c32 / (t - 2), p32)
            assert np.array_equal(c312 / (t - 2), p312)

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(2)
        stream = rng.integers(0, 3, size=61)
        for table, want in zip(stream_moments(stream, num_contexts=3), count_moments(stream, 3)):
            assert np.allclose(table, want)

    def test_tables_sized_by_declared_count(self):
        # a prefix that never shows the top contexts still gets X x X tables
        p31, p32, p312 = stream_moments([0, 1, 0, 1], num_contexts=4)
        assert p31.shape == p32.shape == (4, 4)
        assert p312.shape == (4, 4, 4)
        with pytest.raises(TypeError):
            prefix_tables([0, 1, 0, 1], ends=[4])

    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 5).flatmap(lambda X: st.tuples(
        st.just(X), st.lists(st.integers(0, X - 1), min_size=3, max_size=120))))
    def test_prefixes_match_counting_oracle_exactly(self, case):
        X, stream = case
        for t in range(3, len(stream) + 1):
            for table, want in zip(stream_moments(stream[:t], num_contexts=X),
                                   count_moments(stream[:t], X)):
                assert np.array_equal(table, want)


class TestSpectralEstimate:
    def test_constant_stream_rank_deficient(self):
        ms = stream_moments([0] * 50, num_contexts=2)
        with pytest.raises(RankDeficient):
            one_set_estimate(ms, H=2, seed=0)

    def test_h_larger_than_x_rejected(self):
        ms = stream_moments([0, 1, 0, 1, 1, 0], num_contexts=2)
        with pytest.raises(ShapeMismatch):
            one_set_estimate(ms, H=3, seed=0)

    def test_one_seed_per_set(self, reference_params):
        tables = [table[None] for table in population_moments(reference_params)]
        sets = subspaces(*tables, 2)
        for seeds in ([], [0, 1]):
            with pytest.raises(ShapeMismatch):
                seeded_estimates(sets, seeds)

    def test_mixed_sets_match_one_set_calls(self):
        # HMM prefixes that end in every outcome, shuffled among the
        # rank-deficient prefixes of a constant stream
        params = random_hmm(np.random.default_rng(0), 3, 4, min_entry=0.05)
        _, contexts = sample_trajectory(params, 120, seed=0)
        streams = ((contexts, list(range(9, 121, 3))), (np.zeros(12, dtype=np.int64), [9, 12]))
        sets = [stage for stream, ends in streams for tables in prefix_tables(stream, 4, ends)
                for stage in subspaces(*tables, 3)]
        sets = [sets[k] for k in np.random.default_rng(1).permutation(len(sets))]
        outcomes = seeded_estimates(sets, list(range(len(sets))))
        for seed, (stage, got) in enumerate(zip(sets, outcomes)):
            (want,) = seeded_estimates([stage], [seed])
            assert type(got) is type(want)
            if isinstance(got, EstimatedHmm):
                assert got.to_text() == want.to_text()
            else:
                assert str(got) == str(want) and got.__traceback__ is None
            if isinstance(stage, RankDeficient):
                assert got is stage
        assert {type(got) for got in outcomes} == {EstimatedHmm, RankDeficient,
                                                   DiagonalizationFailed, NearSingularPivot}

    def test_population_recovery_two_states(self, reference_params):
        est = one_set_estimate(population_moments(reference_params), H=2, seed=0)
        m_err = best_permutation_distance(
            est.transition_hat, reference_params.transition, axis="both"
        )
        e_err = best_permutation_distance(
            est.emission_hat, reference_params.emission, axis="columns"
        )
        assert m_err < 1e-6
        assert e_err < 1e-6

    def test_population_recovery_three_states(self):
        rng = np.random.default_rng(5)
        params = random_hmm(rng, 3, 5, min_entry=0.15, stationary=True)
        est = one_set_estimate(population_moments(params), H=3, seed=1)
        assert best_permutation_distance(est.transition_hat, params.transition, "both") < 1e-6
        assert best_permutation_distance(est.emission_hat, params.emission, "columns") < 1e-6

    def test_determinism(self, reference_params):
        _, contexts = sample_trajectory(reference_params, 3000, seed=0)
        ms = stream_moments(contexts, num_contexts=4)
        a = one_set_estimate(ms, H=2, seed=3)
        b = one_set_estimate(ms, H=2, seed=3)
        assert np.array_equal(a.transition_hat, b.transition_hat)
        assert np.array_equal(a.emission_hat, b.emission_hat)

    def test_estimate_is_stochastic(self, reference_params):
        _, contexts = sample_trajectory(reference_params, 3000, seed=0)
        est = one_set_estimate(stream_moments(contexts, 4), H=2, seed=3)
        assert np.all(est.transition_hat >= 0) and np.all(est.emission_hat >= 0)
        assert np.allclose(est.transition_hat.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(est.emission_hat.sum(axis=0), 1.0, atol=1e-12)
        assert est.label_permutation == (0, 1)

    def test_routine_failures_share_a_base(self):
        for exc in (RankDeficient, NearSingularPivot, DiagonalizationFailed):
            assert issubclass(exc, EstimationFailed)
        for exc in (NonFinite, ShapeMismatch):
            assert not issubclass(exc, EstimationFailed)

    def test_sampled_consistency_direction(self, reference_params):
        errors = {}
        for t in (1000, 100_000):
            errs = []
            for seed in range(3):
                _, contexts = sample_trajectory(reference_params, t, seed=seed)
                ms = stream_moments(contexts, num_contexts=4)
                est = one_set_estimate(ms, H=2, seed=seed)
                errs.append(best_permutation_distance(
                    est.transition_hat, reference_params.transition, "both"
                ))
            errors[t] = float(np.median(errs))
        assert errors[100_000] < errors[1000]


@st.composite
def count_tables(draw):
    """Moment tables ``(p31, p32, p312)`` of a triple count table, formed as
    ``prefix_tables`` forms them, and an ``H <= X``: a rank-one bulk of up to
    1e13 counts plus a few stray counts, so ``sigma_H`` spans ``RANK_TOL``."""
    X = draw(st.integers(1, 5))
    H = draw(st.integers(1, X))
    factors = [draw(arrays(np.int64, X, elements=st.integers(0, 3))) for _ in range(3)]
    bulk = np.einsum("i,j,k->ijk", *factors) * 10 ** draw(st.sampled_from([0, 6, 11, 12, 13]))
    counts = bulk + draw(arrays(np.int64, (X, X, X), elements=st.integers(0, 2)))
    counts[0, 0, 0] += counts.sum() == 0
    p312 = counts / counts.sum()
    return p312.sum(axis=2), p312.sum(axis=1), p312, H


@settings(deadline=None, max_examples=300)
@given(count_tables())
def test_rank_check_bounds_the_pivot_condition(tables):
    # u3, u1 are p31's own singular vectors: the pivot is diag(+-sigma_h), and
    # sigma_1 <= 1 for a probability table, so sigma_H >= RANK_TOL caps cond
    p31, p32, p312, H = tables
    (stage,) = subspaces(p31[None], p32[None], p312[None], H)
    sigma = np.linalg.svd(p31)[1][H - 1]
    assert isinstance(stage, RankDeficient if sigma < RANK_TOL else Subspaces)
    if isinstance(stage, Subspaces):
        assert np.linalg.cond(stage.u3.T @ p31 @ stage.u1) <= COND_LIMIT


class TestPostprocess:
    def test_clip_then_renormalize_column(self):
        est = one_postprocess(np.array([[1.0]]), np.array([[-0.05], [0.55], [0.5]]))
        assert est.emission_hat[:, 0] == pytest.approx([0.0, 11 / 21, 10 / 21])

    def test_stochastic_input_unchanged(self, reference_params):
        est = one_postprocess(reference_params.transition, reference_params.emission)
        assert np.allclose(est.transition_hat, reference_params.transition)
        assert np.allclose(est.emission_hat, reference_params.emission)

    def test_zero_column_becomes_uniform(self):
        est = one_postprocess(np.array([[0.0]]), np.array([[0.0], [0.0], [0.0]]))
        assert est.emission_hat[:, 0] == pytest.approx([1 / 3, 1 / 3, 1 / 3])
        assert est.transition_hat[0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("X", [8, 9, 17])
    def test_sums_add_left_to_right_in_either_layout(self, X):
        # numpy's sum adds a contiguous row of 8 or more entries pairwise and
        # a strided one left to right; the estimates pin the strided bits
        raw = np.random.default_rng(X).uniform(-0.2, 1.0, size=(X, X))
        clipped = np.clip(raw, 0.0, None).tolist()
        rows = np.array([[v / sum(row) for v in row] for row in clipped])
        columns = np.array([[v / sum(col) for v in col] for col in zip(*clipped)]).T
        for layout in (raw, np.asfortranarray(raw)):
            est = one_postprocess(layout, layout)
            assert np.array_equal(est.transition_hat, rows)
            assert np.array_equal(est.emission_hat, columns)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFinite):
            one_postprocess(np.array([[np.nan]]), np.array([[1.0]]))


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_postprocess_idempotent(seed):
    rng = np.random.default_rng(seed)
    H = int(rng.integers(1, 4))
    X = int(rng.integers(H, 5))
    once = one_postprocess(rng.normal(size=(H, H)), rng.normal(size=(X, H)))
    twice = one_postprocess(once.transition_hat, once.emission_hat)
    assert np.allclose(once.transition_hat, twice.transition_hat, atol=1e-15)
    assert np.allclose(once.emission_hat, twice.emission_hat, atol=1e-15)
    assert np.all(once.transition_hat >= 0)
    assert np.allclose(once.transition_hat.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(once.emission_hat.sum(axis=0), 1.0, atol=1e-12)


_RAW_ENTRIES = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))


@st.composite
def raw_matrices(draw):
    """Raw ``(M, E)`` with negative entries and some all-zero transition
    rows and emission columns."""
    H = draw(st.integers(1, 4))
    X = draw(st.integers(H, 6))
    m = draw(arrays(np.float64, (H, H), elements=_RAW_ENTRIES))
    e = draw(arrays(np.float64, (X, H), elements=_RAW_ENTRIES))
    m[draw(st.lists(st.integers(0, H - 1), max_size=H))] = 0.0
    e[:, draw(st.lists(st.integers(0, H - 1), max_size=H))] = 0.0
    return m, e


@settings(deadline=None, max_examples=150)
@given(raw_matrices(), st.sampled_from([np.nan, np.inf, -np.inf]), st.booleans(),
       st.integers(min_value=0))
def test_postprocess_on_raw_matrices(raw, bad, in_emission, where):
    m, e = raw
    est = one_postprocess(m, e)
    H = m.shape[0]
    assert np.all(est.transition_hat >= 0) and np.all(est.emission_hat >= 0)
    assert np.abs(est.transition_hat.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.abs(est.emission_hat.sum(axis=0) - 1.0).max() <= 1e-12
    assert est.label_permutation == tuple(range(H))
    back = estimate_from_text(est.to_text())
    assert np.array_equal(back.transition_hat, est.transition_hat)
    assert np.array_equal(back.emission_hat, est.emission_hat)
    assert back.label_permutation == est.label_permutation
    target = e if in_emission else m
    target.flat[where % target.size] = bad
    with pytest.raises(NonFinite):
        one_postprocess(m, e)


def _estimate_from(transition, emission) -> EstimatedHmm:
    return EstimatedHmm(np.asarray(transition, dtype=float),
                        np.asarray(emission, dtype=float))


class TestAlign:
    def test_no_previous_keeps_labels(self):
        fresh = _estimate_from([[0.7, 0.3], [0.4, 0.6]], [[0.9, 0.2], [0.1, 0.8]])
        aligned = align(None, fresh)
        assert aligned.label_permutation == (0, 1)
        assert np.array_equal(aligned.emission_hat, fresh.emission_hat)

    def test_exact_swap_recovered(self):
        prev = _estimate_from([[0.7, 0.3], [0.4, 0.6]], [[0.9, 0.2], [0.1, 0.8]])
        swapped = _estimate_from(
            [[0.6, 0.4], [0.3, 0.7]], [[0.2, 0.9], [0.8, 0.1]]
        )
        aligned = align(prev, swapped)
        assert aligned.label_permutation == (1, 0)
        assert np.allclose(aligned.emission_hat, prev.emission_hat)
        assert np.allclose(aligned.transition_hat, prev.transition_hat)

    def test_identity_when_fresh_equals_previous(self):
        prev = _estimate_from([[0.7, 0.3], [0.4, 0.6]], [[0.9, 0.2], [0.1, 0.8]])
        aligned = align(prev, prev)
        assert aligned.label_permutation == (0, 1)

    def test_worked_two_state_example(self):
        prev = _estimate_from(np.eye(2), [[0.9, 0.2], [0.1, 0.8]])
        fresh = _estimate_from(np.eye(2), [[0.25, 0.85], [0.75, 0.15]])
        aligned = align(prev, fresh)
        assert aligned.label_permutation == (1, 0)
        worst = max(
            np.linalg.norm(prev.emission_hat[:, h] - aligned.emission_hat[:, h])
            for h in range(2)
        )
        assert worst == pytest.approx(np.sqrt(2 * 0.05**2), abs=1e-12)

    def test_column_multiset_preserved(self):
        rng = np.random.default_rng(8)
        prev = _estimate_from(*_random_stochastic(rng, 3, 4))
        fresh_m, fresh_e = _random_stochastic(rng, 3, 4)
        fresh = _estimate_from(fresh_m, fresh_e)
        aligned = align(prev, fresh)
        original = sorted(tuple(fresh.emission_hat[:, h]) for h in range(3))
        moved = sorted(tuple(aligned.emission_hat[:, h]) for h in range(3))
        assert original == moved

    def test_tie_breaks_lexicographically(self):
        # both states have identical emission columns: every permutation ties
        prev = _estimate_from([[0.5, 0.5], [0.5, 0.5]], [[0.6, 0.6], [0.4, 0.4]])
        fresh = _estimate_from([[0.3, 0.7], [0.2, 0.8]], [[0.6, 0.6], [0.4, 0.4]])
        aligned = align(prev, fresh)
        assert aligned.label_permutation == (0, 1)

    def test_non_finite_columns_rejected(self):
        prev = _estimate_from(np.eye(2), [[0.9, 0.2], [0.1, 0.8]])
        fresh = _estimate_from(np.eye(2), [[np.nan, 0.2], [0.1, 0.8]])
        with pytest.raises(NonFinite):
            align(prev, fresh)

    def test_relabel_permutes_states_and_keeps_record(self):
        m = np.arange(9.0).reshape(3, 3)
        e = np.arange(12.0).reshape(4, 3)
        est = replace(_estimate_from(m, e), label_permutation=(0, 1, 2))
        moved = relabel(est, (2, 0, 1))
        for h, src in enumerate((2, 0, 1)):
            assert np.array_equal(moved.emission_hat[:, h], e[:, src])
            for g, dst in enumerate((2, 0, 1)):
                assert moved.transition_hat[h, g] == m[src, dst]
        assert moved.label_permutation == (0, 1, 2)

    def test_label_pinning_across_rotation_seeds(self, reference_params):
        # The first estimate pins the labels: later estimates agree after
        # alignment no matter which internal ordering the rotation produced.
        _, contexts = sample_trajectory(reference_params, 60_000, seed=4)
        ms_early = stream_moments(contexts[:20_000], num_contexts=4)
        first = align(None, one_set_estimate(ms_early, 2, seed=0))
        ms_late = stream_moments(contexts, num_contexts=4)
        later = [
            align(first, one_set_estimate(ms_late, 2, seed=s))
            for s in (1, 2, 3)
        ]
        # different rotations perturb values at the sampling-noise level but
        # must land on the same labeling
        for est in later[1:]:
            assert np.allclose(est.emission_hat, later[0].emission_hat, atol=1e-2)
            assert np.allclose(est.transition_hat, later[0].transition_hat, atol=1e-2)
            identity_gap = np.linalg.norm(est.emission_hat - later[0].emission_hat)
            swapped_gap = np.linalg.norm(
                est.emission_hat[:, ::-1] - later[0].emission_hat
            )
            assert identity_gap < swapped_gap

    @settings(deadline=None, max_examples=150)
    @given(
        H=st.integers(min_value=1, max_value=6),
        extra=st.integers(min_value=0, max_value=2),
        integer_columns=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_enumeration(self, H, extra, integer_columns, seed):
        # small-integer columns make many column distances tie exactly, so
        # the tie rule (first permutation in lexicographic order) is exercised
        rng = np.random.default_rng(seed)
        X = H + extra

        def columns():
            if integer_columns:
                return rng.integers(0, 3, size=(X, H)).astype(float)
            return rng.dirichlet(np.ones(X), size=H).T

        prev = _estimate_from(rng.dirichlet(np.ones(H), size=H), columns())
        fresh = _estimate_from(rng.dirichlet(np.ones(H), size=H), columns())
        perm = reference_align(prev.emission_hat, fresh.emission_hat)
        aligned = align(prev, fresh)
        assert aligned.label_permutation == perm
        expected = relabel(fresh, perm)
        assert np.array_equal(aligned.emission_hat, expected.emission_hat)
        assert np.array_equal(aligned.transition_hat, expected.transition_hat)

    def test_planted_permutation_at_twelve_states(self):
        # 12! = 479,001,600 permutations: out of reach for enumeration
        rng = np.random.default_rng(12)
        H, X = 12, 14
        m, e = _random_stochastic(rng, H, X)
        gaps = [np.linalg.norm(e[:, g] - e[:, h]) for g in range(H) for h in range(g)]
        noise = 1e-6 * min(gaps)
        planted = rng.permutation(H)
        fresh = _estimate_from(
            m[np.ix_(planted, planted)],
            e[:, planted] + rng.uniform(-noise, noise, size=(X, H)),
        )
        aligned = align(_estimate_from(m, e), fresh)
        assert aligned.label_permutation == tuple(int(h) for h in np.argsort(planted))
        assert np.abs(aligned.emission_hat - e).max() <= noise
        assert np.array_equal(aligned.transition_hat, m)


def _random_stochastic(rng, H, X):
    m = rng.uniform(0.1, 1.0, size=(H, H))
    m /= m.sum(axis=1, keepdims=True)
    e = rng.uniform(0.1, 1.0, size=(X, H))
    e /= e.sum(axis=0, keepdims=True)
    return m, e


class TestSerialization:
    def test_round_trip(self, reference_params):
        est = one_set_estimate(population_moments(reference_params), 2, seed=0)
        text = est.to_text()
        back = estimate_from_text(text)
        assert np.array_equal(back.transition_hat, est.transition_hat)
        assert np.array_equal(back.emission_hat, est.emission_hat)
        assert back.label_permutation == est.label_permutation


def _fortran(params):
    return np.asfortranarray(params.transition), np.asfortranarray(params.emission)


LAYOUT_BUILDS = {
    "spectral_estimate": lambda p: one_set_estimate(population_moments(p), 2, seed=0),
    "align(None, .)": lambda p: align(None, one_set_estimate(population_moments(p), 2, 0)),
    "relabel": lambda p: relabel(one_set_estimate(population_moments(p), 2, 0), (1, 0)),
    "postprocess of F-ordered raw": lambda p: one_postprocess(*_fortran(p)),
    "from_text": lambda p: estimate_from_text(
        one_set_estimate(population_moments(p), 2, 0).to_text()),
    "EstimatedHmm of F-ordered": lambda p: EstimatedHmm(*_fortran(p)),
    "HmmParams of F-ordered": lambda p: HmmParams(2, 4, p.initial_dist, *_fortran(p)),
}


@pytest.mark.parametrize("build", sorted(LAYOUT_BUILDS))
def test_every_hmm_matrix_is_c_ordered_and_read_only(build, reference_params):
    # hmm.forward_pass and forward_steps stack transitions as they come:
    # their bits match forward_step only for C-ordered matrices
    model = LAYOUT_BUILDS[build](reference_params)
    if isinstance(model, HmmParams):
        transition, emission = model.transition, model.emission
    else:
        transition, emission = model.transition_hat, model.emission_hat
    for mat in (transition, emission):
        assert mat.flags.c_contiguous and not mat.flags.writeable
    with pytest.raises(ValueError):
        transition[0, 0] = 0.5
