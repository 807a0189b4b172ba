import contextlib
import json
import runpy
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmmbandits import beliefs, spectral
from hmmbandits.beliefs import (
    BeliefErrorBudget,
    belief_gaps,
    refit_schedule,
    scheduled_beliefs,
    u_belief,
)
from hmmbandits.errors import ShapeMismatch
from hmmbandits.hmm import filter_trace, forward_pass, sample_trajectory
from hmmbandits.spectral import EstimatedHmm

from conftest import (TESTS_DIR, one_postprocess, random_hmm, run_under_blas_core,
                      sparse_estimate)
from oracles import (
    forward_step,
    reference_forward_pass,
    reference_online_beliefs,
    reference_estimation_curves,
    reference_refit_reruns,
    reference_refit_schedule,
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
        _, contexts = sample_trajectory(reference_params, 300, seed=0)
        est = oracle_estimate(reference_params)
        truth = filter_trace(reference_params, contexts)[-1]
        stepped = stepwise_filter(est.transition_hat, est.emission_hat,
                                  reference_params.initial_dist, contexts)
        batched = refilter(est, reference_params.initial_dist, contexts)
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
        _, contexts = sample_trajectory(reference_params, 500, seed=1)
        est = oracle_estimate(reference_params)
        # estimated filter starts from the uniform prior; on a stationary
        # symmetric instance that equals the true initial distribution
        gaps = belief_gaps(filter_trace(reference_params, contexts), [(1, est)],
                           contexts)
        assert np.max(gaps) < 1e-12

    def test_perturbed_truth_stays_bounded(self, reference_params):
        raw_e = np.clip(reference_params.emission + 0.01, 0, None)
        perturbed = one_postprocess(reference_params.transition, raw_e)
        _, contexts = sample_trajectory(reference_params, 400, seed=2)
        gaps = belief_gaps(filter_trace(reference_params, contexts),
                           [(1, perturbed)], contexts)
        assert np.max(gaps) <= 2.0
        assert np.median(gaps) < 0.2

    def test_schedule_refilters_at_activation(self, reference_params):
        _, contexts = sample_trajectory(reference_params, 50, seed=3)
        est = oracle_estimate(reference_params)
        gaps = belief_gaps(filter_trace(reference_params, contexts),
                           [(1, est), (25, est)], contexts)
        assert np.max(gaps) < 1e-12

    def test_one_truth_pass_serves_every_prefix(self, reference_params):
        # estimation_curves filters the longest trajectory once and slices it
        raw_e = np.clip(reference_params.emission + 0.02, 0, None)
        est = one_postprocess(reference_params.transition, raw_e)
        _, contexts = sample_trajectory(reference_params, 400, seed=5)
        truth = filter_trace(reference_params, contexts)
        for t in (1, 64, 250, 400):
            prefix = contexts[:t]
            want = belief_gaps(filter_trace(reference_params, prefix), [(1, est)], prefix)
            assert np.array_equal(belief_gaps(truth[:t], [(1, est)], prefix), want)


def online_beliefs(contexts, H, X, refit_every, seed):
    """The belief subroutine over a whole stream: schedule, beliefs, failures."""
    schedule, failures, _ = refit_schedule(contexts, H, X, refit_every, seed)
    return schedule, scheduled_beliefs(schedule, contexts, H), failures


class TestOnlineBeliefEstimator:
    """``refit_schedule`` + ``scheduled_beliefs``, the belief subroutine."""

    def test_uniform_before_first_estimate(self, reference_params):
        _, contexts = sample_trajectory(reference_params, 30, seed=4)
        schedule, beliefs, _ = online_beliefs(contexts, 2, 4, 100, 0)
        assert np.array_equal(beliefs, np.full((30, 2), 0.5))
        assert schedule == []

    def test_refits_and_beliefs_become_informative(self, reference_params):
        # internal state labels are arbitrary: diagnostics against the truth
        # are taken under the identifying (best global) permutation
        _, contexts = sample_trajectory(reference_params, 30_000, seed=5)
        schedule, beliefs, _ = online_beliefs(contexts, 2, 4, 2500, 0)
        assert len({id(est) for _, est in schedule}) >= 10
        truth = filter_trace(reference_params, contexts)
        late = slice(15_000, None)
        gap = min(
            float(np.median(np.abs(beliefs[late] - truth[late]).sum(axis=1))),
            float(np.median(np.abs(beliefs[late, ::-1] - truth[late]).sum(axis=1))),
        )
        uniform_gap = float(np.median(np.abs(truth[late] - 0.5).sum(axis=1)))
        assert gap < uniform_gap

    def test_determinism(self, reference_params):
        _, contexts = sample_trajectory(reference_params, 1500, seed=6)
        runs = [online_beliefs(contexts, 2, 4, 250, 9)[1] for _ in range(2)]
        assert np.array_equal(runs[0], runs[1])

    def test_rows_match_prefix_refilter(self, reference_params):
        # every row is the belief after re-filtering its whole prefix from
        # the uniform prior under the estimate active at that round: one
        # batched pass over all 600 prefixes, each checked against the
        # straight single-prefix pass
        _, contexts = sample_trajectory(reference_params, 600, seed=7)
        schedule, beliefs, _ = online_beliefs(contexts, 2, 4, 200, 1)
        assert [t for t, _ in schedule] == [200, 400, 600]
        assert np.array_equal(beliefs[:199], np.full((199, 2), 0.5))
        rounds = range(200, 601)
        active = [[est for start, est in schedule if start <= t][-1] for t in rounds]
        models = [(est.transition_hat, est.emission_hat) for est in active]
        refilters = forward_pass(models, np.full(2, 0.5), contexts, rounds)
        for t, (M, E), want in zip(rounds, models, refilters):
            assert np.array_equal(want, reference_forward_pass(
                M, E, np.full(2, 0.5), contexts[:t]))
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
        _, stretch = sample_trajectory(params, 100, seed=6)
        contexts = np.concatenate([stretch, rng.integers(0, 3, size=300)])
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
            _, contexts = sample_trajectory(reference_params, horizon, seed=8)
            _, beliefs, _ = online_beliefs(contexts, 2, 4,
                                           max(100, horizon // 8), 2)
            truth = filter_trace(reference_params, contexts)
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
            _, stretch = sample_trajectory(params, length, seed=int(rng.integers(2**31)))
            parts.append(stretch)
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


def seeded_refits(contexts, H, X, refit_every) -> list:
    """Whether each refit of the stream passes its seed-free stage, so that
    its seeded stage runs."""
    ends = [t for t in range(refit_every, len(contexts) + 1, refit_every) if t >= 8]
    tiles = spectral.prefix_tables(contexts, X, ends) if ends else ()
    return [isinstance(stage, spectral.Subspaces) for tables in tiles
            for stage in spectral.subspaces(*tables, H)]


def assert_refits_match_loop(contexts, H, X, refit_every, seed) -> list:
    """``refit_schedule`` equals the per-refit loop of the oracle bit for
    bit (rounds, estimates, labels, failure count) and re-runs as many
    refits as :func:`oracles.reference_refit_reruns` counts; returns the
    loop's outcome per refit."""
    outcomes = []
    want, want_failures = reference_refit_schedule(contexts, H, X, refit_every, seed, outcomes)
    got, failures, reruns = refit_schedule(contexts, H, X, refit_every, seed)
    assert failures == want_failures
    assert [t for t, _ in got] == [t for t, _ in want]
    for (_, a), (_, b) in zip(got, want):
        assert np.array_equal(a.transition_hat, b.transition_hat)
        assert np.array_equal(a.emission_hat, b.emission_hat)
        assert a.label_permutation == b.label_permutation
    seeded = seeded_refits(contexts, H, X, refit_every)
    per_tile = max(1, spectral.TILE_BYTES // (8 * X**3))   # as prefix_tables tiles them
    assert reruns == reference_refit_reruns(seeded, outcomes, per_tile)
    return outcomes


def failing_streams():
    """``(contexts, H, X, refit_every, seed)`` of two streams whose short
    prefixes fail in every way: HMM contexts refit every 3 rounds (seeded
    ``DiagonalizationFailed`` and ``NearSingularPivot``), and 20 zeros then
    i.i.d. contexts refit every 4 rounds (``RankDeficient`` and
    ``NearSingularPivot``)."""
    params = random_hmm(np.random.default_rng(0), 3, 4, min_entry=0.05)
    _, contexts = sample_trajectory(params, 120, seed=0)
    yield contexts, 3, 4, 3, 0
    iid = np.random.default_rng(0).integers(0, 3, size=40)
    yield np.concatenate([np.zeros(20, dtype=np.int64), iid]), 3, 3, 4, 0


def adjacent_failures_stream():
    """HMM contexts (H = 3, X = 4) refit every 3 rounds, 48 refits: seeded
    failures at refits 16, 17 and 19 (counted from 1), so in one tile refit
    16 starts the window of 16 that it ends, and the next window starts on
    a failure."""
    params = random_hmm(np.random.default_rng(11), 3, 4, min_entry=0.05)
    _, contexts = sample_trajectory(params, 150, seed=11)
    return contexts, 3, 4, 3, 11


def all_failing_stream():
    """i.i.d. contexts on two symbols (H = X = 2) refit every 2 rounds: all
    17 refits pass the seed-free stage and fail the seeded one."""
    return np.random.default_rng(349).integers(0, 2, size=40), 2, 2, 2, 349


PER_TILE = [1, 2, 3, None]   # refits per prefix_tables tile; None: the default tile


def refits_per_tile(per_tile, X: int):
    """Patch ``spectral.TILE_BYTES`` to hold ``per_tile`` refits of ``X``
    contexts; with ``None``, keep the default."""
    if per_tile is None:
        return contextlib.nullcontext()
    return mock.patch.object(spectral, "TILE_BYTES", per_tile * 8 * X**3)


def stacked_calls(stream, per_tile=None) -> tuple[list, list]:
    """The refit pass of ``stream`` checked against the per-refit loop, with
    the stages of each tile and the sets of each seeded call it made."""
    tiles, calls = [], []

    def tile(*args):
        tiles.append(spectral.subspaces(*args))
        return tiles[-1]

    def seeded(sets, seeds):
        calls.append(sets)
        return spectral.seeded_estimates(sets, seeds)

    with refits_per_tile(per_tile, stream[2]), mock.patch.object(beliefs, "subspaces", tile), \
            mock.patch.object(beliefs, "seeded_estimates", seeded):
        assert_refits_match_loop(*stream)
    return tiles, calls


class TestRefitPass:
    """The batched refit pass against the per-refit loop it replaces, with
    tiles of 1, 2, 3 and the default number of refits, so windows are cut
    by seeded failures and by the ends of their tiles."""

    @pytest.mark.parametrize("per_tile", PER_TILE)
    def test_failing_prefixes(self, per_tile):
        outcomes = set()
        for stream in failing_streams():
            with refits_per_tile(per_tile, stream[2]):
                outcomes.update(assert_refits_match_loop(*stream))
        assert {"RankDeficient", "NearSingularPivot", "DiagonalizationFailed"} <= outcomes

    @pytest.mark.parametrize("per_tile", PER_TILE)
    def test_adjacent_seeded_failures(self, per_tile):
        stream = adjacent_failures_stream()
        with refits_per_tile(per_tile, stream[2]):
            outcomes = assert_refits_match_loop(*stream)
        failed = [k + 1 for k, outcome in enumerate(outcomes) if outcome != "ok"]
        assert failed == [16, 17, 19] and all(seeded_refits(*stream[:4]))

    @pytest.mark.parametrize("per_tile", PER_TILE)
    def test_windows_stay_in_their_tile(self, per_tile):
        # no seeded call mixes refits of two tiles, and the calls cover every tile
        tiles, calls = stacked_calls(adjacent_failures_stream(), per_tile)
        home = {id(stage): k for k, stages in enumerate(tiles) for stage in stages}
        assert all(len({home[id(stage)] for stage in sets}) == 1 for sets in calls)
        assert {home[id(sets[0])] for sets in calls} == set(range(len(tiles)))
        assert len(tiles) == (1 if per_tile is None else -(-48 // per_tile))

    def test_window_sizes(self):
        # a clean stream doubles its windows from 1, each cut at its tile's end,
        # and the size carries over to the next tile
        params = random_hmm(np.random.default_rng(1), 2, 3, min_entry=0.05)
        _, contexts = sample_trajectory(params, 400, seed=1)
        _, calls = stacked_calls((contexts, 2, 3, 20, 1), 5)
        assert [len(sets) for sets in calls] == [1, 2, 2, 5, 5, 5]
        # seeded failures at refits 16, 17 and 19 halve the next window each
        _, calls = stacked_calls(adjacent_failures_stream())
        assert [len(sets) for sets in calls] == [1, 2, 4, 8, 16, 8, 4, 2, 4, 8, 15]

    @pytest.mark.parametrize("per_tile", PER_TILE)
    def test_every_seeded_stage_fails(self, per_tile):
        stream = all_failing_stream()
        with refits_per_tile(per_tile, stream[2]):
            outcomes = assert_refits_match_loop(*stream)
            schedule, failures, reruns = refit_schedule(*stream)
        assert outcomes == ["DiagonalizationFailed"] * 17 and all(seeded_refits(*stream[:4]))
        # every window holds one refit, so none runs again
        assert (schedule, failures, reruns) == ([], 17, 0)

    @pytest.mark.parametrize("per_tile", PER_TILE)
    def test_wide_benchmark_instance(self, per_tile):
        # the wideH6-boxB benchmark cell at seed 0 (its tape and estimator
        # seed): H = 6, X = 8, T = 16384, 128 refits in two tiles, three of
        # them seeded DiagonalizationFailed failures
        config, contexts, seed = wide_benchmark_cell()
        plan = config.plan("boxB", 16384)
        with refits_per_tile(per_tile, plan.X):
            outcomes = assert_refits_match_loop(contexts, plan.H, plan.X, plan.refit_every, seed)
            reruns = refit_schedule(contexts, plan.H, plan.X, plan.refit_every, seed)[2]
        failed = [128 * (k + 1) for k, outcome in enumerate(outcomes) if outcome != "ok"]
        assert len(outcomes) == 128 and failed == [256, 640, 2432]
        assert outcomes.count("DiagonalizationFailed") == 3
        # in the default tile of 64 refits, windows 1, 2-3 (cut at 2), 3, 4-5
        # (cut at 5), 6, 7-8, 9-12 and 13-20 (cut at 19) run refits 3 and 20 again
        assert reruns == {1: 0, 2: 2, 3: 3, None: 2}[per_tile]

    def test_manifest_lists_reruns(self, tmp_path):
        # the same cell through run_experiment: the manifest lists a cell's
        # failures and re-runs, each only when nonzero
        from hmmbandits.runner import run_experiment

        name = "boxB_T16384_s0.csv"
        for per_tile, reruns in [(None, {name: 2}), (1, {})]:
            out = tmp_path / f"tile{per_tile}"
            config, _, _ = wide_benchmark_cell(str(out))
            with refits_per_tile(per_tile, config.params.num_contexts):
                assert run_experiment(config, echo=lambda _: None) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["refit_failures"] == {name: 3}
            assert manifest["refit_reruns"] == reruns

    @settings(deadline=None, max_examples=60)
    @given(context_streams(), st.data())
    @pytest.mark.parametrize("per_tile", PER_TILE)
    def test_matches_per_refit_loop(self, per_tile, stream, data):
        # with no count given, the default tile or small tiles, which split
        # the refits into many tiles, down to one per tile
        tile_bytes = (per_tile * 8 * stream[2]**3 if per_tile
                      else data.draw(st.sampled_from([2**18, 4096, 64])))
        with mock.patch.object(spectral, "TILE_BYTES", tile_bytes):
            assert_refits_match_loop(*stream)


def wide_benchmark_cell(out: str = "unused"):
    """The parsed ``wideH6-boxB`` benchmark config at seed 0 (artifacts to
    ``out``), its boxB cell's contexts and estimator seed; the inputs come
    from ``perfbench/workloads.py``, which is only read."""
    from hmmbandits.config import parse_config
    from hmmbandits.runner import draw_tape, learner_seed_sequence

    make = runpy.run_path(str(TESTS_DIR.parent / "perfbench" / "workloads.py"))["make"]
    config = parse_config(make("wideH6-boxB", str(TESTS_DIR.parent), 0, out).ini)
    contexts = draw_tape(config, 16384, 0).contexts
    estimator = learner_seed_sequence(config.run.master_seed, "boxB", 16384, 0).spawn(2)[1]
    return config, contexts, int(estimator.generate_state(1)[0])


@st.composite
def estimation_configs(draw):
    """An ``estimate`` run: H <= 4, X <= 5, checkpoints from 3 up (short
    prefixes fail to estimate), 1 to 4 seeds."""
    from hmmbandits.config import ExperimentConfig, PolicySettings, RunSettings

    H = draw(st.integers(1, 4))
    X = draw(st.integers(H, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = random_hmm(rng, H, X, min_entry=draw(st.sampled_from([0.0, 0.05])))
    horizons = draw(st.lists(st.integers(3, 300), min_size=1, max_size=6, unique=True))
    run = RunSettings(horizons=tuple(horizons), seeds=tuple(range(draw(st.integers(1, 4)))),
                      master_seed=draw(st.integers(0, 2**32 - 1)))
    return ExperimentConfig(params=params, reward=None, phi=None, policy=PolicySettings(),
                            run=run)


class TestEstimationCurves:
    """The stacked checkpoint estimates of ``estimation_curves`` against the
    per-checkpoint loop they replace."""

    @settings(deadline=None, max_examples=40)
    @given(estimation_configs(), st.sampled_from([2**18, 64]))
    def test_matches_per_checkpoint_loop(self, config, tile_bytes):
        from hmmbandits.runner import estimation_curves

        with mock.patch.object(spectral, "TILE_BYTES", tile_bytes):
            got = estimation_curves(config, echo=lambda _: None)
        want = reference_estimation_curves(config)
        # repr shows each value's type and bits (np.float64(...)), as the CSV pins them
        assert repr(got) == repr(want)


# Runs the refit pass and forward_pass on small cases and prints, as JSON,
# whether each equals its one-at-a-time reference on the same OpenBLAS kernel.
# The refit pass runs at 2 refits per tile and at the default tile, so windows
# are cut by seeded failures and by tile ends, and at H = 3, X = 5 its stacked
# operands have an odd X * H.
REFITS_AND_PASS = """
import json
import numpy as np
from conftest import sparse_estimate
from oracles import reference_forward_pass
from test_beliefs import (adjacent_failures_stream, all_failing_stream,
                          assert_refits_match_loop, failing_streams, refits_per_tile)
from hmmbandits.hmm import forward_pass

def same(stream, per_tile):
    try:
        with refits_per_tile(per_tile, stream[2]):
            assert_refits_match_loop(*stream)
    except AssertionError:
        return False
    return True

rng = np.random.default_rng(21)
streams = {f"refits {k}": stream for k, stream in enumerate(failing_streams())}
streams["refits adjacent failures"] = adjacent_failures_stream()
streams["refits all failing"] = all_failing_stream()
for H, X in [(1, 3), (2, 5), (3, 5), (1, 1)]:
    streams[f"refits H={H} X={X}"] = (rng.integers(0, X, size=300), H, X, 7, 3)
equal = {}
for per_tile in (2, None):
    equal.update({f"{name} tile {per_tile or 'default'}": same(stream, per_tile)
                  for name, stream in streams.items()})
for H in range(1, 10):
    models = [sparse_estimate(rng, H, 5, zero_row=k == 0) for k in range(6)]
    contexts = rng.integers(0, 5, size=400)
    ends = np.sort(rng.integers(1, 401, size=6))
    got = forward_pass(models, np.full(H, 1.0 / H), contexts, ends)
    equal[f"forward_pass H={H}"] = all(
        np.array_equal(row, reference_forward_pass(M, E, np.full(H, 1.0 / H), contexts[:end]))
        for (M, E), end, row in zip(models, ends, got))
print(json.dumps(equal))
"""


@pytest.mark.parametrize("core", ["Haswell", "Prescott"])
def test_refit_pass_and_forward_pass_under_blas_kernel(core):
    """On each OpenBLAS kernel the stacked estimator stages (their stacked
    products read 16-byte aligned slices) and the batched re-filter equal
    that kernel's own one-at-a-time references."""
    equal = json.loads(run_under_blas_core(REFITS_AND_PASS, core))
    assert len(equal) == 2 * (2 + 2 + 4) + 9
    assert [name for name, same in equal.items() if not same] == []


@settings(deadline=None, max_examples=100)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(1, 6),
       st.integers(2, 8), st.integers(1, 700), st.integers(0, 12), st.booleans())
def test_scheduled_beliefs_on_degenerate_paths(seed, H, X, T, draws, at_end):
    # zero emission rows make contexts impossible under every state, inside
    # stepped segments and inside the 64-step chunks of the refit pass; the
    # schedule may end with a pair at round T (an empty tail segment) and
    # always repeats a round (the last pair given for it wins).  Up to a
    # dozen refits share chunks and leave ragged segments, H may exceed X,
    # and C- and F-ordered transitions are mixed: EstimatedHmm stores both
    # C-ordered, the one layout the stacked steps and forward_step share
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
    est = one_postprocess(rng.normal(size=(H, H)), rng.normal(size=(X, H)))
    xs = rng.integers(0, X, size=12)
    uniform = np.full(H, 1.0 / H)
    for belief in (stepwise_filter(est.transition_hat, est.emission_hat, uniform, xs),
                   refilter(est, uniform, xs)):
        assert abs(belief.sum() - 1.0) < 1e-10
        assert np.all(belief >= 0)
