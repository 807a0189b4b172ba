import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmmbandits.policies as policies
from hmmbandits.beliefs import BeliefErrorBudget, u_belief
from hmmbandits.environment import TransferFunction
from hmmbandits.errors import ShapeMismatch
from hmmbandits.policies import (
    BoxAPolicy,
    BoxBPolicy,
    CellPlan,
    per_round_widths,
    staged_bonus,
    staged_width,
    u_schedule,
)

from conftest import cell_config, run_under_blas_core, simulate_cell
from oracles import (
    batch_ridge,
    box_a_bonus_reference,
    box_b_bonus_reference,
    oracle_act,
    per_round_bonus,
    reference_box_a_actions,
    reference_box_b_actions,
    u_belief_reference,
    ucb_argmax,
)
from oracles import StepwiseBoxA, StepwiseBoxB


def make_plan(**overrides) -> CellPlan:
    base = dict(policy="boxA", horizon=64, lam=2.0, ell=4, refit_every=4, delta=0.1,
                gamma=0.5, c_theta=1.2, c_eta=0.01, v_eta=0.1, H=2, X=4, d=3)
    base.update(overrides)
    return CellPlan(**base)


def random_gram(rng, dim, lam, rounds, shrink=1.0):
    """``lam I`` plus ``rounds`` random outer products of norm <= 1/shrink."""
    gram = lam * np.eye(dim)
    for _ in range(rounds):
        f = rng.normal(size=dim)
        f /= max(np.linalg.norm(f), 1.0) * shrink
        gram += np.outer(f, f)
    return gram


def rows(belief, phi_vecs):
    """The rows ``belief (x) phi_vec``, one per vector of ``phi_vecs``."""
    return np.array([np.kron(belief, p) for p in np.atleast_2d(phi_vecs)])


def box_a_bonus(plan, gram, belief, phi_vecs, t):
    """Staged kernel on the rows ``belief (x) phi_vec``, Gram frozen at the
    last stage boundary."""
    u, prefix = u_schedule(plan)
    width = None
    if t > plan.ell:
        s_t = plan.stage_of(t)
        width = staged_width(plan, s_t, prefix[(s_t - 1) * plan.ell])
    return staged_bonus(plan, t, rows(belief, phi_vecs), np.linalg.inv(gram), u[t], width)


def box_b_bonus(plan, gram, belief, phi_vecs, t):
    """Per-round kernel on the rows ``belief (x) phi_vec`` after ``t - 1``
    rounds, their squared Mahalanobis norms taken as boxB takes them."""
    u, prefix = u_schedule(plan)
    width = per_round_widths(plan, [t], prefix)[0]
    feats = rows(belief, phi_vecs)
    mahal_sq = np.einsum("ij,ij->i", feats @ np.linalg.inv(gram), feats).tolist()
    return np.array(per_round_bonus(plan, t, mahal_sq, u[t], width))


def blocks(table, contexts, beliefs):
    """The ``(T, A, H*d)`` block of every round's rows ``b_t (x) phi(a, x_t)``,
    one per action of the ``(A, X, d)`` transfer ``table``."""
    return np.stack([rows(b, table[:, int(x)]) for x, b in zip(contexts, beliefs)])


def play(policy, table, contexts, beliefs, rewards):
    """Run ``policy`` on the stream in one block; ``rewards[t-1, a]`` is
    action ``a``'s reward in round ``t``.  Returns the actions."""
    return policy.play(1, blocks(table, contexts, beliefs), np.asarray(rewards)).tolist()


def update(policy, v, reward):
    """Add the row ``v`` with ``reward`` to ``policy``'s ridge: the next
    round, offered ``v`` as its only action."""
    policy.play(policy._rounds + 1, np.reshape(v, (1, 1, -1)), np.array([[reward]]))


class TestRidge:
    """The per-round policy's ridge state: Gram, moment and estimate."""

    @staticmethod
    def policy(lam, H=2, phi=None):
        phi = TransferFunction.one_hot_action(2, 2) if phi is None else phi
        return BoxBPolicy(make_plan(H=H, X=max(H, 2), d=phi.dim, lam=lam, horizon=50))

    def test_initialization_contract(self):
        policy = self.policy(lam=2.0)
        assert np.allclose(policy._gram, 2.0 * np.eye(4))
        assert np.allclose(policy._gram_inv, 0.5 * np.eye(4))
        assert np.allclose(policy._theta, 0.5)
        assert policy._rounds == 0

    def test_zero_feature_only_counts(self):
        policy = self.policy(lam=1.0)
        update(policy, np.zeros(4), reward=5.0)
        assert np.allclose(policy._gram, np.eye(4))
        assert np.allclose(policy._moment, 0.0)
        assert policy._rounds == 1

    def test_scalar_single_update(self):
        policy = self.policy(lam=1.0, H=1, phi=TransferFunction.one_hot_action(1, 1))
        update(policy, np.array([1.0]), reward=2.0)
        assert policy._gram[0, 0] == pytest.approx(2.0)
        assert policy._theta[0] == pytest.approx(1.0)

    def test_matches_batch_closed_form(self):
        rng = np.random.default_rng(4)
        lam, A, X = 0.7, 3, 2
        phi = TransferFunction.from_table(rng.normal(size=(A, X, 3)))
        policy = self.policy(lam=lam, phi=phi)
        feats, rewards = [], []
        for _ in range(50):
            x, a, b = int(rng.integers(X)), int(rng.integers(A)), rng.dirichlet(np.ones(2))
            feats.append(np.kron(b, phi.table[a, x]))
            rewards.append(rng.normal())
        # one block of 50 one-action rounds
        policy.play(1, np.asarray(feats)[:, None, :], np.asarray(rewards)[:, None])
        want = batch_ridge(np.asarray(feats), np.asarray(rewards), lam)
        assert np.max(np.abs(policy._theta - want)) < 1e-8

    def test_gram_dominates_lambda(self):
        rng = np.random.default_rng(5)
        policy = self.policy(lam=1.5)
        phi = TransferFunction.one_hot_action(2, 2)
        for _ in range(30):
            x, b, a = int(rng.integers(2)), rng.dirichlet(np.ones(2)), int(rng.integers(2))
            update(policy, np.kron(b, phi.table[a, x]), rng.normal())
        assert np.linalg.eigvalsh(policy._gram).min() >= 1.5 - 1e-9


class TestUSchedule:
    def test_values_and_left_to_right_prefix(self):
        u, prefix = u_schedule(make_plan(horizon=59))
        assert len(u) == len(prefix) == 60
        budget = BeliefErrorBudget(H=2, X=4, delta=0.05)
        running = 0.0
        for t in range(1, 60):
            assert u[t] == u_belief(budget, t)
            assert u[t] == pytest.approx(u_belief_reference(2, 4, 0.05, t), rel=1e-12)
            assert prefix[t - 1] == running
            running += u_belief(budget, t)
        assert prefix[59] == running
        assert u[0] == prefix[0] == 0.0

    def test_shared_between_learners_and_read_only(self):
        # boxA and boxB of one group differ in policy, stage length and ridge,
        # not in the values the schedule reads
        u, prefix = u_schedule(make_plan(policy="boxA", ell=4, lam=2.0, horizon=40))
        got = u_schedule(make_plan(policy="boxB", ell=9, lam=0.5, horizon=40))
        assert got[0] is u and got[1] is prefix
        with pytest.raises(TypeError):
            u[1] = 0.0
        assert not np.frombuffer(prefix).flags.writeable

    def test_known_beliefs_zero(self):
        u, prefix = u_schedule(make_plan(known_beliefs=True, horizon=500))
        assert len(u) == 501 and not any(u) and not any(prefix)

    def test_invalid_round(self):
        # a schedule lookup would return slot 0 at t = 0 and wrap for t < 0
        plan = make_plan(H=2, X=2, d=2, horizon=10)
        feats = rows(np.array([0.5, 0.5]), build_phi().table[:, 0])[None]
        for policy in (BoxAPolicy(plan), BoxBPolicy(plan)):
            for t in (0, -1, 11):
                with pytest.raises(ShapeMismatch):
                    policy.play(t, feats, np.zeros((1, 2)))
            # nor may a block run past the horizon
            with pytest.raises(ShapeMismatch):
                policy.play(1, np.repeat(feats, 11, axis=0), np.zeros((11, 2)))

    @pytest.mark.parametrize("name", ["boxA", "boxB"])
    def test_one_budget_evaluation_per_round(self, name, monkeypatch):
        calls = []
        real = policies.u_belief
        monkeypatch.setattr(policies, "u_belief",
                            lambda budget, t: calls.append(t) or real(budget, t))
        rng = np.random.default_rng(11)
        T = 60
        contexts, beliefs, rewards = synthetic_stream(rng, T)
        plan = make_plan(H=2, X=2, d=2, ell=7, horizon=T)
        policies._u_schedule.cache_clear()
        policy = BoxAPolicy(plan) if name == "boxA" else BoxBPolicy(plan)
        play(policy, build_phi().table, contexts, beliefs, rewards)
        assert sorted(calls) == list(range(1, T + 1))
        # the other learner of the same group reuses the schedule
        other = BoxBPolicy(plan) if name == "boxA" else BoxAPolicy(plan)
        play(other, build_phi().table, contexts, beliefs, rewards)
        assert sorted(calls) == list(range(1, T + 1))


class TestTensorFeature:
    def test_one_hot_belief_selects_block(self):
        out = np.kron(np.array([0.0, 1.0]), np.array([0.3, 0.4]))
        assert np.allclose(out, [0.0, 0.0, 0.3, 0.4])

    def test_uniform_belief_worked_example(self):
        out = np.kron(np.array([0.5, 0.5]), np.array([1.0, 0.0]))
        assert np.allclose(out, [0.5, 0.0, 0.5, 0.0])
        assert np.linalg.norm(out) == pytest.approx(1.0 / math.sqrt(2.0))

    @settings(deadline=None, max_examples=200)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_norm_inequality(self, seed):
        rng = np.random.default_rng(seed)
        H, d = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        belief = rng.dirichlet(np.ones(H))
        phi_vec = rng.normal(size=d)
        out = np.kron(belief, phi_vec)
        assert np.linalg.norm(out) <= np.linalg.norm(phi_vec) + 1e-12


class TestCellPlan:
    def test_stage_indexing(self):
        plan = make_plan(ell=4, horizon=10)
        assert plan.num_stages == 3
        assert [plan.stage_of(t) for t in (1, 4, 5, 8, 9, 10)] == [1, 1, 2, 2, 3, 3]

    def test_bounds(self):
        plan = make_plan(ell=4, horizon=10)
        with pytest.raises(ShapeMismatch):
            plan.stage_of(0)
        with pytest.raises(ShapeMismatch):
            plan.stage_of(11)


class TestBonusBoxA:
    def test_first_stage_constant(self):
        plan = make_plan(d=4, ell=8, horizon=64)
        got = box_a_bonus(plan, 2.0 * np.eye(8), np.array([0.5, 0.5]),
                          [np.ones(4) / 2, np.zeros(4)], t=3)
        assert got == pytest.approx([2.0, 2.0])  # 1 + sqrt(4)/2

    def test_matches_reference_recomputation(self):
        rng = np.random.default_rng(6)
        gram = random_gram(rng, 6, lam=3.0, rounds=10, shrink=1.5)  # two stages
        belief = rng.dirichlet(np.ones(2))
        phi_vecs = rng.normal(size=(3, 3)) / 3.0
        for scope in ("full", "partial"):
            plan = make_plan(bonus_scope=scope, lam=3.0, ell=5, horizon=40)
            for t in (11, 13, 15):
                got = box_a_bonus(plan, gram, belief, phi_vecs, t)
                want = [box_a_bonus_reference(
                    d=3, H=2, X=4, lam=3.0, ell=5, horizon=40, delta=0.1, gamma=0.5,
                    c_theta=1.2, c_eta=0.01, gram=gram, belief=belief,
                    phi_vec=phi_vec, t=t, scope=scope,
                ) for phi_vec in phi_vecs]
                assert got == pytest.approx(want, rel=1e-12)

    def test_gamma_zero_drops_drift_terms(self):
        rng = np.random.default_rng(7)
        plan = make_plan(gamma=0.0, known_beliefs=True, ell=5, horizon=20)
        gram = random_gram(rng, 6, lam=2.0, rounds=5, shrink=2.0)
        belief = np.array([0.3, 0.7])
        phi_vec = np.array([0.2, 0.1, 0.0])
        got = box_a_bonus(plan, gram, belief, phi_vec, t=7)[0]
        v = np.kron(belief, phi_vec)
        norm = np.linalg.norm(np.linalg.solve(gram, v))
        s_t, s_T, ell, lam, delta = 2, 4, 5, 2.0, 0.1
        want = norm * (
            lam * math.sqrt(2) * plan.c_theta
            + 4.0 * math.sqrt(s_T * 1 * 1.0 * ell / (delta * 1.0))
            + math.sqrt(4.0 * s_T / delta * plan.c_eta * 1 * ell)
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_affine_in_gram_norm(self):
        # epsilon - u(t) is linear in ||G^{-1} v|| with a positive slope
        rng = np.random.default_rng(8)
        plan = make_plan(ell=5, horizon=25)
        gram = random_gram(rng, 6, lam=2.0, rounds=5, shrink=2.0)
        u, _ = u_schedule(plan)
        slopes = []
        for _ in range(6):
            belief = rng.dirichlet(np.ones(2))
            phi_vec = rng.normal(size=3) / 2.0
            v = np.kron(belief, phi_vec)
            norm = float(np.linalg.norm(np.linalg.solve(gram, v)))
            eps = box_a_bonus(plan, gram, belief, phi_vec, t=8)[0]
            slopes.append((eps - u[8]) / norm)
        assert np.ptp(slopes) < 1e-8
        assert slopes[0] > 0

    def test_partial_scope_moves_tail_outside(self):
        plan_full = make_plan(ell=4, horizon=16)
        plan_partial = make_plan(ell=4, horizon=16, bonus_scope="partial")
        rng = np.random.default_rng(9)
        gram = 2.0 * np.eye(6)
        for _ in range(4):
            f = rng.normal(size=6) / 4.0
            gram += np.outer(f, f)
        belief, phi_vec = np.array([0.6, 0.4]), np.array([0.3, 0.0, 0.1])
        v = np.kron(belief, phi_vec)
        norm = float(np.linalg.norm(np.linalg.solve(gram, v)))
        got_full = box_a_bonus(plan_full, gram, belief, phi_vec, t=6)[0]
        got_partial = box_a_bonus(plan_partial, gram, belief, phi_vec, t=6)[0]
        u, _ = u_schedule(plan_full)
        tail = 2 * 1 * 0.5 / 0.5 + sum(u[tau] for tau in range(1, 5))
        assert got_full - got_partial == pytest.approx((norm - 1.0) * tail, rel=1e-9)



@pytest.mark.parametrize("name", ["boxA", "boxB"])
def test_stage_not_frozen_guard(name):
    """A block must start at the round after the last one played: skipping
    ahead would score it with a ridge (and, for boxA, a frozen stage) that
    is out of step with its rounds."""
    plan = make_plan(H=2, X=2, d=2, horizon=16)
    policy = BoxAPolicy(plan) if name == "boxA" else BoxBPolicy(plan)
    feats = rows(np.array([0.5, 0.5]), build_phi().table[:, 0])
    update(policy, feats[0], 0.0)  # one round into stage 1
    for first_round in (1, 3, 6):
        with pytest.raises(ShapeMismatch, match="does not follow round 1"):
            policy.play(first_round, feats[None], np.zeros((1, 2)))


class TestBonusBoxB:
    def test_round_one_constant(self):
        plan = make_plan(lam=4.0)
        got = box_b_bonus(plan, 4.0 * np.eye(6), np.array([0.5, 0.5]),
                          [np.zeros(3), np.ones(3) / 2], t=1)
        assert got == pytest.approx([1.0 + math.sqrt(3) / 4.0] * 2)

    def test_large_lambda_limit(self):
        # the Mahalanobis factor vanishes like 1/sqrt(lam), so the only
        # surviving width term is the regularization bias sqrt(lam H) C_theta,
        # whose product converges to sqrt(H) C_theta ||v||_2; with a zero
        # feature the bonus reduces exactly to the belief budget
        lam = 1e14
        plan = make_plan(lam=lam)
        gram = lam * np.eye(6)
        belief, phi_vec = np.array([0.5, 0.5]), np.array([0.5, 0.1, 0.0])
        v = np.kron(belief, phi_vec)
        assert float(v @ np.linalg.solve(gram, v)) ** 0.5 < 1e-7
        got, zero = box_b_bonus(plan, gram, belief, [phi_vec, np.zeros(3)], t=50)
        u50 = u_schedule(plan)[0][50]
        limit = u50 + math.sqrt(2) * plan.c_theta * np.linalg.norm(v)
        assert got == pytest.approx(limit, rel=1e-4)
        assert zero == pytest.approx(u50, rel=1e-12)

    def test_isotropic_gram_closed_form(self):
        lam = 9.0
        plan = make_plan(known_beliefs=True, lam=lam)
        belief, phi_vec = np.array([0.4, 0.6]), np.array([0.3, 0.2, 0.1])
        v = np.kron(belief, phi_vec)
        got = box_b_bonus(plan, lam * np.eye(6), belief, phi_vec, t=10)[0]
        width = math.sqrt(lam * 2) * plan.c_theta + plan.v_eta * math.sqrt(
            2 * math.log(20.0) + 6 * math.log(1.0 + 10 / (lam * 6))
        )
        assert got == pytest.approx(np.linalg.norm(v) / math.sqrt(lam) * width, rel=1e-12)

    def test_matches_reference_recomputation(self):
        rng = np.random.default_rng(10)
        lam = 10.0  # sqrt(T) with T=100
        gram = lam * np.eye(4)
        for _ in range(9):
            f = rng.normal(size=4) / 4.0
            gram += np.outer(f, f)
        belief = rng.dirichlet(np.ones(2))
        phi_vecs = rng.normal(size=(3, 2)) / 2.0
        for known in (False, True):
            plan = make_plan(d=2, H=2, known_beliefs=known, lam=lam)
            got = box_b_bonus(plan, gram, belief, phi_vecs, t=10)
            want = [box_b_bonus_reference(
                d=2, H=2, X=4, lam=lam, delta=0.1, c_theta=1.2, v_eta=0.1,
                gram=gram, belief=belief, phi_vec=phi_vec, t=10, known_beliefs=known,
            ) for phi_vec in phi_vecs]
            assert got == pytest.approx(want, rel=1e-12)

    def test_choice_kernel_matches_numpy_argmax(self):
        """boxB's choice kernel and the Python-float bonus reference equal
        the numpy forms for squares below zero, of either zero sign, NaN and
        infinite, on exact ties and NaN scores: a NaN UCB wins at its first
        position, as under ``np.argmax``, also after a finite maximum."""
        plan = make_plan(d=2, H=2, lam=3.0)
        choose, first = policies._chooser(3), 1.0 + math.sqrt(2) / 3.0
        rng = np.random.default_rng(21)
        theta, row = rng.normal(size=4), rng.normal(size=4)
        other, nan_row = rng.normal(size=4), np.array([0.5, math.nan, 0.0, 1.0])
        specials = [-1e-300, -0.0, 0.0, math.nan, math.inf, 1.0, 4.0]
        for q in itertools.product(specials, repeat=3):
            for middle in (row, other, nan_row):  # rows 0 and 2 tie in score
                f = np.array([row, middle, row])
                for u_t, width in ((0.0, 1.0), (0.5, 3.0)):
                    bonus = per_round_bonus(plan, 5, list(q), u_t, width)
                    want = u_t + np.sqrt(np.maximum(np.array(q), 0.0)) * width
                    assert np.array_equal(bonus, want, equal_nan=True)
                    scores = np.dot(f, theta).tolist()
                    assert ucb_argmax(scores, bonus) == np.argmax(f @ theta + want)
                    got = choose(5, scores, list(q), u_t, width, first)
                    assert got == np.argmax(f @ theta + want)
                    assert choose(1, scores, list(q), u_t, width, first) == np.argmax(
                        f @ theta + first)
        scores = [0.25, 0.25, 0.25]
        for q, want in [([4.0, 0.0, math.nan], 2), ([math.nan, 4.0, math.nan], 0),
                        ([1.0, 4.0, 4.0], 1), ([-1e-300, -0.0, 0.0], 0)]:
            assert ucb_argmax(scores, per_round_bonus(plan, 5, q, 0.5, 3.0)) == want
            assert choose(5, scores, q, 0.5, 3.0, first) == want
        # the score is added to the whole bonus: (0.1 + 0.1) + 0.6 would tie
        # 0.2 + (0.1 + 0.5) and pick action 0
        assert policies._chooser(2)(5, [0.1, 0.2], [0.36, 0.25], 0.1, 1.0, first) == 1

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), A=st.integers(1, 8), t=st.sampled_from([1, 2, 5]))
    def test_choice_kernel_at_every_action_count(self, data, A, t):
        """At ``A = 1..8`` actions the kernel is ``np.argmax`` of the score
        plus the bonus, ``u_t + sqrt(max(q, 0)) * width``: the same IEEE
        operations element by element, so the same first NaN or first
        maximum.  Scores draw from a few values (exact ties) and NaN;
        squares from the values that round below zero, signed zeros, NaN
        and infinities."""
        special = st.sampled_from([-1e-300, -0.0, 0.0, math.nan, math.inf, -math.inf])
        squares = data.draw(st.lists(special | st.floats(), min_size=A, max_size=A))
        tied = st.sampled_from([0.25, -1.5, 0.0, math.nan])
        scores = data.draw(st.lists(tied | st.floats(), min_size=A, max_size=A))
        u_t, width, first = (data.draw(st.floats(allow_nan=False)) for _ in range(3))
        got = policies._chooser(A)(t, scores, squares, u_t, width, first)
        with np.errstate(all="ignore"):
            if t == 1:
                want = np.argmax(np.array(scores) + first)
            else:
                q = np.maximum(np.array(squares), 0.0)
                want = np.argmax(np.array(scores) + (u_t + np.sqrt(q) * width))
        assert got == want


CHOOSER_CHILD = """\
import numpy as np
import hmmbandits.policies as policies
from hmmbandits.policies import BoxBPolicy, CellPlan
print(sorted(policies._CHOOSERS))
rng = np.random.default_rng(3)
for A in (3, 2, 3):
    plan = CellPlan(policy="boxB", horizon=8, lam=2.0, ell=8, refit_every=8, delta=0.1,
                    gamma=0.5, c_theta=1.2, c_eta=0.01, v_eta=0.1, H=2, X=2, d=A)
    policy = BoxBPolicy(plan)
    kernels = [policies._chooser(A)]
    for lo in (0, 4):
        policy.play(lo + 1, rng.random((4, A, 2 * A)), rng.random((4, A)))
        kernels.append(policies._chooser(A))
    print(sorted(policies._CHOOSERS), all(k is kernels[0] for k in kernels))
"""


def test_choice_kernel_built_on_first_use_once_per_action_count():
    """A fresh ``import hmmbandits.policies`` compiles no choice kernel; the
    first block at ``A`` actions compiles one, and every later block at ``A``
    reuses it."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", CHOOSER_CHILD], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=path))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "[3] True", "[2, 3] True", "[2, 3] True"]


def build_phi(A=2, X=2):
    return TransferFunction.one_hot_action(A, X)


def synthetic_stream(rng, T, A=2, X=2, H=2):
    contexts = rng.integers(0, X, size=T)
    beliefs = rng.dirichlet(np.ones(H), size=T)
    rewards = rng.uniform(-0.5, 0.5, size=(T, A))
    return contexts, beliefs, rewards


class TestBoxAPolicy:
    def test_trace_matches_straight_line_reference(self):
        rng = np.random.default_rng(42)
        T, ell, lam = 50, 10, 5.0
        phi = build_phi()
        contexts, beliefs, rewards = synthetic_stream(rng, T)
        plan = make_plan(H=2, X=2, d=2, lam=lam, ell=ell, horizon=T)
        actions = play(BoxAPolicy(plan), phi.table, contexts, beliefs, rewards)
        want = reference_box_a_actions(
            phi.table, contexts, beliefs, rewards,
            lam=lam, ell=ell, horizon=T, delta=0.1, gamma=0.5,
            c_theta=1.2, c_eta=0.01, H=2, X=2,
        )
        assert actions == want

    def test_stage_freezing_version_stamps(self):
        rng = np.random.default_rng(1)
        T, ell = 12, 4
        phi = build_phi()
        contexts, beliefs, rewards = synthetic_stream(rng, T)
        policy = BoxAPolicy(make_plan(H=2, X=2, d=2, ell=ell, horizon=T))
        frozen = []
        for t, feats in enumerate(blocks(phi.table, contexts, beliefs), start=1):
            frozen.append(policy._frozen_rounds)
            policy.play(t, feats[None], rewards[t - 1:t])
        # theta used in round t was computed at the last stage boundary
        assert frozen == [0, 0, 0, 0, 4, 4, 4, 4, 8, 8, 8, 8]
        assert policy._frozen_rounds == 12

    def test_frozen_ridge_solves_boundary_system(self):
        rng = np.random.default_rng(2)
        T, ell = 8, 4
        phi = build_phi()
        contexts, beliefs, rewards = synthetic_stream(rng, T)
        policy = BoxAPolicy(make_plan(H=2, X=2, d=2, lam=1.0, ell=ell, horizon=T))
        play(policy, phi.table, contexts, beliefs, rewards)
        # T is a stage boundary: the frozen snapshot is the current ridge
        assert np.allclose(policy._gram @ policy._theta_frozen, policy._moment, atol=1e-10)
        assert np.allclose(policy._gram_frozen_inv @ policy._gram, np.eye(4), atol=1e-10)


class TestBoxBPolicy:
    @pytest.mark.parametrize("A,seed", [(2, 0), (2, 1), (3, 2), (3, 3)])
    def test_trace_matches_straight_line_reference(self, A, seed):
        rng = np.random.default_rng(seed)
        T, lam = 200, 5.0
        phi = build_phi(A=A)
        contexts, beliefs, rewards = synthetic_stream(rng, T, A=A)
        plan = make_plan(H=2, X=2, d=A, lam=lam, horizon=T)
        actions = play(BoxBPolicy(plan), phi.table, contexts, beliefs, rewards)
        want = reference_box_b_actions(
            phi.table, contexts, beliefs, rewards,
            lam=lam, horizon=T, delta=0.1, c_theta=1.2, v_eta=0.1, H=2, X=2,
        )
        assert actions == want

    def test_inverse_drift_capped(self):
        rng = np.random.default_rng(3)
        T = 2500
        phi = build_phi()
        contexts, beliefs, rewards = synthetic_stream(rng, T)
        policy = BoxBPolicy(make_plan(H=2, X=2, d=2, lam=math.sqrt(T), horizon=T))
        feats = blocks(phi.table, contexts, beliefs)
        for lo, t in ((0, 999), (999, 1999), (1999, T)):
            policy.play(lo + 1, feats[lo:t], rewards[lo:t])
            # the rank-one updates drift most right before a re-solve
            direct = np.linalg.inv(policy._gram)
            assert np.max(np.abs(policy._gram_inv - direct)) <= 1e-8

    def test_theta_tracks_batch_solution(self):
        rng = np.random.default_rng(4)
        T = 300
        phi = build_phi()
        contexts, beliefs, rewards = synthetic_stream(rng, T)
        policy = BoxBPolicy(make_plan(H=2, X=2, d=2, lam=3.0, horizon=T))
        feats = blocks(phi.table, contexts, beliefs)
        actions = policy.play(1, feats, rewards)
        picked = np.arange(T), actions
        want = batch_ridge(feats[picked], rewards[picked], 3.0)
        assert np.max(np.abs(policy._theta - want)) < 1e-8


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=120),
    st.sampled_from(["full", "partial"]),
    st.booleans(),
)
def test_row_policies_match_straight_line_references(seed, H, d, A, T, scope, known):
    """Both learners, driven by rows alone, pick the actions of the
    straight-line loops on continuous beliefs, transfers and rewards."""
    rng = np.random.default_rng(seed)
    X = int(rng.integers(H, 4))  # the belief budget needs X >= H
    table = rng.normal(size=(A, X, d))
    contexts = rng.integers(0, X, size=T)
    beliefs = rng.dirichlet(np.ones(H), size=T)
    rewards = rng.normal(scale=10.0 ** rng.uniform(0, 4), size=(T, A))  # vs. bonus widths
    ell, lam = int(rng.integers(1, T + 1)), float(rng.uniform(0.5, 10.0))
    plan = make_plan(H=H, X=X, d=d, bonus_scope=scope, known_beliefs=known, lam=lam,
                     ell=ell, horizon=T)
    common = dict(lam=lam, horizon=T, delta=0.1, c_theta=1.2, H=H, X=X,
                  known_beliefs=known)
    got = play(BoxAPolicy(plan), table, contexts, beliefs, rewards)
    assert got == reference_box_a_actions(table, contexts, beliefs, rewards, ell=ell,
                                          gamma=0.5, c_eta=0.01, scope=scope, **common)
    got = play(BoxBPolicy(plan), table, contexts, beliefs, rewards)
    assert got == reference_box_b_actions(table, contexts, beliefs, rewards,
                                          v_eta=0.1, **common)


def forced_bonuses(monkeypatch, bonus, A=2):
    """Replace both bonus kernels by ``bonus(t, a)`` for every action ``a``:
    boxA's ``staged_bonus``, whose third argument holds one row per action
    of the stage's rounds ``t, t + 1, ...`` in round order, and the builder
    of boxB's choice kernel, whose choice becomes the argmax of the scores
    plus these bonuses."""
    def rows_bonus(t, per_row):
        return np.array([bonus(t + i // A, i % A) for i in range(len(per_row))])

    def choose(t, scores, *rest):
        return ucb_argmax(scores, rows_bonus(t, scores).tolist())

    monkeypatch.setattr(policies, "staged_bonus",
                        lambda plan, t, feats, *rest: rows_bonus(t, feats))
    monkeypatch.setattr(policies, "_chooser", lambda actions: choose)


class TestEquivalenceAndConsistency:
    def test_box_a_ell_one_equals_box_b_with_forced_bonuses(self, monkeypatch):
        rng = np.random.default_rng(5)
        T = 40
        phi = build_phi()
        contexts, beliefs, rewards = synthetic_stream(rng, T)
        forced_bonuses(monkeypatch, lambda t, a: 0.25 / (t + a + 1))
        plan = make_plan(H=2, X=2, d=2, ell=1, horizon=T)
        act_a = play(BoxAPolicy(plan), phi.table, contexts, beliefs, rewards)
        act_b = play(BoxBPolicy(plan), phi.table, contexts, beliefs, rewards)
        assert act_a == act_b

    def test_ridge_consistency_noiseless(self):
        # persistently exciting features, noiseless rewards: theta converges
        rng = np.random.default_rng(6)
        H, d, lam = 2, 2, 1.0
        theta_star = rng.normal(size=H * d)
        theta_star /= np.linalg.norm(theta_star) * 1.2
        phi = build_phi(A=d)
        policy = BoxBPolicy(make_plan(H=H, X=2, d=d, lam=lam, horizon=5000))
        feats = []
        for _ in range(5000):
            b = rng.dirichlet(np.ones(H))
            a = int(rng.integers(d))
            feats.append(np.kron(b, phi.table[a, 0]))
        feats = np.asarray(feats)
        # one-action rounds: the policy's ridge sees exactly these rows
        policy.play(1, feats[:, None, :], (feats @ theta_star)[:, None])
        gram = feats.T @ feats
        assert np.linalg.eigvalsh(gram).min() > 100.0  # grows linearly
        assert np.linalg.norm(policy._theta - theta_star) < 0.05


class TestActSelection:
    def test_tie_breaks_to_smallest_index(self):
        table = np.full((2, 2, 2), 0.5)
        policy = BoxAPolicy(make_plan(H=2, X=2, d=2, lam=1.0, horizon=8))
        feats = rows(np.array([0.5, 0.5]), table[:, 0])[None]
        assert policy.play(1, feats, np.zeros((1, 2))).tolist() == [0]

    def test_dominant_bonus_wins(self, monkeypatch):
        forced_bonuses(monkeypatch, lambda t, a: 100.0 if a == 1 else 0.0)
        policy = BoxAPolicy(make_plan(H=2, X=2, d=2, lam=1.0, horizon=8))
        feats = rows(np.array([0.5, 0.5]), build_phi().table[:, 0])[None]
        assert policy.play(1, feats, np.zeros((1, 2))).tolist() == [1]

    def test_argmax_invariant_to_constant_shift(self, monkeypatch):
        rng = np.random.default_rng(7)
        table = build_phi().table

        def first_action(feats):  # on a fresh policy: the same ridge every time
            policy = BoxBPolicy(make_plan(H=2, X=2, d=2, horizon=5))
            return policy.play(1, feats[None], np.zeros((1, 2))).tolist()

        for _ in range(20):
            feats = rows(rng.dirichlet(np.ones(2)), table[:, int(rng.integers(2))])
            forced_bonuses(monkeypatch, lambda t, a: 7.0)
            shifted = first_action(feats)
            forced_bonuses(monkeypatch, lambda t, a: 0.0)
            assert shifted == first_action(feats)

    def test_oracle_examples(self):
        phi = build_phi(A=3, X=2)
        theta_star = np.array([[0.5, -0.2, 0.1], [0.1, 0.4, -0.3]])
        # one-hot beliefs: oracle picks the per-state best action
        assert oracle_act(phi, theta_star, 0, np.array([1.0, 0.0])) == 0
        assert oracle_act(phi, theta_star, 0, np.array([0.0, 1.0])) == 1
        # state-independent parameters: choice depends only on the context
        flat = np.tile(np.array([[0.2, 0.6, -0.1]]), (2, 1))
        for x in range(2):
            picks = {
                oracle_act(phi, flat, x, np.array([p, 1 - p]))
                for p in (0.1, 0.5, 0.9)
            }
            assert picks == {1}

    def test_random_policy_uses_own_stream(self, reference_params):
        # the random arm draws one integers(A) per round from the first child
        # of its learner-side seed sequence, not from an environment stream
        from hmmbandits.environment import NoiseModel, RewardSpec, sample_theta
        from hmmbandits.runner import learner_seed_sequence

        phi = build_phi(A=3, X=4)
        theta, c_theta = sample_theta(phi, 2, np.random.default_rng(8))
        spec = RewardSpec(theta_star=theta, c_theta=c_theta, noise=NoiseModel.gaussian(0.1))
        config = cell_config(reference_params, spec, phi, 50, master_seed=8)
        result = simulate_cell(config, "random", 50, 0)
        policy_ss, _ = learner_seed_sequence(8, "random", 50, 0).spawn(2)
        rng = np.random.default_rng(policy_ss)
        assert result.actions.tolist() == [int(rng.integers(3)) for _ in range(50)]
        assert set(result.actions.tolist()) == {0, 1, 2}


# (H, d) with H * d from 1 to 24, including 9, 12, 18 and 24
ROW_SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (1, 6), (2, 4),
              (3, 3), (4, 3), (2, 6), (3, 6), (2, 9), (4, 6), (3, 8)]


@settings(deadline=None, max_examples=100)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from(ROW_SHAPES),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=150),
    st.sampled_from(["full", "partial"]),
    st.booleans(),
    st.sampled_from(["normal", "one_hot", "repeated", "reversed"]),
)
def test_play_matches_stepwise_loop(seed, shape, A, T, scope, known, transfer):
    """``play`` over random splits of the rounds gives the actions and the
    final ridge of the round-by-round act/update loop bit for bit, with a
    plug-in gamma swapped in at a random round.  ``one_hot`` rows tie exactly
    while theta is constant (stage 1); ``repeated`` offers action 0's row
    again as action 1 in every round; ``reversed`` offers action 0's
    transfer, its entries scaled by 10^k for k in [-8, 8], reversed as
    action 1's, so under a constant theta the two UCBs add the same products
    and differ only by the order of their sums."""
    rng = np.random.default_rng(seed)
    H, d = shape
    X = int(rng.integers(H, H + 3))  # the belief budget needs X >= H
    if transfer == "one_hot":
        table = np.zeros((A, X, d))
        table[np.arange(A), :, np.arange(A) % d] = 1.0
    else:
        table = rng.normal(size=(A, X, d))
        if transfer == "reversed":
            table[0] *= 10.0 ** rng.integers(-8, 9, size=(X, d))
        if transfer in ("repeated", "reversed") and A > 1:
            table[1] = table[0] if transfer == "repeated" else table[0, :, ::-1]
    contexts = rng.integers(0, X, size=T)
    beliefs = rng.dirichlet(np.ones(H), size=T)
    feats = blocks(table, contexts, beliefs)
    rewards = rng.normal(scale=10.0 ** rng.uniform(0, 4), size=(T, A))
    ell, lam = int(rng.integers(1, T + 1)), float(rng.uniform(0.5, 10.0))
    swap, gamma = int(rng.integers(1, T + 1)), float(rng.uniform(0.0, 0.9))
    cuts = sorted({0, swap - 1, *rng.integers(0, T, size=int(rng.integers(0, 6))).tolist()})
    plan = make_plan(H=H, X=X, d=d, bonus_scope=scope, known_beliefs=known, lam=lam,
                     ell=ell, horizon=T)
    pairs = [(BoxAPolicy(plan), StepwiseBoxA(plan)), (BoxBPolicy(plan), StepwiseBoxB(plan))]
    for policy, stepwise in pairs:
        for lo, hi in zip(cuts, cuts[1:] + [T]):
            if lo + 1 == swap and isinstance(policy, BoxAPolicy):
                policy.set_gamma(gamma)
                stepwise.set_gamma(gamma)
            got = policy.play(lo + 1, feats[lo:hi], rewards[lo:hi])
            want = stepwise.play(lo + 1, feats[lo:hi], rewards[lo:hi])
            assert np.array_equal(got, want)
        names = (["_theta_frozen", "_gram_frozen_inv"] if isinstance(policy, BoxAPolicy)
                 else ["_gram_inv", "_theta"])
        for name in ["_gram", "_moment", *names]:
            assert np.array_equal(getattr(policy, name), getattr(stepwise, name)), name


def box_b_matches_stepwise(plan, feats, rewards, cuts):
    """Plays ``BoxBPolicy`` in the blocks that start after each of ``cuts``
    and ``StepwiseBoxB`` round by round; asserts equal actions and the same
    bytes of the ridge, where any NaN matches any NaN.  Returns the final
    moment."""
    policy, stepwise = BoxBPolicy(plan), StepwiseBoxB(plan)
    for lo, hi in zip(cuts, cuts[1:] + [len(feats)]):
        got = policy.play(lo + 1, feats[lo:hi], rewards[lo:hi])
        assert np.array_equal(got, stepwise.play(lo + 1, feats[lo:hi], rewards[lo:hi]))
    for name in ["_gram", "_moment", "_gram_inv", "_theta"]:
        got, want = getattr(policy, name), getattr(stepwise, name)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan), name
        assert got[~nan].tobytes() == want[~nan].tobytes(), name
    return stepwise._moment


@pytest.mark.parametrize("H, d, A", [(2, 3, 3), (3, 2, 4), (1, 1, 2)])
def test_box_b_blocks_across_direct_resolves(H, d, A):
    """Blocks that end just before, at and just after a direct re-solve,
    three of them one round long, and a block with a re-solve inside it take
    the actions and the ridge bytes of the round-by-round loop."""
    R = policies.RESOLVE_EVERY
    T = 2 * R + 3
    rng = np.random.default_rng(H * 100 + d * 10 + A)
    table = rng.normal(size=(A, H + 1, d)) * 10.0 ** rng.integers(-4, 5, size=(A, H + 1, d))
    feats = blocks(table, rng.integers(0, H + 1, size=T), rng.dirichlet(np.ones(H), size=T))
    rewards = rng.normal(scale=100.0, size=(T, A))
    plan = make_plan(policy="boxB", H=H, X=H + 1, d=d, lam=float(np.sqrt(T)), ell=T,
                     horizon=T)
    box_b_matches_stepwise(plan, feats, rewards, [0, R - 2, R - 1, R, R + 1])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_box_b_non_finite_reward(bad):
    """A NaN or infinite reward enters boxB's moment as the round-by-round
    ``v * r`` does, ``0 * inf = NaN`` at the zero entries of a one-hot row
    included, and the NaN estimate after it picks the same actions."""
    H, A, T = 2, 3, 40
    table = TransferFunction.one_hot_action(A, H).table  # rows with zero entries
    rng = np.random.default_rng(23)
    feats = blocks(table, rng.integers(0, H, size=T), rng.dirichlet(np.ones(H), size=T))
    feats[5:, 1, 1] = 0.0  # a zero entry inside a row's nonzero block as well
    rewards = rng.normal(size=(T, A))
    rewards[17] = bad
    plan = make_plan(policy="boxB", H=H, X=H, d=A, lam=3.0, ell=T, horizon=T)
    with np.errstate(invalid="ignore"):
        moment = box_b_matches_stepwise(plan, feats, rewards, [0, 9, 17, 18])
    assert np.isnan(moment).any()


@pytest.mark.parametrize("tile_rounds", [1, 7, 64, 2000])
def test_cells_match_stepwise_learners(reference_params, monkeypatch, tile_rounds):
    """Learner cells, played in tiles of ``tile_rounds`` rounds with the
    plug-in gamma swapped in at every refit, take the actions of the
    round-by-round learners."""
    from dataclasses import replace

    from hmmbandits import runner
    from hmmbandits.environment import NoiseModel, RewardSpec, sample_theta

    phi = build_phi(A=3, X=4)
    theta, c_theta = sample_theta(phi, 2, np.random.default_rng(9))
    spec = RewardSpec(theta_star=theta, c_theta=c_theta, noise=NoiseModel.gaussian(0.1))
    config = cell_config(reference_params, spec, phi, 400, policies=("boxA", "boxB"))
    config = replace(config, run=replace(config.run, plugin_gamma=True),
                     policy=replace(config.policy, ell=30, refit_every=25))
    monkeypatch.setattr(runner, "TILE_BYTES", tile_rounds * 8 * 3 * 2 * 3)
    _, got = runner.simulate_group(config, 400, 0, ["boxA", "boxB"])
    monkeypatch.setattr(runner, "BoxAPolicy", StepwiseBoxA)
    monkeypatch.setattr(runner, "BoxBPolicy", StepwiseBoxB)
    _, want = runner.simulate_group(config, 400, 0, ["boxA", "boxB"])
    for a, b in zip(got, want):
        assert np.array_equal(a.actions, b.actions)


# Scores one stage-1 block of boxA (theta replaced, bonus constant) and the
# staged bonus of the same rows, and writes the bytes of both.  Every input
# is built elementwise, with no BLAS call; the entries span 10^-8..10^8, so a
# different summation order shows in the bits.
STAGED_KERNELS = """
import sys
import numpy as np
from hmmbandits.policies import BoxAPolicy, CellPlan, staged_bonus

rng = np.random.default_rng(12)
H, d, A, n = 3, 6, 3, 400
dH = H * d
scale = lambda shape: rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
feats = scale((n, A, dH))
g = rng.uniform(-1.0, 1.0, size=(dH, dH))
gram_inv = (g + g.T) / 2.0 + dH * np.eye(dH)
plan = CellPlan(policy="boxA", horizon=2 * n, lam=1.0, ell=n, refit_every=n, delta=0.1,
                gamma=0.5, c_theta=1.2, c_eta=0.01, v_eta=0.1, H=H, X=H, d=d)
policy = BoxAPolicy(plan)
policy._theta_frozen = scale(dH)
ucb = policy._stage_ucb(1, feats)
bonus = staged_bonus(plan, n + 1, feats.reshape(n * A, dH), gram_inv, 0.5, (3.0, 0.25))
sys.stdout.buffer.write(ucb.tobytes() + bonus.tobytes())
"""


def test_staged_kernels_do_not_depend_on_blas_kernel():
    """boxA's stage scores and the staged bonus have the same bytes under two
    OpenBLAS kernels: their sums are added in index order, not by BLAS."""
    out = [run_under_blas_core(STAGED_KERNELS, core) for core in ("Haswell", "Prescott")]
    assert len(out[0]) == 8 * 400 * 3 * 2
    assert out[0] == out[1]


# Plays boxB against the round-by-round StepwiseBoxB, which takes its
# products with @, over four blocks and two direct re-solves, one at the end
# of a block and one inside a block, on one-hot rows: every first-round UCB
# ties exactly, as do the scores of actions not played yet.  Prints, as
# JSON, whether the actions and the final Gram inverse and estimate bytes
# agree for each (H, A).
BOX_B_KERNELS = """
import json
import numpy as np
from oracles import StepwiseBoxB
from hmmbandits.environment import TransferFunction
from hmmbandits.policies import RESOLVE_EVERY, BoxBPolicy, CellPlan

rng = np.random.default_rng(20)
T = 2 * RESOLVE_EVERY + 300
equal = {}
for H, A in [(2, 3), (3, 3), (1, 2), (4, 1), (2, 4), (5, 2), (3, 5)]:
    table = TransferFunction.one_hot_action(A, H).table
    contexts = rng.integers(0, H, size=T)
    beliefs = rng.dirichlet(np.ones(H), size=T)
    rows = table[:, contexts].transpose(1, 0, 2)
    feats = (beliefs[:, None, :, None] * rows[:, :, None, :]).reshape(T, A, H * A)
    rewards = rng.normal(size=(T, A))
    plan = CellPlan(policy="boxB", horizon=T, lam=float(np.sqrt(T)), ell=T, refit_every=T,
                    delta=0.1, gamma=0.5, c_theta=1.2, c_eta=0.01, v_eta=0.1, H=H, X=H, d=A)
    policy, stepwise = BoxBPolicy(plan), StepwiseBoxB(plan)
    cuts = [0, 600, RESOLVE_EVERY, 1700, T]
    got = [policy.play(lo + 1, feats[lo:hi], rewards[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
    want = stepwise.play(1, feats, rewards)
    equal[f"H={H} A={A}"] = (np.array_equal(np.concatenate(got), want)
                             and policy._gram_inv.tobytes() == stepwise._gram_inv.tobytes()
                             and policy._theta.tobytes() == stepwise._theta.tobytes())
print(json.dumps(equal))
"""


@pytest.mark.parametrize("core", ["Haswell", "Prescott"])
def test_box_b_matches_stepwise_under_blas_kernel(core):
    """On each OpenBLAS kernel boxB's products through ``np.dot`` take the
    bits of the stepwise loop's ``@``: the same actions, Gram inverse and
    estimate (the bytes themselves may differ between kernels)."""
    equal = json.loads(run_under_blas_core(BOX_B_KERNELS, core))
    assert len(equal) == 7
    assert [name for name, same in equal.items() if not same] == []
