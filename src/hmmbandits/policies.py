"""Decision strategies: staged LinUCB on estimated beliefs and its per-round
(non-staged) variant, plus the belief-budget schedule and the bonus kernels
they score with: the staged bonus of every row at once, and boxB's choice of
a round, straight-line Python compiled for each action count on first use,
which adds each action's per-round bonus to its score and takes the argmax
on Python floats.  All of them read one
:class:`~hmmbandits.config.CellPlan`, the cell's values with every ``auto``
of the configuration resolved once (``ExperimentConfig.plan``); it lives in
:mod:`hmmbandits.config`, next to that one constructor.

Rewards are linear in the rows ``b_t (x) phi(a, x_t)``, so both policies are
LinUCB over them: ``play(first_round, feats, rewards)`` takes an
``(n, A, H*d)`` block of rounds, one row per action, with every action's
reward, and returns the actions; a round's choice reads that round's rows
and the rewards of the rows chosen before it.  The random and oracle
baselines read neither, so ``runner.play_arm`` builds their actions as array
expressions over the environment tape.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from dataclasses import replace

import numpy as np
from numpy._core.multiarray import c_einsum  # what np.einsum(optimize=False) calls

from .beliefs import BeliefErrorBudget, u_belief
from .config import CellPlan
from .errors import ShapeMismatch
from .hmm import TILE_BYTES

RESOLVE_EVERY = 1000  # BoxBPolicy re-solves its ridge directly this often


def u_schedule(plan: CellPlan) -> tuple[memoryview, memoryview]:
    """The belief budget ``u[t] = u_belief(t)`` of rounds ``1..horizon`` and
    its prefix sums ``prefix[k] = u(1) + ... + u(k)``, added left to right;
    slot 0 of both is 0.0.  The budget is zero throughout under known beliefs.
    Both are read-only, and the last schedule built is reused, so learners
    built one after another on the same budget inputs (boxA and boxB of one
    group) build it once.
    """
    return _u_schedule(plan.H, plan.X, plan.delta, plan.horizon, plan.known_beliefs)


@functools.lru_cache(maxsize=1)
def _u_schedule(H: int, X: int, delta: float, horizon: int,
                known_beliefs: bool) -> tuple[memoryview, memoryview]:
    budget = None if known_beliefs else BeliefErrorBudget(H=H, X=X, delta=delta / 2.0)
    u = array("d", [0.0])
    u.extend(0.0 if budget is None else u_belief(budget, t)
             for t in range(1, horizon + 1))
    prefix = array("d", itertools.accumulate(u))
    return memoryview(u).toreadonly(), memoryview(prefix).toreadonly()


def staged_width(plan: CellPlan, s_t: int, u_prefix: float) -> tuple[float, float]:
    """``(factor, tail)`` of the staged bonus in stage ``s_t >= 2``.

    ``factor`` multiplies the Gram norm ``||G^{-1} (b (x) phi)||_2`` and is
    the sum of the regularization bias ``lam sqrt(H) C_theta``, the two
    Markov-inequality deviation terms, the belief drift
    ``2 (s_t - 1) gamma / (1 - gamma)``, and ``u_prefix``, the accumulated
    belief budget up to the last stage boundary.  ``bonus_scope="partial"``
    moves the last two terms out of ``factor`` into the additive ``tail``.
    """
    ell, s_T, gam, delta = plan.ell, plan.num_stages, plan.gamma, plan.delta
    t1 = plan.lam * math.sqrt(plan.H) * plan.c_theta
    t2 = 4.0 * math.sqrt(
        s_T * (s_t - 1) * (1.0 + s_t * gam) * ell / (delta * (1.0 - gam))
    )
    t3 = math.sqrt(4.0 * s_T / delta * plan.c_eta * (s_t - 1) * ell)
    t4 = 2.0 * (s_t - 1) * gam / (1.0 - gam)
    t5 = u_prefix
    if plan.bonus_scope == "full":
        return t1 + t2 + t3 + t4 + t5, 0.0
    return t1 + t2 + t3, t4 + t5


def _products_in_order(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """``rows @ mat`` for a vector or a matrix ``mat``, every sum added
    in index order, ``rows[:, 0] * mat[0] + rows[:, 1] * mat[1] + ...``, by
    elementwise products and adds.  So a row gets the same bits alone as in
    any batch, whatever the BLAS kernel or SIMD path."""
    cols = rows.T if mat.ndim == 1 else rows.T[:, :, None]
    total = cols[0] * mat[0]
    for k in range(1, len(mat)):
        total += cols[k] * mat[k]
    return total


def staged_bonus(
    plan: CellPlan,
    t: int,
    feats: np.ndarray,
    gram_inv: np.ndarray,
    u_t: float,
    width: tuple[float, float] | None,
) -> np.ndarray:
    """Staged confidence bonus of every row ``b (x) phi`` of ``feats``.

    Constant ``1 + sqrt(d)/lam`` during the first stage (``width`` unused).
    Later ``u_t + ||G^{-1} (b (x) phi)||_2 * factor + tail`` with the Gram
    inverse frozen at the last stage boundary and ``(factor, tail)`` the
    :func:`staged_width` of round ``t``'s stage.
    """
    if t <= plan.ell:
        return np.full(len(feats), 1.0 + math.sqrt(plan.d) / plan.lam)
    factor, tail = width
    w = _products_in_order(feats, gram_inv)
    return u_t + np.sqrt(_products_in_order(w * w, np.ones(len(gram_inv)))) * factor + tail


def per_round_widths(plan: CellPlan, rounds, u_prefix) -> list[float]:
    """Width of the per-round bonus in each round ``t`` of ``rounds``: the
    accumulated belief budget ``u_prefix[t - 1]`` over ``sqrt(lam)``, the
    regularization bias, and the self-normalized deviation width.  The terms
    that do not depend on ``t`` are evaluated once."""
    lam, dH = plan.lam, plan.d * plan.H
    root_lam = math.sqrt(lam)
    bias = math.sqrt(lam * plan.H) * plan.c_theta
    confidence = 2.0 * math.log(2.0 / plan.delta)
    lam_dH = lam * dH
    return [
        u_prefix[t - 1] / root_lam + bias
        + plan.v_eta * math.sqrt(confidence + dH * math.log(1.0 + t / lam_dH))
        for t in rounds
    ]


def _chooser(A: int):
    """boxB's choice among ``A`` actions as straight-line Python, compiled on
    first use and cached by ``A``: ``choose(t, scores, mahal_sq, u_t, width,
    first)`` gives the action of round ``t`` whose rows score ``scores`` and
    have the squared Mahalanobis norms ``||b (x) phi||^2_{G_{t-1}^{-1}}``
    ``mahal_sq``.

    An action's bonus is ``first`` (``1 + sqrt(d)/lam``) at ``t = 1``;
    afterwards ``u_t`` plus the norm times ``width``, the
    :func:`per_round_widths` entry of round ``t``, with the semantics of
    ``np.sqrt(np.maximum(q, 0.0))``: a square rounded below zero counts as
    zero, and NaN stays NaN.  Its UCB is the score plus the bonus, and the
    choice is ``np.argmax`` of the UCBs: the first NaN if there is one,
    else the first maximum."""
    if A not in _CHOOSERS:
        s, q = (", ".join(f"{a}{i}" for i in range(A)) + "," for a in "sq")
        source = "\n".join([
            "def choose(t, scores, mahal_sq, u_t, width, first):",
            f"    {s} = scores",
            "    if t == 1:",
            *(f"        c{i} = s{i} + first" for i in range(A)),
            "    else:",
            f"        {q} = mahal_sq",
            *(f"        c{i} = s{i} + (u_t + sqrt(0.0 if q{i} < 0.0 else q{i}) * width)"
              for i in range(A)),
            "    if c0 != c0:",
            "        return 0",
            "    at, best = 0, c0",
            *itertools.chain.from_iterable((
                f"    if c{i} != c{i}:",
                f"        return {i}",
                f"    if c{i} > best:",
                f"        at, best = {i}, c{i}",
            ) for i in range(1, A)),
            "    return at",
        ])
        scope = {"sqrt": math.sqrt}
        exec(compile(source, f"<boxB choice A={A}>", "exec"), scope)
        _CHOOSERS[A] = scope["choose"]
    return _CHOOSERS[A]


_CHOOSERS: dict = {}  # boxB's choice at each action count, compiled on first use


def _add_in_order(total: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """``total + terms[0] + terms[1] + ...`` added left to right: the bits of
    one ``+=`` per term.  ``terms`` is overwritten."""
    terms[0] += total
    return np.add.accumulate(terms, axis=0, out=terms)[-1].copy()


def _add_outer_products(gram: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``gram`` plus ``np.outer(v, v)`` for every row ``v`` of ``rows``, in
    order, with the outer products built ``TILE_BYTES`` at a time."""
    cap = max(1, TILE_BYTES // (8 * gram.size))
    for lo in range(0, len(rows), cap):
        v = rows[lo:lo + cap]
        gram = _add_in_order(gram, v[:, :, None] * v[:, None, :])
    return gram


def _check_block(first_round: int, rounds: int, played: int, horizon: int) -> None:
    """A block of ``rounds`` rounds from ``first_round`` on must lie in
    ``[1, horizon]`` and follow the ``played`` rounds before it."""
    last = first_round + rounds - 1
    if rounds < 1 or first_round < 1 or last > horizon:
        raise ShapeMismatch(f"rounds {first_round}..{last} outside [1, {horizon}]")
    if first_round != played + 1:
        raise ShapeMismatch(f"round {first_round} does not follow round {played}")


class BoxAPolicy:
    """Staged LinUCB on estimated beliefs.

    The scoring estimate and the Gram matrix are frozen at the last stage
    boundary; every round's row still enters the accumulating ridge so the
    boundary refresh sees the whole prefix.  So a stage's actions are one
    batched argmax over UCBs whose sums are added in index order, the
    per-round argmax by construction.
    """

    def __init__(self, plan: CellPlan):
        self.plan = plan
        dH = plan.H * plan.d
        self._gram = plan.lam * np.eye(dH)
        self._moment = np.zeros(dH)
        self._rounds = 0
        self._u, self._u_prefix = u_schedule(plan)
        # frozen snapshot used for scoring and bonuses
        self._theta_frozen = np.full(dH, 1.0 / plan.lam)
        self._gram_frozen_inv = np.eye(dH) / plan.lam
        self._frozen_rounds = 0

    def play(self, first_round: int, feats: np.ndarray, rewards: np.ndarray) -> np.ndarray:
        """Actions of rounds ``first_round, first_round + 1, ...``: round
        ``first_round + i`` offers the ``(A, H*d)`` block ``feats[i]``, and
        action ``a`` earns ``rewards[i, a]``."""
        n = len(feats)
        _check_block(first_round, n, self._rounds, self.plan.horizon)
        ell = self.plan.ell
        actions = np.empty(n, dtype=np.int64)
        lo = 0
        while lo < n:
            t = first_round + lo
            hi = min(n, lo + ell - (t - 1) % ell)  # the rest of t's stage
            block = actions[lo:hi] = self._stage_ucb(t, feats[lo:hi]).argmax(axis=1)
            picked = np.arange(hi - lo), block
            rows = feats[lo:hi][picked]
            self._gram = _add_outer_products(self._gram, rows)
            self._moment = _add_in_order(self._moment, rows * rewards[lo:hi][picked][:, None])
            self._rounds += hi - lo
            if self._rounds % ell == 0:
                self._theta_frozen = np.linalg.solve(self._gram, self._moment)
                self._gram_frozen_inv = np.linalg.inv(self._gram)
                self._frozen_rounds = self._rounds
            lo = hi
        return actions

    def _stage_ucb(self, t: int, feats: np.ndarray) -> np.ndarray:
        """``(n, A)`` UCBs of the rounds ``t, t + 1, ...`` of one stage."""
        n, A, dH = feats.shape
        s_t = self.plan.stage_of(t)
        width = None
        if s_t > 1:
            width = staged_width(self.plan, s_t, self._u_prefix[self._frozen_rounds])
        flat = feats.reshape(n * A, dH)
        u = np.repeat(np.frombuffer(self._u)[t:t + n], A)
        bonus = staged_bonus(self.plan, t, flat, self._gram_frozen_inv, u, width)
        return (_products_in_order(flat, self._theta_frozen) + bonus).reshape(n, A)

    def set_gamma(self, gamma: float) -> None:
        """Swap the forgetting rate fed to the bonus (plugin-gamma mode)."""
        self.plan = replace(self.plan, gamma=float(gamma))


class BoxBPolicy:
    """LinUCB on estimated beliefs with per-round updates (no stages).

    The Gram inverse is maintained by rank-one (Sherman-Morrison) updates
    with a direct re-solve every ``RESOLVE_EVERY`` rounds to cap drift; the
    Gram matrix itself is only read there, so its terms are added in order
    at those rounds and at the end of a block.
    """

    def __init__(self, plan: CellPlan):
        self.plan = plan
        dH = plan.H * plan.d
        self._gram = plan.lam * np.eye(dH)
        self._moment = np.zeros(dH)
        self._gram_inv = np.eye(dH) / plan.lam
        self._theta = np.full(dH, 1.0 / plan.lam)
        self._rounds = 0
        self._u, self._u_prefix = u_schedule(plan)

    def play(self, first_round: int, feats: np.ndarray, rewards: np.ndarray) -> np.ndarray:
        """Actions of rounds ``first_round, first_round + 1, ...``, with the
        conventions of :meth:`BoxAPolicy.play`.

        A round makes six BLAS products, ``f θ``, ``f G⁻¹``, ``G⁻¹ v``,
        ``v·w``, the outer product ``w wᵀ`` and ``G⁻¹ m``, with ``dot``,
        and one call of the ``einsum`` kernel for the squared norms.  The
        bonus, the UCB sum and the argmax are one call of the
        :func:`_chooser` kernel of the block's action count, on Python
        floats; the moment steps ``f r`` of every row are multiplied once
        per block, and ``f G⁻¹`` and the rank-one step write into buffers of
        the block."""
        n = len(feats)
        plan, u = self.plan, self._u
        _check_block(first_round, n, self._rounds, plan.horizon)
        rounds = range(first_round, first_round + n)
        widths = per_round_widths(plan, rounds, self._u_prefix)
        moment, gram_inv, theta = self._moment, self._gram_inv, self._theta
        _, A, dH = feats.shape
        choose, first = _chooser(A), 1.0 + math.sqrt(plan.d) / plan.lam
        w, outer, fg = np.empty(dH), np.empty((dH, dH)), np.empty((A, dH))
        w_col, w_row = w[:, None], w[None, :]
        steps = feats * rewards[:, :, None]  # every row's moment step
        actions = []
        added = 0  # chosen rows already in the Gram matrix
        for t, width, f, f_r in zip(rounds, widths, feats, steps):
            a = choose(t, f.dot(theta).tolist(),
                       c_einsum("ij,ij->i", f.dot(gram_inv, fg), f).tolist(), u[t], width, first)
            actions.append(a)
            v = f[a]
            moment += f_r[a]
            gram_inv.dot(v, w)
            np.dot(w_col, w_row, outer)  # w_i * w_j, but an exact zero is +0.0
            outer /= 1.0 + v.dot(w)
            gram_inv -= outer
            if t % RESOLVE_EVERY == 0:
                self._gram = _add_outer_products(
                    self._gram, feats[np.arange(added, len(actions)), actions[added:]])
                added = len(actions)
                gram_inv = np.linalg.inv(self._gram)
                theta = np.linalg.solve(self._gram, moment)
            else:
                theta = gram_inv.dot(moment)
        self._gram = _add_outer_products(self._gram, feats[np.arange(added, n), actions[added:]])
        self._gram_inv, self._theta = gram_inv, theta
        self._rounds += n
        return np.array(actions, dtype=np.int64)
