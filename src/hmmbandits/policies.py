"""Decision strategies: staged LinUCB on estimated beliefs and its per-round
(non-staged) variant, plus the belief-budget schedule and the two
action-vectorized confidence-bonus kernels they score with.

Rewards are linear in the rows ``b_t (x) phi(a, x_t)``, so both policies are
LinUCB over them: ``act(t, feats)`` sees round ``t``'s ``(A, H*d)`` block,
one row per action, and ``update(v, reward)`` the chosen row and its reward.
The random and oracle baselines read neither, so ``runner.play_arm``
builds their actions as array expressions over the environment tape.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass, replace

import numpy as np

from .beliefs import BeliefErrorBudget, u_belief
from .errors import ShapeMismatch, StageNotFrozen

RESOLVE_EVERY = 1000  # BoxBPolicy re-solves its ridge directly this often


@dataclass(frozen=True)
class StagePlan:
    """Block structure of the staged strategy: round ``t`` is in stage
    ``ceil(t / stage_length)``."""

    stage_length: int
    horizon: int

    def __post_init__(self):
        if self.stage_length < 1 or self.horizon < 1:
            raise ShapeMismatch("stage_length and horizon must be >= 1")

    @property
    def num_stages(self) -> int:
        return -(-self.horizon // self.stage_length)

    def stage_of(self, t: int) -> int:
        if not 1 <= t <= self.horizon:
            raise ShapeMismatch(f"round {t} outside [1, {self.horizon}]")
        return -(-t // self.stage_length)


@dataclass(frozen=True)
class BonusConfig:
    """Inputs of the confidence bonuses.

    ``gamma``, ``c_theta``, ``c_eta``, ``v_eta`` are treated as available to
    the learner.  ``known_beliefs=True`` zeroes every belief-error term (the
    oracle-belief ablation).  ``bonus_scope`` selects whether the Gram-norm
    factor multiplies the full five-term parenthesis of the staged bonus
    (``"full"``, default) or only its first three terms (``"partial"``).
    """

    delta: float
    gamma: float
    c_theta: float
    c_eta: float
    v_eta: float
    H: int
    X: int
    d: int
    bonus_scope: str = "full"
    known_beliefs: bool = False

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ShapeMismatch("delta must lie in (0, 1)")
        if not 0.0 <= self.gamma < 1.0:
            raise ShapeMismatch("gamma must lie in [0, 1)")
        if self.bonus_scope not in ("full", "partial"):
            raise ShapeMismatch("bonus_scope must be 'full' or 'partial'")


def u_schedule(cfg: BonusConfig, horizon: int) -> tuple[array, array]:
    """The belief budget ``u[t] = u_belief(t)`` of rounds ``1..horizon`` and
    its prefix sums ``prefix[k] = u(1) + ... + u(k)``, added left to right;
    slot 0 of both is 0.0.  The budget is zero throughout under known beliefs.
    """
    budget = (
        None if cfg.known_beliefs
        else BeliefErrorBudget(H=cfg.H, X=cfg.X, delta=cfg.delta / 2.0)
    )
    u = array("d", [0.0])
    u.extend(0.0 if budget is None else u_belief(budget, t) for t in range(1, horizon + 1))
    return u, array("d", itertools.accumulate(u))


def staged_width(
    cfg: BonusConfig, plan: StagePlan, lam: float, s_t: int, u_prefix: float
) -> tuple[float, float]:
    """``(factor, tail)`` of the staged bonus in stage ``s_t >= 2``.

    ``factor`` multiplies the Gram norm ``||G^{-1} (b (x) phi)||_2`` and is
    the sum of the regularization bias ``lam sqrt(H) C_theta``, the two
    Markov-inequality deviation terms, the belief drift
    ``2 (s_t - 1) gamma / (1 - gamma)``, and ``u_prefix``, the accumulated
    belief budget up to the last stage boundary.  ``bonus_scope="partial"``
    moves the last two terms out of ``factor`` into the additive ``tail``.
    """
    ell = plan.stage_length
    s_T = plan.num_stages
    gam, delta = cfg.gamma, cfg.delta
    t1 = lam * math.sqrt(cfg.H) * cfg.c_theta
    t2 = 4.0 * math.sqrt(
        s_T * (s_t - 1) * (1.0 + s_t * gam) * ell / (delta * (1.0 - gam))
    )
    t3 = math.sqrt(4.0 * s_T / delta * cfg.c_eta * (s_t - 1) * ell)
    t4 = 2.0 * (s_t - 1) * gam / (1.0 - gam)
    t5 = u_prefix
    if cfg.bonus_scope == "full":
        return t1 + t2 + t3 + t4 + t5, 0.0
    return t1 + t2 + t3, t4 + t5


def staged_bonus(
    cfg: BonusConfig,
    plan: StagePlan,
    lam: float,
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
    if t <= plan.stage_length:
        return np.full(len(feats), 1.0 + math.sqrt(cfg.d) / lam)
    factor, tail = width
    w = feats @ gram_inv
    return u_t + np.sqrt(np.einsum("ij,ij->i", w, w)) * factor + tail


def per_round_bonus(
    cfg: BonusConfig,
    lam: float,
    t: int,
    feats: np.ndarray,
    gram_inv: np.ndarray,
    u_t: float,
    u_prefix: float,
) -> np.ndarray:
    """Per-round confidence bonus of every row ``b (x) phi`` of ``feats``.

    ``1 + sqrt(d)/lam`` at ``t = 1``; afterwards ``u_t`` plus the
    Mahalanobis norm ``||b (x) phi||_{G_{t-1}^{-1}}`` times the width: the
    accumulated belief budget ``u_prefix`` over ``sqrt(lam)``, the
    regularization bias, and the self-normalized deviation width.
    """
    if t == 1:
        return np.full(len(feats), 1.0 + math.sqrt(cfg.d) / lam)
    w = feats @ gram_inv
    mahal = np.sqrt(np.maximum(np.einsum("ij,ij->i", w, feats), 0.0))
    dH = cfg.d * cfg.H
    width = (
        u_prefix / math.sqrt(lam)
        + math.sqrt(lam * cfg.H) * cfg.c_theta
        + cfg.v_eta
        * math.sqrt(2.0 * math.log(2.0 / cfg.delta) + dH * math.log(1.0 + t / (lam * dH)))
    )
    return u_t + mahal * width


class BoxAPolicy:
    """Staged LinUCB on estimated beliefs.

    The scoring estimate and the Gram matrix are frozen at the last stage
    boundary; every round's row still enters the accumulating ridge so the
    boundary refresh sees the whole prefix.
    """

    def __init__(self, plan: StagePlan, cfg: BonusConfig, lam: float):
        self.plan = plan
        self.cfg = cfg
        self.lam = float(lam)
        dH = cfg.H * cfg.d
        self._gram = self.lam * np.eye(dH)
        self._moment = np.zeros(dH)
        self._rounds = 0
        self._u, self._u_prefix = u_schedule(cfg, plan.horizon)
        # frozen snapshot used for scoring and bonuses
        self._theta_frozen = np.full(dH, 1.0 / self.lam)
        self._gram_frozen_inv = np.eye(dH) / self.lam
        self._frozen_rounds = 0
        self._width: tuple[int, tuple[float, float]] | None = None

    def _stage_width(self, s_t: int) -> tuple[float, float]:
        """:func:`staged_width` of stage ``s_t``, computed once per stage."""
        if self._width is None or self._width[0] != s_t:
            u_prefix = self._u_prefix[self._frozen_rounds]
            self._width = (s_t, staged_width(self.cfg, self.plan, self.lam, s_t, u_prefix))
        return self._width[1]

    def act(self, t: int, feats: np.ndarray) -> int:
        """Index of the row of round ``t``'s ``feats`` with the largest UCB."""
        s_t = self.plan.stage_of(t)
        width = None
        if s_t > 1:
            if self._frozen_rounds != (s_t - 1) * self.plan.stage_length:
                raise StageNotFrozen("frozen ridge is out of step with the stage plan")
            width = self._stage_width(s_t)
        bonuses = staged_bonus(self.cfg, self.plan, self.lam, t, feats,
                               self._gram_frozen_inv, self._u[t], width)
        return int(np.argmax(feats @ self._theta_frozen + bonuses))

    def update(self, v: np.ndarray, reward: float) -> None:
        self._gram += np.outer(v, v)
        self._moment += v * float(reward)
        self._rounds += 1
        if self._rounds % self.plan.stage_length == 0:
            self._theta_frozen = np.linalg.solve(self._gram, self._moment)
            self._gram_frozen_inv = np.linalg.inv(self._gram)
            self._frozen_rounds = self._rounds

    def set_gamma(self, gamma: float) -> None:
        """Swap the forgetting rate fed to the bonus (plugin-gamma mode)."""
        self.cfg = replace(self.cfg, gamma=float(gamma))
        self._width = None


class BoxBPolicy:
    """LinUCB on estimated beliefs with per-round updates (no stages).

    The Gram inverse is maintained by rank-one (Sherman-Morrison) updates
    with a direct re-solve every ``RESOLVE_EVERY`` rounds to cap drift.
    """

    def __init__(self, cfg: BonusConfig, lam: float, horizon: int):
        self.cfg = cfg
        self.lam = float(lam)
        self.horizon = int(horizon)
        dH = cfg.H * cfg.d
        self._gram = self.lam * np.eye(dH)
        self._moment = np.zeros(dH)
        self._gram_inv = np.eye(dH) / self.lam
        self._theta = np.full(dH, 1.0 / self.lam)
        self._rounds = 0
        self._u, self._u_prefix = u_schedule(cfg, horizon)

    def act(self, t: int, feats: np.ndarray) -> int:
        """Index of the row of round ``t``'s ``feats`` with the largest UCB."""
        if not 1 <= t <= self.horizon:
            raise ShapeMismatch(f"round {t} outside [1, {self.horizon}]")
        bonuses = per_round_bonus(self.cfg, self.lam, t, feats, self._gram_inv,
                                  self._u[t], self._u_prefix[self._rounds])
        return int(np.argmax(feats @ self._theta + bonuses))

    def update(self, v: np.ndarray, reward: float) -> None:
        self._gram += np.outer(v, v)
        self._moment += v * float(reward)
        w = self._gram_inv @ v
        self._gram_inv -= np.outer(w, w) / (1.0 + float(v @ w))
        self._rounds += 1
        if self._rounds % RESOLVE_EVERY == 0:
            self._gram_inv = np.linalg.inv(self._gram)
            self._theta = np.linalg.solve(self._gram, self._moment)
        else:
            self._theta = self._gram_inv @ self._moment
