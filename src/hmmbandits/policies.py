"""Decision strategies: staged LinUCB on estimated beliefs and its per-round
(non-staged) variant, plus the belief-budget schedule and the two
action-vectorized confidence-bonus kernels they score with, and the oracle
decision rule ``oracle_act``.

Both policies act on the observation ``(t, x_t, belief)`` only: contexts and
beliefs derived from them, plus the policy's own action/reward history.  The
random and oracle baselines read neither, so ``runner.simulate_cell`` builds
their actions as array expressions over the environment tape.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace

import numpy as np

from .beliefs import BeliefErrorBudget, u_belief
from .errors import ShapeMismatch, StageNotFrozen
from .hmm import Belief
from .environment import TransferFunction


def tensor_feature(belief, phi_vec: np.ndarray) -> np.ndarray:
    """``b (x) phi``: block ``h`` of the output is ``b(h) * phi``."""
    probs = belief.probs if isinstance(belief, Belief) else np.asarray(belief, dtype=float)
    return (probs[:, None] * np.asarray(phi_vec, dtype=float)[None, :]).ravel()


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


class USchedule:
    """The belief budget ``u(t) = u_belief(t)`` of one policy and its prefix
    sums ``u(1) + ... + u(k)``, each value computed once, on first use.

    The budget is zero throughout under known beliefs.  Prefix sums
    accumulate left to right, in round order.
    """

    def __init__(self, cfg: BonusConfig):
        self._budget = (
            None if cfg.known_beliefs
            else BeliefErrorBudget(H=cfg.H, X=cfg.X, delta=cfg.delta / 2.0)
        )
        self._values = array("d", [0.0])  # _values[t] = u(t); slot 0 is unused
        self._prefix = array("d", [0.0])  # _prefix[k] = u(1) + ... + u(k)

    def _extend(self, upto: int) -> None:
        values, prefix, budget = self._values, self._prefix, self._budget
        for t in range(len(values), upto + 1):
            u = 0.0 if budget is None else u_belief(budget, t)
            values.append(u)
            prefix.append(prefix[-1] + u)

    def __call__(self, t: int) -> float:
        if t < 1:
            raise ShapeMismatch("t must be >= 1")
        if t >= len(self._values):
            self._extend(t)
        return self._values[t]

    def prefix(self, upto: int) -> float:
        if upto >= len(self._prefix):
            self._extend(upto)
        return self._prefix[upto]


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


class _FeatureTable:
    """Per-context feature matrices ``(A, H*d)`` for a fixed belief."""

    def __init__(self, phi: TransferFunction, num_states: int):
        self.phi = phi
        self.H = num_states
        self.A = phi.num_actions
        self.d = phi.dim

    def all_actions(self, context: int, belief: np.ndarray) -> np.ndarray:
        block = belief[None, :, None] * self.phi.table[:, context][:, None, :]
        return block.reshape(self.A, self.H * self.d)


class BoxAPolicy:
    """Staged LinUCB on estimated beliefs.

    The scoring estimate and the Gram matrix are frozen at the last stage
    boundary; every round's feature still enters the accumulating ridge so
    the boundary refresh sees the whole prefix.  ``bonus_override(t, a)``
    replaces the bonus formula (plumbing tests).
    """

    def __init__(
        self,
        phi: TransferFunction,
        plan: StagePlan,
        cfg: BonusConfig,
        lam: float,
        bonus_override=None,
    ):
        self.phi = phi
        self.plan = plan
        self.cfg = cfg
        self.lam = float(lam)
        self.bonus_override = bonus_override
        self._features = _FeatureTable(phi, cfg.H)
        dH = cfg.H * phi.dim
        self._gram = self.lam * np.eye(dH)
        self._moment = np.zeros(dH)
        self._rounds = 0
        self._u = USchedule(cfg)
        # frozen snapshot used for scoring and bonuses
        self._theta_frozen = np.full(dH, 1.0 / self.lam)
        self._gram_frozen_inv = np.eye(dH) / self.lam
        self._frozen_rounds = 0
        self.theta_version = 0
        self._width: tuple[int, tuple[float, float]] | None = None

    def _stage_width(self, s_t: int) -> tuple[float, float]:
        """:func:`staged_width` of stage ``s_t``, computed once per stage."""
        if self._width is None or self._width[0] != s_t:
            u_prefix = self._u.prefix(self._frozen_rounds)
            self._width = (s_t, staged_width(self.cfg, self.plan, self.lam, s_t, u_prefix))
        return self._width[1]

    def act(self, t: int, context: int, belief: np.ndarray) -> int:
        feats = self._features.all_actions(context, np.asarray(belief, dtype=float))
        scores = feats @ self._theta_frozen
        if self.bonus_override is not None:
            bonuses = np.array([self.bonus_override(t, a) for a in range(len(scores))])
        else:
            width = None
            if t > self.plan.stage_length:
                s_t = self.plan.stage_of(t)
                if self._frozen_rounds != (s_t - 1) * self.plan.stage_length:
                    raise StageNotFrozen("frozen ridge is out of step with the stage plan")
                width = self._stage_width(s_t)
            bonuses = staged_bonus(self.cfg, self.plan, self.lam, t, feats,
                                   self._gram_frozen_inv, self._u(t), width)
        return int(np.argmax(scores + bonuses))

    def update(self, t: int, context: int, belief: np.ndarray, action: int, reward: float) -> None:
        v = tensor_feature(np.asarray(belief, dtype=float), self.phi.phi(action, context))
        self._gram += np.outer(v, v)
        self._moment += v * float(reward)
        self._rounds += 1
        if self._rounds % self.plan.stage_length == 0:
            self._theta_frozen = np.linalg.solve(self._gram, self._moment)
            self._gram_frozen_inv = np.linalg.inv(self._gram)
            self._frozen_rounds = self._rounds
            self.theta_version += 1

    def set_gamma(self, gamma: float) -> None:
        """Swap the forgetting rate fed to the bonus (plugin-gamma mode)."""
        self.cfg = replace(self.cfg, gamma=float(gamma))
        self._width = None


class BoxBPolicy:
    """LinUCB on estimated beliefs with per-round updates (no stages).

    The Gram inverse is maintained by rank-one (Sherman-Morrison) updates
    with a direct re-solve every ``resolve_every`` rounds to cap drift.
    """

    def __init__(
        self,
        phi: TransferFunction,
        cfg: BonusConfig,
        lam: float,
        resolve_every: int = 1000,
        bonus_override=None,
    ):
        self.phi = phi
        self.cfg = cfg
        self.lam = float(lam)
        self.resolve_every = int(resolve_every)
        self.bonus_override = bonus_override
        self._features = _FeatureTable(phi, cfg.H)
        dH = cfg.H * phi.dim
        self._gram = self.lam * np.eye(dH)
        self._moment = np.zeros(dH)
        self._gram_inv = np.eye(dH) / self.lam
        self._theta = np.full(dH, 1.0 / self.lam)
        self._rounds = 0
        self._u = USchedule(cfg)

    def act(self, t: int, context: int, belief: np.ndarray) -> int:
        feats = self._features.all_actions(context, np.asarray(belief, dtype=float))
        scores = feats @ self._theta
        if self.bonus_override is not None:
            bonuses = np.array([self.bonus_override(t, a) for a in range(len(scores))])
        else:
            bonuses = per_round_bonus(self.cfg, self.lam, t, feats, self._gram_inv,
                                      self._u(t), self._u.prefix(self._rounds))
        return int(np.argmax(scores + bonuses))

    def update(self, t: int, context: int, belief: np.ndarray, action: int, reward: float) -> None:
        v = tensor_feature(np.asarray(belief, dtype=float), self.phi.phi(action, context))
        self._gram += np.outer(v, v)
        self._moment += v * float(reward)
        w = self._gram_inv @ v
        self._gram_inv -= np.outer(w, w) / (1.0 + float(v @ w))
        self._rounds += 1
        if self._rounds % self.resolve_every == 0:
            self._gram_inv = np.linalg.inv(self._gram)
            self._theta = np.linalg.solve(self._gram, self._moment)
        else:
            self._theta = self._gram_inv @ self._moment


def oracle_act(phi: TransferFunction, theta_star: np.ndarray, context: int, true_belief: np.ndarray) -> int:
    """Functional form of the oracle decision rule (smallest-index tie-break)."""
    scores = phi.table[:, context] @ (np.asarray(theta_star).T @ np.asarray(true_belief))
    return int(np.argmax(scores))
