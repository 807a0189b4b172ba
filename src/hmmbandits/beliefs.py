"""Belief estimation on top of estimated HMM parameters: the known
belief-error budget function, the belief subroutine (periodic spectral
re-estimation of the context prefix with label alignment, then filtering
under the scheduled estimates), and the per-round belief gaps against the
true filter.

The estimated beliefs depend on the contexts, the refit period and the
estimator seed only, never on actions or rewards, so a run computes them
for the whole stream before its policy loop: every refit's prefix
re-filter in one :func:`hmmbandits.hmm.forward_pass`, then the rounds
between refits in one :func:`hmmbandits.hmm.forward_steps`, which advances
the segments in lockstep (a lone one, as in ``estimation_curves``, steps in
the filter's one-step kernel on Python floats, which is faster than a stack
of one); the beliefs are bit for bit those of one re-filter per refit and
one ``forward_step`` per round.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationFailed, ShapeMismatch
from .hmm import forward_pass, forward_steps
from .spectral import EstimatedHmm, accumulate_moments, align, spectral_estimate


@dataclass(frozen=True)
class BeliefErrorBudget:
    """Parameters of the known belief-error bound ``u_belief``."""

    H: int
    X: int
    delta: float

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ShapeMismatch("delta must lie in (0, 1)")
        if self.H < 1 or self.X < self.H:
            raise ShapeMismatch("need X >= H >= 1")


def u_belief(budget: BeliefErrorBudget, t: int) -> float:
    """High-probability bound on ``||b_hat_t - b_t||_1`` after ``t`` rounds.

    ``ln(t) * (H*sqrt(X)*sqrt(2*ln(6*X*t*(t+1)/delta)/t) + exp(-sqrt(t-1)))``;
    zero at ``t = 1`` through the ``ln(1)`` factor.  The unknown warm-up
    threshold below which the bound is not yet valid is ignored at runtime,
    exactly as the learner must.
    """
    if t < 1:
        raise ShapeMismatch("t must be >= 1")
    if t == 1:
        return 0.0
    inner = 2.0 * math.log(6.0 * budget.X * t * (t + 1) / budget.delta) / t
    return math.log(t) * (
        budget.H * math.sqrt(budget.X) * math.sqrt(inner) + math.exp(-math.sqrt(t - 1))
    )


MIN_FIT = 8  # shortest prefix the belief subroutine re-estimates from


def refit_schedule(
    contexts, num_states: int, num_contexts: int, refit_every: int, seed: int
) -> tuple[list, int]:
    """Periodic spectral re-estimation over the prefixes of a context stream.

    At every round ``t`` with ``t % refit_every == 0`` and ``t >= MIN_FIT``
    the moments of ``contexts[:t]`` are re-estimated and aligned against the
    previous estimate; a refit after ``k`` successful ones draws its rotations
    from ``seed + 7919 * (k + 1)``.  A refit that fails
    (:class:`~hmmbandits.errors.EstimationFailed`: rank-deficient or
    near-singular moments, or no diagonalizable rotation, all routine on
    short prefixes) keeps the previous estimate and is counted.  Returns the
    ``(t, estimate)`` pair of every refit round once an estimate exists, and
    the number of failed refits.
    """
    if refit_every < 1:
        raise ShapeMismatch("refit_every must be >= 1")
    contexts = np.asarray(contexts, dtype=np.int64)
    schedule = []
    estimate: EstimatedHmm | None = None
    successes = failures = 0
    for t in range(refit_every, contexts.size + 1, refit_every):
        if t < MIN_FIT:
            continue
        try:
            estimate = align(estimate, spectral_estimate(
                accumulate_moments(contexts[:t], num_contexts),
                num_states,
                seed=seed + 7919 * (successes + 1),
            ))
        except EstimationFailed:
            failures += 1
        else:
            successes += 1
        if estimate is not None:
            schedule.append((t, estimate))
    return schedule, failures


def scheduled_beliefs(schedule, contexts, num_states: int) -> np.ndarray:
    """Beliefs of the filter running on scheduled estimates, one row per round.

    ``schedule`` is a sequence of ``(round, estimate)`` pairs.  Rows before
    the first pair are uniform.  At each pair's round the filter re-filters
    the prefix up to and including that round from the uniform prior under
    the pair's estimate (the last one given for a round wins); other rounds
    take one Bayes step.

    All re-filters run in one :func:`hmmbandits.hmm.forward_pass`, and the
    segments between refits in one :func:`hmmbandits.hmm.forward_steps`.
    """
    xs = np.asarray(contexts, dtype=np.int64)
    active = dict(schedule)
    if any(t < 1 for t in active):
        raise ShapeMismatch("scheduled rounds start at 1")
    starts = sorted(t for t in active if t <= xs.size)
    uniform = np.full(num_states, 1.0 / num_states)
    beliefs = np.tile(uniform, (xs.size, 1))
    if not starts:
        return beliefs
    models = [(active[t].transition_hat, active[t].emission_hat) for t in starts]
    refits = forward_pass(models, uniform, xs, starts)
    beliefs[np.array(starts) - 1] = refits
    # a segment steps up to the row before the next refit row
    stops = [t - 1 for t in starts[1:]] + [xs.size]
    forward_steps(models, refits, xs, starts, stops, beliefs)
    return beliefs


def belief_gaps(truth: np.ndarray, estimates_schedule, contexts) -> np.ndarray:
    """Per-round ``||b_hat_t - b_t||_1`` gaps between the true beliefs
    ``truth`` (rows of :func:`hmmbandits.hmm.filter_trace` over ``contexts``)
    and the filter running on scheduled estimates."""
    estimated = scheduled_beliefs(estimates_schedule, contexts, truth.shape[1])
    return np.abs(truth - estimated).sum(axis=1)
