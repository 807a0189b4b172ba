"""Belief estimation on top of estimated HMM parameters: the known
belief-error budget function, the belief subroutine (periodic spectral
re-estimation of the context prefix with label alignment, then filtering
under the scheduled estimates), and the per-round belief gaps against the
true filter.

The estimated beliefs depend on the contexts, the refit period and the
estimator seed only, so a run computes them before its policy loop, bit for
bit as one refit, re-filter and Bayes step at a time would.  The prefix
moments and the seed-free stage of all refits run stacked, a tile at a time
(``spectral.prefix_tables`` and ``subspaces``, which returns a refit's
``RankDeficient`` in place of its set).  Each refit's seed counts the
successes before it, so the seeded stage (``spectral.seeded_estimates``,
which passes those on) runs stacked over windows of a tile's refits under
seeds speculated from the successes so far; a seeded failure ends its
window, and the next, half as long, re-runs the refits after it.
All re-filters run in one ``hmm.forward_pass``, the rounds between refits
in one ``hmm.forward_steps``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EstimationFailed, ShapeMismatch
from .hmm import forward_pass, forward_steps
from .spectral import EstimatedHmm, Subspaces, align, prefix_tables, seeded_estimates, subspaces


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
) -> tuple[list, int, int]:
    """Periodic spectral re-estimation over the prefixes of a context stream.

    At every round ``t`` with ``t % refit_every == 0`` and ``t >= MIN_FIT``
    the moments of ``contexts[:t]`` are re-estimated and aligned against the
    previous estimate; a refit after ``k`` successful ones draws its rotations
    from ``seed + 7919 * (k + 1)``.  A refit that fails
    (:class:`~hmmbandits.errors.EstimationFailed`, routine on short prefixes)
    keeps the previous estimate and is counted.

    The seeded stage runs stacked over windows of a ``prefix_tables``
    tile's refits, each seed speculated from the successes so far and the
    seed-free failures in the window.  A seeded failure makes every later
    seed of its window one too high: the window keeps its results up to
    the failure, and the next window starts right after it.  Seeded
    failures cluster on short prefixes, so the first window holds one
    refit, a window with such a failure halves the next one's size (down
    to 1), one without doubles it, and a window ends at its tile's end.
    Returns the ``(t, estimate)`` pair of every refit round once an estimate
    exists, the number of failed refits, and the number of refits whose
    seeded stage ran again after such a failure.
    """
    if refit_every < 1:
        raise ShapeMismatch("refit_every must be >= 1")
    ends = [t for t in range(refit_every, len(contexts) + 1, refit_every) if t >= MIN_FIT]
    schedule = []
    estimate: EstimatedHmm | None = None
    successes = failures = reruns = 0
    size, rounds = 1, iter(ends)
    for tables in prefix_tables(contexts, num_contexts, ends) if ends else ():
        stages = subspaces(*tables, num_states)
        start = 0
        while start < len(stages):
            window = stages[start:start + size]
            # a set whose seed-free stage passed runs the seeded stage: speculate it succeeds
            seeded = [isinstance(stage, Subspaces) for stage in window]
            counts = itertools.accumulate(seeded[:-1], initial=successes)
            results = seeded_estimates(window, [seed + 7919 * (k + 1) for k in counts])
            cut = next((j for j, fresh in enumerate(results)
                        if seeded[j] and not isinstance(fresh, EstimatedHmm)), None)
            kept = len(window) if cut is None else cut + 1
            for fresh, t in zip(results[:kept], rounds):   # draws a round per result
                if isinstance(fresh, EstimatedHmm):
                    estimate = align(estimate, fresh)
                    successes += 1
                elif isinstance(fresh, EstimationFailed):
                    failures += 1
                else:
                    raise fresh
                if estimate is not None:
                    schedule.append((t, estimate))
            reruns += sum(seeded[kept:])
            start += kept
            size = 2 * size if cut is None else max(1, size // 2)
    return schedule, failures, reruns


def scheduled_beliefs(schedule, contexts, num_states: int) -> np.ndarray:
    """Beliefs of the filter running on scheduled estimates, one row per round.

    ``schedule`` is a sequence of ``(round, estimate)`` pairs.  Rows before
    the first pair are uniform.  At each pair's round the filter re-filters
    the prefix up to and including that round from the uniform prior under
    the pair's estimate (the last one given for a round wins); other rounds
    take one Bayes step.
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
