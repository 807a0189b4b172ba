"""Belief estimation on top of estimated HMM parameters: the known
belief-error budget function, the online subroutine that couples moment
accumulation, periodic re-estimation, label alignment, and filtering (the
Bayes filter itself lives in :mod:`hmmbandits.hmm`), and side-by-side
belief-error traces against the true filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DiagonalizationFailed,
    NearSingularPivot,
    RankDeficient,
    ShapeMismatch,
)
from .hmm import ForwardFilter, HmmParams, filter_trace
from .spectral import EstimatedHmm, MomentAccumulator, align, postprocess, spectral_estimate


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


class OnlineBeliefEstimator:
    """The belief-estimation subroutine driven by the raw context stream.

    Feeds contexts to a streaming moment accumulator; every ``refit_every``
    rounds (once at least ``min_fit`` contexts are available) it re-runs the
    spectral estimator, aligns labels against the previous estimate, and
    re-filters the whole prefix from scratch under the new parameters.
    Between refits the filter advances incrementally.  Before the first
    successful estimate the belief is uniform.

    ``exact_refilter=True`` re-filters the prefix on every round (quadratic
    cost; fidelity experiments only).  A refresh that fails (rank-deficient
    or near-singular moments, or no diagonalizable rotation, all routine on
    short prefixes) keeps the previous estimate and is counted in
    ``refit_failures``.
    """

    def __init__(
        self,
        num_states: int,
        num_contexts: int,
        refit_every: int,
        seed: int,
        exact_refilter: bool = False,
        min_fit: int = 8,
        initial_guess: np.ndarray | None = None,
    ):
        if refit_every < 1:
            raise ShapeMismatch("refit_every must be >= 1")
        self.num_states = int(num_states)
        self.num_contexts = int(num_contexts)
        self.refit_every = int(refit_every)
        self.seed = int(seed)
        self.exact_refilter = bool(exact_refilter)
        self.min_fit = max(3, int(min_fit))
        self.initial_guess = (
            np.full(self.num_states, 1.0 / self.num_states)
            if initial_guess is None
            else np.asarray(initial_guess, dtype=float)
        )
        self.accumulator = MomentAccumulator(self.num_contexts)
        self.contexts: list[int] = []
        self.estimate: EstimatedHmm | None = None
        self.params_version = 0
        self.refit_failures = 0
        self._filter: ForwardFilter | None = None
        self._uniform = np.full(self.num_states, 1.0 / self.num_states)

    @property
    def round(self) -> int:
        return len(self.contexts)

    def _try_refit(self) -> None:
        try:
            fresh = spectral_estimate(
                self.accumulator.snapshot(),
                self.num_states,
                # fresh rotation stream per refit, reproducible across runs
                seed=self.seed + 7919 * (self.params_version + 1),
            )
        except (RankDeficient, NearSingularPivot, DiagonalizationFailed):
            # insufficient data at this refresh; keep filtering with the
            # previous estimate and try again at the next boundary
            self.refit_failures += 1
            return
        fresh = postprocess(fresh)
        self.estimate = align(self.estimate, fresh)
        self.params_version += 1
        self._filter = ForwardFilter(
            self.estimate.transition_hat,
            self.estimate.emission_hat,
            prior=self.initial_guess,
            on_degenerate="uniform",
        )

    def observe(self, context: int) -> np.ndarray:
        """Append one context and return the estimated belief ``b_hat_t``.

        A refit round (and every round under ``exact_refilter``) re-filters
        the whole prefix from scratch under the current estimate (the O(t)
        cost paid at every refresh); other rounds advance incrementally.
        """
        x = int(context)
        self.contexts.append(x)
        self.accumulator.append(x)
        t = len(self.contexts)
        refit = t % self.refit_every == 0 and t >= self.min_fit
        if refit:
            self._try_refit()
        if self._filter is None:
            return self._uniform.copy()
        if refit or self.exact_refilter:
            return self._filter.restart(self.contexts).copy()
        return self._filter.step(x).copy()


def _estimated_trace(estimates_schedule, contexts, num_states: int) -> np.ndarray:
    """Scheduled-estimate filter beliefs, round by round.

    ``estimates_schedule`` is either one :class:`EstimatedHmm` (active from
    round 1) or a sequence of ``(round, estimate)`` pairs with ascending
    activation rounds; at each activation the estimated filter re-filters the
    prefix from scratch under the new parameters.
    """
    if isinstance(estimates_schedule, EstimatedHmm):
        schedule = [(1, estimates_schedule)]
    else:
        schedule = sorted(estimates_schedule, key=lambda pair: pair[0])
    if not schedule or schedule[0][0] > 1:
        raise ShapeMismatch("schedule must provide an estimate from round 1")

    uniform = np.full(num_states, 1.0 / num_states)
    estimated = np.empty((contexts.size, num_states))
    est_filter: ForwardFilter | None = None
    next_idx = 0
    for t, x in enumerate(contexts, start=1):
        while next_idx < len(schedule) and schedule[next_idx][0] <= t:
            est = schedule[next_idx][1]
            est_filter = ForwardFilter(
                est.transition_hat,
                est.emission_hat,
                prior=uniform,
                on_degenerate="uniform",
            )
            if t > 1:
                est_filter.restart(contexts[: t - 1])
            next_idx += 1
        assert est_filter is not None
        estimated[t - 1] = est_filter.step(int(x))
    return estimated


def belief_gaps(truth: np.ndarray, estimates_schedule, contexts) -> np.ndarray:
    """Per-round ``||b_hat_t - b_t||_1`` gaps between the true beliefs
    ``truth`` (rows of :func:`hmmbandits.hmm.filter_trace` over ``contexts``)
    and the filter running on scheduled estimates."""
    contexts = np.asarray(contexts, dtype=np.int64)
    estimated = _estimated_trace(estimates_schedule, contexts, truth.shape[1])
    return np.abs(truth - estimated).sum(axis=1)


def belief_error_trace(
    true_params: HmmParams,
    estimates_schedule,
    contexts,
) -> np.ndarray:
    """Per-round ``||b_hat_t - b_t||_1`` gaps between the true filter and the
    filter running on scheduled estimates (diagnostic mode; truth required)."""
    return belief_gaps(filter_trace(true_params, contexts), estimates_schedule, contexts)


def dump_belief_trace(
    path: str,
    true_params: HmmParams,
    estimates_schedule,
    contexts,
) -> None:
    """Write the side-by-side filter comparison as CSV
    (``round, b1..bH, b1_hat..bH_hat, l1_gap``)."""
    contexts = np.asarray(contexts, dtype=np.int64)
    truth = filter_trace(true_params, contexts)
    H = true_params.num_states
    estimated = _estimated_trace(estimates_schedule, contexts, H)
    gaps = np.abs(truth - estimated).sum(axis=1)
    header = (
        ["round"]
        + [f"b{h + 1}" for h in range(H)]
        + [f"b{h + 1}_hat" for h in range(H)]
        + ["l1_gap"]
    )
    lines = [",".join(header)]
    for t in range(truth.shape[0]):
        parts = [str(t + 1)]
        parts += [repr(float(v)) for v in truth[t]]
        parts += [repr(float(v)) for v in estimated[t]]
        parts.append(repr(float(gaps[t])))
        lines.append(",".join(parts))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
