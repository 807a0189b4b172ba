"""Span recording for the traced benchmark run.

Wrappers go around public names of ``hmmbandits`` in the namespace where
callers look them up: ``hmmbandits.beliefs.align`` is what the online
estimator calls, ``hmmbandits.runner.align`` what ``estimation_curves`` calls.
Every call records one span (layer, start, end, parent span) in flat arrays
that stay in memory until the run ends.  A layer's self time is its spans'
duration minus the time their child spans cover; durations are converted to
the reference seconds of the speed probe (probe.py) when metrics are made.

A name that no longer exists is skipped and counted in ``missing``: a later
change that deletes a layer leaves it at zero instead of failing the run.
"""

from __future__ import annotations

import functools
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

ARMS = {"BoxAPolicy": "boxA", "BoxBPolicy": "boxB",
        "OraclePolicy": "oracle", "RandomPolicy": "random"}

# (dotted name under the hmmbandits package, layer)
WRAPS = (
    ("config.load_config", "config.load"),
    ("runner.run_experiment", "runner.write"),
    ("runner.write_estimation_csv", "runner.write"),
    ("runner.simulate_cell", "runner.cell"),
    ("runner.estimation_curves", "runner.estimation_curves"),
    ("runner.record_round", "evaluation.record_round"),
    ("runner.accumulate_moments", "spectral.accumulate_moments"),
    ("runner.belief_error_trace", "beliefs.belief_error_trace"),
    ("runner.spectral_estimate", "spectral.estimate"),
    ("runner.postprocess", "spectral.postprocess"),
    ("runner.align", "spectral.align"),
    ("hmm.sample_trajectory", "hmm.sample_trajectory"),
    ("hmm.ForwardFilter.step", "hmm.filter_step"),
    ("environment.BanditEnvironment.observe", "environment.observe"),
    ("environment.BanditEnvironment.step", "environment.step"),
    ("beliefs.OnlineBeliefEstimator.observe", "beliefs.observe"),
    ("beliefs.spectral_estimate", "spectral.estimate"),
    ("beliefs.postprocess", "spectral.postprocess"),
    ("beliefs.align", "spectral.align"),
    ("spectral.MomentAccumulator.append", "spectral.moment_append"),
    ("policies.u_belief", "beliefs.u_belief"),
) + tuple(
    (f"policies.{cls}.{method}", f"policies.{method}.{arm}")
    for cls, arm in ARMS.items()
    for method in ("act", "update")
)

# (arm, horizon) pairs the workloads run: the ROADMAP's 2^12, 2^14, 2^16 ladder
LADDER = (("boxA", 65536), ("boxB", 65536), ("boxB", 16384),
          ("random", 4096), ("random", 16384), ("oracle", 4096), ("oracle", 16384))

# counts that must repeat exactly across runs at one seed
EXACT_COUNTS = ("beliefs.refilter.contexts", "spectral.estimate.failed",
                "spectral.align.perms_evaluated", "spectral.align.relabels",
                "trace.spans")


class _CountingItertools:
    """Stands in for ``itertools`` inside ``hmmbandits.spectral`` and counts
    the label permutations ``align`` enumerates."""

    def __init__(self, real, counts: Counter):
        self._real = real
        self._counts = counts

    def permutations(self, *args, **kwargs):
        for perm in self._real.permutations(*args, **kwargs):
            self._counts["spectral.align.perms_evaluated"] += 1
            yield perm

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Installs span-recording wrappers and turns the spans into layer metrics."""

    def __init__(self, package):
        self.package = package
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer_of = array("i")
        self.parent_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.refit_spans: list[int] = []
        self.cell_spans: dict[int, tuple[str, int]] = {}
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "runner.cell": self._after_cell,
            "beliefs.observe": self._after_observe,
            "spectral.align": self._after_align,
        }
        for dotted, layer in WRAPS:
            self._wrap(dotted, layer, hooks.get(layer))
        spectral = getattr(self.package, "spectral", None)
        real = getattr(spectral, "itertools", None)
        if real is None:
            self.missing.append("spectral.itertools")
        else:
            self._patch(spectral, "itertools", _CountingItertools(real, self.counts))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, dotted: str, layer: str, after) -> None:
        *path, attr = dotted.split(".")
        owner = self.package
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            self.missing.append(dotted)
            return
        original = vars(owner)[attr]
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        lid = self._layer_ids[layer]
        stack, counts, fail_key = self._stack, self.counts, layer + ".failed"
        layer_of, parent_of = self.layer_of.append, self.parent_of.append
        start, end = self.start, self.end
        now = perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = len(start)
            layer_of(lid)
            parent_of(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            ok = False
            t0 = now()
            try:
                result = original(*args, **kwargs)
                ok = True
            finally:
                end[idx] = now()
                start[idx] = t0
                stack.pop()
                if not ok:
                    counts[fail_key] += 1
            if after is not None:
                after(idx, args, result)
            return result

        self._patch(owner, attr, wrapper)

    # -- hooks: counts measured where the work happens -----------------------

    def _after_cell(self, idx: int, args, result) -> None:
        # simulate_cell(config, policy_name, horizon, seed_index)
        self.cell_spans[idx] = (str(args[1]), int(args[2]))

    def _after_observe(self, idx: int, args, result) -> None:
        # a refit round re-filters the whole prefix once an estimate exists
        est = args[0]
        t = len(getattr(est, "contexts", ()))
        every = getattr(est, "refit_every", 0)
        if (every and t % every == 0 and t >= getattr(est, "min_fit", 0)
                and getattr(est, "estimate", None) is not None):
            self.refit_spans.append(idx)
            self.counts["beliefs.refilter.contexts"] += t

    def _after_align(self, idx: int, args, result) -> None:
        # align(previous, fresh): a first estimate has nothing to match
        if args[0] is None:
            return
        self.counts["spectral.align.calls"] += 1
        perm = tuple(getattr(result, "label_permutation", ()))
        if perm != tuple(range(len(perm))):
            self.counts["spectral.align.relabels"] += 1

    # -- metrics -------------------------------------------------------------

    def layer_metrics(self, clock) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far (names fixed);
        times are in the reference seconds of ``clock`` (see probe.py)."""
        xs, ys = clock.knots()
        dur = (np.interp(np.frombuffer(self.end, dtype=np.float64), xs, ys)
               - np.interp(np.frombuffer(self.start, dtype=np.float64), xs, ys))
        parents = np.frombuffer(self.parent_of, dtype=np.int32)
        nested = parents >= 0
        self_t = dur - np.bincount(parents[nested], weights=dur[nested],
                                   minlength=dur.size)
        ids = np.frombuffer(self.layer_of, dtype=np.int32)
        n = len(self.layers)
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=dur, minlength=n)
        own = np.bincount(ids, weights=self_t, minlength=n)
        stats = {name: (int(calls[i]), float(total[i]), float(own[i]))
                 for i, name in enumerate(self.layers)}

        def calls_of(layer):
            return stats.get(layer, (0, 0.0, 0.0))[0]

        def total_of(layer):
            return stats.get(layer, (0, 0.0, 0.0))[1]

        def self_of(layer):
            return stats.get(layer, (0, 0.0, 0.0))[2]

        c = self.counts
        est_calls, est_failed = calls_of("spectral.estimate"), c["spectral.estimate.failed"]
        m = {
            "config.load.s": total_of("config.load"),
            "beliefs.observe.calls": calls_of("beliefs.observe"),
            "beliefs.observe.self_s": self_of("beliefs.observe"),
            "beliefs.refilter.s": float(self_t[self.refit_spans].sum()),
            "beliefs.refilter.contexts": c["beliefs.refilter.contexts"],
            "beliefs.u_belief.calls": calls_of("beliefs.u_belief"),
            "beliefs.u_belief.self_s": self_of("beliefs.u_belief"),
            "beliefs.belief_error_trace.s": total_of("beliefs.belief_error_trace"),
            "spectral.estimate.calls": est_calls,
            "spectral.estimate.failed": est_failed,
            "spectral.estimate.self_s": self_of("spectral.estimate"),
            "spectral.estimate.success_ratio":
                (est_calls - est_failed) / est_calls if est_calls else 0.0,
            "spectral.postprocess.self_s": self_of("spectral.postprocess"),
            "spectral.moment_append.self_s": self_of("spectral.moment_append"),
            "spectral.accumulate_moments.s": total_of("spectral.accumulate_moments"),
            "spectral.align.calls": c["spectral.align.calls"],
            "spectral.align.self_s": self_of("spectral.align"),
            "spectral.align.perms_evaluated": c["spectral.align.perms_evaluated"],
            "spectral.align.relabels": c["spectral.align.relabels"],
            "environment.observe.self_s": self_of("environment.observe"),
            "environment.step.self_s": self_of("environment.step"),
            "hmm.filter_step.calls": calls_of("hmm.filter_step"),
            "hmm.filter_step.self_s": self_of("hmm.filter_step"),
            "hmm.sample_trajectory.s": total_of("hmm.sample_trajectory"),
            "evaluation.record_round.self_s": self_of("evaluation.record_round"),
        }
        for arm in ARMS.values():
            m[f"policies.act.{arm}.self_s"] = self_of(f"policies.act.{arm}")
            m[f"policies.update.{arm}.self_s"] = self_of(f"policies.update.{arm}")
        m["runner.write.self_s"] = self_of("runner.write")
        m["runner.cell.self_s"] = self_of("runner.cell")
        m["runner.estimation_curves.self_s"] = self_of("runner.estimation_curves")
        cell_time: Counter = Counter()
        cell_rounds: Counter = Counter()
        for idx, (arm, horizon) in self.cell_spans.items():
            cell_time[arm, horizon] += dur[idx]
            cell_rounds[arm, horizon] += horizon
        for arm, horizon in LADDER:
            rounds = cell_rounds[arm, horizon]
            m[f"runner.cell.{arm}.T{horizon}.us_per_round"] = (
                cell_time[arm, horizon] * 1e6 / rounds if rounds else 0.0)
        m["trace.spans"] = int(dur.size)
        m["trace.layers_missing"] = len(self.missing)
        return m


def exact_counts(metrics: dict[str, float]) -> dict[str, float]:
    """The subset of ``metrics`` that must repeat exactly at one seed."""
    return {k: v for k, v in metrics.items()
            if k.endswith(".calls") or k in EXACT_COUNTS}
