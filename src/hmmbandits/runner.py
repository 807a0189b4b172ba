"""Experiment orchestration: one environment tape per (horizon, seed) group,
played by every policy arm of the grid, deterministic seed derivation, atomic
artifact writing, and the estimation error-curve diagnostic behind the
``estimate`` subcommand.

A group of two or more arms renders the CSV columns its arms take from the
tape (``t``, ``x`` and, under ``emit_oracle_columns``, ``h`` and ``b1..bH``)
once, and joins each arm's file from them and the arm's own columns.  A
cell's ``duration`` counts its play alone (and the first arm's, the tape
draw); writing is not counted.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import json
import os
import time
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .beliefs import belief_gaps, refit_schedule, scheduled_beliefs
from .config import LEARNERS, ExperimentConfig, config_snapshot
from .environment import EnvironmentTape, sample_tape
from .errors import ConfigError, EstimationFailed, HmmBanditsError, ShapeMismatch
from .hmm import TILE_BYTES
from .policies import BoxAPolicy, BoxBPolicy, CellPlan
from .spectral import EstimatedHmm, accumulate_moments, align, relabel, spectral_estimate

GAMMA_CAP = 1.0 - 1e-6


def environment_seed_sequence(
    master_seed: int, horizon: int, seed_index: int
) -> np.random.SeedSequence:
    """Environment stream: policy-independent so different policies face the
    identical latent/context/noise path (paired comparisons)."""
    return np.random.SeedSequence(
        entropy=[int(master_seed), int(horizon), int(seed_index), 0]
    )


def learner_seed_sequence(
    master_seed: int, policy: str, horizon: int, seed_index: int
) -> np.random.SeedSequence:
    """Learner-side stream (policy randomness, estimator rotations); stable
    under added seeds or cells."""
    policy_id = sum((i + 1) * ord(c) for i, c in enumerate(policy))
    return np.random.SeedSequence(
        entropy=[int(master_seed), policy_id, int(horizon), int(seed_index), 1]
    )


@dataclass
class CellResult:
    """One cell's transcript as columns, with the plan it played; the last
    three only under ``emit_oracle_columns`` (``learner_beliefs`` for the
    learners only)."""

    plan: CellPlan
    seed_index: int
    regret_total: float
    contexts: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    increments: np.ndarray
    refit_failures: int
    duration: float
    estimate_text: str | None = None
    hidden: np.ndarray | None = None
    true_beliefs: np.ndarray | None = None
    learner_beliefs: np.ndarray | None = None


def blas_core() -> str | None:
    """The OpenBLAS core that numpy's BLAS products run on (the detected CPU,
    or ``OPENBLAS_CORETYPE``), by ``scipy_openblas_get_corename64_`` of the
    OpenBLAS library in the wheel's ``numpy.libs``; None when there is no
    such library.  Products that go through BLAS round by core, so artifacts
    can differ between cores."""
    for path in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return None


def _plugin_gamma(transition_hat: np.ndarray) -> float:
    eps, mx = float(transition_hat.min()), float(transition_hat.max())
    if mx <= 0.0:
        return GAMMA_CAP
    return float(np.clip(1.0 - eps / mx, 0.0, GAMMA_CAP))


def _build_policy(plan: CellPlan):
    """The LinUCB learner (boxA or boxB) that ``plan`` names."""
    if plan.policy == "boxA":
        return BoxAPolicy(plan)
    if plan.policy == "boxB":
        return BoxBPolicy(plan)
    raise ConfigError(f"unknown policy '{plan.policy}'")


def draw_tape(config: ExperimentConfig, horizon: int, seed_index: int) -> EnvironmentTape:
    """The environment tape that every arm of the (horizon, seed) group faces."""
    env_ss = environment_seed_sequence(config.run.master_seed, horizon, seed_index)
    return sample_tape(config.params, config.reward, config.phi, horizon, seed=env_ss)


def play_arm(
    config: ExperimentConfig, policy_name: str, tape: EnvironmentTape, seed_index: int
) -> CellResult:
    """Play one arm on ``tape`` (the tape of its (horizon, seed) group) and
    collect its transcript; ``duration`` counts the arm alone.

    The random and oracle arms read neither rewards nor learner beliefs, so
    their actions are array expressions over the tape; the LinUCB learners
    play the rows ``b_t (x) phi(a, x_t)`` in blocks of rounds.
    """
    start = time.perf_counter()
    plan = config.plan(policy_name, tape.contexts.size)
    horizon = plan.horizon
    policy_ss, estimator_ss = learner_seed_sequence(
        config.run.master_seed, policy_name, horizon, seed_index
    ).spawn(2)
    refit_failures, final_estimate, beliefs = 0, None, None
    if policy_name == "random":
        actions = np.random.default_rng(policy_ss).integers(
            config.phi.num_actions, size=horizon
        )
    elif policy_name == "oracle":
        actions = tape.scores.argmax(axis=1)
    else:
        policy = _build_policy(plan)
        # the learner's beliefs are functions of the contexts alone: fix them first
        plugin_gammas = {}
        if not plan.known_beliefs:
            schedule, refit_failures = refit_schedule(
                tape.contexts, plan.H, plan.X, plan.refit_every,
                seed=int(estimator_ss.generate_state(1)[0]),
            )
            beliefs = scheduled_beliefs(schedule, tape.contexts, plan.H)
            if schedule:
                final_estimate = schedule[-1][1].to_text()
            if config.run.plugin_gamma and policy_name == "boxA":
                # a kept estimate resets the same gamma: the stage width is unchanged
                plugin_gammas = {t: _plugin_gamma(est.transition_hat) for t, est in schedule}
        else:
            beliefs = tape.beliefs
        actions = np.empty(horizon, dtype=np.int64)
        phi = config.phi
        A, Hd = phi.num_actions, plan.H * plan.d
        # blocks of at most TILE_BYTES, cut where the plug-in gamma changes
        cap = max(1, TILE_BYTES // (8 * A * Hd))
        starts = sorted({*range(0, horizon, cap),
                         *(t - 1 for t in plugin_gammas if 1 <= t <= horizon)})
        for lo, hi in zip(starts, starts[1:] + [horizon]):
            if lo + 1 in plugin_gammas:
                policy.set_gamma(plugin_gammas[lo + 1])
            # one elementwise product: the rows b_t (x) phi(a, x_t) of every round
            table = phi.table[:, tape.contexts[lo:hi]].transpose(1, 0, 2)
            feats = (beliefs[lo:hi, None, :, None] * table[:, :, None, :]).reshape(hi - lo, A, Hd)
            block = actions[lo:hi] = policy.play(lo + 1, feats, tape.rewards[lo:hi])
            if block.min() < 0 or block.max() >= A:
                raise ShapeMismatch("an action outside the action set")

    rounds = np.arange(horizon)
    # pseudo-regret against the true belief, whatever the policy acted on;
    # cumsum adds left to right (np.sum's pairwise order can round differently)
    increments = tape.scores.max(axis=1) - tape.scores[rounds, actions]
    emit_oracle = config.run.emit_oracle_columns
    return CellResult(
        plan=plan,
        seed_index=seed_index,
        regret_total=float(np.cumsum(increments)[-1]),
        contexts=tape.contexts,
        actions=actions,
        rewards=tape.rewards[rounds, actions],
        increments=increments,
        refit_failures=refit_failures,
        duration=time.perf_counter() - start,
        estimate_text=final_estimate,
        hidden=tape.hidden if emit_oracle else None,
        true_beliefs=tape.beliefs if emit_oracle else None,
        learner_beliefs=beliefs if emit_oracle else None,
    )


def simulate_group(
    config: ExperimentConfig, horizon: int, seed_index: int, policies: Sequence[str]
) -> list[CellResult]:
    """Draw the (horizon, seed) tape once and play every arm of ``policies``
    on it, in the order given.  The tape draw is charged to the first arm's
    ``duration``."""
    start = time.perf_counter()
    tape = draw_tape(config, horizon, seed_index)
    drawn = time.perf_counter() - start
    results = [play_arm(config, name, tape, seed_index) for name in policies]
    results[0].duration += drawn
    return results


def simulate_cell(
    config: ExperimentConfig, policy_name: str, horizon: int, seed_index: int
) -> CellResult:
    """Run one (policy, horizon, seed) cell: the one-arm group."""
    return simulate_group(config, horizon, seed_index, [policy_name])[0]


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _tape_columns(result: CellResult, emit_oracle: bool) -> tuple[list, list]:
    """The columns every arm of a group takes from its tape, as one-pass
    iterators: ``t, x`` before the arm's own columns and, under
    ``emit_oracle``, ``h, b1..bH`` after them."""
    # .tolist() gives Python ints and floats, which render with str and repr
    head = [map(str, range(1, result.plan.horizon + 1)), map(str, result.contexts.tolist())]
    tail = []
    if emit_oracle:
        tail.append(map(str, result.hidden.tolist()))
        tail += [map(repr, col) for col in result.true_beliefs.T.tolist()]
    return head, tail


def _shared_tape_columns(result: CellResult, emit_oracle: bool) -> tuple[list, list]:
    """The tape columns rendered once, for every arm of a group of two or
    more: each row's ``"t,x"`` and, under ``emit_oracle``, ``"h,b1,...,bH"``."""
    return tuple([list(map(",".join, zip(*columns)))] if columns else []
                 for columns in _tape_columns(result, emit_oracle))


def _round_csv_text(result: CellResult, emit_oracle: bool, num_states: int,
                    tape_columns: tuple[list, list]) -> str:
    """One arm's per-round CSV: the group's ``tape_columns`` (from
    ``_tape_columns`` or ``_shared_tape_columns``) around the arm's own
    ``a, r, regret_inc`` and, under ``emit_oracle``, its ``b*_hat``."""
    head, tail = tape_columns
    header = ["t", "x", "a", "r", "regret_inc"]
    columns = [
        *head,
        map(str, result.actions.tolist()),
        map(repr, result.rewards.tolist()),
        map(repr, result.increments.tolist()),
        *tail,
    ]
    if emit_oracle:
        header += ["h"] + [f"b{h + 1}" for h in range(num_states)]
        header += [f"b{h + 1}_hat" for h in range(num_states)]
        if result.learner_beliefs is None:  # the baselines keep empty cells
            columns.append(itertools.repeat("," * (num_states - 1)))
        else:
            columns += [map(repr, col) for col in result.learner_beliefs.T.tolist()]
    # the closing "" ends the text in a newline without a copy of it
    return "\n".join(itertools.chain([",".join(header)], map(",".join, zip(*columns)), [""]))


def _cell_filename(policy: str, horizon: int, seed_index: int) -> str:
    return f"{policy}_T{horizon}_s{seed_index}.csv"


def run_experiment(config: ExperimentConfig, echo=print) -> int:
    """Execute the (policy x horizon x seed) grid and write artifacts.

    Each (horizon, seed) group draws its tape once and plays the policies on
    it in the configured order; with ``workers > 1`` the groups, not the
    cells, go to the process pool.  ``summary.csv`` and ``manifest.json``
    list the cells policy-major whatever the order groups complete in.
    Artifacts are written atomically (temp file + rename); a crash leaves a
    ``FAILED`` marker next to whatever was completed.  An earlier run's
    ``FAILED``, ``summary.csv`` and ``manifest.json`` are removed first.  Returns the process
    exit code: 0 on success, 3 on numerical failure.
    """
    out_dir = config.run.out
    os.makedirs(out_dir, exist_ok=True)
    from .hmm import validate

    policies = config.policy.policies
    uses_spectral = config.policy.beliefs == "spectral" and any(
        name in LEARNERS for name in policies
    )
    if uses_spectral and not validate(config.params).is_stationary_init:
        # the spectral moment equations assume a stationary start; estimates
        # on a non-stationary prefix are biased early, so flag it (no error)
        echo("warning: initial distribution is not stationary for M; "
             "spectral estimates assume a stationary context stream")
    groups = list(itertools.product(config.run.horizons, config.run.seeds))
    # an earlier run's whole-run files would misreport this one
    for stale in ("FAILED", "summary.csv", "manifest.json"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, stale))
    _atomic_write(os.path.join(out_dir, "config_snapshot.ini"), config_snapshot(config))

    num_states = config.params.num_states
    emit_oracle = config.run.emit_oracle_columns
    # per written cell, by file name; a transcript is dropped once on disk
    summary_rows: dict[str, str] = {}
    durations: dict[str, float] = {}
    plans: dict[str, dict] = {}
    refit_failures: dict[str, int] = {}

    def write_group(results: list[CellResult]) -> None:
        # single-writer funnel: completed cells land on disk immediately, so
        # an interrupted grid preserves them next to the FAILED marker;
        # the tape's columns are rendered once when more than one arm reads them
        tape_columns = (_shared_tape_columns if len(results) > 1 else _tape_columns)(
            results[0], emit_oracle)
        for result in results:
            plan = result.plan
            name = _cell_filename(plan.policy, plan.horizon, result.seed_index)
            # unnamed, one arm's CSV text is freed before the next arm's is built
            _atomic_write(os.path.join(out_dir, name),
                          _round_csv_text(result, emit_oracle, num_states, tape_columns))
            if result.estimate_text is not None:
                _atomic_write(
                    os.path.join(out_dir, name[:-4] + ".estimate.txt"),
                    result.estimate_text,
                )
            summary_rows[name] = (
                f"{plan.policy},{plan.horizon},{result.seed_index},"
                f"{result.regret_total!r},{plan.lam!r},{plan.ell},"
                f"{config.policy.beliefs}"
            )
            durations[name] = result.duration
            plans[name] = asdict(plan)
            refit_failures[name] = result.refit_failures
            echo(
                f"{plan.policy} T={plan.horizon} seed={result.seed_index} "
                f"R_T={result.regret_total:.4f} ({result.duration:.2f}s)"
            )

    workers = min(config.run.workers, len(groups))
    try:
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for results in pool.map(simulate_group, itertools.repeat(config),
                                        *zip(*groups), itertools.repeat(policies)):
                    write_group(results)
        else:
            for horizon, seed_index in groups:
                write_group(simulate_group(config, horizon, seed_index, policies))
    except HmmBanditsError as exc:
        _atomic_write(
            os.path.join(out_dir, "FAILED"),
            f"{type(exc).__name__}: {exc}\n",
        )
        echo(f"FAILED: {type(exc).__name__}: {exc}")
        return 3

    names = [_cell_filename(*cell) for cell in itertools.product(
        policies, config.run.horizons, config.run.seeds)]
    summary_lines = ["policy,T,seed,R_T,lambda,ell,beliefs"] + [summary_rows[n] for n in names]
    _atomic_write(os.path.join(out_dir, "summary.csv"), "\n".join(summary_lines) + "\n")
    manifest = {
        "version": __version__,
        "blas_core": blas_core(),
        "cells": len(names),
        "durations": {n: round(durations[n], 6) for n in names},
        "plans": {n: plans[n] for n in names},
        "refit_failures": {n: refit_failures[n] for n in names if refit_failures[n]},
    }
    _atomic_write(
        os.path.join(out_dir, "manifest.json"), json.dumps(manifest, indent=2) + "\n"
    )
    return 0


def _orient_to_truth(estimate, transition: np.ndarray, emission: np.ndarray):
    """Relabel the estimate by the permutation identifying the true states
    (minimizing total Frobenius error); returns (estimate, M_err, E_err).

    Estimated labels are arbitrary, so all truth-facing diagnostics are
    reported under the identifying permutation."""
    H = transition.shape[0]
    best = None
    for perm in itertools.permutations(range(H)):
        idx = list(perm)
        m_err = float(
            np.linalg.norm(estimate.transition_hat[np.ix_(idx, idx)] - transition)
        )
        e_err = float(np.linalg.norm(estimate.emission_hat[:, idx] - emission))
        if best is None or m_err + e_err < best[1] + best[2]:
            best = (idx, m_err, e_err)
    idx, m_err, e_err = best
    return relabel(estimate, idx), m_err, e_err


def estimation_curves(config: ExperimentConfig, echo=print) -> list:
    """Spectral estimation error curves: mean over seeds, per horizon checkpoint.

    Returns rows ``(t, frobenius_M_err, frobenius_E_err, median_l1_belief_gap)``
    where the belief gap is the median over the second half of the prefix.
    """
    from .hmm import filter_trace, sample_trajectory

    params = config.params
    H, X = params.num_states, params.num_contexts
    # not through postprocess: renormalizing a row of 1/n moves its last bit
    # for some n (6, 7, 13, ...), and the curves pin these values
    uniform_estimate = EstimatedHmm(np.full((H, H), 1.0 / H), np.full((X, H), 1.0 / X))
    checkpoints = sorted(config.run.horizons)
    if checkpoints[0] < 3:
        raise ConfigError(f"'horizons' in [run] must be >= 3 for estimate "
                          f"(a moment triple needs 3 contexts), got {checkpoints[0]}")
    if H > X:
        raise ConfigError(f"'H' in [hmm] must be <= X for estimate (the spectral "
                          f"method needs rank-H moments), got H = {H}, X = {X}")
    longest = checkpoints[-1]
    sums = np.zeros((len(checkpoints), 3))
    for seed_index in config.run.seeds:
        ss = learner_seed_sequence(
            config.run.master_seed, "estimate", longest, seed_index
        )
        traj_seed = int(ss.generate_state(1)[0])
        trajectory = sample_trajectory(params, longest, seed=traj_seed)
        # every checkpoint prefix extends the last: filter the truth once
        truth = filter_trace(params, trajectory.contexts)
        estimate = None
        for k, t in enumerate(checkpoints):
            prefix = trajectory.contexts[:t]
            moments = accumulate_moments(prefix, params.num_contexts)
            try:
                fresh = spectral_estimate(moments, params.num_states, seed=traj_seed + k)
            except EstimationFailed:
                # small-sample pathology: score the checkpoint as the
                # no-information estimate and keep the curve well-defined
                fresh = uniform_estimate
            estimate = align(estimate, fresh)
            oriented, m_err, e_err = _orient_to_truth(
                estimate, params.transition, params.emission
            )
            gaps = belief_gaps(truth[:t], [(1, oriented)], prefix)
            gap = float(np.median(gaps[t // 2 :]))
            sums[k] += (m_err, e_err, gap)
    n = len(config.run.seeds)
    rows = [
        (t, sums[k, 0] / n, sums[k, 1] / n, sums[k, 2] / n)
        for k, t in enumerate(checkpoints)
    ]
    for t, m_err, e_err, gap in rows:
        echo(f"t={t} M_err={m_err:.5f} E_err={e_err:.5f} belief_gap={gap:.5f}")
    return rows


def write_estimation_csv(rows: list, path: str) -> None:
    lines = ["t,frobenius_M_err,frobenius_E_err,median_l1_belief_gap"]
    for t, m_err, e_err, gap in rows:
        lines.append(f"{t},{m_err!r},{e_err!r},{gap!r}")
    _atomic_write(path, "\n".join(lines) + "\n")
