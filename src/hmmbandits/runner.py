"""Experiment orchestration: one environment tape per (horizon, seed) group,
played by every policy arm of the grid, deterministic seed derivation, atomic
artifact writing, and the estimation error-curve diagnostic behind the
``estimate`` subcommand, which runs the estimator stages of
:mod:`hmmbandits.spectral` stacked over a seed's checkpoints.

A group is the runner's one record: its shown tape columns and its arms' transcripts.
The CSVs of a group are written together, a block of rows at a time, each
through a temporary file renamed into place at the end; every group renders a
block's tape columns (``t``, ``x`` and, under ``emit_oracle_columns``, ``h``,
``b1..bH``) once, for all its arms.  A cell's ``duration`` counts its play alone
(and the first arm's, the tape draw); writing is not counted.  The process
pool, and with it ``multiprocessing``, is imported only when ``workers > 1``.
"""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import json
import os
import re
import time
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .beliefs import belief_gaps, refit_schedule, scheduled_beliefs
from .config import KNOWN_POLICIES, LEARNERS, CellPlan, ExperimentConfig, config_snapshot
from .environment import EnvironmentTape, sample_tape
from .errors import ConfigError, EstimationFailed, HmmBanditsError, ShapeMismatch
from .hmm import TILE_BYTES, filter_trace, sample_trajectory, validate
from .policies import BoxAPolicy, BoxBPolicy
from .spectral import (EstimatedHmm, align, prefix_tables, relabel, seeded_estimates,
                       subspaces)

GAMMA_CAP = 1.0 - 1e-6
# the per-cell files a run writes: <policy>_T<horizon>_s<seed>.csv and .estimate.txt
CELL_FILE = re.compile(rf"({'|'.join(KNOWN_POLICIES)})_T[0-9]+_s[0-9]+\.(csv|estimate\.txt)")


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
    """One arm's transcript as columns, with the plan it played; the tape of
    its group holds the columns every arm shares.  ``learner_beliefs`` only
    under ``emit_oracle_columns``, and for the learners only."""

    plan: CellPlan
    seed_index: int
    regret_total: float
    actions: np.ndarray
    rewards: np.ndarray
    increments: np.ndarray
    refit_failures: int
    refit_reruns: int
    duration: float
    estimate_text: str | None = None
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
    refit_failures = refit_reruns = 0
    final_estimate = beliefs = None
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
            schedule, refit_failures, refit_reruns = refit_schedule(
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
    return CellResult(
        plan=plan,
        seed_index=seed_index,
        regret_total=float(np.cumsum(increments)[-1]),
        actions=actions,
        rewards=tape.rewards[rounds, actions],
        increments=increments,
        refit_failures=refit_failures,
        refit_reruns=refit_reruns,
        duration=time.perf_counter() - start,
        estimate_text=final_estimate,
        learner_beliefs=beliefs if config.run.emit_oracle_columns else None,
    )


def simulate_group(
    config: ExperimentConfig, horizon: int, seed_index: int, policies: Sequence[str]
) -> tuple[dict[str, np.ndarray], list[CellResult]]:
    """The (horizon, seed) group: the columns of its tape, drawn once, that the CSVs
    show, by name, and no other, as a worker sends them back (``contexts``; ``hidden``
    and ``beliefs`` under ``emit_oracle_columns``); and the result of each arm of
    ``policies`` played on it, in order.  The draw is charged to the first arm."""
    start = time.perf_counter()
    tape = draw_tape(config, horizon, seed_index)
    drawn = time.perf_counter() - start
    results = [play_arm(config, name, tape, seed_index) for name in policies]
    results[0].duration += drawn
    shown = ("contexts", "hidden", "beliefs")[:3 if config.run.emit_oracle_columns else 1]
    return {name: getattr(tape, name) for name in shown}, results


@contextlib.contextmanager
def _atomic_files(paths: Sequence[str]):
    """Open ``<path>.tmp-<pid>`` for each of ``paths``; rename them all into
    place once the block exits, or remove them all if it raises."""
    tmps = [f"{path}.tmp-{os.getpid()}" for path in paths]
    try:
        with contextlib.ExitStack() as stack:
            yield [stack.enter_context(open(tmp, "w", encoding="utf-8", newline="\n"))
                   for tmp in tmps]
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
        raise


def _atomic_write(path: str, text: str) -> None:
    with _atomic_files([path]) as (fh,):
        fh.write(text)


def _tape_columns(tape: dict, emit_oracle: bool, rows: slice) -> list[list[str]]:
    """The tape columns of ``rows`` rendered once, for every arm of a group: each
    row's ``"t,x"``, before the arm's own columns, and under ``emit_oracle`` its
    ``"h,b1,...,bH"``, after them."""
    # .tolist() gives Python ints and floats, which render with str and repr
    parts = [[map(str, range(1, tape["contexts"].size + 1)[rows]),
              map(str, tape["contexts"][rows].tolist())]]
    if emit_oracle:
        parts.append([map(str, tape["hidden"][rows].tolist()),
                      *(map(repr, col) for col in tape["beliefs"][rows].T.tolist())])
    return [list(map(",".join, zip(*columns))) for columns in parts]


def _csv_rows(result: CellResult, emit_oracle: bool, num_states: int,
              tape_columns: list[list[str]], rows: slice) -> str:
    """``rows`` of one arm's per-round CSV, each ending in a newline: the group's
    ``tape_columns`` of those rows around the arm's own ``a, r, regret_inc``
    and, under ``emit_oracle``, its ``b*_hat``."""
    head, *tail = tape_columns
    columns = [
        head,
        map(str, result.actions[rows].tolist()),
        map(repr, result.rewards[rows].tolist()),
        map(repr, result.increments[rows].tolist()),
        *tail,
    ]
    if emit_oracle:
        if result.learner_beliefs is None:  # the baselines keep empty cells
            columns.append(itertools.repeat("," * (num_states - 1)))
        else:
            columns += [map(repr, col) for col in result.learner_beliefs[rows].T.tolist()]
    # the closing "" ends the block in a newline without a copy of it
    return "\n".join(itertools.chain(map(",".join, zip(*columns)), [""]))


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
    ``FAILED``, ``summary.csv``, ``manifest.json`` and per-cell files
    (:data:`CELL_FILE`) are removed first.  Returns the process exit code: 0
    on success, 3 on numerical failure.
    """
    out_dir = config.run.out
    os.makedirs(out_dir, exist_ok=True)
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
    # an earlier run's files would misreport this one
    for stale in os.listdir(out_dir):
        if stale in ("FAILED", "summary.csv", "manifest.json") or CELL_FILE.fullmatch(stale):
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
    refit_reruns: dict[str, int] = {}

    header = ["t", "x", "a", "r", "regret_inc"]
    if emit_oracle:
        header += ["h", *(f"b{h + 1}{hat}" for hat in ("", "_hat") for h in range(num_states))]

    def write_group(tape: dict, results: list[CellResult]) -> None:
        # single-writer funnel: completed groups land on disk at once, so an
        # interrupted grid keeps them next to the FAILED marker
        names = [_cell_filename(r.plan.policy, r.plan.horizon, r.seed_index) for r in results]
        step = max(1, TILE_BYTES // 64)  # rows of about 64 bytes of text
        with _atomic_files([os.path.join(out_dir, name) for name in names]) as files:
            for fh in files:
                fh.write(",".join(header) + "\n")
            for lo in range(0, tape["contexts"].size, step):
                rows = slice(lo, lo + step)
                columns = _tape_columns(tape, emit_oracle, rows)
                for fh, result in zip(files, results):
                    fh.write(_csv_rows(result, emit_oracle, num_states, columns, rows))
        for name, result in zip(names, results):
            plan = result.plan
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
            refit_reruns[name] = result.refit_reruns
            echo(
                f"{plan.policy} T={plan.horizon} seed={result.seed_index} "
                f"R_T={result.regret_total:.4f} ({result.duration:.2f}s)"
            )

    workers = min(config.run.workers, len(groups))
    pool = None
    if workers > 1:  # only a pool needs multiprocessing, so only a pool imports it
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers)
    try:
        with pool or contextlib.nullcontext():
            for group in (pool.map if pool else map)(simulate_group, itertools.repeat(config),
                                                     *zip(*groups), itertools.repeat(policies)):
                write_group(*group)
                del group  # a written group is not held while the next one plays
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
        "refit_reruns": {n: refit_reruns[n] for n in names if refit_reruns[n]},
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
    Each seed's checkpoint prefixes take their moments from one running
    count and both estimator stages stacked (``spectral.prefix_tables``,
    ``subspaces`` and ``seeded_estimates``); checkpoint ``k`` draws its
    rotations from the trajectory seed plus ``k``.
    """
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
        tiles = prefix_tables(trajectory.contexts, X, checkpoints)
        stages = [stage for tables in tiles for stage in subspaces(*tables, H)]
        fits = seeded_estimates(stages, [traj_seed + k for k in range(len(stages))])
        estimate = None
        for k, (t, fresh) in enumerate(zip(checkpoints, fits)):
            prefix = trajectory.contexts[:t]
            try:
                if not isinstance(fresh, EstimatedHmm):
                    raise fresh
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
