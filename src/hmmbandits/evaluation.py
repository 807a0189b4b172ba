"""Log-log regret-rate fits against horizon grids, the summary reader that
feeds them, and the executable-lemma suite (elliptic potentials, determinant
identities, HMM forgetting) used as randomized self-checks: every check
encodes a proved statement, so any violation indicates an implementation bug.
Each check returns a Python ``bool``; the three ridge checks read every Gram
prefix from one accumulation, with one stacked ``solve``, ``inv`` or ``det``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InsufficientData, ShapeMismatch, SingularA
from .hmm import HmmParams, check_forgetting, forgetting_rate


@dataclass(frozen=True)
class RateFit:
    """Least-squares exponent of ``R_T ~ T^slope`` over a horizon grid."""

    horizons: tuple
    final_regrets: tuple
    slope: float
    slope_ci: tuple


def fit_rate(
    regrets_by_horizon: dict,
    n_boot: int = 2000,
    ci: float = 0.90,
    seed: int = 0,
) -> RateFit:
    """OLS of ``log mean R_T`` on ``log T`` with a bootstrap slope interval.

    ``regrets_by_horizon`` maps each horizon to the per-seed final regrets
    (seeds aligned across horizons; the bootstrap resamples seed indices).
    """
    horizons = sorted(regrets_by_horizon)
    if len(horizons) < 4:
        raise InsufficientData("rate fits need at least 4 horizons")
    table = []
    for T in horizons:
        vals = np.asarray(regrets_by_horizon[T], dtype=float)
        if vals.size < 10:
            raise InsufficientData("rate fits need at least 10 seeds per horizon")
        table.append(vals)
    n_seeds = min(len(v) for v in table)
    table = np.stack([v[:n_seeds] for v in table])  # (n_horizons, n_seeds)
    means = table.mean(axis=1)
    if np.any(means <= 0):
        raise InsufficientData("mean regrets must be positive for a log-log fit")
    log_t = np.log(np.asarray(horizons, dtype=float))

    def slope_of(mean_regrets: np.ndarray) -> float:
        log_r = np.log(mean_regrets)
        return float(np.polyfit(log_t, log_r, 1)[0])

    slope = slope_of(means)
    rng = np.random.default_rng(seed)
    boot = np.empty(n_boot)
    for b in range(n_boot):
        idx = rng.integers(n_seeds, size=n_seeds)
        resampled = table[:, idx].mean(axis=1)
        resampled = np.maximum(resampled, 1e-300)
        boot[b] = slope_of(resampled)
    lo, hi = np.quantile(boot, [(1 - ci) / 2, 1 - (1 - ci) / 2])
    return RateFit(
        horizons=tuple(horizons),
        final_regrets=tuple(float(m) for m in means),
        slope=slope,
        slope_ci=(float(lo), float(hi)),
    )


def read_summaries(results_dir: str) -> dict:
    """Final regrets ``{policy: {T: [R_T, ...]}}`` from every ``summary.csv``
    under ``results_dir`` (directories in sorted order), in the shape
    :func:`fit_rate` takes per policy; blank lines are skipped.  A line that
    does not parse raises ``ConfigError``, and so does a policy whose rows
    carry two values of the ``beliefs`` column (a summary without it has none)."""
    groups: dict = {}
    modes: dict = {}  # policy -> (beliefs, the summary it was first read from)
    for root, dirs, files in os.walk(results_dir):
        dirs.sort()  # os.walk descends into dirs in the order left here
        if "summary.csv" not in files:
            continue
        path = os.path.join(root, "summary.csv")
        with open(path, "r", encoding="utf-8") as fh:
            lineno = 1
            try:
                header = fh.readline().strip().split(",")
                idx = [header.index(name) for name in ("policy", "T", "R_T")]
                for lineno, line in enumerate(fh, start=2):
                    if line.strip():
                        parts = line.strip().split(",")
                        policy, horizon, regret = (parts[i] for i in idx)
                        if "beliefs" in header:
                            mode = parts[header.index("beliefs")]
                            seen, first = modes.setdefault(policy, (mode, path))
                            if seen != mode:
                                raise ConfigError(f"policy {policy} has beliefs = {seen} in "
                                                  f"{first} and {mode} in {path}")
                        groups.setdefault(policy, {}).setdefault(int(horizon), []).append(
                            float(regret))
            except (IndexError, ValueError) as exc:
                raise ConfigError(f"{path}, line {lineno}: {exc}") from exc
    return groups


def _gram_prefixes(ys: np.ndarray, lam: float) -> np.ndarray:
    """The (T + 1, d, d) Gram prefixes ``V_0 = lam I``, ``V_t = V_{t-1} + y_t
    y_t^T`` in one ``np.add.accumulate``: the bits of ``V += np.outer(y, y)``."""
    outers = ys[:, :, None] * ys[:, None, :]
    return np.add.accumulate(np.concatenate([lam * np.eye(ys.shape[1])[None], outers]))


def _total(terms: np.ndarray) -> float:
    """The terms added left to right from 0.0, as a running ``total +=``."""
    return float(np.add.accumulate(np.concatenate(([0.0], terms)))[-1])


def check_elliptic_potential(vectors: np.ndarray, lam: float) -> bool:
    """``sum_t ||V_{t-1}^{-1/2} y_t|| <= sqrt(2 d T ln(1 + T/(d lam)))``
    for unit-norm-bounded vectors and ``lam >= 1`` (one stacked ``solve``)."""
    ys = np.asarray(vectors, dtype=float)
    if lam < 1.0:
        raise ShapeMismatch("lam must be >= 1")
    T, d = ys.shape
    solved = np.linalg.solve(_gram_prefixes(ys, lam)[:-1], ys[:, :, None])[:, :, 0]
    total = _total(np.sqrt(np.maximum(np.einsum("td,td->t", ys, solved), 0.0)))
    bound = math.sqrt(2.0 * d * T * math.log(1.0 + T / (d * lam)))
    return total <= bound + 1e-9


def check_staged_elliptic_potential(
    vectors: np.ndarray, lam: float, ell: int, num_stages: int
) -> bool:
    """Staged variant with the Gram frozen at stage boundaries:
    ``sum_s sum_{tau in stage s} ||V_{(s-1) ell}^{-1} y_tau||`` is at most
    ``(1/sqrt(lam)) * sqrt(2 d S ell (1 + ell/lam) ln(1 + S ell/(d lam)))``
    (one stacked ``inv`` of every ``ell``-th Gram prefix)."""
    ys = np.asarray(vectors, dtype=float)
    if lam < 1.0:
        raise ShapeMismatch("lam must be >= 1")
    if ys.shape[0] != num_stages * ell:
        raise ShapeMismatch("need exactly S * ell vectors")
    d = ys.shape[1]
    frozen_inv = np.linalg.inv(_gram_prefixes(ys, lam)[:-1:ell])
    blocks = np.matmul(ys.reshape(num_stages, ell, d), frozen_inv.swapaxes(1, 2))
    total = _total(np.linalg.norm(blocks, axis=2).sum(axis=1))
    bound = math.sqrt(
        2.0 * d * num_stages * ell * (1.0 + ell / lam)
        * math.log(1.0 + num_stages * ell / (d * lam))
    ) / math.sqrt(lam)
    return total <= bound + 1e-9


def check_matrix_determinant_lemma(
    A: np.ndarray, y: np.ndarray, y_prime: np.ndarray
) -> bool:
    """Rank-one determinant identity:
    ``det(A + y' y^T) = (1 + y^T A^{-1} y') det(A)`` within relative 1e-8."""
    A = np.asarray(A, dtype=float)
    det_a = np.linalg.det(A)
    if abs(det_a) < 1e-300 or np.linalg.cond(A) > 1e14:
        raise SingularA("A must be invertible")
    left = np.linalg.det(A + np.outer(y_prime, y))
    right = (1.0 + float(y @ np.linalg.solve(A, y_prime))) * det_a
    scale = max(abs(left), abs(right), 1e-300)
    return bool(abs(left - right) / scale <= 1e-8)


def check_determinant_trace(vectors: np.ndarray, lam: float) -> bool:
    """``det(V_t) <= (lam + t/d)^d`` along the Gram prefixes (one stacked ``det``)."""
    ys = np.asarray(vectors, dtype=float)
    T, d = ys.shape
    dets = np.linalg.det(_gram_prefixes(ys, lam)[1:])
    bounds = (lam + np.arange(1, T + 1) / d) ** d * (1.0 + 1e-9)
    return not (dets > bounds).any()


def _random_unit_bounded(rng: np.random.Generator, T: int, d: int) -> np.ndarray:
    ys = rng.normal(size=(T, d))
    norms = np.maximum(np.linalg.norm(ys, axis=1), 1e-12)
    scales = rng.uniform(0.0, 1.0, size=T) / norms
    return ys * scales[:, None]


def _random_mixing_hmm(rng: np.random.Generator) -> HmmParams:
    H = int(rng.integers(2, 4))
    X = int(rng.integers(2, 4))
    M = rng.uniform(0.2, 1.0, size=(H, H))
    M /= M.sum(axis=1, keepdims=True)
    E = rng.uniform(0.05, 1.0, size=(X, H))
    E /= E.sum(axis=0, keepdims=True)
    pi = rng.uniform(0.1, 1.0, size=H)
    pi /= pi.sum()
    return HmmParams(
        num_states=H, num_contexts=X, initial_dist=pi, transition=M, emission=E
    )


def run_lemma_trials(trials: int, seed: int = 0) -> dict:
    """Randomized trial suite for the five lemma checks (forgetting over context
    sequences up to length 5); returns pass counts as ints."""
    rng = np.random.default_rng(seed)
    results = {
        "elliptic_potential": 0,
        "staged_elliptic_potential": 0,
        "matrix_determinant": 0,
        "determinant_trace": 0,
        "forgetting": 0,
    }
    for _ in range(trials):
        d = int(rng.integers(1, 9))
        T = int(rng.integers(1, 513))
        lam = float(rng.uniform(1.0, 10.0))
        ys = _random_unit_bounded(rng, T, d)
        results["elliptic_potential"] += check_elliptic_potential(ys, lam)
        results["determinant_trace"] += check_determinant_trace(ys, lam)

        S = int(rng.integers(1, 17))
        ell = int(rng.integers(1, 33))
        ys_staged = _random_unit_bounded(rng, S * ell, d)
        results["staged_elliptic_potential"] += check_staged_elliptic_potential(
            ys_staged, lam, ell, S
        )

        k = int(rng.integers(1, 6))
        A = rng.normal(size=(k, k)) + k * np.eye(k)
        results["matrix_determinant"] += check_matrix_determinant_lemma(
            A, rng.normal(size=k), rng.normal(size=k)
        )

        params = _random_mixing_hmm(rng)
        gamma = forgetting_rate(params)
        results["forgetting"] += check_forgetting(params, gamma, 5)
    results["trials"] = trials
    return results
