"""Log-log regret-rate fits against horizon grids, the summary reader that
feeds them, and the executable-lemma suite (elliptic potentials, determinant
identities, HMM forgetting) used as randomized self-checks: every check
encodes a proved statement, so any violation indicates an implementation bug.
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
    under ``results_dir``, in the shape :func:`fit_rate` takes per policy; blank
    lines are skipped, and a line that does not parse raises ``ConfigError``."""
    groups: dict = {}
    for root, _, files in os.walk(results_dir):
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
                        groups.setdefault(policy, {}).setdefault(int(horizon), []).append(
                            float(regret))
            except (IndexError, ValueError) as exc:
                raise ConfigError(f"{path}, line {lineno}: {exc}") from exc
    return groups


def check_elliptic_potential(vectors: np.ndarray, lam: float) -> bool:
    """``sum_t ||V_{t-1}^{-1/2} y_t|| <= sqrt(2 d T ln(1 + T/(d lam)))``
    for unit-norm-bounded vectors and ``lam >= 1``."""
    ys = np.asarray(vectors, dtype=float)
    if lam < 1.0:
        raise ShapeMismatch("lam must be >= 1")
    T, d = ys.shape
    V = lam * np.eye(d)
    total = 0.0
    for t in range(T):
        y = ys[t]
        total += math.sqrt(max(float(y @ np.linalg.solve(V, y)), 0.0))
        V += np.outer(y, y)
    bound = math.sqrt(2.0 * d * T * math.log(1.0 + T / (d * lam)))
    return total <= bound + 1e-9


def check_staged_elliptic_potential(
    vectors: np.ndarray, lam: float, ell: int, num_stages: int
) -> bool:
    """Staged variant with the Gram frozen at stage boundaries:
    ``sum_s sum_{tau in stage s} ||V_{(s-1) ell}^{-1} y_tau||`` is at most
    ``(1/sqrt(lam)) * sqrt(2 d S ell (1 + ell/lam) ln(1 + S ell/(d lam)))``."""
    ys = np.asarray(vectors, dtype=float)
    if lam < 1.0:
        raise ShapeMismatch("lam must be >= 1")
    if ys.shape[0] != num_stages * ell:
        raise ShapeMismatch("need exactly S * ell vectors")
    d = ys.shape[1]
    V = lam * np.eye(d)
    total = 0.0
    for s in range(num_stages):
        V_frozen_inv = np.linalg.inv(V)
        block = ys[s * ell : (s + 1) * ell]
        total += float(np.linalg.norm(block @ V_frozen_inv.T, axis=1).sum())
        V += block.T @ block
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
    return abs(left - right) / scale <= 1e-8


def check_determinant_trace(vectors: np.ndarray, lam: float) -> bool:
    """``det(V_t) <= (lam + t/d)^d`` along the accumulated Gram sequence."""
    ys = np.asarray(vectors, dtype=float)
    T, d = ys.shape
    V = lam * np.eye(d)
    for t in range(1, T + 1):
        V += np.outer(ys[t - 1], ys[t - 1])
        if np.linalg.det(V) > (lam + t / d) ** d * (1.0 + 1e-9):
            return False
    return True


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


def run_lemma_trials(trials: int, seed: int = 0, forgetting_gap: int = 5) -> dict:
    """Randomized trial suite for the four lemma checks; returns pass counts."""
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
        results["forgetting"] += check_forgetting(params, gamma, forgetting_gap)
    results["trials"] = trials
    return results
