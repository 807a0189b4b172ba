import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hmmbandits.config import ExperimentConfig, PolicySettings, RunSettings
from hmmbandits.hmm import HmmParams
from hmmbandits.runner import simulate_group
from hmmbandits.spectral import (EstimatedHmm, postprocess, prefix_tables, seeded_estimates,
                                 subspaces)


@pytest.fixture
def two_state_params() -> HmmParams:
    """Small instance used in filter worked examples."""
    return HmmParams(
        num_states=2,
        num_contexts=2,
        initial_dist=np.array([0.5, 0.5]),
        transition=np.array([[0.9, 0.1], [0.2, 0.8]]),
        emission=np.array([[0.8, 0.3], [0.2, 0.7]]),
    )


@pytest.fixture
def reference_params() -> HmmParams:
    """Well-conditioned H=2, X=4 instance satisfying the spectral regularity
    conditions (all matrix entries positive, stationary start)."""
    return HmmParams(
        num_states=2,
        num_contexts=4,
        initial_dist=np.array([0.5, 0.5]),
        transition=np.array([[0.7, 0.3], [0.3, 0.7]]),
        emission=np.array([[0.4, 0.1], [0.3, 0.2], [0.2, 0.3], [0.1, 0.4]]),
    )


def random_hmm(rng: np.random.Generator, H: int, X: int, min_entry: float = 0.0,
               stationary: bool = False) -> HmmParams:
    """Random instance; positive ``min_entry`` keeps it mixing."""
    M = rng.uniform(min_entry, 1.0, size=(H, H)) + min_entry
    M /= M.sum(axis=1, keepdims=True)
    E = rng.uniform(min_entry, 1.0, size=(X, H)) + min_entry
    E /= E.sum(axis=0, keepdims=True)
    if stationary:
        vals, vecs = np.linalg.eig(M.T)
        pi = np.abs(np.real(vecs[:, np.argmin(np.abs(vals - 1.0))]))
        pi /= pi.sum()
    else:
        pi = rng.uniform(0.05, 1.0, size=H)
        pi /= pi.sum()
    return HmmParams(num_states=H, num_contexts=X, initial_dist=pi,
                     transition=M, emission=E)


def sparse_estimate(rng, H: int, X: int, zero_row: bool):
    """Estimate-like parameters with zero entries (as clipping leaves them):
    a zero emission row makes that context impossible under every state."""
    M = rng.uniform(size=(H, H)) * (rng.uniform(size=(H, H)) > 0.2)
    M[np.arange(H), rng.integers(H, size=H)] += 0.1
    M /= M.sum(axis=1, keepdims=True)
    E = rng.uniform(size=(X, H)) * (rng.uniform(size=(X, H)) > 0.3)
    if zero_row:
        E[rng.integers(X)] = 0.0
    live = np.flatnonzero(E.sum(axis=1) > 0) if zero_row else np.arange(X)
    E[rng.choice(live) if live.size else 0] += 0.1
    E /= E.sum(axis=0, keepdims=True)
    return M, E


def cell_config(params, spec, phi, horizon, policies=("random",), master_seed=5,
                emit_oracle_columns=False, beliefs="spectral"):
    return ExperimentConfig(
        params=params, reward=spec, phi=phi,
        policy=PolicySettings(policies=policies, beliefs=beliefs),
        run=RunSettings(horizons=(horizon,), seeds=(0,), master_seed=master_seed,
                        emit_oracle_columns=emit_oracle_columns),
    )


def simulate_cell(config, policy_name: str, horizon: int, seed_index: int):
    """The result of one (policy, horizon, seed) cell: the arm of a one-arm group."""
    return simulate_group(config, horizon, seed_index, [policy_name])[1][0]


def stream_moments(contexts, num_contexts: int):
    """The moment tables ``(p31, p32, p312)`` of a whole context stream: its
    one prefix through ``spectral.prefix_tables``."""
    tables = next(prefix_tables(contexts, num_contexts, [len(contexts)]))
    return tuple(table[0] for table in tables)


def one_postprocess(transition, emission):
    """``spectral.postprocess`` of one raw ``(M, E)``, a stack of one (the
    inputs' layouts kept); raises its ``NonFinite``."""
    (result,) = postprocess(np.asarray(transition, dtype=float)[None],
                            np.asarray(emission, dtype=float)[None])
    if not isinstance(result, EstimatedHmm):
        raise result
    return result


def one_set_estimate(tables, H: int, seed: int):
    """The package's estimate of one moment set ``(p31, p32, p312)``: a stack
    of one through ``spectral.subspaces``, then its seeded stage; raises the
    stage's failure."""
    (result,) = seeded_estimates(subspaces(*(table[None] for table in tables), H), [seed])
    if not isinstance(result, EstimatedHmm):
        raise result
    return result


def scripted_policy(choose, log):
    """A stand-in for ``runner._build_policy``: a learner arm then runs a
    scripted policy, where ``choose(t)`` picks the action.  For each round
    ``t`` of a block, ``play`` appends ``("act", t, feats)`` to ``log`` and,
    for an action inside the action set, ``("update", t, a, reward, v)`` with
    the chosen row and reward, as a round-by-round learner would see them.
    Run it on a ``beliefs = "oracle"`` config, so the arm acts on the tape's
    beliefs."""

    class Scripted:
        def play(self, first_round, feats, rewards):
            actions = []
            for t, block, row in zip(itertools.count(first_round), feats, rewards.tolist()):
                log.append(("act", t, np.array(block)))
                a = choose(t)
                if 0 <= a < len(block):
                    log.append(("update", t, a, row[a], np.array(block[a])))
                actions.append(a)
            return np.array(actions, dtype=np.int64)

    return lambda plan: Scripted()


TESTS_DIR = Path(__file__).resolve().parent


def run_under_blas_core(script: str, core: str) -> bytes:
    """Standard output of ``python -c script`` with OpenBLAS forced onto the
    kernel ``core`` (``OPENBLAS_CORETYPE``), importable: the package under
    ``src/`` and the test helpers (``conftest``, ``oracles``)."""
    paths = (str(TESTS_DIR.parent / "src"), str(TESTS_DIR), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p),
               OPENBLAS_CORETYPE=core)
    return subprocess.run([sys.executable, "-c", script], capture_output=True, check=True,
                          env=env).stdout
