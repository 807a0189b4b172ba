"""The bandit environment wrapping the HMM: transfer-function tables, both
reward models (state-dependent and belief-dependent means), noise generation,
and the environment tape.

Nothing the environment draws depends on the policy: only the index of the
revealed reward entry does.  So a cell's whole path (hidden states, contexts,
true beliefs, full reward vectors and oracle-side scores) is drawn up front
as one :class:`EnvironmentTape`; the simulation loop shows a learner ``t``,
the rows ``b_t (x) phi(a, x_t)`` and the chosen entry of each reward vector,
and hidden states never cross the policy boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch
from .hmm import HmmParams, filter_trace, sample_chain

STATE_DEPENDENT = "state_dependent"
BELIEF_DEPENDENT = "belief_dependent"


@dataclass(frozen=True)
class TransferFunction:
    """Known feature map ``phi(a, x)`` stored as an ``(A, X, d)`` table.

    Construction enforces ``||phi(a, x)||_2 <= 1`` for every pair, either by
    rejection or by joint rescaling.
    """

    kind: str
    table: np.ndarray  # (A, X, d)

    def __post_init__(self):
        table = np.array(self.table, dtype=float)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)
        if table.ndim != 3:
            raise ShapeMismatch("transfer table must have shape (A, X, d)")
        norms = np.linalg.norm(table, axis=2)
        if norms.max() > 1.0 + 1e-9:
            raise ShapeMismatch("transfer function exceeds unit norm; rescale first")

    @property
    def num_actions(self) -> int:
        return self.table.shape[0]

    @property
    def num_contexts(self) -> int:
        return self.table.shape[1]

    @property
    def dim(self) -> int:
        return self.table.shape[2]

    @staticmethod
    def one_hot_action(num_actions: int, num_contexts: int) -> "TransferFunction":
        """``phi(a, x) = e_a`` in ``R^A`` (context enters only through beliefs)."""
        table = np.zeros((num_actions, num_contexts, num_actions))
        for a in range(num_actions):
            table[a, :, a] = 1.0
        return TransferFunction(kind="one_hot_action", table=table)

    @staticmethod
    def action_context_outer(num_actions: int, num_contexts: int) -> "TransferFunction":
        """``phi(a, x) = e_a (x) e_x`` in ``R^{A*X}`` (unit norm by construction)."""
        d = num_actions * num_contexts
        table = np.zeros((num_actions, num_contexts, d))
        for a in range(num_actions):
            for x in range(num_contexts):
                table[a, x, a * num_contexts + x] = 1.0
        return TransferFunction(kind="action_context_outer", table=table)

    @staticmethod
    def from_table(table: np.ndarray) -> "TransferFunction":
        """A free-form table, jointly rescaled into the unit ball if needed."""
        table = np.asarray(table, dtype=float)
        max_norm = float(np.linalg.norm(table, axis=2).max())
        # a rescaled table can come out an ulp or two above norm 1; leaving such
        # a table as it is makes the rescaling idempotent, so the table that
        # config_snapshot.ini writes reads back bit for bit
        if max_norm > 1.0 + 1e-12:
            table = table / max_norm
        return TransferFunction(kind="table", table=table)


@dataclass(frozen=True)
class NoiseModel:
    """Reward noise law; ``v_eta`` is the sub-Gaussian proxy and ``c_eta`` the
    second-moment bound (gaussian: ``c_eta = v_eta**2``; bounded uniform on
    ``[-sqrt(3 c_eta), sqrt(3 c_eta)]``: ``v_eta = sqrt(3 c_eta)``)."""

    kind: str
    v_eta: float
    c_eta: float

    @staticmethod
    def gaussian(v_eta: float) -> "NoiseModel":
        if v_eta < 0:
            raise ShapeMismatch("v_eta must be nonnegative")
        return NoiseModel(kind="gaussian", v_eta=float(v_eta), c_eta=float(v_eta) ** 2)

    @staticmethod
    def bounded_uniform(c_eta: float) -> "NoiseModel":
        if c_eta < 0:
            raise ShapeMismatch("c_eta must be nonnegative")
        return NoiseModel(
            kind="bounded_uniform", v_eta=math.sqrt(3.0 * c_eta), c_eta=float(c_eta)
        )

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.normal(0.0, self.v_eta, size=size) if self.v_eta > 0 else np.zeros(size)
        half = math.sqrt(3.0 * self.c_eta)  # bounded_uniform
        return rng.uniform(-half, half, size=size) if half > 0 else np.zeros(size)


@dataclass(frozen=True)
class RewardSpec:
    """Per-state reward parameters, their bound, the noise law, and the model kind."""

    theta_star: np.ndarray  # (H, d)
    c_theta: float
    noise: NoiseModel
    model: str = STATE_DEPENDENT

    def __post_init__(self):
        theta = np.array(self.theta_star, dtype=float)
        theta.flags.writeable = False
        object.__setattr__(self, "theta_star", theta)
        if np.linalg.norm(theta, axis=1).max() > self.c_theta + 1e-9:
            raise ShapeMismatch("some ||theta_h|| exceeds c_theta")

    @property
    def num_states(self) -> int:
        return self.theta_star.shape[0]

    @property
    def dim(self) -> int:
        return self.theta_star.shape[1]


def check_reward_bounds(spec: RewardSpec, phi: TransferFunction) -> float:
    """Exhaustively verify ``|phi(a, x)^T theta_h| <= 1``; returns the max."""
    vals = np.einsum("axd,hd->axh", phi.table, spec.theta_star)
    worst = float(np.abs(vals).max())
    if worst > 1.0 + 1e-9:
        raise ShapeMismatch(f"reward mean bound violated: max |phi.theta| = {worst}")
    return worst


def sample_theta(
    phi: TransferFunction, num_states: int, rng: np.random.Generator,
    target: float = 0.9,
) -> tuple[np.ndarray, float]:
    """Draw Gaussian state parameters, jointly rescaled so the largest mean
    reward magnitude over the ``(a, x, h)`` grid equals ``target`` in (0, 1];
    returns the parameters and the realized norm bound.
    """
    theta = rng.normal(size=(num_states, phi.dim))
    vals = np.einsum("axd,hd->axh", phi.table, theta)
    worst = float(np.abs(vals).max())
    if worst <= 0:
        raise ShapeMismatch("degenerate transfer/theta draw")
    theta = theta * (target / worst)
    c_theta = float(np.linalg.norm(theta, axis=1).max())
    return theta, c_theta


@dataclass(frozen=True)
class EnvironmentTape:
    """The policy-independent path of one cell, one row per round.

    ``hidden`` and the true ``beliefs`` are oracle-side (never shown to
    policies); ``rewards[t, a]`` is the reward action ``a`` would reveal in
    round ``t + 1`` (model mean plus noise), and ``scores[t, a]`` its mean
    under the true belief, ``phi(a, x_t)^T theta^T b_t``, against which
    pseudo-regret is measured.
    """

    hidden: np.ndarray    # (T,)
    contexts: np.ndarray  # (T,)
    beliefs: np.ndarray   # (T, H)
    rewards: np.ndarray   # (T, A)
    scores: np.ndarray    # (T, A)

    def __post_init__(self):
        for name in ("hidden", "contexts", "beliefs", "rewards", "scores"):
            getattr(self, name).flags.writeable = False


def sample_tape(
    params: HmmParams,
    spec: RewardSpec,
    phi: TransferFunction,
    horizon: int,
    seed,
) -> EnvironmentTape:
    """Draw the whole environment path of ``horizon`` rounds at once.

    Three independent streams spawned from ``seed`` drive the latent chain,
    the emissions and the reward noise, so the path does not depend on the
    policy and every policy faces the identical path under the same seed
    (paired comparisons).  Each round's scores (and belief-dependent means)
    have the bits of one matvec ``phi[:, x_t] @ (theta^T b_t)``, computed for
    all rounds in stacked matmuls; state-dependent means come from the table
    of matvecs ``phi[:, x] @ theta_h``.
    """
    if spec.num_states != params.num_states:
        raise ShapeMismatch("theta_star rows must match num_states")
    if phi.num_contexts != params.num_contexts:
        raise ShapeMismatch("transfer table contexts must match num_contexts")
    if horizon < 1:
        raise ShapeMismatch("horizon must be >= 1")
    check_reward_bounds(spec, phi)
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng_latent, rng_emission, rng_noise = (
        np.random.default_rng(stream) for stream in root.spawn(3)
    )
    hidden, contexts = sample_chain(
        params, rng_latent.random(horizon), rng_emission.random(horizon)
    )
    beliefs = filter_trace(params, contexts)
    theta = spec.theta_star
    # Stacked matmuls: numpy runs each slice as the per-round gemv or dot.
    # Some OpenBLAS kernels (Prescott) round a dot (d = 1 or A = 1) by the
    # 16-byte alignment of its vector, which a fresh per-round vector has, so
    # the beliefs and the weights theta^T b_t are read from rows padded to an
    # even number of doubles (a context's weight rows are taken with their
    # padding, which is sliced off after).
    H, d = params.num_states, phi.dim
    rows = beliefs
    if H % 2:
        rows = np.empty((horizon, H + 1))[:, :H]
        rows[:] = beliefs
    weights = np.empty((horizon, d + d % 2, 1))
    np.matmul(theta.T, rows[:, :, None], out=weights[:, :d])
    scores = np.empty((horizon, phi.num_actions))
    for x in range(params.num_contexts):
        rounds = np.flatnonzero(contexts == x)
        scores[rounds] = np.matmul(phi.table[:, x], weights[rounds][:, :d])[:, :, 0]
    if spec.model == STATE_DEPENDENT:
        state_means = np.array([
            [phi.table[:, x] @ theta[h] for h in range(params.num_states)]
            for x in range(params.num_contexts)
        ])
        means = state_means[contexts, hidden]
    else:
        means = scores
    rewards = means + spec.noise.draw(rng_noise, (horizon, phi.num_actions))
    return EnvironmentTape(hidden=hidden, contexts=contexts, beliefs=beliefs,
                           rewards=rewards, scores=scores)
