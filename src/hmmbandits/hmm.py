"""Ground-truth HMM representation, sampling, exact belief filtering, the
regularity report of an instance (:func:`validate`), and forgetting-rate
diagnostics, whose exhaustive check extends the context sequences gap by gap.

The hidden chain lives on ``[H]`` (0-based indices ``0..H-1`` in code), the
finite context space on ``[X]``.  The transition matrix ``M`` is row-stochastic
(``M[h, h']`` is the probability of moving ``h -> h'``) and the emission matrix
``E`` is column-stochastic of shape ``(X, H)``: column ``h`` is the context
distribution under state ``h``.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLikelihood, NotMixing, ShapeMismatch, TooLarge

PROB_ATOL = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    """A read-only C-ordered float copy: every HMM matrix has this layout, so
    the batched filters stack them as they come."""
    out = np.array(a, dtype=float, order="C")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class HmmParams:
    """Ground-truth generator: initial distribution, transition, emissions."""

    num_states: int
    num_contexts: int
    initial_dist: np.ndarray  # (H,)
    transition: np.ndarray    # (H, H), row-stochastic
    emission: np.ndarray      # (X, H), column-stochastic

    def __post_init__(self):
        object.__setattr__(self, "initial_dist", _freeze(self.initial_dist))
        object.__setattr__(self, "transition", _freeze(self.transition))
        object.__setattr__(self, "emission", _freeze(self.emission))
        H, X = self.num_states, self.num_contexts
        if H < 1 or X < 1:
            raise ShapeMismatch("num_states and num_contexts must be positive")
        if self.initial_dist.shape != (H,):
            raise ShapeMismatch(f"pi must have length {H}")
        if self.transition.shape != (H, H):
            raise ShapeMismatch(f"M must be {H}x{H}")
        if self.emission.shape != (X, H):
            raise ShapeMismatch(f"E must be {X}x{H}")
        for name, arr, axis in (
            ("pi", self.initial_dist, None),
            ("M rows", self.transition, 1),
            ("E columns", self.emission, 0),
        ):
            if np.any(arr < 0):
                raise ShapeMismatch(f"{name} must be entrywise nonnegative")
            sums = arr.sum() if axis is None else arr.sum(axis=axis)
            if not np.allclose(sums, 1.0, rtol=0.0, atol=PROB_ATOL):
                raise ShapeMismatch(f"{name} must sum to 1 within {PROB_ATOL}")


@dataclass(frozen=True)
class HmmDiagnostics:
    """Regularity quantities required by the spectral estimator."""

    eps_M: float
    sigma_min_E: float
    sigma_min_M: float
    e_nu_min: float
    is_stationary_init: bool
    regularity_ok: bool


def validate(params: HmmParams) -> HmmDiagnostics:
    """Compute regularity diagnostics for the spectral estimator.

    Shape inconsistencies raise :class:`ShapeMismatch` (already enforced at
    construction); regularity violations are only *reported*, because the
    exact filter and the simulator work without them.  ``run_experiment``
    warns on ``is_stationary_init``; the benchmark (``perfbench/run.py``)
    records the rest with its readings.
    """
    M, E, pi = params.transition, params.emission, params.initial_dist
    eps_M = float(M.min())
    e_nu_min = float(E.min())
    sigma_min_E = float(np.linalg.svd(E, compute_uv=False)[-1])
    sigma_min_M = float(np.linalg.svd(M, compute_uv=False)[-1])
    is_stationary = bool(np.max(np.abs(pi @ M - pi)) < 1e-8)
    ok = (
        sigma_min_E > 1e-10
        and sigma_min_M > 1e-10
        and eps_M > 0.0
        and e_nu_min > 0.0
        and params.num_states <= params.num_contexts
    )
    return HmmDiagnostics(
        eps_M=eps_M,
        sigma_min_E=sigma_min_E,
        sigma_min_M=sigma_min_M,
        e_nu_min=e_nu_min,
        is_stationary_init=is_stationary,
        regularity_ok=ok,
    )


def sample_chain(
    params: HmmParams, u_state: np.ndarray, u_ctx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Hidden path and contexts by inverse-CDF lookup of uniform draws.

    ``h_1`` inverts ``pi`` at ``u_state[0]``, ``h_{t+1}`` inverts ``M[h_t]``
    at ``u_state[t]`` and ``x_t`` inverts ``nu_{h_t}`` at ``u_ctx[t-1]``; an
    index past the end (a cumulative sum rounding below the draw) is clamped.
    Each inverse is ``bisect_right``'s rule, the number of cumulative sums at
    or below the draw.  The chain walks a next-state table: each draw is
    placed once among all cumulative sums of ``M`` (``cuts``), and entry
    ``(h, j)`` is the state ``M[h]`` sends a draw with ``j`` cuts at or
    below it to, so the walk compares no floats.
    """
    H = params.num_states
    us = np.asarray(u_state, dtype=float)
    cum_rows = np.cumsum(params.transition, axis=1)
    cuts = np.sort(cum_rows, axis=None)
    edges = np.append(-np.inf, cuts)     # edges[j] = cuts[j - 1], -inf at j = 0
    table = np.minimum([np.searchsorted(row, edges, side="right") for row in cum_rows],
                       H - 1).tolist()
    h = min(int(np.searchsorted(np.cumsum(params.initial_dist), us[0], side="right")), H - 1)
    path = [h]
    for j in np.searchsorted(cuts, us[1:], side="right").tolist():
        h = table[h][j]
        path.append(h)
    hidden = np.array(path, dtype=np.int64)
    cum_cols = np.cumsum(params.emission, axis=0).T
    below = cum_cols[hidden] <= np.asarray(u_ctx, dtype=float)[:, None]
    contexts = np.minimum(np.count_nonzero(below, axis=1), params.num_contexts - 1)
    return hidden, contexts.astype(np.int64)


def sample_trajectory(params: HmmParams, horizon: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``(hidden, contexts)`` int64 paths of :func:`sample_chain`, each of
    length ``horizon``: ``h_1 ~ pi``, ``x_t ~ nu_{h_t}``, ``h_{t+1} ~ M[h_t]``.

    Deterministic given ``(params, horizon, seed)``: one generator draws all
    ``horizon`` state uniforms, then all context uniforms.
    """
    if horizon < 1:
        raise ShapeMismatch("horizon must be >= 1")
    rng = np.random.default_rng(seed)
    u_state = rng.random(horizon)
    return sample_chain(params, u_state, rng.random(horizon))


def _sum_source(names: list) -> str:
    """numpy's sum of the float64 terms ``names`` as one Python expression: in
    order below 8 terms, else eight running sums added in pairs, then the rest
    in order; above 128 terms each half (cut at a multiple of 8) summed so."""
    n = len(names)
    if n < 8:
        return " + ".join(names)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return f"({_sum_source(names[:half])}) + ({_sum_source(names[half:])})"
    stop = n - n % 8
    r = [f"({' + '.join(names[j:stop:8])})" for j in range(8)]
    pairs = f"(({r[0]} + {r[1]}) + ({r[2]} + {r[3]})) + (({r[4]} + {r[5]}) + ({r[6]} + {r[7]}))"
    return " + ".join([pairs, *names[stop:]])


def _kernel(H: int):
    """The forward recursion at ``H`` states as straight-line Python: one
    local per state for the propagated belief (``p``), the emission row
    (``e``) and their products (``u``), and the normalizer in numpy's order."""
    if H not in _KERNELS:
        p, e = (", ".join(f"{a}{i}" for i in range(H)) + "," for a in "pe")
        source = "\n".join([
            "def steps(p, contexts, rows, propagate, vec, prop, view, raw, flat, degenerate):",
            f"    {p} = p",
            "    for x in contexts:",
            f"        {e} = rows[x]",
            *(f"        u{i} = e{i} * p{i}" for i in range(H)),
            f"        norm = {_sum_source([f'u{i}' for i in range(H)])}",
            "        if 0.0 < norm < inf:",
            *(f"            view[{i}] = u{i} / norm" for i in range(H)),
            "        else:",
            "            view[:] = degenerate(x)",
            "        flat.frombytes(raw)",
            f"        {p} = propagate(vec, prop).tolist()",
            "    return flat",
        ])
        scope = {"inf": math.inf}
        exec(compile(source, f"<bayes steps H={H}>", "exec"), scope)
        _KERNELS[H] = scope["steps"]
    return _KERNELS[H]


def _bayes_steps(belief, prior, transition, emission, contexts, on_degenerate):
    """The forward recursion over ``contexts``: the beliefs after each step,
    flat in one ``array("d")``, row after row.

    ``belief is None`` starts from ``prior``; otherwise the first step
    propagates it by ``transition.T.dot(belief, prop)``.  Every step runs
    :func:`_kernel`'s loop for ``H`` states, whose one numpy call is the gemv
    ``transition.T.dot(vec, prop)`` (``np.dot(transition.T, vec)`` without
    its dispatcher) on a vector each step overwrites through a memoryview.
    The rest runs on Python floats with numpy's bits.  A normalizer that is
    not positive and finite raises :class:`DegenerateLikelihood` or, under
    ``on_degenerate="uniform"``, resets to uniform.
    """
    H = transition.shape[0]
    propagate = transition.T.dot
    vec, prop = np.empty(H), np.empty(H)
    view = memoryview(vec)

    def degenerate(x):
        if on_degenerate != "uniform":
            raise DegenerateLikelihood(f"context {x} has zero likelihood under all states")
        return array("d", [1.0 / H] * H)

    first = prior.tolist() if belief is None else propagate(belief, prop).tolist()
    return _kernel(H)(first, contexts, emission.tolist(), propagate, vec, prop, view,
                      view.cast("B"), array("d"), degenerate)


_KERNELS: dict = {}   # the step loop of each state count, compiled on first use
CHUNK = 64            # steps per chunk product in forward_pass
TILE_BYTES = 2**18    # bytes per tile: a forward_pass (H, H, pairs) operand, a
                      # learner's block of rows, its outer products


def _lockstep(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lanes of ``counts`` steps each, longest first, and for every offset
    below the longest the number of lanes still running at it (a prefix of
    that order)."""
    order = np.argsort(-counts, kind="stable")
    ranked = -counts[order]                   # ascending
    return order, np.searchsorted(ranked, -np.arange(-ranked[0]), side="left")


def forward_steps(models, beliefs, contexts, starts, stops, out) -> None:
    """Run filter segments in lockstep, one belief row per round.

    Segment ``k`` starts from ``beliefs[k]`` and takes one Bayes step under
    ``models[k] = (transition, emission)`` for each context ``contexts[i]``,
    ``starts[k] <= i < stops[k]``, writing the belief after it to
    ``out[i]``; a zero-likelihood context resets to uniform.  Segments must
    not overlap, and transitions must be C-ordered (as :class:`HmmParams` and
    ``EstimatedHmm`` make them), so each stacked step has the bits of
    :func:`_bayes_steps`, which steps a lone segment faster than a stack.
    """
    xs = np.asarray(contexts, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    H = out.shape[1]
    uniform = np.full(H, 1.0 / H)
    if len(models) == 1:
        (M, E), lo, hi = models[0], int(starts[0]), int(stops[0])
        flat = _bayes_steps(beliefs[0], uniform, M, E, xs[lo:hi].tolist(), "uniform")
        out[lo:hi] = np.frombuffer(flat).reshape(hi - lo, H)
        return
    lanes, running = _lockstep(stops - starts)
    rows = starts[lanes]
    transitions_t = np.stack([models[k][0] for k in lanes]).swapaxes(1, 2)
    emissions = np.stack([models[k][1] for k in lanes])
    state = np.array(beliefs[lanes], dtype=float)
    for offset, n in enumerate(running.tolist()):
        at = rows[:n] + offset
        unnorm = emissions[np.arange(n), xs[at]] * np.matmul(
            transitions_t[:n], state[:n, :, None])[:, :, 0]
        norm = unnorm.sum(axis=1)
        ok = (norm > 0.0) & np.isfinite(norm)
        if ok.all():
            np.divide(unnorm, norm[:, None], out=state[:n])
        else:
            state[:n] = unnorm / np.where(ok, norm, 1.0)[:, None]
            state[np.flatnonzero(~ok)] = uniform
        out[at] = state[:n]


def forward_pass(
    models,
    prior: np.ndarray,
    contexts,
    ends,
) -> np.ndarray:
    """Beliefs after filtering ``contexts[:ends[k]]`` from ``prior`` under
    ``models[k] = (transition, emission)``, one row per model, in one pass.

    ``ends`` are sorted and lie in ``[1, len(contexts)]``.  Every prefix
    cuts its contexts after the first into the same 64-step chunks, whose
    products of update matrices ``W_x = diag(nu(x, .)) M^T`` are built for
    all (model, chunk) pairs together, a tile of ``(H, H, pairs)`` arrays at
    a time, one ``np.einsum("ijp,jkp->ikp")`` per step (the contiguous index
    is ``p``, so the products over ``j`` are added in order).  At each chunk
    index one stacked matvec normalizes every model still running; the tails
    step in lockstep.  A chunk that annihilates a belief (zero emission
    entries) is re-run a context at a time, which resets a zero-likelihood
    context to uniform.  With C-ordered transitions each row equals the
    straight single-prefix pass bit for bit.
    """
    contexts = np.asarray(contexts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    if len(models) == 0 or ends.shape != (len(models),):
        raise ShapeMismatch("need one prefix end per model")
    if ends[0] < 1 or ends[-1] > contexts.size or np.any(np.diff(ends) < 0):
        raise ShapeMismatch("prefix ends must be sorted and lie in [1, len(contexts)]")
    K, H = len(models), np.asarray(prior).size
    emissions = np.stack([E for _, E in models])                   # (K, X, H)
    X = emissions.shape[1]
    transitions = np.stack([M for M, _ in models])                 # (K, H, H)
    steps = np.ascontiguousarray(
        transitions[:, None] * emissions[:, :, None, :]).swapaxes(2, 3)
    uniform = np.full(H, 1.0 / H)
    xs = contexts[1:]

    def renormalize(vecs):
        s = vecs.sum(axis=1)
        ok = s > 0.0
        out = vecs / np.where(ok, s, 1.0)[:, None]
        if not ok.all():
            out[~ok] = uniform
        return out

    beliefs = renormalize(emissions[:, contexts[0]] * prior)

    def scan(lanes, first, count):
        # lanes step over xs[first : first + count], one context at a time
        order, running = _lockstep(count)
        lanes, first = lanes[order], first[order]
        for offset, n in enumerate(running.tolist()):
            sel, x = lanes[:n], xs[first[:n] + offset]
            vecs = np.matmul(steps[sel, x], beliefs[sel, :, None])[:, :, 0]
            beliefs[sel] = renormalize(vecs)

    chunks = (ends - 1) // CHUNK              # full chunks of each prefix, ascending
    if chunks[-1]:
        # chunk c is run by the models with chunks > c, a suffix of the lanes
        counts = K - np.searchsorted(chunks, np.arange(chunks[-1]), side="right")
        cum = np.concatenate([[0], np.cumsum(counts)])
        flat = steps.transpose(2, 3, 0, 1).reshape(H * H, K * X)
        cap = max(1, TILE_BYTES // (8 * H * H))
        for p0 in range(0, int(cum[-1]), cap):
            pairs = np.arange(p0, min(p0 + cap, int(cum[-1])))
            pc = np.searchsorted(cum, pairs, side="right") - 1
            pk = K - counts[pc] + (pairs - cum[pc])
            cols, at = pk * X, pc * CHUNK
            prod = np.take(flat, cols + xs[at], axis=1).reshape(H, H, -1)
            for i in range(1, CHUNK):
                a = np.take(flat, cols + xs[at + i], axis=1).reshape(H, H, -1)
                prod = np.einsum("ijp,jkp->ikp", a, prod)
            mats = np.ascontiguousarray(prod.transpose(2, 1, 0)).swapaxes(1, 2)
            del prod
            cuts = [0, *(np.flatnonzero(np.diff(pc)) + 1), pairs.size]
            for lo, hi in zip(cuts, cuts[1:]):
                k0, c = int(pk[lo]), int(pc[lo])   # the chunk's models run from k0 up
                run = beliefs[k0:k0 + hi - lo]
                vecs = np.matmul(mats[lo:hi], run[:, :, None])[:, :, 0]
                s = vecs.sum(axis=1)
                if s.min() > 0.0:
                    np.divide(vecs, s[:, None], out=run)
                else:
                    ok = s > 0.0
                    run[ok] = vecs[ok] / s[ok, None]
                    dead = k0 + np.flatnonzero(~ok)
                    scan(dead, np.full(dead.size, c * CHUNK), np.full(dead.size, CHUNK))
    scan(np.arange(K), chunks * CHUNK, ends - 1 - chunks * CHUNK)
    return beliefs


def filter_trace(params: HmmParams, contexts) -> np.ndarray:
    """Exact beliefs ``b_t(h) = P(h_t = h | x_{1:t})``, one row per round, by
    stepping the forward recursion under the true parameters."""
    contexts = np.asarray(contexts, dtype=np.int64)
    if contexts.size == 0:
        raise ShapeMismatch("contexts must be non-empty")
    flat = _bayes_steps(None, params.initial_dist, params.transition, params.emission,
                        contexts.tolist(), "raise")
    return np.frombuffer(flat).reshape(contexts.size, params.num_states)


def forgetting_rate(params: HmmParams) -> float:
    """Forgetting rate ``gamma = 1 - min(M) / max(M)``.

    Instantiates the strong-mixing sandwich with kernel ``K(x, h') =
    nu_{h'}(x)`` and envelopes ``zeta- = min(M)``, ``zeta+ = max(M)``, which
    bracket ``P(h_2 = h', x_2 = x | h_1 = h) = M[h, h'] * nu_{h'}(x)``
    entrywise for a finite context space.
    """
    eps_M = float(params.transition.min())
    if eps_M <= 0.0:
        raise NotMixing("transition matrix has a zero entry")
    return 1.0 - eps_M / float(params.transition.max())


def _terminal_laws(params: HmmParams, max_gap: int):
    """Per gap ``1..max_gap``: the (X**gap, H, H) stack of rows ``P(h_t = . |
    h_s = i, x_{s+1:t} = seq)``, a slice per ``seq`` in ``itertools.product``
    order, and the (X**gap, H) mask of start states ``seq`` is possible from
    (rows outside it are junk).  Each gap extends the last gap's products by
    one context in one stacked product, ``W_{seq+(x,)} = (W_seq @ M) * E[x]``.
    """
    H = params.num_states
    W = np.eye(H)[None]
    for _ in range(max_gap):
        W = (np.matmul(W, params.transition)[:, None]
             * params.emission[:, None, :]).reshape(-1, H, H)
        norms = W.sum(axis=2)
        feasible = norms > 0.0
        yield W / np.where(feasible, norms, 1.0)[..., None], feasible


def check_forgetting(params: HmmParams, gamma: float, max_gap: int) -> bool:
    """Exhaustively verify the exponential-forgetting inequality.

    Enumerates every context sequence of length ``1..max_gap`` and every
    ordered pair of start states, and checks that the conditional laws of the
    terminal state differ by at most ``2 * gamma**gap`` in l1 norm (pairs
    with a start state the sequence is impossible from are skipped), one
    stack of sequences per gap (:func:`_terminal_laws`).
    """
    if params.num_states > 4 or params.num_contexts > 4 or max_gap > 8:
        raise TooLarge("enumeration bounds are H <= 4, X <= 4, max_gap <= 8")
    i, j = np.triu_indices(params.num_states, 1)  # each unordered pair once
    for gap, (laws, feasible) in enumerate(_terminal_laws(params, max_gap), start=1):
        diffs = np.abs(laws[:, i] - laws[:, j]).sum(axis=2)
        if (diffs[feasible[:, i] & feasible[:, j]] > 2.0 * gamma**gap + 1e-9).any():
            return False
    return True
