"""Independent reference implementations used as test oracles.

Everything here is written directly from the defining formulas (path
enumeration, explicit counting, batch closed forms) and deliberately shares
no code with the package paths it checks.  The exceptions:
:func:`reference_step`, the one Bayes step on numpy arrays whose bits the
package's filter kernel must reproduce; :func:`reference_online_beliefs`
and :func:`reference_scheduled_beliefs`, which check the scheduling of the
belief subroutine bit for bit and so call the package's estimator, writing
only the round-by-round control flow and the Bayes steps themselves;
:func:`stepwise_filter`, the one-step-at-a-time loop over
:func:`reference_step`; :func:`reference_forward_pass`, the straight
single-prefix chunked pass whose bits the package's batched
``forward_pass`` must reproduce for every prefix; :class:`StepwiseBoxA`
and :class:`StepwiseBoxB`, the learners' round-by-round ``act``/``update``
loops whose bits the block ``play`` must reproduce, which take the belief
budget from ``u_schedule`` and the stage width from ``staged_width``;
:func:`forward_step`, the package's one-step kernel on one context;
:func:`reference_chunk_step`, the chunk-product step ``forward_pass`` must
reproduce; and :func:`reference_refit_schedule`, the per-refit loop the
batched refit pass must reproduce, with its own copies of the one-set
moments, estimate and ``np.linalg.norm``-based alignment, which reuse the
package's ``postprocess``, ``relabel`` and constants;
:func:`reference_estimation_curves`, the per-checkpoint loop the stacked
``estimation_curves`` must reproduce, on the same copies and the package's
scoring;
:func:`per_round_bonus` and :func:`ucb_argmax`, boxB's per-round bonus and
UCB argmax on Python floats, whose choice the package's straight-line
kernel ``policies._chooser`` must give;
:func:`reference_round_csv_text`, the per-arm CSV renderer whose bytes the
block-by-block group writer must reproduce; and :func:`reference_chain`, the per-draw
``bisect`` walk whose path and contexts ``sample_chain`` must reproduce.
The lemma references (:func:`reference_elliptic_potential` through
:func:`reference_forgetting`) are the per-round, per-stage and per-sequence
loops whose booleans the stacked lemma checks must give.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right

import numpy as np


def enumerate_posterior(params, contexts) -> np.ndarray:
    """P(h_t = . | x_{1:t}) by summing over all H^t hidden paths.

    Brute-force enumeration (no forward recursion): every path's joint
    probability is a product of initial, transition, and emission terms,
    evaluated for the full H^t path table at once.
    """
    contexts = np.asarray(contexts, dtype=np.int64)
    H = params.num_states
    t = contexts.size
    # paths[k, step] = hidden state of path k at that step
    grid = np.indices((H,) * t).reshape(t, -1).T
    probs = params.initial_dist[grid[:, 0]] * params.emission[contexts[0], grid[:, 0]]
    for step in range(1, t):
        probs = probs * params.transition[grid[:, step - 1], grid[:, step]]
        probs = probs * params.emission[contexts[step], grid[:, step]]
    weights = np.zeros(H)
    np.add.at(weights, grid[:, -1], probs)
    total = weights.sum()
    if total <= 0:
        raise ValueError("observation sequence impossible under the model")
    return weights / total


def conditional_terminal_distribution(params, start_state, contexts) -> np.ndarray | None:
    """P(h_t = . | h_s = start, x_{s+1:t}) by path enumeration; None if impossible."""
    contexts = list(contexts)
    H = params.num_states
    weights = np.zeros(H)
    for path in itertools.product(range(H), repeat=len(contexts)):
        p = params.transition[start_state, path[0]] * params.emission[contexts[0], path[0]]
        for step in range(1, len(contexts)):
            p *= params.transition[path[step - 1], path[step]]
            p *= params.emission[contexts[step], path[step]]
        weights[path[-1]] += p
    total = weights.sum()
    if total <= 0:
        return None
    return weights / total


def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """Stationary distribution of a row-stochastic matrix (left eigenvector)."""
    vals, vecs = np.linalg.eig(transition.T)
    idx = int(np.argmin(np.abs(vals - 1.0)))
    pi = np.abs(np.real(vecs[:, idx]))
    return pi / pi.sum()


def count_moments(contexts, num_contexts: int):
    """Triple-counting oracle for the empirical moment tables."""
    xs = list(contexts)
    t = len(xs)
    assert t >= 3
    X = num_contexts
    p31 = np.zeros((X, X))
    p32 = np.zeros((X, X))
    p312 = np.zeros((X, X, X))
    for s in range(1, t - 1):  # 0-based s runs over centers x_s with 1-based s=2..t-1
        nxt, prv, cur = xs[s + 1], xs[s - 1], xs[s]
        p31[nxt, prv] += 1
        p32[nxt, cur] += 1
        p312[nxt, prv, cur] += 1
    return p31 / (t - 2), p32 / (t - 2), p312 / (t - 2)


def stream_triple_counts(contexts, num_contexts: int):
    """Running triple counts ``(c31, c32, c312)`` after each context, with one
    update per round once a triple exists; yields the same arrays each round."""
    X = num_contexts
    c31 = np.zeros((X, X), dtype=np.int64)
    c32 = np.zeros((X, X), dtype=np.int64)
    c312 = np.zeros((X, X, X), dtype=np.int64)
    xs = [int(x) for x in contexts]
    for t, x in enumerate(xs, start=1):
        if t >= 3:  # new triple (x_t, x_{t-2}, x_{t-1}) centred at round t-1
            c31[x, xs[t - 3]] += 1
            c32[x, xs[t - 2]] += 1
            c312[x, xs[t - 3], xs[t - 2]] += 1
        yield c31, c32, c312


def reference_online_beliefs(contexts, H: int, X: int, refit_every: int, seed: int):
    """The per-round belief-estimation protocol, written straight through.

    Round ``t`` adds ``x_t`` to streaming triple counts.  When ``t`` is a
    multiple of ``refit_every`` and ``t >= 8`` it re-estimates from the counts
    with rotation seed ``seed + 7919 * (successes + 1)``; a failed refit keeps
    the previous estimate and is counted.  Once an estimate exists, a refit
    round re-filters the whole prefix from the uniform prior and any other
    round takes one Bayes step; before that the belief is uniform.  Returns
    ``(beliefs, failures, final estimate or None)``.
    """
    from hmmbandits.errors import EstimationFailed
    from hmmbandits.spectral import align, seeded_estimates, subspaces

    xs = [int(x) for x in contexts]
    uniform = np.full(H, 1.0 / H)
    estimate, belief = None, uniform
    successes = failures = 0
    beliefs = []
    for t, (c31, c32, c312) in enumerate(stream_triple_counts(xs, X), start=1):
        refit = t % refit_every == 0 and t >= 8
        if refit:
            n = float(t - 2)
            stages = subspaces((c31 / n)[None], (c32 / n)[None], (c312 / n)[None], H)
            (fresh,) = seeded_estimates(stages, [seed + 7919 * (successes + 1)])
            if isinstance(fresh, EstimationFailed):
                failures += 1
            else:
                estimate = align(estimate, fresh)
                successes += 1
        if estimate is None:
            belief = uniform
        elif refit:
            belief = reference_forward_pass(estimate.transition_hat, estimate.emission_hat,
                                            uniform, xs[:t])
        else:
            belief = reference_step(belief, uniform, estimate.transition_hat,
                                    estimate.emission_hat, xs[t - 1], "uniform")
        beliefs.append(belief)
    return np.array(beliefs).reshape(len(xs), H), failures, estimate


def reference_step(belief, prior, transition, emission, context: int,
                   on_degenerate: str = "raise") -> np.ndarray:
    """One Bayes forward update on numpy arrays: ``prior`` reweighted by the
    likelihood of ``context`` when ``belief`` is None, else ``belief``
    propagated through ``transition`` (one gemv) and reweighted.  A
    normalizer that is not positive and finite raises
    ``DegenerateLikelihood`` or, under ``on_degenerate="uniform"``, gives
    the uniform distribution."""
    from hmmbandits.errors import DegenerateLikelihood

    if belief is None:
        unnorm = emission[context, :] * prior
    else:
        unnorm = emission[context, :] * (transition.T @ belief)
    norm = float(unnorm.sum())
    if norm <= 0.0 or not np.isfinite(norm):
        if on_degenerate == "uniform":
            H = transition.shape[0]
            return np.full(H, 1.0 / H)
        raise DegenerateLikelihood(
            f"context {context} has zero likelihood under all states"
        )
    return unnorm / norm


def forward_step(belief, prior, transition, emission, context: int,
                 on_degenerate: str = "raise") -> np.ndarray:
    """One Bayes forward update through the package's one-step kernel
    (``hmm._bayes_steps`` on one context); returns the new belief."""
    from hmmbandits.hmm import _bayes_steps

    return np.frombuffer(_bayes_steps(belief, prior, transition, emission, [int(context)],
                                      on_degenerate))


def estimate_from_text(text: str):
    """The ``EstimatedHmm`` of an ``EstimatedHmm.to_text`` block."""
    from hmmbandits.spectral import EstimatedHmm

    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    head = lines[0].split()
    H, X = int(head[1]), int(head[3])
    m = np.array([float(v) for v in lines[1].split()[1:]]).reshape(H, H)
    e = np.array([float(v) for v in lines[2].split()[1:]]).reshape((X, H), order="F")
    perm = tuple(int(v) for v in lines[3].split()[1:])
    return EstimatedHmm(m, e, label_permutation=perm)


def stepwise_filter(transition, emission, prior, contexts, on_degenerate="uniform"):
    """Belief after filtering ``contexts`` from ``prior``, one
    :func:`reference_step` per context."""
    belief = None
    for x in contexts:
        belief = reference_step(belief, prior, transition, emission, int(x), on_degenerate)
    return belief


def reference_forward_pass(transition, emission, prior, contexts, on_degenerate="uniform"):
    """Belief after filtering one prefix ``contexts`` from ``prior``: the
    straight chunked pass.

    The per-context update matrices ``W_x = diag(nu(x, .)) M^T`` are
    multiplied over 64-step chunks with one ``einsum`` per step across the
    chunks, and the belief is normalized once per chunk; a chunk whose
    product annihilates the belief is re-run one context at a time, as is
    the tail after the last full chunk.
    """
    from hmmbandits.errors import DegenerateLikelihood, ShapeMismatch

    contexts = np.asarray(contexts, dtype=np.int64)
    if contexts.size == 0:
        raise ShapeMismatch("contexts must be non-empty")
    H = transition.shape[0]
    uniform = np.full(H, 1.0 / H)
    transition_t = transition.T
    step_mats = np.stack([emission[x][:, None] * transition_t
                          for x in range(emission.shape[0])])

    def renormalize(vec, x):
        s = float(vec.sum())
        if s > 0.0:
            return vec / s
        if on_degenerate == "uniform":
            return uniform.copy()
        raise DegenerateLikelihood(f"context {x} has zero likelihood under all states")

    def scan(vec, xs):
        for x in xs:
            vec = renormalize(step_mats[x] @ vec, x)
        return vec

    belief = renormalize(emission[contexts[0]] * prior, contexts[0])
    xs = contexts[1:]
    chunk = 64
    k = xs.size // chunk
    if k:
        mats = step_mats[xs[: k * chunk]].reshape(k, chunk, H, H)
        prod = mats[:, 0]
        for i in range(1, chunk):
            prod = np.einsum("kij,kjl->kil", mats[:, i], prod)
        for block in range(k):
            vec = prod[block] @ belief
            s = float(vec.sum())
            if s > 0.0:
                belief = vec / s
            else:
                belief = scan(belief, xs[block * chunk : (block + 1) * chunk])
    return scan(belief, xs[k * chunk :])


def reference_chunk_step(a: np.ndarray, prod: np.ndarray) -> np.ndarray:
    """One step of the chunk products over a tile of ``(H, H, pairs)``
    arrays, ``new[i, k, p] = sum_j a[i, j, p] * prod[j, k, p]``, as the
    elementwise products added in ``j`` order."""
    new = a[:, 0, None] * prod[None, 0]
    for j in range(1, a.shape[1]):
        new += a[:, j, None] * prod[None, j]
    return new


def reference_moments(contexts, num_contexts: int):
    """The moment tables ``(p31, p32, p312)`` of ``contexts`` from one
    ``np.bincount`` of its triples (the one-prefix count)."""
    x = np.asarray(contexts, dtype=np.int64)
    X = num_contexts
    n = x.size - 2
    c312 = np.bincount((x[2:] * X + x[:-2]) * X + x[1:-1], minlength=X**3).reshape(X, X, X)
    return c312.sum(axis=2) / n, c312.sum(axis=1) / n, c312 / n


def _fix_svd_signs(basis: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude entry positive."""
    out = basis.copy()
    for j in range(out.shape[1]):
        k = int(np.argmax(np.abs(out[:, j])))
        if out[k, j] < 0:
            out[:, j] = -out[:, j]
    return out


def reference_spectral_estimate(moments, H: int, seed: int):
    """The spectral estimate of one moment set ``(p31, p32, p312)``, every
    step on that set alone: the SVDs, the sign fix column by column, the
    rank and pivot checks, then the rotations drawn one at a time from
    ``seed``."""
    from hmmbandits.errors import DiagonalizationFailed, NearSingularPivot, RankDeficient
    from hmmbandits.spectral import COND_LIMIT, IMAG_TOL, RANK_TOL, RETRY_BUDGET

    from conftest import one_postprocess

    p31, p32, p312 = moments
    u3_full, s31, v31t = np.linalg.svd(p31)
    if s31[H - 1] < RANK_TOL:
        raise RankDeficient(f"{H}-th singular value of p31 is {s31[H - 1]:.3e} < {RANK_TOL}")
    u3 = _fix_svd_signs(u3_full[:, :H])
    u1 = _fix_svd_signs(v31t[:H, :].T)
    _, _, v32t = np.linalg.svd(p32)
    u2 = _fix_svd_signs(v32t[:H, :].T)
    pivot = u3.T @ p31 @ u1
    if np.linalg.cond(pivot) > COND_LIMIT:
        raise NearSingularPivot("projected pairwise moment matrix is near singular")
    pivot_inv = np.linalg.inv(pivot)

    def contracted_b(z):
        return (u3.T @ np.einsum("ijk,k->ij", p312, z) @ u1) @ pivot_inv

    rng = np.random.default_rng(seed)
    for _ in range(RETRY_BUDGET):
        q, _ = np.linalg.qr(rng.normal(size=(H, H)))
        eigvals, eigvecs = np.linalg.eig(contracted_b(u2 @ q[0]))
        radius = float(np.max(np.abs(eigvals)))
        if float(np.max(np.abs(eigvals.imag))) > IMAG_TOL * max(radius, 1e-300):
            continue
        candidate = np.real(eigvecs)
        norms = np.linalg.norm(candidate, axis=0)
        if np.any(norms < 1e-12):
            continue
        candidate = candidate / norms
        if np.linalg.cond(candidate) > COND_LIMIT:
            continue
        r_mat, gamma = candidate, q
        break
    else:
        raise DiagonalizationFailed(f"no real well-conditioned eigensystem in {RETRY_BUDGET} "
                                    "rotations")
    r_inv = np.linalg.inv(r_mat)
    l_mat = np.empty((H, H))
    for h in range(H):
        l_mat[h] = np.real(np.diag(r_inv @ contracted_b(u2 @ gamma[h]) @ r_mat))
    obs_factor = u2 @ np.linalg.solve(gamma, l_mat)
    proj = u3.T @ obs_factor
    if np.linalg.cond(proj) > COND_LIMIT:
        raise NearSingularPivot("projected observation factor is near singular")
    raw_m = np.linalg.solve(proj, r_mat).T
    raw_m = raw_m * np.where(raw_m.sum(axis=1) < 0, -1.0, 1.0)[:, None]
    return one_postprocess(raw_m, obs_factor)


def _has_matching(cost, bound: float, fixed: list) -> bool:
    """Whether rows ``len(fixed)..`` take distinct columns outside ``fixed``
    with every ``cost[row][col] <= bound`` (Kuhn's augmenting paths)."""
    free = [j for j in range(len(cost)) if j not in fixed]
    owner = {}

    def augment(row, seen):
        for j in free:
            if j not in seen and cost[row][j] <= bound:
                seen.add(j)
                if j not in owner or augment(owner[j], seen):
                    owner[j] = row
                    return True
        return False

    return all(augment(row, set()) for row in range(len(fixed), len(cost)))


def reference_norm_align(previous, fresh):
    """The bottleneck label alignment with every column distance taken by
    ``np.linalg.norm``: a binary search over all distinct distances, then
    the smallest feasible column for each position, each checked anew."""
    from dataclasses import replace

    from hmmbandits.spectral import relabel

    H = fresh.num_states
    if previous is None:
        return replace(fresh, label_permutation=tuple(range(H)))
    prev_cols, fresh_cols = previous.emission_hat, fresh.emission_hat
    cost = [[float(np.linalg.norm(prev_cols[:, h] - fresh_cols[:, j])) for j in range(H)]
            for h in range(H)]
    levels = sorted({c for row in cost for c in row})
    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _has_matching(cost, levels[mid], []):
            hi = mid
        else:
            lo = mid + 1
    perm = []
    for h in range(H):
        perm.append(next(j for j in range(H) if j not in perm and cost[h][j] <= levels[lo]
                         and _has_matching(cost, levels[lo], perm + [j])))
    return replace(relabel(fresh, tuple(perm)), label_permutation=tuple(perm))


def reference_refit_schedule(contexts, H: int, X: int, refit_every: int, seed: int,
                             outcomes=None):
    """The refits of a context stream one prefix at a time: at every round
    ``t >= 8`` that ``refit_every`` divides, the moments of ``contexts[:t]``,
    :func:`reference_spectral_estimate` with seed ``seed + 7919 * (successes
    + 1)`` and :func:`reference_norm_align`; a failed refit keeps the
    previous estimate.  Returns ``(schedule, failures)`` as
    ``beliefs.refit_schedule`` does, and appends each refit's outcome (the
    failure's class name, or ``"ok"``) to ``outcomes`` when given."""
    from hmmbandits.errors import EstimationFailed

    contexts = np.asarray(contexts, dtype=np.int64)
    schedule, estimate = [], None
    successes = failures = 0
    for t in range(refit_every, contexts.size + 1, refit_every):
        if t < 8:
            continue
        try:
            fresh = reference_spectral_estimate(reference_moments(contexts[:t], X), H,
                                                seed + 7919 * (successes + 1))
            estimate = reference_norm_align(estimate, fresh)
        except EstimationFailed as exc:
            failures += 1
            outcome = type(exc).__name__
        else:
            successes += 1
            outcome = "ok"
        if outcomes is not None:
            outcomes.append(outcome)
        if estimate is not None:
            schedule.append((t, estimate))
    return schedule, failures


def reference_refit_reruns(seeded, outcomes, per_tile: int) -> int:
    """The refits whose seeded stage runs again when it runs over windows
    inside tiles of ``per_tile`` refits, from each refit's seed-free result
    (``seeded``) and outcome: the first window holds one refit, a window
    ends at its first seeded failure or at the end of its tile, and the
    next one starts after it, half as long (at least 1) after a seeded
    failure and twice as long otherwise; every seeded refit of a window
    beyond its failure runs again."""
    reruns = start = 0
    size = 1
    while start < len(seeded):
        stop = min(start + size, (start // per_tile + 1) * per_tile, len(seeded))
        failed = [k for k in range(start, stop) if seeded[k] and outcomes[k] != "ok"]
        if failed:
            reruns += sum(seeded[failed[0] + 1:stop])
            stop, size = failed[0] + 1, max(1, size // 2)
        else:
            size *= 2
        start = stop
    return reruns


def reference_estimation_curves(config):
    """``runner.estimation_curves`` one checkpoint at a time: for each seed
    and checkpoint ``k``, the prefix's :func:`reference_moments`,
    :func:`reference_spectral_estimate` with seed ``traj_seed + k`` (the
    uniform estimate if it fails) and :func:`reference_norm_align`, scored
    by the package's truth orientation and belief gaps.  Returns the rows
    ``(t, M_err, E_err, gap)``, each a mean over the seeds."""
    from hmmbandits.beliefs import belief_gaps
    from hmmbandits.errors import EstimationFailed
    from hmmbandits.hmm import filter_trace, sample_trajectory
    from hmmbandits.runner import _orient_to_truth, learner_seed_sequence
    from hmmbandits.spectral import EstimatedHmm

    params, run = config.params, config.run
    H, X = params.num_states, params.num_contexts
    uniform = EstimatedHmm(np.full((H, H), 1.0 / H), np.full((X, H), 1.0 / X))
    checkpoints = sorted(run.horizons)
    sums = np.zeros((len(checkpoints), 3))
    for seed_index in run.seeds:
        ss = learner_seed_sequence(run.master_seed, "estimate", checkpoints[-1], seed_index)
        traj_seed = int(ss.generate_state(1)[0])
        _, contexts = sample_trajectory(params, checkpoints[-1], seed=traj_seed)
        truth = filter_trace(params, contexts)
        estimate = None
        for k, t in enumerate(checkpoints):
            try:
                fresh = reference_spectral_estimate(reference_moments(contexts[:t], X), H,
                                                    traj_seed + k)
            except EstimationFailed:
                fresh = uniform
            estimate = reference_norm_align(estimate, fresh)
            oriented, m_err, e_err = _orient_to_truth(estimate, params.transition,
                                                      params.emission)
            gaps = belief_gaps(truth[:t], [(1, oriented)], contexts[:t])
            sums[k] += (m_err, e_err, float(np.median(gaps[t // 2:])))
    n = len(run.seeds)
    return [(t, sums[k, 0] / n, sums[k, 1] / n, sums[k, 2] / n)
            for k, t in enumerate(checkpoints)]


def reference_scheduled_beliefs(schedule, contexts, H: int) -> np.ndarray:
    """The beliefs of a ``(round, estimate)`` schedule, round by round.

    Round ``t`` with pairs takes the estimate of the last of them and
    re-filters ``x_1..x_t`` from the uniform prior; any other round takes one
    :func:`reference_step` under the current estimate, or stays uniform
    before the first.  Pairs past the last round are never reached.
    """
    xs = [int(x) for x in contexts]
    uniform = np.full(H, 1.0 / H)
    estimate, belief = None, uniform
    beliefs = []
    for t in range(1, len(xs) + 1):
        given = [est for start, est in schedule if start == t]
        if given:
            estimate = given[-1]
            belief = reference_forward_pass(estimate.transition_hat, estimate.emission_hat,
                                            uniform, xs[:t])
        elif estimate is not None:
            belief = reference_step(belief, uniform, estimate.transition_hat,
                                    estimate.emission_hat, xs[t - 1], "uniform")
        beliefs.append(belief)
    return np.array(beliefs).reshape(len(xs), H)


def population_moments(params):
    """Analytic moment tables of a stationary HMM.

    With the chain started from the stationary distribution, the multi-view
    factors are ``A1 = E diag(pi) M diag(pi)^(-1)`` (previous context),
    ``A2 = E`` (current), ``A3 = E M^T`` (next), and the pairwise/triple
    tables are their diagonal contractions against ``pi``.
    """
    M, E = params.transition, params.emission
    pi = params.initial_dist
    a1 = E @ np.diag(pi) @ M @ np.diag(1.0 / pi)
    a2 = E
    a3 = E @ M.T
    p31 = a3 @ np.diag(pi) @ a1.T
    p32 = a3 @ np.diag(pi) @ a2.T
    p312 = np.einsum("h,ih,jh,kh->ijk", pi, a3, a1, a2)
    return p31, p32, p312


def batch_ridge(features: np.ndarray, rewards: np.ndarray, lam: float) -> np.ndarray:
    """Closed-form ridge solution ``(sum f f^T + lam I)^(-1) sum f r``."""
    features = np.asarray(features, dtype=float)
    gram = lam * np.eye(features.shape[1]) + features.T @ features
    return np.linalg.solve(gram, features.T @ np.asarray(rewards, dtype=float))


def best_permutation_distance(est: np.ndarray, truth: np.ndarray, axis: str) -> float:
    """Min-over-relabelings Frobenius distance; axis 'columns' for emissions,
    'both' for transitions."""
    H = truth.shape[0] if axis == "both" else truth.shape[1]
    best = np.inf
    for perm in itertools.permutations(range(H)):
        idx = list(perm)
        moved = est[:, idx] if axis == "columns" else est[np.ix_(idx, idx)]
        best = min(best, float(np.linalg.norm(moved - truth)))
    return best


def reference_align(prev_cols: np.ndarray, fresh_cols: np.ndarray) -> tuple:
    """The first permutation, in lexicographic order over all H!, whose worst
    column distance ``max_h ||prev_cols[:, h] - fresh_cols[:, perm[h]]||_2``
    is strictly below every earlier one's: the label alignment by enumeration."""
    H = prev_cols.shape[1]
    best_perm = None
    best_cost = np.inf
    for perm in itertools.permutations(range(H)):
        cost = max(
            float(np.linalg.norm(prev_cols[:, h] - fresh_cols[:, perm[h]]))
            for h in range(H)
        )
        if cost < best_cost:
            best_cost, best_perm = cost, perm
    assert best_perm is not None
    return best_perm


def u_belief_reference(H: int, X: int, delta: float, t: int) -> float:
    """Direct transcription of the belief-error budget formula."""
    if t == 1:
        return 0.0
    return math.log(t) * (
        H * math.sqrt(X) * math.sqrt(2.0 * math.log(6.0 * X * t * (t + 1) / delta) / t)
        + math.exp(-math.sqrt(t - 1))
    )


def box_a_bonus_reference(
    *, d, H, X, lam, ell, horizon, delta, gamma, c_theta, c_eta,
    gram, belief, phi_vec, t, scope="full", known_beliefs=False,
):
    """Term-by-term recomputation of the staged confidence bonus."""
    if t <= ell:
        return 1.0 + math.sqrt(d) / lam
    s_t = math.ceil(t / ell)
    s_T = math.ceil(horizon / ell)
    v = np.concatenate([b * np.asarray(phi_vec) for b in np.asarray(belief)])
    norm = float(np.linalg.norm(np.linalg.inv(gram) @ v))

    def u(tt):
        return 0.0 if known_beliefs else u_belief_reference(H, X, delta / 2.0, tt)

    term1 = lam * math.sqrt(H) * c_theta
    term2 = 4.0 * math.sqrt(
        s_T * (s_t - 1) * (1.0 + s_t * gamma) * ell / (delta * (1.0 - gamma))
    )
    term3 = math.sqrt(4.0 * s_T / delta * c_eta * (s_t - 1) * ell)
    term4 = 2.0 * (s_t - 1) * gamma / (1.0 - gamma)
    term5 = sum(u(tau) for tau in range(1, (s_t - 1) * ell + 1))
    if scope == "full":
        return u(t) + norm * (term1 + term2 + term3 + term4 + term5)
    return u(t) + norm * (term1 + term2 + term3) + term4 + term5


def box_b_bonus_reference(
    *, d, H, X, lam, delta, c_theta, v_eta, gram, belief, phi_vec, t,
    known_beliefs=False,
):
    """Term-by-term recomputation of the per-round confidence bonus."""
    if t == 1:
        return 1.0 + math.sqrt(d) / lam
    v = np.concatenate([b * np.asarray(phi_vec) for b in np.asarray(belief)])
    mahal = math.sqrt(float(v @ np.linalg.inv(gram) @ v))

    def u(tt):
        return 0.0 if known_beliefs else u_belief_reference(H, X, delta / 2.0, tt)

    width = (
        sum(u(tau) for tau in range(1, t)) / math.sqrt(lam)
        + math.sqrt(lam * H) * c_theta
        + v_eta * math.sqrt(2.0 * math.log(2.0 / delta) + d * H * math.log(1.0 + t / (lam * d * H)))
    )
    return u(t) + mahal * width


def per_round_bonus(plan, t, mahal_sq, u_t, width) -> list[float]:
    """boxB's per-round bonus of the rows whose squared Mahalanobis norms
    ``||b (x) phi||^2_{G_{t-1}^{-1}}`` are ``mahal_sq``: ``1 + sqrt(d)/lam``
    at ``t = 1``, afterwards ``u_t`` plus the norm times ``width``.  Python
    floats with the semantics of ``np.sqrt(np.maximum(q, 0.0))``: a square
    rounded below zero counts as zero, and NaN stays NaN."""
    if t == 1:
        return [1.0 + math.sqrt(plan.d) / plan.lam] * len(mahal_sq)
    return [u_t + math.sqrt(0.0 if q < 0.0 else q) * width for q in mahal_sq]


def ucb_argmax(scores, bonus) -> int:
    """``np.argmax(scores + bonus)`` on Python floats: the first NaN sum if
    there is one, else the first maximum."""
    at, best = 0, scores[0] + bonus[0]
    for i, (s, b) in enumerate(zip(scores, bonus)):
        ucb = s + b
        if ucb != ucb:
            return i
        if ucb > best:
            at, best = i, ucb
    return at


def reference_box_a_actions(
    phi_table: np.ndarray,
    contexts,
    beliefs,
    reward_matrix: np.ndarray,
    *, lam, ell, horizon, delta, gamma, c_theta, c_eta, H, X,
    scope="full", known_beliefs=False,
):
    """Straight-line staged-LinUCB loop written directly from its statement.

    ``phi_table`` is ``(A, X, d)``; ``reward_matrix[t-1, a]`` is the reward
    action ``a`` would earn at round ``t``.  Returns the action sequence.
    """
    A, _, d = phi_table.shape
    dH = d * H
    gram = lam * np.eye(dH)
    moment = np.zeros(dH)
    theta = np.full(dH, 1.0 / lam)      # stacked warm start
    frozen_gram = gram.copy()
    actions = []
    for t in range(1, horizon + 1):
        x = int(contexts[t - 1])
        b = np.asarray(beliefs[t - 1], dtype=float)
        ucb = np.empty(A)
        for a in range(A):
            feat = np.concatenate([b[h] * phi_table[a, x] for h in range(H)])
            score = float(feat @ theta)
            bonus = box_a_bonus_reference(
                d=d, H=H, X=X, lam=lam, ell=ell, horizon=horizon, delta=delta,
                gamma=gamma, c_theta=c_theta, c_eta=c_eta, gram=frozen_gram,
                belief=b, phi_vec=phi_table[a, x], t=t, scope=scope,
                known_beliefs=known_beliefs,
            )
            ucb[a] = score + bonus
        a_t = int(np.argmax(ucb))
        actions.append(a_t)
        feat = np.concatenate([b[h] * phi_table[a_t, x] for h in range(H)])
        gram = gram + np.outer(feat, feat)
        moment = moment + feat * reward_matrix[t - 1, a_t]
        if t % ell == 0:
            theta = np.linalg.solve(gram, moment)
            frozen_gram = gram.copy()
    return actions


def reference_box_b_actions(
    phi_table: np.ndarray,
    contexts,
    beliefs,
    reward_matrix: np.ndarray,
    *, lam, horizon, delta, c_theta, v_eta, H, X,
    known_beliefs=False,
):
    """Straight-line per-round LinUCB loop written directly from its statement.

    Same conventions as :func:`reference_box_a_actions`; the ridge estimate
    is re-solved with ``np.linalg.solve`` after every round.
    """
    A, _, d = phi_table.shape
    dH = d * H
    gram = lam * np.eye(dH)
    moment = np.zeros(dH)
    theta = np.full(dH, 1.0 / lam)      # stacked warm start
    actions = []
    for t in range(1, horizon + 1):
        x = int(contexts[t - 1])
        b = np.asarray(beliefs[t - 1], dtype=float)
        ucb = np.empty(A)
        for a in range(A):
            feat = np.concatenate([b[h] * phi_table[a, x] for h in range(H)])
            ucb[a] = float(feat @ theta) + box_b_bonus_reference(
                d=d, H=H, X=X, lam=lam, delta=delta, c_theta=c_theta, v_eta=v_eta,
                gram=gram, belief=b, phi_vec=phi_table[a, x], t=t,
                known_beliefs=known_beliefs,
            )
        a_t = int(np.argmax(ucb))
        actions.append(a_t)
        feat = np.concatenate([b[h] * phi_table[a_t, x] for h in range(H)])
        gram = gram + np.outer(feat, feat)
        moment = moment + feat * reward_matrix[t - 1, a_t]
        theta = np.linalg.solve(gram, moment)
    return actions


def _dot_left_to_right(xs, ys) -> float:
    """``xs[0] * ys[0] + xs[1] * ys[1] + ...`` in Python floats, left to right."""
    total = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        total += x * y
    return total


class _Stepwise:
    def play(self, first_round, feats, rewards):
        """The learner's ``play``, one round at a time: ``act`` on a fresh
        copy of each round's block, then ``update`` with the chosen row and
        its reward."""
        actions = []
        for i, block in enumerate(np.asarray(feats)):
            feats_t = block.copy()
            a = self.act(first_round + i, feats_t)
            self.update(feats_t[a], rewards[i][a])
            actions.append(a)
        return np.array(actions, dtype=np.int64)


class StepwiseBoxA(_Stepwise):
    """Staged LinUCB one round at a time: ``act`` scores round ``t``'s
    ``(A, H*d)`` block with the ridge frozen at the last stage boundary,
    ``update`` adds the chosen row and refreezes at a boundary."""

    def __init__(self, plan):
        from hmmbandits.policies import u_schedule

        self.plan = plan
        dH = plan.H * plan.d
        self._gram = plan.lam * np.eye(dH)
        self._moment = np.zeros(dH)
        self._rounds = 0
        self._u, self._u_prefix = u_schedule(plan)
        self._theta_frozen = np.full(dH, 1.0 / plan.lam)
        self._gram_frozen_inv = np.eye(dH) / plan.lam
        self._frozen_rounds = 0

    def act(self, t, feats):
        """Score each row with Python floats, every sum added left to right
        (``x0 * y0 + x1 * y1 + ...``), so the order is fixed by the formula
        and not by a BLAS kernel or numpy's reductions."""
        from hmmbandits.policies import staged_width

        plan = self.plan
        theta = self._theta_frozen.tolist()
        if t > plan.ell:
            s_t = plan.stage_of(t)
            assert self._frozen_rounds == (s_t - 1) * plan.ell
            factor, tail = staged_width(plan, s_t, self._u_prefix[self._frozen_rounds])
            gram_inv_cols = list(zip(*self._gram_frozen_inv.tolist()))
        ucbs = []
        for f in feats.tolist():
            if t <= plan.ell:
                bonus = 1.0 + math.sqrt(plan.d) / plan.lam
            else:
                w = [_dot_left_to_right(f, col) for col in gram_inv_cols]
                bonus = self._u[t] + math.sqrt(_dot_left_to_right(w, w)) * factor + tail
            ucbs.append(_dot_left_to_right(f, theta) + bonus)
        return int(np.argmax(ucbs))

    def update(self, v, reward):
        self._gram += np.outer(v, v)
        self._moment += v * float(reward)
        self._rounds += 1
        if self._rounds % self.plan.ell == 0:
            self._theta_frozen = np.linalg.solve(self._gram, self._moment)
            self._gram_frozen_inv = np.linalg.inv(self._gram)
            self._frozen_rounds = self._rounds

    def set_gamma(self, gamma):
        from dataclasses import replace

        self.plan = replace(self.plan, gamma=float(gamma))


class StepwiseBoxB(_Stepwise):
    """Per-round LinUCB one round at a time, with Sherman-Morrison updates of
    the Gram inverse and a direct re-solve every ``RESOLVE_EVERY`` rounds."""

    def __init__(self, plan):
        from hmmbandits.policies import u_schedule

        self.plan = plan
        dH = plan.H * plan.d
        self._gram = plan.lam * np.eye(dH)
        self._moment = np.zeros(dH)
        self._gram_inv = np.eye(dH) / plan.lam
        self._theta = np.full(dH, 1.0 / plan.lam)
        self._rounds = 0
        self._u, self._u_prefix = u_schedule(plan)

    def act(self, t, feats):
        plan, lam = self.plan, self.plan.lam
        if t == 1:
            bonuses = np.full(len(feats), 1.0 + math.sqrt(plan.d) / lam)
        else:
            w = feats @ self._gram_inv
            mahal = np.sqrt(np.maximum(np.einsum("ij,ij->i", w, feats), 0.0))
            dH = plan.d * plan.H
            width = (
                self._u_prefix[self._rounds] / math.sqrt(lam)
                + math.sqrt(lam * plan.H) * plan.c_theta
                + plan.v_eta * math.sqrt(2.0 * math.log(2.0 / plan.delta)
                                         + dH * math.log(1.0 + t / (lam * dH)))
            )
            bonuses = self._u[t] + mahal * width
        return int(np.argmax(feats @ self._theta + bonuses))

    def update(self, v, reward):
        from hmmbandits.policies import RESOLVE_EVERY

        self._gram += np.outer(v, v)
        self._moment += v * float(reward)
        w = self._gram_inv @ v
        self._gram_inv -= np.outer(w, w) / (1.0 + float(v @ w))
        self._rounds += 1
        if self._rounds % RESOLVE_EVERY == 0:
            self._gram_inv = np.linalg.inv(self._gram)
            self._theta = np.linalg.solve(self._gram, self._moment)
        else:
            self._theta = self._gram_inv @ self._moment


def reference_chain(params, u_state, u_ctx):
    """Hidden path and contexts by inverse-CDF lookup, one ``bisect_right``
    per draw of the chain: ``h_1`` inverts ``pi`` at ``u_state[0]``,
    ``h_{t+1}`` inverts ``M[h_t]`` at ``u_state[t]`` and ``x_t`` inverts
    ``nu_{h_t}`` at ``u_ctx[t-1]``, each clamped to the last index."""
    last = params.num_states - 1
    cum_rows = np.cumsum(params.transition, axis=1).tolist()
    us = np.asarray(u_state, dtype=float).tolist()
    h = min(bisect_right(np.cumsum(params.initial_dist).tolist(), us[0]), last)
    path = [h]
    for u in us[1:]:
        h = min(bisect_right(cum_rows[h], u), last)
        path.append(h)
    hidden = np.array(path, dtype=np.int64)
    cum_cols = np.cumsum(params.emission, axis=0).T
    below = cum_cols[hidden] <= np.asarray(u_ctx, dtype=float)[:, None]
    contexts = np.minimum(np.count_nonzero(below, axis=1), params.num_contexts - 1)
    return hidden, contexts.astype(np.int64)


def reference_environment_path(params, spec, phi_table: np.ndarray, horizon: int, seed):
    """The per-round observe/step protocol, one scalar draw at a time.

    Three generators spawned from ``seed`` drive the latent chain, the
    emissions and the reward noise.  Round ``t``: draw ``x_t`` from column
    ``h_t`` of the emission matrix, update the exact belief by Bayes' rule,
    draw the ``A`` noise terms one by one, then move the chain.  Categorical
    draws invert the cumulative sums (``searchsorted`` to the right, clamped
    to the last index).  Returns ``(hidden, contexts, beliefs, rewards,
    scores)`` with ``scores[t-1, a] = phi(a, x_t)^T theta^T b_t``.
    """
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    latent, emission, noise = (np.random.default_rng(s) for s in root.spawn(3))
    M, E, pi = params.transition, params.emission, params.initial_dist
    theta = spec.theta_star
    A = phi_table.shape[0]

    def draw(cum, u):
        return min(int(np.searchsorted(cum, u, side="right")), len(cum) - 1)

    def eta():
        if spec.noise.kind == "gaussian":
            return noise.normal(0.0, spec.noise.v_eta) if spec.noise.v_eta > 0 else 0.0
        half = math.sqrt(3.0 * spec.noise.c_eta)
        return noise.uniform(-half, half) if half > 0 else 0.0

    hidden, contexts, beliefs, rewards, scores = [], [], [], [], []
    h = draw(np.cumsum(pi), latent.random())
    belief = None
    for _ in range(horizon):
        x = draw(np.cumsum(E[:, h]), emission.random())
        prior = pi if belief is None else M.T @ belief
        joint = E[x] * prior
        belief = joint / float(joint.sum())
        score = phi_table[:, x] @ (theta.T @ belief)
        mean = phi_table[:, x] @ theta[h] if spec.model == "state_dependent" else score
        rewards.append(mean + np.array([eta() for _ in range(A)]))
        hidden.append(h)
        contexts.append(x)
        beliefs.append(belief)
        scores.append(score)
        h = draw(np.cumsum(M[h]), latent.random())
    return (np.array(hidden), np.array(contexts), np.array(beliefs),
            np.array(rewards), np.array(scores))


def mean_reward(spec, phi, action: int, context: int, h_or_belief) -> float:
    """Mean reward of ``spec``'s model: ``phi(a, x)^T theta_h`` for a state
    index under ``state_dependent``, ``phi(a, x)^T sum_h b(h) theta_h`` for a
    belief vector under ``belief_dependent``."""
    vec = phi.table[action, context]
    if spec.model == "state_dependent":
        return float(vec @ spec.theta_star[int(h_or_belief)])
    return float(vec @ (spec.theta_star.T @ np.asarray(h_or_belief, dtype=float)))


def oracle_act(phi, theta_star: np.ndarray, context: int, true_belief: np.ndarray) -> int:
    """The oracle decision rule: the action whose mean under the true belief
    is largest (smallest index on ties)."""
    scores = phi.table[:, context] @ (np.asarray(theta_star).T @ np.asarray(true_belief))
    return int(np.argmax(scores))


def reference_baseline_cell(params, spec, phi, horizon: int, env_seed, policy_seed,
                            policy: str):
    """One random or oracle cell, round by round.

    The path is :func:`reference_environment_path` under ``env_seed``.  Round
    ``t`` picks ``a_t`` by one scalar ``integers(A)`` draw on the generator of
    ``policy_seed`` (random) or by ``oracle_act`` on the true belief
    (oracle), reveals the reward entry of ``a_t``, and adds the increment
    ``max_a scores[t, a] - scores[t, a_t]`` to a running total, left to right.
    Returns ``(hidden, contexts, beliefs, actions, rewards, increments)`` as
    arrays and the total.
    """
    hidden, contexts, beliefs, rewards, scores = reference_environment_path(
        params, spec, phi.table, horizon, env_seed)
    rng = np.random.default_rng(policy_seed)
    actions, chosen, increments = [], [], []
    total = 0.0
    for t in range(horizon):
        if policy == "random":
            a = int(rng.integers(phi.num_actions))
        else:
            a = oracle_act(phi, spec.theta_star, int(contexts[t]), beliefs[t])
        inc = float(max(scores[t])) - float(scores[t, a])
        actions.append(a)
        chosen.append(float(rewards[t, a]))
        increments.append(inc)
        total += inc
    return (hidden, contexts, beliefs, np.array(actions), np.array(chosen),
            np.array(increments)), total


def reference_round_csv_text(tape, result, emit_oracle: bool, num_states: int) -> str:
    """One arm's per-round CSV text, rendered whole, column by column, from the
    ``tape`` columns of its group and its own ``CellResult``: ``t,x,a,r,regret_inc``
    and, under ``emit_oracle``, ``h``, ``b1..bH`` and ``b1_hat..bH_hat`` (empty
    for the baselines)."""
    # .tolist() gives Python ints and floats, which render with str and repr
    header = ["t", "x", "a", "r", "regret_inc"]
    columns = [
        map(str, range(1, result.plan.horizon + 1)),
        map(str, tape["contexts"].tolist()),
        map(str, result.actions.tolist()),
        map(repr, result.rewards.tolist()),
        map(repr, result.increments.tolist()),
    ]
    if emit_oracle:
        header += ["h"] + [f"b{h + 1}" for h in range(num_states)]
        header += [f"b{h + 1}_hat" for h in range(num_states)]
        columns.append(map(str, tape["hidden"].tolist()))
        columns += [map(repr, col) for col in tape["beliefs"].T.tolist()]
        if result.learner_beliefs is None:  # the baselines keep empty cells
            columns += [itertools.repeat("")] * num_states
        else:
            columns += [map(repr, col) for col in result.learner_beliefs.T.tolist()]
    lines = [",".join(header)] + [",".join(row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


def reference_elliptic_potential(vectors: np.ndarray, lam: float) -> bool:
    """The round-by-round loop of ``check_elliptic_potential``: one ``solve``
    per round on a Gram updated in place."""
    from hmmbandits.errors import ShapeMismatch

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


def reference_staged_elliptic_potential(
    vectors: np.ndarray, lam: float, ell: int, num_stages: int
) -> bool:
    """The stage-by-stage loop of ``check_staged_elliptic_potential``: one
    ``inv`` per stage, the Gram updated by each stage's block."""
    from hmmbandits.errors import ShapeMismatch

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


def reference_determinant_trace(vectors: np.ndarray, lam: float) -> bool:
    """The round-by-round loop of ``check_determinant_trace``: one ``det``
    per round, stopping at the first violation."""
    ys = np.asarray(vectors, dtype=float)
    T, d = ys.shape
    V = lam * np.eye(d)
    for t in range(1, T + 1):
        V += np.outer(ys[t - 1], ys[t - 1])
        if np.linalg.det(V) > (lam + t / d) ** d * (1.0 + 1e-9):
            return False
    return True


def reference_conditional_state_dists(params, context_seq):
    """Rows = P(h_t = . | h_s = i, x_{s+1:t} = context_seq), the product
    chain rebuilt from the sequence's first context, and the mask of start
    states from which the sequence has positive probability."""
    H = params.num_states
    W = np.eye(H)
    for x in context_seq:
        W = (W @ params.transition) * params.emission[x, :][None, :]
    norms = W.sum(axis=1)
    feasible = norms > 0.0
    safe = np.where(feasible, norms, 1.0)
    return W / safe[:, None], feasible


def reference_forgetting(params, gamma: float, max_gap: int) -> bool:
    """The sequence-by-sequence loop of ``check_forgetting``: every context
    sequence of each gap in ``itertools.product`` order, each rebuilt by
    :func:`reference_conditional_state_dists`; sequences impossible from
    every start state are skipped."""
    tol = 1e-9
    for gap in range(1, max_gap + 1):
        bound = 2.0 * gamma**gap + tol
        for seq in itertools.product(range(params.num_contexts), repeat=gap):
            W, feasible = reference_conditional_state_dists(params, seq)
            if not feasible.any():
                continue
            rows = W[feasible]
            diffs = np.abs(rows[:, None, :] - rows[None, :, :]).sum(axis=2)
            if float(diffs.max()) > bound:
                return False
    return True
