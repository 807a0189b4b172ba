"""Spectral method-of-moments estimation of HMM parameters from a context
stream, post-processing to valid stochastic matrices, and the permutation
alignment that keeps hidden-state labels consistent across re-estimations.

Pipeline: ``accumulate_moments -> spectral_estimate -> align``;
``spectral_estimate`` ends in :func:`postprocess`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DiagonalizationFailed,
    NearSingularPivot,
    NonFinite,
    RankDeficient,
    ShapeMismatch,
    TooShort,
)

COND_LIMIT = 1e12
RANK_TOL = 1e-12
IMAG_TOL = 1e-6
RETRY_BUDGET = 10


@dataclass(frozen=True)
class MomentSet:
    """Empirical co-occurrence tables over context triples ``(x_{s+1}, x_{s-1}, x_s)``.

    ``p31[i, j]`` is the empirical probability of ``x_{s+1} = i, x_{s-1} = j``,
    ``p32[i, k]`` of ``x_{s+1} = i, x_s = k``, and ``p312[i, j, k]`` the full
    triple table; each sums to 1 over the ``sample_count - 2`` triples.
    """

    p31: np.ndarray
    p32: np.ndarray
    p312: np.ndarray
    sample_count: int


def accumulate_moments(contexts, num_contexts: int) -> MomentSet:
    """Moment tables of a context stream from one count of its triples.

    Each triple ``(x_{s+1}, x_{s-1}, x_s)`` is counted at the flat index
    ``(x_{s+1} * X + x_{s-1}) * X + x_s``; the pairwise tables are integer
    marginals of the triple counts.
    """
    x = np.asarray(contexts, dtype=np.int64)
    if x.size < 3:
        raise TooShort("need at least 3 contexts to form a moment triple")
    X = int(num_contexts)
    if x.min() < 0 or x.max() >= X:
        raise ShapeMismatch("context indices outside [0, X)")
    n = x.size - 2
    flat = (x[2:] * X + x[:-2]) * X + x[1:-1]
    c312 = np.bincount(flat, minlength=X**3).reshape(X, X, X)
    return MomentSet(
        p31=c312.sum(axis=2) / n,
        p32=c312.sum(axis=1) / n,
        p312=c312 / n,
        sample_count=int(x.size),
    )


@dataclass(frozen=True)
class EstimatedHmm:
    """Stochastic estimate of ``(M, E)``: rows of ``transition_hat`` and
    columns of ``emission_hat`` are distributions.  ``label_permutation``
    records the relabeling applied by :func:`align` relative to the previous
    estimate.
    """

    transition_hat: np.ndarray             # (H, H)
    emission_hat: np.ndarray               # (X, H)
    label_permutation: tuple[int, ...] = ()

    @property
    def num_states(self) -> int:
        return self.transition_hat.shape[0]

    def to_text(self) -> str:
        """Flat decimal block: M row-major, then E column-major, then perm."""
        X, H = self.emission_hat.shape
        lines = [
            f"H {H} X {X}",
            "M " + " ".join(repr(float(v)) for v in self.transition_hat.ravel(order="C")),
            "E " + " ".join(repr(float(v)) for v in self.emission_hat.ravel(order="F")),
            "perm " + " ".join(str(i) for i in self.label_permutation),
        ]
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "EstimatedHmm":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        head = lines[0].split()
        H, X = int(head[1]), int(head[3])
        m = np.array([float(v) for v in lines[1].split()[1:]]).reshape(H, H)
        e = np.array([float(v) for v in lines[2].split()[1:]]).reshape(
            (X, H), order="F"
        )
        perm = tuple(int(v) for v in lines[3].split()[1:])
        return EstimatedHmm(m, e, label_permutation=perm)


def _fix_svd_signs(basis: np.ndarray) -> np.ndarray:
    """Make each column's largest-magnitude entry positive (cross-run stability)."""
    out = basis.copy()
    for j in range(out.shape[1]):
        k = int(np.argmax(np.abs(out[:, j])))
        if out[k, j] < 0:
            out[:, j] = -out[:, j]
    return out


def _contract(p312: np.ndarray, z: np.ndarray) -> np.ndarray:
    return np.einsum("ijk,k->ij", p312, z)


def spectral_estimate(moments: MomentSet, H: int, seed: int) -> EstimatedHmm:
    """Estimate ``(M, E)`` from moment tables (labels arbitrary, unaligned).

    SVDs of the pairwise tables give the subspace bases; the triple table is
    contracted along random directions drawn from ``seed`` and simultaneously
    diagonalized in the shared eigenbasis ``R``.  Singular values are taken in
    descending order with index tie-break.  If the eigensystem is complex or
    defective beyond tolerance, a fresh rotation is drawn (budget of
    ``RETRY_BUDGET``); then :class:`DiagonalizationFailed` is raised.

    Eigenvector sign ambiguity scales rows of the raw transition estimate by
    an arbitrary sign; rows are flipped to have nonnegative sums, since they
    estimate probability distributions.  The raw matrices then go through
    :func:`postprocess`, so the estimate is stochastic.
    """
    X = moments.p31.shape[0]
    if H > X:
        raise ShapeMismatch(f"H = {H} must not exceed X = {X}")
    if moments.sample_count < 3:
        raise TooShort("moment set built from fewer than 3 contexts")
    u3_full, s31, v31t = np.linalg.svd(moments.p31)
    if s31[H - 1] < RANK_TOL:
        raise RankDeficient(
            f"{H}-th singular value of p31 is {s31[H - 1]:.3e} < {RANK_TOL}"
        )
    u3 = _fix_svd_signs(u3_full[:, :H])
    u1 = _fix_svd_signs(v31t[:H, :].T)
    _, _, v32t = np.linalg.svd(moments.p32)
    u2 = _fix_svd_signs(v32t[:H, :].T)

    pivot = u3.T @ moments.p31 @ u1
    if np.linalg.cond(pivot) > COND_LIMIT:
        raise NearSingularPivot("projected pairwise moment matrix is near singular")
    pivot_inv = np.linalg.inv(pivot)

    def contracted_b(z: np.ndarray) -> np.ndarray:
        return (u3.T @ _contract(moments.p312, z) @ u1) @ pivot_inv

    rng = np.random.default_rng(seed)
    for _ in range(RETRY_BUDGET):
        q, _ = np.linalg.qr(rng.normal(size=(H, H)))
        b1 = contracted_b(u2 @ q[0])
        eigvals, eigvecs = np.linalg.eig(b1)
        radius = float(np.max(np.abs(eigvals))) if H > 0 else 0.0
        imag_limit = IMAG_TOL * max(radius, 1e-300)
        if float(np.max(np.abs(eigvals.imag))) > imag_limit:
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
        raise DiagonalizationFailed(
            f"no real well-conditioned eigensystem in {RETRY_BUDGET} rotations"
        )

    r_inv = np.linalg.inv(r_mat)
    l_mat = np.empty((H, H))
    for h in range(H):
        bh = contracted_b(u2 @ gamma[h])
        l_mat[h] = np.real(np.diag(r_inv @ bh @ r_mat))

    # Box C writes the emission output as the transpose of obs_factor; the
    # package-wide convention keeps emissions X x H (column h = nu_h).
    obs_factor = u2 @ np.linalg.solve(gamma, l_mat)
    proj = u3.T @ obs_factor
    if np.linalg.cond(proj) > COND_LIMIT:
        raise NearSingularPivot("projected observation factor is near singular")
    raw_m = np.linalg.solve(proj, r_mat).T
    row_signs = np.where(raw_m.sum(axis=1) < 0, -1.0, 1.0)
    raw_m = raw_m * row_signs[:, None]
    return postprocess(raw_m, obs_factor)


def _clip_normalize(vectors: np.ndarray) -> np.ndarray:
    """Clip negatives and renormalize each row to a distribution (uniform if zero)."""
    clipped = np.clip(vectors, 0.0, None)
    sums = clipped.sum(axis=1)
    return np.where(
        (sums > 0.0)[:, None],
        clipped / np.where(sums > 0.0, sums, 1.0)[:, None],
        np.full_like(clipped, 1.0 / vectors.shape[1]),
    )


def postprocess(transition, emission) -> EstimatedHmm:
    """The stochastic estimate, with identity labels, made from a raw ``(M, E)``.

    Rows of the transition and columns of the emission are projected by
    clipping negative entries to zero and dividing by the sum; an all-zero
    row or column falls back to the uniform distribution.  Idempotent on
    valid inputs.
    """
    transition = np.asarray(transition, dtype=float)
    emission = np.asarray(emission, dtype=float)
    if not (np.all(np.isfinite(transition)) and np.all(np.isfinite(emission))):
        raise NonFinite("raw estimates contain non-finite entries")
    return EstimatedHmm(
        _clip_normalize(transition),
        _clip_normalize(emission.T).T,
        label_permutation=tuple(range(transition.shape[0])),
    )


def align(previous: EstimatedHmm | None, fresh: EstimatedHmm) -> EstimatedHmm:
    """Relabel ``fresh`` so its emission columns best match ``previous``.

    The permutation minimizes the worst-column Euclidean distance
    ``max_h || nu_prev_h - nu_fresh_perm(h) ||_2`` (ties: lexicographically
    smallest permutation); with no previous estimate the labels are kept.
    It is found as a bottleneck assignment over the H x H distance matrix
    (Gabow & Tarjan 1988): the optimal worst distance ``c*`` is the smallest
    entry whose pairs ``cost <= c*`` hold a perfect matching, and each
    position in turn takes the smallest column that leaves one for the rest
    (Kuhn's augmenting paths decide both), in O(H^5) rather than O(H! H).
    """
    H = fresh.num_states
    if previous is None:
        return replace(fresh, label_permutation=tuple(range(H)))
    if previous.num_states != H:
        raise ShapeMismatch("cannot align estimates with different H")
    prev_cols, fresh_cols = previous.emission_hat, fresh.emission_hat
    cost = [
        [float(np.linalg.norm(prev_cols[:, h] - fresh_cols[:, j])) for j in range(H)]
        for h in range(H)
    ]
    if not np.all(np.isfinite(cost)):
        raise NonFinite("cannot align emission columns with non-finite distances")
    levels = sorted({c for row in cost for c in row})
    lo, hi = 0, len(levels) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _has_matching(cost, levels[mid], []):
            hi = mid
        else:
            lo = mid + 1
    bound = levels[lo]
    perm: list[int] = []
    for h in range(H):
        perm.append(next(
            j for j in range(H)
            if j not in perm and cost[h][j] <= bound and _has_matching(cost, bound, perm + [j])
        ))
    best_perm = tuple(perm)
    return replace(relabel(fresh, best_perm), label_permutation=best_perm)


def _has_matching(cost, bound: float, fixed: list) -> bool:
    """Whether rows ``len(fixed)..H-1`` can take distinct columns outside
    ``fixed`` (the columns of rows ``0..len(fixed)-1``) with every
    ``cost[row][col] <= bound``: Kuhn's augmenting-path matching."""
    free = [j for j in range(len(cost)) if j not in fixed]
    owner: dict[int, int] = {}

    def augment(row: int, seen: set) -> bool:
        for j in free:
            if j not in seen and cost[row][j] <= bound:
                seen.add(j)
                if j not in owner or augment(owner[j], seen):
                    owner[j] = row
                    return True
        return False

    return all(augment(row, set()) for row in range(len(fixed), len(cost)))


def relabel(estimate: EstimatedHmm, perm) -> EstimatedHmm:
    """``estimate`` with state ``h`` taken from state ``perm[h]``: transition
    rows and columns and emission columns are permuted alike."""
    idx = list(perm)
    return replace(
        estimate,
        transition_hat=estimate.transition_hat[np.ix_(idx, idx)],
        emission_hat=estimate.emission_hat[:, idx],
    )
