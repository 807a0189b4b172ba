"""Spectral method-of-moments estimation of HMM parameters from a context
stream, post-processing to valid stochastic matrices, and the permutation
alignment that keeps hidden-state labels consistent across re-estimations.

Pipeline: ``prefix_tables -> subspaces -> Subspaces.estimate -> align``;
:meth:`Subspaces.estimate` ends in :func:`postprocess`.  The moment tables
of many prefixes of a stream come from one running count
(:func:`prefix_tables`), and their seed-free stage (:func:`subspaces`:
SVDs, sign fix, rank and pivot checks, pivot inverse) runs stacked, a tile
at a time; the seeded stage (:meth:`Subspaces.estimate`) runs per moment
set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (DiagonalizationFailed, NearSingularPivot, NonFinite, RankDeficient,
                     ShapeMismatch)
from .hmm import TILE_BYTES, _freeze

COND_LIMIT = 1e12
RANK_TOL = 1e-12
IMAG_TOL = 1e-6
RETRY_BUDGET = 10


def _stack(K: int, *shape) -> np.ndarray:
    """``K`` empty C-ordered arrays, each 16-byte aligned as a fresh array is:
    some OpenBLAS kernels (Prescott) round by their operands' alignment."""
    size = math.prod(shape)
    return np.empty((K, size + size % 2))[:, :size].reshape(K, *shape)


def prefix_tables(contexts, num_contexts: int, ends):
    """Yield the ``(p31, p32, p312)`` stacks of the prefixes ``contexts[:t]``
    (``t`` in the sorted ``ends``, each at least 3), a tile of at most
    ``hmm.TILE_BYTES`` of triple tables at a time, from one running count: a
    tile's new triples ``(x_{s+1} * X + x_{s-1}) * X + x_s`` in one
    ``np.bincount`` keyed by prefix, summed cumulatively; then marginals.

    Over the ``t - 2`` triples ``(x_{s+1}, x_{s-1}, x_s)`` of a prefix,
    ``p31[i, j]`` is the empirical probability of ``x_{s+1} = i, x_{s-1} =
    j``, ``p32[i, k]`` of ``x_{s+1} = i, x_s = k``, and ``p312[i, j, k]``
    the full triple table."""
    X = int(num_contexts)
    x = np.asarray(contexts, dtype=np.int64)[:ends[-1]]
    if x.min() < 0 or x.max() >= X:
        raise ShapeMismatch("context indices outside [0, X)")
    flat = (x[2:] * X + x[:-2]) * X + x[1:-1]
    running = np.zeros(X**3, dtype=np.int64)
    cap = max(1, TILE_BYTES // (8 * X**3))
    for lo in range(0, len(ends), cap):
        n = np.array(ends[lo:lo + cap], dtype=np.int64) - 2      # triples per prefix
        first = ends[lo - 1] - 2 if lo else 0
        key = np.repeat(np.arange(n.size), np.diff(n, prepend=first)) * X**3
        counts = np.bincount(key + flat[first:n[-1]], minlength=n.size * X**3)
        c312 = np.cumsum(counts.reshape(n.size, X**3), axis=0) + running
        running = c312[-1]
        c312, scale = c312.reshape(n.size, X, X, X), n[:, None, None]
        p31, p32, p312 = _stack(n.size, X, X), _stack(n.size, X, X), _stack(n.size, X, X, X)
        np.divide(c312.sum(axis=3), scale, out=p31)
        np.divide(c312.sum(axis=2), scale, out=p32)
        np.divide(c312, scale[..., None], out=p312)
        yield p31, p32, p312


@dataclass(frozen=True)
class EstimatedHmm:
    """Stochastic estimate of ``(M, E)``: rows of ``transition_hat`` and
    columns of ``emission_hat`` are distributions.  ``label_permutation``
    records the relabeling applied by :func:`align` relative to the previous
    estimate.  Both matrices are kept as read-only C-ordered copies, the
    layout of :class:`hmmbandits.hmm.HmmParams`.
    """

    transition_hat: np.ndarray             # (H, H)
    emission_hat: np.ndarray               # (X, H)
    label_permutation: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "transition_hat", _freeze(self.transition_hat))
        object.__setattr__(self, "emission_hat", _freeze(self.emission_hat))

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


@dataclass(frozen=True)
class Subspaces:
    """The seed-free stage of one moment set: ``sigma``, the H-th singular
    value of ``p31``, the bases, and the pivot's inverse (None if singular)."""

    p312: np.ndarray
    sigma: float
    u3: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    pivot_inv: np.ndarray | None

    def estimate(self, seed: int) -> EstimatedHmm:
        """Estimate ``(M, E)`` from this moment set (labels arbitrary, unaligned).

        The triple table is contracted along random directions drawn from
        ``seed`` and simultaneously diagonalized in the shared eigenbasis
        ``R``.  If the eigensystem is complex or defective beyond tolerance,
        a fresh rotation is drawn (budget of ``RETRY_BUDGET``); then
        :class:`DiagonalizationFailed` is raised.  Eigenvector signs are
        arbitrary, so the raw transition's rows are flipped to nonnegative
        sums; :func:`postprocess` makes the estimate stochastic.
        """
        H, u3, u1, u2, pivot_inv = self.u3.shape[1], self.u3, self.u1, self.u2, self.pivot_inv
        if self.sigma < RANK_TOL:
            raise RankDeficient(f"{H}-th singular value of p31 is {self.sigma:.3e} < {RANK_TOL}")
        if pivot_inv is None:
            raise NearSingularPivot("projected pairwise moment matrix is near singular")

        def contracted_b(z: np.ndarray) -> np.ndarray:
            return (u3.T @ np.einsum("ijk,k->ij", self.p312, z) @ u1) @ pivot_inv

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
            raise DiagonalizationFailed(
                f"no real well-conditioned eigensystem in {RETRY_BUDGET} rotations")

        r_inv = np.linalg.inv(r_mat)
        l_mat = np.empty((H, H))
        for h in range(H):
            l_mat[h] = np.real(np.diag(r_inv @ contracted_b(u2 @ gamma[h]) @ r_mat))
        # Box C writes the emission output as the transpose of obs_factor; the
        # package-wide convention keeps emissions X x H (column h = nu_h).
        obs_factor = u2 @ np.linalg.solve(gamma, l_mat)
        proj = u3.T @ obs_factor
        if np.linalg.cond(proj) > COND_LIMIT:
            raise NearSingularPivot("projected observation factor is near singular")
        raw_m = np.linalg.solve(proj, r_mat).T
        raw_m = raw_m * np.where(raw_m.sum(axis=1) < 0, -1.0, 1.0)[:, None]
        return postprocess(raw_m, obs_factor)


def subspaces(p31: np.ndarray, p32: np.ndarray, p312: np.ndarray, H: int) -> list:
    """The seed-free stage of a stack of moment sets, one :class:`Subspaces`
    each: SVDs (singular values descending, ties by index), sign fix (each
    basis column's largest entry positive), the pivot ``u3^T p31 u1``, its
    condition and inverse, each one call over the stack.  numpy runs a
    stacked SVD or inverse as the LAPACK call on each matrix, and products
    read :func:`_stack` slices, so each keeps its bits."""
    K, X, _ = p31.shape
    if H > X:
        raise ShapeMismatch(f"H = {H} must not exceed X = {X}")
    u3_full, s31, v31t = np.linalg.svd(p31)
    v32t = np.linalg.svd(p32)[2]
    bases = []
    for full in (u3_full, v31t.swapaxes(1, 2), v32t.swapaxes(1, 2)):
        basis = _stack(K, X, H)
        basis[...] = full[:, :, :H]
        top = np.argmax(np.abs(basis), axis=1)[:, None, :]
        np.negative(basis, out=basis, where=np.take_along_axis(basis, top, axis=1) < 0)
        bases.append(basis)
    u3, u1, u2 = bases
    left, pivot, pivot_inv = _stack(K, H, X), _stack(K, H, H), _stack(K, H, H)
    np.matmul(np.matmul(u3.swapaxes(1, 2), p31, out=left), u1, out=pivot)
    ok = ~(s31[:, H - 1] < RANK_TOL) & ~(np.linalg.cond(pivot) > COND_LIMIT)
    if ok.any():
        pivot_inv[ok] = np.linalg.inv(pivot[ok])
    return [Subspaces(p312[k], float(s31[k, H - 1]), u3[k], u1[k], u2[k],
                      pivot_inv[k] if ok[k] else None) for k in range(K)]


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
    As a bottleneck assignment (Gabow & Tarjan 1988), the worst distance
    ``c*`` is the smallest entry whose pairs ``cost <= c*`` hold a perfect
    matching (Kuhn's augmenting paths; the search starts at the largest row
    or column minimum), then each position takes the smallest column that
    leaves a matching for the rest.  Each distance is ``sqrt(d.dot(d))`` of
    one fresh difference ``d``, the bits of ``np.linalg.norm(d)``.
    """
    H = fresh.num_states
    if previous is None:
        return replace(fresh, label_permutation=tuple(range(H)))
    if previous.num_states != H:
        raise ShapeMismatch("cannot align estimates with different H")
    cost = [[math.sqrt((d := prev - col).dot(d)) for col in fresh.emission_hat.T]
            for prev in previous.emission_hat.T]
    if not all(math.isfinite(c) for row in cost for c in row):
        raise NonFinite("cannot align emission columns with non-finite distances")
    floor = max(max(map(min, cost)), max(map(min, zip(*cost))))
    levels = sorted({c for row in cost for c in row if c >= floor})
    # the identity matches at the largest level, which bounds every entry
    lo, hi, mid, match = 0, len(levels) - 1, 0, {h: h for h in range(H)}
    while lo < hi:
        found = _matching(cost, levels[mid], [])
        if found is None:
            lo = mid + 1
        else:
            hi, match = mid, found
        mid = (lo + hi) // 2
    perm: list[int] = []
    for h in range(H):
        for j in range(H):
            if j in perm or cost[h][j] > levels[lo]:
                continue
            found = match if j == match[h] else _matching(cost, levels[lo], perm + [j])
            if found is not None:
                match = found
                break
        perm.append(j)
    return EstimatedHmm(fresh.transition_hat[np.ix_(perm, perm)], fresh.emission_hat[:, perm],
                        tuple(perm))


def _matching(cost, bound: float, fixed: list) -> dict | None:
    """``{row: column}`` for rows ``len(fixed)..``, distinct columns outside
    ``fixed`` with ``cost[row][col] <= bound`` (Kuhn's augmenting paths)."""
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

    if not all(augment(row, set()) for row in range(len(fixed), len(cost))):
        return None
    return {row: j for j, row in owner.items()}


def relabel(estimate: EstimatedHmm, perm) -> EstimatedHmm:
    """``estimate`` with state ``h`` taken from state ``perm[h]``: transition
    rows and columns and emission columns are permuted alike."""
    idx = list(perm)
    return replace(
        estimate,
        transition_hat=estimate.transition_hat[np.ix_(idx, idx)],
        emission_hat=estimate.emission_hat[:, idx],
    )
