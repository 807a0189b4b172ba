"""Spectral method-of-moments estimation of HMM parameters from a context
stream, post-processing to valid stochastic matrices, and the permutation
alignment that keeps hidden-state labels consistent across re-estimations.

Pipeline: ``prefix_tables -> subspaces -> seeded_estimates -> align``;
:func:`seeded_estimates` ends in :func:`postprocess`.  The moment tables of
many prefixes of a stream come from one running count
(:func:`prefix_tables`), and their seed-free stage (:func:`subspaces`:
SVDs, sign fix, rank check, pivot inverse) runs stacked, a tile at a
time.  The seeded stage (:func:`seeded_estimates`: rotations,
eigenvectors, raw matrices, post-processing) runs stacked over the moment
sets a caller hands it, one seed each; the online refits hand it windows
of a tile's refits under speculated seeds (``beliefs.refit_schedule``).
Each stage returns a set's failure in its place where it is decided, and
the seeded stage passes a ``RankDeficient`` on.
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
# the rotations tried in one stacked call: the first for every set, then the
# rest for the sets it failed (at H = 6 most sets fail the first, and a
# call per rotation costs more than the rotations tried past a success)
ROTATION_ROUNDS = ((0, 1), (1, RETRY_BUDGET))


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
    """The seed-free stage of one moment set that passed the rank check: the
    bases and the pivot's inverse."""

    p312: np.ndarray
    u3: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    pivot_inv: np.ndarray


def subspaces(p31: np.ndarray, p32: np.ndarray, p312: np.ndarray, H: int) -> list:
    """The seed-free stage of a stack of moment sets, one :class:`Subspaces`
    each, or :class:`~hmmbandits.errors.RankDeficient` in place of a set
    whose H-th singular value of ``p31`` is below ``RANK_TOL``: SVDs
    (singular values descending, ties by index), sign fix (each basis
    column's largest entry positive), the pivot ``u3^T p31 u1`` and its
    inverse, each one call over the stack.  numpy runs a stacked SVD or
    inverse as the LAPACK call on each matrix, and products read
    :func:`_stack` slices, so each keeps its bits.  ``u3`` and ``u1`` are
    ``p31``'s top-H singular vectors, so the pivot is ``diag(+-sigma_h)``,
    and the rank check bounds its condition: ``sigma_1 / sigma_H <= 1 /
    RANK_TOL = COND_LIMIT``, as ``sigma_1 <= ||p31||_F <= 1``."""
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
    ok = ~(s31[:, H - 1] < RANK_TOL)
    if ok.any():
        pivot_inv[ok] = np.linalg.inv(pivot[ok])
    return [Subspaces(p312[k], u3[k], u1[k], u2[k], pivot_inv[k]) if ok[k] else
            RankDeficient(f"{H}-th singular value of p31 is {s31[k, H - 1]:.3e} < {RANK_TOL}")
            for k in range(K)]


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` into a :func:`_stack` array: each product lands 16-byte
    aligned, as a fresh one does."""
    lead = [max(m, n) for m, n in zip(a.shape[:-2], b.shape[:-2])]   # broadcast
    out = _stack(math.prod(lead), a.shape[-2], b.shape[-1])
    return np.matmul(a, b, out=out.reshape(*lead, *out.shape[1:]))


def _copy(a: np.ndarray) -> np.ndarray:
    """A stack of matrices copied into a :func:`_stack` array."""
    out = _stack(math.prod(a.shape[:-2]), *a.shape[-2:]).reshape(a.shape)
    out[...] = a
    return out


def _contract(operands, dirs: np.ndarray) -> np.ndarray:
    """The (K, n, H, H) stack of ``(u3^T (p312 . u2 z) u1) pivot_inv``, one
    matrix for each row ``z`` of each set's ``dirs`` (K, n, H): the triple
    table contracted along ``u2 z``, projected and whitened."""
    p312, u3, u1, u2, pivot_inv = operands
    K, n, _ = dirs.shape
    X = p312.shape[1]
    z = _mul(u2[:, None], dirs[..., None])[..., 0]
    table = _stack(K * n, X, X).reshape(K, n, X, X)
    np.einsum("...ijk,...k->...ij", p312[:, None], z, out=table)
    return _mul(_mul(_mul(u3.swapaxes(1, 2)[:, None], table), u1[:, None]),
                pivot_inv[:, None])


def seeded_estimates(sets: list, seeds: list) -> list:
    """The seeded stage of each :class:`Subspaces` of ``sets`` under its
    seed in ``seeds``: its :class:`EstimatedHmm` (labels arbitrary,
    unaligned), or the :class:`~hmmbandits.errors.EstimationFailed` (or
    ``NonFinite``) it ends in; a ``RankDeficient`` of ``sets`` is passed on.

    Each set draws ``RETRY_BUDGET`` rotations from its seed; the triple
    table is contracted along the first row of a rotation's Q factor and
    diagonalized.  The set takes the first rotation whose eigensystem is
    real and well conditioned; with none, :class:`DiagonalizationFailed`.
    Then the table is contracted along every row of the rotation that
    worked and diagonalized in the shared eigenbasis ``R``, and the raw
    matrices are solved for (:class:`NearSingularPivot` if the projected
    observation factor is near singular).  Eigenvector signs are arbitrary,
    so the raw transition's rows are flipped to nonnegative sums (added
    left to right); :func:`postprocess` makes the estimates stochastic.

    Each step (``qr``, the contraction, ``eig`` and its checks, ``inv``, the
    H contractions, ``solve``, ``cond``, the raw matrices, ``postprocess``)
    is one call over the sets still pending, with the rotations of a round
    of ``ROTATION_ROUNDS`` at once.  numpy runs a stacked
    factorization as the LAPACK call on each matrix, and every product
    reads and writes :func:`_stack` slices, so each set keeps the bits it
    has alone.
    """
    if len(seeds) != len(sets):
        raise ShapeMismatch(f"{len(seeds)} seeds for {len(sets)} moment sets")
    results = list(sets)
    live = np.array([k for k, stage in enumerate(sets) if isinstance(stage, Subspaces)])
    if not live.size:
        return results
    operands = []
    for name in ("p312", "u3", "u1", "u2", "pivot_inv"):
        parts = [getattr(sets[k], name) for k in live]
        operands.append(np.stack(parts, out=_stack(live.size, *parts[0].shape)))
    H = operands[1].shape[2]
    rotations = np.stack([np.random.default_rng(seeds[k]).normal(size=(RETRY_BUDGET, H, H))
                          for k in live])
    gamma, r_mat = _stack(live.size, H, H), _stack(live.size, H, H)
    pending = np.arange(live.size)
    for lo, hi in ROTATION_ROUNDS:
        if not pending.size:
            break
        tried = operands if pending.size == live.size else [_copy(a[pending]) for a in operands]
        q = _copy(np.linalg.qr(rotations[pending, lo:hi]).Q)
        eigvals, eigvecs = np.linalg.eig(_contract(tried, q[:, :, 0]))
        radius = np.abs(eigvals).max(axis=-1)
        real = ~(np.abs(eigvals.imag).max(axis=-1) > IMAG_TOL * np.maximum(radius, 1e-300))
        candidate = np.real(eigvecs)
        norms = np.linalg.norm(candidate, axis=-2)
        rows = np.flatnonzero(real & ~np.any(norms < 1e-12, axis=-1))
        candidate = candidate.reshape(-1, H, H)[rows] / norms.reshape(-1, H)[rows][:, None, :]
        well = ~(np.linalg.cond(candidate) > COND_LIMIT)
        # each set takes the first rotation of the round that passes every check
        passing = np.zeros(q.shape[:2], dtype=bool)
        passing.flat[rows[well]] = True
        done = np.flatnonzero(passing.any(axis=1))
        first = done * (hi - lo) + passing[done].argmax(axis=1)
        gamma[pending[done]] = q.reshape(-1, H, H)[first]
        r_mat[pending[done]] = candidate[np.searchsorted(rows, first)]
        pending = np.delete(pending, done)
    for k in live[pending]:
        results[k] = DiagonalizationFailed(
            f"no real well-conditioned eigensystem in {RETRY_BUDGET} rotations")
    found = np.delete(np.arange(live.size), pending)
    if found.size < live.size:
        operands, gamma, r_mat = ([_copy(a[found]) for a in operands],
                                  _copy(gamma[found]), _copy(r_mat[found]))
    _, u3, _, u2, _ = operands
    r_inv = _copy(np.linalg.inv(r_mat))
    # row h of l_mat: the eigenvalues of the contraction along u2 gamma[h]
    products = _mul(_mul(r_inv[:, None], _contract(operands, gamma)), r_mat[:, None])
    l_mat = np.diagonal(products, axis1=2, axis2=3)
    # Box C writes the emission output as the transpose of obs_factor; the
    # package-wide convention keeps emissions X x H (column h = nu_h).
    obs_factor = _mul(u2, _copy(np.linalg.solve(gamma, l_mat)))
    proj = _mul(u3.swapaxes(1, 2), obs_factor)
    singular = np.linalg.cond(proj) > COND_LIMIT
    raw_m = np.linalg.solve(proj[~singular], r_mat[~singular]).swapaxes(1, 2)
    raw_m = raw_m * np.where(_row_sums(raw_m) < 0, -1.0, 1.0)[..., None]
    fits = iter(postprocess(raw_m, obs_factor[~singular]))
    for k, flat in zip(live[found], singular):
        results[k] = (NearSingularPivot("projected observation factor is near singular")
                      if flat else next(fits))
    return results


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Each row's sum, added left to right whatever the layout (numpy's
    ``sum`` adds a contiguous row of 8 or more entries pairwise)."""
    return np.add.accumulate(a, axis=-1)[..., -1]


def _clip_normalize(vectors: np.ndarray) -> np.ndarray:
    """Clip negatives and renormalize each row (the last axis) to a
    distribution (uniform if zero)."""
    clipped = np.clip(vectors, 0.0, None)
    sums = _row_sums(clipped)[..., None]
    return np.divide(clipped, sums, out=np.full_like(clipped, 1.0 / vectors.shape[-1]),
                     where=sums > 0.0)


def postprocess(transitions, emissions) -> list:
    """The stochastic estimates, with identity labels, made from stacks of
    raw ``(M, E)`` pairs, (K, H, H) and (K, X, H): one :class:`EstimatedHmm`
    per pair, or :class:`~hmmbandits.errors.NonFinite` for a pair with a
    non-finite entry.

    Rows of each transition and columns of each emission are projected by
    clipping negative entries to zero and dividing by their sum (added left
    to right); an all-zero row or column falls back to the uniform
    distribution.  Idempotent on valid inputs.
    """
    transitions = np.asarray(transitions, dtype=float)
    emissions = np.asarray(emissions, dtype=float)
    finite = np.isfinite(transitions).all(axis=(1, 2)) & np.isfinite(emissions).all(axis=(1, 2))
    stochastic = zip(_clip_normalize(transitions[finite]),
                     _clip_normalize(emissions[finite].swapaxes(1, 2)).swapaxes(1, 2))
    labels = tuple(range(transitions.shape[1]))
    return [EstimatedHmm(*next(stochastic), labels) if ok
            else NonFinite("raw estimates contain non-finite entries") for ok in finite]


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
    return replace(relabel(fresh, perm), label_permutation=tuple(perm))


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
