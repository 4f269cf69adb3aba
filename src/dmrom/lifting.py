"""Out-of-sample restriction and lifting between ambient and reduced spaces.

Restriction evaluates the diffusion-map coordinates of new ambient points by
replaying the training kernel normalization on the new kernel row (Nystrom
extension). Lifting goes the other way: a second Gaussian-kernel eigenbasis is
built on the reduced training coordinates and every ambient channel is
expanded in it, so reduced forecasts can be mapped back to ambient values.
The truncation of that eigenbasis is the lift's only regularizer; its rank is
the one whose closed-form leave-one-out residual on the training points is
lowest (Golub, Heath & Wahba 1979). A small kernel is solved in full; from
`dmaps.RANGE_FINDER_MIN_N` points on, only the leading eigenpairs that rank
can reach are solved for, by a randomized range finder: the first
`LEADING_PAIRS`, doubled while the lowest residual sits at the last of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dmaps
from .dmaps import DiffusionEmbedding

EIG_FLOOR = 1e-8          # the lift's candidate ranks stop at this relative eigenvalue
LEADING_PAIRS = 128       # gh_fit's first leading-subset solve; doubled while the rank needs more
MIN_EIGENVALUE = 1e-12    # restriction is ill-posed below this


def nystrom_restrict(E: DiffusionEmbedding, X_train, x_new, selected) -> np.ndarray:
    """Reduced coordinates of new ambient points via the training kernel chain.

    The new kernel row gets the same two-step normalization as the training
    affinities (density correction by the stored training degrees
    ``E.degrees`` and its own row sum, then row normalization), after which
    each coordinate is read off as
    psi_l(x*) = (1/lam_l) sum_j p*_j psi_{j,l}.

    Parameters
    ----------
    E : DiffusionEmbedding
        Embedding built from ``X_train`` (its kernel scale is reused).
    X_train : array, shape (N, M)
    x_new : array, shape (n, M)
    selected : list of int
        1-based eigen indices to evaluate, each in 1..k.

    Returns
    -------
    ndarray, shape (n, len(selected))
        The coordinates of each query row. Points whose kernel row underflows
        to zero are out of support: `dmaps.kernel` warns, and their
        coordinates are zero.
    """
    sel = np.asarray(selected, dtype=int)
    if sel.size == 0 or np.any(sel < 1) or np.any(sel > E.k):
        raise ValueError(f"selected indices must lie in 1..{E.k}")
    lam = E.eigenvalues[sel]
    if np.any(np.abs(lam) < MIN_EIGENVALUE):
        bad = sel[np.abs(lam) < MIN_EIGENVALUE]
        raise ValueError(
            f"restriction ill-posed: eigenvalue below {MIN_EIGENVALUE} at index {bad[0]}"
        )

    k_star, _ = dmaps.kernel(X_train, x_new, E.sigma)
    row_sums = k_star.sum(axis=1)
    out = np.zeros((k_star.shape[0], sel.size))
    alive = row_sums > 0.0   # the kernel warned about the others
    # the row sums cancel in the row normalization below, but dropping them moves the last bits
    w_tilde = k_star[alive] / (row_sums[alive, None] * E.degrees[None, :])
    p_star = w_tilde / w_tilde.sum(axis=1)[:, None]
    out[alive] = (p_star @ E.eigenvectors[:, sel]) / lam[None, :]
    return out


@dataclass(frozen=True)
class GhLiftModel:
    """Kernel eigenbasis on reduced training coordinates plus channel expansions."""

    y_train: np.ndarray        # N x d reduced coordinates
    gh_sigma: float
    eigenvalues: np.ndarray    # retained, descending, all positive
    eigenvectors: np.ndarray   # N x d_gh orthonormal columns
    coeffs: np.ndarray         # d_gh x M channel expansion coefficients
    loo_rms: float             # leave-one-out rms residual on the training points

    @property
    def d_gh(self) -> int:
        return len(self.eigenvalues)


def loo_curve(psi, x, coeffs) -> np.ndarray:
    """Leave-one-out rms residual of x, over all points and channels, at each rank 1..R.

    ``psi`` (N, R) has orthonormal columns and ``coeffs`` is psi' x, so the
    rank-r fit of x is the projection P_r x, P_r = psi_r psi_r'. Leaving point
    i out of the rank-r fit leaves the residual (x_i - (P_r x)_i) / (1 - h_i),
    with leverage h_i = sum_{j<=r} psi_ij^2. The squared residual of row i
    grows by psi_ij (psi_ij G_jj - 2 (A_ij - sum_{k<j} psi_ik G_kj)) from rank
    j-1 to j, with G = coeffs coeffs' and A = x coeffs', so every rank takes
    one product with the strict upper triangle of G and cumulative sums. A
    rank that gives some point a leverage within sqrt(eps) of 1 cannot leave
    that point out, and reads inf.
    """
    gram = coeffs @ coeffs.T
    cross = x @ coeffs.T - psi @ np.triu(gram, 1)
    step = psi * (psi * np.diag(gram)[None, :] - 2.0 * cross)
    sq = np.einsum("im,im->i", x, x)[:, None] + np.cumsum(step, axis=1)
    sq = np.maximum(sq, 0.0)   # the sums cancel to rounding where P_r x interpolates x
    left = 1.0 - np.cumsum(psi * psi, axis=1)
    defined = np.all(left > np.sqrt(np.finfo(float).eps), axis=0)
    mse = np.full(psi.shape[1], np.inf)
    mse[defined] = np.sum(sq[:, defined] / left[:, defined] ** 2, axis=0) / x.size
    return np.sqrt(mse)


def _candidates(kernel, x, floor: float, count: int):
    """The eigenpairs above the floor that `dmaps.eigenbasis` solves for when
    asked for the leading ``count``, their channel coefficients and their
    `loo_curve`."""
    vals, vecs = dmaps.eigenbasis(kernel, floor, count)
    # C order: the BLAS products over the basis (coeffs here, the lift in
    # gh_lift) take another path on an F-order copy and move the last bits
    vecs = np.ascontiguousarray(vecs)
    coeffs = vecs.T @ x
    return vals, vecs, coeffs, loo_curve(vecs, x, coeffs)


def gh_fit(Y_train, X_train, gh_sigma="auto") -> GhLiftModel:
    """Eigenbasis of the Gaussian kernel on the reduced coordinates.

    The basis keeps the leading r eigenpairs, where r has the lowest
    `loo_curve` value among the candidates: the eigenpairs `dmaps.eigenbasis`
    solves for that are at or above `EIG_FLOOR` times the largest eigenvalue.
    Below `dmaps.RANGE_FINDER_MIN_N` points it solves in full, and every
    eigenpair above the floor is a candidate. From there on only the leading
    m are, m = `LEADING_PAIRS` at first. While all m pass the floor and the
    lowest value sits at the m-th, the curve may fall further past it, so m
    doubles and the solve repeats; once the test matrix for m pairs would
    have N columns the solve is the full one. A curve that rises past an
    inner minimum and falls again beyond m is not followed. The basis keeps only positive
    eigenvalues, is never empty, and carries the expansion coefficients of
    every ambient channel.
    """
    y = np.asarray(Y_train, dtype=float)
    x = np.asarray(X_train, dtype=float)
    if y.shape[0] != x.shape[0]:
        raise ValueError(
            f"row mismatch: {y.shape[0]} coordinate rows, {x.shape[0]} ambient rows"
        )
    if y.shape[0] < 2:
        raise ValueError("need at least 2 training points")
    kernel, gh_sigma = dmaps.kernel(y, sigma=gh_sigma)
    count = LEADING_PAIRS
    vals, vecs, coeffs, loo = _candidates(kernel, x, EIG_FLOOR, count)
    while int(np.argmin(loo)) + 1 == count < len(y):
        count *= 2
        vals, vecs, coeffs, loo = _candidates(kernel, x, EIG_FLOOR, count)
    rank = int(np.argmin(loo)) + 1
    return GhLiftModel(
        y_train=y,
        gh_sigma=gh_sigma,
        eigenvalues=vals[:rank],
        eigenvectors=np.ascontiguousarray(vecs[:, :rank]),
        coeffs=coeffs[:rank],
        loo_rms=float(loo[rank - 1]),
    )


def gh_lift(model: GhLiftModel, Y_new) -> np.ndarray:
    """Extend all channel functions to new reduced points: K Psi Lam^-1 Psi' f.

    ``Y_new`` is (n, d), one reduced point a row; the result is (n, M).
    Evaluated as ((K @ Psi) Lam^-1) @ coeffs so that near the training set the
    K @ Psi ~ Psi Lam product cancels the inverse eigenvalues.
    """
    kernel, _ = dmaps.kernel(model.y_train, Y_new, model.gh_sigma)
    return ((kernel @ model.eigenvectors) / model.eigenvalues[None, :]) @ model.coeffs
