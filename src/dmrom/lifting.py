"""Out-of-sample restriction and lifting between ambient and reduced spaces.

Restriction evaluates the diffusion-map coordinates of new ambient points by
replaying the training kernel normalization on the new kernel row (Nystrom
extension). Lifting goes the other way: a second Gaussian-kernel eigenbasis is
built on the reduced training coordinates and every ambient channel is
expanded in it, so reduced forecasts can be mapped back to ambient values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dmaps
from .dmaps import DiffusionEmbedding

EIG_FLOOR = 1e-8          # default relative eigenvalue truncation for lifting
MIN_EIGENVALUE = 1e-12    # restriction is ill-posed below this


def nystrom_restrict(E: DiffusionEmbedding, X_train, x_new, selected) -> np.ndarray:
    """Reduced coordinates of new ambient points via the training kernel chain.

    The new kernel row gets the same two-step normalization as the training
    affinities (density correction by the training degrees and its own row sum,
    then row normalization), after which each coordinate is read off as
    psi_l(x*) = (1/lam_l) sum_j p*_j psi_{j,l}, scaled by lam_l^t.

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
    k_star, _ = dmaps.kernel(X_train, x_new, E.sigma)
    sel = np.asarray(selected, dtype=int)
    if sel.size == 0 or np.any(sel < 1) or np.any(sel > E.k):
        raise ValueError(f"selected indices must lie in 1..{E.k}")
    lam = E.eigenvalues[sel]
    if np.any(np.abs(lam) < MIN_EIGENVALUE):
        bad = sel[np.abs(lam) < MIN_EIGENVALUE]
        raise ValueError(
            f"restriction ill-posed: eigenvalue below {MIN_EIGENVALUE} at index {bad[0]}"
        )

    degrees = dmaps.kernel(X_train, sigma=E.sigma)[0].sum(axis=1)
    row_sums = k_star.sum(axis=1)
    out = np.zeros((k_star.shape[0], sel.size))
    alive = row_sums > 0.0   # the kernel warned about the others
    w_tilde = k_star[alive] / (row_sums[alive, None] ** E.alpha * degrees[None, :] ** E.alpha)
    p_star = w_tilde / w_tilde.sum(axis=1)[:, None]
    psi_hat = (p_star @ E.eigenvectors[:, sel]) / lam[None, :]
    out[alive] = psi_hat * (lam ** int(E.t))[None, :]
    return out


@dataclass(frozen=True)
class GhLiftModel:
    """Kernel eigenbasis on reduced training coordinates plus channel expansions."""

    y_train: np.ndarray        # N x d reduced coordinates
    gh_sigma: float
    eigenvalues: np.ndarray    # retained, descending, all positive
    eigenvectors: np.ndarray   # N x d_gh orthonormal columns
    coeffs: np.ndarray         # d_gh x M channel expansion coefficients

    @property
    def d_gh(self) -> int:
        return len(self.eigenvalues)


def gh_fit(Y_train, X_train, gh_sigma="auto", eig_floor: float = EIG_FLOOR) -> GhLiftModel:
    """Eigenbasis of the Gaussian kernel on the reduced coordinates.

    Components with eigenvalue below ``eig_floor`` (in [0, 1]) times the
    largest one (or not strictly positive) are truncated; the remaining
    basis, never empty, carries the expansion coefficients of every ambient
    channel.
    """
    y = np.asarray(Y_train, dtype=float)
    x = np.asarray(X_train, dtype=float)
    if y.shape[0] != x.shape[0]:
        raise ValueError(
            f"row mismatch: {y.shape[0]} coordinate rows, {x.shape[0]} ambient rows"
        )
    if y.shape[0] < 2:
        raise ValueError("need at least 2 training points")
    if not 0 <= eig_floor <= 1:
        raise ValueError(f"eig_floor must be in [0, 1], got {eig_floor}")
    kernel, gh_sigma = dmaps.kernel(y, sigma=gh_sigma)
    vals, vecs = dmaps.eigenbasis(kernel, eig_floor)
    # C order: the BLAS products over the basis (coeffs here, the lift in
    # gh_lift) take another path on an F-order copy and move the last bits
    vecs = np.ascontiguousarray(vecs)
    return GhLiftModel(
        y_train=y,
        gh_sigma=gh_sigma,
        eigenvalues=vals,
        eigenvectors=vecs,
        coeffs=vecs.T @ x,
    )


def gh_lift(model: GhLiftModel, Y_new) -> np.ndarray:
    """Extend all channel functions to new reduced points: K Psi Lam^-1 Psi' f.

    ``Y_new`` is (n, d), one reduced point a row; the result is (n, M).
    Evaluated as ((K @ Psi) Lam^-1) @ coeffs so that near the training set the
    K @ Psi ~ Psi Lam product cancels the inverse eigenvalues.
    """
    kernel, _ = dmaps.kernel(model.y_train, Y_new, model.gh_sigma)
    return ((kernel @ model.eigenvectors) / model.eigenvalues[None, :]) @ model.coeffs
