"""Linear (Koopman/DMD-style) ROM on the reduced coordinates.

The one-step matrix is fit by pseudo-inverse regression of time-shifted
snapshot matrices. Its eigenpairs give eigenfunction time series
phi_{i,j} = coords_i . v_j; modes are least-squares expansions of the ambient
channels (and of the coordinates themselves) in those eigenfunctions, and
forecasting follows the spectral law: step s = real(sum_j w_j^s c_j phi_{0,j}).
The fit takes milliseconds, so the forecast stage fits it afresh each run.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

SVD_TOL = 1e-10          # relative singular-value cutoff for the pseudo-inverse
GROWTH_TOL = 1e-6        # |eigenvalue| above 1 + this warns about blow-up


@dataclass(frozen=True)
class KoopmanModel:
    u_hat: np.ndarray            # d x d one-step matrix, real
    eigenvalues: np.ndarray      # d complex, descending magnitude, conj pairs adjacent
    eigenvectors: np.ndarray     # d x d complex, unit columns, phase-fixed
    modes: np.ndarray            # M x d complex ambient-channel modes
    reduced_modes: np.ndarray    # d x d complex coordinate modes
    training_residual: float     # max abs ambient reconstruction error on training data

    @property
    def n_coords(self) -> int:
        return self.u_hat.shape[0]

    @property
    def n_channels(self) -> int:
        return self.modes.shape[0]


def koopman_fit(coords, svd_tol: float = SVD_TOL) -> np.ndarray:
    """One-step matrix U with columns-of-snapshots regression U = Y+ (Y-)^+."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    n, d = coords.shape
    if n < d + 1:
        raise ValueError(f"need at least d+1 = {d + 1} snapshots, got {n}")
    if not np.all(np.isfinite(coords)):
        raise ValueError("coordinates contain non-finite values")
    if np.all(coords == 0):
        raise ValueError("all-zero snapshot matrix")
    psi_minus = coords[:-1].T
    psi_plus = coords[1:].T
    return psi_plus @ np.linalg.pinv(psi_minus, rcond=svd_tol)


def koopman_eig(u_hat):
    """Complex eigendecomposition of the one-step dynamics, ordered and phase-fixed.

    Returns the eigenvalues of u_hat together with the eigenvectors of
    u_hat.T (the left eigenvectors of u_hat). Those are the vectors v for
    which the linear functionals z -> z . v advance by their eigenvalue under
    z -> u_hat z, which is what the spectral forecast iterates; the
    eigenvalues themselves are identical for both orientations.

    Pairs are sorted by descending magnitude with conjugate pairs adjacent
    (positive-imaginary member first); each eigenvector has unit norm and its
    first component of magnitude above 1e-12 made real positive.
    """
    u_hat = np.asarray(u_hat, dtype=float)
    if not np.all(np.isfinite(u_hat)):
        raise ValueError("matrix contains non-finite values")
    vals, vecs = np.linalg.eig(u_hat.T)
    order = np.lexsort((-vals.imag, -vals.real, -np.abs(vals)))
    vals = vals[order]
    vecs = vecs[:, order]
    for j in range(vecs.shape[1]):
        v = vecs[:, j] / np.linalg.norm(vecs[:, j])
        nz = np.nonzero(np.abs(v) > 1e-12)[0]
        if nz.size:
            pivot = v[nz[0]]
            v = v * (np.conj(pivot) / np.abs(pivot))
        vecs[:, j] = v
    return vals, vecs


def eigenfunction_values(coords, eigenvectors) -> np.ndarray:
    """Eigenfunction time series phi_{i,j} = coords_i . v_j (n x d complex)."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    return coords.astype(complex) @ eigenvectors


def koopman_modes(x_train, coords, eig) -> np.ndarray:
    """Least-squares modes c_j so that x_i ~ sum_j c_j phi_{i,j}.

    Returns an M x d complex matrix whose column j is c_j.
    """
    vals, vecs = eig
    x_train = np.atleast_2d(np.asarray(x_train, dtype=float))
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if x_train.shape[0] != coords.shape[0]:
        raise ValueError(
            f"row mismatch: {x_train.shape[0]} ambient rows, {coords.shape[0]} coordinate rows"
        )
    phi = eigenfunction_values(coords, vecs)
    sol, _, rank, _ = np.linalg.lstsq(phi, x_train.astype(complex), rcond=None)
    if rank < vecs.shape[1]:
        warnings.warn(
            f"eigenfunction matrix is rank-deficient (rank {rank} < {vecs.shape[1]}), "
            "modes are the minimum-norm solution"
        )
    return sol.T


def fit_koopman_model(coords, x_train, svd_tol: float = SVD_TOL) -> KoopmanModel:
    """Fit matrix, spectrum, ambient modes, and coordinate modes in one pass."""
    u_hat = koopman_fit(coords, svd_tol)
    vals, vecs = koopman_eig(u_hat)
    if np.any(np.abs(vals) > 1.0 + GROWTH_TOL):
        warnings.warn(
            f"eigenvalue magnitude {np.max(np.abs(vals)):.6f} exceeds 1, "
            "long-horizon forecasts may blow up"
        )
    modes = koopman_modes(x_train, coords, (vals, vecs))
    reduced_modes = koopman_modes(coords, coords, (vals, vecs))
    phi = eigenfunction_values(coords, vecs)
    recon = (phi @ modes.T).real
    residual = float(np.max(np.abs(recon - np.atleast_2d(np.asarray(x_train, dtype=float)))))
    # C-order copies: koopman_modes returns sol.T (F-order), and BLAS sums an
    # F-order matrix-vector product in another order, which would move the
    # forecast's last bits
    return KoopmanModel(
        u_hat=u_hat,
        eigenvalues=vals,
        eigenvectors=np.ascontiguousarray(vecs),
        modes=np.ascontiguousarray(modes),
        reduced_modes=np.ascontiguousarray(reduced_modes),
        training_residual=residual,
    )


def koopman_forecast(model: KoopmanModel, init_coords, h: int):
    """Spectral h-step forecast from the initial coordinates.

    Returns (reduced h x d, ambient h x M), both real. No test data is read;
    step s uses the eigenvalue powers w^s applied to the initial eigenfunction
    values.
    """
    init = np.asarray(init_coords, dtype=float).ravel()
    d = model.n_coords
    if init.shape[0] != d:
        raise ValueError(f"init has length {init.shape[0]}, expected {d}")
    if h == 0:
        return np.zeros((0, d)), np.zeros((0, model.n_channels))
    phi0 = init.astype(complex) @ model.eigenvectors
    reduced = np.empty((h, d))
    ambient = np.empty((h, model.n_channels))
    factor = phi0.copy()
    # overflow surfaces as the explicit divergence error below, not as noise
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(h):
            factor = factor * model.eigenvalues
            reduced[s] = (model.reduced_modes @ factor).real
            ambient[s] = (model.modes @ factor).real
            if not (np.all(np.isfinite(reduced[s])) and np.all(np.isfinite(ambient[s]))):
                raise RuntimeError(f"forecast diverged (non-finite values) at step {s + 1}")
    return reduced, ambient

