"""Linear (Koopman/EDMD) ROM on the reduced coordinates.

EDMD's predictor in matrix form: the one-step matrix U is the least-squares
solution of y_{i+1} = U y_i over the training coordinates, and the pre-image B
the least-squares solution of x_i = y_i B for the ambient channels. A forecast
iterates y_s = U y_{s-1} in real arithmetic and reads the channels off as
y_s B. That equals the Koopman-mode sum x_s = sum_j w_j^s c_j phi_j(y_0)
(Williams, Kevrekidis & Rowley 2015) without forming an eigenbasis, so it also
holds for a defective U. The eigenvalues of U are reported, not used to
forecast. The fit takes milliseconds, so the forecast stage fits it afresh
each run.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

GROWTH_TOL = 1e-6        # |eigenvalue| above 1 + this warns about blow-up


@dataclass(frozen=True)
class KoopmanModel:
    u_hat: np.ndarray            # d x d one-step matrix, y_{i+1} = u_hat @ y_i
    pre_image: np.ndarray        # d x M least-squares map, x_i = y_i @ pre_image
    eigenvalues: np.ndarray      # d eigenvalues of u_hat, as koopman_eigenvalues orders them
    training_residual: float     # max abs ambient reconstruction error on training data


def koopman_fit(coords) -> np.ndarray:
    """One-step matrix U, the least-squares solution of y_{i+1} = U y_i over the rows."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    n, d = coords.shape
    if n < d + 1:
        raise ValueError(f"need at least d+1 = {d + 1} snapshots, got {n}")
    if not np.all(np.isfinite(coords)):
        raise ValueError("coordinates contain non-finite values")
    if np.all(coords == 0):
        raise ValueError("all-zero snapshot matrix")
    u_t, *_ = np.linalg.lstsq(coords[:-1], coords[1:], rcond=None)   # y_{i+1} = y_i @ u_t
    return u_t.T


def koopman_eigenvalues(u_hat) -> np.ndarray:
    """Eigenvalues of the one-step matrix by descending magnitude, conjugate
    pairs adjacent with the positive-imaginary member first."""
    u_hat = np.asarray(u_hat, dtype=float)
    if not np.all(np.isfinite(u_hat)):
        raise ValueError("matrix contains non-finite values")
    vals = np.linalg.eigvals(u_hat)
    return vals[np.lexsort((-vals.imag, -vals.real, -np.abs(vals)))]


def fit_koopman_model(coords, x_train) -> KoopmanModel:
    """Fit the one-step matrix, its eigenvalues and the pre-image of the channels."""
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    x_train = np.atleast_2d(np.asarray(x_train, dtype=float))
    if x_train.shape[0] != coords.shape[0]:
        raise ValueError(
            f"row mismatch: {x_train.shape[0]} ambient rows, {coords.shape[0]} coordinate rows"
        )
    u_hat = koopman_fit(coords)
    vals = koopman_eigenvalues(u_hat)
    if np.any(np.abs(vals) > 1.0 + GROWTH_TOL):
        warnings.warn(
            f"eigenvalue magnitude {np.max(np.abs(vals)):.6f} exceeds 1, "
            "long-horizon forecasts may blow up"
        )
    pre_image, _, rank, _ = np.linalg.lstsq(coords, x_train, rcond=None)
    if rank < coords.shape[1]:
        warnings.warn(
            f"coordinate matrix is rank-deficient (rank {rank} < {coords.shape[1]}), "
            "the pre-image is the minimum-norm solution"
        )
    residual = float(np.max(np.abs(coords @ pre_image - x_train)))
    return KoopmanModel(
        u_hat=u_hat, pre_image=pre_image, eigenvalues=vals, training_residual=residual
    )


def koopman_forecast(model: KoopmanModel, init_coords, h: int):
    """h-step forecast from the initial coordinates: y_s = U y_{s-1}, x_s = y_s B.

    Returns (reduced h x d, ambient h x M). No test data is read.
    """
    y = np.asarray(init_coords, dtype=float).ravel()
    d = model.u_hat.shape[0]
    if y.shape[0] != d:
        raise ValueError(f"init has length {y.shape[0]}, expected {d}")
    reduced = np.empty((h, d))
    # overflow surfaces as the explicit divergence error below, not as noise
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(h):
            y = model.u_hat @ y
            reduced[s] = y
        ambient = reduced @ model.pre_image
    finite = np.all(np.isfinite(reduced), axis=1) & np.all(np.isfinite(ambient), axis=1)
    if not np.all(finite):
        step = int(np.argmin(finite)) + 1
        raise RuntimeError(f"forecast diverged (non-finite values) at step {step}")
    return reduced, ambient
