"""Diffusion maps: anisotropic kernel normalization and spectral embedding.

The pipeline is the classic one: Gaussian affinities W, density normalization
W~ = K^-a W K^-a, row normalization P = K~^-1 W~, then the eigendecomposition
of P obtained through the symmetric conjugate S = K~^-1/2 W~ K~^-1/2 (same
spectrum, stable symmetric solver) with eigenvectors mapped back and sign-fixed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import eigh
from scipy.spatial.distance import cdist, pdist, squareform

from . import artifacts
from .ingest import TimeSeriesMatrix

SIGN_CONVENTION = "max-abs-positive"


def _as_points(X) -> np.ndarray:
    if isinstance(X, TimeSeriesMatrix):
        return X.values
    pts = np.asarray(X, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"expected 2-D point array, got shape {pts.shape}")
    return pts


def _median_scale(d2: np.ndarray) -> float:
    """Auto kernel scale from condensed squared distances: their median / 2."""
    if d2.size == 0:
        raise ValueError("need at least 2 points for the auto kernel scale")
    sigma = float(np.median(d2)) / 2.0
    if sigma <= 0:
        raise ValueError("degenerate point set: median pairwise distance is 0")
    return sigma


def kernel(X, Y=None, sigma="auto"):
    """Gaussian kernel exp(-d^2 / (2 sigma)) and its resolved scale.

    Without ``Y``: the symmetric kernel among the rows of X, unit diagonal.
    With ``Y``: the cross-kernel of the query rows Y against the rows of X,
    shape (len(Y), len(X)). The scale sits under the exponent un-squared;
    ``sigma="auto"`` is the median squared pairwise distance among the rows of
    X halved, taken from the same distances the kernel uses.
    """
    x = _as_points(X)
    if not np.all(np.isfinite(x)):
        raise ValueError("points contain non-finite values")
    auto = sigma is None or sigma == "auto"
    d2 = pdist(x, metric="sqeuclidean") if Y is None or auto else None
    sigma = _median_scale(d2) if auto else float(sigma)
    if sigma <= 0:
        raise ValueError(f"kernel scale must be positive, got {sigma}")
    if Y is None:
        w = np.exp(-squareform(d2) / (2.0 * sigma))
        np.fill_diagonal(w, 1.0)
        return w, sigma
    y = _as_points(Y)
    if y.shape[1] != x.shape[1]:
        raise ValueError(
            f"query dimension {y.shape[1]} does not match training dimension {x.shape[1]}"
        )
    if not np.all(np.isfinite(y)):
        raise ValueError("query points contain non-finite values")
    return np.exp(-cdist(y, x, metric="sqeuclidean") / (2.0 * sigma)), sigma


def eigenbasis(s: np.ndarray, count: int = None, scale: np.ndarray = None):
    """Eigenpairs of the symmetric matrix s, eigenvalues descending (the top `count`).

    With ``scale``, each eigenvector is divided row-wise by it and brought
    back to unit length. Every vector is then sign-fixed so that its entry of
    largest absolute value is positive.
    """
    try:
        vals, vecs = eigh(s)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigendecomposition failed: {exc}") from exc
    order = np.argsort(vals)[::-1][:count]
    vecs = vecs[:, order]
    if scale is not None:
        vecs /= scale[:, None]
        vecs /= np.linalg.norm(vecs, axis=0)[None, :]
    flip = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])] < 0
    vecs[:, flip] *= -1.0
    return vals[order], vecs


@dataclass(frozen=True)
class AffinityMatrix:
    """Symmetric Gaussian affinities w_ij = exp(-|xi - xj|^2 / (2 sigma))."""

    W: np.ndarray
    sigma: float

    def __post_init__(self):
        w = np.asarray(self.W, dtype=float)
        object.__setattr__(self, "W", w)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError("affinity matrix must be square")
        if self.sigma <= 0:
            raise ValueError(f"kernel scale must be positive, got {self.sigma}")
        if np.max(np.abs(w - w.T)) >= 1e-12:
            raise ValueError("affinity matrix is not symmetric")
        # far-apart points underflow to 0; the unit diagonal keeps every degree >= 1
        if np.any(w < 0) or np.any(w > 1):
            raise ValueError("affinities must lie in [0, 1]")
        if np.any(np.diag(w) != 1.0):
            raise ValueError("affinity diagonal must be exactly 1")


@dataclass(frozen=True)
class DiffusionOperator:
    """Row-stochastic diffusion matrix with its density exponent and row degrees."""

    P: np.ndarray
    alpha: float
    row_degrees: np.ndarray  # diagonal of K~ (degrees of the alpha-normalized kernel)

    def __post_init__(self):
        p = np.asarray(self.P, dtype=float)
        object.__setattr__(self, "P", p)
        if np.any(p < 0):
            raise ValueError("diffusion matrix entries must be non-negative")
        if np.max(np.abs(p.sum(axis=1) - 1.0)) >= 1e-12:
            raise ValueError("diffusion matrix rows must sum to 1")


@dataclass(frozen=True)
class DiffusionEmbedding:
    """Spectral embedding data: eigenvalues lam_0..lam_k, eigenvectors psi_0..psi_k.

    Column 0 is the trivial constant eigenvector (lam_0 = 1). Coordinates are
    coords(i, l) = lam_l^t psi_{i,l} for l = 1..k.
    """

    eigenvalues: np.ndarray   # length k+1, descending
    eigenvectors: np.ndarray  # N x (k+1), unit-norm columns, sign-fixed
    sigma: float
    alpha: float
    t: int = 0

    @property
    def k(self) -> int:
        return len(self.eigenvalues) - 1

    @property
    def n_points(self) -> int:
        return self.eigenvectors.shape[0]


def gaussian_affinity(X, sigma="auto") -> AffinityMatrix:
    """Gaussian heat-kernel affinities between the rows of X (see `kernel`)."""
    return AffinityMatrix(*kernel(X, sigma=sigma))


def diffusion_operator(W: AffinityMatrix, alpha: float = 1.0) -> DiffusionOperator:
    """Two-step normalization: density correction by K^-alpha, then row-stochastic."""
    if not 0 <= alpha <= 1:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    w = W.W
    k = w.sum(axis=1)
    if np.any(k <= 0):
        raise ValueError("zero row sum in affinity matrix")
    kinv_a = k ** (-alpha)
    w_tilde = w * np.outer(kinv_a, kinv_a)
    k_tilde = w_tilde.sum(axis=1)
    if np.any(k_tilde <= 0):
        raise ValueError("zero row sum after density normalization")
    p = w_tilde / k_tilde[:, None]
    return DiffusionOperator(P=p, alpha=alpha, row_degrees=k_tilde)


def spectral_decompose(
    P: DiffusionOperator, k: int, sigma: float = float("nan")
) -> DiffusionEmbedding:
    """Top k+1 right-eigenpairs of the diffusion matrix, descending.

    Solved on the symmetric conjugate S = D^1/2 P D^-1/2 (D = row degrees) so a
    symmetric eigensolver applies; eigenvectors are mapped back by D^-1/2,
    normalized to unit length, and sign-fixed so the entry of largest absolute
    value is positive.
    """
    n = P.P.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < {n}, got {k}")
    d_sqrt = np.sqrt(P.row_degrees)
    s = P.P * (d_sqrt[:, None] / d_sqrt[None, :])
    vals, psi = eigenbasis(s, k + 1, scale=d_sqrt)
    return DiffusionEmbedding(
        eigenvalues=vals, eigenvectors=psi, sigma=sigma, alpha=P.alpha
    )


def build_embedding(X, sigma="auto", alpha: float = 1.0, k: int = 30) -> DiffusionEmbedding:
    """Affinity -> diffusion operator -> spectral decomposition, in one call."""
    aff = gaussian_affinity(X, sigma)
    op = diffusion_operator(aff, alpha)
    return spectral_decompose(op, k, sigma=aff.sigma)


def embed(E: DiffusionEmbedding, t: int) -> np.ndarray:
    """N x k coordinates y_{i,l} = lam_l^t psi_{i,l}, l = 1..k (psi_0 excluded)."""
    return coords_for(E, range(1, E.k + 1), t)


def coords_for(E: DiffusionEmbedding, selected, t: int | None = None) -> np.ndarray:
    """Embedding coordinates restricted to the selected eigen indices (1-based)."""
    if t is None:
        t = E.t
    if t < 0 or int(t) != t:
        raise ValueError(f"diffusion time must be a non-negative integer, got {t}")
    sel = np.asarray(selected, dtype=int)
    if np.any(sel < 1) or np.any(sel > E.k):
        raise ValueError(f"selected indices must lie in 1..{E.k}")
    lam = E.eigenvalues[sel] ** int(t)
    return E.eigenvectors[:, sel] * lam[None, :]


def save_embedding(E: DiffusionEmbedding, directory) -> None:
    """Write the eigenvalues.csv / eigenvectors.csv / meta.json bundle."""
    os.makedirs(directory, exist_ok=True)
    artifacts.write_matrix(
        os.path.join(directory, "eigenvalues.csv"), E.eigenvalues[:, None], ["eigenvalue"]
    )
    artifacts.write_matrix(
        os.path.join(directory, "eigenvectors.csv"),
        E.eigenvectors,
        [f"psi_{l}" for l in range(E.k + 1)],
    )
    meta = {
        "sigma": E.sigma,
        "alpha": E.alpha,
        "t": E.t,
        "k": E.k,
        "sign_convention": SIGN_CONVENTION,
    }
    artifacts.write_json(os.path.join(directory, "meta.json"), meta)


def load_embedding(directory) -> DiffusionEmbedding:
    """Read a bundle written by `save_embedding`, with schema validation."""
    meta = artifacts.read_json(
        os.path.join(directory, "meta.json"), "embedding bundle", ("sigma", "alpha", "t", "k")
    )
    vals, _ = artifacts.read_matrix(os.path.join(directory, "eigenvalues.csv"))
    vecs, _ = artifacts.read_matrix(os.path.join(directory, "eigenvectors.csv"))
    if vecs.shape[1] != meta["k"] + 1 or vals.shape != (meta["k"] + 1, 1):
        raise ValueError(f"corrupt embedding bundle {directory}: shape mismatch")
    return DiffusionEmbedding(
        eigenvalues=vals[:, 0],
        eigenvectors=vecs,
        sigma=meta["sigma"],
        alpha=meta["alpha"],
        t=meta["t"],
    )


def with_time(E: DiffusionEmbedding, t: int) -> DiffusionEmbedding:
    return replace(E, t=int(t))
