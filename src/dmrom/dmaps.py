"""Diffusion maps: one in-place chain from points to the spectral embedding.

Gaussian affinities W, the density normalization W~ = K^-1 W K^-1, the row
normalization P = K~^-1 W~ and the symmetric conjugate S = K~^1/2 P K~^-1/2
(same spectrum, stable symmetric solver) are written one after another into
the same N x N array. Only the top k+1 eigenpairs of S are computed, by a
Lanczos solve (ARPACK) from a fixed start vector, and mapped back to those of
P, scaled to unit root-mean-square entry and sign-fixed; those eigenvectors
are the diffusion coordinates, at diffusion time 0. The kernel's row sums K
are kept beside them, so the Nystrom extension replays the normalization
without rebuilding the kernel. The steps pass plain arrays, and the
normalization and conjugation steps overwrite the array they are given.

`eigenbasis` solves the geometric-harmonics kernel of the lift: in full up to
N = `RANGE_FINDER_MIN_N`, and above it for the leading pairs only, by a
seeded randomized range finder whose residuals are checked.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, qr
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh
from scipy.spatial.distance import cdist, pdist, squareform

from . import _one_blas_thread, artifacts

_one_blas_thread()   # scipy.linalg has loaded scipy's OpenBLAS

SIGN_CONVENTION = "max-abs-positive"
PSI0_TOL = 1e-8   # a stored psi_0 farther than this from 1 is not unit-RMS

# `eigenbasis`'s randomized solve: from this N on it replaces the full eigh.
# On the GH kernel of a noisy limit cycle (OpenBLAS on one thread, 128
# leading pairs) the full eigh takes 1.19 s and the randomized solve 0.19 s
# at N=2000, 0.17 and 0.07 s at N=1000; the crossover lies lower, but no
# benchmark input has N in [320, 1000) to place it
RANGE_FINDER_MIN_N = 1000
OVERSAMPLE = 64      # test-matrix columns beyond the pairs asked for
POWER_STEPS = 2      # products with s, each re-orthonormalized, after the first
RANGE_SEED = 0       # the test matrix's generator seed, fresh on every call
# a kept Ritz pair whose residual passes this fraction of the largest
# eigenvalue sends the solve to the full eigh; on that N=2000 kernel the
# worst of the 128 leading pairs is 1.3e-7
RESIDUAL_TOL = 1e-6


def _as_points(X) -> np.ndarray:
    pts = np.asarray(X, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"expected 2-D point array, got shape {pts.shape}")
    return pts


def _median_scale(d2: np.ndarray, fraction: float) -> float:
    """Auto kernel scale from condensed squared distances: fraction x their median.

    The median comes from one partition of a copy at n//2, so d2 keeps its
    pdist order. For even n the lower middle value is the largest entry left
    of n//2. These are the order statistics `np.median` averages, by the same
    mean, so the scale keeps its bits without its two-index partition.
    """
    n = d2.size
    if n == 0:
        raise ValueError("need at least 2 points for the auto kernel scale")
    part = np.partition(d2, n // 2)
    mid = part[n // 2] if n % 2 else np.mean([part[: n // 2].max(), part[n // 2]])
    sigma = fraction * float(mid)
    if sigma <= 0:
        raise ValueError("degenerate point set: median pairwise distance is 0")
    return sigma


def kernel(X, Y=None, sigma="auto", fraction: float = 0.5):
    """Gaussian kernel exp(-d^2 / (2 sigma)) and its resolved scale.

    Without ``Y``: the symmetric kernel among the rows of X, unit diagonal.
    With ``Y``: the cross-kernel of the query rows Y against the rows of X,
    shape (len(Y), len(X)); query rows that underflow to 0 everywhere are
    out of kernel support, and one warning gives their count. The scale sits
    under the exponent un-squared; ``sigma="auto"`` is ``fraction`` times the
    median squared pairwise distance among the rows of X, taken from the
    same distances the kernel uses.
    """
    x = _as_points(X)
    if not np.all(np.isfinite(x)):
        raise ValueError("points contain non-finite values")
    auto = sigma == "auto"
    d2 = pdist(x, metric="sqeuclidean") if Y is None or auto else None
    sigma = _median_scale(d2, fraction) if auto else float(sigma)
    if sigma <= 0:
        raise ValueError(f"kernel scale must be positive, got {sigma}")
    if Y is None:
        w = d2   # the condensed upper triangle: each pair is exponentiated once
    else:
        y = _as_points(Y)
        if y.shape[1] != x.shape[1]:
            raise ValueError(
                f"query dimension {y.shape[1]} does not match training dimension {x.shape[1]}"
            )
        if not np.all(np.isfinite(y)):
            raise ValueError("query points contain non-finite values")
        w = cdist(y, x, metric="sqeuclidean")
    # exp(-d^2 / (2 sigma)) in the distance buffer, in the out-of-place operand order
    np.negative(w, out=w)
    w /= 2.0 * sigma
    np.exp(w, out=w)
    if Y is None:
        w = squareform(w)
        np.fill_diagonal(w, 1.0)
    else:
        dead = int(np.count_nonzero(~w.any(axis=1)))
        if dead:
            warnings.warn(f"{dead} query point(s) out of kernel support")
    return w, sigma


def _descending_signed(vals: np.ndarray, vecs: np.ndarray, count: int):
    """The `count` largest eigenpairs, eigenvalues descending.

    Only those `count` columns are copied. Each is sign-fixed so that its
    entry of largest absolute value is positive.
    """
    order = np.argsort(vals)[::-1][:count]
    vecs = vecs[:, order]
    flip = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])] < 0
    vecs[:, flip] *= -1.0
    return vals[order], vecs


def _ritz_pairs(s: np.ndarray, width: int):
    """Rayleigh-Ritz pairs of the symmetric s on a randomized range of ``width`` columns.

    A Gaussian test matrix from a fresh generator seeded with `RANGE_SEED`
    spans s's range after `POWER_STEPS` power steps, each re-orthonormalized
    by QR (Halko, Martinsson & Tropp 2011, algorithm 4.4); ``eigh`` of s
    projected on that basis Q gives the pairs. Returns the Ritz values
    (ascending), the vectors and each pair's residual norm ||s v - lam v||,
    which reuses the product s Q. s is left intact.
    """
    basis = np.random.default_rng(RANGE_SEED).standard_normal((s.shape[0], width))
    for _ in range(POWER_STEPS + 1):
        basis = qr(s @ basis, mode="economic", overwrite_a=True, check_finite=False)[0]
    s_basis = s @ basis
    vals, rot = eigh(basis.T @ s_basis)
    vecs = basis @ rot
    resid = np.linalg.norm(s_basis @ rot - vecs * vals, axis=0)
    return vals, vecs, resid


def eigenbasis(s: np.ndarray, floor: float, count: int):
    """Eigenpairs of the symmetric matrix s above a relative floor, descending.

    Keeps the eigenvalues that are positive and at least ``floor`` times the
    largest one, with sign-fixed eigenvectors (see `_descending_signed`).
    From N = `RANGE_FINDER_MIN_N` on, while ``count`` + `OVERSAMPLE` < N,
    only the leading ``count`` pairs are solved for, by a randomized range
    finder (`_ritz_pairs`): the same bits on every call. If a kept pair's
    residual ||s v - lam v|| passes `RESIDUAL_TOL` times the largest
    eigenvalue, the full solve replaces it. Otherwise every eigenpair is
    solved for by ``eigh`` and all those above the floor are kept. s is
    overwritten only when ``count`` is N or more; below that a caller may
    ask again for more.
    """
    n = s.shape[0]
    try:
        if n >= RANGE_FINDER_MIN_N and count + OVERSAMPLE < n:
            vals, vecs, resid = _ritz_pairs(s, count + OVERSAMPLE)
            # eigh's values ascend: the leading count pairs are the last ones
            lead = vals[-count:]
            kept = int(np.count_nonzero((lead > 0) & (lead >= floor * vals[-1])))
            if kept and resid[-kept:].max() <= RESIDUAL_TOL * vals[-1]:
                return _descending_signed(vals, vecs, kept)
        vals, vecs = eigh(s, overwrite_a=count >= n)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigendecomposition failed: {exc}") from exc
    kept = int(np.count_nonzero((vals > 0) & (vals >= floor * vals.max())))
    return _descending_signed(vals, vecs, kept)


@dataclass(frozen=True)
class DiffusionEmbedding:
    """Spectral embedding data: eigenvalues lam_0..lam_k, eigenvectors psi_0..psi_k.

    Column 0 is the trivial eigenvector psi_0 = 1 (lam_0 = 1). Every column
    has unit root-mean-square entry (Coifman & Lafon's normalization), and
    the diffusion coordinates are the columns psi_1..psi_k themselves
    (diffusion time 0), so they are O(1) at any N. The kernel's row sums
    are kept for the Nystrom extension, which replays the normalization.
    """

    eigenvalues: np.ndarray   # length k+1, descending
    eigenvectors: np.ndarray  # N x (k+1), unit-RMS columns, sign-fixed
    sigma: float
    degrees: np.ndarray       # length N, the Gaussian kernel's row sums

    @property
    def k(self) -> int:
        return len(self.eigenvalues) - 1


def gaussian_affinity(X, sigma="auto"):
    """Gaussian affinities among the rows of X and their scale (see `kernel`)."""
    return kernel(X, sigma=sigma)


def diffusion_operator(w: np.ndarray):
    """Normalize the affinities w into the diffusion matrix P, overwriting w.

    Density correction w~ = K^-1 w K^-1 (Coifman & Lafon's alpha = 1, whose
    coordinates do not depend on the sampling density), then row
    normalization P = K~^-1 w~. Returns the degrees K, the row sums of w,
    and the row degrees K~ of w~. The unit diagonal of w keeps every degree
    positive.
    """
    degrees = w.sum(axis=1)
    kinv = 1.0 / degrees
    np.multiply(w, np.outer(kinv, kinv), out=w)
    row_degrees = w.sum(axis=1)
    w /= row_degrees[:, None]
    return degrees, row_degrees


def _top_eigenpairs(s: np.ndarray, count: int):
    """At least the top ``count`` eigenpairs of the symmetric s (see `spectral_decompose`).

    ARPACK does not converge on a nearly split kernel graph, whose leading
    eigenvalues crowd at 1; the dense spectrum then lets the caller see the
    split.
    """
    n = s.shape[0]
    if count < n - 1:
        try:
            return eigsh(s, k=count, which="LA", v0=np.ones(n), tol=0)
        except ArpackNoConvergence:
            pass
    return eigh(s)


def spectral_decompose(p: np.ndarray, row_degrees: np.ndarray, k: int):
    """Top k+1 right-eigenpairs (eigenvalues, eigenvectors) of p, descending.

    Overwrites p with its symmetric conjugate S = D^1/2 P D^-1/2 (D = row
    degrees) so a symmetric eigensolver applies. The top k+1 eigenpairs of S
    come from a Lanczos solve (``eigsh``, which="LA", tol=0) started from the
    all-ones vector, so reruns give the same bits. (When that vector spans an
    invariant subspace, as for uncoupled points, ARPACK restarts from its own
    random vector, whose state carries over between calls in one process; the
    eigenvalues still agree.) For k+1 >= N-1 a dense ``eigh`` solves S
    instead: at that size it costs nothing, and ``eigsh`` would fall back to
    it with a RuntimeWarning once k+1 >= N. A Lanczos solve that does not
    converge falls back to the same dense solve. Eigenvectors are mapped back
    by D^-1/2, scaled to unit root-mean-square entry (so psi_0 = 1), and
    sign-fixed so the entry of largest absolute value is positive.
    """
    n = p.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < {n}, got {k}")
    d_sqrt = np.sqrt(row_degrees)
    np.multiply(p, d_sqrt[:, None] / d_sqrt[None, :], out=p)
    try:
        vals, vecs = _top_eigenpairs(p, k + 1)
    except (np.linalg.LinAlgError, ArpackError) as exc:
        raise RuntimeError(f"eigendecomposition failed: {exc}") from exc
    vecs /= d_sqrt[:, None]
    vecs /= np.sqrt(np.mean(vecs**2, axis=0))[None, :]
    return _descending_signed(vals, vecs, k + 1)


def build_embedding(X, sigma="auto", k: int = 30):
    """Affinities -> diffusion matrix -> spectrum in one N x N buffer."""
    w, sigma = gaussian_affinity(X, sigma)
    degrees, row_degrees = diffusion_operator(w)
    vals, psi = spectral_decompose(w, row_degrees, k)
    return DiffusionEmbedding(eigenvalues=vals, eigenvectors=psi, sigma=sigma, degrees=degrees)


def coords_for(E: DiffusionEmbedding, selected) -> np.ndarray:
    """Coordinates psi_{i,l} of the selected eigen indices l (1-based): a copy of those columns."""
    sel = np.asarray(selected, dtype=int)
    if np.any(sel < 1) or np.any(sel > E.k):
        raise ValueError(f"selected indices must lie in 1..{E.k}")
    return E.eigenvectors[:, sel]


def save_embedding(E: DiffusionEmbedding, directory, made_from: str) -> None:
    """Write the eigenvalues.csv / eigenvectors.csv / degrees.csv / meta.json bundle.

    meta.json records `made_from`, the digest of the inputs and settings the
    embedding was built from.
    """
    os.makedirs(directory, exist_ok=True)
    artifacts.write_matrix(
        os.path.join(directory, "eigenvalues.csv"), E.eigenvalues[:, None], ["eigenvalue"]
    )
    artifacts.write_matrix(
        os.path.join(directory, "eigenvectors.csv"),
        E.eigenvectors,
        [f"psi_{l}" for l in range(E.k + 1)],
    )
    artifacts.write_matrix(os.path.join(directory, "degrees.csv"), E.degrees[:, None], ["degree"])
    meta = {
        "sigma": E.sigma,
        # the density normalization is alpha = 1 and the coordinates are the
        # eigenvectors, at diffusion time 0; the two keys keep the format
        "alpha": 1.0,
        "t": 0,
        "k": E.k,
        "sign_convention": SIGN_CONVENTION,
        "made_from": made_from,
    }
    artifacts.write_json(os.path.join(directory, "meta.json"), meta)


def load_embedding(directory, made_from: str) -> DiffusionEmbedding:
    """Read a bundle written by `save_embedding`, with schema validation.

    A bundle whose `made_from` digest is another, whose psi_0 column is not
    within `PSI0_TOL` of 1 (unit-norm eigenvectors, say), or that has no
    degrees.csv (one written before the degrees were stored) raises
    ValueError naming the directory.
    """
    meta = artifacts.read_json(
        os.path.join(directory, "meta.json"),
        "embedding bundle",
        ("sigma", "k", "made_from"),
    )
    if meta["made_from"] != made_from:
        raise ValueError(
            f"{directory}: the embedding was made from another input, split or dmaps/"
            "parsimony settings; rerun embed"
        )
    vals, _ = artifacts.read_matrix(os.path.join(directory, "eigenvalues.csv"))
    vecs, _ = artifacts.read_matrix(os.path.join(directory, "eigenvectors.csv"))
    try:
        degrees, _ = artifacts.read_matrix(os.path.join(directory, "degrees.csv"))
    except FileNotFoundError:
        raise ValueError(f"{directory}: no degrees.csv; rerun embed") from None
    if (
        vecs.shape[1] != meta["k"] + 1
        or vals.shape != (meta["k"] + 1, 1)
        or degrees.shape != (len(vecs), 1)
    ):
        raise ValueError(f"corrupt embedding bundle {directory}: shape mismatch")
    if not np.all(np.abs(vecs[:, 0] - 1.0) <= PSI0_TOL):
        raise ValueError(
            f"{directory}: psi_0 is not the constant 1, so the eigenvectors are not "
            "unit-RMS; rerun embed"
        )
    return DiffusionEmbedding(
        eigenvalues=vals[:, 0], eigenvectors=vecs, sigma=meta["sigma"], degrees=degrees[:, 0]
    )

