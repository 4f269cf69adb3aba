"""Diffusion maps: one in-place chain from points to the spectral embedding.

Squared distances, Gaussian affinities W, the density normalization
W~ = K^-1 W K^-1, the row normalization P = K~^-1 W~ and the symmetric
conjugate S = K~^1/2 P K~^-1/2 (same spectrum, stable symmetric solver) are
written one after another into the same N x N array. Only the top k+1
eigenpairs of S are computed, by `eigenbasis`, and mapped back to those of
P, scaled to unit root-mean-square entry and sign-fixed; those eigenvectors
are the diffusion coordinates, at diffusion time 0. The kernel's row sums K
are kept beside them, so the Nystrom extension replays the normalization
without rebuilding the kernel. The steps pass plain arrays, and the
normalization and conjugation steps overwrite the array they are given.

`eigenbasis`, on numpy's `eigh` and `qr`, is the one eigensolver; it also
solves the geometric-harmonics kernel of the lift. It solves in full up to
N = `RANGE_FINDER_MIN_N`, and above it for the leading pairs only, by a
seeded randomized range finder whose power steps stop once those pairs meet
the caller's tolerance.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.linalg import eigh, qr

from . import artifacts

SIGN_CONVENTION = "max-abs-positive"
PSI0_TOL = 1e-8   # a stored psi_0 farther than this from 1 is not unit-RMS

# `eigenbasis`'s randomized solve: from this N on it replaces the full eigh.
# On the GH kernel of a noisy limit cycle (OpenBLAS on one thread, 128
# leading pairs) the full eigh takes 1.22 s and the randomized solve 0.16 s
# at N=2000, 0.17 and 0.06 s at N=1000; the crossover lies lower, but no
# benchmark input has N in [320, 1000) to place it
RANGE_FINDER_MIN_N = 1000
# the test matrix has count + max(count // 2, MIN_OVERSAMPLE) columns: 192
# for the lift's first 128 pairs and 31 for a diffusion map's 11
MIN_OVERSAMPLE = 20
# power steps a randomized solve may take before it goes to the full eigh;
# noisy2000's S (11 pairs, 31 columns) meets `SPECTRUM_TOL` after 10, at
# 16 ms a step, and a nearly split kernel graph never meets it
MAX_POWER_STEPS = 16
RANGE_SEED = 0       # the test matrix's generator seed, fresh on every call
# the lift's residual tolerance, a fraction of the largest eigenvalue; on
# that N=2000 kernel the worst of the 128 leading pairs is 7.5e-7 after one
# power step
RESIDUAL_TOL = 1e-6
# the diffusion map's: on noisy2000's S a Ritz residual r of a unit vector
# gives max|P psi - lam psi| of about 4r on the unit-RMS psi, so this keeps
# that eigen-residual near 1e-10, far below perfbench's 1e-8 bound
SPECTRUM_TOL = 1e-10


def _as_points(X) -> np.ndarray:
    pts = np.asarray(X, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"expected 2-D point array, got shape {pts.shape}")
    return pts


def _sq_distances(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Squared distances |y_i - x_j|^2, len(y) x len(x), clipped at 0, in Gram form:
    one BLAS product of the rows [-2 y_i, |y_i|^2, 1] and [x_j, 1, |x_j|^2], off
    by a few ulps of |y_i|^2 + |x_j|^2, small for points about the origin as the
    standardized series and the unit-RMS coordinates are. A training row as a
    query gets its row of the symmetric kernel."""
    yy, xx = (np.einsum("ij,ij->i", a, a)[:, None] for a in (y, x))
    d2 = np.hstack([-2.0 * y, yy, np.ones_like(yy)]) @ np.hstack([x, np.ones_like(xx), xx]).T
    return np.maximum(d2, 0.0, out=d2)


def _median_scale(d2: np.ndarray, fraction: float) -> float:
    """Auto kernel scale from the N x N squared distances: fraction x their median.

    Sorted, d2 holds its N self-distances (0 to rounding), then each of its
    P pairs twice: the median pair is the mean of the entries at N + P - 1
    and N + P, the two that `np.median` of the off-diagonal entries averages.
    """
    n = len(d2)
    pairs = n * (n - 1) // 2
    if pairs == 0:
        raise ValueError("need at least 2 points for the auto kernel scale")
    part = np.partition(d2, n + pairs, axis=None)
    mid = float(np.mean([part[: n + pairs].max(), part[n + pairs]]))
    if mid <= d2.diagonal().max():   # repeated points lie a self-distance's rounding apart
        raise ValueError("degenerate point set: median pairwise distance is 0")
    return fraction * mid


def kernel(X, Y=None, sigma="auto", fraction: float = 0.5):
    """Gaussian kernel exp(-d^2 / (2 sigma)) and its resolved scale.

    Without ``Y``: the symmetric kernel among the rows of X, whose diagonal
    is 1 to rounding. With ``Y``: the cross-kernel of the query rows Y
    against the rows of X, shape (len(Y), len(X)); query rows that underflow
    to 0 everywhere are out of kernel support, and one warning gives their
    count. The scale sits under the exponent un-squared; ``sigma="auto"`` is
    ``fraction`` times the median squared pairwise distance among the rows
    of X, taken from the same distances the kernel uses (see `_sq_distances`).
    """
    x = _as_points(X)
    if not np.all(np.isfinite(x)):
        raise ValueError("points contain non-finite values")
    auto = sigma == "auto"
    d2 = _sq_distances(x, x) if Y is None or auto else None
    sigma = _median_scale(d2, fraction) if auto else float(sigma)
    if sigma <= 0:
        raise ValueError(f"kernel scale must be positive, got {sigma}")
    w = d2
    if Y is not None:
        y = _as_points(Y)
        if y.shape[1] != x.shape[1]:
            raise ValueError(
                f"query dimension {y.shape[1]} does not match training dimension {x.shape[1]}"
            )
        if not np.all(np.isfinite(y)):
            raise ValueError("query points contain non-finite values")
        w = _sq_distances(y, x)
    w *= -0.5 / sigma   # exp(-d^2 / (2 sigma)) in the distance buffer
    np.exp(w, out=w)
    if Y is not None:
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


def _kept(vals: np.ndarray, floor, count: int) -> int:
    """How many of the ``count`` largest of the ascending vals to keep: all of them
    without a floor, else those positive and at least ``floor`` times the largest."""
    lead = vals[-count:]
    if floor is None:
        return len(lead)
    return int(np.count_nonzero((lead > 0) & (lead >= floor * vals[-1])))


def eigenbasis(s: np.ndarray, floor, count: int, tol: float = RESIDUAL_TOL):
    """Leading eigenpairs of the symmetric matrix s, descending.

    Without a ``floor`` (None), exactly the ``count`` largest, whatever their
    sign; with one, those positive and at least ``floor`` times the largest
    eigenvalue (see `_kept`). Eigenvectors are sign-fixed (see
    `_descending_signed`). From N = `RANGE_FINDER_MIN_N` on, while the test
    matrix (see `MIN_OVERSAMPLE`) has fewer than N columns, only the leading
    ``count`` pairs are solved for, by a randomized range finder (Halko,
    Martinsson & Tropp 2011, algorithm 4.4). s times a Gaussian test matrix
    from a fresh generator seeded with `RANGE_SEED`, orthonormalized by QR,
    is the first basis Q; each power step makes s Q, orthonormalized, the
    next. ``eigh`` of Q' (s Q) gives the Ritz pairs, and once every kept
    pair's residual ||s v - lam v||, which reuses s Q, is within ``tol``
    times the largest Ritz value they are returned: the same bits on every
    call. A solve still short of that after `MAX_POWER_STEPS` power steps,
    or below that N, is made in full by ``eigh``; with a floor, every pair
    above it is then kept. s is left as it was for a caller to ask for more.
    """
    n, width = s.shape[0], count + max(count // 2, MIN_OVERSAMPLE)
    try:
        if n >= RANGE_FINDER_MIN_N and width < n:
            s_basis = s @ np.random.default_rng(RANGE_SEED).standard_normal((n, width))
            for _ in range(MAX_POWER_STEPS + 1):
                basis = qr(s_basis)[0]
                s_basis = s @ basis
                vals, rot = eigh(basis.T @ s_basis)
                kept = _kept(vals, floor, count)
                if not kept:
                    break
                vecs = basis @ rot[:, -kept:]
                resid = np.linalg.norm(s_basis @ rot[:, -kept:] - vecs * vals[-kept:], axis=0)
                if resid.max() <= tol * vals[-1]:
                    return _descending_signed(vals[-kept:], vecs, kept)
        vals, vecs = eigh(s)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigendecomposition failed: {exc}") from exc
    return _descending_signed(vals, vecs, _kept(vals, floor, n if floor is not None else count))


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
    and the row degrees K~ of w~. The diagonal of w, 1 to rounding, keeps
    every degree positive.
    """
    degrees = w.sum(axis=1)
    kinv = 1.0 / degrees
    np.multiply(w, np.outer(kinv, kinv), out=w)
    row_degrees = w.sum(axis=1)
    w /= row_degrees[:, None]
    return degrees, row_degrees


def spectral_decompose(p: np.ndarray, row_degrees: np.ndarray, k: int):
    """Top k+1 right-eigenpairs (eigenvalues, eigenvectors) of p, descending.

    Overwrites p with its symmetric conjugate S = D^1/2 P D^-1/2 (D = row
    degrees) so a symmetric eigensolver applies. `eigenbasis` solves for
    exactly the top k+1 pairs of S, with no positivity floor, since a
    Gaussian kernel's tail eigenvalues can round below 0, and to a residual
    of `SPECTRUM_TOL` times the largest eigenvalue. Eigenvectors are mapped
    back by D^-1/2, scaled to unit root-mean-square entry (so psi_0 = 1),
    and sign-fixed so the entry of largest absolute value is positive.
    """
    n = p.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k must satisfy 1 <= k < {n}, got {k}")
    d_sqrt = np.sqrt(row_degrees)
    np.multiply(p, d_sqrt[:, None] / d_sqrt[None, :], out=p)
    vals, vecs = eigenbasis(p, None, k + 1, SPECTRUM_TOL)
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

