"""Ordinary-least-squares general linear model per channel with contrast t-tests.

The design matrix holds boxcar condition indicators; the activity report lists
channels passing an uncorrected p threshold. The series and the design are
plain arrays: x is N x M (one column per channel) and u is N x p (one column
per condition). Cluster-level or family-wise corrected inference is
deliberately out of scope; the region-level uncorrected test is an analogy to
voxel-cluster pipelines, not a numerical reproduction of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from . import _one_blas_thread, artifacts

_one_blas_thread()   # scipy.special has loaded scipy's OpenBLAS

ZERO_VARIANCE_REL = 1e-28
P_THRESHOLD = 0.001   # the uncorrected p below which a channel passes


@dataclass(frozen=True)
class GlmFit:
    """Per-channel OLS coefficients and residuals for a shared design matrix."""

    betas: np.ndarray      # M x p
    residuals: np.ndarray  # N x M
    dof: int               # N - rank(U)
    sigma2: np.ndarray     # length M residual variances
    scale: np.ndarray      # length M column sum-of-squares / dof, for the zero-variance sentinel


@dataclass(frozen=True)
class ContrastResult:
    contrast: np.ndarray
    t_values: np.ndarray
    p_values: np.ndarray


def build_design_matrix(epochs, n: int, conditions: list[str]) -> np.ndarray:
    """Boxcar indicator design: U[i, j] = 1 iff time i lies in an epoch of condition j.

    Parameters
    ----------
    epochs : iterable of (condition, start, end)
        Half-open index ranges [start, end); epochs of one condition must not
        overlap.
    n : int
        Number of time points (rows).
    conditions : list of str
        Column order of the design matrix.
    """
    index = {name: j for j, name in enumerate(conditions)}
    if len(index) != len(conditions):
        raise ValueError("duplicate condition names")
    u = np.zeros((n, len(conditions)))
    for cond, start, end in epochs:
        if cond not in index:
            raise ValueError(f"unknown condition {cond!r}")
        if not (0 <= start < end <= n):
            raise ValueError(
                f"epoch [{start}, {end}) out of range for {n} time points"
            )
        j = index[cond]
        if np.any(u[start:end, j] != 0):
            raise ValueError(f"overlapping epochs for condition {cond!r}")
        u[start:end, j] = 1.0
    return u


def fit_glm(x: np.ndarray, u: np.ndarray) -> GlmFit:
    """Least-squares fit of every channel (column of x) against the design u.

    Uses a rank-revealing solve (minimum-norm coefficients if the design is
    rank-deficient). Residual variance uses dof = N - rank(u).
    """
    n = x.shape[0]
    if u.shape[0] != n:
        raise ValueError("design matrix row count does not match time series")
    betas, _, rank, _ = np.linalg.lstsq(u, x, rcond=None)
    dof = n - rank
    if dof <= 0:
        raise ValueError(f"no residual degrees of freedom (N={n}, rank={rank})")
    residuals = x - u @ betas
    sigma2 = np.sum(residuals**2, axis=0) / dof
    scale = np.sum(x**2, axis=0) / dof
    return GlmFit(betas=betas.T, residuals=residuals, dof=dof, sigma2=sigma2, scale=scale)


def contrast_tstat(fit: GlmFit, u: np.ndarray, c) -> ContrastResult:
    """Two-sided t-test of the contrast c'beta per channel.

    t_i = c'beta_i / sqrt(sigma2_i * c'(u'u)^+ c). A channel with an exact fit
    (zero residual variance) gets a signed infinite t and p = 0 when the effect
    is nonzero, t = 0 and p = 1 otherwise.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (u.shape[1],):
        raise ValueError("contrast length does not match design columns")
    if not np.any(c != 0):
        raise ValueError("degenerate contrast: all-zero vector")
    gram_pinv = np.linalg.pinv(u.T @ u)
    var_factor = float(c @ gram_pinv @ c)
    if var_factor <= 0:
        raise ValueError("contrast not estimable for this design")
    effects = fit.betas @ c
    zero_var = fit.sigma2 <= ZERO_VARIANCE_REL * np.maximum(fit.scale, 1e-300)
    t = np.zeros_like(effects)
    with np.errstate(divide="ignore", invalid="ignore"):
        t[~zero_var] = effects[~zero_var] / np.sqrt(fit.sigma2[~zero_var] * var_factor)
    # exact fits: signed infinity for a real effect, 0 for no effect
    exact = zero_var & (effects != 0)
    t[exact] = np.sign(effects[exact]) * np.inf
    p = np.where(np.isinf(t), 0.0, 2.0 * special.stdtr(fit.dof, -np.abs(t)))
    return ContrastResult(contrast=c, t_values=t, p_values=p)


def write_activity_report(
    path,
    fit: GlmFit,
    result: ContrastResult,
    channel_names: list[str],
    condition_names: list[str],
) -> None:
    """CSV report: channel, beta per condition, t, p, and pass: p < `P_THRESHOLD`."""
    artifacts.write_rows(
        path,
        ["channel"] + [f"beta_{name}" for name in condition_names] + ["t", "p", "pass"],
        (
            [name]
            + [repr(float(b)) for b in fit.betas[i]]
            + [
                repr(float(result.t_values[i])),
                repr(float(result.p_values[i])),
                int(result.p_values[i] < P_THRESHOLD),
            ]
            for i, name in enumerate(channel_names)
        ),
    )
