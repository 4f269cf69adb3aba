"""Ordinary-least-squares general linear model per channel with contrast t-tests.

The design matrix holds boxcar condition indicators; the activity report lists
channels passing an uncorrected p threshold. The series and the design are
plain arrays: x is N x M (one column per channel) and u is N x p (one column
per condition). Cluster-level or family-wise corrected inference is
deliberately out of scope; the region-level uncorrected test is an analogy to
voxel-cluster pipelines, not a numerical reproduction of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import artifacts

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


def t_tail(t, dof: int) -> np.ndarray:
    """Two-sided Student-t tail P(|T| >= |t|) on ``dof`` degrees of freedom, elementwise.

    It is the regularized incomplete beta I_x(a, b) at a = dof/2, b = 1/2 and
    x = dof / (dof + t^2); I_x(a, b) = 1 - I_{1-x}(b, a), and whichever side
    has its x below (a+1)/(a+b+2) is summed by its continued fraction, by
    Lentz's method (Press et al., Numerical Recipes, section 6.4). x and 1 - x
    come from ln(t^2 / dof) through logs, so neither loses digits near 0 or
    1. t = 0 gives 1, and a t whose square overflows, inf included, gives 0.
    The relative error grows with dof, since lgamma(a + 1/2) - lgamma(a) cancels:
    about 1.3e-11 at dof = 4318 and 2e-8 at dof = 1e7, worst near t = 1.73, where
    the continued fraction switches sides.
    """
    a0, b0 = dof / 2.0, 0.5
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):   # a nan t gives nan
        r = np.log(np.square(np.asarray(t, dtype=float)) / dof)
        log_x, log_y = -np.logaddexp(0.0, r), -np.logaddexp(0.0, -r)   # ln x, ln(1 - x)
    # x^a (1 - x)^b / B(a, b), the same on both sides
    front = np.exp(math.lgamma(a0 + b0) - math.lgamma(a0) - math.lgamma(b0)
                   + a0 * log_x + b0 * log_y)
    flip = np.exp(log_x) >= (a0 + 1.0) / (a0 + b0 + 2.0)
    a, b, x = np.where(flip, b0, a0), np.where(flip, a0, b0), np.exp(np.where(flip, log_y, log_x))
    f, c, d = np.ones_like(x), np.ones_like(x), np.zeros_like(x)
    for j in range(1, 1000):   # dof from 1 to 1e7 takes at most 90 terms
        m = j // 2
        if j % 2:
            dj = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            dj = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 / (1.0 + dj * d)
        c = 1.0 + dj / c
        delta = c * d
        f *= delta
        if not np.any(np.abs(delta - 1.0) > 1e-15):   # a nan t counts as converged
            break
    tail = front / (a * f)
    return np.where(flip, 1.0 - tail, tail)


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
    p = t_tail(t, fit.dof)
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
