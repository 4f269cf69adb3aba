"""Parsimonious eigendirection selection via local linear regression.

Each eigenvector psi_l (l >= 2) is regressed on its predecessors
psi_1..psi_{l-1} with leave-one-out locally weighted linear fits. A small
normalized residual means psi_l is a harmonic of earlier directions (it is a
function of them); a residual near 1 means it opens a genuinely new direction.
The first non-trivial eigenvector always counts as new: er_1 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import pdist

from . import artifacts, dmaps

RIDGE = 1e-10  # Tikhonov jitter on the weighted normal equations
SCALE_FRACTION = 1.0 / 3.0  # default local-fit bandwidth / median pairwise distance


@dataclass(frozen=True)
class ParsimonyReport:
    """Residuals er_1..er_k, the selected eigen indices, and fit metadata."""

    er: np.ndarray            # length k, er[0] corresponds to psi_1
    selected: list[int]       # 1-based eigen indices, ascending
    scale_fraction: float
    bandwidths: np.ndarray = field(default=None, repr=False)


def _loo_local_linear(psi_pred: np.ndarray, target: np.ndarray, h: float) -> np.ndarray:
    """Leave-one-out locally weighted predictions of target from psi_pred rows.

    Point i's fit solves the weighted normal equations
    (Z' W_i Z + ridge I) theta_i = Z' W_i target, Z = [1, psi_pred]. Every
    row of the kernel gives one point's weights, so all N systems are formed
    by two products with the kernel and solved in one batched call.
    """
    n = psi_pred.shape[0]
    w, _ = dmaps.kernel(psi_pred, sigma=h * h)   # weights exp(-d^2 / (2 h^2))
    np.fill_diagonal(w, 0.0)   # the point being predicted never weighs its own fit
    z = np.hstack([np.ones((n, 1)), psi_pred])
    m = z.shape[1]
    gram = (w @ (z[:, :, None] * z[:, None, :]).reshape(n, m * m)).reshape(n, m, m)
    gram += RIDGE * np.eye(m)
    rhs = w @ (z * target[:, None])
    theta = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
    return np.einsum("ij,ij->i", z, theta)


def _errors_and_bandwidths(psi: np.ndarray, scale_fraction: float):
    psi = np.asarray(psi, dtype=float)
    if psi.ndim != 2:
        raise ValueError(f"expected 2-D eigenvector array, got shape {psi.shape}")
    n, k = psi.shape
    if k < 1:
        raise ValueError("need at least one eigenvector column")
    if n < 3:
        raise ValueError(f"need at least 3 points for leave-one-out fits, got {n}")
    if scale_fraction <= 0:
        raise ValueError(f"scale_fraction must be positive, got {scale_fraction}")
    er = np.empty(k)
    er[0] = 1.0
    bandwidths = np.full(k, np.nan)
    for l in range(2, k + 1):
        pred_cols = psi[:, : l - 1]
        target = psi[:, l - 1]
        med = float(np.median(pdist(pred_cols)))
        h = scale_fraction * med if med > 0 else 1.0
        bandwidths[l - 1] = h
        preds = _loo_local_linear(pred_cols, target, h)
        denom = float(np.sum(target**2))
        if denom == 0:
            raise ValueError(f"eigenvector column {l} is identically zero")
        er[l - 1] = float(np.sqrt(np.sum((target - preds) ** 2) / denom))
    return er, bandwidths


def parsimony_errors(psi: np.ndarray, scale_fraction: float = SCALE_FRACTION) -> np.ndarray:
    """Normalized leave-one-out residuals er_l for each eigenvector column.

    Parameters
    ----------
    psi : ndarray, shape (N, k)
        Non-trivial eigenvectors psi_1..psi_k as columns, ordered by
        descending eigenvalue.
    scale_fraction : float
        Kernel bandwidth for the local fits, as a fraction of the median
        pairwise distance among the predecessor-coordinate rows.

    Returns
    -------
    ndarray, length k
        er[l-1] = sqrt(sum_i (psi_{i,l} - pred_i)^2 / sum_i psi_{i,l}^2),
        with er for the first column fixed at 1.
    """
    er, _ = _errors_and_bandwidths(psi, scale_fraction)
    return er


def select_parsimonious(er: np.ndarray, d: int) -> list[int]:
    """Indices (1-based) of the d largest residuals, reported ascending.

    Ties prefer the smaller eigen index.
    """
    er = np.asarray(er, dtype=float)
    k = len(er)
    if not 1 <= d <= k:
        raise ValueError(f"d must satisfy 1 <= d <= {k}, got {d}")
    order = sorted(range(k), key=lambda i: (-er[i], i))
    return sorted(i + 1 for i in order[:d])


def rank_and_select(
    psi: np.ndarray, d: int, scale_fraction: float = SCALE_FRACTION
) -> ParsimonyReport:
    """Residuals plus selection in a single call."""
    er, bandwidths = _errors_and_bandwidths(psi, scale_fraction)
    selected = select_parsimonious(er, d)
    return ParsimonyReport(
        er=er, selected=selected, scale_fraction=scale_fraction, bandwidths=bandwidths
    )


def save_report(report: ParsimonyReport, path) -> None:
    payload = {
        "er": [float(v) for v in report.er],
        "selected": [int(i) for i in report.selected],
        "scale_fraction": report.scale_fraction,
    }
    artifacts.write_json(path, payload)


def load_report(path) -> ParsimonyReport:
    payload = artifacts.read_json(path, "parsimony report", ("er", "selected", "scale_fraction"))
    return ParsimonyReport(
        er=np.asarray(payload["er"], dtype=float),
        selected=[int(i) for i in payload["selected"]],
        scale_fraction=float(payload["scale_fraction"]),
    )
