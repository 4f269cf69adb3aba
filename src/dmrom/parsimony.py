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

from . import artifacts, dmaps

RIDGE = 1e-10  # Tikhonov jitter on the weighted normal equations
# the local-fit bandwidth over the root median squared distance (Dsilva et al. 2018)
SCALE_FRACTION = 1.0 / 3.0


@dataclass(frozen=True)
class ParsimonyReport:
    """Residuals er_1..er_k, the selected eigen indices, and fit metadata."""

    er: np.ndarray            # length k, er[0] corresponds to psi_1
    selected: list[int]       # 1-based eigen indices, ascending
    bandwidths: np.ndarray = field(default=None, repr=False)


def _loo_local_linear(psi_pred: np.ndarray, target: np.ndarray):
    """Leave-one-out locally weighted predictions of target from psi_pred rows, and h.

    The weights are exp(-d^2 / (2 h^2)) with h = `SCALE_FRACTION` x the root
    median squared distance among the rows (`dmaps.kernel`'s auto scale).
    Point i's fit solves the weighted normal equations
    (Z' W_i Z + ridge I) theta_i = Z' W_i target, Z = [1, psi_pred]. Every
    row of the kernel gives one point's weights, so all N systems are formed
    by two products with the kernel and solved in one batched call.
    """
    n = psi_pred.shape[0]
    w, h2 = dmaps.kernel(psi_pred, fraction=SCALE_FRACTION**2)
    np.fill_diagonal(w, 0.0)   # the point being predicted never weighs its own fit
    z = np.hstack([np.ones((n, 1)), psi_pred])
    m = z.shape[1]
    gram = (w @ (z[:, :, None] * z[:, None, :]).reshape(n, m * m)).reshape(n, m, m)
    gram += RIDGE * np.eye(m)
    rhs = w @ (z * target[:, None])
    theta = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
    return np.einsum("ij,ij->i", z, theta), float(np.sqrt(h2))


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


def rank_and_select(psi: np.ndarray, d: int) -> ParsimonyReport:
    """Normalized leave-one-out residuals er_l of the eigenvector columns, and the d largest.

    psi holds the non-trivial eigenvectors psi_1..psi_k as columns, ordered
    by descending eigenvalue. er[l-1] = sqrt(sum_i (psi_{i,l} - pred_i)^2 /
    sum_i psi_{i,l}^2), with er for the first column fixed at 1; the local
    fits' bandwidth is `SCALE_FRACTION` times the root median squared
    pairwise distance among the predecessor rows. A predecessor set whose
    median distance is 0 raises ("degenerate point set").
    """
    psi = np.asarray(psi, dtype=float)
    if psi.ndim != 2:
        raise ValueError(f"expected 2-D eigenvector array, got shape {psi.shape}")
    n, k = psi.shape
    if k < 1:
        raise ValueError("need at least one eigenvector column")
    if n < 3:
        raise ValueError(f"need at least 3 points for leave-one-out fits, got {n}")
    er = np.empty(k)
    er[0] = 1.0
    bandwidths = np.full(k, np.nan)
    for l in range(2, k + 1):
        target = psi[:, l - 1]
        preds, bandwidths[l - 1] = _loo_local_linear(psi[:, : l - 1], target)
        denom = float(np.sum(target**2))
        if denom == 0:
            raise ValueError(f"eigenvector column {l} is identically zero")
        er[l - 1] = float(np.sqrt(np.sum((target - preds) ** 2) / denom))
    return ParsimonyReport(er=er, selected=select_parsimonious(er, d), bandwidths=bandwidths)


def save_report(report: ParsimonyReport, path) -> None:
    payload = {
        "er": [float(v) for v in report.er],
        "selected": [int(i) for i in report.selected],
        "scale_fraction": SCALE_FRACTION,
    }
    artifacts.write_json(path, payload)


def load_report(path) -> ParsimonyReport:
    payload = artifacts.read_json(path, "parsimony report", ("er", "selected"))
    return ParsimonyReport(
        er=np.asarray(payload["er"], dtype=float),
        selected=[int(i) for i in payload["selected"]],
    )
