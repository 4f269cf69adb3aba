"""Random-walk baseline, per-channel error metrics, and method comparison tables."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import artifacts


def nrw_forecast(test_truth, last_train_value) -> np.ndarray:
    """One-step look-ahead baseline: predict the previous observed value.

    The step-1 prediction is the last training value; step i+1 predicts the
    test truth at step i. The truth may be ambient or reduced coordinates.
    """
    truth = np.atleast_2d(np.asarray(test_truth, dtype=float))
    last = np.asarray(last_train_value, dtype=float).ravel()
    if last.shape[0] != truth.shape[1]:
        raise ValueError(
            f"last training value has length {last.shape[0]}, truth has {truth.shape[1]} columns"
        )
    return np.vstack([last[None, :], truth[:-1]])


def error_metrics(pred, truth):
    """Per-channel rmse and l2 error over the horizon.

    rmse_m = sqrt(sum_i e_{i,m}^2 / h), l2_m = sqrt(sum_i e_{i,m}^2).
    """
    pred = np.atleast_2d(np.asarray(pred, dtype=float))
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape}, truth {truth.shape}")
    h = pred.shape[0]
    if h < 1:
        raise ValueError("need at least one forecast step")
    sq = np.sum((pred - truth) ** 2, axis=0)
    return np.sqrt(sq / h), np.sqrt(sq)


@dataclass(frozen=True)
class ErrorTable:
    """Per-method, per-channel errors with the lowest-rmse flag."""

    methods: list
    channel_names: list
    rmse: np.ndarray   # n_methods x M
    l2: np.ndarray     # n_methods x M
    best: np.ndarray   # n_methods x M bool; ties flag every minimum


def comparison_table(forecasts, truth, channel_names) -> ErrorTable:
    """Side-by-side error table of ``{method: ambient forecast}``, rows in mapping order.

    Each forecast and the truth are (h, M), and ``channel_names`` names the M
    columns.
    """
    if not forecasts:
        raise ValueError("no forecast results to compare")
    truth = np.asarray(truth, dtype=float)
    h, m = truth.shape
    preds = {method: np.asarray(a, dtype=float) for method, a in forecasts.items()}
    for method, pred in preds.items():
        if pred.shape != (h, m):
            raise ValueError(
                f"method {method!r} forecast shape {pred.shape} does not match "
                f"truth shape {(h, m)}"
            )
        if not np.all(np.isfinite(pred)):
            raise ValueError(f"method {method!r} forecast contains non-finite values")
    if len(channel_names) != m:
        raise ValueError("channel name count does not match truth columns")
    rmse = np.empty((len(preds), m))
    l2 = np.empty((len(preds), m))
    for i, pred in enumerate(preds.values()):
        rmse[i], l2[i] = error_metrics(pred, truth)
    best = rmse == rmse.min(axis=0)[None, :]
    return ErrorTable(
        methods=list(preds),
        channel_names=list(channel_names),
        rmse=rmse,
        l2=l2,
        best=best,
    )


def write_comparison(table: ErrorTable, path) -> None:
    """CSV rows: region, method, rmse, l2, best(0/1)."""
    artifacts.write_rows(
        path,
        ["region", "method", "rmse", "l2", "best"],
        (
            [
                name,
                method,
                repr(float(table.rmse[i, j])),
                repr(float(table.l2[i, j])),
                int(table.best[i, j]),
            ]
            for j, name in enumerate(table.channel_names)
            for i, method in enumerate(table.methods)
        ),
    )

