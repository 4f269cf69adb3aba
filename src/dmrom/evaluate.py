"""Baseline forecasts, per-channel error metrics, and method comparison tables."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import artifacts
from .lifting import GhLiftModel, gh_lift

METHODS = ("fnn_gh", "koopman", "nrw")


@dataclass(frozen=True)
class ForecastResult:
    """One method's forecast over the test horizon."""

    method: str
    ambient: np.ndarray          # h x M
    reduced: np.ndarray = None   # h x d, absent for ambient-mode NRW
    horizon: int = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        ambient = np.atleast_2d(np.asarray(self.ambient, dtype=float))
        object.__setattr__(self, "ambient", ambient)
        if not np.all(np.isfinite(ambient)):
            raise ValueError("ambient forecast contains non-finite values")
        h = ambient.shape[0] if self.horizon is None else int(self.horizon)
        if h != ambient.shape[0]:
            raise ValueError(f"horizon {h} does not match {ambient.shape[0]} forecast rows")
        object.__setattr__(self, "horizon", h)
        if self.reduced is not None:
            reduced = np.atleast_2d(np.asarray(self.reduced, dtype=float))
            if reduced.shape[0] != h:
                raise ValueError("reduced forecast row count does not match horizon")
            object.__setattr__(self, "reduced", reduced)


def nrw_forecast(
    test_truth,
    last_train_value,
    mode: str = "reduced_then_lift",
    lift_model: GhLiftModel = None,
) -> ForecastResult:
    """One-step look-ahead baseline: predict the previous observed value.

    The step-1 prediction is the last training value; step i+1 predicts the
    test truth at step i. In ``reduced_then_lift`` mode the truth is the
    reduced test trajectory and the walked path is lifted to ambient space;
    in ``ambient`` mode the truth is ambient and used directly.
    """
    if mode not in ("reduced_then_lift", "ambient"):
        raise ValueError(f"unknown mode {mode!r}")
    truth = np.atleast_2d(np.asarray(test_truth, dtype=float))
    last = np.asarray(last_train_value, dtype=float).ravel()
    if last.shape[0] != truth.shape[1]:
        raise ValueError(
            f"last training value has length {last.shape[0]}, truth has {truth.shape[1]} columns"
        )
    path = np.vstack([last[None, :], truth[:-1]])
    if mode == "ambient":
        return ForecastResult(method="nrw", ambient=path, reduced=None)
    if lift_model is None:
        raise ValueError("reduced_then_lift mode requires a lift model")
    ambient = gh_lift(lift_model, path)
    return ForecastResult(method="nrw", ambient=ambient, reduced=path)


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
    horizon: int


def comparison_table(results, truth, channel_names=None) -> ErrorTable:
    """Side-by-side error table across methods sharing one test truth."""
    if not results:
        raise ValueError("no forecast results to compare")
    truth = np.atleast_2d(np.asarray(truth, dtype=float))
    h, m = truth.shape
    for r in results:
        if r.ambient.shape != (h, m):
            raise ValueError(
                f"method {r.method!r} forecast shape {r.ambient.shape} does not match "
                f"truth shape {(h, m)}"
            )
    if channel_names is None:
        channel_names = [f"ch{j:03d}" for j in range(m)]
    if len(channel_names) != m:
        raise ValueError("channel name count does not match truth columns")
    rmse = np.empty((len(results), m))
    l2 = np.empty((len(results), m))
    for i, r in enumerate(results):
        rmse[i], l2[i] = error_metrics(r.ambient, truth)
    best = rmse == rmse.min(axis=0)[None, :]
    return ErrorTable(
        methods=[r.method for r in results],
        channel_names=list(channel_names),
        rmse=rmse,
        l2=l2,
        best=best,
        horizon=h,
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

