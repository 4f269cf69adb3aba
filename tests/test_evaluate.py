"""Tests for the naive baseline, error metrics, and comparison tables."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmrom.evaluate import comparison_table, error_metrics, nrw_forecast, write_comparison


# ------------------------------------------------------------------ baseline


def test_nrw_constant_series_is_exact():
    c = np.array([1.5, -0.3])
    truth = np.tile(c, (6, 1))
    rmse, l2 = error_metrics(nrw_forecast(truth, c), truth)
    assert np.all(rmse == 0.0) and np.all(l2 == 0.0)


def test_nrw_alternating_series_error():
    a, b = 0.9, -0.4
    truth = np.array([[a], [b], [a], [b]])
    rmse, _ = error_metrics(nrw_forecast(truth, np.array([b])), truth)
    assert rmse[0] == pytest.approx(abs(a - b), abs=1e-15)


def test_nrw_validation():
    with pytest.raises(ValueError, match="length"):
        nrw_forecast(np.ones((4, 2)), np.ones(3))


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), h=st.integers(1, 20), m=st.integers(1, 5))
def test_nrw_is_the_shifted_truth(seed, h, m):
    rng = np.random.default_rng(seed)
    truth = rng.normal(size=(h, m))
    last = rng.normal(size=m)
    assert np.array_equal(nrw_forecast(truth, last), np.vstack([last[None, :], truth[:-1]]))


# ------------------------------------------------------------------- metrics


def test_exact_prediction_scores_zero():
    truth = np.random.default_rng(0).normal(size=(7, 3))
    rmse, l2 = error_metrics(truth, truth)
    assert np.all(rmse == 0.0) and np.all(l2 == 0.0)


def test_metric_pairing_at_horizon_80():
    truth = np.zeros((80, 1))
    pred = np.full((80, 1), 0.487)
    rmse, l2 = error_metrics(pred, truth)
    assert rmse[0] == pytest.approx(0.487, abs=1e-12)
    assert l2[0] == pytest.approx(4.356, abs=1e-3)


def test_single_error_metrics():
    truth = np.zeros((4, 1))
    pred = np.zeros((4, 1))
    pred[2, 0] = 2.0
    rmse, l2 = error_metrics(pred, truth)
    assert rmse[0] == 1.0
    assert l2[0] == 2.0


def test_metrics_validation():
    with pytest.raises(ValueError, match="shape mismatch"):
        error_metrics(np.ones((3, 2)), np.ones((3, 3)))
    with pytest.raises(ValueError, match="at least one"):
        error_metrics(np.ones((0, 2)), np.ones((0, 2)))


def test_metric_symmetry():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(9, 4))
    b = rng.normal(size=(9, 4))
    fwd = error_metrics(a, b)
    rev = error_metrics(b, a)
    assert np.array_equal(fwd[0], rev[0])
    assert np.array_equal(fwd[1], rev[1])


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10_000), h=st.integers(1, 50), m=st.integers(1, 6))
def test_l2_rmse_identity(seed, h, m):
    rng = np.random.default_rng(seed)
    rmse, l2 = error_metrics(rng.normal(size=(h, m)), rng.normal(size=(h, m)))
    assert np.all(rmse >= 0.0) and np.all(l2 >= 0.0)
    assert np.allclose(l2, rmse * np.sqrt(h), rtol=1e-9, atol=1e-12)


# ---------------------------------------------------------------- comparison


def make_results(truth, offset):
    return {"fnn_gh": truth.copy(), "koopman": truth + offset}


def channels(truth):
    return [f"ch{j}" for j in range(truth.shape[1])]


def test_dominant_method_flagged_everywhere():
    truth = np.random.default_rng(4).normal(size=(6, 3))
    table = comparison_table(make_results(truth, offset=0.5), truth, channels(truth))
    assert table.methods == ["fnn_gh", "koopman"]
    assert np.all(table.best[0])
    assert not np.any(table.best[1])


def test_tied_methods_all_flagged():
    truth = np.random.default_rng(5).normal(size=(6, 3))
    shifted = truth + 0.1
    methods = {"fnn_gh": shifted, "koopman": shifted.copy()}
    table = comparison_table(methods, truth, channels(truth))
    assert np.all(table.best)


def test_table_identity_invariant():
    truth = np.random.default_rng(6).normal(size=(11, 4))
    methods = {"fnn_gh": truth + 0.3, "nrw": truth - 0.2}
    table = comparison_table(methods, truth, channels(truth))
    assert table.horizon == 11
    assert np.allclose(table.l2, table.rmse * np.sqrt(11), rtol=1e-9, atol=1e-12)
    assert np.all(table.rmse >= 0.0) and np.all(table.l2 >= 0.0)


def test_table_validation():
    truth = np.ones((4, 2))
    with pytest.raises(ValueError, match="no forecast"):
        comparison_table({}, truth, channels(truth))
    with pytest.raises(ValueError, match="nrw"):
        comparison_table({"nrw": np.ones((4, 3))}, truth, channels(truth))
    with pytest.raises(ValueError, match="channel name"):
        comparison_table({"nrw": truth}, truth, channel_names=["only_one"])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_table_rejects_non_finite_forecast(bad):
    truth = np.ones((3, 2))
    pred = truth.copy()
    pred[1, 0] = bad
    with pytest.raises(ValueError, match="'koopman' forecast contains non-finite values"):
        comparison_table({"fnn_gh": truth, "koopman": pred}, truth, channels(truth))


def test_rows_follow_the_mapping_order():
    truth = np.zeros((2, 1))
    methods = {"nrw": truth + 1, "koopman": truth + 2, "fnn_gh": truth}
    table = comparison_table(methods, truth, channels(truth))
    assert table.methods == ["nrw", "koopman", "fnn_gh"]
    assert np.array_equal(table.rmse[:, 0], [1.0, 2.0, 0.0])


# ----------------------------------------------------------------------- csv


def test_comparison_csv_layout(tmp_path):
    truth = np.random.default_rng(8).normal(size=(5, 2))
    table = comparison_table(
        make_results(truth, offset=1.0), truth, channel_names=["left", "right"]
    )
    path = tmp_path / "comparison.csv"
    write_comparison(table, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "region,method,rmse,l2,best"
    assert len(lines) == 1 + 2 * 2
    first = lines[1].split(",")
    assert first[0] == "left" and first[1] == "fnn_gh" and first[4] == "1"

