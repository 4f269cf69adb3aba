"""Tests for parsimonious eigendirection ranking and selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from dmrom import dmaps
from dmrom.parsimony import (
    RIDGE,
    ParsimonyReport,
    load_report,
    rank_and_select,
    save_report,
    select_parsimonious,
)


@pytest.fixture(scope="module")
def direct_columns():
    # column 1: a 1-D coordinate; column 2: its square (a harmonic);
    # column 3: statistically independent of both
    rng = np.random.default_rng(8)
    x = rng.uniform(-1.0, 1.0, 200)
    noise = rng.normal(size=200)
    return x, noise, np.column_stack([x, x**2, noise])


# ----------------------------------------------------------------- residuals


def test_first_residual_is_one(direct_columns):
    _, _, psi = direct_columns
    assert rank_and_select(psi, 1).er[0] == 1.0


def test_harmonic_column_scores_low(direct_columns):
    _, _, psi = direct_columns
    er = rank_and_select(psi, 1).er
    assert er[1] == pytest.approx(0.07158205275447857, abs=1e-12)
    assert er[1] < 0.2


def test_independent_column_scores_near_one(direct_columns):
    _, _, psi = direct_columns
    assert rank_and_select(psi, 1).er[2] > 0.9


def test_affine_function_of_predecessors(direct_columns):
    x, _, _ = direct_columns
    psi = np.column_stack([x, x**2, 0.3 * x - 0.7 * x**2 + 0.1])
    assert rank_and_select(psi, 1).er[2] < 1e-6


def test_strip_harmonic_structure(strip_points, strip_embedding):
    psi = strip_embedding.eigenvectors[:, 1:]
    er = rank_and_select(psi, 1).er
    # the second direction is the first harmonic of the long axis
    assert er[1] < 0.2
    a = np.column_stack([np.ones(len(psi)), psi[:, 0], psi[:, 0] ** 2])
    beta, *_ = np.linalg.lstsq(a, psi[:, 1], rcond=None)
    resid = psi[:, 1] - a @ beta
    ss = np.sum((psi[:, 1] - psi[:, 1].mean()) ** 2)
    assert 1.0 - resid @ resid / ss > 0.99
    # the transverse direction scores near 1 and tracks the short axis
    assert er[3] > 0.7
    assert abs(np.corrcoef(psi[:, 3], strip_points[:, 1])[0, 1]) > 0.9
    assert select_parsimonious(er, 2) == [1, 4]
    # residuals of a spectral embedding stay normalized
    assert np.all(er >= 0.0) and np.all(er <= 1.0 + 1e-9)


def test_scale_invariance_of_own_residual(direct_columns):
    x, noise, psi = direct_columns
    er = rank_and_select(psi, 1).er
    scaled_last = np.column_stack([x, x**2, -2.5 * noise])
    assert abs(rank_and_select(scaled_last, 1).er[2] - er[2]) < 1e-10
    scaled_mid = np.column_stack([x, 1e3 * x**2, noise])
    assert abs(rank_and_select(scaled_mid, 1).er[1] - er[1]) < 1e-10


def test_duplicated_column_scores_near_zero(direct_columns):
    x, noise, _ = direct_columns
    psi = np.column_stack([x, x**2, noise, x**2])
    assert rank_and_select(psi, 1).er[3] < 1e-8


def test_residual_input_validation():
    with pytest.raises(ValueError, match="2-D"):
        rank_and_select(np.ones(5), 1)
    with pytest.raises(ValueError, match="at least one"):
        rank_and_select(np.ones((5, 0)), 1)
    with pytest.raises(ValueError, match="at least 3"):
        rank_and_select(np.ones((2, 3)), 1)
    psi = np.column_stack([np.arange(5.0), np.zeros(5)])
    with pytest.raises(ValueError, match="identically zero"):
        rank_and_select(psi, 1).er


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 25), k=st.integers(1, 4))
def test_first_residual_convention_always_holds(seed, n, k):
    psi = np.random.default_rng(seed).normal(size=(n, k))
    assert rank_and_select(psi, 1).er[0] == 1.0


def per_point_errors(psi, scale_fraction=1.0 / 3.0):
    """The residuals from one weighted least-squares solve per left-out point."""
    n, k = psi.shape
    er = np.ones(k)
    for l in range(1, k):
        pred, target = psi[:, :l], psi[:, l]
        h2 = scale_fraction**2 * float(np.median(pdist(pred, "sqeuclidean")))
        w_all, _ = dmaps.kernel(pred, sigma=h2)
        z = np.hstack([np.ones((n, 1)), pred])
        fit = np.empty(n)
        for i in range(n):
            w = w_all[i].copy()
            w[i] = 0.0
            zw = z * w[:, None]
            theta = np.linalg.solve(zw.T @ z + RIDGE * np.eye(l + 1), zw.T @ target)
            fit[i] = z[i] @ theta
        er[l] = np.sqrt(np.sum((target - fit) ** 2) / np.sum(target**2))
    return er


@pytest.mark.parametrize("source", ["direct", "strip", "noise"])
def test_batched_solve_matches_the_per_point_loop(source, direct_columns, strip_embedding):
    if source == "direct":
        psi, d = direct_columns[2], 2
    elif source == "strip":
        psi, d = strip_embedding.eigenvectors[:, 1:], 3
    else:
        psi, d = np.random.default_rng(21).normal(size=(40, 6)), 3
    want = per_point_errors(psi)
    report = rank_and_select(psi, d)
    assert np.max(np.abs(report.er - want)) < 1e-12
    assert report.selected == select_parsimonious(want, d)


# ----------------------------------------------------------------- selection


def test_select_largest():
    assert select_parsimonious(np.array([1.0, 0.9, 0.1]), 2) == [1, 2]


def test_select_tie_prefers_smaller_index():
    assert select_parsimonious(np.array([1.0, 0.5, 0.5]), 2) == [1, 2]


def test_select_reports_ascending():
    assert select_parsimonious(np.array([0.2, 0.9, 0.1, 1.0]), 2) == [2, 4]


def test_select_d_out_of_range():
    er = np.array([1.0, 0.5])
    for d in (0, 3):
        with pytest.raises(ValueError, match="d must"):
            select_parsimonious(er, d)


@settings(deadline=None, max_examples=50)
@given(
    er=st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=10),
    data=st.data(),
)
def test_selection_picks_the_d_largest(er, data):
    er = np.asarray(er)
    d = data.draw(st.integers(1, len(er)))
    sel = select_parsimonious(er, d)
    assert len(sel) == d
    assert all(1 <= i <= len(er) for i in sel)
    assert sorted(sel) == sel and len(set(sel)) == d
    picked = sorted((er[i - 1] for i in sel), reverse=True)
    assert picked == sorted(er, reverse=True)[:d]


# -------------------------------------------------------------------- report


def test_rank_and_select_bandwidth_oracle(direct_columns):
    _, _, psi = direct_columns
    report = rank_and_select(psi, d=2)
    assert report.selected == [1, 3]
    # bandwidth for column l is SCALE_FRACTION (1/3) * root median squared predecessor distance
    for l in (1, 2):
        med2 = np.median(pdist(psi[:, :l], "sqeuclidean"))
        want = np.sqrt((1.0 / 3.0) ** 2 * med2)
        assert report.bandwidths[l] == pytest.approx(want, rel=1e-14)
    assert np.isnan(report.bandwidths[0])


def test_degenerate_predecessors_raise():
    # more than half the pairs of psi_1 values coincide, so the median
    # predecessor distance is 0 and no bandwidth exists
    psi = np.column_stack([np.r_[np.zeros(8), 1.0, 2.0], np.arange(10.0)])
    with pytest.raises(ValueError, match="degenerate point set"):
        rank_and_select(psi, 1)


def test_report_roundtrip(tmp_path, direct_columns):
    _, _, psi = direct_columns
    report = rank_and_select(psi, d=2)
    path = tmp_path / "parsimony.json"
    save_report(report, path)
    back = load_report(path)
    assert np.array_equal(back.er, report.er)
    assert back.selected == report.selected
