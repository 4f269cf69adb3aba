"""Design-matrix construction, least-squares fits, and contrast statistics."""

import numpy as np
import pytest
from scipy import special, stats

from dmrom.glm import (
    P_THRESHOLD,
    build_design_matrix,
    contrast_tstat,
    fit_glm,
    t_tail,
    write_activity_report,
)


# ---------------------------------------------------------- design matrix

def test_design_full_epoch_is_ones():
    u = build_design_matrix([("on", 0, 6)], 6, ["on"])
    assert np.array_equal(u, np.ones((6, 1)))


def test_design_no_epochs_is_zeros():
    u = build_design_matrix([], 5, ["a", "b"])
    assert np.array_equal(u, np.zeros((5, 2)))


def test_design_complementary_epochs_rows_sum_to_one():
    u = build_design_matrix([("a", 0, 3), ("b", 3, 8)], 8, ["a", "b"])
    for i in range(8):
        assert u[i].sum() == 1.0
        assert set(u[i]) <= {0.0, 1.0}


def test_design_validation_errors():
    with pytest.raises(ValueError):
        build_design_matrix([("x", 0, 2)], 4, ["a"])  # unknown condition
    with pytest.raises(ValueError):
        build_design_matrix([("a", 2, 9)], 4, ["a"])  # past the end
    with pytest.raises(ValueError):
        build_design_matrix([("a", 3, 3)], 4, ["a"])  # empty interval
    with pytest.raises(ValueError):
        build_design_matrix([("a", 0, 3), ("a", 2, 4)], 6, ["a"])  # overlap
    with pytest.raises(ValueError):
        build_design_matrix([], 4, ["a", "a"])  # duplicate names


# ------------------------------------------------------------------ fits

def test_fit_identity_pairing():
    vals = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    fit = fit_glm(vals.copy(), vals.copy())
    assert np.max(np.abs(fit.betas - np.eye(2))) < 1e-12
    assert np.max(np.abs(fit.residuals)) < 1e-12


def test_fit_mean_model():
    x = np.array([[1.0], [2.0], [3.0]])
    u = np.ones((3, 1))
    fit = fit_glm(x, u)
    assert abs(fit.betas[0, 0] - 2.0) < 1e-12
    assert np.allclose(fit.residuals[:, 0], [-1.0, 0.0, 1.0])


def test_fit_recovers_known_coefficients():
    """Noise-free targets built from a known coefficient matrix are recovered
    exactly; the check runs against an independently solved normal-equations
    system rather than the module's own solver."""
    rng = np.random.default_rng(17)
    u_vals = rng.normal(size=(50, 3))
    beta_true = rng.normal(size=(4, 3))  # 4 channels x 3 regressors
    x_vals = u_vals @ beta_true.T
    fit = fit_glm(x_vals, u_vals)
    oracle = np.linalg.solve(u_vals.T @ u_vals, u_vals.T @ x_vals).T
    assert np.max(np.abs(fit.betas - beta_true)) < 1e-10
    assert np.max(np.abs(fit.betas - oracle)) < 1e-10


def test_fit_reconstruction_and_orthogonality():
    rng = np.random.default_rng(4)
    u_vals = rng.normal(size=(40, 2))
    x_vals = u_vals @ rng.normal(size=(3, 2)).T + 0.3 * rng.normal(size=(40, 3))
    fit = fit_glm(x_vals, u_vals)
    recon = u_vals @ fit.betas.T + fit.residuals
    assert np.max(np.abs(recon - x_vals)) < 1e-10
    for i in range(3):
        bound = 1e-8 * np.linalg.norm(x_vals[:, i])
        assert np.max(np.abs(u_vals.T @ fit.residuals[:, i])) < bound


def test_fit_no_residual_dof_is_error():
    x = np.array([[1.0], [2.0]])
    u = np.eye(2)
    with pytest.raises(ValueError, match="degrees of freedom"):
        fit_glm(x, u)


def test_refit_on_fitted_values_is_idempotent():
    rng = np.random.default_rng(2)
    u_vals = rng.normal(size=(30, 2))
    x_vals = rng.normal(size=(30, 2))
    fit = fit_glm(x_vals, u_vals)
    fitted = u_vals @ fit.betas.T
    refit = fit_glm(fitted, u_vals)
    assert np.max(np.abs(refit.betas - fit.betas)) < 1e-10


def test_column_space_shift_leaves_residuals():
    rng = np.random.default_rng(6)
    u_vals = rng.normal(size=(25, 2))
    x_vals = rng.normal(size=(25, 1))
    base = fit_glm(x_vals, u_vals)
    shifted = fit_glm(x_vals + (u_vals @ np.array([1.5, -2.0]))[:, None], u_vals)
    assert np.max(np.abs(shifted.residuals - base.residuals)) < 1e-10
    assert not np.allclose(shifted.betas, base.betas)


# ------------------------------------------------------------- contrasts

def _two_group_toy():
    u = np.repeat(np.eye(2), 3, axis=0)
    x = np.array([1.0, 2.0, 3.0, 10.0, 11.0, 12.0])[:, None]
    return x, u


def test_contrast_matches_two_sample_t():
    """Group-difference contrast equals the pooled two-sample t statistic."""
    x, u = _two_group_toy()
    fit = fit_glm(x, u)
    res = contrast_tstat(fit, u, np.array([1.0, -1.0]))

    g1, g2 = x[:3, 0], x[3:, 0]
    sp2 = (np.sum((g1 - g1.mean()) ** 2) + np.sum((g2 - g2.mean()) ** 2)) / 4.0
    t_oracle = (g1.mean() - g2.mean()) / np.sqrt(sp2 * (1 / 3 + 1 / 3))
    p_oracle = 2.0 * stats.t.sf(abs(t_oracle), 4)
    assert abs(res.t_values[0] - t_oracle) < 1e-10
    assert abs(res.p_values[0] - p_oracle) < 1e-10


def test_contrast_zero_residual_gives_infinite_t():
    u = np.repeat(np.eye(2), 2, axis=0)
    x = (u @ np.array([3.0, 1.0]))[:, None]  # exact fit, nonzero difference
    fit = fit_glm(x, u)
    res = contrast_tstat(fit, u, np.array([1.0, -1.0]))
    assert np.isinf(res.t_values[0]) and res.t_values[0] > 0
    assert res.p_values[0] == 0.0


def test_contrast_zero_residual_zero_effect():
    u = np.repeat(np.eye(2), 2, axis=0)
    x = (u @ np.array([3.0, 3.0]))[:, None]
    res = contrast_tstat(fit_glm(x, u), u, np.array([1.0, -1.0]))
    assert res.t_values[0] == 0.0
    assert res.p_values[0] == 1.0


def test_contrast_degenerate_vector_is_error():
    x, u = _two_group_toy()
    fit = fit_glm(x, u)
    with pytest.raises(ValueError, match="degenerate"):
        contrast_tstat(fit, u, np.zeros(2))
    with pytest.raises(ValueError):
        contrast_tstat(fit, u, np.array([1.0]))  # wrong length


def test_contrast_p_consistent_with_t_cdf():
    rng = np.random.default_rng(12)
    u = rng.normal(size=(30, 2))
    x = u @ rng.normal(size=(4, 2)).T + rng.normal(size=(30, 4))
    fit = fit_glm(x, u)
    res = contrast_tstat(fit, u, np.array([1.0, 0.0]))
    expected = 2.0 * stats.t.sf(np.abs(res.t_values), fit.dof)
    assert np.max(np.abs(res.p_values - expected)) < 1e-8
    assert np.all((res.p_values >= 0) & (res.p_values <= 1))


# 4318 is stim4000's: 4320 rows against two boxcar columns
@pytest.mark.parametrize("dof", [1, 3, 5, 17, 300, 4318])
def test_t_tail_matches_twice_stdtr(dof):
    # t = 0, t whose square overflows, infinities, nan, and grids through the
    # pass threshold; below the normal floats stdtr flushes to 0, and the
    # tail must be below them too
    t = np.concatenate([[0.0, 1e300, -1e300, np.inf, -np.inf, np.nan],
                        np.linspace(-40.0, 40.0, 4001), np.geomspace(1e-3, 1e3, 601)])
    want = 2.0 * special.stdtr(dof, -np.abs(t))
    got = t_tail(t, dof)
    tiny = np.finfo(float).tiny
    normal = want >= tiny
    assert np.all(np.abs(got[normal] - want[normal]) <= 1e-10 * want[normal])
    assert np.all(got[want < tiny] < tiny)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(got < P_THRESHOLD, want < P_THRESHOLD)


def test_t_tail_at_one_dof_is_the_cauchy_tail():
    # 2 atan(1/|t|) / pi, exact at every t; stdtr loses up to 4e-9 of it
    # below |t| = 1e-6, where the tail is near 1
    t = np.geomspace(1e-12, 1e12, 481)
    want = 2.0 * np.arctan(1.0 / t) / np.pi
    assert np.all(np.abs(t_tail(t, 1) - want) <= 1e-13 * want)
    assert t_tail(np.array([0.0]), 1)[0] == 1.0


def test_activity_report_csv(tmp_path):
    x, u = _two_group_toy()
    fit = fit_glm(x, u)
    res = contrast_tstat(fit, u, np.array([1.0, -1.0]))
    out = tmp_path / "activity.csv"
    write_activity_report(str(out), fit, res, ["a"], ["g1", "g2"])
    lines = out.read_text().splitlines()
    assert lines[0] == "channel,beta_g1,beta_g2,t,p,pass"
    fields = lines[1].split(",")
    assert fields[0] == "a"
    assert fields[-1] == str(int(float(fields[-2]) < P_THRESHOLD))
