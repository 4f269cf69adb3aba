"""Tests for the linear (EDMD) ROM: fit, eigenvalues, pre-image, forecasts."""

import numpy as np
import pytest

from dmrom.rom_koopman import (
    KoopmanModel,
    fit_koopman_model,
    koopman_eigenvalues,
    koopman_fit,
    koopman_forecast,
)


def linear_trajectory(a, x0, n):
    z = np.empty((n, len(x0)))
    z[0] = x0
    for i in range(n - 1):
        z[i + 1] = a @ z[i]
    return z


def stable_matrix(seed, d, radius=1.0 / 1.1):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d))
    return a * (radius / np.max(np.abs(np.linalg.eigvals(a))))


@pytest.fixture(scope="module")
def linear_system():
    """3-D rotation-plus-decay latent dynamics observed through 12 linear channels."""
    rng = np.random.default_rng(11)
    om = 2.0 * np.pi / 30.0
    core = np.zeros((3, 3))
    core[:2, :2] = 0.99 * np.array([[np.cos(om), -np.sin(om)], [np.sin(om), np.cos(om)]])
    core[2, 2] = 0.95
    frame, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    a = frame @ core @ frame.T
    coords = linear_trajectory(a, rng.normal(size=3), 80)
    chan = rng.normal(size=(12, 3))
    return a, coords, coords @ chan.T


# ----------------------------------------------------------------------- fit


def test_fit_recovers_exact_linear_map():
    a = stable_matrix(0, 3)
    coords = linear_trajectory(a, np.random.default_rng(0).normal(size=3), 20)
    assert np.max(np.abs(koopman_fit(coords) - a)) < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1])
def test_fit_recovers_linear_maps_up_to_d5(d, seed):
    a = stable_matrix(seed, d)
    coords = linear_trajectory(a, np.random.default_rng(seed + 20).normal(size=d), 3 * d + 5)
    assert np.max(np.abs(koopman_fit(coords) - a)) < 1e-8


def test_fit_constant_trajectory_fixed_point():
    v = np.array([0.4, -1.1, 2.0])
    coords = np.tile(v, (8, 1))
    u = koopman_fit(coords)
    assert np.max(np.abs(u @ v - v)) < 1e-10


def test_fit_planar_rotation_eigenvalues():
    th = 0.7
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    coords = linear_trajectory(rot, np.array([1.0, 0.3]), 12)
    vals = koopman_eigenvalues(koopman_fit(coords))
    expected = np.array([np.exp(1j * th), np.exp(-1j * th)])
    assert np.max(np.abs(vals - expected)) < 1e-8


def test_fit_validation():
    with pytest.raises(ValueError, match="snapshots"):
        koopman_fit(np.zeros((3, 3)) + np.eye(3))
    with pytest.raises(ValueError, match="all-zero"):
        koopman_fit(np.zeros((8, 2)))
    bad = np.ones((8, 2))
    bad[3, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        koopman_fit(bad)


# --------------------------------------------------------------- eigenvalues


def test_eig_identity_all_ones():
    vals = koopman_eigenvalues(np.eye(4))
    assert np.max(np.abs(vals - 1.0)) < 1e-12


def test_eig_diagonal_matrix():
    vals = koopman_eigenvalues(np.diag([0.5, 0.9]))
    assert np.allclose(vals, [0.9, 0.5], atol=1e-14)


def test_eig_matches_characteristic_polynomial_roots():
    m = np.random.default_rng(13).normal(size=(3, 3))
    vals = koopman_eigenvalues(m)
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    minors = (
        (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
        + (m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0])
        + (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
    )
    det = (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )
    roots = np.roots([1.0, -tr, minors, -det])
    roots = roots[np.lexsort((-roots.imag, -roots.real, -np.abs(roots)))]
    assert np.max(np.abs(roots - vals)) < 1e-8


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_eig_relation_and_conventions(seed):
    m = np.random.default_rng(seed).normal(size=(4, 4))
    vals = koopman_eigenvalues(m)
    # each value makes m - w I singular, and they come by descending magnitude
    for w in vals:
        assert np.linalg.svd(m - w * np.eye(4), compute_uv=False)[-1] < 1e-8
    assert np.all(np.diff(np.abs(vals)) < 1e-12)


def test_eig_conjugate_pairs_adjacent():
    th = 0.7
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    vals = koopman_eigenvalues(rot)
    assert vals[0].imag > 0
    assert vals[1] == pytest.approx(np.conj(vals[0]), abs=1e-14)


def test_eig_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        koopman_eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# ----------------------------------------------------------------- pre-image


def test_identity_observables_reconstruct(linear_system):
    _, coords, _ = linear_system
    model = fit_koopman_model(coords, coords)
    assert model.training_residual < 1e-8


def test_constant_eigenfunction_mode_is_time_mean():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(15, 3))
    model = fit_koopman_model(np.ones((15, 1)), x)
    assert np.allclose(model.pre_image[0], x.mean(axis=0), atol=1e-12)


def test_linear_observables_reconstruct(linear_system):
    _, coords, ambient = linear_system
    model = fit_koopman_model(coords, ambient)
    rel = np.linalg.norm(coords @ model.pre_image - ambient) / np.linalg.norm(ambient)
    assert rel < 1e-10


def test_pre_image_row_mismatch():
    coords = linear_trajectory(np.array([[0.9]]), np.array([1.0]), 5)
    with pytest.raises(ValueError, match="row mismatch"):
        fit_koopman_model(coords, np.ones((4, 2)))


def test_rank_deficient_coordinates_warn():
    # a duplicated coordinate column collapses the regression rank
    coords = np.repeat(linear_trajectory(np.array([[0.9]]), np.array([1.0]), 10), 2, axis=1)
    with pytest.warns(UserWarning, match="rank-deficient"):
        fit_koopman_model(coords, coords)


def test_unstable_spectrum_warns():
    a = np.random.default_rng(2).normal(size=(2, 2))
    a = a / (0.9 * np.max(np.abs(np.linalg.eigvals(a))))
    coords = linear_trajectory(a, np.array([1.0, 0.2]), 10)
    with pytest.warns(UserWarning, match="exceeds 1"):
        fit_koopman_model(coords, coords)


# ----------------------------------------------------------------- forecasts


def test_zero_horizon_forecast(linear_system):
    _, coords, ambient = linear_system
    model = fit_koopman_model(coords, ambient)
    red, amb = koopman_forecast(model, coords[-1], 0)
    assert red.shape == (0, 3)
    assert amb.shape == (0, 12)


def test_identity_dynamics_constant_forecast():
    pre_image = np.random.default_rng(6).normal(size=(2, 5))
    model = KoopmanModel(
        u_hat=np.eye(2), pre_image=pre_image, eigenvalues=np.ones(2), training_residual=0.0
    )
    init = np.array([0.3, -0.8])
    red, amb = koopman_forecast(model, init, 4)
    assert np.allclose(red, np.tile(init, (4, 1)), atol=1e-14)
    assert np.allclose(amb, np.tile(init @ pre_image, (4, 1)), atol=1e-14)


def test_one_step_matches_direct_multiplication(linear_system):
    _, coords, ambient = linear_system
    model = fit_koopman_model(coords, ambient)
    init = coords[-1]
    red, amb = koopman_forecast(model, init, 1)
    assert np.max(np.abs(red[0] - model.u_hat @ init)) < 1e-12
    assert np.max(np.abs(amb[0] - red[0] @ model.pre_image)) < 1e-12


def test_forecast_follows_eigenvalue_power_law(linear_system):
    # the matrix predictor equals the Koopman-mode sum of a diagonalizable fit
    _, coords, ambient = linear_system
    model = fit_koopman_model(coords, ambient)
    init = coords[-1]
    _, amb = koopman_forecast(model, init, 7)
    vals, vecs = np.linalg.eig(model.u_hat)
    factors = np.linalg.solve(vecs, init.astype(complex))
    manual = ((vecs @ (vals**7 * factors)) @ model.pre_image).real
    assert np.max(np.abs(amb[6] - manual)) < 1e-8


def test_defective_one_step_matrix_is_forecast_exactly():
    # a Jordan block has no eigenbasis; its powers are [[w^s, s w^(s-1)], [0, w^s]]
    w = 0.95
    coords = linear_trajectory(np.array([[w, 1.0], [0.0, w]]), np.array([0.5, 1.0]), 40)
    chan = np.random.default_rng(3).normal(size=(2, 6))
    model = fit_koopman_model(coords, coords @ chan)
    red, amb = koopman_forecast(model, coords[-1], 60)
    s = np.arange(1, 61)[:, None]
    y1, y2 = coords[-1]
    exact = np.hstack([w**s * y1 + s * w ** (s - 1) * y2, w**s * y2])
    assert np.max(np.abs(red - exact)) < 1e-12
    assert np.max(np.abs(amb - exact @ chan)) < 1e-12


def test_forecast_divergence_reports_step():
    model = KoopmanModel(
        u_hat=np.array([[1e200]]),
        pre_image=np.array([[1.0]]),
        eigenvalues=np.array([1e200]),
        training_residual=0.0,
    )
    with pytest.raises(RuntimeError, match="step 2"):
        koopman_forecast(model, [1.0], 3)


def test_forecast_init_length(linear_system):
    _, coords, ambient = linear_system
    model = fit_koopman_model(coords, ambient)
    with pytest.raises(ValueError, match="length"):
        koopman_forecast(model, [0.1, 0.2], 3)
