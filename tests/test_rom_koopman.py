"""Tests for the linear spectral ROM: fit, eigenstructure, modes, forecasts."""

import numpy as np
import pytest

from dmrom.rom_koopman import (
    KoopmanModel,
    eigenfunction_values,
    fit_koopman_model,
    koopman_eig,
    koopman_fit,
    koopman_forecast,
    koopman_modes,
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
    vals, _ = koopman_eig(koopman_fit(coords))
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


# ------------------------------------------------------------ eigenstructure


def test_eig_identity_all_ones():
    vals, _ = koopman_eig(np.eye(4))
    assert np.max(np.abs(vals - 1.0)) < 1e-12


def test_eig_diagonal_matrix():
    vals, vecs = koopman_eig(np.diag([0.9, 0.5]))
    assert np.allclose(vals, [0.9, 0.5], atol=1e-14)
    assert np.allclose(vecs, np.eye(2), atol=1e-12)


def test_eig_matches_characteristic_polynomial_roots():
    m = np.random.default_rng(13).normal(size=(3, 3))
    vals, _ = koopman_eig(m)
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
    vals, vecs = koopman_eig(m)
    # the returned vectors advance the functionals z -> z.v by their eigenvalue
    assert np.max(np.abs(m.T @ vecs - vecs * vals[None, :])) < 1e-8
    assert np.all(np.diff(np.abs(vals)) < 1e-12)
    for j in range(4):
        v = vecs[:, j]
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        pivot = v[np.nonzero(np.abs(v) > 1e-12)[0][0]]
        assert abs(pivot.imag) < 1e-12 and pivot.real > 0


def test_eig_conjugate_pairs_adjacent():
    th = 0.7
    rot = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    vals, _ = koopman_eig(rot)
    assert vals[0].imag > 0
    assert vals[1] == pytest.approx(np.conj(vals[0]), abs=1e-14)


def test_eig_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        koopman_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# --------------------------------------------------------------------- modes


def test_identity_observables_reconstruct(linear_system):
    _, coords, _ = linear_system
    model = fit_koopman_model(coords, coords)
    assert model.training_residual < 1e-8


def test_constant_eigenfunction_mode_is_time_mean():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(15, 3))
    eig = (np.array([1.0 + 0j]), np.array([[1.0 + 0j]]))
    modes = koopman_modes(x, np.ones((15, 1)), eig)
    assert np.allclose(modes[:, 0], x.mean(axis=0), atol=1e-12)


def test_linear_observables_reconstruct(linear_system):
    _, coords, ambient = linear_system
    model = fit_koopman_model(coords, ambient)
    phi = eigenfunction_values(coords, model.eigenvectors)
    recon = (phi @ model.modes.T).real
    rel = np.linalg.norm(recon - ambient) / np.linalg.norm(ambient)
    assert rel < 1e-6


def test_modes_row_mismatch():
    eig = (np.array([1.0 + 0j]), np.array([[1.0 + 0j]]))
    with pytest.raises(ValueError, match="row mismatch"):
        koopman_modes(np.ones((4, 2)), np.ones((5, 1)), eig)


def test_rank_deficient_eigenfunctions_warn():
    # duplicated eigenvector columns collapse the regression rank
    vecs = np.array([[1.0 + 0j, 1.0 + 0j], [0.0 + 0j, 0.0 + 0j]])
    eig = (np.array([1.0 + 0j, 1.0 + 0j]), vecs)
    coords = np.random.default_rng(0).normal(size=(10, 2))
    with pytest.warns(UserWarning, match="rank-deficient"):
        koopman_modes(coords, coords, eig)


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
    modes = np.random.default_rng(6).normal(size=(5, 2)).astype(complex)
    model = KoopmanModel(
        u_hat=np.eye(2),
        eigenvalues=np.ones(2, dtype=complex),
        eigenvectors=np.eye(2, dtype=complex),
        modes=modes,
        reduced_modes=np.eye(2, dtype=complex),
        training_residual=0.0,
    )
    init = np.array([0.3, -0.8])
    red, amb = koopman_forecast(model, init, 4)
    assert np.allclose(red, np.tile(init, (4, 1)), atol=1e-14)
    expected = (modes @ init.astype(complex)).real
    assert np.allclose(amb, np.tile(expected, (4, 1)), atol=1e-14)


def test_one_step_matches_direct_multiplication(linear_system):
    _, coords, ambient = linear_system
    model = fit_koopman_model(coords, ambient)
    init = coords[-1]
    red, amb = koopman_forecast(model, init, 1)
    phi0 = init.astype(complex) @ model.eigenvectors
    assert np.max(np.abs(amb[0] - (model.modes @ (model.eigenvalues * phi0)).real)) < 1e-10
    assert np.max(np.abs(red[0] - model.u_hat @ init)) < 1e-10


def test_forecast_follows_eigenvalue_power_law(linear_system):
    _, coords, ambient = linear_system
    model = fit_koopman_model(coords, ambient)
    init = coords[-1]
    _, amb = koopman_forecast(model, init, 7)
    phi0 = init.astype(complex) @ model.eigenvectors
    manual = (model.modes @ (phi0 * model.eigenvalues**7)).real
    assert np.max(np.abs(amb[6] - manual)) < 1e-8


def test_forecast_imaginary_residue_is_small(linear_system):
    _, coords, ambient = linear_system
    model = fit_koopman_model(coords, ambient)
    phi0 = coords[-1].astype(complex) @ model.eigenvectors
    for s in (1, 5, 20):
        complex_sum = model.modes @ (phi0 * model.eigenvalues**s)
        assert np.max(np.abs(complex_sum.imag)) < 1e-8


def test_forecast_divergence_reports_step():
    model = KoopmanModel(
        u_hat=np.array([[1e200]]),
        eigenvalues=np.array([1e200 + 0j]),
        eigenvectors=np.array([[1.0 + 0j]]),
        modes=np.array([[1.0 + 0j]]),
        reduced_modes=np.array([[1.0 + 0j]]),
        training_residual=0.0,
    )
    with pytest.raises(RuntimeError, match="step 2"):
        koopman_forecast(model, [1.0], 3)


def test_forecast_init_length(linear_system):
    _, coords, ambient = linear_system
    model = fit_koopman_model(coords, ambient)
    with pytest.raises(ValueError, match="length"):
        koopman_forecast(model, [0.1, 0.2], 3)

