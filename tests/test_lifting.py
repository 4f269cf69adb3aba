"""Tests for out-of-sample restriction and kernel-harmonics lifting."""

import re
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.spatial.distance import pdist, squareform

from dmrom import dmaps
from dmrom.dmaps import DiffusionEmbedding
from dmrom.ingest import SynthConfig, generate_synthetic
from dmrom.lifting import gh_fit, gh_lift, nystrom_restrict


def every_index(E):
    return range(1, E.k + 1)


@pytest.fixture(scope="module")
def separated_cloud():
    rng = np.random.default_rng(7)
    y = rng.normal(size=(40, 2)) * 2.0
    x = rng.normal(size=(40, 5))
    return y, x


# --------------------------------------------------------------- restriction


def test_restrict_reproduces_training_embedding(strip_points, strip_embedding):
    coords = dmaps.coords_for(strip_embedding, range(1, strip_embedding.k + 1))
    restricted = nystrom_restrict(
        strip_embedding, strip_points, strip_points, every_index(strip_embedding)
    )
    assert np.max(np.abs(restricted - coords)) < 1e-6


def test_restrict_far_point_warns_and_returns_zero(strip_points, strip_embedding):
    far = np.array([[1e6, 1e6]])
    with pytest.warns(UserWarning, match="out of kernel support"):
        coords = nystrom_restrict(strip_embedding, strip_points, far, every_index(strip_embedding))
    assert np.all(coords == 0.0)


def test_restrict_midpoints_stay_in_local_hull(strip_points, strip_embedding):
    coords = dmaps.coords_for(strip_embedding, [1, 4])
    dists = squareform(pdist(strip_points))
    np.fill_diagonal(dists, np.inf)
    upper = np.triu(dists < 0.04)
    ii, jj = np.nonzero(upper)
    assert len(ii) > 50
    for i, j in zip(ii, jj):
        mid = 0.5 * (strip_points[i] + strip_points[j])
        c = nystrom_restrict(strip_embedding, strip_points, mid[None], selected=[1, 4])[0]
        lo = np.minimum(coords[i], coords[j])
        hi = np.maximum(coords[i], coords[j])
        slack = 0.1 * (hi - lo)
        assert np.all(c >= lo - slack) and np.all(c <= hi + slack)


def test_restrict_honors_diffusion_time(strip_points, strip_embedding):
    E1 = replace(strip_embedding, t=1)
    got = nystrom_restrict(E1, strip_points, strip_points[17][None], selected=[1, 4])[0]
    want = dmaps.coords_for(E1, [1, 4])[17]
    assert np.max(np.abs(got - want)) < 1e-12


def test_restrict_builds_no_training_affinity(strip_points, strip_embedding, monkeypatch):
    every = every_index(strip_embedding)
    want = nystrom_restrict(strip_embedding, strip_points, strip_points[:5], every)

    def refuse(*args, **kwargs):
        raise AssertionError("nystrom_restrict ran a diffusion-map step")

    for step in ("gaussian_affinity", "diffusion_operator", "spectral_decompose"):
        monkeypatch.setattr(dmaps, step, refuse)
    got = nystrom_restrict(strip_embedding, strip_points, strip_points[:5], every)
    assert np.array_equal(got, want)


def test_restrict_rejects_tiny_eigenvalues():
    E = DiffusionEmbedding(
        eigenvalues=np.array([1.0, 1e-13]),
        eigenvectors=np.ones((3, 2)) / np.sqrt(3.0),
        sigma=1.0,
        alpha=1.0,
    )
    x = np.eye(3)
    with pytest.raises(ValueError, match="ill-posed"):
        nystrom_restrict(E, x, x[0][None], [1])


def test_restrict_validation(strip_points, strip_embedding):
    every = every_index(strip_embedding)
    with pytest.raises(ValueError, match="2-D"):
        nystrom_restrict(strip_embedding, strip_points, strip_points[0], every)
    with pytest.raises(ValueError, match="dimension"):
        nystrom_restrict(strip_embedding, strip_points, np.zeros((1, 3)), every)
    with pytest.raises(ValueError, match="non-finite"):
        nystrom_restrict(strip_embedding, strip_points, np.array([[np.nan, 0.0]]), every)
    with pytest.raises(ValueError, match="selected"):
        nystrom_restrict(strip_embedding, strip_points, strip_points[0][None], selected=[9])


# ----------------------------------------------------------------------- fit


def test_full_basis_interpolates_training_data(separated_cloud):
    y, x = separated_cloud
    for sigma in (1.0, 0.5, 0.1):
        model = gh_fit(y, x, gh_sigma=sigma, eig_floor=0.0)
        assert model.d_gh == len(y)
        assert np.max(np.abs(gh_lift(model, y) - x)) < 1e-6


def test_default_floor_reproduces_training_data(separated_cloud):
    y, x = separated_cloud
    model = gh_fit(y, x, gh_sigma=0.5, eig_floor=1e-8)
    assert np.max(np.abs(gh_lift(model, y) - x)) < 1e-4


def test_retained_spectrum_respects_floor(separated_cloud):
    y, x = separated_cloud
    model = gh_fit(y, x, gh_sigma=0.5, eig_floor=1e-3)
    assert model.d_gh < len(y)
    assert np.all(model.eigenvalues > 0)
    assert np.all(model.eigenvalues >= 1e-3 * model.eigenvalues[0])
    assert np.all(np.diff(model.eigenvalues) <= 0)


def test_truncated_basis_keeps_the_bits_of_the_full_reorder(separated_cloud):
    # the reference orders and sign-fixes all N eigenvectors, then truncates
    y, x = separated_cloud
    kernel, _ = dmaps.kernel(y, sigma=0.5)
    vals, vecs = eigh(kernel)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    vecs *= np.sign(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(len(y))])[None, :]
    keep = (vals > 0) & (vals >= 1e-3 * vals[0])
    model = gh_fit(y, x, gh_sigma=0.5, eig_floor=1e-3)
    assert np.array_equal(model.eigenvalues, vals[keep])
    assert np.array_equal(model.eigenvectors, vecs[:, keep])
    assert np.array_equal(model.coeffs, np.ascontiguousarray(vecs[:, keep]).T @ x)


def test_auto_scale_matches_reduced_space_rule(separated_cloud):
    y, x = separated_cloud
    model = gh_fit(y, x, gh_sigma="auto")
    assert model.gh_sigma == dmaps.kernel(y)[1]


def test_constant_function_lifts_to_constant():
    ang = 2.0 * np.pi * np.arange(36) / 36.0
    ring = np.column_stack([np.cos(ang), np.sin(ang)])
    const = np.full((36, 1), 3.7)
    model = gh_fit(ring, const, gh_sigma=1.0, eig_floor=1e-8)
    # in-support queries: the same circle, sampled between training points
    qang = 2.0 * np.pi * (np.arange(36) + 0.5) / 36.0
    queries = np.column_stack([np.cos(qang), np.sin(qang)])
    assert np.max(np.abs(gh_lift(model, queries) - 3.7)) < 1e-6


def test_fit_validation(separated_cloud):
    y, x = separated_cloud
    with pytest.raises(ValueError, match="row mismatch"):
        gh_fit(y, x[:-1])
    with pytest.raises(ValueError, match="at least 2"):
        gh_fit(y[:1], x[:1])
    with pytest.raises(ValueError, match="eig_floor"):
        gh_fit(y, x, eig_floor=-1.0)
    with pytest.raises(ValueError, match="positive"):
        gh_fit(y, x, gh_sigma=0.0)
    with pytest.raises(ValueError, match=re.escape("eig_floor must be in [0, 1], got 2.0")):
        gh_fit(y, x, gh_sigma=0.5, eig_floor=2.0)
    # a floor of 1 still keeps the largest eigenpair
    assert gh_fit(y, x, gh_sigma=0.5, eig_floor=1.0).d_gh >= 1


# ---------------------------------------------------------------------- lift


def test_lift_empty_batch(separated_cloud):
    y, x = separated_cloud
    model = gh_fit(y, x, gh_sigma=0.5)
    out = gh_lift(model, np.zeros((0, 2)))
    assert out.shape == (0, 5)


def test_lift_out_of_support_warns(separated_cloud):
    y, x = separated_cloud
    model = gh_fit(y, x, gh_sigma=0.5)
    with pytest.warns(UserWarning, match="out of kernel support"):
        out = gh_lift(model, np.array([[1e6, 1e6]]))
    assert np.max(np.abs(out)) < 1e-6


def test_lift_validation(separated_cloud):
    y, x = separated_cloud
    model = gh_fit(y, x, gh_sigma=0.5)
    with pytest.raises(ValueError, match="2-D"):
        gh_lift(model, y[0])
    with pytest.raises(ValueError, match="dimension"):
        gh_lift(model, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        gh_lift(model, np.array([[np.inf, 0.0]]))


def test_lift_heldout_synthetic_latent():
    values, _, truth = generate_synthetic(
        SynthConfig(q=2, ambient_dim=50, n_times=400, noise=0.0, seed=0)
    )
    model = gh_fit(truth.latent[:320], values[:320], gh_sigma=0.05, eig_floor=1e-8)
    pred = gh_lift(model, truth.latent[320:])
    rel = np.linalg.norm(pred - values[320:]) / np.linalg.norm(values[320:])
    assert rel < 0.05


def test_lift_is_linear_in_stored_values(separated_cloud):
    y, _ = separated_cloud
    rng = np.random.default_rng(10)
    f = rng.normal(size=(40, 3))
    g = rng.normal(size=(40, 3))
    queries = y[:8] + 0.1
    lift_f = gh_lift(gh_fit(y, f, gh_sigma=0.5), queries)
    lift_g = gh_lift(gh_fit(y, g, gh_sigma=0.5), queries)
    lift_sum = gh_lift(gh_fit(y, f + g, gh_sigma=0.5), queries)
    assert np.max(np.abs(lift_f + lift_g - lift_sum)) < 1e-10


def test_lift_locality():
    # two clusters far apart: edits on one side never reach the other
    rng = np.random.default_rng(7)
    y = np.vstack([rng.normal(size=(40, 2)), rng.normal(size=(5, 2)) + 20.0])
    x = rng.normal(size=(45, 3))
    query = y[0][None] + 0.05
    weight = np.exp(-np.sum((query - y[44]) ** 2) / (2.0 * 0.5))
    assert weight < 1e-12
    before = gh_lift(gh_fit(y, x, gh_sigma=0.5), query)
    x2 = x.copy()
    x2[44, 1] += 1.0
    after = gh_lift(gh_fit(y, x2, gh_sigma=0.5), query)
    assert np.max(np.abs(after - before)) < 1e-10
