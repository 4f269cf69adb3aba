"""Tests for the diffusion-map kernel, operator normalization, and spectrum."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import pdist

from dmrom import dmaps
from dmrom.dmaps import (
    AffinityMatrix,
    DiffusionEmbedding,
    DiffusionOperator,
    build_embedding,
    coords_for,
    diffusion_operator,
    embed,
    gaussian_affinity,
    load_embedding,
    save_embedding,
    spectral_decompose,
    with_time,
)


def cloud(seed, n=30, m=2):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, m))


# ---------------------------------------------------------------- affinities


def test_affinity_identical_points():
    pts = np.array([[1.0, 2.0], [1.0, 2.0], [4.0, 0.0]])
    aff = gaussian_affinity(pts, sigma=0.3)
    assert aff.W[0, 1] == 1.0
    assert aff.W[1, 0] == 1.0


def test_affinity_at_two_sigma_squared_distance():
    # |x0 - x1|^2 = 1 = 2 sigma for sigma = 0.5
    pts = np.array([[0.0], [1.0]])
    aff = gaussian_affinity(pts, sigma=0.5)
    assert aff.W[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-15)
    assert aff.W[0, 1] == pytest.approx(0.367879, abs=5e-7)


def test_affinity_scale_is_not_squared():
    # exponent divides by 2*sigma, not 2*sigma^2
    pts = np.array([[0.0], [2.0]])
    aff = gaussian_affinity(pts, sigma=2.0)
    assert aff.W[0, 1] == pytest.approx(np.exp(-4.0 / 4.0), abs=1e-15)


def test_affinity_rejects_bad_scale():
    pts = cloud(0)
    with pytest.raises(ValueError, match="positive"):
        gaussian_affinity(pts, sigma=0.0)
    with pytest.raises(ValueError, match="positive"):
        gaussian_affinity(pts, sigma=-1.0)


def test_affinity_rejects_non_finite_points():
    pts = cloud(0)
    pts[3, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        gaussian_affinity(pts, sigma=1.0)


def test_affinity_matrix_validation():
    w = np.array([[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(ValueError, match="square"):
        AffinityMatrix(np.ones((2, 3)), 1.0)
    with pytest.raises(ValueError, match="positive"):
        AffinityMatrix(w, 0.0)
    with pytest.raises(ValueError, match="symmetric"):
        AffinityMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]), 1.0)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        AffinityMatrix(np.array([[1.0, -0.1], [-0.1, 1.0]]), 1.0)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        AffinityMatrix(np.array([[1.0, 1.5], [1.5, 1.0]]), 1.0)
    AffinityMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]), 1.0)   # underflowed affinity
    with pytest.raises(ValueError, match="diagonal"):
        AffinityMatrix(np.array([[0.9, 0.5], [0.5, 1.0]]), 1.0)


def test_embedding_survives_affinities_that_underflow():
    # the two pairs sit 100 apart: exp(-100^2 / 2) is 0 in double precision
    pts = np.array([[0.0], [0.1], [100.0], [100.1]])
    aff = gaussian_affinity(pts, sigma=1.0)
    assert aff.W[0, 2] == 0.0
    E = build_embedding(pts, sigma=1.0, alpha=1.0, k=2)
    assert np.all(np.isfinite(E.eigenvalues)) and np.all(np.isfinite(E.eigenvectors))
    # two disconnected pairs: the eigenvalue 1 is double
    assert E.eigenvalues[:2] == pytest.approx([1.0, 1.0], abs=1e-12)


def test_auto_sigma_matches_median_oracle():
    pts = cloud(12, n=17, m=3)
    d2 = []
    for i in range(17):
        for j in range(i + 1, 17):
            d2.append(np.sum((pts[i] - pts[j]) ** 2))
    assert dmaps.kernel(pts)[1] == pytest.approx(np.median(d2) / 2.0, rel=1e-14)


def test_auto_sigma_rejects_degenerate_sets():
    with pytest.raises(ValueError, match="at least 2"):
        dmaps.kernel(np.ones((1, 3)))
    with pytest.raises(ValueError, match="degenerate"):
        dmaps.kernel(np.ones((4, 3)))


def test_auto_scale_kernel_runs_one_pdist(monkeypatch):
    pts = cloud(4, n=15, m=3)
    want = float(np.median(pdist(pts, metric="sqeuclidean"))) / 2.0
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return pdist(*args, **kwargs)

    monkeypatch.setattr(dmaps, "pdist", counted)
    w, sigma = dmaps.kernel(pts)
    assert len(calls) == 1
    assert sigma == want
    assert np.array_equal(w, gaussian_affinity(pts, sigma=want).W)


def test_cross_kernel_matches_rows_of_the_full_kernel():
    pts = cloud(5, n=12, m=3)
    full, _ = dmaps.kernel(pts, sigma=0.7)
    cross, sigma = dmaps.kernel(pts, pts[[3, 8]], sigma=0.7)
    assert sigma == 0.7 and cross.shape == (2, 12)
    assert np.max(np.abs(cross - full[[3, 8]])) < 1e-15
    assert dmaps.kernel(pts, pts[:2])[1] == dmaps.kernel(pts)[1]   # auto scale from X


# ------------------------------------------------------------- normalization


def test_alpha_zero_is_row_normalization():
    aff = gaussian_affinity(cloud(3, n=5), sigma=0.8)
    op = diffusion_operator(aff, alpha=0.0)
    expected = aff.W / aff.W.sum(axis=1, keepdims=True)
    assert np.max(np.abs(op.P - expected)) < 1e-14


def test_two_point_closed_form():
    pts = np.array([[0.0], [1.2]])
    aff = gaussian_affinity(pts, sigma=0.9)
    w = aff.W[0, 1]
    op = diffusion_operator(aff, alpha=0.0)
    expected = np.array([[1.0, w], [w, 1.0]]) / (1.0 + w)
    assert np.max(np.abs(op.P - expected)) < 1e-15


def test_two_step_normalization_oracle():
    # straight-line reimplementation with explicit diagonal matrices
    aff = gaussian_affinity(cloud(6, n=6, m=3), sigma=0.7)
    op = diffusion_operator(aff, alpha=1.0)
    k = np.diag(aff.W.sum(axis=1) ** -1.0)
    w_tilde = k @ aff.W @ k
    k_tilde = np.diag(w_tilde.sum(axis=1) ** -1.0)
    p_oracle = k_tilde @ w_tilde
    assert np.max(np.abs(op.P - p_oracle)) < 1e-14
    assert np.max(np.abs(op.row_degrees - w_tilde.sum(axis=1))) < 1e-15


def test_alpha_out_of_range():
    aff = gaussian_affinity(cloud(1, n=4), sigma=1.0)
    for alpha in (-0.1, 1.1):
        with pytest.raises(ValueError, match="alpha"):
            diffusion_operator(aff, alpha=alpha)


def test_operator_validation():
    with pytest.raises(ValueError, match="non-negative"):
        DiffusionOperator(np.array([[1.5, -0.5], [0.5, 0.5]]), 1.0, np.ones(2))
    with pytest.raises(ValueError, match="sum to 1"):
        DiffusionOperator(np.array([[0.5, 0.4], [0.5, 0.5]]), 1.0, np.ones(2))


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(3, 12),
    m=st.integers(1, 4),
    alpha=st.sampled_from([0.0, 0.5, 1.0]),
)
def test_rows_sum_to_one(seed, n, m, alpha):
    rng = np.random.default_rng(seed)
    aff = gaussian_affinity(rng.normal(size=(n, m)), sigma=1.0)
    op = diffusion_operator(aff, alpha=alpha)
    assert np.max(np.abs(op.P.sum(axis=1) - 1.0)) < 1e-12


# ------------------------------------------------------------------ spectrum


def test_identity_operator_spectrum():
    # degenerate kernel limit: no coupling between points
    op = DiffusionOperator(P=np.eye(7), alpha=1.0, row_degrees=np.ones(7))
    E = spectral_decompose(op, k=4)
    assert np.max(np.abs(E.eigenvalues - 1.0)) < 1e-12


def test_trivial_eigenpair_and_ordering():
    aff = gaussian_affinity(cloud(7, n=30), sigma=1.0)
    op = diffusion_operator(aff, alpha=1.0)
    E = spectral_decompose(op, k=5, sigma=1.0)
    assert abs(E.eigenvalues[0] - 1.0) < 1e-10
    psi0 = E.eigenvectors[:, 0]
    assert np.std(psi0) / abs(np.mean(psi0)) < 1e-8
    assert np.all(np.diff(E.eigenvalues) <= 1e-12)
    # unit columns, largest-magnitude entry positive
    assert np.max(np.abs(np.linalg.norm(E.eigenvectors, axis=0) - 1.0)) < 1e-12
    tops = E.eigenvectors[
        np.argmax(np.abs(E.eigenvectors), axis=0), np.arange(E.k + 1)
    ]
    assert np.all(tops > 0)


def test_circle_spectrum_pairs_with_dense_oracle():
    ang = 2.0 * np.pi * np.arange(8) / 8.0
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    aff = gaussian_affinity(pts, sigma="auto")
    assert aff.sigma == pytest.approx(1.0, abs=1e-14)
    op = diffusion_operator(aff, alpha=1.0)
    E = spectral_decompose(op, k=4, sigma=aff.sigma)
    # rotational harmonics come in eigenvalue pairs
    assert abs(E.eigenvalues[1] - E.eigenvalues[2]) < 1e-10
    assert E.eigenvalues[2] - E.eigenvalues[3] > 0.3
    assert E.eigenvalues[1] == pytest.approx(0.44639116315645, abs=1e-10)
    assert E.eigenvalues[3] == pytest.approx(0.10723781418213, abs=1e-10)
    dense = np.sort(np.linalg.eigvals(op.P).real)[::-1][:5]
    assert np.max(np.abs(dense - E.eigenvalues)) < 1e-10


def test_spectral_residual_on_retained_pairs():
    aff = gaussian_affinity(cloud(9, n=25, m=3), sigma=2.0)
    op = diffusion_operator(aff, alpha=1.0)
    E = spectral_decompose(op, k=6, sigma=2.0)
    for ell in range(E.k + 1):
        psi = E.eigenvectors[:, ell]
        resid = op.P @ psi - E.eigenvalues[ell] * psi
        assert np.max(np.abs(resid)) < 1e-8


def test_conjugated_operator_is_symmetric():
    aff = gaussian_affinity(cloud(11, n=20), sigma=1.5)
    op = diffusion_operator(aff, alpha=1.0)
    d_sqrt = np.sqrt(op.row_degrees)
    s = d_sqrt[:, None] * op.P / d_sqrt[None, :]
    assert np.max(np.abs(s - s.T)) < 1e-12


def test_k_range_validation():
    aff = gaussian_affinity(cloud(2, n=6), sigma=1.0)
    op = diffusion_operator(aff, alpha=1.0)
    for k in (0, 6, 7):
        with pytest.raises(ValueError, match="k must"):
            spectral_decompose(op, k=k)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_permutation_equivariance(seed):
    rng = np.random.default_rng(seed)
    pts = np.column_stack([rng.uniform(0, 3.6, 40), rng.uniform(0, 1.0, 40)])
    perm = np.random.default_rng(seed + 100).permutation(40)
    E1 = build_embedding(pts, sigma=0.5, alpha=1.0, k=3)
    E2 = build_embedding(pts[perm], sigma=0.5, alpha=1.0, k=3)
    assert np.max(np.abs(E1.eigenvalues - E2.eigenvalues)) < 1e-10
    assert np.max(np.abs(E2.eigenvectors - E1.eigenvectors[perm])) < 1e-10


# --------------------------------------------------------------- coordinates


def test_embed_time_zero_returns_raw_eigenvectors(strip_embedding):
    coords = embed(strip_embedding, 0)
    assert np.array_equal(coords, strip_embedding.eigenvectors[:, 1:])


def test_embed_scales_by_eigenvalue_power():
    E = DiffusionEmbedding(
        eigenvalues=np.array([1.0, 0.5]),
        eigenvectors=np.array([[0.7, 0.2], [0.7, -0.1]]),
        sigma=1.0,
        alpha=1.0,
    )
    coords = embed(E, 1)
    assert coords[0, 0] == 0.1
    assert coords[1, 0] == -0.05


def test_embed_exponent_law(strip_embedding):
    lam = strip_embedding.eigenvalues[1:]
    once = embed(strip_embedding, 1)
    twice = embed(strip_embedding, 2)
    assert np.allclose(twice, once * lam[None, :], rtol=1e-13, atol=1e-16)


def test_embed_rejects_bad_time(strip_embedding):
    with pytest.raises(ValueError, match="non-negative integer"):
        embed(strip_embedding, -1)
    with pytest.raises(ValueError, match="non-negative integer"):
        embed(strip_embedding, 0.5)


def test_coords_for_selected_indices(strip_embedding):
    coords = coords_for(strip_embedding, [1, 4])
    full = embed(strip_embedding, strip_embedding.t)
    assert np.array_equal(coords, full[:, [0, 3]])
    with pytest.raises(ValueError, match="selected"):
        coords_for(strip_embedding, [0])
    with pytest.raises(ValueError, match="selected"):
        coords_for(strip_embedding, [strip_embedding.k + 1])


# -------------------------------------------------------------------- bundle


def test_bundle_roundtrip(tmp_path, strip_embedding):
    E = with_time(strip_embedding, 2)
    save_embedding(E, tmp_path)
    back = load_embedding(tmp_path)
    assert np.array_equal(back.eigenvalues, E.eigenvalues)
    assert np.array_equal(back.eigenvectors, E.eigenvectors)
    assert back.sigma == E.sigma
    assert back.alpha == E.alpha
    assert back.t == 2
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["k"] == E.k
    assert meta["sign_convention"] == "max-abs-positive"


def test_bundle_rejects_corrupt_meta(tmp_path, strip_embedding):
    save_embedding(strip_embedding, tmp_path)
    (tmp_path / "meta.json").write_text("{not json")
    with pytest.raises(ValueError, match="meta.json"):
        load_embedding(tmp_path)


def test_bundle_rejects_missing_key(tmp_path, strip_embedding):
    save_embedding(strip_embedding, tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text())
    del meta["sigma"]
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="sigma"):
        load_embedding(tmp_path)


def test_bundle_rejects_shape_mismatch(tmp_path, strip_embedding):
    save_embedding(strip_embedding, tmp_path)
    meta = json.loads((tmp_path / "meta.json").read_text())
    meta["k"] = meta["k"] + 1
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="shape"):
        load_embedding(tmp_path)
