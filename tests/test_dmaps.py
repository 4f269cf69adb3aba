"""Tests for the diffusion-map kernel, operator normalization, and spectrum."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh
from scipy.sparse.linalg import eigsh
from scipy.spatial.distance import cdist, pdist, squareform

from dmrom import dmaps
from dmrom.dmaps import (
    build_embedding,
    coords_for,
    diffusion_operator,
    gaussian_affinity,
    load_embedding,
    save_embedding,
    spectral_decompose,
)
from dmrom.ingest import SynthConfig, detrend_standardize, generate_synthetic

# the spectral and small-N tests draw no hypothesis examples, so a RuntimeWarning
# fails the same way on every run
STRICT = pytest.mark.filterwarnings("error::RuntimeWarning")


def cloud(seed, n=30, m=2):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, m))


def all_coords(E):
    return coords_for(E, range(1, E.k + 1))


def normalized(pts, sigma):
    """(P, row degrees) of the points, from the two in-place steps."""
    w, _ = gaussian_affinity(pts, sigma=sigma)
    return w, diffusion_operator(w)[1]


# ---------------------------------------------------------------- affinities


def test_affinity_identical_points():
    pts = np.array([[1.0, 2.0], [1.0, 2.0], [4.0, 0.0]])
    w, _ = gaussian_affinity(pts, sigma=0.3)
    assert w[0, 1] == 1.0
    assert w[1, 0] == 1.0


def test_affinity_at_two_sigma_squared_distance():
    # |x0 - x1|^2 = 1 = 2 sigma for sigma = 0.5
    pts = np.array([[0.0], [1.0]])
    w, _ = gaussian_affinity(pts, sigma=0.5)
    assert w[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-15)
    assert w[0, 1] == pytest.approx(0.367879, abs=5e-7)


def test_affinity_scale_is_not_squared():
    # exponent divides by 2*sigma, not 2*sigma^2
    pts = np.array([[0.0], [2.0]])
    w, _ = gaussian_affinity(pts, sigma=2.0)
    assert w[0, 1] == pytest.approx(np.exp(-4.0 / 4.0), abs=1e-15)


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


def test_embedding_survives_affinities_that_underflow():
    # the two pairs sit 100 apart: exp(-100^2 / 2) is 0 in double precision
    pts = np.array([[0.0], [0.1], [100.0], [100.1]])
    w, _ = gaussian_affinity(pts, sigma=1.0)
    assert w[0, 2] == 0.0
    E = build_embedding(pts, sigma=1.0, k=2)
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


@STRICT
def test_auto_sigma_rejects_degenerate_sets():
    with pytest.raises(ValueError, match="at least 2"):
        dmaps.kernel(np.ones((1, 3)))
    with pytest.raises(ValueError, match="degenerate"):
        dmaps.kernel(np.ones((4, 3)))


def test_auto_scale_kernel_runs_one_pdist(monkeypatch):
    # repeated points tie their distances; the kernel is read off the
    # condensed buffer after the median, so a reordered buffer moves its bits
    pts = np.vstack([cloud(4, n=15, m=3), cloud(4, n=5, m=3)])
    want = float(np.median(pdist(pts, metric="sqeuclidean"))) / 2.0
    buffers = []

    def counted(*args, **kwargs):
        d2 = pdist(*args, **kwargs)
        buffers.append(d2.copy())
        return d2

    monkeypatch.setattr(dmaps, "pdist", counted)
    w, sigma = dmaps.kernel(pts)
    assert len(buffers) == 1
    assert sigma == want
    assert np.array_equal(w, gaussian_affinity(pts, sigma=want)[0])
    in_pdist_order = np.exp(-squareform(buffers[0]) / (2.0 * want))
    np.fill_diagonal(in_pdist_order, 1.0)
    assert np.array_equal(w, in_pdist_order)


@settings(deadline=None, max_examples=200)
@given(
    st.lists(
        st.one_of(
            # values across many decades, and a few that tie
            st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-300, 300)),
            st.sampled_from([0.25, 1.0, 3.0]),
        ),
        min_size=1,
        max_size=60,
    )
)
@example([2.5])
@example([4.0, 1.0])
@example([1.0, 1.0])
@example([3.0, 1e-300, 1e300, 3.0])
def test_partition_median_has_the_bits_of_np_median(values):
    d2 = np.array(values)
    before = d2.copy()
    assert dmaps._median_scale(d2, 1.0).hex() == float(np.median(d2)).hex()
    assert np.array_equal(d2, before)


def test_cross_kernel_matches_rows_of_the_full_kernel():
    pts = cloud(5, n=12, m=3)
    full, _ = dmaps.kernel(pts, sigma=0.7)
    cross, sigma = dmaps.kernel(pts, pts[[3, 8]], sigma=0.7)
    assert sigma == 0.7 and cross.shape == (2, 12)
    assert np.max(np.abs(cross - full[[3, 8]])) < 1e-15
    assert dmaps.kernel(pts, pts[:2])[1] == dmaps.kernel(pts)[1]   # auto scale from X


def test_auto_scale_takes_the_fraction_of_the_median():
    pts = cloud(6, n=11, m=2)
    med2 = float(np.median(pdist(pts, metric="sqeuclidean")))
    assert dmaps.kernel(pts, fraction=1.0 / 9.0)[1] == pytest.approx(med2 / 9.0, rel=1e-15)
    assert dmaps.kernel(pts, fraction=0.5)[1] == dmaps.kernel(pts)[1] == med2 / 2.0


def test_only_a_cross_kernel_counts_queries_out_of_support():
    pts = cloud(7, n=10, m=2)
    queries = np.vstack([pts[:3], [[1e6, 0.0], [0.0, -1e6]]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cross, _ = dmaps.kernel(pts, queries, sigma=0.5)
        dmaps.kernel(pts, sigma=0.5)
        dmaps.kernel(np.array([[0.0], [1e6]]), sigma=1.0)   # far apart, yet no query
    assert [str(w.message) for w in caught] == ["2 query point(s) out of kernel support"]
    assert np.all(cross[3:] == 0.0) and np.all(cross[:3].sum(axis=1) > 0)


def reference_kernel(x, y=None, sigma=None):
    """The out-of-place kernel expressions the in-place chain replaced."""
    d2 = pdist(x, metric="sqeuclidean")
    sigma = float(np.median(d2)) / 2.0 if sigma is None else sigma
    if y is not None:
        return np.exp(-cdist(y, x, metric="sqeuclidean") / (2.0 * sigma)), sigma
    w = np.exp(-squareform(d2) / (2.0 * sigma))
    np.fill_diagonal(w, 1.0)
    return w, sigma


@STRICT
def test_in_place_chain_keeps_the_out_of_place_bits(cycle_dataset):
    x = cycle_dataset["train"]
    y = cycle_dataset["test"]
    want_w, sigma = reference_kernel(x)
    got_w, got_sigma = dmaps.kernel(x)
    assert got_sigma == sigma and np.array_equal(got_w, want_w)
    want_cross, _ = reference_kernel(x, y, sigma)
    assert np.array_equal(dmaps.kernel(x, y, sigma)[0], want_cross)
    kinv = want_w.sum(axis=1) ** -1.0
    w_tilde = want_w * np.outer(kinv, kinv)
    k_tilde = w_tilde.sum(axis=1)
    p = w_tilde / k_tilde[:, None]
    d_sqrt = np.sqrt(k_tilde)
    s = p * (d_sqrt[:, None] / d_sqrt[None, :])
    # the solve spectral_decompose makes, on the out-of-place S
    vals, vecs = dmaps.eigenbasis(s, None, 11, dmaps.SPECTRUM_TOL)
    vecs /= d_sqrt[:, None]
    vecs /= np.sqrt(np.mean(vecs**2, axis=0))[None, :]
    vecs *= np.sign(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(11)])[None, :]
    E = build_embedding(x, sigma="auto", k=10)
    assert E.sigma == sigma
    assert np.array_equal(E.eigenvalues, vals)
    assert np.array_equal(E.eigenvectors, vecs)


# ------------------------------------------------------------- normalization


def test_two_point_closed_form():
    # both points have degree 1 + w, so the density correction cancels
    pts = np.array([[0.0], [1.2]])
    p, _ = gaussian_affinity(pts, sigma=0.9)
    w = p[0, 1]
    diffusion_operator(p)
    expected = np.array([[1.0, w], [w, 1.0]]) / (1.0 + w)
    assert np.max(np.abs(p - expected)) < 1e-15


def test_two_step_normalization_oracle():
    # straight-line reimplementation with explicit diagonal matrices
    w, _ = gaussian_affinity(cloud(6, n=6, m=3), sigma=0.7)
    k = np.diag(w.sum(axis=1) ** -1.0)
    w_tilde = k @ w @ k
    k_tilde = np.diag(w_tilde.sum(axis=1) ** -1.0)
    p_oracle = k_tilde @ w_tilde
    kernel_degrees = w.sum(axis=1)
    degrees, row_degrees = diffusion_operator(w)
    assert np.array_equal(degrees, kernel_degrees)
    assert np.max(np.abs(w - p_oracle)) < 1e-14
    assert np.max(np.abs(row_degrees - w_tilde.sum(axis=1))) < 1e-15


@settings(deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(3, 12),
    m=st.integers(1, 4),
)
def test_rows_sum_to_one(seed, n, m):
    rng = np.random.default_rng(seed)
    p, _ = normalized(rng.normal(size=(n, m)), sigma=1.0)
    assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12


# ------------------------------------------------------------------ spectrum


@STRICT
def test_identity_operator_spectrum():
    # degenerate kernel limit: no coupling between points
    vals, _ = spectral_decompose(np.eye(7), np.ones(7), k=4)
    assert np.max(np.abs(vals - 1.0)) < 1e-12


def test_trivial_eigenpair_and_ordering():
    E = build_embedding(cloud(7, n=30), sigma=1.0, k=5)
    assert abs(E.eigenvalues[0] - 1.0) < 1e-10
    assert np.max(np.abs(E.eigenvectors[:, 0] - 1.0)) < 1e-12   # psi_0 = 1
    assert np.all(np.diff(E.eigenvalues) <= 1e-12)
    # unit-RMS columns, largest-magnitude entry positive
    assert np.max(np.abs(np.sqrt(np.mean(E.eigenvectors**2, axis=0)) - 1.0)) < 1e-12
    tops = E.eigenvectors[
        np.argmax(np.abs(E.eigenvectors), axis=0), np.arange(E.k + 1)
    ]
    assert np.all(tops > 0)


@STRICT
def test_circle_spectrum_pairs_with_dense_oracle():
    ang = 2.0 * np.pi * np.arange(8) / 8.0
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    w, sigma = gaussian_affinity(pts, sigma="auto")
    assert sigma == pytest.approx(1.0, abs=1e-14)
    _, row_degrees = diffusion_operator(w)
    dense = np.sort(np.linalg.eigvals(w).real)[::-1][:5]
    vals, _ = spectral_decompose(w, row_degrees, k=4)
    # rotational harmonics come in eigenvalue pairs
    assert abs(vals[1] - vals[2]) < 1e-10
    assert vals[2] - vals[3] > 0.3
    assert vals[1] == pytest.approx(0.44639116315645, abs=1e-10)
    assert vals[3] == pytest.approx(0.10723781418213, abs=1e-10)
    assert np.max(np.abs(dense - vals)) < 1e-10


@STRICT
def test_spectral_residual_on_retained_pairs():
    p, row_degrees = normalized(cloud(9, n=25, m=3), sigma=2.0)
    vals, vecs = spectral_decompose(p.copy(), row_degrees, k=6)
    for ell in range(len(vals)):
        resid = p @ vecs[:, ell] - vals[ell] * vecs[:, ell]
        assert np.max(np.abs(resid)) < 1e-8


def test_conjugated_operator_is_symmetric():
    s, row_degrees = normalized(cloud(11, n=20), sigma=1.5)
    spectral_decompose(s, row_degrees, k=3)   # leaves the conjugate S in s
    assert np.max(np.abs(s - s.T)) < 1e-12


def test_k_range_validation():
    p, row_degrees = normalized(cloud(2, n=6), sigma=1.0)
    for k in (0, 6, 7):
        with pytest.raises(ValueError, match="k must"):
            spectral_decompose(p, row_degrees, k=k)


def dense_pairs(p, row_degrees, count):
    """Top eigenpairs of P from a full dense solve of S, unit-RMS columns, descending."""
    d_sqrt = np.sqrt(row_degrees)
    vals, vecs = eigh(p * (d_sqrt[:, None] / d_sqrt[None, :]))
    vecs = vecs[:, ::-1][:, :count] / d_sqrt[:, None]
    return vals[::-1][:count], vecs / np.sqrt(np.mean(vecs**2, axis=0))


@STRICT
@pytest.mark.parametrize("gap", [1, 2, 3])
def test_small_n_takes_the_dense_path_without_a_warning(gap):
    # up to k + 1 = n: the full solve of S, whose top k + 1 pairs are kept
    p, row_degrees = normalized(cloud(12, n=9, m=3), sigma=1.5)
    k = 9 - gap
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, vecs = spectral_decompose(p.copy(), row_degrees, k=k)
    want_vals, want_vecs = dense_pairs(p, row_degrees, k + 1)
    assert vals.shape == (k + 1,) and vecs.shape == (9, k + 1)
    assert np.max(np.abs(vals - want_vals)) < 1e-12
    assert np.max(np.abs(np.abs(np.mean(vecs * want_vecs, axis=0)) - 1.0)) < 1e-10
    assert np.max(np.abs(vecs[:, 0] - 1.0)) < 1e-12
    assert np.max(np.abs(p @ vecs - vecs * vals[None, :])) < 1e-10


@STRICT
def test_near_degenerate_pair_spans_the_dense_subspace():
    # a slightly squashed ring: its first two harmonics nearly share an eigenvalue
    ang = 2.0 * np.pi * np.arange(90) / 90.0 + 0.01 * cloud(13, n=90, m=1)[:, 0]
    pts = np.column_stack([np.cos(ang), 0.999 * np.sin(ang)])
    p, row_degrees = normalized(pts, sigma=0.05)
    vals, vecs = spectral_decompose(p.copy(), row_degrees, k=6)
    want_vals, want_vecs = dense_pairs(p, row_degrees, 7)
    assert 0 < want_vals[1] - want_vals[2] < 1e-3 * (want_vals[2] - want_vals[3])
    assert np.max(np.abs(vals - want_vals)) < 1e-12
    for cols in ([1, 2], [3, 4], [5, 6]):
        basis = vecs[:, cols]
        coef, *_ = np.linalg.lstsq(basis, want_vecs[:, cols], rcond=None)
        assert np.max(np.abs(basis @ coef - want_vecs[:, cols])) < 1e-9


@STRICT
def test_a_large_spectrum_meets_the_eigen_residual_bound_and_the_lanczos_eigenvalues(
    monkeypatch,
):
    # a noisy limit cycle at the crossover, where the randomized solve answers
    # without the full one; the bound is perfbench's spectrum check
    cfg = SynthConfig(n_times=dmaps.RANGE_FINDER_MIN_N, noise=0.1, seed=3)
    values, names, _ = generate_synthetic(cfg)
    p, row_degrees = normalized(detrend_standardize(values, names), sigma="auto")
    d_sqrt = np.sqrt(row_degrees)
    want = np.sort(eigsh(p * (d_sqrt[:, None] / d_sqrt[None, :]), k=11, which="LA")[0])[::-1]
    solved = []
    monkeypatch.setattr(dmaps, "eigh", lambda a, **kw: solved.append(len(a)) or eigh(a, **kw))
    vals, vecs = spectral_decompose(p.copy(), row_degrees, k=10)
    assert solved and max(solved) < len(p)
    assert np.max(np.abs(vecs[:, 0] - 1.0)) < 1e-12
    assert np.max(np.abs(p @ vecs - vecs * vals[None, :])) < 1e-8
    assert np.max(np.abs(vals - want)) < 1e-12


@STRICT
@pytest.mark.parametrize("n", [20, dmaps.RANGE_FINDER_MIN_N])
def test_uncoupled_points_give_the_same_bits_on_every_call(n):
    # P = I: every vector is an eigenvector, so only the solver picks the basis
    first = spectral_decompose(np.eye(n), np.ones(n), k=4)
    second = spectral_decompose(np.eye(n), np.ones(n), k=4)
    assert np.array_equal(first[0], second[0]) and np.array_equal(first[1], second[1])


@STRICT
def test_reruns_give_the_same_bits(strip_points):
    first = build_embedding(strip_points, sigma="auto", k=8)
    second = build_embedding(strip_points.copy(), sigma="auto", k=8)
    assert np.array_equal(first.eigenvalues, second.eigenvalues)
    assert np.array_equal(first.eigenvectors, second.eigenvectors)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_permutation_equivariance(seed):
    rng = np.random.default_rng(seed)
    pts = np.column_stack([rng.uniform(0, 3.6, 40), rng.uniform(0, 1.0, 40)])
    perm = np.random.default_rng(seed + 100).permutation(40)
    E1 = build_embedding(pts, sigma=0.5, k=3)
    E2 = build_embedding(pts[perm], sigma=0.5, k=3)
    assert np.max(np.abs(E1.eigenvalues - E2.eigenvalues)) < 1e-10
    assert np.max(np.abs(E2.eigenvectors - E1.eigenvectors[perm])) < 1e-10


def reordered_full_solve(s):
    """Every eigenpair of s above the relative floor 1e-8, descending and sign-fixed."""
    vals, vecs = eigh(s)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    vecs *= np.sign(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(len(vals))])[None, :]
    keep = (vals > 0) & (vals >= 1e-8 * vals[0])
    return vals[keep], vecs[:, keep]


def test_eigenbasis_with_a_count_of_n_or_more_is_the_full_solve():
    s = dmaps.kernel(cloud(5, n=40), sigma=0.5)[0]
    vals, vecs = reordered_full_solve(s)
    for count in (len(s), len(s) + 7):
        got_vals, got_vecs = dmaps.eigenbasis(s.copy(), 1e-8, count)
        assert np.array_equal(got_vals, vals)
        assert np.array_equal(got_vecs, vecs)


def test_eigenbasis_above_the_crossover_is_the_full_solve_once_the_test_matrix_fills_n(
    monkeypatch,
):
    n = dmaps.RANGE_FINDER_MIN_N
    s = dmaps.kernel(cloud(5, n=n), sigma=0.5)[0]
    vals, vecs = reordered_full_solve(s)
    solved = []
    monkeypatch.setattr(dmaps, "eigh", lambda a, **kw: solved.append(len(a)) or eigh(a, **kw))
    # the fewest pairs whose test matrix has n columns, and all n
    fewest = next(c for c in range(n) if c + max(c // 2, dmaps.MIN_OVERSAMPLE) >= n)
    for count in (fewest, n):
        got_vals, got_vecs = dmaps.eigenbasis(s.copy(), 1e-8, count)
        assert solved == [n]
        solved.clear()
        assert np.array_equal(got_vals, vals)
        assert np.array_equal(got_vecs, vecs)


# --------------------------------------------------------------- coordinates


def test_embed_time_zero_returns_raw_eigenvectors(strip_embedding):
    coords = all_coords(strip_embedding)
    assert np.array_equal(coords, strip_embedding.eigenvectors[:, 1:])
    assert not np.shares_memory(coords, strip_embedding.eigenvectors)


def test_coords_for_selected_indices(strip_embedding):
    coords = coords_for(strip_embedding, [1, 4])
    full = all_coords(strip_embedding)
    assert np.array_equal(coords, full[:, [0, 3]])
    with pytest.raises(ValueError, match="selected"):
        coords_for(strip_embedding, [0])
    with pytest.raises(ValueError, match="selected"):
        coords_for(strip_embedding, [strip_embedding.k + 1])


# -------------------------------------------------------------------- bundle


def test_bundle_roundtrip(tmp_path, strip_points, strip_embedding):
    E = build_embedding(strip_points, sigma=strip_embedding.sigma, k=6)
    assert np.array_equal(E.eigenvectors, strip_embedding.eigenvectors)
    save_embedding(E, tmp_path, "abc")
    back = load_embedding(tmp_path, "abc")
    assert np.array_equal(back.eigenvalues, E.eigenvalues)
    assert np.array_equal(back.eigenvectors, E.eigenvectors)
    # the kernel's row sums, as the Nystrom extension used to rebuild them
    want = dmaps.kernel(strip_points, sigma=back.sigma)[0].sum(axis=1)
    assert np.array_equal(E.degrees, want) and np.array_equal(back.degrees, want)
    assert back.sigma == E.sigma
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["k"] == E.k
    assert meta["sign_convention"] == "max-abs-positive"
    # format keys: perfbench's spectrum check reads both
    assert meta["alpha"] == 1.0 and meta["t"] == 0


def test_bundle_load_checks_made_from(tmp_path, strip_embedding):
    save_embedding(strip_embedding, tmp_path, "abc")
    assert json.loads((tmp_path / "meta.json").read_text())["made_from"] == "abc"
    with pytest.raises(ValueError, match=f"^{tmp_path}: .*rerun embed$"):
        load_embedding(tmp_path, "abd")


def test_bundle_refuses_unit_norm_columns(tmp_path, strip_embedding):
    vecs = strip_embedding.eigenvectors
    save_embedding(replace(strip_embedding, eigenvectors=vecs / np.sqrt(len(vecs))), tmp_path, "abc")
    with pytest.raises(ValueError, match=f"^{tmp_path}: psi_0 .*rerun embed$"):
        load_embedding(tmp_path, "abc")


def test_bundle_without_degrees_is_refused(tmp_path, strip_embedding):
    save_embedding(strip_embedding, tmp_path, "abc")
    (tmp_path / "degrees.csv").unlink()
    with pytest.raises(ValueError, match=f"^{tmp_path}: no degrees.csv; rerun embed$"):
        load_embedding(tmp_path, "abc")


def test_bundle_rejects_corrupt_meta(tmp_path, strip_embedding):
    save_embedding(strip_embedding, tmp_path, "abc")
    (tmp_path / "meta.json").write_text("{not json")
    with pytest.raises(ValueError, match="meta.json"):
        load_embedding(tmp_path, "abc")


def test_bundle_rejects_missing_key(tmp_path, strip_embedding):
    save_embedding(strip_embedding, tmp_path, "abc")
    meta = json.loads((tmp_path / "meta.json").read_text())
    del meta["sigma"]
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="sigma"):
        load_embedding(tmp_path, "abc")


def test_bundle_rejects_shape_mismatch(tmp_path, strip_embedding):
    save_embedding(strip_embedding, tmp_path, "abc")
    meta = json.loads((tmp_path / "meta.json").read_text())
    meta["k"] = meta["k"] + 1
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="shape"):
        load_embedding(tmp_path, "abc")
