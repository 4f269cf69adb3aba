"""Tests for out-of-sample restriction and kernel-harmonics lifting."""

import warnings

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.spatial.distance import pdist, squareform

from conftest import floor_basis_fit
from dmrom import dmaps
from dmrom.dmaps import DiffusionEmbedding
from dmrom.ingest import SynthConfig, generate_synthetic
from dmrom.lifting import EIG_FLOOR, LEADING_PAIRS, gh_fit, gh_lift, loo_curve, nystrom_restrict


def every_index(E):
    return range(1, E.k + 1)


@pytest.fixture(scope="module")
def noisy_ring():
    """Reduced points on a noisy circle, channels smooth in the angle plus noise,
    and 50 held-out query points."""
    rng = np.random.default_rng(3)
    ang = rng.uniform(0.0, 2.0 * np.pi, 350)
    y = np.column_stack([np.cos(ang), np.sin(ang)]) + 0.2 * rng.normal(size=(350, 2))
    k = np.arange(1, 11)
    x = np.cos(np.outer(ang, k) + k) + 0.2 * rng.normal(size=(350, 10))
    return y[:300], x[:300], y[300:]


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
    )
    x = np.eye(3)
    with pytest.raises(ValueError, match="ill-posed"):
        nystrom_restrict(E, x, x[0][None], [1])


def test_restrict_checks_its_arguments_before_the_kernel_warns(strip_points, strip_embedding):
    far = np.array([[1e6, 1e6]])
    tiny = DiffusionEmbedding(
        eigenvalues=np.array([1.0, 1e-13]),
        eigenvectors=np.ones((3, 2)) / np.sqrt(3.0),
        sigma=1.0,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="selected"):
            nystrom_restrict(strip_embedding, strip_points, far, selected=[99])
        with pytest.raises(ValueError, match="ill-posed"):
            nystrom_restrict(tiny, np.eye(3), np.array([[1e6, 0.0, 0.0]]), [1])


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
        model = floor_basis_fit(y, x, sigma, 0.0)
        assert model.d_gh == len(y)
        assert np.max(np.abs(gh_lift(model, y) - x)) < 1e-6


def test_default_floor_reproduces_training_data(separated_cloud):
    y, x = separated_cloud
    model = floor_basis_fit(y, x, 0.5, 1e-8)
    assert np.max(np.abs(gh_lift(model, y) - x)) < 1e-4


def test_retained_spectrum_respects_floor(separated_cloud):
    y, x = separated_cloud
    model = floor_basis_fit(y, x, 0.5, 1e-3)
    assert model.d_gh < len(y)
    assert np.all(model.eigenvalues > 0)
    assert np.all(model.eigenvalues >= 1e-3 * model.eigenvalues[0])
    assert np.all(np.diff(model.eigenvalues) <= 0)


def reordered_basis(kernel, floor=EIG_FLOOR, count=None):
    """The kernel's eigenpairs above the floor, descending and sign-fixed, from an eigh
    made here: among the leading ``count`` by the same LAPACK call as gh_fit's, or all."""
    n = len(kernel)
    if count is None:
        vals, vecs = eigh(kernel)
    else:
        vals, vecs = eigh(kernel, subset_by_index=[n - count, n - 1], driver="evr")
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    vecs *= np.sign(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(len(vals))])[None, :]
    keep = (vals > 0) & (vals >= floor * vals[0])
    return vals[keep], np.ascontiguousarray(vecs[:, keep])


def assert_truncates(model, vals, vecs, x):
    coeffs = vecs.T @ x
    curve = loo_curve(vecs, x, coeffs)
    assert model.loo_rms == curve.min() == curve[model.d_gh - 1]
    assert np.array_equal(model.eigenvalues, vals[: model.d_gh])
    assert np.array_equal(model.eigenvectors, vecs[:, : model.d_gh])
    assert np.array_equal(model.coeffs, coeffs[: model.d_gh])


@pytest.fixture
def eigh_calls(monkeypatch):
    """The subset_by_index of each eigh call gh_fit makes (None: the full solve)."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(kwargs.get("subset_by_index"))
        return eigh(*args, **kwargs)

    monkeypatch.setattr(dmaps, "eigh", spy)
    return calls


def test_truncated_basis_keeps_the_bits_of_the_full_reorder(separated_cloud):
    # the reference orders and sign-fixes all N eigenvectors, then truncates
    y, x = separated_cloud
    vals, vecs = reordered_basis(dmaps.kernel(y, sigma=0.5)[0], floor=1e-3)
    model = floor_basis_fit(y, x, 0.5, 1e-3)
    assert np.array_equal(model.eigenvalues, vals)
    assert np.array_equal(model.eigenvectors, vecs)
    assert np.array_equal(model.coeffs, vecs.T @ x)


def test_loo_curve_equals_refits_without_each_point(noisy_ring):
    n = 60
    y, x = noisy_ring[0][:n], noisy_ring[1][:n]
    psi = floor_basis_fit(y, x).eigenvectors
    curve = loo_curve(psi, x, psi.T @ x)
    for r in range(1, psi.shape[1] + 1):
        sq = 0.0
        for i in range(n):
            rest = np.arange(n) != i
            coef = np.linalg.lstsq(psi[rest, :r], x[rest], rcond=None)[0]
            sq += np.sum((x[i] - psi[i, :r] @ coef) ** 2)
        assert curve[r - 1] == pytest.approx(np.sqrt(sq / x.size), rel=1e-9)


def test_loo_curve_is_inf_where_a_point_cannot_be_left_out():
    # the full basis of 3 points interpolates each one: its leverages are all 1
    psi = np.linalg.qr(np.random.default_rng(2).normal(size=(3, 3)))[0]
    x = np.arange(6.0).reshape(3, 2)
    curve = loo_curve(psi, x, psi.T @ x)
    assert np.all(np.isfinite(curve[:2])) and curve[2] == np.inf


def test_loo_rank_lies_inside_the_candidates_and_truncates_their_basis(noisy_ring):
    # 300 points: the rank comes from the leading-subset solve, so the
    # reference makes the same LAPACK call
    y, x, _ = noisy_ring
    model = gh_fit(y, x)
    candidates = floor_basis_fit(y, x)
    assert 1 < model.d_gh < candidates.d_gh < LEADING_PAIRS < len(y)
    vals, vecs = reordered_basis(dmaps.kernel(y)[0], count=LEADING_PAIRS)
    assert len(vals) == candidates.d_gh
    assert_truncates(model, vals, vecs, x)


def test_a_large_fit_solves_only_a_leading_subset(noisy_ring, eigh_calls):
    y, x, _ = noisy_ring
    assert len(y) >= 2 * LEADING_PAIRS
    gh_fit(y, x)
    assert eigh_calls == [[len(y) - LEADING_PAIRS, len(y) - 1]]
    floor_basis_fit(y, x)
    assert eigh_calls[1:] == [None]


def test_a_small_fit_solves_in_full_with_the_bits_of_the_full_reorder(
    separated_cloud, eigh_calls
):
    y, x = separated_cloud
    assert len(y) <= LEADING_PAIRS
    model = gh_fit(y, x, gh_sigma=0.5)
    assert eigh_calls == [None]
    assert_truncates(model, *reordered_basis(dmaps.kernel(y, sigma=0.5)[0]), x)


def test_a_loo_minimum_past_the_first_subset_doubles_it(eigh_calls):
    # a noisy channel made of 70 harmonics on a finely sampled circle: the
    # leave-one-out curve falls until about rank 141, past the first subset
    rng = np.random.default_rng(1)
    n = 300
    ang = 2.0 * np.pi * (np.arange(n) + 0.3 * rng.uniform(size=n)) / n
    y = np.column_stack([np.cos(ang), np.sin(ang)])
    harmonics = np.arange(1, 71)
    x = np.cos(np.outer(ang, harmonics) + harmonics).sum(axis=1, keepdims=True)
    x += 0.1 * rng.normal(size=(n, 1))
    model = gh_fit(y, x, gh_sigma=0.002)
    assert eigh_calls == [[n - LEADING_PAIRS, n - 1], [n - 2 * LEADING_PAIRS, n - 1]]
    candidates = floor_basis_fit(y, x, 0.002)
    curve = loo_curve(candidates.eigenvectors, x, candidates.coeffs)
    assert LEADING_PAIRS < model.d_gh == int(np.argmin(curve)) + 1 < 2 * LEADING_PAIRS
    assert model.loo_rms == pytest.approx(curve.min(), rel=1e-9)
    kernel = dmaps.kernel(y, sigma=0.002)[0]
    assert_truncates(model, *reordered_basis(kernel, count=2 * LEADING_PAIRS), x)


def test_the_rank_is_the_argmin_of_the_first_subset_whose_minimum_lies_inside_it(eigh_calls):
    # three noise-free harmonics on a finely sampled circle: the leave-one-out
    # curve dips at rank 7, rises, and falls again past the first subset to far
    # lower values; the rule keeps the inner minimum and solves no more pairs
    n = 300
    u = np.random.default_rng(1).uniform(size=n)
    ang = 2.0 * np.pi * np.arange(n) / n + 0.3 * u / n
    y = np.column_stack([np.cos(ang), np.sin(ang)])
    harmonics = np.array([3, 70, 90])
    x = np.cos(np.outer(ang, harmonics) + harmonics)
    model = gh_fit(y, x, gh_sigma=0.002)
    assert model.d_gh == 7
    assert eigh_calls == [[n - LEADING_PAIRS, n - 1]]
    assert model.loo_rms == pytest.approx(0.5911, rel=1e-3)
    candidates = floor_basis_fit(y, x, 0.002)
    curve = loo_curve(candidates.eigenvectors, x, candidates.coeffs)
    assert curve[model.d_gh - 1] == pytest.approx(model.loo_rms, rel=1e-9)
    assert int(np.argmin(curve)) + 1 > LEADING_PAIRS
    assert curve.min() < 1e-5 * model.loo_rms


def test_loo_rank_does_not_amplify_rounding(noisy_ring):
    y, x, queries = noisy_ring
    shift = 1e-13 * np.random.default_rng(4).normal(size=queries.shape)

    def amplification(model):
        moved = gh_lift(model, queries + shift) - gh_lift(model, queries)
        return np.max(np.abs(moved)) / np.max(np.abs(shift))

    assert amplification(gh_fit(y, x)) < 1e2
    # the fixed floor keeps eigenpairs whose inverse eigenvalues blow rounding up
    assert amplification(floor_basis_fit(y, x)) > 1e2


def test_auto_scale_matches_reduced_space_rule(separated_cloud):
    y, x = separated_cloud
    model = gh_fit(y, x, gh_sigma="auto")
    assert model.gh_sigma == dmaps.kernel(y)[1]


def test_constant_function_lifts_to_constant():
    ang = 2.0 * np.pi * np.arange(36) / 36.0
    ring = np.column_stack([np.cos(ang), np.sin(ang)])
    const = np.full((36, 1), 3.7)
    model = floor_basis_fit(ring, const, 1.0, 1e-8)
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
    with pytest.raises(ValueError, match="positive"):
        gh_fit(y, x, gh_sigma=0.0)


def test_a_floor_of_one_keeps_the_largest_eigenpair(separated_cloud):
    y, x = separated_cloud
    assert floor_basis_fit(y, x, 0.5, 1.0).d_gh >= 1


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
    model = floor_basis_fit(truth.latent[:320], values[:320], 0.05, 1e-8)
    pred = gh_lift(model, truth.latent[320:])
    rel = np.linalg.norm(pred - values[320:]) / np.linalg.norm(values[320:])
    assert rel < 0.05


def test_lift_is_linear_in_stored_values(separated_cloud):
    y, _ = separated_cloud
    rng = np.random.default_rng(10)
    f = rng.normal(size=(40, 3))
    g = rng.normal(size=(40, 3))
    queries = y[:8] + 0.1
    # linear at a fixed basis: the leave-one-out rank depends on the stored values
    lift_f = gh_lift(floor_basis_fit(y, f, 0.5), queries)
    lift_g = gh_lift(floor_basis_fit(y, g, 0.5), queries)
    lift_sum = gh_lift(floor_basis_fit(y, f + g, 0.5), queries)
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
