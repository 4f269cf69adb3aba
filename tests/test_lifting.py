"""Tests for out-of-sample restriction and kernel-harmonics lifting."""

import warnings

import numpy as np
import pytest
from scipy import linalg as scipy_linalg
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

    def cross_kernel_only(X, Y=None, sigma="auto"):
        # the training degrees come from the embedding, not from the N x N kernel
        assert Y is not None, "nystrom_restrict rebuilt the training kernel"
        return kernel(X, Y, sigma)

    kernel = dmaps.kernel
    monkeypatch.setattr(dmaps, "kernel", cross_kernel_only)
    for step in ("gaussian_affinity", "diffusion_operator", "spectral_decompose"):
        monkeypatch.setattr(dmaps, step, refuse)
    got = nystrom_restrict(strip_embedding, strip_points, strip_points[:5], every)
    assert np.array_equal(got, want)


def test_restrict_rejects_tiny_eigenvalues():
    E = DiffusionEmbedding(
        eigenvalues=np.array([1.0, 1e-13]),
        eigenvectors=np.ones((3, 2)) / np.sqrt(3.0),
        sigma=1.0,
        degrees=np.ones(3),
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
        degrees=np.ones(3),
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


def reordered_basis(kernel, floor=EIG_FLOOR):
    """The kernel's eigenpairs above the floor, descending and sign-fixed, from a
    full numpy eigh made here."""
    vals, vecs = np.linalg.eigh(kernel)
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


def leading_basis(kernel, count):
    """The pairs `dmaps.eigenbasis` finds when asked for the leading ``count``, on a
    copy of the kernel, in the C order gh_fit holds them in."""
    vals, vecs = dmaps.eigenbasis(kernel.copy(), EIG_FLOOR, count)
    return vals, np.ascontiguousarray(vecs)


def width(count):
    """The test-matrix width of `dmaps.eigenbasis`'s randomized solve for ``count`` pairs."""
    return count + max(count // 2, dmaps.MIN_OVERSAMPLE)


def solves(calls):
    """The order of each solve among `eigh_calls`: every step of a randomized solve
    takes an eigh of its test-matrix width, and the steps of one solve count once."""
    return [n for i, n in enumerate(calls) if i == 0 or calls[i - 1] != n]


@pytest.fixture
def eigh_calls(monkeypatch):
    """The order of each matrix dmaps solves by eigh: N for the full solve, the
    test-matrix width `width(LEADING_PAIRS)` and up for each step of the randomized
    one."""
    calls = []
    eigh = dmaps.eigh

    def spy(a):
        calls.append(len(a))
        return eigh(a)

    monkeypatch.setattr(dmaps, "eigh", spy)
    return calls


def test_truncated_basis_keeps_the_bits_of_the_full_reorder(separated_cloud):
    # the reference orders and sign-fixes all N eigenvectors, then truncates
    y, x = separated_cloud
    kernel = dmaps.kernel(y, sigma=0.5)[0]
    vals, vecs = reordered_basis(kernel, floor=1e-3)
    model = floor_basis_fit(y, x, 0.5, 1e-3)
    assert np.array_equal(model.eigenvalues, vals)
    assert np.array_equal(model.eigenvectors, vecs)
    assert np.array_equal(model.coeffs, vecs.T @ x)
    # scipy's eigh, the oracle: the same eigenvalues to rounding
    want = scipy_linalg.eigh(kernel, eigvals_only=True)[::-1][: len(vals)]
    assert np.max(np.abs(vals - want)) < 1e-13 * vals[0]


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


def test_loo_rank_lies_inside_the_candidates_and_truncates_their_basis(noisy_ring, eigh_calls):
    # 300 points, below the crossover: the full solve makes every eigenpair
    # above the floor a candidate, and the rank is the argmin over them all
    y, x, _ = noisy_ring
    assert len(y) < dmaps.RANGE_FINDER_MIN_N
    model = gh_fit(y, x)
    assert eigh_calls == [len(y)]
    candidates = floor_basis_fit(y, x)
    assert 1 < model.d_gh < candidates.d_gh
    assert_truncates(model, *reordered_basis(dmaps.kernel(y)[0]), x)


def circle_points(n, seed=1, jitter=0.3):
    """n angles spread evenly round the unit circle, each moved by up to
    ``jitter`` of a step, and their points."""
    u = np.random.default_rng(seed).uniform(size=n)
    ang = 2.0 * np.pi * (np.arange(n) + jitter * u) / n
    return ang, np.column_stack([np.cos(ang), np.sin(ang)])


def harmonics(ang, which):
    """One channel per harmonic k of the angle: cos(k ang + k)."""
    which = np.asarray(which)
    return np.cos(np.outer(ang, which) + which)


@pytest.fixture(scope="module")
def noisy_circle():
    """1000 points round a circle, at the crossover, and a noisy channel made of 70
    harmonics: at gh_sigma 0.002 its leave-one-out curve falls until about rank
    146, past the first subset; at 0.0002 the kernel's spectrum decays too slowly
    for the randomized solve to meet its tolerance within `dmaps.MAX_POWER_STEPS`
    power steps."""
    ang, y = circle_points(dmaps.RANGE_FINDER_MIN_N)
    x = harmonics(ang, np.arange(1, 71)).sum(axis=1, keepdims=True)
    x += 0.1 * np.random.default_rng(1).normal(size=x.shape)
    return y, x


def test_a_large_fit_solves_only_a_leading_subset(noisy_circle, eigh_calls):
    y, x = noisy_circle
    model = gh_fit(y, x, gh_sigma=0.01)
    assert solves(eigh_calls) == [width(LEADING_PAIRS)]
    assert model.d_gh < LEADING_PAIRS
    kernel = dmaps.kernel(y, sigma=0.01)[0]
    assert_truncates(model, *leading_basis(kernel, LEADING_PAIRS), x)
    eigh_calls.clear()
    floor_basis_fit(y, x, 0.01)
    assert eigh_calls == [len(y)]


def test_a_small_fit_solves_in_full_with_the_bits_of_the_full_reorder(
    separated_cloud, eigh_calls
):
    y, x = separated_cloud
    assert len(y) <= LEADING_PAIRS
    model = gh_fit(y, x, gh_sigma=0.5)
    assert eigh_calls == [len(y)]
    assert_truncates(model, *reordered_basis(dmaps.kernel(y, sigma=0.5)[0]), x)


def test_the_randomized_pairs_are_the_leading_eigenpairs_and_repeat_their_bits(noisy_circle):
    y, _ = noisy_circle
    kernel = dmaps.kernel(y, sigma=0.01)[0]
    before = kernel.copy()
    vals, vecs = dmaps.eigenbasis(kernel, EIG_FLOOR, LEADING_PAIRS)
    assert np.array_equal(kernel, before)   # left intact for a larger count
    again = dmaps.eigenbasis(kernel, EIG_FLOOR, LEADING_PAIRS)
    assert np.array_equal(again[0], vals) and np.array_equal(again[1], vecs)
    full_vals, _ = reordered_basis(kernel)
    assert 0 < len(vals) <= LEADING_PAIRS
    assert np.max(np.abs(vals - full_vals[: len(vals)])) < 1e-9 * vals[0]
    assert np.max(np.abs(vecs.T @ vecs - np.eye(len(vals)))) < 1e-12
    residuals = np.linalg.norm(kernel @ vecs - vecs * vals, axis=0)
    assert np.max(residuals) <= dmaps.RESIDUAL_TOL * vals[0]


def test_a_loo_minimum_past_the_first_subset_doubles_it(noisy_circle, eigh_calls):
    y, x = noisy_circle
    model = gh_fit(y, x, gh_sigma=0.002)
    assert solves(eigh_calls) == [width(LEADING_PAIRS), width(2 * LEADING_PAIRS)]
    candidates = floor_basis_fit(y, x, 0.002)
    curve = loo_curve(candidates.eigenvectors, x, candidates.coeffs)
    assert LEADING_PAIRS < model.d_gh == int(np.argmin(curve)) + 1 < 2 * LEADING_PAIRS
    assert model.loo_rms == pytest.approx(curve.min(), rel=1e-9)
    kernel = dmaps.kernel(y, sigma=0.002)[0]
    assert_truncates(model, *leading_basis(kernel, 2 * LEADING_PAIRS), x)


def test_a_pair_past_the_residual_tolerance_sends_the_fit_to_the_full_solve(
    noisy_circle, eigh_calls
):
    y, x = noisy_circle
    model = gh_fit(y, x, gh_sigma=0.0002)
    # every step of the randomized solve, then the full one; its candidates
    # reach past the first subset, and the rank is their argmin
    assert eigh_calls == [width(LEADING_PAIRS)] * (dmaps.MAX_POWER_STEPS + 1) + [len(y)]
    kernel = dmaps.kernel(y, sigma=0.0002)[0]
    vals, vecs = reordered_basis(kernel)
    assert len(vals) > LEADING_PAIRS
    assert_truncates(model, vals, vecs, x)


def test_the_rank_is_the_argmin_of_the_first_subset_whose_minimum_lies_inside_it(eigh_calls):
    # three noise-free harmonics round a circle: the leave-one-out curve dips
    # at rank 7, rises, and falls again past the first subset to far lower
    # values; the rule keeps the inner minimum and solves no more pairs
    ang, y = circle_points(dmaps.RANGE_FINDER_MIN_N)
    x = harmonics(ang, [3, 70, 90])
    model = gh_fit(y, x, gh_sigma=0.002)
    assert model.d_gh == 7
    assert solves(eigh_calls) == [width(LEADING_PAIRS)]
    assert model.loo_rms == pytest.approx(0.5814, rel=1e-3)
    candidates = floor_basis_fit(y, x, 0.002)
    curve = loo_curve(candidates.eigenvectors, x, candidates.coeffs)
    assert curve[model.d_gh - 1] == pytest.approx(model.loo_rms, rel=1e-9)
    assert int(np.argmin(curve)) + 1 > LEADING_PAIRS
    assert curve.min() < 1e-5 * model.loo_rms


def test_below_the_crossover_the_rank_is_the_argmin_over_every_candidate(eigh_calls):
    # three harmonics on 300 points, whose leading-subset solve kept the inner
    # minimum at rank 7: the full solve's candidates reach past it, so the
    # rank is the far lower minimum beyond
    n = 300
    u = np.random.default_rng(1).uniform(size=n)
    ang = 2.0 * np.pi * np.arange(n) / n + 0.3 * u / n
    y = np.column_stack([np.cos(ang), np.sin(ang)])
    x = harmonics(ang, [3, 70, 90])
    model = gh_fit(y, x, gh_sigma=0.002)
    assert eigh_calls == [n]
    candidates = floor_basis_fit(y, x, 0.002)
    curve = loo_curve(candidates.eigenvectors, x, candidates.coeffs)
    assert model.d_gh == int(np.argmin(curve)) + 1 == 273
    assert_truncates(model, candidates.eigenvalues, candidates.eigenvectors, x)


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
