"""Loading, detrending, and the synthetic ground-truth generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dmrom.artifacts import write_matrix
from dmrom.ingest import SynthConfig, detrend_standardize, generate_synthetic, load_timeseries


# ---------------------------------------------------------------- loading

def test_load_basic_csv(tmp_path):
    p = tmp_path / "x.csv"
    p.write_text("a,b\n1,2\n3,4\n5,6\n")
    values, names = load_timeseries(str(p))
    assert names == ["a", "b"]
    assert np.array_equal(values, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])


def test_load_non_numeric_cell_names_position(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2\nfoo,4\n5,6\n")
    with pytest.raises(ValueError, match=r"row 2.*column 1"):
        load_timeseries(str(p))


def test_load_ragged_row(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValueError):
        load_timeseries(str(p))


def test_load_single_row_rejected(tmp_path):
    p = tmp_path / "short.csv"
    p.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        load_timeseries(str(p))


def test_load_without_channels_rejected(tmp_path):
    p = tmp_path / "empty_header.csv"
    p.write_text("\n\n\n")
    with pytest.raises(ValueError, match="at least 1 channel"):
        load_timeseries(str(p))


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_load_non_finite_cell_rejected(tmp_path, cell):
    p = tmp_path / "nonfinite.csv"
    p.write_text(f"a,b\n1,2\n3,{cell}\n5,6\n")
    with pytest.raises(ValueError, match="non-finite"):
        load_timeseries(str(p))


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_timeseries(str(tmp_path / "nope.csv"))


@settings(deadline=None, max_examples=30)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(2, 6), st.integers(1, 4)),
        elements=st.floats(
            allow_nan=False, allow_infinity=False, width=64, min_value=-1e15, max_value=1e15
        ),
    )
)
def test_write_load_roundtrip_bit_exact(tmp_path_factory, values):
    """Finite doubles survive a write/load round trip bit for bit."""
    p = tmp_path_factory.mktemp("rt") / "m.csv"
    names = [f"c{j}" for j in range(values.shape[1])]
    write_matrix(str(p), values, names)
    back, back_names = load_timeseries(str(p))
    assert np.array_equal(back, values)
    # sign of zero carries information for bit-exactness
    assert np.array_equal(np.signbit(back), np.signbit(values))
    assert back_names == names


# ------------------------------------------------- detrend / standardize

def test_detrend_pure_line_is_error():
    i = np.arange(12.0)
    x = np.column_stack([2.0 + 3.0 * i, np.sin(i)])
    with pytest.raises(ValueError, match=r"^constant channel\(s\) after detrending: line$"):
        detrend_standardize(x, ["line", "sine"])


def test_detrend_alternating_column():
    out = detrend_standardize(np.array([[0.0], [1.0], [0.0], [1.0]]), ["alt"])
    col = out[:, 0]
    assert abs(col.mean()) < 1e-12
    assert abs(col.std(ddof=1) - 1.0) < 1e-12


def test_detrend_statistics_match_independent_computation():
    rng = np.random.default_rng(123)
    x = rng.normal(size=(100, 5)) + rng.normal(size=(1, 5)) * 3.0
    out = detrend_standardize(x, [f"c{j}" for j in range(5)])
    for j in range(5):
        col = out[:, j]
        mean = sum(col) / len(col)
        sd = np.sqrt(sum((v - mean) ** 2 for v in col) / (len(col) - 1))
        assert abs(mean) < 1e-10
        assert abs(sd - 1.0) < 1e-10


def test_detrend_idempotent():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(60, 3)) + np.arange(60.0)[:, None] * [0.1, -0.2, 0.0]
    once = detrend_standardize(x, ["a", "b", "c"])
    twice = detrend_standardize(once, ["a", "b", "c"])
    assert np.max(np.abs(twice - once)) < 1e-8


# ------------------------------------------------------------- synthetic

def test_synth_dimension_validation():
    with pytest.raises(ValueError):
        SynthConfig(ambient_dim=1)
    with pytest.raises(ValueError):
        SynthConfig(ambient_dim=10, noise=-0.1)


def test_synth_limit_cycle_closed_curve():
    cfg = SynthConfig(ambient_dim=50, n_times=400, noise=0.0, seed=0)
    values, _, truth = generate_synthetic(cfg)
    r2 = truth.latent[:, 0] ** 2 + truth.latent[:, 1] ** 2
    assert np.max(np.abs(r2 - 1.0)) < 1e-12
    # noise-free ambient equals the deterministic embedding of the latent path
    assert np.max(np.abs(values - truth.embed(truth.latent))) == 0.0


def test_synth_seeded_determinism():
    cfg = SynthConfig(ambient_dim=12, n_times=80, noise=0.05, seed=7)
    a, names_a, ta = generate_synthetic(cfg)
    b, names_b, tb = generate_synthetic(cfg)
    assert np.array_equal(a, b) and names_a == names_b
    assert np.array_equal(ta.latent, tb.latent)
    assert np.array_equal(ta.weights, tb.weights)


def test_synth_noise_perturbs_but_preserves_latent():
    clean, _, t0 = generate_synthetic(SynthConfig(ambient_dim=8, n_times=50, seed=3))
    noisy, _, t1 = generate_synthetic(SynthConfig(ambient_dim=8, n_times=50, noise=0.1, seed=3))
    assert np.array_equal(t0.latent, t1.latent)
    assert not np.allclose(clean, noisy)


def test_detrend_single_row_fragment_rejected():
    with pytest.raises(ValueError):
        detrend_standardize(np.array([[1.0, 2.0]]), ["a", "b"])
