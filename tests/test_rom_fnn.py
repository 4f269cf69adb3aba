"""Tests for the feedforward one-step models: forward pass, gradients, CV, forecast."""

import csv
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from conftest import fd_gradient, fork_spy, gradient_rel_error
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from dmrom import rom_fnn, workers

from dmrom.ingest import SynthConfig, generate_synthetic
from dmrom.rom_fnn import (
    FnnModel,
    TrainConfig,
    best_grid_cell,
    cv_partitions,
    fnn_forecast,
    fnn_forward,
    fnn_gradient,
    fnn_loss,
    fnn_train,
    save_fnn_models,
    _train_stack,
    write_cv_report,
)


def random_model(seed, d=2, p=1, hidden=3):
    rng = np.random.default_rng(seed)
    return FnnModel(
        u=rng.normal(size=(hidden, d + p + 1)),
        w_out=rng.normal(size=hidden),
        b_out=float(rng.normal()),
        target_index=1,
    )


def no_stim(n):
    """The (n, 0) stimulus design of a run without one."""
    return np.zeros((n, 0))


# -------------------------------------------------------------- forward pass


def test_zero_network_outputs_bias():
    model = FnnModel(u=np.zeros((3, 3)), w_out=np.zeros(3), b_out=0.7, target_index=1)
    assert fnn_forward(model, [0.3, -0.1]) == 0.7


def test_single_unit_at_logistic_midpoint():
    model = FnnModel(u=np.zeros((1, 3)), w_out=np.array([2.0]), b_out=0.0, target_index=1)
    # S(0) = 0.5, so the output is 2 * 0.5
    assert fnn_forward(model, [5.0, -3.0]) == 1.0


def test_forward_matches_hand_rolled_oracle():
    model = random_model(4)
    psi = np.array([0.3, -0.8])
    stim = np.array([1.5])
    z = [0.3, -0.8, 1.5]
    out = model.b_out
    for k in range(3):
        a = model.u[k, 3]   # the bias column
        for i in range(3):
            a += z[i] * model.u[k, i]
        out += model.w_out[k] / (1.0 + math.exp(-a))
    assert fnn_forward(model, psi, stim) == pytest.approx(out, abs=1e-12)


def test_forward_rejects_wrong_width():
    model = random_model(4)
    with pytest.raises(ValueError, match="length"):
        fnn_forward(model, [0.3, -0.8])


def test_model_validation():
    with pytest.raises(ValueError, match="at least one"):
        FnnModel(np.zeros((0, 3)), np.zeros(0), 0.0, 1)
    with pytest.raises(ValueError, match=r"shapes: u \(3, 3\), w_out \(2,\)"):
        FnnModel(np.zeros((3, 3)), np.zeros(2), 0.0, 1)
    with pytest.raises(ValueError, match=r"shapes: u \(3, 1\)"):
        FnnModel(np.zeros((3, 1)), np.zeros(3), 0.0, 1)   # no bias column
    with pytest.raises(ValueError, match="non-finite values in u"):
        FnnModel(np.full((3, 3), np.inf), np.zeros(3), 0.0, 1)
    with pytest.raises(ValueError, match="target_index"):
        FnnModel(np.zeros((3, 3)), np.zeros(3), 0.0, 0)
    model = FnnModel(np.asfortranarray(np.ones((4, 3))), np.zeros(4), 0.0, 1)
    assert (model.hidden_size, model.input_dim) == (4, 2)
    assert model.u.flags.c_contiguous


def test_sigmoid_is_within_three_ulp_of_expit_and_silent_on_overflow():
    specials = [0.0, 30.0, -30.0, 709.0, -709.0, 745.0, -745.0, np.inf, -np.inf]
    x = np.concatenate([np.linspace(-745.0, 745.0, 200_001), specials])
    arg = x.copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # exp(-x) overflows below about -709.78
        got = rom_fnn._sigmoid(arg)
    assert got is arg
    want = expit(x)
    assert np.all((got >= 0) & (got <= 1))
    # both are non-negative, so their bit patterns order like their values;
    # numpy's SIMD exp is up to 1 ULP off libm's, which the rounding of 1 + exp(-x)
    # can stretch to 3 ULP (at x = -36.85515 with AVX-512, the one such point here)
    ulps = np.abs(got.view(np.int64) - want.view(np.int64))
    assert ulps.max() <= 3
    assert np.mean(ulps > 2) < 1e-4
    assert got[-2:].tolist() == [1.0, 0.0] and got[-9] == 0.5


def test_rom_fnn_import_leaves_scipy_unloaded():
    code = "import sys, dmrom.rom_fnn; print(sorted(m for m in sys.modules if 'scipy' in m))"
    src = str(pathlib.Path(rom_fnn.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


# ----------------------------------------------------------------- gradients


def zero_residual_batch(seed=0):
    # w_out = 0 makes the output equal b_out regardless of the hidden layer
    rng = np.random.default_rng(seed)
    model = FnnModel(
        u=rng.normal(size=(3, 3)),
        w_out=np.zeros(3),
        b_out=0.4,
        target_index=1,
    )
    coords = rng.normal(size=(6, 2))
    targets = np.full(6, 0.4)
    return model, coords, targets


def test_zero_residual_no_decay_zero_gradients():
    model, coords, targets = zero_residual_batch()
    g = fnn_gradient(model, coords, no_stim(6), targets, decay=0.0)
    assert np.max(np.abs(g["u"])) == 0.0
    assert np.max(np.abs(g["w_out"])) == 0.0
    assert g["b_out"] == 0.0


def test_zero_residual_decay_gradient_is_decay_term():
    model, coords, targets = zero_residual_batch()
    lam = 0.05
    g = fnn_gradient(model, coords, no_stim(6), targets, decay=lam)
    assert np.allclose(g["u"], 2.0 * lam * model.u, atol=1e-15)
    assert np.max(np.abs(g["w_out"])) == 0.0
    assert g["b_out"] == pytest.approx(2.0 * lam * 0.4, abs=1e-15)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradient_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    model = random_model(seed + 50)
    coords = rng.normal(size=(5, 2))
    stim = rng.normal(size=(5, 1))
    targets = rng.normal(size=5)
    decay = float(rng.uniform(0, 0.1))
    analytic = fnn_gradient(model, coords, stim, targets, decay)
    reference = fd_gradient(model, coords, stim, targets, decay)
    assert gradient_rel_error(analytic, reference) < 1e-5


def test_gradient_rejects_empty_batch():
    model = random_model(1, d=2, p=0)
    with pytest.raises(ValueError, match="empty"):
        fnn_gradient(model, np.zeros((0, 2)), no_stim(0), np.zeros(0))


# ------------------------------------------------------------------ training


@pytest.fixture(scope="module")
def zero_target_fit():
    rng = np.random.default_rng(3)
    coords = np.column_stack([rng.uniform(-0.5, 0.5, 40), np.zeros(40)])
    cfg = TrainConfig(
        hidden_sizes=(2, 4),
        decay_values=(1e-4, 1e-2),
        folds=5,
        repeats=2,
        seed=0,
    )
    ((model, records),) = fnn_train(coords, no_stim(len(coords)), [2], cfg)
    return coords, cfg, model, records


def test_zero_target_predicts_near_zero(zero_target_fit):
    coords, _, model, _ = zero_target_fit
    preds = [fnn_forward(model, coords[i]) for i in range(len(coords) - 1)]
    assert max(abs(p) for p in preds) < 1e-3


def test_linear_latent_dynamics_cv_mse(monkeypatch):
    monkeypatch.setattr(rom_fnn, "LEARNING_RATE", 0.5)
    *_, truth = generate_synthetic(
        SynthConfig(ambient_dim=6, n_times=120, noise=0.0, seed=5, dynamics="linear_stable")
    )
    lat = truth.latent[:100]
    lat = (lat - lat.mean(axis=0)) / lat.std(axis=0)
    cfg = TrainConfig(
        hidden_sizes=(4, 8),
        decay_values=(1e-8, 1e-6),
        folds=5,
        repeats=2,
        seed=0,
    )
    ((_, records),) = fnn_train(lat, no_stim(len(lat)), [1], cfg)
    _, _, best_mse = best_grid_cell(records)
    assert best_mse < 1e-3


def test_training_is_deterministic(zero_target_fit):
    coords, cfg, model, records = zero_target_fit
    ((again, records2),) = fnn_train(coords, no_stim(len(coords)), [2], cfg)
    assert np.array_equal(again.u, model.u)
    assert np.array_equal(again.w_out, model.w_out)
    assert again.b_out == model.b_out
    assert records2 == records


def assert_same_model(a, b):
    assert a.target_index == b.target_index
    for name in ("u", "w_out"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.b_out == b.b_out


def assert_same_records(a, b):
    assert [{**r, "mse": None} for r in a] == [{**r, "mse": None} for r in b]
    assert np.array_equal([r["mse"] for r in a], [r["mse"] for r in b], equal_nan=True)


def assert_targets_train_as_alone(coords, stim, cfg):
    d = coords.shape[1]
    together = fnn_train(coords, stim, range(1, d + 1), cfg)
    assert len(together) == d
    for j, (model, records) in enumerate(together, start=1):
        ((alone, alone_records),) = fnn_train(coords, stim, [j], cfg)
        assert_same_model(model, alone)
        assert_same_records(records, alone_records)
    return together


def stack_spy(monkeypatch):
    """Record the (hidden size, fit count) of every stack that trains, on one
    CPU: every stack then trains in this process, where the spy sees it."""
    stacks = []
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0})

    def spy(z, y, hidden, decays, rngs, epochs):
        stacks.append((hidden, len(z)))
        return _train_stack(z, y, hidden, decays, rngs, epochs)

    monkeypatch.setattr(rom_fnn, "_train_stack", spy)
    return stacks


SMALL_GRID = dict(
    hidden_sizes=(1, 3), decay_values=(1e-6, 1e-2), folds=3, repeats=2,
)


@settings(deadline=None, max_examples=15)
@given(
    n=st.integers(12, 70),
    d=st.integers(1, 4),
    p=st.integers(0, 2),
    column_major=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_all_targets_train_as_their_one_target_calls(n, d, p, column_major, seed):
    rng = np.random.default_rng(seed)
    coords = rng.normal(size=(n, d))
    if column_major:
        coords = np.asfortranarray(coords)
    stim = rng.integers(0, 2, size=(n, p)).astype(float)
    cfg = TrainConfig(**SMALL_GRID, seed=seed % 7)
    # hypothesis runs every example in one test call, so the constant is set
    # per example, not by the function-scoped monkeypatch fixture
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rom_fnn, "EPOCHS", 30)
        assert_targets_train_as_alone(coords, stim, cfg)


def mixed_winner_coords():
    # two smooth coordinates won by 3 hidden units, one noise column won by 1
    t = np.arange(60)
    noise = np.random.default_rng(1).normal(size=60)
    return np.column_stack([np.sin(0.3 * t), np.tanh(3 * np.cos(0.3 * t)), noise])


def test_final_retrains_of_different_hidden_sizes_train_as_alone(monkeypatch):
    coords = mixed_winner_coords()
    cfg = TrainConfig(**SMALL_GRID)
    monkeypatch.setattr(rom_fnn, "EPOCHS", 40)
    stacks = stack_spy(monkeypatch)
    together = assert_targets_train_as_alone(coords, no_stim(len(coords)), cfg)
    assert [best_grid_cell(r)[0] for _, r in together] == [3, 3, 1]
    # the one pass over all targets ends with its final retrains, one stack per hidden size
    cv_stacks = 2 * 2   # two hidden sizes x two training-row counts (39 and 40)
    assert sorted(stacks[cv_stacks : cv_stacks + 2]) == [(1, 1), (3, 2)]


def test_byte_budget_splits_stacks_and_changes_no_bit(monkeypatch):
    coords = mixed_winner_coords()
    cfg = TrainConfig(**SMALL_GRID)
    monkeypatch.setattr(rom_fnn, "EPOCHS", 40)
    stacks = stack_spy(monkeypatch)
    whole = fnn_train(coords, no_stim(len(coords)), [1, 2, 3], cfg)
    # 59 pairs in 3 folds train on 39, 39 and 40 rows: 3 targets x 2 decays x
    # 2 repeats x 2 folds share each hidden size and 39 rows
    assert max(b for _, b in stacks) == 24
    stacks.clear()
    # room for four float32 CV fits of 39 or 40 rows x 3 hidden units, or
    # twelve of 39 or 40 x 1
    monkeypatch.setattr(rom_fnn, "STACK_BYTES", 8 * 40 * 3 * 2)
    split = fnn_train(coords, no_stim(len(coords)), [1, 2, 3], cfg)
    assert max(b for h, b in stacks if h == 3) == 4
    assert max(b for h, b in stacks if h == 1) == 12
    for (m_whole, r_whole), (m_split, r_split) in zip(whole, split):
        assert_same_model(m_whole, m_split)
        assert_same_records(r_whole, r_split)


def test_stack_cap_counts_the_itemsize_and_never_mixes_dtypes(monkeypatch):
    # one call over a float64 and a float32 group of the same shape: the
    # float32 group splits at twice the fits, and each fit keeps its bits
    seen = []

    def spy(z, y, hidden, decays, rngs, epochs):
        seen.append((z.dtype, y.dtype, len(z)))
        return _train_stack(z, y, hidden, decays, rngs, epochs)

    rng = np.random.default_rng(0)
    data = [(rng.normal(size=(30, 2)), rng.normal(size=30)) for _ in range(12)]
    groups = {
        dtype: [(2, 1e-4, (0, k), z.astype(dtype), y.astype(dtype)) for k, (z, y) in enumerate(data)]
        for dtype in (np.float64, np.float32)
    }
    apart = {dtype: rom_fnn._train_fits(fits, 20) for dtype, fits in groups.items()}
    monkeypatch.setattr(rom_fnn, "_train_stack", spy)
    # one CPU: every stack trains in this process, where the spy sees it
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(rom_fnn, "STACK_BYTES", 8 * 30 * 2 * 3)
    together = rom_fnn._train_fits(groups[np.float64] + groups[np.float32], 20)
    assert sorted((str(zd), str(yd), b) for zd, yd, b in seen) == (
        [("float32", "float32", 6)] * 2 + [("float64", "float64", 3)] * 4
    )
    for got, want in zip(together, apart[np.float64] + apart[np.float32], strict=True):
        assert all(p.dtype == np.float64 for p in got)
        assert_same_fit(got, want)
    # float32 training moved the bits, so the comparison above tells the groups apart
    assert not np.array_equal(apart[np.float32][0][0], apart[np.float64][0][0])


def test_float32_cv_records_keep_the_float64_winners(monkeypatch):
    # CV only ranks the grid cells: every float32 record lies closer to its
    # float64 recomputation than the float64 winner is to the runner-up
    coords = mixed_winner_coords()
    cfg = TrainConfig(**SMALL_GRID)
    monkeypatch.setattr(rom_fnn, "EPOCHS", 200)
    cv32 = fnn_train(coords, no_stim(len(coords)), [1, 2, 3], cfg)
    monkeypatch.setattr(rom_fnn, "CV_DTYPE", np.float64)
    cv64 = fnn_train(coords, no_stim(len(coords)), [1, 2, 3], cfg)
    for (m32, r32), (m64, r64) in zip(cv32, cv64, strict=True):
        cells = {}
        for r in r64:
            cells.setdefault((r["hidden"], r["decay"]), []).append(r["mse"])
        best, runner_up = sorted(np.mean(mses) for mses in cells.values())[:2]
        assert best_grid_cell(r32)[:2] == best_grid_cell(r64)[:2]
        assert [a["mse"] for a in r32] != [b["mse"] for b in r64]
        for a, b in zip(r32, r64, strict=True):
            assert abs(a["mse"] - b["mse"]) < runner_up - best
        # the same winner gives the same float64 final retrain
        assert_same_model(m32, m64)


def train_on_cpus(monkeypatch, cpus, coords, cfg):
    """fnn_train as on a machine whose affinity mask is `cpus`; also the workers it forked."""
    forks = fork_spy(monkeypatch)
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: set(cpus))
    return fnn_train(coords, no_stim(len(coords)), [1, 2, 3], cfg), forks


def test_failing_stack_raises_from_fnn_train(monkeypatch):
    def fail_on_three_units(z, y, hidden, decays, rngs, epochs):
        if hidden == 3:
            raise ValueError("stack of 3 hidden units failed")
        return _train_stack(z, y, hidden, decays, rngs, epochs)

    monkeypatch.setattr(rom_fnn, "_train_stack", fail_on_three_units)
    monkeypatch.setattr(rom_fnn, "STACK_BYTES", 8 * 40 * 3 * 2)
    monkeypatch.setattr(rom_fnn, "EPOCHS", 40)
    cfg = TrainConfig(**SMALL_GRID)
    result = None
    with pytest.raises(ValueError, match="^stack of 3 hidden units failed$"):
        result, _ = train_on_cpus(monkeypatch, {0, 1}, mixed_winner_coords(), cfg)
    assert result is None


def test_final_fit_uses_the_inputs_in_their_own_layout(monkeypatch):
    # the final retrain is a one-fit float64 stack of the training inputs as
    # given; the stack trains on a C-ordered copy with a ones column, so a
    # column-major input and its row-major copy give the same bits
    coords = np.asfortranarray(mixed_winner_coords())
    cfg = TrainConfig(**SMALL_GRID)
    monkeypatch.setattr(rom_fnn, "EPOCHS", 40)
    trained = fnn_train(coords, no_stim(len(coords)), [1, 2, 3], cfg)
    for j, (model, records) in enumerate(trained, start=1):
        hidden, decay, _ = best_grid_cell(records)
        gi = [(h, lam) for h in cfg.hidden_sizes for lam in cfg.decay_values].index((hidden, decay))
        for z in (coords[:-1], np.ascontiguousarray(coords[:-1])):
            u, w_out, b_out, _ = _train_stack(
                z[None], coords[1:, j - 1][None], hidden, [decay],
                [np.random.default_rng(np.random.SeedSequence((cfg.seed, j, gi, 999999)))], 40,
            )
            assert_same_model(model, FnnModel(u[0], w_out[0], b_out[0], target_index=j))


def reference_fit(z, y, hidden, decay, rng, epochs):
    """One fit by the plain per-fit update rule, for comparison with a stack.

    Computes in the dtype of `z` and `y`, in the trainer's hidden-major form:
    u = [w1ᵀ | b1] is held negated as v = -u of shape (hidden, dim+1)
    against inputs with a ones column, so that v @ [z | 1].T is minus the
    pre-activation, and the step is v -= lr (-da @ [z | 1] + 2 decay v).
    Returns the parameters (u, w_out, b_out) after `epochs` steps of size
    `rom_fnn.LEARNING_RATE` and the training loss at them.
    """
    dtype = z.dtype
    n, dim = z.shape
    w1 = rng.uniform(-0.5, 0.5, size=(dim, hidden)).astype(dtype)
    b1 = rng.uniform(-0.5, 0.5, size=hidden).astype(dtype)
    w_out = rng.uniform(-0.5, 0.5, size=hidden).astype(dtype)
    b_out = dtype.type(rng.uniform(-0.5, 0.5))
    v = -np.ascontiguousarray(np.column_stack([w1.T, b1]))
    z1 = np.column_stack([z, np.ones(n, dtype)])
    decay = dtype.type(decay)
    lr = rom_fnn.LEARNING_RATE

    def activations_and_residuals():
        with np.errstate(over="ignore"):
            s = 1.0 / (1.0 + np.exp(v @ z1.T))
        return s, w_out @ s + b_out - y

    for _ in range(epochs):
        s, resid = activations_and_residuals()
        go = 2.0 * resid / n
        neg_da = ((go[None, :] * w_out[:, None]) * s) * (s - 1.0)
        w_out = w_out - lr * (s @ go + 2.0 * decay * w_out)
        b_out = b_out - lr * (go.sum() + 2.0 * decay * b_out)
        v = v - lr * (neg_da @ z1 + 2.0 * decay * v)
    _, resid = activations_and_residuals()
    loss = np.sum(resid**2) / n + decay * (np.sum(v**2) + np.sum(w_out**2) + b_out**2)
    return (-v, w_out, b_out), loss


def assert_same_fit(a, b):
    for pa, pb in zip(a, b):
        assert np.array_equal(pa, pb, equal_nan=True)


@settings(deadline=None, max_examples=30)
@given(
    b=st.integers(1, 6),
    n=st.integers(1, 300),
    dim=st.integers(1, 7),
    hidden=st.integers(1, 17),
    seed=st.integers(0, 2**16),
)
def test_stack_slices_equal_their_one_fit_stacks(b, n, dim, hidden, seed):
    # a decay of 100 at lr 0.2 scales the weights by about -39 a step, so
    # that slice turns NaN within 200 steps; it stays in the stack and must
    # not disturb its neighbours
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(b, n, dim))
    y = rng.normal(size=(b, n))
    decays = rng.choice([1e-8, 1e-4, 1e-1, 100.0], size=b)
    stack = _train_stack(z, y, hidden, decays, [np.random.default_rng(i) for i in range(b)], 200)
    for i in range(b):
        alone = _train_stack(
            z[i : i + 1], y[i : i + 1], hidden, decays[i : i + 1], [np.random.default_rng(i)], 200
        )
        assert_same_fit((p[i] for p in stack), (p[0] for p in alone))


# each id keeps the name the case had when it also gave a loss-change
# threshold and the number of steps taken before it
@pytest.mark.parametrize(
    "n, dim, hidden, decay",
    [
        pytest.param(1, 1, 1, 1e-4, id="1-1-1-0.0001-1e-09-40"),
        pytest.param(7, 1, 3, 1e-2, id="7-1-3-0.01-1e-09-40"),
        pytest.param(40, 3, 1, 1e-8, id="40-3-1-1e-08-1e-09-40"),
        pytest.param(255, 5, 8, 1e-6, id="255-5-8-1e-06-1e-09-40"),
        pytest.param(300, 7, 16, 1e-1, id="300-7-16-0.1-1e-09-40"),
        pytest.param(60, 2, 4, 1e-1, id="60-2-4-0.1-0.003-15"),
        pytest.param(300, 7, 16, 1e-6, id="300-7-16-1e-06-0.003-26"),
    ],
)
def test_one_fit_stack_matches_per_fit_reference(n, dim, hidden, decay):
    rng = np.random.default_rng(n + dim + hidden)
    z = rng.normal(size=(n, dim))
    y = rng.normal(size=n)
    params, loss = reference_fit(z, y, hidden, decay, np.random.default_rng(1), 40)
    got = [p[0] for p in _train_stack(
        z[None], y[None], hidden, [decay], [np.random.default_rng(1)], 40
    )]
    assert_same_fit(got, (*params, loss))
    # the returned loss is the training loss of the returned model
    model = FnnModel(*got[:3], target_index=1)
    assert got[3] == pytest.approx(fnn_loss(model, z, no_stim(n), y, decay), rel=1e-12)


@pytest.mark.parametrize(
    "n, dim, hidden, decay, lr",
    [
        pytest.param(1, 1, 1, 1e-4, 0.2, id="1-1-1-0.0001-1e-09-0.2-40"),
        pytest.param(40, 3, 1, 1e-8, 0.2, id="40-3-1-1e-08-1e-09-0.2-40"),
        pytest.param(255, 5, 8, 1e-6, 0.2, id="255-5-8-1e-06-1e-09-0.2-40"),
        pytest.param(300, 7, 16, 1e-1, 0.2, id="300-7-16-0.1-1e-09-0.2-40"),
        pytest.param(60, 2, 4, 1e-1, 0.2, id="60-2-4-0.1-0.003-0.2-15"),
        pytest.param(50, 3, 4, 1e-4, 1e4, id="50-3-4-0.0001-1e-09-10000.0-5"),
    ],
)
def test_one_fit_float32_stack_matches_per_fit_reference(n, dim, hidden, decay, lr, monkeypatch):
    # the CV fits train in float32: a float32 stack computes in float32
    # throughout, with the per-fit rule's bits; at lr 1e4 the fit diverges
    # and ends its 40 steps with a non-finite loss
    rng = np.random.default_rng(n + dim + hidden)
    z = rng.normal(size=(n, dim)).astype(np.float32)
    y = rng.normal(size=n).astype(np.float32)
    monkeypatch.setattr(rom_fnn, "LEARNING_RATE", lr)
    with np.errstate(over="ignore", invalid="ignore"):
        params, loss = reference_fit(z, y, hidden, decay, np.random.default_rng(1), 40)
    got = [p[0] for p in _train_stack(
        z[None], y[None], hidden, [decay], [np.random.default_rng(1)], 40
    )]
    assert all(p.dtype == np.float32 for p in (*params, loss, *got))
    assert_same_fit(got, (*params, loss))
    assert np.isfinite(loss) == (lr < 1)


@settings(deadline=None, max_examples=20)
@given(
    n=st.integers(1, 300),
    dim=st.integers(1, 7),
    hidden=st.integers(1, 17),
    decay=st.sampled_from([1e-8, 1e-4, 1e-1]),
    seed=st.integers(0, 2**16),
)
def test_one_epoch_steps_along_fnn_gradient(n, dim, hidden, decay, seed):
    # criterion 5 checks fnn_gradient; the trainer must take exactly that step
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, dim))
    y = rng.normal(size=n)
    lr = rom_fnn.LEARNING_RATE
    init = np.random.default_rng(seed + 1)
    w1 = init.uniform(-0.5, 0.5, size=(dim, hidden))
    b1 = init.uniform(-0.5, 0.5, size=hidden)
    w_out = init.uniform(-0.5, 0.5, size=hidden)
    b_out = init.uniform(-0.5, 0.5)
    u = np.column_stack([w1.T, b1])
    grad = fnn_gradient(FnnModel(u, w_out, b_out, target_index=1), z, no_stim(n), y, decay)
    want = (u - lr * grad["u"], w_out - lr * grad["w_out"], b_out - lr * grad["b_out"])
    got = _train_stack(z[None], y[None], hidden, [decay], [np.random.default_rng(seed + 1)], 1)
    for g, w in zip(got, want):
        assert np.array_equal(g[0], w)


def test_divergence_marks_every_cv_fold_and_fails_without_warnings(monkeypatch):
    coords = np.random.default_rng(0).normal(size=(30, 2))
    monkeypatch.setattr(rom_fnn, "LEARNING_RATE", 1e6)
    monkeypatch.setattr(rom_fnn, "EPOCHS", 200)
    cfg = TrainConfig(hidden_sizes=(2, 3), decay_values=(1e-4,), folds=3, repeats=1)
    seen = []

    def spy(records):
        seen.append(records)
        return best_grid_cell(records)

    monkeypatch.setattr(rom_fnn, "best_grid_cell", spy)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RuntimeError, match="all hyperparameter grid cells diverged"):
            fnn_train(coords, no_stim(len(coords)), [1], cfg)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    (records,) = seen
    assert len(records) == 6
    assert all(math.isnan(r["mse"]) for r in records)


def test_overflowing_held_out_error_counts_as_diverged(monkeypatch):
    # a finite training loss, but output weights so large that the held-out
    # squared error overflows
    def huge_fits(z, y, hidden, decays, rngs, epochs):
        b, _, dim = z.shape
        return (
            np.zeros((b, hidden, dim + 1)),
            np.full((b, hidden), 1e200),
            np.zeros(b),
            np.ones(b),
        )

    monkeypatch.setattr(rom_fnn, "_train_stack", huge_fits)
    coords = np.random.default_rng(0).normal(size=(30, 2))
    cfg = TrainConfig(hidden_sizes=(2,), decay_values=(1e-4,), folds=3, repeats=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RuntimeError, match="all hyperparameter grid cells diverged"):
            fnn_train(coords, no_stim(len(coords)), [1], cfg)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_one_diverging_cell_is_skipped(monkeypatch):
    # lr * 2 * decay = 10 makes the decay term alone grow the weights ninefold a step
    coords = np.random.default_rng(1).uniform(-0.5, 0.5, size=(30, 2))
    monkeypatch.setattr(rom_fnn, "LEARNING_RATE", 0.05)
    monkeypatch.setattr(rom_fnn, "EPOCHS", 400)
    cfg = TrainConfig(hidden_sizes=(2,), decay_values=(1e-4, 100.0), folds=3, repeats=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ((model, records),) = fnn_train(coords, no_stim(len(coords)), [1], cfg)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    by_decay = {lam: [r["mse"] for r in records if r["decay"] == lam] for lam in cfg.decay_values}
    assert all(math.isnan(m) for m in by_decay[100.0])
    assert all(math.isfinite(m) for m in by_decay[1e-4])
    assert best_grid_cell(records)[:2] == (2, 1e-4)
    assert np.all(np.isfinite(model.u))


def test_train_validation():
    coords = np.random.default_rng(0).normal(size=(8, 2))
    cfg = TrainConfig(hidden_sizes=(2,), decay_values=(1e-4,), folds=3, repeats=1)
    with pytest.raises(ValueError, match="target_index must lie in 1..2, got 3"):
        fnn_train(coords, no_stim(len(coords)), [1, 3], cfg)
    small = TrainConfig(hidden_sizes=(2,), decay_values=(1e-4,), folds=10, repeats=1)
    with pytest.raises(ValueError, match="folds"):
        fnn_train(coords, no_stim(len(coords)), [1], small)


def test_train_config_validation():
    with pytest.raises(ValueError, match="hidden"):
        TrainConfig(hidden_sizes=(0,))
    with pytest.raises(ValueError, match="^fnn.hidden_sizes must not be empty$"):
        TrainConfig(hidden_sizes=())
    with pytest.raises(ValueError, match="^fnn.decay_values must not be empty$"):
        TrainConfig(decay_values=())
    with pytest.raises(ValueError, match="decay"):
        TrainConfig(decay_values=(0.0,))
    with pytest.raises(ValueError, match="folds"):
        TrainConfig(folds=1)
    with pytest.raises(ValueError, match="repeats"):
        TrainConfig(repeats=0)


def test_best_cell_skips_failed_and_breaks_ties():
    records = [
        {"hidden": 2, "decay": 1e-4, "repeat": 0, "fold": 0, "mse": float("nan")},
        {"hidden": 2, "decay": 1e-3, "repeat": 0, "fold": 0, "mse": 0.5},
        {"hidden": 4, "decay": 1e-4, "repeat": 0, "fold": 0, "mse": 0.5},
    ]
    # the diverged cell is out; equal scores prefer the smaller hidden size
    assert best_grid_cell(records)[:2] == (2, 1e-3)
    same_hidden = [
        {"hidden": 2, "decay": 1e-3, "repeat": 0, "fold": 0, "mse": 0.5},
        {"hidden": 2, "decay": 1e-4, "repeat": 0, "fold": 0, "mse": 0.5},
    ]
    assert best_grid_cell(same_hidden)[:2] == (2, 1e-4)
    all_failed = [
        {"hidden": 2, "decay": 1e-4, "repeat": 0, "fold": 0, "mse": float("inf")},
    ]
    with pytest.raises(RuntimeError, match="diverged"):
        best_grid_cell(all_failed)


@settings(deadline=None, max_examples=40)
@given(
    n=st.integers(2, 60),
    folds=st.integers(2, 10),
    repeats=st.integers(1, 4),
    seed=st.integers(0, 1000),
)
def test_cv_partitions_cover_exactly_once(n, folds, repeats, seed):
    if n < folds:
        with pytest.raises(ValueError, match="folds"):
            cv_partitions(n, folds, repeats, seed)
        return
    parts = cv_partitions(n, folds, repeats, seed)
    assert len(parts) == repeats
    for rep in parts:
        assert len(rep) == folds
        merged = np.concatenate(rep)
        assert sorted(merged.tolist()) == list(range(n))


# ----------------------------------------------------------------- forecasts


def constant_models(values):
    return [
        FnnModel(
            u=np.zeros((1, len(values) + 1)),
            w_out=np.zeros(1),
            b_out=float(v),
            target_index=j + 1,
        )
        for j, v in enumerate(values)
    ]


def test_zero_horizon_forecast_is_empty():
    models = constant_models([0.1, 0.2])
    out = fnn_forecast(models, [0.1, 0.2], no_stim(0), 0)
    assert out.shape == (0, 2)


def test_fixed_point_forecast_stays_at_init():
    init = [0.3, -1.2]
    models = constant_models(init)
    out = fnn_forecast(models, init, no_stim(5), 5)
    assert np.array_equal(out, np.tile(init, (5, 1)))


def test_forecast_is_repeatable():
    rng = np.random.default_rng(7)
    models = [
        FnnModel(
            u=rng.normal(size=(4, 3)),
            w_out=rng.normal(size=4),
            b_out=float(rng.normal()),
            target_index=j,
        )
        for j in (1, 2)
    ]
    a = fnn_forecast(models, [0.1, 0.2], no_stim(10), 10)
    b = fnn_forecast(models, [0.1, 0.2], no_stim(10), 10)
    assert np.array_equal(a, b)


def test_stacked_forecast_steps_every_model_as_fnn_forward():
    # models of different hidden sizes, with a stimulus input
    models = [replace(random_model(20 + j, d=3, p=1, hidden=h), target_index=j + 1)
              for j, h in enumerate([2, 5, 1])]
    stim = np.random.default_rng(3).integers(0, 2, size=(12, 1)).astype(float)
    got = fnn_forecast(models[::-1], [0.2, -0.1, 0.4], stim, 12)
    state = np.array([0.2, -0.1, 0.4])
    for s in range(12):
        state = np.array([fnn_forward(m, state, stim[s]) for m in models])
        assert np.allclose(got[s], state, rtol=1e-13, atol=1e-15)
        state = got[s]


def test_forecast_validation():
    models = constant_models([0.1, 0.2])
    with pytest.raises(ValueError, match="one model per coordinate"):
        fnn_forecast(models[:1] + models[:1], [0.1, 0.2], no_stim(3), 3)
    with pytest.raises(ValueError, match="length"):
        fnn_forecast(models, [0.1], no_stim(3), 3)
    with pytest.raises(ValueError, match="stimulus"):
        fnn_forecast(models, [0.1, 0.2], np.zeros((2, 1)), 3)
    with pytest.raises(ValueError, match="input length 3 does not match model width 2"):
        fnn_forecast(models, [0.1, 0.2], np.zeros((3, 1)), 3)


def test_forecast_reports_divergence_step():
    models = constant_models([0.1])
    with pytest.raises(RuntimeError, match="step 1"):
        fnn_forecast(models, [float("nan")], no_stim(3), 3)


# --------------------------------------------------------------- persistence


def test_model_roundtrip(tmp_path):
    # the bundle records each network's u, w_out and b_out bit for bit, and
    # the models it describes are FnnModels again
    models = [random_model(9, hidden=3), replace(random_model(10, hidden=5), target_index=2)]
    path = tmp_path / "fnn.json"
    save_fnn_models(models, [1e-3, 1e-2], path)
    doc = json.loads(path.read_text())
    assert sorted(doc) == ["models"]
    assert [entry["decay"] for entry in doc["models"]] == [1e-3, 1e-2]
    assert [entry["hidden_size"] for entry in doc["models"]] == [3, 5]
    for model, entry in zip(models, doc["models"]):
        loaded = FnnModel(**{key: entry[key] for key in ("u", "w_out", "b_out", "target_index")})
        assert np.array_equal(loaded.u, model.u)
        assert np.array_equal(loaded.w_out, model.w_out)
        assert loaded.b_out == model.b_out
        assert loaded.target_index == model.target_index


def test_cv_report_csv(tmp_path, zero_target_fit):
    _, _, _, records = zero_target_fit
    path = tmp_path / "cv.csv"
    write_cv_report({2: records, 4: records[:3]}, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["coord", "hidden", "decay", "repeat", "fold", "mse"]
    assert len(rows) == 1 + len(records) + 3
    assert [row[0] for row in rows[1:]] == ["2"] * len(records) + ["4"] * 3
    r = records[0]
    assert rows[1][1:] == [str(r["hidden"]), repr(r["decay"]), str(r["repeat"]),
                           str(r["fold"]), repr(r["mse"])]

