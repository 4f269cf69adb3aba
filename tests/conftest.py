"""Shared fixtures: frozen synthetic datasets reused across test modules."""

import numpy as np
import pytest

from dmrom import dmaps, lifting
from dmrom.ingest import SynthConfig, detrend_standardize, generate_synthetic

STRIP_SEED = 42
STRIP_N = 300
STRIP_LX = 3.6
STRIP_LY = 1.0
STRIP_SIGMA = 0.05


def make_strip(seed: int = STRIP_SEED, n: int = STRIP_N) -> np.ndarray:
    """Uniform sample of an anisotropic planar strip (aspect ratio 3.6)."""
    rng = np.random.default_rng(seed)
    return np.column_stack(
        [rng.uniform(0, STRIP_LX, n), rng.uniform(0, STRIP_LY, n)]
    )


@pytest.fixture(scope="session")
def strip_points() -> np.ndarray:
    return make_strip()


@pytest.fixture(scope="session")
def strip_embedding(strip_points):
    # k=6 covers the long-axis mode, its first two overtones, and the
    # cross-strip mode with room to spare
    return dmaps.build_embedding(strip_points, sigma=STRIP_SIGMA, k=6)


@pytest.fixture(scope="session")
def cycle_dataset():
    """Noise-free planar limit cycle in 50 ambient channels, standardized and split."""
    cfg = SynthConfig(q=2, ambient_dim=50, n_times=400, noise=0.0, seed=0)
    values, names, truth = generate_synthetic(cfg)
    std = detrend_standardize(values, names)
    return {"series": values, "truth": truth, "train": std[:320], "test": std[320:]}


@pytest.fixture(scope="session")
def cycle_embedding(cycle_dataset):
    return dmaps.build_embedding(cycle_dataset["train"], sigma="auto", k=10)


def floor_basis_fit(y, x, gh_sigma="auto", floor=lifting.EIG_FLOOR) -> lifting.GhLiftModel:
    """The GH lift that keeps every kernel eigenpair at or above ``floor`` times
    the largest, from the full solve: the fixed-floor reference against which
    `lifting.gh_fit`'s leave-one-out rank is checked."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    kernel, gh_sigma = dmaps.kernel(y, sigma=gh_sigma)
    vals, vecs = dmaps.eigenbasis(kernel, floor, len(y))
    vecs = np.ascontiguousarray(vecs)
    coeffs = vecs.T @ x
    loo = lifting.loo_curve(vecs, x, coeffs)
    return lifting.GhLiftModel(
        y_train=y,
        gh_sigma=gh_sigma,
        eigenvalues=vals,
        eigenvectors=vecs,
        coeffs=coeffs,
        loo_rms=float(loo[-1]),
    )


# one "[criterion N] PASS/FAIL - ..." line per acceptance criterion,
# echoed into the terminal summary so they survive output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def fd_gradient(model, coords, stim, targets, decay, h: float = 1e-5) -> dict:
    """Central finite differences of the FNN training loss, parameter by parameter.

    Independent of the analytic path: every entry is probed through two full
    loss evaluations on a perturbed copy of the model.
    """
    from dmrom.rom_fnn import FnnModel, fnn_loss

    base = {"u": model.u, "w_out": model.w_out, "b_out": model.b_out}

    def loss_with(p):
        m = FnnModel(u=p["u"], w_out=p["w_out"], b_out=p["b_out"], target_index=model.target_index)
        return fnn_loss(m, coords, stim, targets, decay)

    out = {}
    for name in ("u", "w_out"):
        g = np.zeros_like(base[name])
        for idx in np.ndindex(base[name].shape):
            p = {k: (v.copy() if isinstance(v, np.ndarray) else v) for k, v in base.items()}
            p[name][idx] += h
            up = loss_with(p)
            p[name][idx] -= 2 * h
            dn = loss_with(p)
            g[idx] = (up - dn) / (2 * h)
        out[name] = g
    p = dict(base)
    p["b_out"] = base["b_out"] + h
    up = loss_with(p)
    p["b_out"] = base["b_out"] - h
    dn = loss_with(p)
    out["b_out"] = (up - dn) / (2 * h)
    return out


def gradient_rel_error(analytic: dict, reference: dict) -> float:
    """Worst relative disagreement between two gradient dictionaries."""
    worst = 0.0
    for name in ("u", "w_out", "b_out"):
        a = np.asarray(analytic[name], dtype=float)
        f = np.asarray(reference[name], dtype=float)
        worst = max(worst, float(np.max(np.abs(a - f) / np.maximum(np.abs(f), 1e-6))))
    return worst
