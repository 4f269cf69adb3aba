"""Loading, validation and detrending of multivariate time series.

A series travels as plain ``(values, names)``: an N x M float array whose
rows are time instants, plus one name per column. Also provides seeded
synthetic datasets with known low-dimensional dynamics, used throughout the
test suite as ground-truth oracles.
"""

from __future__ import annotations

import json
import logging
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import artifacts

logger = logging.getLogger(__name__)

DEAD_CHANNEL_REL_TOL = 1e-10


def load_timeseries(path) -> tuple[np.ndarray, list[str]]:
    """Load a wide CSV (header = channel names, row i = time index i).

    Parameters
    ----------
    path : str or pathlib.Path

    Returns
    -------
    values : ndarray, shape (N, M)
        Row i holds the channels at time index i.
    names : list of str
        Channel names from the header, stripped of surrounding blanks and
        distinct.

    Raises
    ------
    FileNotFoundError
        If the file does not exist.
    ValueError
        On a non-numeric cell (reported with its 1-based data row and column),
        ragged rows, fewer than 2 data rows, no channel, a non-finite cell
        (``nan``/``inf`` parse as numbers, so they are rejected here), or a
        channel name that repeats once stripped.
    """
    values, header = artifacts.read_matrix(path)
    if len(values) < 2:
        raise ValueError(f"{path}: need at least 2 data rows, got {len(values)}")
    if values.shape[1] < 1:
        raise ValueError(f"{path}: need at least 1 channel")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{path}: values contain non-finite entries")
    names = [h.strip() for h in header]
    repeated = sorted(name for name, count in Counter(names).items() if count > 1)
    if repeated:
        raise ValueError(f"{path}: repeated channel name(s): {', '.join(map(repr, repeated))}")
    return values, names


def detrend_standardize(
    values: np.ndarray,
    names: list[str],
    drop_dead: bool = False,
    n_fit: int | None = None,
) -> tuple[np.ndarray, list[str]]:
    """Remove the per-channel least-squares line and scale to unit sample std.

    The line is fit against the time index 0..N-1 and the standard deviation
    uses the N-1 denominator. Channels that are constant after detrending are
    an error unless ``drop_dead`` is set, in which case they are removed and
    reported through the module logger. Returns the standardized values and
    the names of the channels kept.

    Parameters
    ----------
    n_fit : int, optional
        When given, the line fit and the scale are estimated from the leading
        ``n_fit`` rows only and applied to the whole series (train-only
        statistics). Default is full-series statistics.
    """
    n = values.shape[0]
    if n_fit is None:
        n_fit = n
    if not 2 <= n_fit <= n:
        raise ValueError(f"n_fit must be in [2, {n}], got {n_fit}")

    t = np.arange(n, dtype=float)
    tf = t[:n_fit]
    vf = values[:n_fit]
    tc = tf - tf.mean()
    slope = (tc @ vf) / (tc @ tc)
    intercept = vf.mean(axis=0) - slope * tf.mean()
    detrended = values - (intercept[None, :] + np.outer(t, slope))

    sd = detrended[:n_fit].std(axis=0, ddof=1)
    sd_orig = vf.std(axis=0, ddof=1)
    dead = sd <= DEAD_CHANNEL_REL_TOL * np.maximum(sd_orig, 1e-300)
    if np.any(dead):
        dead_names = [names[i] for i in np.flatnonzero(dead)]
        if not drop_dead:
            raise ValueError(
                "constant channel(s) after detrending: " + ", ".join(dead_names)
            )
        logger.warning("dropping dead channel(s): %s", ", ".join(dead_names))
        keep = ~dead
        detrended = detrended[:, keep]
        sd = sd[keep]
        names = [nm for nm, k in zip(names, keep) if k]
    else:
        names = list(names)
    if detrended.shape[1] == 0:
        raise ValueError("all channels dead after detrending")
    return detrended / sd[None, :], names


@dataclass(frozen=True)
class SynthConfig:
    """Configuration for a seeded synthetic dataset with known latent dynamics."""

    q: int = 2
    ambient_dim: int = 50
    n_times: int = 400
    noise: float = 0.0
    seed: int = 0
    dynamics: str = "limit_cycle"  # or "linear_stable"
    frequency_scale: float = 1.5

    def __post_init__(self):
        if self.q not in (2, 3):
            raise ValueError(f"synth.q must be 2 or 3, got {self.q}")
        if self.ambient_dim < self.q:
            raise ValueError(
                f"synth.ambient_dim must be >= synth.q ({self.q}), got {self.ambient_dim}"
            )
        if self.n_times < 2:
            raise ValueError(f"synth.n_times must be >= 2, got {self.n_times}")
        if self.noise < 0:
            raise ValueError(f"synth.noise must be >= 0, got {self.noise}")
        if self.dynamics not in ("linear_stable", "limit_cycle"):
            raise ValueError(
                f"synth.dynamics must be 'linear_stable' or 'limit_cycle', got {self.dynamics!r}"
            )


@dataclass(frozen=True)
class SynthTruth:
    """Ground truth behind a synthetic dataset: latent path plus the embedding map."""

    latent: np.ndarray          # N x q
    weights: np.ndarray         # M x q cosine-feature frequencies
    phases: np.ndarray          # length M
    amplitude: float
    dynamics: str
    params: dict = field(default_factory=dict)

    def embed(self, latent: np.ndarray) -> np.ndarray:
        """Apply the fixed nonlinear embedding to a latent trajectory."""
        latent = np.atleast_2d(np.asarray(latent, dtype=float))
        return self.amplitude * np.cos(latent @ self.weights.T + self.phases[None, :])

    def to_json(self) -> str:
        doc = {
            "dynamics": self.dynamics,
            "amplitude": self.amplitude,
            "params": self.params,
            "latent": self.latent.tolist(),
            "weights": self.weights.tolist(),
            "phases": self.phases.tolist(),
        }
        return json.dumps(doc, sort_keys=True)


def _latent_linear_stable(cfg: SynthConfig, rng: np.random.Generator) -> tuple[np.ndarray, dict]:
    # rotation + mild decay, conjugated by a random orthogonal frame
    rho = rng.uniform(0.97, 0.999)
    omega = rng.uniform(2 * np.pi / 60, 2 * np.pi / 20)
    rot = np.array(
        [[np.cos(omega), -np.sin(omega)], [np.sin(omega), np.cos(omega)]]
    )
    if cfg.q == 2:
        core = rho * rot
    else:
        core = np.zeros((3, 3))
        core[:2, :2] = rho * rot
        core[2, 2] = rng.uniform(0.9, 0.99)
    basis, _ = np.linalg.qr(rng.normal(size=(cfg.q, cfg.q)))
    a = basis @ core @ basis.T
    z = np.empty((cfg.n_times, cfg.q))
    z[0] = rng.normal(size=cfg.q)
    for i in range(cfg.n_times - 1):
        z[i + 1] = a @ z[i]
    return z, {"matrix": a.tolist(), "rho": float(rho), "omega": float(omega)}


def _latent_limit_cycle(cfg: SynthConfig, rng: np.random.Generator) -> tuple[np.ndarray, dict]:
    # Hopf-style planar cycle; started on r=1 exactly so the path is a closed curve
    gamma = 0.1
    omega = 2 * np.pi / 40
    theta0 = rng.uniform(0, 2 * np.pi)
    r = 1.0
    z = np.empty((cfg.n_times, cfg.q))
    theta = theta0
    for i in range(cfg.n_times):
        z[i, 0] = r * np.cos(theta)
        z[i, 1] = r * np.sin(theta)
        if cfg.q == 3:
            z[i, 2] = np.cos(2 * theta)
        r = r + gamma * r * (1.0 - r * r)
        theta = theta + omega
    return z, {"gamma": gamma, "omega": float(omega), "theta0": float(theta0)}


def generate_synthetic(cfg: SynthConfig) -> tuple[np.ndarray, list[str], SynthTruth]:
    """Generate an ambient series from a known q-dimensional dynamical system.

    The latent trajectory is pushed through a fixed random-cosine-feature map
    into ``ambient_dim`` channels and i.i.d. Gaussian noise is added on top.
    Deterministic given the seed; with ``noise=0`` the ambient values equal the
    embedding of the latent trajectory exactly. Returns the N x M values, the
    channel names and the ground truth.
    """
    rng = np.random.default_rng(cfg.seed)
    if cfg.dynamics == "linear_stable":
        latent, params = _latent_linear_stable(cfg, rng)
    else:
        latent, params = _latent_limit_cycle(cfg, rng)
    weights = rng.normal(size=(cfg.ambient_dim, cfg.q)) * (
        cfg.frequency_scale / np.sqrt(cfg.q)
    )
    phases = rng.uniform(0, 2 * np.pi, size=cfg.ambient_dim)
    truth = SynthTruth(
        latent=latent,
        weights=weights,
        phases=phases,
        amplitude=1.0,
        dynamics=cfg.dynamics,
        params=params,
    )
    ambient = truth.embed(latent)
    if cfg.noise > 0:
        ambient = ambient + cfg.noise * rng.normal(size=ambient.shape)
    names = [f"ch{m:03d}" for m in range(cfg.ambient_dim)]
    return ambient, names, truth
