"""Seeded inputs and run configs for the three benchmark workloads.

The generator is the benchmark's own copy of the limit-cycle series, so a
change to the program's synthetic-data code cannot change a workload. The
latent cycle, its start phase and the cosine-feature map to the 50 channels
are fixed (drawn from generator seed 0, as in the acceptance config), and so
is the noise realization of noisy2000 (noise seed 1). The run seed sets the
order in which the channels appear in the CSV, a cyclic rotation by seed
mod 50. The pipeline treats channels alike, so a reordering changes the file
the program reads but not the problem it solves, and forecast quality stays
comparable from seed to seed. Seeding the start phase or the noise instead
moves the mean test RMSE by up to 40% from seed to seed, which would bury
any regression in forecast quality. At seed 0 the noise-free series is
byte-identical to `dmrom synth` with the acceptance settings.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

AMBIENT_DIM = 50
LATENT_DIM = 2
FREQUENCY_SCALE = 1.5
CYCLE_PERIOD = 40          # steps per turn of the limit cycle
MAP_SEED = 0
NOISE_SEED = 1
EPOCH_LEN = 20             # stim4000 block length, alternating conditions A, B
CONTRASTS = {"A_gt_B": [1.0, -1.0]}

# trimmed-grid solver settings; without learning_rate 0.2 cycle320 fails the
# criterion-7 beat-baseline bound
SOLVER = {"max_epochs": 2000, "learning_rate": 0.2}
ACCEPTANCE_GRID = {"hidden_sizes": [4, 8], "decay_values": [1e-8, 1e-6], "folds": 5, "repeats": 2}
ONE_CELL_GRID = {"hidden_sizes": [4], "decay_values": [1e-6], "folds": 2, "repeats": 1}


@dataclass(frozen=True)
class Workload:
    name: str
    n_times: int
    n_train: int
    noise: float
    grid: dict
    stimulus: bool = False
    acceptance: bool = False     # the acceptance-test run: criterion-7 and purity checks apply
    k: int = 10
    d: int = 5


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cycle320", n_times=400, n_train=320, noise=0.0, grid=ACCEPTANCE_GRID,
                 acceptance=True),
        Workload("noisy2000", n_times=2400, n_train=2000, noise=0.1, grid=ONE_CELL_GRID),
        Workload("stim4000", n_times=4320, n_train=320, noise=0.0, grid=ONE_CELL_GRID,
                 stimulus=True),
    )
}


def limit_cycle_series(n_times: int, noise: float, seed: int) -> np.ndarray:
    """N x 50 ambient series of the planar limit cycle, channels in the seed's order."""
    map_rng = np.random.default_rng(MAP_SEED)
    theta = map_rng.uniform(0, 2 * np.pi)
    weights = map_rng.normal(size=(AMBIENT_DIM, LATENT_DIM)) * (
        FREQUENCY_SCALE / np.sqrt(LATENT_DIM)
    )
    phases = map_rng.uniform(0, 2 * np.pi, size=AMBIENT_DIM)

    omega = 2 * np.pi / CYCLE_PERIOD
    latent = np.empty((n_times, LATENT_DIM))
    for i in range(n_times):   # r = 1 is the cycle's fixed point, so only theta moves
        latent[i] = np.cos(theta), np.sin(theta)
        theta = theta + omega
    ambient = np.cos(latent @ weights.T + phases[None, :])
    if noise > 0:
        ambient = ambient + noise * np.random.default_rng(NOISE_SEED).normal(size=ambient.shape)
    return ambient[:, channel_order(seed)]


def channel_order(seed: int) -> np.ndarray:
    return np.roll(np.arange(AMBIENT_DIM), -(seed % AMBIENT_DIM))


def channel_names(seed: int) -> list[str]:
    return [f"ch{m:03d}" for m in channel_order(seed)]


def write_series(values: np.ndarray, names: list, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in values:
            writer.writerow([repr(float(v)) for v in row])


def stimulus_epochs(n_times: int) -> list:
    """Alternating A/B blocks of EPOCH_LEN steps from step 0."""
    return [
        ["A" if (start // EPOCH_LEN) % 2 == 0 else "B", start, min(start + EPOCH_LEN, n_times)]
        for start in range(0, n_times, EPOCH_LEN)
    ]


def run_config(w: Workload, input_path: str, output_dir: str, drop: tuple = ()) -> dict:
    """Problem, grid and solver settings only; everything else is the program default."""
    fnn = dict(w.grid)
    fnn.update({k: v for k, v in SOLVER.items() if k not in drop})
    cfg = {
        "input": input_path,
        "output_dir": output_dir,
        "n_train": w.n_train,
        "dmaps": {"k": w.k},
        "parsimony": {"d": w.d},
        "fnn": fnn,
    }
    if w.stimulus:
        cfg["epochs"] = stimulus_epochs(w.n_times)
        cfg["conditions"] = ["A", "B"]
        cfg["glm"] = {"contrasts": CONTRASTS}
    return cfg


def make_inputs(w: Workload, seed: int, directory, drop: tuple = ()) -> np.ndarray:
    """Write input.csv and config.json (relative paths) into directory; return the raw series."""
    values = limit_cycle_series(w.n_times, w.noise, seed)
    write_series(values, channel_names(seed), os.path.join(directory, "input.csv"))
    with open(os.path.join(directory, "config.json"), "w") as fh:
        json.dump(run_config(w, "input.csv", "out", drop), fh, indent=1)
        fh.write("\n")
    return values
