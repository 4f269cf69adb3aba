"""Per-coordinate feedforward ROMs with weight decay and cross-validated grids.

Each embedding coordinate gets its own single-hidden-layer network mapping
(current coordinates, current stimulus) to that coordinate one step ahead.
Hidden size and weight decay are chosen by grid search under repeated k-fold
cross-validation over the one-step training pairs; the fits of all
coordinates train together as stacked gradient descents, and the stacks train
concurrently on up to `len(os.sched_getaffinity(0))` threads (`taskset`
restricts them). Every model and CV record is the same bits at any worker
count. Forecasts iterate the trained networks closed-loop, feeding outputs
back as inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import expit

from . import artifacts


@dataclass(frozen=True)
class FnnModel:
    """One-step predictor for a single embedding coordinate.

    Output is w_out . S(w1.T z + b1) + b_out with z the concatenated
    (coordinates, stimulus) input and S the logistic function.
    """

    w1: np.ndarray        # (d+p) x H input-to-hidden weights
    b1: np.ndarray        # H hidden biases
    w_out: np.ndarray     # H hidden-to-output weights
    b_out: float
    target_index: int     # 1-based coordinate this model predicts
    hidden_size: int = field(init=False)

    def __post_init__(self):
        w1 = np.atleast_2d(np.asarray(self.w1, dtype=float))
        b1 = np.asarray(self.b1, dtype=float).ravel()
        w_out = np.asarray(self.w_out, dtype=float).ravel()
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "w_out", w_out)
        object.__setattr__(self, "b_out", float(self.b_out))
        h = w1.shape[1]
        if h < 1:
            raise ValueError("hidden layer must have at least one unit")
        if b1.shape != (h,) or w_out.shape != (h,):
            raise ValueError(
                f"inconsistent parameter shapes: w1 {w1.shape}, b1 {b1.shape}, w_out {w_out.shape}"
            )
        for name, arr in (("w1", w1), ("b1", b1), ("w_out", w_out)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite values in {name}")
        if not np.isfinite(self.b_out):
            raise ValueError("non-finite output bias")
        if self.target_index < 1:
            raise ValueError(f"target_index must be >= 1, got {self.target_index}")
        object.__setattr__(self, "hidden_size", h)

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    """Grid-search and optimization settings for FNN training."""

    hidden_sizes: tuple = (2, 4, 8, 16)
    decay_values: tuple = (1e-4, 1e-3, 1e-2, 1e-1)
    folds: int = 10
    repeats: int = 10
    max_epochs: int = 2000
    learning_rate: float = 0.05
    seed: int = 0
    tol: float = 1e-9

    def __post_init__(self):
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError("hidden sizes must be positive")
        if any(v <= 0 for v in self.decay_values):
            raise ValueError("decay values must be positive")
        if self.folds < 2:
            raise ValueError(f"folds must be >= 2, got {self.folds}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if self.max_epochs < 1 or self.learning_rate <= 0:
            raise ValueError("max_epochs and learning_rate must be positive")


def _stack_inputs(psi, stim) -> np.ndarray:
    psi = np.atleast_2d(np.asarray(psi, dtype=float))
    if stim is None:
        return psi
    stim = np.asarray(stim, dtype=float)
    if stim.ndim == 1:
        stim = stim.reshape(psi.shape[0], -1)
    if stim.shape[1] == 0:
        return psi
    if stim.shape[0] != psi.shape[0]:
        raise ValueError(
            f"stimulus rows ({stim.shape[0]}) do not match coordinate rows ({psi.shape[0]})"
        )
    return np.hstack([psi, stim])


def _forward_batch(w1, b1, w_out, b_out, z):
    s = expit(z @ w1 + b1)
    return s @ w_out + b_out, s


def fnn_forward(model: FnnModel, psi, stim=None) -> float:
    """Network output for a single (coordinates, stimulus) input."""
    psi = np.asarray(psi, dtype=float).ravel()
    z = psi if stim is None else np.concatenate([psi, np.asarray(stim, dtype=float).ravel()])
    if z.shape[0] != model.input_dim:
        raise ValueError(f"input length {z.shape[0]} does not match model width {model.input_dim}")
    out, _ = _forward_batch(model.w1, model.b1, model.w_out, model.b_out, z[None, :])
    return float(out[0])


def fnn_loss(model: FnnModel, psi, stim, targets, decay: float = 0.0) -> float:
    """Mean squared error plus decay times the squared norm of all parameters."""
    z = _stack_inputs(psi, stim)
    y = np.asarray(targets, dtype=float).ravel()
    out, _ = _forward_batch(model.w1, model.b1, model.w_out, model.b_out, z)
    penalty = (
        np.sum(model.w1**2) + np.sum(model.b1**2) + np.sum(model.w_out**2) + model.b_out**2
    )
    return float(np.mean((out - y) ** 2) + decay * penalty)


def fnn_gradient(model: FnnModel, psi, stim, targets, decay: float = 0.0) -> dict:
    """Exact gradients of `fnn_loss` with respect to every parameter."""
    z = _stack_inputs(psi, stim)
    y = np.asarray(targets, dtype=float).ravel()
    if z.shape[0] == 0:
        raise ValueError("empty batch")
    if z.shape[0] != y.shape[0]:
        raise ValueError(f"batch size mismatch: {z.shape[0]} inputs, {y.shape[0]} targets")
    out, s = _forward_batch(model.w1, model.b1, model.w_out, model.b_out, z)
    go = 2.0 * (out - y) / y.shape[0]
    da = (go[:, None] * model.w_out[None, :]) * s * (1.0 - s)
    return {
        "w1": z.T @ da + 2.0 * decay * model.w1,
        "b1": da.sum(axis=0) + 2.0 * decay * model.b1,
        "w_out": s.T @ go + 2.0 * decay * model.w_out,
        "b_out": float(go.sum() + 2.0 * decay * model.b_out),
    }


def cv_partitions(n_pairs: int, folds: int, repeats: int, seed: int):
    """Validation-fold index sets: `repeats` seeded permutation splits of 0..n_pairs-1.

    Every repeat partitions the pair indices into `folds` disjoint arrays that
    together cover each index exactly once; the same partitions are reused for
    every grid cell so cells compete on identical folds.
    """
    if n_pairs < folds:
        raise ValueError(f"cannot split {n_pairs} pairs into {folds} folds")
    partitions = []
    for ri in range(repeats):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 1000 + ri)))
        perm = rng.permutation(n_pairs)
        partitions.append(np.array_split(perm, folds))
    return partitions


# cap on one stack's float64 fits x rows x hidden block: past the caches, a
# larger stack trains slower per fit
STACK_BYTES = 2 << 20


def _train_stack(z, y, hidden, decays, rngs, cfg: TrainConfig):
    """Full-batch gradient descent on a stack of independent fits.

    Slice i of `z` (b, n, dim) and `y` (b, n) is one fit with weight decay
    `decays[i]`, initialized uniformly from `rngs[i]` (w1, b1, w_out, b_out
    in that order). A fit stops when its loss changes by less than `cfg.tol`
    from one epoch to the next, when its loss turns non-finite, or after
    `cfg.max_epochs` steps; stopped fits leave the stack. Each slice's
    arithmetic is that of a lone fit, bit for bit: a stacked `@` is one BLAS
    call per slice, elementwise expressions keep one operand order, and
    every reduction runs per slice along the fit's own axis.

    Returns w1 (b, dim, H), b1 (b, H), w_out (b, H), b_out (b,) and each
    fit's last finite loss, which is non-finite for a diverged fit.
    """
    b, n, dim = z.shape
    init = [
        (
            rng.uniform(-0.5, 0.5, size=(dim, hidden)),
            rng.uniform(-0.5, 0.5, size=hidden),
            rng.uniform(-0.5, 0.5, size=hidden),
            rng.uniform(-0.5, 0.5),
        )
        for rng in rngs
    ]
    # b1 and w_out as (b, 1, H) rows and b_out as (b, 1) broadcast against
    # (b, n, H) activations; w_out is used as a (b, H, 1) column in products
    w1, b1, w_out, b_out = (np.array(p) for p in zip(*init))
    b1 = b1[:, None, :]
    w_out = w_out[:, None, :]
    b_out = b_out[:, None]
    decay = np.asarray(decays, dtype=float)
    two_decay = 2.0 * decay[:, None, None]
    result = [np.empty_like(p) for p in (w1, b1, w_out, b_out)] + [np.empty(b)]
    # the (fits, rows, ...) epoch temporaries are written into these buffers,
    # of which the live fits use the leading slices; allocating them afresh
    # every epoch costs a page-fault storm once they pass malloc's mmap threshold
    act_buf, delta_buf = np.empty((2, b, n, hidden))
    out_buf = np.empty((b, n, 1))
    go_buf = np.empty((b, n))
    live = np.arange(b)
    prev = np.full(b, np.inf)
    lr = cfg.learning_rate
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.max_epochs):
            m = len(live)
            s = np.matmul(z, w1, out=act_buf[:m])
            np.add(s, b1, out=s)
            expit(s, out=s)
            resid = np.matmul(s, w_out.transpose(0, 2, 1), out=out_buf[:m])[:, :, 0]
            np.add(resid, b_out, out=resid)
            np.subtract(resid, y, out=resid)
            loss = np.square(resid, out=go_buf[:m]).sum(axis=1) / n + decay * (
                (w1**2).sum(axis=(1, 2))
                + (b1**2).sum(axis=(1, 2))
                + (w_out**2).sum(axis=(1, 2))
                + b_out[:, 0] ** 2
            )
            done = ~np.isfinite(loss) | (np.abs(prev - loss) < cfg.tol)
            if done.any():
                # a stopped fit keeps this epoch's parameters and reports its
                # previous loss, or the non-finite one if it diverged
                last = np.where(np.isfinite(loss), prev, loss)
                for out, p in zip(result, (w1, b1, w_out, b_out, last)):
                    out[live[done]] = p[done]
                keep = ~done
                if not keep.any():
                    break
                live, z, y, w1, b1, w_out, b_out, decay, two_decay, s, resid, loss = (
                    a[keep]
                    for a in (live, z, y, w1, b1, w_out, b_out, decay, two_decay, s, resid, loss)
                )
                m = len(live)
            prev = loss
            # go = 2 resid / n;  da = ((go * w_out) * s) * (1 - s)
            go = np.multiply(resid, 2.0, out=go_buf[:m])
            np.divide(go, n, out=go)
            grad_w_out = (s.transpose(0, 2, 1) @ go[:, :, None]).transpose(0, 2, 1)
            da = np.multiply(go[:, :, None], w_out, out=delta_buf[:m])
            np.multiply(da, s, out=da)
            np.multiply(da, np.subtract(1.0, s, out=s), out=da)
            w_out = w_out - lr * (grad_w_out + two_decay * w_out)
            b_out = b_out - lr * (go.sum(axis=1)[:, None] + two_decay[:, 0] * b_out)
            w1 = w1 - lr * (z.transpose(0, 2, 1) @ da + two_decay * w1)
            b1 = b1 - lr * (da.sum(axis=1)[:, None, :] + two_decay * b1)
        else:
            for out, p in zip(result, (w1, b1, w_out, b_out, prev)):
                out[live] = p
    w1, b1, w_out, b_out, last = result
    return w1, b1[:, 0, :], w_out[:, 0, :], b_out[:, 0], last


def _fit_rng(*key):
    return np.random.default_rng(np.random.SeedSequence(key))


def _train_fits(fits, cfg: TrainConfig):
    """Train independent fits, stacked by (hidden size, training-row count).

    Each fit is (hidden, decay, rng key, inputs, targets). A group whose
    float64 fits x rows x hidden block would pass `STACK_BYTES` trains as
    several stacks; a slice computes the same bits at any stack size. Each
    slice keeps the memory layout of its fit's inputs, because the BLAS
    products sum in a layout-dependent order. The stacks train concurrently
    on up to `len(os.sched_getaffinity(0))` threads (so `taskset` restricts
    them), largest block first; the matmuls and ufuncs release the GIL, and
    a stack's bits do not depend on which thread trains it or when, so the
    results are the same at any worker count. An exception in a stack
    re-raises here and cancels the stacks not yet started. Returns, per
    fit, its w1, b1, w_out, b_out and last loss.
    """
    groups = {}
    for k, (hidden, _, _, z, _) in enumerate(fits):
        groups.setdefault((hidden, len(z)), []).append(k)
    stacks = []
    for (hidden, n_rows), members in groups.items():
        size = max(1, STACK_BYTES // (8 * n_rows * hidden))
        stacks += [(hidden, n_rows, members[i : i + size]) for i in range(0, len(members), size)]
    # the largest block first, so the pool never ends on a large stack
    stacks.sort(key=lambda s: len(s[2]) * s[1] * s[0], reverse=True)

    def train(stack):
        hidden, _, chunk = stack
        _, decays, keys, zs, ys = zip(*(fits[k] for k in chunk))
        return _train_stack(
            np.stack(zs), np.stack(ys), hidden, decays, [_fit_rng(*key) for key in keys], cfg
        )

    trained = [None] * len(fits)
    # at least one worker: the final retraining has no fits when every CV cell diverged
    workers = max(1, min(len(os.sched_getaffinity(0)), len(stacks)))
    with ThreadPoolExecutor(workers) as pool:
        for (*_, chunk), params in zip(stacks, pool.map(train, stacks)):
            for i, k in enumerate(chunk):
                trained[k] = tuple(p[i] for p in params)
    return trained


def fnn_train(train_coords, stim, targets, cfg: TrainConfig):
    """Grid search + repeated k-fold CV for the one-step models of several coordinates.

    Parameters
    ----------
    train_coords : ndarray, shape (n, d)
        Reduced coordinates over the training window.
    stim : ndarray of shape (n, p) or None
        Stimulus inputs aligned with the coordinates.
    targets : sequence of int
        1-based coordinates to predict one step ahead.
    cfg : TrainConfig

    Returns
    -------
    list of (FnnModel, list of dict), one per target
        The model retrained on all one-step pairs with the target's winning
        (hidden size, decay), and its per-fold CV records
        {hidden, decay, repeat, fold, mse}. The fits of all targets train
        in one pass of stacks, and each target gets the models and records
        it gets when trained alone.
    """
    coords = np.atleast_2d(np.asarray(train_coords, dtype=float))
    n, d = coords.shape
    targets = list(targets)
    for target_index in targets:
        if not 1 <= target_index <= d:
            raise ValueError(f"target_index must lie in 1..{d}, got {target_index}")
    if n - 1 < cfg.folds:
        raise ValueError(
            f"need at least folds+1 = {cfg.folds + 1} training rows, got {n}"
        )
    grid = [(h, lam) for h in cfg.hidden_sizes for lam in cfg.decay_values]
    if not grid:
        raise ValueError("empty hyperparameter grid")
    z_all = _stack_inputs(coords[:-1], None if stim is None else np.asarray(stim)[:-1])
    y_all = coords[1:]
    n_pairs = n - 1

    partitions = cv_partitions(n_pairs, cfg.folds, cfg.repeats, cfg.seed)
    splits = [
        (ri, fi, val_idx, np.delete(np.arange(n_pairs), val_idx))
        for ri in range(cfg.repeats)
        for fi, val_idx in enumerate(partitions[ri])
    ]
    split_z = [z_all[rows] for *_, rows in splits]
    cv_fits, held_out = [], []
    for t in targets:
        split_y = [y_all[rows, t - 1] for *_, rows in splits]
        for gi, (hidden, lam) in enumerate(grid):
            for (ri, fi, val_idx, _), z, y in zip(splits, split_z, split_y):
                cv_fits.append((hidden, lam, (cfg.seed, t, gi, ri, fi), z, y))
                held_out.append((t, ri, fi, val_idx))
    records = []
    trained = _train_fits(cv_fits, cfg)
    for (t, ri, fi, val_idx), (hidden, lam, *_), (*params, loss) in zip(
        held_out, cv_fits, trained
    ):
        mse = float("nan")
        if np.isfinite(loss):
            # weights that overflow on the held-out rows count as diverged
            with np.errstate(over="ignore", invalid="ignore"):
                pred, _ = _forward_batch(*params, z_all[val_idx])
                err = float(np.mean((pred - y_all[val_idx, t - 1]) ** 2))
            if np.isfinite(err):
                mse = err
        records.append({"hidden": hidden, "decay": lam, "repeat": ri, "fold": fi, "mse": mse})
    per_target = len(grid) * len(splits)
    records = [records[i : i + per_target] for i in range(0, len(records), per_target)]

    # winners in target order; the first target to fail, in CV or in its
    # final retraining, raises, as when the targets train one at a time
    winners, cv_error = [], None
    for target_records in records:
        try:
            winners.append(best_grid_cell(target_records)[:2])
        except RuntimeError as exc:
            cv_error = exc
            break
    # the final fits train on z_all itself, in its own memory layout
    final = _train_fits(
        [
            (hidden, lam, (cfg.seed, t, grid.index((hidden, lam)), 999999), z_all, y_all[:, t - 1])
            for t, (hidden, lam) in zip(targets, winners)
        ],
        cfg,
    )
    results = []
    for t, (hidden, lam), (*params, loss), target_records in zip(
        targets, winners, final, records
    ):
        if not np.isfinite(loss):
            raise RuntimeError(f"final retraining diverged for hidden={hidden}, decay={lam}")
        w1, b1, w_out, b_out = params
        results.append(
            (FnnModel(w1=w1, b1=b1, w_out=w_out, b_out=b_out, target_index=t), target_records)
        )
    if cv_error is not None:
        raise cv_error
    return results


def best_grid_cell(records):
    """Winning (hidden, decay, mean CV mse) over a set of fold records.

    A cell with any non-finite fold mse counts as failed and is excluded;
    ties prefer the smaller hidden size, then the smaller decay.
    """
    cells = {}
    for r in records:
        cells.setdefault((r["hidden"], r["decay"]), []).append(r["mse"])
    scored = []
    for (hidden, decay), mses in cells.items():
        arr = np.asarray(mses, dtype=float)
        score = float(arr.mean()) if np.all(np.isfinite(arr)) else float("inf")
        scored.append((score, hidden, decay))
    score, hidden, decay = min(scored)
    if not np.isfinite(score):
        raise RuntimeError("all hyperparameter grid cells diverged")
    return hidden, decay, score


def fnn_forecast(models, init, stim_seq, h: int) -> np.ndarray:
    """Closed-loop h-step forecast of all coordinates.

    Step outputs are fed back as the next step's coordinate inputs; the test
    series itself is never consulted.
    """
    models = sorted(models, key=lambda m: m.target_index)
    d = len(models)
    if [m.target_index for m in models] != list(range(1, d + 1)):
        raise ValueError("need exactly one model per coordinate 1..d")
    init = np.asarray(init, dtype=float).ravel()
    if init.shape[0] != d:
        raise ValueError(f"init has length {init.shape[0]}, expected {d}")
    if h == 0:
        return np.zeros((0, d))
    if stim_seq is None:
        stim_seq = np.zeros((h, 0))
    stim_seq = np.asarray(stim_seq, dtype=float)
    if stim_seq.ndim == 1:
        stim_seq = stim_seq.reshape(h, -1)
    if stim_seq.shape[0] < h:
        raise ValueError(f"stimulus sequence covers {stim_seq.shape[0]} steps, horizon is {h}")
    out = np.empty((h, d))
    state = init
    for s in range(h):
        z = np.concatenate([state, stim_seq[s]])
        for j, model in enumerate(models):
            out[s, j] = fnn_forward(model, z[: d], z[d:])
        if not np.all(np.isfinite(out[s])):
            raise RuntimeError(f"forecast diverged (non-finite state) at step {s + 1}")
        state = out[s]
    return out


def training_digest(cfg: TrainConfig, train_coords, stim) -> str:
    """sha256 of the canonical JSON of `cfg`, then of the C-order bytes of the
    training coordinates and, when there is one, of the stimulus."""
    h = hashlib.sha256(json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":")).encode())
    for arr in (train_coords, stim):
        if arr is not None:
            h.update(np.asarray(arr, dtype=float).tobytes())
    return h.hexdigest()


_MODEL_KEYS = ("w1", "b1", "w_out", "b_out", "target_index")


def save_fnn_models(models, decays, path, trained_on: str) -> None:
    """All models in one JSON bundle, in target order, beside their `training_digest`."""
    entries = [
        {key: np.asarray(getattr(m, key)).tolist() for key in (*_MODEL_KEYS, "hidden_size")}
        | {"decay": decay}
        for m, decay in zip(models, decays)
    ]
    artifacts.write_json(path, {"models": entries, "trained_on": trained_on})


def load_fnn_models(path, trained_on: str) -> list:
    """The models of a `save_fnn_models` bundle whose digest is `trained_on`.

    Another digest, or an entry that is not a model, raises ValueError naming
    the path (and `models[i]`).
    """
    doc = artifacts.read_json(path, "model file", ("models", "trained_on"))
    if doc["trained_on"] != trained_on:
        raise ValueError(
            f"{path}: the models were trained on other coordinates, stimulus or fnn "
            "settings; rerun train"
        )
    if not isinstance(doc["models"], list):
        raise ValueError(f"corrupt model file {path}: 'models' is not a list")
    models = []
    for i, entry in enumerate(doc["models"]):
        try:
            missing = [key for key in _MODEL_KEYS if key not in entry]
            if missing:
                raise ValueError(f"missing {missing[0]!r}")
            models.append(FnnModel(**{key: entry[key] for key in _MODEL_KEYS}))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"corrupt model file {path}: models[{i}]: {exc}") from None
    return models


def write_cv_report(records_by_target, path) -> None:
    """One CV table: a row per target coordinate, grid cell, repeat and fold."""
    rows = (
        [t, r["hidden"], float(r["decay"]), r["repeat"], r["fold"], float(r["mse"])]
        for t, records in records_by_target.items()
        for r in records
    )
    artifacts.write_rows(path, ["coord", "hidden", "decay", "repeat", "fold", "mse"], rows)
