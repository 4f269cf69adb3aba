"""Per-coordinate feedforward ROMs with weight decay and cross-validated grids.

Each embedding coordinate gets its own single-hidden-layer network mapping
(current coordinates, current stimulus) to that coordinate one step ahead.
A network is its input-to-hidden block u = [w1ᵀ | b1], one row of input
weights and bias per hidden unit, which acts on the inputs with a ones
column appended, and its output weights and bias; the trainer, the bundle
and the forecast all hold u in that one layout.
Hidden size and weight decay are chosen by grid search under repeated k-fold
cross-validation over the one-step training pairs. Every fit is exactly
`EPOCHS` full-batch gradient steps of the fixed size `LEARNING_RATE`;
the fits of all coordinates train together as stacked gradient descents in
a hidden-major layout with the hidden bias folded into the input product,
and `workers.run` deals the stacks to one share per CPU (`taskset`
restricts them): this process trains one share and a forked worker process
each other, since the short numpy calls of an epoch hold the GIL too often
for threads to overlap. The
CV fits, which only rank the grid cells, train in float32; the final
retrains, which make the models, in float64. Every model and CV record is
the same bits at any worker count. Forecasts
step all trained networks closed-loop as one stacked layer, feeding outputs
back as inputs. The logistic function goes through numpy's vectorized
`exp`, so the bits depend on the SIMD level numpy dispatches the float32
and float64 `exp` to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import artifacts, workers


@dataclass(frozen=True)
class FnnModel:
    """One-step predictor for a single embedding coordinate.

    Output is w_out . S(u [z, 1]) + b_out with z the concatenated
    (coordinates, stimulus) input, S the logistic function and
    u = [w1ᵀ | b1] the input-to-hidden block: row k holds hidden unit k's
    input weights w1ᵀ, then its bias b1. u is held C-ordered, the layout the
    trainer computes in.
    """

    u: np.ndarray         # H x (d+p+1) input-to-hidden weights and biases
    w_out: np.ndarray     # H hidden-to-output weights
    b_out: float
    target_index: int     # 1-based coordinate this model predicts

    def __post_init__(self):
        u = np.array(self.u, dtype=float, ndmin=2, order="C")
        w_out = np.asarray(self.w_out, dtype=float).ravel()
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "w_out", w_out)
        object.__setattr__(self, "b_out", float(self.b_out))
        if len(u) < 1:
            raise ValueError("hidden layer must have at least one unit")
        if u.ndim != 2 or u.shape[1] < 2 or w_out.shape != (len(u),):
            raise ValueError(f"inconsistent parameter shapes: u {u.shape}, w_out {w_out.shape}")
        for name, arr in (("u", u), ("w_out", w_out)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite values in {name}")
        if not np.isfinite(self.b_out):
            raise ValueError("non-finite output bias")
        if self.target_index < 1:
            raise ValueError(f"target_index must be >= 1, got {self.target_index}")

    @property
    def hidden_size(self) -> int:
        return self.u.shape[0]

    @property
    def input_dim(self) -> int:
        return self.u.shape[1] - 1


@dataclass(frozen=True)
class TrainConfig:
    """The grid, the cross-validation design and the seed of FNN training."""

    hidden_sizes: tuple[int, ...] = (2, 4, 8, 16)
    decay_values: tuple[float, ...] = (1e-4, 1e-3, 1e-2, 1e-1)
    folds: int = 10
    repeats: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("hidden_sizes", "decay_values"):
            values = list(getattr(self, name))
            if not values:
                raise ValueError(f"fnn.{name} must not be empty")
            if len(set(values)) < len(values):
                raise ValueError(f"fnn.{name} repeat a value: {values}")
        if any(h < 1 for h in self.hidden_sizes):
            raise ValueError(f"fnn.hidden_sizes must be >= 1, got {list(self.hidden_sizes)}")
        if any(v <= 0 for v in self.decay_values):
            raise ValueError(f"fnn.decay_values must be positive, got {list(self.decay_values)}")
        for name, least in (("folds", 2), ("repeats", 1), ("seed", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"fnn.{name} must be >= {least}, got {getattr(self, name)}")


def _stack_inputs(psi, stim) -> np.ndarray:
    """The (n, d + p) inputs of (n, d) coordinates and an (n, p) stimulus, p >= 0."""
    psi = np.asarray(psi, dtype=float)
    stim = np.asarray(stim, dtype=float)
    if stim.shape[0] != psi.shape[0]:
        raise ValueError(
            f"stimulus rows ({stim.shape[0]}) do not match coordinate rows ({psi.shape[0]})"
        )
    return np.hstack([psi, stim])


def _sigmoid(x):
    """The logistic function 1/(1+exp(-x)), computed in place in `x` and returned.

    numpy's `exp` is SIMD-vectorized where `scipy.special.expit` is not. The
    result is within 3 ULP of `expit`, which computes the same expression
    through libm's `exp`; below about -709.78, exp(-x) overflows and both
    give 0, with no warning here.
    """
    return _sigmoid_of_negated(np.negative(x, out=x))


def _sigmoid_of_negated(x):
    """The logistic function of -x, 1/(1+exp(x)), in place in `x`; see `_sigmoid`."""
    with np.errstate(over="ignore"):
        np.exp(x, out=x)
        np.add(x, 1.0, out=x)
        return np.divide(1.0, x, out=x)


def _forward(u, w_out, b_out, z1):
    """Outputs of the network (u, w_out, b_out) on the rows of `z1`, inputs with a ones column."""
    return _sigmoid(z1 @ u.T) @ w_out + b_out


def fnn_forward(model: FnnModel, psi, stim=()) -> float:
    """Network output for a single (coordinates, stimulus) input."""
    z = np.concatenate([np.ravel(psi), np.ravel(stim)]).astype(float)
    if z.shape[0] != model.input_dim:
        raise ValueError(f"input length {z.shape[0]} does not match model width {model.input_dim}")
    return float(_forward(model.u, model.w_out, model.b_out, _append_ones(z[None, :]))[0])


def fnn_loss(model: FnnModel, psi, stim, targets, decay: float = 0.0) -> float:
    """Mean squared error plus decay times the squared norm of all parameters."""
    y = np.asarray(targets, dtype=float).ravel()
    out = _forward(model.u, model.w_out, model.b_out, _append_ones(_stack_inputs(psi, stim)))
    penalty = np.sum(model.u**2) + np.sum(model.w_out**2) + model.b_out**2
    return float(np.mean((out - y) ** 2) + decay * penalty)


def fnn_gradient(model: FnnModel, psi, stim, targets, decay: float = 0.0) -> dict:
    """Exact gradients of `fnn_loss` with respect to u, w_out and b_out.

    Computed in the trainer's arithmetic, so that one training epoch steps by
    exactly this gradient: hidden-major, with u against a ones column of the
    inputs.
    """
    z = _stack_inputs(psi, stim)
    y = np.asarray(targets, dtype=float).ravel()
    if z.shape[0] == 0:
        raise ValueError("empty batch")
    if z.shape[0] != y.shape[0]:
        raise ValueError(f"batch size mismatch: {z.shape[0]} inputs, {y.shape[0]} targets")
    z1 = _append_ones(z)
    s = _sigmoid(model.u @ z1.T)
    go = 2.0 * (model.w_out @ s + model.b_out - y) / y.shape[0]
    da = (go[None, :] * model.w_out[:, None]) * s * (1.0 - s)
    return {
        "u": da @ z1 + 2.0 * decay * model.u,
        "w_out": s @ go + 2.0 * decay * model.w_out,
        "b_out": float(go.sum() + 2.0 * decay * model.b_out),
    }


def _append_ones(z):
    """A C-ordered copy of `z` with a column of ones after its last, in its dtype."""
    out = np.empty((*z.shape[:-1], z.shape[-1] + 1), z.dtype)
    out[..., :-1] = z
    out[..., -1] = 1.0
    return out


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


# cap on one stack's fits x rows x hidden block, in bytes of the stack's
# dtype: past the caches, a larger stack trains slower per fit
STACK_BYTES = 2 << 20

# the dtype of the cross-validation fits, which only rank the grid cells; the
# final retrains, which make the models, train in float64
CV_DTYPE = np.float32

# the gradient step of every fit: the inputs are unit-RMS diffusion-map
# coordinates (and the stimulus design) at any training length, so one step
# fits every run; 0.2 is the step every config set while it was a knob
LEARNING_RATE = 0.2

# the gradient steps of every fit: the networks are small and chosen by the
# cross-validated grid, so the step count is a solver detail, not a model
# setting; 2000 is the count every config set while it was a knob
EPOCHS = 2000


def _train_stack(z, y, hidden, decays, rngs, epochs: int):
    """Full-batch gradient descent on a stack of independent fits.

    Slice i of `z` (b, n, dim) and `y` (b, n) is one fit with weight decay
    `decays[i]`, initialized uniformly from `rngs[i]` (w1 as (dim, H), b1,
    w_out, b_out in that order). The stack computes in the dtype of `z`:
    the parameters, decays, losses and epoch buffers all take it. Every fit
    takes exactly `epochs` steps of size lr = `LEARNING_RATE`.

    The epoch runs hidden-major, with (b, H, n) activations. The inputs get
    a ones column, and each fit's u = [w1ᵀ | b1] is held negated as
    v = -u of shape (b, H, dim+1). So v @ [z | 1].T is minus the
    pre-activation, whose exp the logistic function takes directly, and b1's
    gradient is the last column of the input gradient. The step forms
    ((go * w_out) * s) * (s - 1), which is exactly -da, and takes
    v -= lr (-da @ [z | 1] + 2 decay v): the plain update of u with its
    sign flipped, bit for bit. Each slice's arithmetic is that of a
    lone fit, bit for bit: a stacked `@` is one BLAS call per slice,
    elementwise expressions keep one operand order, and every reduction
    runs per slice along the fit's own axis.

    Returns u = -v (b, H, dim+1), w_out (b, H), b_out (b,) and each fit's
    training loss at those parameters, all in the stack's dtype. A fit whose
    parameters overflow goes on as NaN, so a diverged fit returns a
    non-finite loss.
    """
    b, n, dim = z.shape
    dtype = z.dtype
    y = y.astype(dtype, copy=False)
    init = [
        (
            rng.uniform(-0.5, 0.5, size=(dim, hidden)),
            rng.uniform(-0.5, 0.5, size=hidden),
            rng.uniform(-0.5, 0.5, size=hidden),
            rng.uniform(-0.5, 0.5),
        )
        for rng in rngs
    ]
    w1, b1, w_out, b_out = (np.array(p, dtype) for p in zip(*init))
    v = np.empty((b, hidden, dim + 1), dtype)
    np.negative(w1.transpose(0, 2, 1), out=v[:, :, :dim])
    np.negative(b1, out=v[:, :, dim])
    # w_out as a (b, H, 1) column broadcast against (b, H, n) activations, and
    # as a (b, 1, H) row in the output product; b_out as (b, 1) against (b, n)
    # outputs
    w_out = w_out[:, :, None]
    b_out = b_out[:, None]
    z = _append_ones(z)
    zt = z.transpose(0, 2, 1)
    decay = np.asarray(decays, dtype)
    two_decay = 2.0 * decay[:, None, None]
    # the (fits, hidden, rows) epoch temporaries are written into these
    # buffers; allocating them afresh every epoch costs a page-fault storm
    # once they pass malloc's mmap threshold
    act_buf, delta_buf = np.empty((2, b, hidden, n), dtype)
    out_buf = np.empty((b, 1, n), dtype)
    go_buf = np.empty((b, n), dtype)
    lr = LEARNING_RATE
    with np.errstate(over="ignore", invalid="ignore"):
        # `epochs` steps, then one more forward pass for the loss of the
        # parameters returned
        for epoch in range(epochs + 1):
            s = _sigmoid_of_negated(np.matmul(v, zt, out=act_buf))
            resid = np.matmul(w_out.transpose(0, 2, 1), s, out=out_buf)[:, 0, :]
            np.add(resid, b_out, out=resid)
            np.subtract(resid, y, out=resid)
            if epoch == epochs:
                break
            # go = 2 resid / n;  -da = ((go * w_out) * s) * (s - 1)
            go = np.multiply(resid, 2.0, out=go_buf)
            np.divide(go, n, out=go)
            grad_w_out = s @ go[:, :, None]
            neg_da = np.multiply(go[:, None, :], w_out, out=delta_buf)
            np.multiply(neg_da, s, out=neg_da)
            np.multiply(neg_da, np.subtract(s, 1.0, out=s), out=neg_da)
            w_out = w_out - lr * (grad_w_out + two_decay * w_out)
            b_out = b_out - lr * (go.sum(axis=1)[:, None] + two_decay[:, 0] * b_out)
            v = v - lr * (neg_da @ z + two_decay * v)
        loss = np.square(resid, out=go_buf).sum(axis=1) / n + decay * (
            (v**2).sum(axis=(1, 2)) + (w_out**2).sum(axis=(1, 2)) + b_out[:, 0] ** 2
        )
    return -v, w_out[:, :, 0], b_out[:, 0], loss


def _fit_rng(*key):
    return np.random.default_rng(np.random.SeedSequence(key))


def _stacks(fits, parts: int):
    """The fits grouped by (hidden size, training-row count, dtype), cut into stacks.

    A group whose fits x rows x hidden block, in bytes of its dtype, would
    pass `STACK_BYTES` is cut into several stacks, and every group into at
    least ``parts`` while it has the fits. Returns (block bytes, hidden,
    fit indices) per stack.
    """
    groups = {}
    for k, (hidden, _, _, z, _) in enumerate(fits):
        groups.setdefault((hidden, len(z), z.dtype), []).append(k)
    stacks = []
    for (hidden, n_rows, dtype), members in groups.items():
        fit_bytes = dtype.itemsize * n_rows * hidden
        size = min(max(1, STACK_BYTES // fit_bytes), -(-len(members) // parts))
        stacks += [
            (fit_bytes * len(chunk), hidden, chunk)
            for chunk in (members[i : i + size] for i in range(0, len(members), size))
        ]
    return stacks


def _train_fits(fits, epochs: int):
    """Train independent fits, stacked by (hidden size, training-row count, dtype).

    Each fit is (hidden, decay, rng key, inputs, targets), and takes `epochs`
    steps in the dtype of its inputs; a slice computes the same bits at any
    stack size (see `_stacks`). With W = `workers.cpus()` CPUs (so `taskset`
    restricts them), a pass that would have fewer than W stacks cuts every
    group into at least W. `workers.run` deals the stacks to W shares, largest block
    first, each onto the lightest share: this process trains share 0 and a
    forked worker each other share, free of the GIL. The results are the
    same bits at any worker count. An exception in a stack re-raises here as
    itself, and a worker that dies without a result raises RuntimeError
    naming its pid and wait status. Returns, per fit, its u, w_out, b_out
    and training loss, in float64.
    """
    cpus = workers.cpus()
    stacks = _stacks(fits, 1)
    if len(stacks) < cpus:
        stacks = _stacks(fits, cpus)

    def train(stack):
        _, hidden, chunk = stack
        _, decays, keys, zs, ys = zip(*(fits[k] for k in chunk))
        params = _train_stack(
            np.stack(zs), np.stack(ys), hidden, decays, [_fit_rng(*key) for key in keys], epochs
        )
        return [np.asarray(p, np.float64) for p in params]

    results = workers.run(train, stacks, "FNN training worker", [s[0] for s in stacks])
    trained = [None] * len(fits)
    for (*_, chunk), params in zip(stacks, results):
        for i, k in enumerate(chunk):
            trained[k] = tuple(p[i] for p in params)
    return trained


def fnn_train(train_coords, stim, targets, cfg: TrainConfig):
    """Grid search + repeated k-fold CV for the one-step models of several coordinates.

    Parameters
    ----------
    train_coords : ndarray, shape (n, d)
        Reduced coordinates over the training window.
    stim : ndarray of shape (n, p), p >= 0
        Stimulus inputs aligned with the coordinates; (n, 0) without one.
    targets : sequence of int
        1-based coordinates to predict one step ahead.
    cfg : TrainConfig
        The grid, the CV design and the seed; every fit takes `EPOCHS` steps.

    Returns
    -------
    list of (FnnModel, list of dict), one per target
        The model retrained on all one-step pairs with the target's winning
        (hidden size, decay), and its per-fold CV records
        {hidden, decay, repeat, fold, mse}. The fits of all targets train
        in one pass of stacks, and each target gets the models and records
        it gets when trained alone. The CV fits train in `CV_DTYPE`; their
        held-out mse and the final retrain are float64. A fit whose training
        loss at its final parameters is not finite has diverged: a diverged
        CV fold, or one whose weights overflow on its held-out rows, records
        a NaN mse, and a diverged final retrain raises RuntimeError.
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
    z_all = _stack_inputs(coords[:-1], np.asarray(stim)[:-1])
    z1_all = _append_ones(z_all)
    y_all = coords[1:]
    n_pairs = n - 1

    partitions = cv_partitions(n_pairs, cfg.folds, cfg.repeats, cfg.seed)
    splits = [
        (ri, fi, val_idx, np.delete(np.arange(n_pairs), val_idx))
        for ri in range(cfg.repeats)
        for fi, val_idx in enumerate(partitions[ri])
    ]
    split_z = [z_all[rows].astype(CV_DTYPE) for *_, rows in splits]
    cv_fits, held_out = [], []
    for t in targets:
        split_y = [y_all[rows, t - 1].astype(CV_DTYPE) for *_, rows in splits]
        for gi, (hidden, lam) in enumerate(grid):
            for (ri, fi, val_idx, _), z, y in zip(splits, split_z, split_y):
                cv_fits.append((hidden, lam, (cfg.seed, t, gi, ri, fi), z, y))
                held_out.append((t, ri, fi, val_idx))
    records = []
    trained = _train_fits(cv_fits, EPOCHS)
    for (t, ri, fi, val_idx), (hidden, lam, *_), (*params, loss) in zip(
        held_out, cv_fits, trained
    ):
        mse = float("nan")
        if np.isfinite(loss):
            # weights that overflow on the held-out rows count as diverged
            with np.errstate(over="ignore", invalid="ignore"):
                pred = _forward(*params, z1_all[val_idx])
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
    final = _train_fits(
        [
            (hidden, lam, (cfg.seed, t, grid.index((hidden, lam)), 999999), z_all, y_all[:, t - 1])
            for t, (hidden, lam) in zip(targets, winners)
        ],
        EPOCHS,
    )
    results = []
    for t, (hidden, lam), (*params, loss), target_records in zip(
        targets, winners, final, records
    ):
        if not np.isfinite(loss):
            raise RuntimeError(f"final retraining diverged for hidden={hidden}, decay={lam}")
        results.append((FnnModel(*params, target_index=t), target_records))
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
    stim_seq = np.asarray(stim_seq, dtype=float)
    if stim_seq.shape[0] < h:
        raise ValueError(f"stimulus sequence covers {stim_seq.shape[0]} steps, horizon is {h}")
    width = d + stim_seq.shape[1]
    for model in models:
        if model.input_dim != width:
            raise ValueError(f"input length {width} does not match model width {model.input_dim}")
    # the d networks as one layer of all their hidden units against the state
    # z = [coordinates, stimulus, 1]; model j's output is the sum of its own
    # units' segment of w_out * S(u z)
    u = np.concatenate([m.u for m in models])
    w_out = np.concatenate([m.w_out for m in models])
    b_out = np.array([m.b_out for m in models])
    starts = np.cumsum([0] + [m.hidden_size for m in models[:-1]])
    out = np.empty((h, d))
    z = np.ones(width + 1)
    act = np.empty(len(u))
    z[:d] = init
    for s in range(h):
        z[d:width] = stim_seq[s]
        np.multiply(_sigmoid(np.matmul(u, z, out=act)), w_out, out=act)
        np.add(np.add.reduceat(act, starts), b_out, out=out[s])
        if not np.all(np.isfinite(out[s])):
            raise RuntimeError(f"forecast diverged (non-finite state) at step {s + 1}")
        z[:d] = out[s]
    return out


def save_fnn_models(models, decays, path) -> None:
    """All models in one JSON bundle, in target order, each beside its decay."""
    keys = ("u", "w_out", "b_out", "target_index", "hidden_size")
    entries = [
        {key: np.asarray(getattr(m, key)).tolist() for key in keys} | {"decay": decay}
        for m, decay in zip(models, decays)
    ]
    artifacts.write_json(path, {"models": entries})


def write_cv_report(records_by_target, path) -> None:
    """One CV table: a row per target coordinate, grid cell, repeat and fold."""
    rows = (
        [t, r["hidden"], float(r["decay"]), r["repeat"], r["fold"], float(r["mse"])]
        for t, records in records_by_target.items()
        for r in records
    )
    artifacts.write_rows(path, ["coord", "hidden", "decay", "repeat", "fold", "mse"], rows)

