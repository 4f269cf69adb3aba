"""Output checks computed apart from the program.

Nothing here imports dmrom. Each check reads run artifacts that the README
documents (never the GH bundle's copy of the training block) and compares
them with numpy recomputations from the series the benchmark generated.
A check raises CheckFailed with a one-line reason.
"""

from __future__ import annotations

import csv
import json
import os
import shutil

import numpy as np

from workloads import CONTRASTS, stimulus_epochs

RIDGE = 1e-10                 # the selection method's jitter on each local normal equation
BLOCK_TOL = 1e-8              # standardized values are O(1)
METRIC_RTOL = 1e-9
EIGEN_TOL = 1e-8
ER_TOL = 1e-6
KOOPMAN_RTOL = 1e-6
TSTAT_RTOL = 1e-8
BELOW_STD_MIN = 0.90          # criterion 7 bounds
BEAT_NRW_MIN = 0.60


class CheckFailed(Exception):
    pass


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_matrix(path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array(rows[1:], dtype=float).reshape(len(rows) - 1, len(rows[0]))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def standardize(raw: np.ndarray) -> np.ndarray:
    """Per-channel least-squares line removed, scaled to unit sample std (full series)."""
    n = raw.shape[0]
    basis = np.column_stack([np.ones(n), np.arange(n, dtype=float)])
    coef, *_ = np.linalg.lstsq(basis, raw, rcond=None)
    resid = raw - basis @ coef
    return resid / resid.std(axis=0, ddof=1)


def squared_distances(x: np.ndarray) -> np.ndarray:
    sq = np.einsum("ij,ij->i", x, x)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return d2


def _upper(a: np.ndarray) -> np.ndarray:
    return a[np.triu_indices(a.shape[0], 1)]


class Context:
    """What the checks know about one round: the workload and the series it generated."""

    def __init__(self, workload, raw: np.ndarray, run_dir: str, program=None):
        self.workload = workload
        self.run_dir = run_dir
        self.program = program      # run.Program, for the checks that rerun a stage
        self.series = standardize(raw)
        self.train = self.series[: workload.n_train]
        self.test = self.series[workload.n_train:]
        self._cache = {}

    def path(self, *parts) -> str:
        return os.path.join(self.run_dir, *parts)

    def cached(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def eigen(self):
        return self.cached("eigen", lambda: (
            np.loadtxt(self.path("embedding", "eigenvalues.csv"), skiprows=1, ndmin=1),
            read_matrix(self.path("embedding", "eigenvectors.csv")),
            read_json(self.path("embedding", "meta.json")),
        ))

    def rmse_l2(self):
        """Recomputed per-channel (rmse, l2) for each method, from the ambient forecasts."""
        def compute():
            out = {}
            for method in ("fnn_gh", "koopman", "nrw"):
                pred = read_matrix(self.path("forecasts", f"{method}_ambient.csv"))
                _require(pred.shape == self.test.shape,
                         f"{method} forecast shape {pred.shape} != test block {self.test.shape}")
                sq = np.sum((pred - self.test) ** 2, axis=0)
                out[method] = (np.sqrt(sq / self.test.shape[0]), np.sqrt(sq))
            return out
        return self.cached("rmse_l2", compute)


def check_blocks(ctx: Context) -> None:
    """train/test ambient blocks equal our own detrend + standardization and split."""
    for name, ref in (("train_ambient.csv", ctx.train), ("test_ambient.csv", ctx.test)):
        got = read_matrix(ctx.path("embedding", name))
        _require(got.shape == ref.shape, f"{name}: shape {got.shape} != {ref.shape}")
        err = float(np.max(np.abs(got - ref)))
        _require(err < BLOCK_TOL, f"{name}: max deviation {err:.2e} from own standardization")


def check_comparison(ctx: Context) -> None:
    """comparison.csv rmse and l2 equal a recomputation from the ambient forecasts."""
    ref = ctx.rmse_l2()
    channels = {name: j for j, name in enumerate(_channel_header(ctx))}
    seen = 0
    with open(ctx.path("reports", "comparison.csv"), newline="") as fh:
        for row in csv.DictReader(fh):
            j = channels[row["region"]]
            rmse, l2 = float(ref[row["method"]][0][j]), float(ref[row["method"]][1][j])
            for label, got, want in (("rmse", float(row["rmse"]), rmse), ("l2", float(row["l2"]), l2)):
                _require(abs(got - want) <= METRIC_RTOL * max(abs(want), 1e-12),
                         f"comparison.csv {row['region']}/{row['method']} {label} {got!r} != {want!r}")
            seen += 1
    _require(seen == 3 * len(channels), f"comparison.csv has {seen} rows, expected {3 * len(channels)}")


def _channel_header(ctx: Context) -> list:
    with open(ctx.path("embedding", "test_ambient.csv"), newline="") as fh:
        return next(csv.reader(fh))


def check_spectrum(ctx: Context) -> None:
    """P psi = lam psi for a diffusion matrix built here from the train block; lam_0 = 1, descending."""
    vals, vecs, meta = ctx.eigen()
    k = ctx.workload.k
    _require(vals.shape == (k + 1,) and vecs.shape == (ctx.train.shape[0], k + 1),
             f"spectrum shapes {vals.shape}, {vecs.shape} for k={k}, N={ctx.train.shape[0]}")
    _require(meta["alpha"] == 1.0 and meta["t"] == 0, f"unexpected alpha/t in meta: {meta}")
    d2 = squared_distances(ctx.train)
    sigma = float(np.median(_upper(d2))) / 2.0
    _require(abs(meta["sigma"] - sigma) <= 1e-9 * sigma,
             f"kernel scale {meta['sigma']!r} != median squared distance / 2 = {sigma!r}")
    w = np.exp(-d2 / (2.0 * sigma))
    q = w.sum(axis=1)
    w /= np.outer(q, q)
    p = w / w.sum(axis=1)[:, None]
    resid = float(np.max(np.abs(p @ vecs - vecs * vals[None, :])))
    _require(resid < EIGEN_TOL, f"eigen-residual max|P psi - lam psi| = {resid:.2e}")
    _require(abs(vals[0] - 1.0) < 1e-10, f"lam_0 = {vals[0]!r}, expected 1")
    _require(np.all(np.diff(vals) <= 1e-12), "eigenvalues are not in descending order")


def loo_residuals(psi: np.ndarray, scale_fraction: float) -> np.ndarray:
    """Normalized leave-one-out local-linear residuals, all N solves batched per eigenvector."""
    n, k = psi.shape
    er = np.ones(k)
    for l in range(1, k):
        pred, target = psi[:, :l], psi[:, l]
        d2 = squared_distances(pred)
        h = scale_fraction * float(np.median(np.sqrt(_upper(d2))))
        w = np.exp(-d2 / (2.0 * h * h))
        np.fill_diagonal(w, 0.0)
        z = np.hstack([np.ones((n, 1)), pred])
        m = z.shape[1]
        gram = (w @ (z[:, :, None] * z[:, None, :]).reshape(n, m * m)).reshape(n, m, m)
        gram += RIDGE * np.eye(m)
        rhs = w @ (z * target[:, None])
        theta = np.linalg.solve(gram, rhs[:, :, None])[:, :, 0]
        fit = np.einsum("ij,ij->i", z, theta)
        er[l] = np.sqrt(np.sum((target - fit) ** 2) / np.sum(target ** 2))
    return er


def check_parsimony(ctx: Context) -> None:
    """parsimony.json `selected` is the top-d of our own leave-one-out residual vector."""
    report = read_json(ctx.path("embedding", "parsimony.json"))
    _, vecs, _ = ctx.eigen()
    er = ctx.cached("er", lambda: loo_residuals(vecs[:, 1:], report["scale_fraction"]))
    dev = float(np.max(np.abs(np.asarray(report["er"]) - er)))
    _require(dev < ER_TOL, f"parsimony er deviates from own residuals by {dev:.2e}")
    sel = report["selected"]
    d = ctx.workload.d
    _require(len(sel) == d and sel == sorted(set(sel)) and all(1 <= i <= len(er) for i in sel),
             f"selected {sel} is not {d} distinct ascending indices in 1..{len(er)}")
    chosen = er[np.asarray(sel) - 1]
    rest = np.delete(er, np.asarray(sel) - 1)
    _require(rest.size == 0 or chosen.min() >= rest.max() - 1e-9,
             f"selected {sel} is not the top-{d} of residuals {np.round(er, 6).tolist()}")


def _train_coords(ctx: Context) -> np.ndarray:
    vals, vecs, meta = ctx.eigen()
    sel = np.asarray(read_json(ctx.path("embedding", "parsimony.json"))["selected"])
    return vecs[:, sel] * (vals[sel] ** int(meta["t"]))[None, :]


def check_koopman(ctx: Context) -> None:
    """koopman_reduced equals powers of our own least-squares one-step matrix."""
    coords = _train_coords(ctx)
    u_t, *_ = np.linalg.lstsq(coords[:-1], coords[1:], rcond=None)   # y_{i+1} = y_i @ u_t
    got = read_matrix(ctx.path("forecasts", "koopman_reduced.csv"))
    h = ctx.test.shape[0]
    _require(got.shape == (h, coords.shape[1]), f"koopman_reduced shape {got.shape}")
    want = np.empty_like(got)
    y = coords[-1]
    for s in range(h):
        y = y @ u_t
        want[s] = y
    scale = float(np.max(np.abs(coords)))
    err = float(np.max(np.abs(got - want)))
    _require(err <= KOOPMAN_RTOL * scale,
             f"koopman_reduced deviates from U^s y_last by {err:.2e} (scale {scale:.2e})")


def check_glm(ctx: Context) -> None:
    """Contrast t-statistics and betas equal an independent OLS fit of the full series."""
    n = ctx.series.shape[0]
    u = np.zeros((n, 2))
    for cond, start, end in stimulus_epochs(n):
        u[start:end, "AB".index(cond)] = 1.0
    beta, _, rank, _ = np.linalg.lstsq(u, ctx.series, rcond=None)
    resid = ctx.series - u @ beta
    sigma2 = np.sum(resid ** 2, axis=0) / (n - rank)
    gram_inv = np.linalg.inv(u.T @ u)
    for name, c in CONTRASTS.items():
        c = np.asarray(c)
        t = (c @ beta) / np.sqrt(sigma2 * float(c @ gram_inv @ c))
        with open(ctx.path("reports", f"activity_{name}.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        _require(len(rows) == ctx.series.shape[1], f"activity_{name}.csv has {len(rows)} rows")
        got_t = np.array([float(r["t"]) for r in rows])
        got_b = np.array([[float(r["beta_A"]), float(r["beta_B"])] for r in rows])
        dev_t = float(np.max(np.abs(got_t - t) / np.maximum(np.abs(t), 1.0)))
        dev_b = float(np.max(np.abs(got_b - beta.T)))
        _require(dev_t < TSTAT_RTOL, f"activity_{name}.csv t deviates by {dev_t:.2e}")
        _require(dev_b < TSTAT_RTOL, f"activity_{name}.csv betas deviate by {dev_b:.2e}")


def check_criterion7(ctx: Context) -> None:
    """Both methods beat the test std on >= 90% and the nrw baseline on >= 60% of channels."""
    rmse = {method: errors[0] for method, errors in ctx.rmse_l2().items()}
    std = ctx.test.std(axis=0, ddof=1)
    for method in ("fnn_gh", "koopman"):
        below = float(np.mean(rmse[method] < std))
        beat = float(np.mean(rmse[method] < rmse["nrw"]))
        _require(below >= BELOW_STD_MIN, f"{method}: only {below:.2f} of channels below test std")
        _require(beat >= BEAT_NRW_MIN, f"{method}: only {beat:.2f} of channels beat nrw")


def check_purity(ctx: Context) -> None:
    """A forecast rerun on a mutated test block leaves fnn_gh and koopman bytes unchanged."""
    clone = ctx.run_dir + "_mutated"
    shutil.rmtree(clone, ignore_errors=True)
    shutil.copytree(ctx.run_dir, clone)
    try:
        test_csv = os.path.join(clone, "embedding", "test_ambient.csv")
        with open(test_csv) as fh:
            lines = fh.read().splitlines()
        with open(test_csv, "w") as fh:
            fh.write(lines[0] + "\n")
            for line in lines[1:]:
                fh.write(",".join(repr(2.0 * float(c) + 0.75) for c in line.split(",")) + "\n")
        cfg = read_json(os.path.join(os.path.dirname(ctx.run_dir), "config.json"))
        cfg["output_dir"] = os.path.basename(clone)
        cfg_path = clone + ".json"
        with open(cfg_path, "w") as fh:
            json.dump(cfg, fh)
        rc, _, _ = ctx.program.run(
            ctx.program.cli + ["forecast", "--config", os.path.basename(cfg_path)],
            os.path.dirname(ctx.run_dir), "forecast_mutated.log",
        )
        _require(rc == 0, f"forecast on mutated test block exited {rc}")
        for name in ("fnn_gh_ambient.csv", "koopman_ambient.csv"):
            with open(os.path.join(ctx.run_dir, "forecasts", name), "rb") as a, \
                    open(os.path.join(clone, "forecasts", name), "rb") as b:
                _require(a.read() == b.read(), f"{name} changed when the test block changed")
    finally:
        shutil.rmtree(clone, ignore_errors=True)
        if os.path.exists(clone + ".json"):
            os.remove(clone + ".json")


def checks_for(workload) -> list:
    """(name, fn) pairs that apply to a workload, in the order they run."""
    out = [
        ("blocks", check_blocks),
        ("comparison", check_comparison),
        ("spectrum", check_spectrum),
        ("parsimony", check_parsimony),
        ("koopman", check_koopman),
    ]
    if workload.stimulus:
        out.append(("glm", check_glm))
    if workload.acceptance:
        out += [("criterion7", check_criterion7), ("purity", check_purity)]
    return out
