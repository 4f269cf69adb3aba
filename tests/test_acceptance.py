"""Acceptance gate: nine numbered criteria, one printed PASS/FAIL line each.

Criteria 1-6 exercise single modules against analytic or synthetic oracles;
criteria 7-9 share one full pipeline run on the noise-free limit-cycle
dataset and check forecast quality, determinism, and forecast purity.
Every criterion carries a wall-clock budget asserted alongside the numerics.
"""

import csv
import json
import pathlib
import shutil
import time
from contextlib import contextmanager

import numpy as np
import pytest

import conftest as shared
from conftest import fd_gradient, floor_basis_fit, gradient_rel_error
from dmrom import dmaps, evaluate, lifting, parsimony, rom_koopman
from dmrom.cli import main
from dmrom.rom_fnn import FnnModel, fnn_gradient

# every criterion runs on fixed inputs, so an overflow or invalid-value warning
# fails the same way on every run
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@contextmanager
def criterion(n: int, budget_s: float):
    """Time the body, record one '[criterion n] PASS/FAIL - detail' line."""
    rec = {"detail": ""}
    t0 = time.perf_counter()
    failure = None
    try:
        yield rec
    except BaseException as exc:
        failure = exc
    elapsed = time.perf_counter() - t0
    if failure is None and elapsed >= budget_s:
        failure = AssertionError(
            f"runtime {elapsed:.2f}s exceeds the {budget_s:.0f}s budget"
        )
    status = "PASS" if failure is None else "FAIL"
    detail = rec["detail"] if failure is None else str(failure).splitlines()[0]
    line = f"[criterion {n}] {status} - {detail} [{elapsed:.2f}s]"
    shared.ACCEPTANCE_LINES.append(line)
    print(line)
    if failure is not None:
        raise failure


def test_criterion_1_metric_identity():
    with criterion(1, 1.0) as rec:
        truth = np.zeros((80, 1))
        pred = np.full((80, 1), 0.487)
        rmse, l2 = evaluate.error_metrics(pred, truth)
        assert abs(rmse[0] - 0.487) < 1e-12
        assert abs(l2[0] - 4.356) < 1e-3
        rec["detail"] = (
            f"rmse 0.487 at h=80 -> l2 {l2[0]:.6f}, within 0.001 of 4.356"
        )


def test_criterion_2_diffusion_operator_properties():
    with criterion(2, 10.0) as rec:
        worst_row = worst_lam0 = worst_cv = worst_resid = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 51))
            m = int(rng.integers(1, 9))
            pts = rng.normal(size=(n, m))
            p, _ = dmaps.gaussian_affinity(pts)
            _, row_degrees = dmaps.diffusion_operator(p)   # p now holds P
            vals, vecs = dmaps.spectral_decompose(p.copy(), row_degrees, min(5, n - 2))
            worst_row = max(worst_row, float(np.max(np.abs(p.sum(axis=1) - 1.0))))
            worst_lam0 = max(worst_lam0, abs(vals[0] - 1.0))
            psi0 = vecs[:, 0]
            worst_cv = max(worst_cv, float(psi0.std() / abs(psi0.mean())))
            resid = np.max(np.abs(p @ vecs - vecs * vals[None, :]))
            worst_resid = max(worst_resid, float(resid))
        assert worst_row < 1e-12
        assert worst_lam0 < 1e-10
        assert worst_cv < 1e-6   # constant leading eigenvector
        assert worst_resid < 1e-8
        rec["detail"] = (
            f"100 datasets: row-sum dev {worst_row:.1e}, |lam0-1| {worst_lam0:.1e}, "
            f"psi0 variation {worst_cv:.1e}, eigen-residual {worst_resid:.1e}"
        )


def test_criterion_3_parsimonious_selection(strip_embedding):
    with criterion(3, 30.0) as rec:
        report = parsimony.rank_and_select(strip_embedding.eigenvectors[:, 1:], 2)
        assert report.er[1] < 0.3   # first harmonic of the long axis
        assert report.er[3] > 0.7   # cross-strip direction
        assert report.selected == [1, 4]
        rec["detail"] = (
            f"strip: harmonic er {report.er[1]:.3f} < 0.3, cross-axis er "
            f"{report.er[3]:.3f} > 0.7, selected {report.selected}"
        )


def test_criterion_4_edmd_exact_recovery():
    with criterion(4, 5.0) as rec:
        worst_mat = 0.0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            d = 2 + seed % 4
            m = rng.normal(size=(d, d))
            a = m / (1.1 * np.max(np.abs(np.linalg.eigvals(m))))
            traj = np.empty((60, d))
            traj[0] = rng.normal(size=d)
            for t in range(59):
                traj[t + 1] = a @ traj[t]
            u_hat = rom_koopman.koopman_fit(traj)
            worst_mat = max(worst_mat, float(np.max(np.abs(u_hat - a))))
        assert worst_mat < 1e-8

        theta = 0.7
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        traj = np.empty((60, 2))
        traj[0] = [1.0, 0.3]
        for t in range(59):
            traj[t + 1] = rot @ traj[t]
        vals = rom_koopman.koopman_eigenvalues(rom_koopman.koopman_fit(traj))
        err_rot = max(
            abs(vals[0] - np.exp(1j * theta)), abs(vals[1] - np.exp(-1j * theta))
        )
        assert err_rot < 1e-8
        rec["detail"] = (
            f"8 stable systems (d 2..5, 60 steps): worst |U-A| {worst_mat:.1e}; "
            f"rotation eigenvalue error {err_rot:.1e}"
        )


def test_criterion_5_fnn_gradient_check():
    with criterion(5, 10.0) as rec:
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(1, 4))
            hidden = int(rng.integers(1, 7))
            n = int(rng.integers(3, 12))
            s = int(rng.integers(0, 3))
            model = FnnModel(
                u=rng.normal(size=(hidden, d + s + 1)),
                w_out=rng.normal(size=hidden),
                b_out=float(rng.normal()),
                target_index=1,
            )
            coords = rng.normal(size=(n, d))
            stim = rng.normal(size=(n, s))
            targets = rng.normal(size=n)
            decay = float(rng.uniform(0.0, 0.1))
            analytic = fnn_gradient(model, coords, stim, targets, decay)
            numeric = fd_gradient(model, coords, stim, targets, decay)
            worst = max(worst, gradient_rel_error(analytic, numeric))
        assert worst < 1e-5
        rec["detail"] = f"20 random configurations: worst relative error {worst:.1e}"


def test_criterion_6_gh_lifting(strip_points, strip_embedding):
    with criterion(6, 10.0) as rec:
        rng = np.random.default_rng(7)
        y = rng.normal(size=(40, 2)) * 2.0
        x = rng.normal(size=(40, 5))
        model = floor_basis_fit(y, x, 1.0, 0.0)
        err_lift = float(np.max(np.abs(lifting.gh_lift(model, y) - x)))
        assert err_lift < 1e-4

        restrict = lifting.nystrom_restrict(
            strip_embedding, strip_points, strip_points[:10], range(1, strip_embedding.k + 1)
        )
        err_restrict = float(np.max(np.abs(restrict - strip_embedding.eigenvectors[:10, 1:])))
        assert err_restrict < 1e-6
        rec["detail"] = (
            f"training lift error {err_lift:.1e} (floor 0); Nystrom restriction "
            f"error {err_restrict:.1e}"
        )


# ------------------------------------------------------- end-to-end run


def tree_bytes(root) -> dict:
    root = pathlib.Path(root)
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def synthetic_run(tmp_path_factory):
    """Full pipeline on the noise-free limit cycle, shared by criteria 7-9."""
    base = tmp_path_factory.mktemp("acceptance")
    cfg = {
        "input": str(base / "data" / "series.csv"),
        "output_dir": str(base / "run"),
        "n_train": 320,
        "dmaps": {"sigma": "auto", "k": 10},
        "parsimony": {"d": 5},
        "fnn": {
            "hidden_sizes": [4, 8],
            "decay_values": [1e-8, 1e-6],
            "folds": 5,
            "repeats": 2,
        },
        "synth": {
            "ambient_dim": 50,
            "n_times": 400,
            "noise": 0.0,
            "seed": 0,
            "dynamics": "limit_cycle",
        },
    }
    cfg_path = base / "run.json"
    cfg_path.write_text(json.dumps(cfg, indent=1))
    t0 = time.perf_counter()
    rc = main(["run", "--all", "--config", str(cfg_path)])
    elapsed = time.perf_counter() - t0
    return {"cfg": str(cfg_path), "out": base / "run", "rc": rc, "elapsed": elapsed}


def read_matrix_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return np.array(rows[1:], dtype=float)


def test_criterion_7_synthetic_forecast_quality(synthetic_run):
    with criterion(7, 300.0) as rec:
        assert synthetic_run["rc"] == 0
        assert synthetic_run["elapsed"] < 300.0
        out = synthetic_run["out"]
        test_vals = read_matrix_csv(out / "embedding" / "test_ambient.csv")
        assert test_vals.shape == (80, 50)
        std = test_vals.std(axis=0, ddof=1)
        rmse = {}
        with open(out / "reports" / "comparison.csv") as fh:
            for row in csv.DictReader(fh):
                rmse.setdefault(row["method"], []).append(float(row["rmse"]))
        fractions = {}
        for method in ("fnn_gh", "koopman"):
            r = np.array(rmse[method])
            below = float(np.mean(r < std))
            beat = float(np.mean(r < np.array(rmse["nrw"])))
            assert below >= 0.90, f"{method}: only {below:.2f} of channels below test std"
            assert beat >= 0.60, f"{method}: only {beat:.2f} of channels beat the baseline"
            fractions[method] = (below, beat)
        rec["detail"] = (
            f"pipeline {synthetic_run['elapsed']:.1f}s; below-std/beat-baseline "
            f"fractions: fnn_gh {fractions['fnn_gh'][0]:.2f}/{fractions['fnn_gh'][1]:.2f}, "
            f"koopman {fractions['koopman'][0]:.2f}/{fractions['koopman'][1]:.2f}"
        )


def test_criterion_8_determinism(synthetic_run):
    with criterion(8, 300.0) as rec:
        before = tree_bytes(synthetic_run["out"])
        rc = main(["run", "--all", "--config", synthetic_run["cfg"]])
        assert rc == 0
        after = tree_bytes(synthetic_run["out"])
        assert before.keys() == after.keys()
        diff = [k for k in before if before[k] != after[k]]
        assert diff == [], f"artifacts changed between identical runs: {diff}"
        rec["detail"] = f"rerun reproduced all {len(before)} artifacts byte-identically"


def test_criterion_9_forecast_purity(synthetic_run, tmp_path):
    with criterion(9, 60.0) as rec:
        clone = tmp_path / "mutated"
        shutil.copytree(synthetic_run["out"], clone)
        cfg = json.loads(pathlib.Path(synthetic_run["cfg"]).read_text())
        cfg["output_dir"] = str(clone)
        cfg_path = tmp_path / "mutated.json"
        cfg_path.write_text(json.dumps(cfg, indent=1))

        test_csv = clone / "embedding" / "test_ambient.csv"
        lines = test_csv.read_text().splitlines()
        mutated = [lines[0]]
        for line in lines[1:]:
            mutated.append(",".join(repr(2.0 * float(c) + 0.75) for c in line.split(",")))
        test_csv.write_text("\n".join(mutated) + "\n")

        assert main(["forecast", "--config", str(cfg_path)]) == 0
        original = synthetic_run["out"]
        for name in ("fnn_gh_ambient.csv", "koopman_ambient.csv"):
            same = (clone / "forecasts" / name).read_bytes() == (
                original / "forecasts" / name
            ).read_bytes()
            assert same, f"{name} changed when only test values were mutated"
        nrw_same = (clone / "forecasts" / "nrw_ambient.csv").read_bytes() == (
            original / "forecasts" / "nrw_ambient.csv"
        ).read_bytes()
        assert not nrw_same, "baseline should track the mutated test values"
        rec["detail"] = (
            "mutating test values left fnn_gh and koopman forecasts bitwise "
            "unchanged; the look-ahead baseline changed"
        )
