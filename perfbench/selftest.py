#!/usr/bin/env python3
"""Show that the output checks can fail, and that the generator matches `dmrom synth`.

Run from the root of a dmrom checkout (about one minute):

    python3 perfbench/selftest.py

It runs cycle320 and stim4000 once at seed 0. Every check must pass on the
real artifacts and reject each deliberately corrupted copy listed in
CORRUPTIONS. It also checks once that the benchmark's seed-0 cycle320 input
is byte-identical to `dmrom synth` with the acceptance settings. Exit code 0
means every expectation held.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys

import run


def _rewrite_csv(path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _edit_cell(path, row, col, change):
    def edit(rows):
        rows[row][col] = repr(change(float(rows[row][col])))
    return lambda out: _rewrite_csv(os.path.join(out, path), edit)


def _shift_rows(path):
    def edit(rows):
        rows[1:] = rows[2:] + rows[-1:]
    return lambda out: _rewrite_csv(os.path.join(out, path), edit)


def _offset_all(path, offset):
    def edit(rows):
        rows[1:] = [[repr(float(v) + offset) for v in row] for row in rows[1:]]
    return lambda out: _rewrite_csv(os.path.join(out, path), edit)


def _swap_eigenpairs(out):
    """Swap eigenpairs 1 and 2: P psi = lam psi still holds, the descending order does not."""
    def swap_columns(rows):
        for row in rows:
            row[1], row[2] = row[2], row[1]

    def swap_values(rows):
        rows[2], rows[3] = rows[3], rows[2]

    _rewrite_csv(os.path.join(out, "embedding", "eigenvectors.csv"), swap_columns)
    _rewrite_csv(os.path.join(out, "embedding", "eigenvalues.csv"), swap_values)


def _swap_selected(out):
    path = os.path.join(out, "embedding", "parsimony.json")
    with open(path) as fh:
        report = json.load(fh)
    er = report["er"]
    sel = report["selected"]
    dropped = min(sel, key=lambda i: er[i - 1])
    added = max((i for i in range(1, len(er) + 1) if i not in sel), key=lambda i: er[i - 1])
    report["selected"] = sorted(set(sel) - {dropped} | {added})
    with open(path, "w") as fh:
        json.dump(report, fh)


CORRUPTIONS = [
    ("blocks", "one train block value +1e-6",
     _edit_cell("embedding/train_ambient.csv", 5, 3, lambda v: v + 1e-6)),
    ("comparison", "first rmse scaled by 1+1e-6",
     _edit_cell("reports/comparison.csv", 1, 2, lambda v: v * (1 + 1e-6))),
    ("comparison", "first l2 scaled by 1+1e-6",
     _edit_cell("reports/comparison.csv", 1, 3, lambda v: v * (1 + 1e-6))),
    ("spectrum", "eigenvalue 2 scaled by 1+1e-4",
     _edit_cell("embedding/eigenvalues.csv", 3, 0, lambda v: v * (1 + 1e-4))),
    ("spectrum", "eigenpairs 1 and 2 swapped", _swap_eigenpairs),
    ("parsimony", "weakest selected index swapped for the strongest unselected", _swap_selected),
    ("koopman", "koopman_reduced rows shifted by one step", _shift_rows("forecasts/koopman_reduced.csv")),
    ("glm", "t of the first channel +1e-4",
     _edit_cell("reports/activity_A_gt_B.csv", 1, 3, lambda v: v + 1e-4)),
    ("criterion7", "fnn_gh ambient forecast offset by +2", _offset_all("forecasts/fnn_gh_ambient.csv", 2.0)),
    ("purity", "reference fnn_gh ambient rows shifted by one step",
     _shift_rows("forecasts/fnn_gh_ambient.csv")),
]


def synth_identity(program: run.Program, work: str) -> bool:
    from workloads import channel_names, limit_cycle_series, write_series

    write_series(limit_cycle_series(400, 0.0, 0), channel_names(0), os.path.join(work, "bench.csv"))
    cfg = {
        "input": "synth.csv",
        "output_dir": "synth_out",
        "synth": {"q": 2, "ambient_dim": 50, "n_times": 400, "noise": 0.0, "seed": 0,
                  "dynamics": "limit_cycle"},
    }
    with open(os.path.join(work, "synth.json"), "w") as fh:
        json.dump(cfg, fh)
    rc, _, _ = program.run(program.cli + ["synth", "--config", "synth.json"], work, "synth.log")
    with open(os.path.join(work, "bench.csv"), "rb") as a, open(os.path.join(work, "synth.csv"), "rb") as b:
        return rc == 0 and a.read() == b.read()


def main() -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dmrom", "cli.py")):
        print("error: run from the root of a dmrom checkout", file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = str(run.blas_threads())
    from checks import CheckFailed, Context, checks_for
    from workloads import WORKLOADS, make_inputs

    work = os.path.join(root, run.WORK_DIR, f"selftest-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    program = run.Program(root)
    good = synth_identity(program, work)
    print(f"seed-0 cycle320 input byte-identical to `dmrom synth`: {good}")

    for name in ("cycle320", "stim4000"):
        w = WORKLOADS[name]
        rdir = os.path.join(work, name)
        os.makedirs(rdir)
        raw = make_inputs(w, 0, rdir)
        rc, wall, _ = program.run(program.cli + ["run", "--all", "--config", "config.json"],
                                  rdir, "run.log")
        print(f"{name}: run --all exit {rc} in {wall:.1f} s")
        good &= rc == 0
        out = os.path.join(rdir, "out")
        checks = dict(checks_for(w))
        for check_name, label, corrupt in CORRUPTIONS:
            if check_name not in checks:
                continue
            check = checks[check_name]
            try:
                check(Context(w, raw, out, program))
                clean = "passes"
            except CheckFailed as exc:
                clean = f"FAILS ({exc})"
            bad = os.path.join(rdir, "corrupt")
            shutil.rmtree(bad, ignore_errors=True)
            shutil.copytree(out, bad)
            corrupt(bad)
            try:
                check(Context(w, raw, bad, program))
                verdict = "ACCEPTED"
            except CheckFailed as exc:
                verdict = f"rejected: {exc}"
            ok = clean == "passes" and verdict.startswith("rejected")
            good &= ok
            print(f"  [{'ok' if ok else 'BAD'}] {check_name:10s} clean {clean}; "
                  f"{label} -> {verdict}")
    if good:
        shutil.rmtree(work)
    print("self-test " + ("passed" if good else f"FAILED, artifacts kept in {work}"))
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
