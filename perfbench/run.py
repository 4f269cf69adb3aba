#!/usr/bin/env python3
"""dmrom benchmark: `dmrom run --all` on generated workloads, timed and checked.

Run from the root of a source checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload cycle320 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one after another

One round generates the workload's input from the seed, runs `run --all` as a
fresh process in an empty output directory, and then checks the outputs
against computations made here (checks.py). Rounds repeat until --seconds
have passed (at least one). With --trace 0 the last line of stdout is a JSON
object with the end-to-end metrics; with --trace 1 one extra round runs under
the span tracer (tracer.py) and the line holds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench_work"
SETUP_REPEATS = 3
ROUND_TIMEOUT_S = 170.0
ENTRY = "import sys; from dmrom.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP_ENTRY = (
    "import sys\n"
    "import dmrom.cli\n"
    "try:\n"
    "    dmrom.cli.load_config(sys.argv[1])\n"
    "except ValueError as exc:\n"
    "    sys.exit(f'config rejected: {exc}')\n"
)
UNKNOWN_KEYS = re.compile(r"unknown key\(s\) in config section 'fnn': ([\w, ]+)")

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("artifact_mb", "MB"),
    ("fnn_rmse", "std_units"),
    ("koopman_rmse", "std_units"),
]


def blas_threads() -> int:
    """Thread count the program runs with: the environment's setting, at most nproc."""
    nproc = len(os.sched_getaffinity(0))
    asked = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return max(1, min(nproc, int(asked) if asked else nproc))


def environment_record() -> dict:
    import ctypes
    import platform

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  loads scipy's own BLAS

    blas = []
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype = ctypes.c_char_p
                    entry["name"] = get_config().decode()
                    entry["threads"] = int(get_threads())
        blas.append(entry)
    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


class Program:
    """How the benchmark starts the program from the checkout at `root`."""

    def __init__(self, root: str):
        self.src = os.path.join(root, "src")
        # a fixed str hash seed keeps set and dict order the same in every round
        self.env = dict(os.environ, PYTHONPATH=self.src, PYTHONHASHSEED="0")
        self.cli = [sys.executable, "-c", ENTRY]

    def run(self, cmd: list, cwd: str, log_name: str):
        """Run cmd to its end; return (exit code, wall seconds, peak RSS of that process in MB)."""
        with open(os.path.join(cwd, log_name), "w") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdout=log, stderr=log)
            killer = threading.Timer(ROUND_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6   # ru_maxrss is in KiB


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def mean_rmse(path: str, method: str) -> float:
    with open(path, newline="") as fh:
        values = [float(r["rmse"]) for r in csv.DictReader(fh) if r["method"] == method]
    return sum(values) / len(values)


class Bench:
    def __init__(self, root: str, workload, seed: int, work: str):
        self.program = Program(root)
        self.workload = workload
        self.seed = seed
        self.work = work
        self.drop = ()
        self.rounds = 0

    def setup_times(self, repeats: int) -> list:
        """Wall time of fresh processes that import dmrom.cli and load the workload config.

        A solver setting the program's config no longer accepts is left out of
        the config (once), rather than failing the run.
        """
        from workloads import SOLVER, make_inputs

        d = os.path.join(self.work, "setup")
        os.makedirs(d, exist_ok=True)
        make_inputs(self.workload, self.seed, d, self.drop)
        cmd = [sys.executable, "-c", SETUP_ENTRY, "config.json"]
        times = []
        for _ in range(repeats):
            rc, wall, _ = self.program.run(cmd, d, "setup.log")
            if rc != 0:
                with open(os.path.join(d, "setup.log")) as fh:
                    match = UNKNOWN_KEYS.search(fh.read())
                unknown = {k.strip() for k in match.group(1).split(",")} if match else set()
                if self.drop or not unknown or not unknown <= set(SOLVER):
                    raise RuntimeError(f"setup failed (exit {rc}), see {d}/setup.log")
                self.drop = tuple(sorted(unknown))
                print(f"setup: the program no longer accepts fnn.{', fnn.'.join(self.drop)}; "
                      "leaving it out", flush=True)
                return self.setup_times(repeats)
            times.append(wall)
        shutil.rmtree(d)
        return times

    def round(self, traced: bool) -> dict:
        """One `run --all` from an empty output directory, then the output checks."""
        from checks import CheckFailed, Context, checks_for
        from workloads import make_inputs

        self.rounds += 1
        d = os.path.join(self.work, f"round{self.rounds}")
        os.makedirs(d)
        raw = make_inputs(self.workload, self.seed, d, self.drop)
        args = ["run", "--all", "--config", "config.json"]
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), "spans.json"] + args
        else:
            cmd = self.program.cli + args
        rc, wall, rss = self.program.run(cmd, d, "run.log")
        out = os.path.join(d, "out")
        rec = {"run_s": wall, "peak_rss_mb": rss, "exit": rc, "failed_checks": []}
        if rc != 0:
            rec["failed_checks"].append(f"run --all exited {rc}, see {d}/run.log")
            return rec
        rec["artifact_mb"] = dir_bytes(out) / 1e6
        t0 = time.perf_counter()
        comparison = os.path.join(out, "reports", "comparison.csv")
        ctx = Context(self.workload, raw, out, self.program)
        for name, check in checks_for(self.workload):
            try:
                check(ctx)
            except CheckFailed as exc:
                rec["failed_checks"].append(f"{name}: {exc}")
            except (OSError, ValueError, KeyError, IndexError) as exc:
                rec["failed_checks"].append(f"{name}: unreadable artifact: {exc!r}")
        try:
            rec["fnn_rmse"] = mean_rmse(comparison, "fnn_gh")
            rec["koopman_rmse"] = mean_rmse(comparison, "koopman")
        except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
            rec["failed_checks"].append(f"comparison.csv unreadable: {exc!r}")
        rec["check_s"] = time.perf_counter() - t0
        if traced and os.path.exists(os.path.join(d, "spans.json")):
            with open(os.path.join(d, "spans.json")) as fh:
                rec["trace"] = json.load(fh)
        if not rec["failed_checks"]:
            shutil.rmtree(d)
        return rec


def median(records: list, key: str) -> float:
    return statistics.median(r[key] for r in records)


def run_workload(root: str, name: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracer import PER_LAYER, layer_metrics
    from workloads import WORKLOADS

    work = os.path.join(root, WORK_DIR, f"{name}-s{seed}-p{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    bench = Bench(root, WORKLOADS[name], seed, work)

    setup = bench.setup_times(1 if trace else SETUP_REPEATS)
    records = []
    t0 = time.perf_counter()
    while not records or time.perf_counter() - t0 < seconds:
        rec = bench.round(traced=False)
        records.append(rec)
        print(f"{name} seed {seed} round {len(records)}: run_s {rec['run_s']:.3f}, "
              f"exit {rec['exit']}, checks {rec.get('check_s', 0):.2f} s, "
              f"failed checks {rec['failed_checks'] or 'none'}", flush=True)
    if trace:
        traced = bench.round(traced=True)
        print(f"{name} seed {seed} traced round: run_s {traced['run_s']:.3f}, "
              f"failed checks {traced['failed_checks'] or 'none'}", flush=True)
        records_all = records + [traced]
    else:
        records_all = records

    failed = [r for r in records_all if r["failed_checks"]]
    ok = [r for r in records if not r["failed_checks"]]
    metrics = {}
    if trace:
        spans = traced.get("trace", {"spans": [], "missing": []})
        if spans["missing"]:
            print(f"tracer: not found in the program: {', '.join(spans['missing'])}", flush=True)
        if ok:
            values = layer_metrics(spans["spans"], traced["run_s"], median(ok, "run_s"))
            metrics = {m: {"value": values[m], "unit": unit} for m, unit in PER_LAYER}
        with open(os.path.join(root, WORK_DIR, f"trace-{name}-s{seed}.json"), "w") as fh:
            json.dump(spans, fh)
    elif ok:
        values = {"setup_s": statistics.median(setup)}
        for key in ("run_s", "peak_rss_mb", "artifact_mb", "fnn_rmse", "koopman_rmse"):
            values[key] = median(ok, key)
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
    if not failed:
        shutil.rmtree(work)
    return {
        # a check that rejects an output makes the result incorrect; a crash is only a failure
        "correct": not any(r["exit"] == 0 for r in failed),
        "attempted": len(records_all),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cycle320", "noisy2000", "stim4000", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dmrom", "cli.py")):
        print("error: run from the root of a dmrom checkout (src/dmrom/cli.py not found)",
              file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = str(blas_threads())   # before numpy loads
    # a terminated benchmark still stops the process it is waiting for (see Program.run)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    print("env: " + json.dumps(environment_record()), flush=True)
    names = ["cycle320", "noisy2000", "stim4000"] if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(root, name, args.seed, args.seconds, bool(args.trace))
        print(f"== {name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"   {metric:32s} {m['value']:.6g} {m['unit']}")
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
