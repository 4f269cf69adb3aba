"""Tests for the run-artifact writers and readers."""

import os
import pathlib
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from conftest import assert_no_child_left, fork_spy, process_alive

from dmrom import artifacts, workers


class Boom(Exception):
    pass


def failing_rows():
    yield ["1.0"]
    raise Boom


def test_matrix_format_is_csv_rows_of_repr_floats(tmp_path):
    path = tmp_path / "m.csv"
    artifacts.write_matrix(path, [[0.1, -2.0], [1e-300, 3.0]], ["a", "b"])
    assert path.read_bytes() == b"a,b\r\n0.1,-2.0\r\n1e-300,3.0\r\n"
    values, names = artifacts.read_matrix(path)
    assert names == ["a", "b"]
    assert np.array_equal(values, [[0.1, -2.0], [1e-300, 3.0]])


def test_matrix_with_no_rows_keeps_its_width(tmp_path):
    path = tmp_path / "m.csv"
    artifacts.write_matrix(path, np.zeros((0, 3)), ["a", "b", "c"])
    values, _ = artifacts.read_matrix(path)
    assert values.shape == (0, 3)


def matrix_bytes(monkeypatch, path, arr, cpus):
    """The bytes `write_matrix` writes on a machine whose affinity mask is `cpus`,
    and the workers it forked."""
    forks = fork_spy(monkeypatch)
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: set(cpus))
    artifacts.write_matrix(path, arr, [f"c{j}" for j in range(arr.shape[1])])
    return path.read_bytes(), forks


@pytest.mark.parametrize(
    "shape, cpus, forked",
    [
        # an odd row count: the two blocks differ by a row
        ((artifacts.SPLIT_MIN_CELLS // 40 + 1, 40), {0, 1}, 1),
        # fewer rows than CPUs: one block, and one fork, per row
        ((3, artifacts.SPLIT_MIN_CELLS // 3 + 1), {0, 1, 2, 3}, 2),
    ],
    ids=["odd_rows", "fewer_rows_than_cpus"],
)
def test_a_large_matrix_is_the_same_bytes_on_every_cpu_count(
    tmp_path, monkeypatch, shape, cpus, forked
):
    arr = np.random.default_rng(0).normal(size=shape) * np.logspace(-300, 300, shape[1])
    arr[0, 0], arr[-1, -1] = np.nan, -np.inf
    path = tmp_path / "m.csv"
    alone, alone_forks = matrix_bytes(monkeypatch, path, arr, {0})
    split, split_forks = matrix_bytes(monkeypatch, path, arr, cpus)
    assert arr.size >= artifacts.SPLIT_MIN_CELLS
    assert alone_forks == []
    assert len(split_forks) == forked
    assert split == alone
    assert os.listdir(tmp_path) == ["m.csv"]
    assert_no_child_left()
    values, _ = artifacts.read_matrix(path)
    assert np.array_equal(values, arr, equal_nan=True)


def test_a_matrix_below_the_split_size_forks_nothing(tmp_path, monkeypatch):
    small = np.ones((artifacts.SPLIT_MIN_CELLS // 10 - 1, 10))
    want, _ = matrix_bytes(monkeypatch, tmp_path / "one.csv", small, {0})
    got, forks = matrix_bytes(monkeypatch, tmp_path / "two.csv", small, {0, 1})
    assert forks == []
    assert got == want


@pytest.mark.parametrize("failing", ["worker", "here"])
def test_a_failed_split_write_keeps_previous_file_and_leaves_no_part(
    tmp_path, monkeypatch, failing
):
    # a failing worker has written its part; a failing share here has the
    # worker killed, with or without its part
    parent, write_rows = os.getpid(), artifacts._write_rows

    def rows(fh, block):
        write_rows(fh, block)
        fh.flush()
        if (os.getpid() == parent) == (failing == "here"):
            raise Boom
        if failing == "here":
            time.sleep(60)   # a worker left running would hold the test up

    monkeypatch.setattr(artifacts, "_write_rows", rows)
    path = tmp_path / "artifact"
    path.write_bytes(b"previous\n")
    started = time.monotonic()
    with pytest.raises(Boom):
        matrix_bytes(monkeypatch, path, np.ones((artifacts.SPLIT_MIN_CELLS, 1)), {0, 1})
    assert time.monotonic() - started < 30
    assert path.read_bytes() == b"previous\n"
    assert os.listdir(tmp_path) == ["artifact"]
    assert_no_child_left()


KILLED_MATRIX_WRITER = """\
import os, signal, sys, time
import numpy as np
from dmrom import artifacts, workers

path, report, parent, write_rows = sys.argv[1], sys.argv[2], os.getpid(), artifacts._write_rows

def rows(fh, block):
    write_rows(fh, block)
    fh.flush()
    if os.getpid() == parent:
        # die mid-write, once the worker has said its part holds its block
        deadline = time.monotonic() + 60
        while not os.path.exists(report) and time.monotonic() < deadline:
            time.sleep(0.01)
        os.kill(parent, signal.SIGKILL)
    with open(report + ".tmp", "w") as out:
        out.write(str(os.getpid()))
    os.replace(report + ".tmp", report)
    time.sleep(60)

artifacts._write_rows = rows
workers.os.sched_getaffinity = lambda pid: {0, 1}
artifacts.write_matrix(path, np.ones((artifacts.SPLIT_MIN_CELLS, 1)), ["a"])
"""


def test_remove_temps_deletes_the_part_of_a_killed_worker(tmp_path):
    # the writer is killed while its worker's part is on disk; the worker
    # dies with it, and the next command's remove_temps clears both temps
    out, report = tmp_path / "run", tmp_path / "worker.pid"
    out.mkdir()
    src = str(pathlib.Path(artifacts.__file__).resolve().parents[1])
    # output to a file, not a pipe: a worker holds its parent's stdout and
    # stderr, so reading a pipe to its end would wait for the worker too
    with open(tmp_path / "write.log", "w") as log:
        proc = subprocess.Popen(
            [sys.executable, "-c", KILLED_MATRIX_WRITER, str(out / "m.csv"), str(report)],
            env={**os.environ, "PYTHONPATH": src},
            stdout=log,
            stderr=log,
        )
        assert proc.wait(timeout=120) == -signal.SIGKILL, (tmp_path / "write.log").read_text()
    worker = int(report.read_text())
    deadline = time.monotonic() + 1.0
    while process_alive(worker):
        assert time.monotonic() < deadline, f"worker {worker} outlived the killed writer"
        time.sleep(0.01)
    assert sorted(os.listdir(out)) == sorted(f"m.csv.{pid}.tmp" for pid in (proc.pid, worker))
    part = (out / f"m.csv.{worker}.tmp").read_bytes()
    assert part == b"1.0\r\n" * (artifacts.SPLIT_MIN_CELLS // 2)
    artifacts.remove_temps(out)
    assert os.listdir(out) == []


def test_read_matrix_rejects_ragged_and_non_numeric_rows(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValueError, match="row 2 has 1 fields, expected 2"):
        artifacts.read_matrix(path)
    path.write_text("a,b\n1,2\n3,x\n")
    with pytest.raises(ValueError, match=r"row 2, column 2"):
        artifacts.read_matrix(path)
    path.write_text("")
    with pytest.raises(ValueError, match="empty file"):
        artifacts.read_matrix(path)


@pytest.mark.parametrize(
    "write",
    [
        lambda p: artifacts.write_rows(p, ["x"], failing_rows()),
        lambda p: artifacts.write_json(p, {"a": [1.0] * 10_000, "b": object()}),
    ],
    ids=["rows", "json"],
)
def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path, write):
    path = tmp_path / "artifact"
    path.write_bytes(b"previous\n")
    with pytest.raises((Boom, TypeError)):
        write(path)
    assert path.read_bytes() == b"previous\n"
    assert os.listdir(tmp_path) == ["artifact"]


def test_json_document_format(tmp_path):
    path = tmp_path / "doc.json"
    artifacts.write_json(path, {"b": 1, "a": [0.5]})
    assert path.read_text() == '{\n "a": [\n  0.5\n ],\n "b": 1\n}\n'
    assert artifacts.read_json(path, "doc", ("a", "b")) == {"a": [0.5], "b": 1}


def test_read_json_names_the_file_when_corrupt_or_incomplete(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("{broken")
    with pytest.raises(ValueError, match=r"corrupt model file .*doc\.json"):
        artifacts.read_json(path, "model file")
    path.write_text('{"a": 1}')
    with pytest.raises(ValueError, match=r"corrupt model file .*doc\.json: missing 'b'"):
        artifacts.read_json(path, "model file", ("a", "b"))
    path.write_text("[1]")
    with pytest.raises(ValueError, match="not a JSON object"):
        artifacts.read_json(path, "model file")
