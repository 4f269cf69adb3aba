"""Tests for the forked workers: the FNN stacks they train and how they fail."""

import json
import os
import threading
import time

import numpy as np
import pytest
from conftest import assert_no_child_left, fork_spy
from test_rom_fnn import (
    SMALL_GRID,
    assert_same_fit,
    assert_same_model,
    assert_same_records,
    mixed_winner_coords,
    stack_spy,
    train_on_cpus,
)

from dmrom import rom_fnn, workers
from dmrom.rom_fnn import TrainConfig, _train_stack


def test_worker_count_changes_no_bit(monkeypatch):
    coords = mixed_winner_coords()
    cfg = TrainConfig(**SMALL_GRID)
    monkeypatch.setattr(rom_fnn, "EPOCHS", 40)
    # several stacks per group, so both workers have stacks to take
    monkeypatch.setattr(rom_fnn, "STACK_BYTES", 8 * 40 * 3 * 2)
    alone, alone_forks = train_on_cpus(monkeypatch, {0}, coords, cfg)
    pooled, pooled_forks = train_on_cpus(monkeypatch, {0, 1}, coords, cfg)
    # one CPU forks nothing; on two, the CV pass and then the final retrains
    # of the two winning hidden sizes each fork one worker
    assert alone_forks == []
    assert len(pooled_forks) == 2
    assert_no_child_left()
    for (m_alone, r_alone), (m_pooled, r_pooled) in zip(alone, pooled, strict=True):
        assert_same_model(m_alone, m_pooled)
        assert_same_records(r_alone, r_pooled)


def one_group_fits(count=5):
    """`count` float64 fits of one shape: a single stack within the byte cap."""
    rng = np.random.default_rng(0)
    return [
        (2, 1e-4, (0, k), rng.normal(size=(30, 2)), rng.normal(size=30)) for k in range(count)
    ]


def in_worker(action):
    """A `_train_stack` that runs `action` in a forked worker and trains as usual here."""
    parent = os.getpid()

    def stack(z, y, hidden, decays, rngs, epochs):
        if os.getpid() != parent:
            action(z)
        return _train_stack(z, y, hidden, decays, rngs, epochs)

    return stack


def test_a_one_stack_pass_is_cut_for_every_worker(monkeypatch):
    # five fits make one stack; on two CPUs the pass cuts it into 3 + 2 fits:
    # this process trains the three and a worker the two, with the bits of
    # the one stack
    fits = one_group_fits()
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0})
    whole = rom_fnn._train_fits(fits, 20)
    shares = []
    real_fork_worker = workers._fork_worker

    def fork_worker(train, share):
        shares.append([len(chunk) for *_, chunk in share])
        return real_fork_worker(train, share)

    monkeypatch.setattr(workers, "_fork_worker", fork_worker)
    here = stack_spy(monkeypatch)
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0, 1})
    cut = rom_fnn._train_fits(fits, 20)
    assert here == [(2, 3)]
    assert shares == [[2]]
    for got, want in zip(cut, whole, strict=True):
        assert_same_fit(got, want)
    assert_no_child_left()


def test_a_worker_exception_re_raises_as_itself(monkeypatch):
    def fail(z):
        raise ValueError(f"a stack of {len(z)} fits failed in a worker")

    monkeypatch.setattr(rom_fnn, "_train_stack", in_worker(fail))
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(ValueError, match="^a stack of 2 fits failed in a worker$"):
        rom_fnn._train_fits(one_group_fits(), 20)
    assert_no_child_left()


def test_a_worker_that_dies_without_a_result_raises_and_is_reaped(monkeypatch):
    monkeypatch.setattr(rom_fnn, "_train_stack", in_worker(lambda z: os._exit(3)))
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0, 1})
    forks = fork_spy(monkeypatch)
    with pytest.raises(RuntimeError) as caught:
        rom_fnn._train_fits(one_group_fits(), 20)
    (pid,) = forks
    # wait status 3 << 8: exit code 3
    assert str(caught.value) == f"FNN training worker {pid} ended without a result (wait status 768)"
    assert_no_child_left()


def test_a_failing_share_here_kills_and_reaps_the_workers(monkeypatch):
    parent = os.getpid()

    def stack(z, y, hidden, decays, rngs, epochs):
        if os.getpid() == parent:
            raise ValueError("this process's share failed")
        time.sleep(60)   # a worker left running would hold the test up

    monkeypatch.setattr(rom_fnn, "_train_stack", stack)
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0, 1})
    forks = fork_spy(monkeypatch)
    started = time.monotonic()
    with pytest.raises(ValueError, match="^this process's share failed$"):
        rom_fnn._train_fits(one_group_fits(), 20)
    assert len(forks) == 1
    assert time.monotonic() - started < 30
    assert_no_child_left()


def test_a_worker_holds_no_descriptor_of_its_parent_but_its_pipe(monkeypatch, tmp_path):
    def list_descriptors(z):
        # listdir opens a descriptor of its own, closed by the time readlink runs
        targets = []
        for fd in sorted(map(int, os.listdir("/proc/self/fd"))):
            if fd > 2:
                try:
                    targets.append(os.readlink(f"/proc/self/fd/{fd}"))
                except FileNotFoundError:
                    pass
        raise ValueError(json.dumps(targets))

    monkeypatch.setattr(rom_fnn, "_train_stack", in_worker(list_descriptors))
    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0, 1})
    with open(tmp_path / "held.lock", "a") as held, pytest.raises(ValueError) as caught:
        assert held.fileno() > 2
        rom_fnn._train_fits(one_group_fits(), 20)
    (target,) = json.loads(str(caught.value))
    assert target.startswith("pipe:")


class LockedError(Exception):
    """An exception that holds a lock, so pickle cannot send it."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


class TwoPartError(Exception):
    """An exception that pickles, but whose two arguments pickle cannot rebuild it from."""

    def __init__(self, what, where):
        super().__init__(f"{what} failed in {where}")


@pytest.mark.parametrize("error, name", [
    pytest.param(lambda item: LockedError(f"item {item} failed in a worker"), "LockedError",
                 id="holds_a_lock"),
    pytest.param(lambda item: TwoPartError(f"item {item}", "a worker"), "TwoPartError",
                 id="cannot_be_rebuilt"),
])
def test_a_worker_exception_that_pickle_cannot_send_is_named(monkeypatch, error, name):
    parent = os.getpid()

    def task(item):
        if os.getpid() != parent:
            raise error(item)
        return item

    monkeypatch.setattr(workers.os, "sched_getaffinity", lambda pid: {0, 1})
    forks = fork_spy(monkeypatch)
    with pytest.raises(RuntimeError) as caught:
        workers.run(task, [0, 1], "demo worker")
    assert len(forks) == 1
    assert str(caught.value) == (
        f"a worker raised {name}, which pickle cannot send: item 1 failed in a worker"
    )
    assert_no_child_left()
