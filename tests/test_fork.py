"""``cv``'s fork helper, and ``cv``'s outputs with and without it.

``cli._fork_map`` is called with an explicit worker count, so these tests
fork even on a one-CPU machine.  The CLI test runs ``cv`` in subprocesses,
once pinned to one CPU (the serial path) and once on every usable CPU.
"""

from __future__ import annotations

import csv
import os
import subprocess
import sys
import threading
import time

import pytest

from test_acceptance import subprocess_env
from webcred import cli
from webcred.errors import StratificationError


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def square_and_pid(i: int) -> tuple[int, int]:
    return i * i, os.getpid()


@pytest.mark.parametrize("workers", [2, 3])
def test_results_keep_the_order_of_the_items(workers):
    results = cli._fork_map(square_and_pid, range(7), workers=workers)
    assert [value for value, _pid in results] == [i * i for i in range(7)]
    pids = [pid for _value, pid in results]
    # Item i is computed by worker i % workers; worker 0 is this process.
    assert all(pids[i] == pids[i % workers] for i in range(7))
    assert pids[0] == os.getpid()
    assert len(set(pids)) == workers
    assert_no_child_left()


def failing_on(bad: set[int]):
    """A function that raises for the items in ``bad``, after a pause
    when a child computes the item, so this process's failures come first."""
    parent = os.getpid()

    def fn(i: int) -> int:
        if i in bad:
            if os.getpid() != parent:
                time.sleep(0.3)
            raise StratificationError(f"item {i} failed")
        return i

    return fn


@pytest.mark.parametrize(
    "workers, bad, lowest",
    [
        (2, {1, 2}, 1),     # this process fails on item 2 before the child on 1
        (3, {2, 4, 6}, 2),  # the first failure of three in as many shares
        (2, {0, 3}, 0),     # this process's own failure is the lowest
        (2, {3, 5}, 3),     # two failures in one child's share
    ],
)
def test_the_lowest_failing_item_raises(workers, bad, lowest):
    with pytest.raises(StratificationError) as info:
        cli._fork_map(failing_on(bad), range(7), workers=workers)
    assert type(info.value) is StratificationError
    assert str(info.value) == f"item {lowest} failed"
    assert_no_child_left()


def test_a_child_that_exits_without_results_is_a_one_line_error():
    parent = os.getpid()

    def fn(i: int) -> int:
        if os.getpid() != parent:
            os._exit(3)
        return i

    with pytest.raises(ChildProcessError) as info:
        cli._fork_map(fn, range(4), workers=2)
    message = str(info.value)
    assert "\n" not in message
    assert "exit code 3" in message
    assert_no_child_left()


def test_an_interrupted_call_kills_and_reaps_its_children():
    parent = os.getpid()

    def fn(i: int) -> int:
        if os.getpid() != parent:
            time.sleep(60)
        elif i == 3:  # this process's second item
            raise KeyboardInterrupt
        return i

    began = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        cli._fork_map(fn, range(6), workers=3)
    assert time.monotonic() - began < 30
    assert_no_child_left()


def test_one_worker_or_one_item_runs_in_this_process(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    assert cli._fork_map(square_and_pid, range(3), workers=1) == [
        (i * i, os.getpid()) for i in range(3)
    ]
    assert cli._fork_map(square_and_pid, [5], workers=4) == [(25, os.getpid())]


def test_a_live_thread_keeps_the_call_in_this_process(monkeypatch):
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        results = cli._fork_map(square_and_pid, range(4), workers=2)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert results == [(i * i, os.getpid()) for i in range(4)]


# Runs the CLI on one of the CPUs this process may use.
ONE_CPU = (
    "import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
    "from webcred.cli import main; sys.exit(main(sys.argv[1:]))"
)
ALL_CPUS = "import sys; from webcred.cli import main; sys.exit(main(sys.argv[1:]))"


def run_cv(cwd, script: str, docs, labels) -> subprocess.CompletedProcess:
    cwd.mkdir()
    return subprocess.run(
        [sys.executable, "-c", script, "cv", "--docs", str(docs), "--labels", str(labels)],
        cwd=cwd, env=subprocess_env(), capture_output=True, text=True, timeout=300,
    )


def test_cv_outputs_and_errors_do_not_depend_on_the_cpu_count(tmp_path, fixtures_dir):
    docs, labels = fixtures_dir / "webpages.jsonl", fixtures_dir / "labels.csv"
    serial = run_cv(tmp_path / "serial", ONE_CPU, docs, labels)
    forked = run_cv(tmp_path / "forked", ALL_CPUS, docs, labels)
    assert serial.returncode == forked.returncode == 0, serial.stderr + forked.stderr
    for name in ("cv_report.csv", "cv_manifest.json"):
        assert (tmp_path / "serial" / name).read_bytes() == (
            tmp_path / "forked" / name
        ).read_bytes(), name

    # Criteria 2 and 5 keep 3 and 5 positives, fewer than the 10 folds:
    # criterion 2's error is the one raised, as by the serial loop.
    with open(labels, newline="") as fh:
        rows = list(csv.reader(fh))
    for column, keep in ((2, 3), (5, 5)):
        kept = 0
        for row in rows[1:]:
            kept += row[column] == "1"
            if kept > keep:
                row[column] = "0"
    few = tmp_path / "few_positives.csv"
    with open(few, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    serial = run_cv(tmp_path / "serial_few", ONE_CPU, docs, few)
    forked = run_cv(tmp_path / "forked_few", ALL_CPUS, docs, few)
    assert serial.returncode == forked.returncode == 1
    assert serial.stderr == forked.stderr == (
        "error: positive class has 3 members, fewer than 10 folds; "
        "relabel more documents or lower the fold count\n"
    )
