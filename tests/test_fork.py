"""fork_map: the values, warnings and first exception of the serial loop, from
one process per part."""

import os
import subprocess
import sys
import warnings

import pytest

from corona_pdo._fork import fork_map, part_count


@pytest.fixture
def cap(monkeypatch):
    """Give this process 8 usable cores and return a setter of CORONA_PDO_THREADS."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    return lambda k: monkeypatch.setenv("CORONA_PDO_THREADS", str(k))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_part_count(cap, monkeypatch):
    cap(3)
    assert [part_count(n) for n in (0, 1, 2, 3, 7)] == [1, 1, 2, 3, 3]
    monkeypatch.delenv("CORONA_PDO_THREADS")  # no cap: the usable cores
    assert part_count(20) == 8
    monkeypatch.delattr(os, "sched_getaffinity")  # no affinity mask: one part
    assert part_count(20) == 1


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_values_come_back_in_item_order(cap, threads, n):
    cap(threads)
    got = fork_map(lambda k: (k * k, os.getpid()), range(n))
    assert [v for v, _ in got] == [k * k for k in range(n)]
    pids = [pid for _, pid in got]
    # contiguous parts, the last one run here
    assert len(set(pids)) == min(threads, n) and pids[-1] == os.getpid()
    assert pids == sorted(pids, key=pids.index)  # each process's items in one run
    _no_child_left()


def _fail_at(bad):
    def fn(k):
        if k in bad:  # a type and a message of its own per item
            raise (LookupError if k % 2 else ValueError)(f"item {k} failed")
        return k

    return fn


@pytest.mark.parametrize(
    "threads, bad",
    [(2, {0, 1}), (2, {1, 2}), (2, {0, 3}), (2, {2, 3}), (3, {0, 2}), (3, {1, 2}), (3, {1, 3})],
)
def test_first_failing_item_is_raised(cap, threads, bad):
    # 4 items: at 2 parts items 0-1 run in a child and 2-3 here; at 3 parts 0 and 1
    # each run in a child and 2-3 here.  So a later failure here does not win
    cap(threads)
    first = min(bad)
    with pytest.raises(LookupError if first % 2 else ValueError) as info:
        fork_map(_fail_at(bad), range(4))
    assert str(info.value) == f"item {first} failed"
    assert type(info.value) is (LookupError if first % 2 else ValueError)
    _no_child_left()


def test_warnings_replay_in_item_order_up_to_the_failure(cap):
    # 6 items at 3 parts: 0-1 and 2-3 in children, 4-5 here
    cap(3)

    def fn(k, bad):
        warnings.warn(f"item {k}", RuntimeWarning)
        if k == bad:
            raise ValueError(f"item {k} failed")
        return k

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert fork_map(lambda k: fn(k, None), range(6)) == list(range(6))
        assert [str(w.message) for w in caught] == [f"item {k}" for k in range(6)]
        caught.clear()
        with pytest.raises(ValueError, match="^item 3 failed$"):
            fork_map(lambda k: fn(k, 3), range(6))
    assert [str(w.message) for w in caught] == ["item 0", "item 1", "item 2", "item 3"]
    assert all(w.category is RuntimeWarning and w.filename == __file__ for w in caught)
    _no_child_left()


def test_child_that_exits_without_results_is_an_oserror(cap):
    cap(2)

    def fn(k):
        if k == 0:
            os._exit(3)
        return k

    with pytest.raises(OSError, match="item 0 exited with status 3 without sending its results"):
        fork_map(fn, range(2))
    _no_child_left()


# the first child exits without results while the second is blocked on a result far
# larger than a pipe buffer (64 KiB), run in a fresh process
_BLOCKED = """
import os
from corona_pdo._fork import fork_map

os.sched_getaffinity = lambda pid: {0, 1, 2}
os.environ["CORONA_PDO_THREADS"] = "3"


def fn(k):
    if k == 0:
        os._exit(3)
    return bytes(1 << 20)


try:
    fork_map(fn, range(3))
except OSError as exc:
    print(exc)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child")
"""


def test_failure_does_not_wait_for_a_blocked_child():
    proc = subprocess.Popen(
        [sys.executable, "-c", _BLOCKED], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,  # its own session, so a child left blocked dies with it
    )
    try:
        out, err = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.communicate()
        pytest.fail("fork_map waited for a child blocked on its pipe")
    assert proc.returncode == 0 and err == b""
    assert out.decode().splitlines() == [
        "the process running item 0 exited with status 3 without sending its results",
        "no child",
    ]
