import os

import pytest


@pytest.fixture(scope="session")
def spec8():
    from packbound.magic import magic_spec
    return magic_spec(8)


@pytest.fixture(scope="session")
def spec24():
    from packbound.magic import magic_spec
    return magic_spec(24)


@pytest.fixture(autouse=True)
def no_unreaped_children():
    # a forked worker that outlives its test is a process left running
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process unreaped (pid {pid or '?'})")


@pytest.fixture
def cpus(monkeypatch):
    """cpus(k) makes a sweep read k usable CPUs, the real ones taken in
    turn."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity on this platform")
    usable = sorted(os.sched_getaffinity(0))
    return lambda k: monkeypatch.setattr(
        os, "sched_getaffinity",
        lambda _: [usable[i % len(usable)] for i in range(k)])


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children that os.fork makes while the test runs."""
    made, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return made
