import multiprocessing
import threading

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--run-extended",
        action="store_true",
        default=False,
        help="run the opt-in extended tier (W(4,3), W(2,5) exact computations)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-extended"):
        return
    skip = pytest.mark.skip(reason="extended tier is opt-in; pass --run-extended")
    for item in items:
        if "extended" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session", autouse=True)
def search_kernel():
    """Build the C search kernel once, before the first test, if it is not
    cached: a cold build takes gcc about 0.3 s, which would otherwise land
    in whichever timed search runs first.  Without gcc each search test
    fails on its own KernelError."""
    from waerden import KernelError, _native

    try:
        _native.library()
    except KernelError:
        pass


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test that leaves a child process or a thread running, such as
    a pool worker its search did not shut down.  Child processes are stopped
    and threads are given a few seconds to end first, so the next test
    starts with neither."""
    yield
    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
        child.join()
    threads = [thread for thread in threading.enumerate() if thread is not threading.main_thread()]
    for thread in threads:
        thread.join(5)
    assert not children, f"the test left child processes running: {children}"
    assert not threads, f"the test left threads running: {threads}"
