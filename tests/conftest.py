import multiprocessing

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
    """Fail a test that leaves a child process running, such as a pool
    worker its search did not shut down; the children are stopped first, so
    the next test starts with none."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    assert not left, f"the test left child processes running: {left}"
