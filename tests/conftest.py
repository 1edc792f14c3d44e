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
