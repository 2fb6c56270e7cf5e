import itertools
import multiprocessing
import os
import signal

import pytest

import sboxforge
from sboxforge import core


@pytest.fixture
def child_env():
    """Environment in which a child interpreter imports the sboxforge under test."""
    root = os.path.dirname(os.path.dirname(sboxforge.__file__))
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (root, inherited)))}


@pytest.fixture
def attempts(monkeypatch):
    """What the removal walk draws from core.permutations: one item per attempt."""
    tried = []

    def recording(*args):
        for images in itertools.permutations(*args):
            tried.append(images)
            yield images

    monkeypatch.setattr(core, "permutations", recording)
    return tried


@pytest.fixture(autouse=True)
def keep_ctrl_c():
    """Run each test with Python's own Ctrl-C handler, and restore the test
    process's handler after it. A suite started in the background of a
    non-interactive shell inherits an ignored SIGINT, which main would keep
    and every child a test starts would inherit. A pool worker's
    initializer ignores Ctrl-C too, and a stand-in pool runs it here."""
    handler = signal.signal(signal.SIGINT, signal.default_int_handler)
    yield
    signal.signal(signal.SIGINT, handler)


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process running, such as a pool
    worker that a failed sweep did not stop. Each child gets a short join
    first, time enough for one that is already stopping to end."""
    yield
    for child in multiprocessing.active_children():
        child.join(0.5)
    assert not multiprocessing.active_children()
