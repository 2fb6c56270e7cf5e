import itertools
import os

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
