import os

import pytest

import sboxforge


@pytest.fixture
def child_env():
    """Environment in which a child interpreter imports the sboxforge under test."""
    root = os.path.dirname(os.path.dirname(sboxforge.__file__))
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (root, inherited)))}
