"""The CLI prints the same bytes on every other CPython >= 3.10 installed by pyenv.

The suite itself runs on one interpreter, but the CLI's code differs by
version: `hash64` comes from `_sha256` up to 3.11 and from `_sha2` from 3.12
on. Each other interpreter found under $PYENV_ROOT/versions (default
~/.pyenv) runs a fixed list of command lines on this source tree, needing no
pytest of its own, and must give the stdout, stderr and exit code that the
running interpreter gives. Where none is found, the test is skipped.
"""

import glob
import os
import random
import subprocess
import sys

import pytest

import sboxforge
from sboxforge import SBox
from sboxforge.formats import serialize_sbox

from oracles import random_bijective
from vectors import AES_SBOX, CLONE4, SEED4

_PROBE = "import sys; print(sys.implementation.name, *sys.version_info[:3])"


def _other_interpreters() -> list:
    """Paths of the CPythons >= 3.10 under pyenv's versions, other than this one's version."""
    root = os.environ.get("PYENV_ROOT", os.path.expanduser("~/.pyenv"))
    found, seen = [], {tuple(sys.version_info[:3])}
    for python in sorted(glob.glob(os.path.join(root, "versions", "*", "bin", "python3"))):
        try:  # a broken install or a pyenv shim may fail to run at all
            probe = subprocess.run([python, "-c", _PROBE], capture_output=True, text=True,
                                   timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        name, *version = probe.stdout.split() or ["", "0", "0", "0"]
        version = tuple(map(int, version))
        if probe.returncode == 0 and name == "cpython" and version >= (3, 10) \
                and version not in seen:
            seen.add(version)
            found.append(python)
    return found


OTHERS = _other_interpreters()


@pytest.fixture(scope="module")
def lines(tmp_path_factory):
    """The command lines each interpreter runs, as (argv, SBOXFORGE_THREADS or None)."""
    folder = tmp_path_factory.mktemp("versions")
    tables = {"seed4": SEED4, "aes": AES_SBOX,
              "seed10": random_bijective(random.Random(10), 10),
              "clone4": CLONE4}
    # Widths 2, 9 and 16: a table of half a byte of each plane, the first of
    # 2-byte entries, and the widest.
    tables.update((f"seed{n}", random_bijective(random.Random(n), n)) for n in (2, 9, 16))
    files = {}
    for name, table in tables.items():
        files[name] = str(folder / f"{name}.txt")
        with open(files[name], "w") as handle:
            handle.write(serialize_sbox(SBox.from_table(table)))
    fixed = [
        ["clone", files["seed4"], "--key", "0123"],
        ["clone", files["aes"], "--key", "00ff", "--remove-fixed-points"],
        ["analyze", files["aes"], "--format", "json"],
        ["analyze", files["seed10"], "--format", "json"],
        # The smallest and largest divisors of a report's ratios: 2**n and n * 2**n.
        ["analyze", files["seed2"], "--format", "text"],
        ["analyze", files["seed16"], "--format", "text"],
        ["verify", files["seed4"], files["clone4"]],
        ["verify", files["aes"], files["seed10"]],
        ["derive", "--key", "0123456789", "--n", "10"],
    ]
    sweeps = [  # the last starts a 2-worker pool where the setting allows it
        ["enumerate", files["seed4"], "--all"],
        ["enumerate", files["seed4"], "--all", "--check-invariance"],
        ["enumerate", files["aes"], "--sample", "200", "--rng-seed", "3", "--check-invariance"],
        ["enumerate", files["seed2"], "--all", "--check-invariance"],
        ["enumerate", files["seed9"], "--sample", "20", "--rng-seed", "5", "--check-invariance"],
        ["enumerate", files["seed16"], "--sample", "3"],
        ["enumerate", files["seed10"], "--sample", "100", "--check-invariance"],
    ]
    return [(argv, None) for argv in fixed] + [(argv, t) for argv in sweeps for t in (None, "2")]


def _run_all(python: str, lines) -> list:
    root = os.path.dirname(os.path.dirname(sboxforge.__file__))
    env = {k: v for k, v in os.environ.items() if k != "SBOXFORGE_THREADS"}
    env["PYTHONPATH"] = root
    results = []
    for argv, threads in lines:
        run = subprocess.run([python, "-m", "sboxforge", *argv], capture_output=True, timeout=120,
                             env={**env, "SBOXFORGE_THREADS": threads} if threads else env)
        results.append((argv, threads, run.returncode, run.stdout, run.stderr))
    return results


@pytest.fixture(scope="module")
def expected(lines):
    return _run_all(sys.executable, lines)


@pytest.mark.skipif(not OTHERS, reason="no other CPython >= 3.10 under $PYENV_ROOT/versions")
@pytest.mark.parametrize("python", OTHERS or [None],
                         ids=lambda python: python and os.path.basename(
                             os.path.dirname(os.path.dirname(python))))
def test_cli_output_is_the_same_on_other_versions(python, lines, expected):
    assert _run_all(python, lines) == expected
