import os
import subprocess
import sys
from pathlib import Path

import pytest

import vcbent
from vcbent.generator import generate_all
from vcbent.oracle import all_bent


@pytest.fixture(scope="session")
def oracle_set():
    return all_bent()


@pytest.fixture(scope="session")
def generated_set():
    return generate_all()


@pytest.fixture(scope="session")
def fresh_python():
    """Run `python ARGS...` in a new process that imports the vcbent under test."""
    src = str(Path(vcbent.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}

    def run(*args):
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=120)

    return run
