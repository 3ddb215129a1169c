"""Smoke tests: each example script runs to completion at a small size."""

import os
import subprocess
import sys

import pytest

import balancedtv

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(__file__)), "scripts")


@pytest.mark.parametrize("script,args", [
    ("recursive_blocks.py", ["--n", "80", "--blocks", "2", "--runs", "1"]),
    ("two_moons_benchmark.py", ["--n", "200", "--dim", "10", "--runs", "2"]),
])
def test_script_runs(script, args):
    src = os.path.dirname(os.path.dirname(balancedtv.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, os.path.join(SCRIPTS, script), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "best" in done.stdout
