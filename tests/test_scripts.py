"""Smoke tests: each example script runs to completion at a small size, and
the README's library example runs as written."""

import os
import re
import subprocess
import sys

import pytest

import balancedtv

ROOT = os.path.dirname(os.path.dirname(__file__))
SCRIPTS = os.path.join(ROOT, "scripts")
README = os.path.join(ROOT, "README.md")


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


def test_readme_python_blocks_run(capsys):
    """The README's Python blocks, run in order in one namespace as a reader
    would paste them."""
    with open(README) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), flags=re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, README, "exec"), namespace)
    assert capsys.readouterr().out
