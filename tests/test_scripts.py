"""Smoke tests: the README's library and command-line examples run or parse
as written."""

import os
import re
import shlex

import pytest

from balancedtv.cli import parse_args

ROOT = os.path.dirname(os.path.dirname(__file__))
README = os.path.join(ROOT, "README.md")


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


def readme_commands():
    """Every ``balancedtv`` command in the README's sh blocks, joined across
    backslash continuations."""
    with open(README) as fh:
        blocks = re.findall(r"^```sh\n(.*?)^```", fh.read(), flags=re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines
            if line.startswith("balancedtv ")]


def test_readme_has_commands():
    assert len(readme_commands()) >= 8


@pytest.mark.parametrize("argv", readme_commands(), ids=shlex.join)
def test_readme_command_parses(tmp_path, monkeypatch, argv):
    """The command passes the CLI's parser, with an empty file at each
    ``.csv``/``.txt`` path it names."""
    monkeypatch.chdir(tmp_path)
    for arg in argv:
        if re.fullmatch(r"[\w.-]+\.(csv|txt)", arg):
            open(arg, "a").close()
    try:
        parse_args(argv[1:])
    except SystemExit:
        pytest.fail(f"README command does not parse: {shlex.join(argv)}")
