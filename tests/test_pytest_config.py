"""The project's pytest settings let a session report a failing test."""

import os

import pytest

pytest_plugins = ["pytester"]

ROOT = os.path.dirname(os.path.dirname(__file__))


def test_failing_hypothesis_test_does_not_end_the_session(pytester):
    # hypothesis prints a failing example through an import that warns, which
    # the "error" warning filter would turn into an internal error
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        filters = tomllib.load(fh)["tool"]["pytest"]["ini_options"]["filterwarnings"]
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 0

        def test_passes():
            pass
    """)
    pytester.runpytest_subprocess("-p", "no:cacheprovider").assert_outcomes(
        failed=1, passed=1)
