"""Property-based fuzzing of the file loaders.

Any input either loads or fails with a ValueError whose message starts with
the file name and then names the offending line, the header or, for feature
files, an empty matrix.  Node ids
stay at or below MAX_ID or are at least 2^63 - 1, which the edge-list loader
rejects: it sizes the graph by the largest id, so an id in between asks for
a huge allocation rather than failing to parse.

The edge-list and label loaders parse a file in one numpy pass and fall back
on a per-line parser for any file that pass is not sure of; both must give
the same arrays or the same message.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from balancedtv import io, load_edge_list, load_features, load_label_pairs
from conftest import assert_same_graph

MAX_ID = 10**4
FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)

# short tokens over the characters the formats use; four characters spell no
# integer above MAX_ID
junk = st.text(alphabet="0123456789-+.eEinfaINF#x_ \t", max_size=4)
ids = st.one_of(st.integers(-2, MAX_ID).map(str),
                st.integers(2**63 - 1, 2**64).map(str), junk)
numbers = st.one_of(st.floats().map(repr), st.integers(-3, 3).map(str), junk)
blank = st.sampled_from(["", "   ", "# comment"])


def rows(fields, sep):
    """Lines of ``fields`` joined by ``sep``, mixed with free-form lines."""
    free = st.lists(st.one_of(ids, numbers), max_size=5).map(sep.join)
    return st.lists(st.one_of(fields.map(sep.join), free, blank), max_size=12)


def with_header(headers, lines):
    return st.tuples(headers, lines).map(lambda t: "\n".join([t[0], *t[1]]) + "\n")


edge_files = rows(st.tuples(ids, ids, numbers), " ").map(lambda ls: "\n".join(ls) + "\n")
feature_files = st.integers(1, 3).flatmap(
    lambda width: rows(st.tuples(*[numbers] * width), ",")
).map(lambda ls: "\n".join(ls) + "\n")
label_files = with_header(
    st.sampled_from(["node,label", "Node,Label", "node;label", ""]),
    rows(st.tuples(ids, ids), ","),
)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.txt"


def assert_loads_or_names_place(load, path, text, place=".*header"):
    path.write_text(text)
    try:
        load(path)
    except ValueError as exc:
        message = str(exc)
        where = re.match(rf"{re.escape(str(path))}: (line (\d+): |{place})", message)
        assert where, message
        if where.group(2):
            assert 1 <= int(where.group(2)) <= text.count("\n"), message


@FUZZ
@given(text=edge_files)
def test_edge_list_loads_or_names_line(scratch, text):
    assert_loads_or_names_place(load_edge_list, scratch, text)


@FUZZ
@given(text=label_files)
def test_label_pairs_load_or_name_line(scratch, text):
    assert_loads_or_names_place(load_label_pairs, scratch, text)


@FUZZ
@given(text=feature_files)
def test_features_load_or_name_line(scratch, text):
    assert_loads_or_names_place(load_features, scratch, text, place="empty feature file")


@FUZZ
@given(text=feature_files)
def test_non_finite_feature_line_is_the_first(scratch, text):
    scratch.write_text(text)
    try:
        load_features(scratch)
    except ValueError as exc:
        where = re.search(r"line (\d+): non-finite feature entry$", str(exc))
        if where:
            lines = text.split("\n")[: int(where.group(1))]
            values = [np.loadtxt([line], delimiter=",") for line in lines
                      if line.split("#", 1)[0]]
            assert not np.isfinite(values[-1]).all()
            assert all(np.isfinite(row).all() for row in values[:-1])


@FUZZ
@given(edges=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30),
                                st.floats(0.0, 1e6)), max_size=40))
def test_valid_edge_list_loads_exactly(scratch, edges):
    scratch.write_text("".join(f"{i} {j} {w!r}\n" for i, j, w in edges))
    graph = load_edge_list(scratch)
    n = max((max(i, j) + 1 for i, j, _ in edges), default=0)
    dense = np.zeros((n, n))
    for i, j, w in edges:
        if i != j:
            dense[i, j] += w
            dense[j, i] += w
    assert graph.n_nodes == n
    assert np.allclose(graph.adjacency.toarray(), dense, rtol=1e-12, atol=0.0)


def assert_same_outcome(load, per_line, path, same):
    """load(path) and per_line(path) return results that ``same`` accepts,
    or raise the same message."""
    outcomes = []
    for parse in (load, per_line):
        try:
            outcomes.append(parse(path))
        except ValueError as exc:
            outcomes.append(str(exc))
    fast, slow = outcomes
    if isinstance(fast, str) or isinstance(slow, str):
        assert fast == slow
    else:
        same(fast, slow)


def assert_same_pairs(fast, slow):
    for a, b in zip(fast, slow, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)


EDGE_CASES = [
    "0 1 2.5 # note\n", "# h\r0 1 2 # x\r", "# see #1\n0 1 1\n", "0 1 1_0\n",
    "1_0 0 1\n", f"0 {2**63 - 1} 1\n", f"{2**63} 0 1\n", "0 1 nan\n", "0 1 inf\n", "0 0 nan\n",
    "0 1 -0.0\n1 2 1\n", "0 1 1e307\n1 2 1e307\n0 2 1e308\n",
    "# i j w\r\n0 1 1\r\n1 2 0.5\r\n", "0 1 1\n   \n1 2 1\n", "", "# only\n",
]
LABEL_CASES = [
    "node,label\n0,1 # x\n", "node,label\n1_0,1\n", f"node,label\n{2**63 - 1},0\n",
    f"node,label\n{2**63},0\n", "node,label\r\n0,1\r\n1,0\r\n", "node,label\n0,1\n  \n1,0\n",
    "", "node,label\n", "node,label\n0,1\n2,0\n0,2\n", "node,label\n 1 , 2 \n",
]


@pytest.mark.parametrize("text", EDGE_CASES)
def test_edge_list_case_matches_per_line_parser(scratch, text):
    scratch.write_text(text, newline="")
    assert_same_outcome(load_edge_list, io._parse_edge_lines, scratch, assert_same_graph)


@pytest.mark.parametrize("text", LABEL_CASES)
def test_label_case_matches_per_line_parser(scratch, text):
    scratch.write_text(text, newline="")
    assert_same_outcome(load_label_pairs, io._parse_label_lines, scratch, assert_same_pairs)


@FUZZ
@given(text=edge_files)
def test_edge_list_matches_per_line_parser(scratch, text):
    scratch.write_text(text)
    assert_same_outcome(load_edge_list, io._parse_edge_lines, scratch, assert_same_graph)


@FUZZ
@given(text=label_files)
def test_label_pairs_match_per_line_parser(scratch, text):
    scratch.write_text(text)
    assert_same_outcome(load_label_pairs, io._parse_label_lines, scratch, assert_same_pairs)
