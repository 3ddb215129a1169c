"""Property-based fuzzing of the file loaders.

Any input either loads or fails with a ValueError whose message starts with
the file name and then names the offending line, the header or, for feature
files, an empty matrix.  Node ids
stay at or below MAX_ID or are at least 2^63 - 1, which the edge-list loader
rejects: it sizes the graph by the largest id, so an id in between asks for
a huge allocation rather than failing to parse.

Each loader reads a file in one numpy pass, and the line an error names is
the first bad line: the file cut after it fails with the same message, and
the file cut before it loads.  Tables of edge-list and label files pin the
exact outcome of the corner cases of each format.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from balancedtv import SparseGraph, load_edge_list, load_features, load_label_pairs
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
@example(text="   \n1,nan\n")  # a blank line is skipped, not read
def test_non_finite_feature_line_is_the_first(scratch, text):
    scratch.write_text(text)
    try:
        load_features(scratch)
    except ValueError as exc:
        where = re.search(r"line (\d+): non-finite feature entry$", str(exc))
        if where:
            lines = text.split("\n")[: int(where.group(1))]
            values = [np.loadtxt([line], delimiter=",") for line in lines
                      if line.split("#", 1)[0].strip()]
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


def message(load, path, text):
    """The message of the ValueError load(path) raises on ``text``, or None
    where it loads."""
    path.write_text(text, newline="")
    try:
        load(path)
    except ValueError as exc:
        return str(exc)
    return None


def assert_first_bad_line_named(load, path, text):
    """Where load names line L of ``text``, the text cut after line L fails
    with the same message, and the text cut before it loads, or for a
    feature file is left empty."""
    error = message(load, path, text)
    where = re.match(rf"{re.escape(str(path))}: line (\d+): ", error or "")
    if where:
        lines = text.splitlines(keepends=True)
        line = int(where.group(1))
        assert message(load, path, "".join(lines[:line])) == error
        before = message(load, path, "".join(lines[:line - 1]))
        assert before is None or (load is load_features
                                  and before == f"{path}: empty feature file"), before


@FUZZ
@given(text=edge_files)
def test_edge_list_names_first_bad_line(scratch, text):
    assert_first_bad_line_named(load_edge_list, scratch, text)


@FUZZ
@given(text=label_files)
def test_label_pairs_name_first_bad_line(scratch, text):
    assert_first_bad_line_named(load_label_pairs, scratch, text)


@FUZZ
@example(text="inf,0\n1,\n")  # a non-finite row before a malformed one
@given(text=feature_files)
def test_features_name_first_bad_line(scratch, text):
    assert_first_bad_line_named(load_features, scratch, text)


@pytest.mark.parametrize("load,good,bad,fault", [
    (load_edge_list, "0 1 1\n", "0 1\n", "expected 'i j w', got '0 1'"),
    (load_features, "1,2\n", "1,2,3\n", "expected 2 numbers, got '1,2,3'"),
], ids=["edges", "features"])
@pytest.mark.parametrize("first,last", [(4096, 4096), (4097, 4097), (4097, 9000), (9000, 9000)])
def test_first_bad_line_of_a_long_file(scratch, load, good, bad, fault, first, last):
    # lines first..last are bad; the file is read again in chunks to find them
    text = good * (first - 1) + bad * (last - first + 1) + good * (9000 - last)
    assert message(load, scratch, text) == f"{scratch}: line {first}: {fault}"


# each text with the graph it loads to, as from_coo arguments, or the message
# that follows the file name
EDGE_CASES = [
    ("0 1 2.5 # note\n", "line 1: expected 'i j w', got '0 1 2.5 # note'"),
    ("# h\r0 1 2 # x\r", "line 2: expected 'i j w', got '0 1 2 # x'"),
    ("# see #1\n0 1 1\n", (2, [0], [1], [1.0])),
    ("0 1 1_0\n", "line 1: expected 'i j w', got '0 1 1_0'"),
    ("1_0 0 1\n", "line 1: expected 'i j w', got '1_0 0 1'"),
    (f"0 {2**63 - 1} 1\n", f"line 1: node index {2**63 - 1} too large"),
    (f"{2**63} 0 1\n", f"line 1: node index {2**63} too large"),
    (f"0 1 1\n{-2**64} 0 1\n", "line 2: negative node index"),
    ("0 1 nan\n", "line 1: weight nan is not a finite nonnegative number"),
    ("0 1 inf\n", "line 1: weight inf is not a finite nonnegative number"),
    ("0 0 nan\n", "line 1: weight nan is not a finite nonnegative number"),
    ("0 1 -0.0\n1 2 1\n", (3, [0, 1], [1, 2], [-0.0, 1.0])),
    ("0 1 1e307\n1 2 1e307\n0 2 1e308\n", "line 3: total edge weight overflows"),
    ("0 1 nan\n0 1\n", "line 1: weight nan is not a finite nonnegative number"),
    ("# i j w\r\n0 1 1\r\n1 2 0.5\r\n", (3, [0, 1], [1, 2], [1.0, 0.5])),
    ("0 1 1\n   \n1 2 1\n", (3, [0, 1], [1, 2], [1.0, 1.0])),
    ("", (0, [], [], [])),
    ("# only\n", (0, [], [], [])),
]
# each text with the (nodes, labels) it loads to or the message
LABEL_CASES = [
    ("node,label\n0,1 # x\n", "line 2: expected 'node,label', got '0,1 # x'"),
    ("node,label\n1_0,1\n", "line 2: expected 'node,label', got '1_0,1'"),
    (f"node,label\n{2**63 - 1},0\n", ([2**63 - 1], [0])),
    (f"node,label\n{2**63},0\n", f"line 2: entry {2**63} too large"),
    ("node,label\r\n0,1\r\n1,0\r\n", ([0, 1], [1, 0])),
    ("node,label\n0,1\n  \n1,0\n", ([0, 1], [1, 0])),
    ("", "expected header 'node,label', got ''"),
    ("node,label\n", ([], [])),
    ("node,label\n0,1\n2,0\n0,2\n", "line 4: node 0 already labeled on line 2"),
    ("node,label\n0,1\n0,2\n1\n", "line 3: node 0 already labeled on line 2"),
    ("node,label\n 1 , 2 \n", ([1], [2])),
]


@pytest.mark.parametrize("text,expected", EDGE_CASES)
def test_edge_list_case(scratch, text, expected):
    if isinstance(expected, str):
        assert message(load_edge_list, scratch, text) == f"{scratch}: {expected}"
    else:
        scratch.write_text(text, newline="")
        assert_same_graph(load_edge_list(scratch), SparseGraph.from_coo(*expected))


@pytest.mark.parametrize("text,expected", LABEL_CASES)
def test_label_case(scratch, text, expected):
    if isinstance(expected, str):
        assert message(load_label_pairs, scratch, text) == f"{scratch}: {expected}"
    else:
        scratch.write_text(text, newline="")
        for loaded, want in zip(load_label_pairs(scratch), expected, strict=True):
            assert loaded.dtype == np.int64 and np.array_equal(loaded, want)
