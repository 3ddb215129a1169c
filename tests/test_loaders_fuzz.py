"""Property-based fuzzing of the file loaders.

Any input either loads or fails with a ValueError whose message starts with
the file name and then names the offending line, the header or, for feature
files, an empty or non-finite matrix.  Node ids
stay at or below MAX_ID or are at least 2^63 - 1, which the edge-list loader
rejects: it sizes the graph by the largest id, so an id in between asks for
a huge allocation rather than failing to parse.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from balancedtv import load_edge_list, load_features, load_label_pairs
from balancedtv.cli import BATCH_HEADER, _load_batch

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
batch_files = with_header(
    st.sampled_from([BATCH_HEADER, BATCH_HEADER.upper(), "seed,modularity", ""]),
    rows(st.tuples(ids, numbers, st.one_of(numbers, st.just("")), numbers), ","),
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
@given(text=batch_files)
def test_batch_loads_or_names_line(scratch, text):
    assert_loads_or_names_place(_load_batch, scratch, text)


@FUZZ
@given(text=feature_files)
def test_features_load_or_name_line(scratch, text):
    assert_loads_or_names_place(load_features, scratch, text,
                                place="empty feature file|non-finite feature entries")


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
