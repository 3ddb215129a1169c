"""Per-layer metrics from the spans that ``traced.py`` writes.

A span is ``[name, start, end, parent index, attributes]``; root spans have
parent -1.  A group's time is the summed duration of its spans that have no
ancestor in the same group, so nested calls are not counted twice.
"""

from __future__ import annotations

from collections import defaultdict

# (name, unit) in the order BENCHMARK.json lists them
PER_LAYER = [
    ("cli.import_s", "s"), ("io.load_s", "s"), ("io.save_s", "s"),
    ("metrics.score_s", "s"), ("cli.self_s", "s"),
    ("build.knn_s", "s"), ("build.edges", "count"),
    ("eigen.solve_s", "s"), ("eigen.calls", "count"), ("eigen.matvecs", "count"),
    ("mbo.run_s", "s"), ("mbo.runs", "count"), ("mbo.iterations", "count"),
    ("mbo.diffuse_s", "s"), ("mbo.unconverged", "count"), ("mbo.trace_s", "s"),
    ("partition.sweep_s", "s"), ("partition.recursive_s", "s"),
    ("partition.kmeans_s", "s"), ("partition.modularity_s", "s"),
    ("graph.subgraph_s", "s"),
    ("partition.splits_tried", "count"), ("partition.splits_accepted", "count"),
    ("trace.wall_s", "s"),
]

# what mbo_run calls after its loop to build the per-iteration energy traces
TRACE_CALLS = {"graph.balanced_tv", "graph.modularity", "graph.labels_to_matrix"}
# recursive_partition keeps a split when full-graph modularity rises by more
# than --gain-tol, whose default the workloads keep
GAIN_TOL = 1e-10


def _duration(span) -> float:
    return span[2] - span[1]


def _group_time(spans, names) -> float:
    total = 0.0
    for span in spans:
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += _duration(span)
    return total


def _children(spans, parent_name):
    return [s for s in spans if s[3] >= 0 and spans[s[3]][0] == parent_name]


def _accepted_splits(spans) -> int:
    """Replay recursive_partition's acceptance rule on the modularity values
    it computed: the first is the unsplit baseline, each later one a
    candidate kept when it beats the current value by more than GAIN_TOL."""
    accepted = 0
    for index, span in enumerate(spans):
        if span[0] != "partition.recursive_partition":
            continue
        values = [s[4]["value"] for s in spans
                  if s[3] == index and s[0] == "graph.modularity"]
        current = values[0] if values else 0.0
        for q in values[1:]:
            if q > current + GAIN_TOL:
                accepted += 1
                current = q
    return accepted


def layer_metrics(trace: dict, wall_s: float) -> dict[str, float]:
    """Every PER_LAYER metric for one traced invocation of wall time wall_s."""
    spans = trace["spans"]
    names = {s[0] for s in spans}

    def prefixed(prefix):
        return {n for n in names if n.startswith(prefix)}

    mbo_runs = [s for s in spans if s[0] == "mbo.mbo_run"]
    graphs = [s for s in spans if s[3] < 0 and s[4] and "edges" in s[4]]
    return {
        "cli.import_s": _group_time(spans, {"cli.import"}),
        "io.load_s": _group_time(spans, prefixed("io.load_")),
        "io.save_s": _group_time(spans, prefixed("io.save_")),
        "metrics.score_s": _group_time(spans, prefixed("metrics.")),
        "cli.self_s": wall_s - sum(_duration(s) for s in spans if s[3] < 0),
        "build.knn_s": _group_time(spans, {"build.knn_graph"}),
        "build.edges": graphs[-1][4]["edges"] if graphs else 0,
        "eigen.solve_s": _group_time(
            spans, {"eigen.smallest_eigenpairs", "eigen.cached_eigenbasis"}),
        "eigen.calls": sum(s[0] == "eigen.smallest_eigenpairs" for s in spans),
        "eigen.matvecs": trace["matvecs"],
        "mbo.run_s": _group_time(spans, {"mbo.mbo_run"}),
        "mbo.runs": len(mbo_runs),
        "mbo.iterations": sum(s[4]["iterations"] for s in mbo_runs),
        "mbo.diffuse_s": _group_time(spans, {"mbo.diffuse"}),
        "mbo.unconverged": sum(not s[4]["converged"] for s in mbo_runs),
        "mbo.trace_s": sum(_duration(s) for s in _children(spans, "mbo.mbo_run")
                           if s[0] in TRACE_CALLS),
        "partition.sweep_s": _group_time(spans, {"partition.sweep_nhat"}),
        "partition.recursive_s": _group_time(spans, {"partition.recursive_partition"}),
        "partition.kmeans_s": _group_time(spans, {"partition.kmeans_init"}),
        "partition.modularity_s": sum(
            _duration(s) for s in _children(spans, "partition.recursive_partition")
            if s[0] == "graph.modularity"),
        "graph.subgraph_s": _group_time(spans, {"graph.subgraph"}),
        "partition.splits_tried": sum(
            s[0] == "mbo.mbo_run" for s in _children(spans, "partition.recursive_partition")),
        "partition.splits_accepted": _accepted_splits(spans),
        "trace.wall_s": wall_s,
    }


def self_times(trace: dict, wall_s: float) -> dict[str, float]:
    """Self time per layer (span durations minus their children's), with the
    uncovered rest of the wall time under ``cli``; the values sum to wall_s."""
    spans = trace["spans"]
    child_time = defaultdict(float)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += _duration(span)
    out = defaultdict(float)
    for index, span in enumerate(spans):
        out[span[0].split(".")[0]] += _duration(span) - child_time[index]
    out["cli"] += wall_s - sum(_duration(s) for s in spans if s[3] < 0)
    return dict(out)
