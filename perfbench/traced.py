"""Run one `balancedtv partition` command with its layers wrapped in spans.

    python3 perfbench/traced.py SPANS_JSON partition ARGS...

Every public function of the modules io, build, eigen, mbo, partition, graph
and metrics is replaced, in each balancedtv module that refers to it, by a
wrapper that records a span (name, start, end, parent).  Two methods are
wrapped as well: ``SparseGraph.subgraph`` gets a span and
``DiffusionOperator.apply`` a call counter.  Spans stay in memory and are
written to SPANS_JSON when the command returns.  Times come from
``time.perf_counter`` (the system-wide monotonic clock), so they line up with
the launching process's clock.  Nothing in ``src/`` is changed.
"""

from __future__ import annotations

import time

_IMPORT_START = time.perf_counter()

import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import balancedtv.cli  # noqa: E402

_IMPORT_END = time.perf_counter()

LAYERS = ("io", "build", "eigen", "mbo", "partition", "graph", "metrics")


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index, attributes]
        self.stack = []
        self.matvecs = 0

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
            self.spans.append(span)
            self.stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            span[4] = _attributes(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count_matvecs(self, fn):
        def counted(*args, **kwargs):
            self.matvecs += 1
            return fn(*args, **kwargs)

        return counted


def _attributes(name, result):
    """The counts the benchmark reads off a span's return value."""
    if name == "mbo.mbo_run":
        return {"iterations": result.iterations, "converged": result.converged}
    if name in ("build.knn_graph", "io.load_edge_list"):
        return {"edges": result.n_edges}
    if name == "graph.modularity":
        return {"value": result}
    return None


def install(tracer: Tracer) -> None:
    modules = [importlib.import_module(f"balancedtv.{m}") for m in LAYERS]
    modules += [balancedtv.cli, importlib.import_module("balancedtv")]
    wrappers = {}
    for layer, module in zip(LAYERS, modules):
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                wrappers[fn] = tracer.wrap(f"{layer}.{attr}", fn)
    for module in modules:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])
    graph_cls = modules[LAYERS.index("graph")].SparseGraph
    graph_cls.subgraph = tracer.wrap("graph.subgraph", graph_cls.subgraph)
    op_cls = modules[LAYERS.index("eigen")].DiffusionOperator
    op_cls.apply = tracer.count_matvecs(op_cls.apply)


def main(argv) -> int:
    spans_path, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.spans.append(["cli.import", _IMPORT_START, _IMPORT_END, -1, None])
    install(tracer)
    code = balancedtv.cli.main(args)
    with open(spans_path, "w") as fh:
        json.dump({"spans": tracer.spans, "matvecs": tracer.matvecs}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
