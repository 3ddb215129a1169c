"""Command-line entry point.

Subcommands: ``generate`` (two-moons point clouds, planted-partition graphs),
``build-graph`` (k-NN similarity graph from a feature file), ``partition``
(the solver, with fixed / sweep / recursive community-count strategies and
optional supervision), and ``metrics`` (agreement scores for label files).
"""

from __future__ import annotations

import argparse
import os
import pickle
import signal
import sys
import time
import warnings

import numpy as np

from . import io, mbo
from .build import knn_graph, planted_partition, two_moons
from .eigen import DiffusionOperator, smallest_eigenpairs
from .graph import Supervision
from .mbo import mbo_run, random_start
from .metrics import CONSISTENCY_TOL, classification_rate, consistency, purity
from .partition import recursive_partition, sweep_nhat

__all__ = ["parse_args", "run", "main"]

BATCH_HEADER = "seed,modularity,classification,wall_time_ms"
# flags read only when another option is given, per command:
# (flag, attribute, default, the enabling option's attribute, least valid value)
KNN_FLAG = ("--knn", "knn", 13, "features", 1)
DEPENDENT_FLAGS = {
    "build-graph": (KNN_FLAG,),
    "partition": (
        KNN_FLAG,
        ("--supervision-weight", "supervision_weight", 100.0, "supervision", 0),
        ("--split-factor", "split_factor", 2, "recursive", 2),
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balancedtv",
        description="Community detection by balanced-TV modularity optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthetic benchmark data")
    gen_sub = gen.add_subparsers(dest="generator", required=True)
    moons = gen_sub.add_parser("two-moons", help="two noisy interlocking arcs")
    moons.add_argument("--n", type=int, default=2000, help="number of points")
    moons.add_argument("--dim", type=int, default=100, help="ambient dimension")
    moons.add_argument("--noise", type=float, default=0.14, help="Gaussian noise std")
    moons.add_argument("--seed", type=int, default=0)
    moons.add_argument("--out", required=True, help="feature CSV to write")
    moons.add_argument("--labels-out", help="ground-truth CSV to write")
    planted = gen_sub.add_parser("planted", help="planted-partition random graph")
    planted.add_argument("--n", type=int, default=400)
    planted.add_argument("--communities", type=int, default=8)
    planted.add_argument("--degree-in", type=float, default=10.0)
    planted.add_argument("--degree-out", type=float, default=1.0)
    planted.add_argument("--seed", type=int, default=0)
    planted.add_argument("--out", required=True, help="edge-list file to write")
    planted.add_argument("--labels-out", help="ground-truth CSV to write")

    build = sub.add_parser("build-graph", help="k-NN graph from features")
    build.add_argument("--features", required=True)
    build.add_argument("--out", required=True, help="edge-list file to write")

    part = sub.add_parser("partition", help="find communities")
    source = part.add_mutually_exclusive_group(required=True)
    source.add_argument("--edges", help="edge-list input file")
    source.add_argument("--features", help="feature CSV input file")
    for knn_user in (build, part):
        knn_user.add_argument("--knn", type=int, metavar="K",
                              help="default 13; only with --features")
    part.add_argument("--gamma", type=float, default=1.0)
    strat = part.add_mutually_exclusive_group(required=True)
    strat.add_argument("--nhat", type=int, help="fixed community count")
    strat.add_argument("--sweep", metavar="MIN..MAX",
                       help="try each count in the range, keep the best modularity")
    strat.add_argument("--recursive", action="store_true",
                       help="recursive splitting gated on modularity gain")
    part.add_argument("--split-factor", type=int,
                      help="parts per recursive split (default 2)")
    part.add_argument("--seed", type=int, default=0)
    part.add_argument("--repeat", type=int, default=1)
    part.add_argument("--supervision", help="CSV node,label of known labels")
    part.add_argument("--supervision-weight", type=float,
                      help="default 100; only with --supervision")
    part.add_argument("--truth", help="ground-truth CSV for scoring")
    part.add_argument("--out", required=True, metavar="PREFIX")
    part.add_argument("--trace", action="store_true",
                      help="write the best run's per-iteration energy trace; "
                           "not with --recursive")

    met = sub.add_parser("metrics", help="score label files")
    met.add_argument("--pred", required=True)
    met.add_argument("--truth", required=True)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """Resolve a command line into validated options; for ``partition`` a
    ``--sweep`` range becomes a ``range``.

    Raises SystemExit(2) with a message naming the offending flag or file on
    any usage error.
    """
    parser = _build_parser()
    options = parser.parse_args(argv)

    for attr in ("edges", "features", "supervision", "truth", "pred"):
        path = getattr(options, attr, None)
        if path is not None and (os.path.isdir(path) or not os.path.exists(path)):
            parser.error(f"--{attr.replace('_', '-')}: cannot read file {path!r}")
    for attr, least in (("repeat", 1), ("seed", 0)):
        if getattr(options, attr, least) < least:
            parser.error(f"--{attr}: must be at least {least}")

    for flag, attr, default, needs, least in DEPENDENT_FLAGS.get(options.command, ()):
        value = getattr(options, attr)
        if not getattr(options, needs):
            if value is not None:
                parser.error(f"{flag}: only used with --{needs}")
        elif value is None:
            setattr(options, attr, default)
        elif least is not None and not value >= least:  # NaN fails too
            parser.error(f"{flag}: must be at least {least}")
    # k < N is left to the run: it needs the feature file

    if options.command == "generate":
        bounds = ([("n", 1), ("dim", 2), ("noise", 0)] if options.generator == "two-moons"
                  else [("n", 1), ("communities", 1), ("degree_in", 0), ("degree_out", 0)])
        for attr, least in bounds:
            if not least <= getattr(options, attr) < float("inf"):  # NaN fails too
                parser.error(f"--{attr.replace('_', '-')}: must be finite and at least {least}")
        if getattr(options, "communities", 0) > options.n:
            parser.error("--communities: must not exceed --n")
    elif options.command == "partition":
        if not 0 < options.gamma < float("inf"):
            parser.error("--gamma: must be positive and finite")
        if options.recursive:
            if options.supervision:
                parser.error("--supervision: not supported with --recursive")
            if options.trace:
                parser.error("--trace: not supported with --recursive")
        elif options.sweep is not None:
            pieces = options.sweep.split("..")
            if len(pieces) != 2 or not all(p.isdigit() for p in pieces):
                parser.error(f"--sweep: expected MIN..MAX, got {options.sweep!r}")
            lo, hi = int(pieces[0]), int(pieces[1])
            if not 1 <= lo <= hi:
                parser.error("--sweep: need 1 <= MIN <= MAX")
            options.sweep = range(lo, hi + 1)
        elif options.nhat < 1:
            parser.error("--nhat: must be at least 1")
    return options


def _load_graph(options):
    if getattr(options, "edges", None):
        return io.load_edge_list(options.edges)
    features = io.load_features(options.features)
    try:
        return knn_graph(features, options.knn)
    except ValueError as exc:
        raise ValueError(f"--knn {options.knn} on --features {options.features}: "
                         f"{exc}") from None


def _partition_once(op, basis, options, supervision, seed):
    start = time.perf_counter()
    if options.recursive:
        result = recursive_partition(op, options.split_factor, seed=seed)
    elif options.sweep:
        result = sweep_nhat(basis, options.sweep, seed=seed, supervision=supervision)
    else:
        labels = random_start(basis.n_nodes, options.nhat, seed, supervision)
        result = mbo_run(basis, options.nhat, labels, supervision=supervision)
    return result, 1000.0 * (time.perf_counter() - start)


def _worker_count(repeat: int) -> int:
    """Processes that share ``repeat`` seeded runs: one per CPU this process
    may use, at most one per run, if this process runs a single thread.

    Otherwise one.  A second thread is a multi-threaded BLAS, whose threads
    already fill the CPUs (forked workers would each bring their own), and
    forking a multi-threaded process is unsafe.  Where the affinity mask or
    the thread list cannot be read, which includes every platform without
    ``fork``, one as well.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
        threads = len(os.listdir("/proc/self/task"))
    except (AttributeError, OSError):
        return 1
    return min(cpus, repeat) if threads == 1 else 1


def _run_chunk(job, seeds):
    """Run ``seeds`` one after another: (their outcomes, the warnings they
    raised as (message, category, filename, lineno), and the exception that
    stopped the chunk or None)."""
    outcomes, error = [], None
    with warnings.catch_warnings(record=True) as caught:
        try:
            for seed in seeds:
                outcomes.append(_partition_once(*job, seed))
        except Exception as exc:
            error = exc
    return outcomes, [(w.message, w.category, w.filename, w.lineno) for w in caught], error


def _run_chunks(job, chunks):
    """``_run_chunk`` of each chunk, in order.  The first chunk runs in this
    process; each other one runs in a child forked for it, which sends its
    result back pickled through a pipe and prints nothing."""
    children = []
    try:
        for chunk in chunks[1:]:
            sys.stdout.flush()  # else a child would inherit and repeat the buffer
            sys.stderr.flush()
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read_end)
                    with open(write_end, "wb") as pipe:
                        pickle.dump(_run_chunk(job, chunk), pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            children.append((pid, read_end, chunk))
        results = [_run_chunk(job, chunks[0])]
        while children:
            pid, read_end, chunk = children.pop(0)
            with open(read_end, "rb") as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code != 0:
                raise RuntimeError(f"the worker running seeds {chunk[0]}..{chunk[-1]} "
                                   f"exited with code {code}")
            results.append(pickle.loads(data))
        return results
    finally:
        for pid, read_end, _ in children:  # left only when this process failed
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_end)


def _run_repeats(job, seeds):
    """The (result, wall ms) of each seed, in seed order, computed in
    ``_worker_count`` processes that each take one contiguous chunk of seeds.

    The warnings the runs raised are raised again here in seed order, once
    per distinct message and place, and an exception that stopped a chunk is
    raised again after the warnings of the seeds before it.
    """
    workers = _worker_count(len(seeds))
    bounds = [len(seeds) * i // workers for i in range(workers + 1)]
    outcomes, seen = [], set()
    for done, caught, error in _run_chunks(job, [seeds[a:b] for a, b in
                                                 zip(bounds, bounds[1:])]):
        for message, category, filename, lineno in caught:
            key = (str(message), category, filename, lineno)
            if key not in seen:
                seen.add(key)
                warnings.warn_explicit(message, category, filename, lineno)
        if error is not None:
            raise error
        outcomes += done
    return outcomes


def _run_partition(options) -> int:
    graph = _load_graph(options)
    if graph.total_weight <= 0:
        flag = "edges" if options.edges else "features"
        raise ValueError(f"--{flag} {getattr(options, flag)}: no edge of positive weight")
    truth = io.load_labels(options.truth) if options.truth else None
    if truth is not None and truth.size != graph.n_nodes:
        raise ValueError(f"--truth {options.truth}: covers {truth.size} nodes, "
                         f"graph has {graph.n_nodes}")

    supervision = None
    if options.supervision:
        nodes, labels = io.load_label_pairs(options.supervision)
        outside = nodes[nodes >= graph.n_nodes]
        if outside.size:
            raise ValueError(f"--supervision {options.supervision}: node {outside[0]} "
                             f"is not in the graph of {graph.n_nodes} nodes")
        supervision = Supervision(nodes, labels, options.supervision_weight)
        max_count = options.sweep[-1] if options.sweep else options.nhat
        if supervision.classes > max_count:
            flag = "--sweep" if options.sweep else "--nhat"
            raise ValueError(f"{flag}: at most {max_count} communities, fewer "
                             f"than the {supervision.classes} classes of --supervision")

    op = DiffusionOperator(graph, options.gamma)
    basis = None
    if not options.recursive:
        # measured on planted graphs, a sweep's best partition at 2*MAX pairs
        # matched 5*MAX's; fixed runs were not measured below 5*nhat
        n_eig = 2 * options.sweep[-1] if options.sweep else 5 * options.nhat
        basis = smallest_eigenpairs(op, min(n_eig, graph.n_nodes))

    # repeats run untraced; only the kept seed is rerun with traces on
    seeds = list(range(options.seed, options.seed + options.repeat))
    outcomes = _run_repeats((op, basis, options, supervision), seeds)

    rows = []
    for seed, (result, ms) in zip(seeds, outcomes):
        if not result.converged:
            print(f"warning: seed {seed}: MBO with {result.nhat} communities did "
                  f"not converge in {mbo.MAX_ITERS} iterations", file=sys.stderr)
        cls = classification_rate(result.labels, truth) if truth is not None else None
        rows.append((seed, result.modularity, cls, ms))

    _, mods, classes, times = zip(*rows)
    best_idx = int(np.argmax(mods))
    kept = outcomes[best_idx][0]
    io.save_labels(f"{options.out}_labels.csv", kept.labels)
    with open(f"{options.out}_batch.csv", "w") as fh:
        fh.write(BATCH_HEADER + "\n")
        for seed, q, cls, ms in rows:
            cls_text = "" if cls is None else repr(cls)
            fh.write(f"{seed},{q!r},{cls_text},{ms:.3f}\n")
    if options.trace:
        # seeded runs repeat exactly, so rerunning the kept run's start, count
        # and timestep with traces on reproduces it
        start = random_start(basis.n_nodes, kept.nhat, seeds[best_idx], supervision)
        result = mbo_run(basis, kept.nhat, start, dt=kept.dt_used,
                         supervision=supervision, trace=True)
        with open(f"{options.out}_trace.csv", "w") as fh:
            fh.write("iteration,balanced_tv,modularity\n")
            for i, (tv, q) in enumerate(
                zip(result.energy_trace, result.modularity_trace), start=1
            ):
                fh.write(f"{i},{float(tv)!r},{float(q)!r}\n")

    scores = {"modularity": mods}
    if truth is not None:
        scores["classification"] = classes
    print(f"runs: {len(rows)}")
    for name, values in scores.items():
        print(f"best {name}: {max(values):.6f}")
    for name, values in scores.items():
        print(f"{name} consistency (tol {CONSISTENCY_TOL}): {consistency(values):.6f}")
    print(f"median wall time: {np.median(times):.1f} ms")
    return 0


def _run_generate(options) -> int:
    # the parser has checked every other argument of the generators
    if options.generator == "two-moons":
        try:
            features, labels = two_moons(options.n, options.dim, options.noise, options.seed)
        except ValueError as exc:
            raise ValueError(f"--noise {options.noise}: {exc}") from None
        io.save_features(options.out, features)
    else:
        try:
            graph, labels = planted_partition(
                options.n, options.communities, options.degree_in,
                options.degree_out, options.seed,
            )
        except ValueError as exc:
            raise ValueError(f"--degree-in/--degree-out with --n {options.n} and "
                             f"--communities {options.communities}: {exc}") from None
        io.save_edge_list(options.out, graph)
    if options.labels_out:
        io.save_labels(options.labels_out, labels)
    print(f"wrote {options.out}")
    return 0


def _run_build_graph(options) -> int:
    graph = _load_graph(options)
    io.save_edge_list(options.out, graph)
    print(f"wrote {options.out}: {graph.n_nodes} nodes, {graph.n_edges} edges")
    return 0


def _run_metrics(options) -> int:
    pred = io.load_labels(options.pred)
    truth = io.load_labels(options.truth)
    if pred.size != truth.size:
        raise ValueError(f"--pred {options.pred} has {pred.size} labels but "
                         f"--truth {options.truth} has {truth.size}")
    if not pred.size:
        raise ValueError(f"--pred {options.pred} and --truth {options.truth}: no labels")
    print(f"purity: {purity(pred, truth):.6f}")
    print(f"classification: {classification_rate(pred, truth):.6f}")
    return 0


def run(options: argparse.Namespace) -> int:
    """Execute a parsed command; returns the process exit code."""
    handlers = {"generate": _run_generate, "build-graph": _run_build_graph,
                "partition": _run_partition, "metrics": _run_metrics}
    return handlers[options.command](options)


def main(argv=None) -> int:
    options = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return run(options)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
