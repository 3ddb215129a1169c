"""Benchmark of the `balancedtv partition` command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The workload's inputs are generated from ``--seed`` outside any
timing and cached, with their reference graph and Louvain modularity, under
``perfbench/.work/``.  Then, for ``--seconds`` seconds and in whole rounds
over the run's inputs, one `balancedtv partition` process after another is
launched through ``launcher.py`` and timed from launch to exit.
With ``--trace 1`` each process runs through ``traced.py`` and the per-layer
metrics are reported instead.  Every process's output files are checked (see
``checks.py``).  The last line printed is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Every process starts with BLAS and OpenMP held to one thread and
BALANCED_TV_THREADS unset, and processes run one at a time.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads BLAS

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
from workloads import WORKLOADS, planted, two_moons  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"
INPUT_VERSION = 3          # bump when a generator or a reference changes
SETUP_SAMPLES = 5

SETUP_PROBE = """\
import sys
import balancedtv.io as io
if sys.argv[1].endswith(".csv"):
    io.load_features(sys.argv[1])
else:
    io.load_edge_list(sys.argv[1])
io.load_labels(sys.argv[2])
"""


def child_env() -> dict:
    """This process's environment (BLAS held to one thread above) without
    BALANCED_TV_THREADS, importing ``balancedtv`` from ``src/``."""
    env = {k: v for k, v in os.environ.items() if k != "BALANCED_TV_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    return env


def prepare(workload, seed: int, index: int):
    """Write input ``index`` of the run with ``seed`` (once) and return
    (input path, truth path, checks.Reference)."""
    folder = WORK / "inputs" / f"{workload.name}-{seed}-{index}-v{INPUT_VERSION}"
    source = folder / ("features.csv" if workload.kind == "moons" else "edges.txt")
    truth_path = folder / "truth.csv"
    ref_path = folder / "reference.npz"
    if not ref_path.is_file():
        folder.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, workload.salt, index])
        p = workload.params
        if workload.kind == "moons":
            features, truth = two_moons(p["n"], p["dim"], p["sigma"], rng)
            np.savetxt(source, features, delimiter=",", fmt="%.17g")
            rows, cols, weights = checks.knn_edges(features, p["knn"])
        else:
            rows, cols, truth = planted(p["n"], p["blocks"], p["deg_in"], p["deg_out"], rng)
            weights = np.ones(rows.size)
            with open(source, "w") as fh:
                fh.write("# i j w\n")
                np.savetxt(fh, np.column_stack([rows, cols]), fmt="%d %d 1")
        with open(truth_path, "w") as fh:
            fh.write("node,label\n")
            fh.writelines(f"{i},{v}\n" for i, v in enumerate(truth))
        louvain = checks.coarsen(
            p["n"], rows, cols, weights,
            checks.louvain_labels(p["n"], rows, cols, weights, workload.gamma),
            workload.gamma, workload.count_range[1])
        np.savez(ref_path, rows=rows, cols=cols, weights=weights, truth=truth,
                 louvain_q=checks.modularity(p["n"], rows, cols, weights, louvain,
                                             workload.gamma))
    with np.load(ref_path) as z:
        ref = checks.Reference(
            n=workload.params["n"], rows=z["rows"], cols=z["cols"],
            weights=z["weights"], truth=z["truth"], gamma=workload.gamma,
            louvain_q=float(z["louvain_q"]),
        )
    return source, truth_path, ref


class Launcher:
    """Handle on a ``launcher.py`` process that runs commands in ``env``."""

    def __init__(self, env, log_path):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py"), str(log_path)], env=env,
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, cmd) -> tuple[float, float, int]:
        """(wall seconds from launch to exit, peak RSS in MB, exit code)."""
        self.proc.stdin.write(json.dumps([str(c) for c in cmd]) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["wall"], reply["rss_mb"], reply["code"]

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "balancedtv" / "cli.py").is_file():
        print(f"error: no balancedtv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = child_env()
    out_dir = WORK / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / f"{workload.name}.log"
    log_path.unlink(missing_ok=True)

    inputs = [prepare(workload, args.seed, i) for i in range(workload.inputs)]
    launcher = Launcher(env, log_path)
    try:
        return measure(args, workload, inputs, launcher, out_dir)
    finally:
        launcher.close()


def measure(args, workload, inputs, launcher, out_dir) -> int:
    """Time the workload's commands and print the result line."""
    # compile the package's bytecode before anything is timed
    if launcher.run([sys.executable, "-c", "import balancedtv.cli"])[2] != 0:
        print("error: cannot import balancedtv", file=sys.stderr)
        return 1

    setup = []
    if not args.trace:
        for i in range(SETUP_SAMPLES):
            source, truth_path, _ = inputs[i % len(inputs)]
            wall, _, code = launcher.run([sys.executable, "-c", SETUP_PROBE, source,
                                          truth_path])
            if code != 0:
                print(f"error: setup probe exited {code}", file=sys.stderr)
                return 1
            setup.append(wall)
        print("setup: " + ", ".join(f"{t:.3f} s" for t in setup), file=sys.stderr)

    input_flag = "--features" if workload.kind == "moons" else "--edges"
    spans_path = out_dir / f"{workload.name}_spans.json"
    runner = ([str(BENCH / "traced.py"), str(spans_path)] if args.trace
              else ["-m", "balancedtv"])
    commands, prefixes = [], []
    for i, (source, truth_path, _) in enumerate(inputs):
        prefixes.append(out_dir / f"{workload.name}-{i}")
        commands.append([sys.executable, *runner, "partition", input_flag, str(source),
                         *workload.flags, "--repeat", str(workload.repeat),
                         "--truth", str(truth_path),
                         "--out", str(prefixes[-1])])

    walls, rss, per_layer, failures = [], [], [], []
    quality = [set() for _ in inputs]
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while attempted == 0 or time.perf_counter() < deadline:
        # whole rounds: every input is run the same number of times
        for i, (cmd, prefix) in enumerate(zip(commands, prefixes)):
            for suffix in ("_labels.csv", "_batch.csv"):
                Path(f"{prefix}{suffix}").unlink(missing_ok=True)
            attempted += 1
            wall, peak, code = launcher.run(cmd)
            print(f"invocation {attempted} (input {i}): {wall:.3f} s, {peak:.0f} MB, "
                  f"exit {code}", file=sys.stderr)
            if code != 0:
                failed += 1
                continue
            found, values = checks.check_outputs(prefix, inputs[i][2], workload)
            failures += found
            if values is not None:
                quality[i].add(values)
            walls.append(wall)
            rss.append(peak)
            if args.trace:
                with open(spans_path) as fh:
                    last_trace = (json.load(fh), wall)
                per_layer.append(layers.layer_metrics(*last_trace))

    for i, values in enumerate(quality):
        if len(values) > 1:
            failures.append(f"input {i}: outputs differ between identical invocations: "
                            f"{sorted(values)}")
        elif values and not failures:
            missed = checks.self_test(prefixes[i], inputs[i][2], workload)
            failures += [f"self-test: corrupted labels ({m}) passed the checks"
                         for m in missed]
    for line in failures:
        print(f"check failed: {line}", file=sys.stderr)

    metrics = {}
    if walls and args.trace:
        for name, unit in layers.PER_LAYER:
            value = statistics.median(m[name] for m in per_layer)
            metrics[name] = {"value": value, "unit": unit}
        trace, wall = last_trace
        print(f"self time by layer, last traced run ({wall:.3f} s):")
        for layer, seconds in sorted(layers.self_times(trace, wall).items(),
                                     key=lambda kv: -kv[1]):
            print(f"  {layer:<10} {seconds:8.3f} s  {100 * seconds / wall:5.1f}%")
    elif walls and all(quality):
        per_input = [min(values) for values in quality]
        q_best, q_median, class_best = (statistics.median(v) for v in zip(*per_input))
        metrics = {
            "run_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
            "q_best": {"value": q_best, "unit": "Q"},
            "q_median": {"value": q_median, "unit": "Q"},
            "class_best": {"value": class_best, "unit": "ratio"},
        }
    print(json.dumps({"correct": bool(metrics) and not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
