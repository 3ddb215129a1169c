import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import balancedtv
from balancedtv import consistency, load_labels, save_edge_list, save_labels
from balancedtv.cli import main, parse_args, run
from conftest import two_cliques


# flags whose k-NN range parse_args rejects, and the flag its error names
KNN_RANGE_ERRORS = [
    (["--knn", "0"], "--knn"),
    (["--knn", "-3"], "--knn"),
]


def write_cliques(tmp_path):
    path = tmp_path / "cliques.txt"
    save_edge_list(path, two_cliques(5))
    return path


def write_planted(tmp_path, n, communities):
    edges, truth = tmp_path / "planted.txt", tmp_path / "truth.csv"
    assert main([
        "generate", "planted", "--n", str(n), "--communities", str(communities),
        "--degree-in", "8", "--degree-out", "0.5", "--seed", "2",
        "--out", str(edges), "--labels-out", str(truth),
    ]) == 0
    return edges, truth


def test_import_skips_slow_scipy_modules():
    src = os.path.dirname(os.path.dirname(balancedtv.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, balancedtv.cli; "
            "print(sorted(m for m in ('scipy.spatial', 'scipy.optimize', 'statistics') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


class TestParseArgs:
    def test_fixed_strategy_spec(self, tmp_path):
        edges = write_cliques(tmp_path)
        options = parse_args([
            "partition", "--edges", str(edges), "--gamma", "0.5",
            "--nhat", "2", "--seed", "7", "--out", str(tmp_path / "run"),
        ])
        assert options.command == "partition"
        assert (options.nhat, options.gamma, options.seed) == (2, 0.5, 7)

    def test_conflicting_sources_rejected(self, tmp_path, capsys):
        edges = write_cliques(tmp_path)
        with pytest.raises(SystemExit) as exc:
            parse_args([
                "partition", "--edges", str(edges), "--features", str(edges),
                "--nhat", "2", "--out", "x",
            ])
        assert exc.value.code == 2
        assert "--features" in capsys.readouterr().err

    def test_generator_spec(self, tmp_path):
        options = parse_args([
            "generate", "two-moons", "--n", "2000", "--dim", "100",
            "--out", str(tmp_path / "pts.csv"),
        ])
        assert options.command == "generate"
        assert options.n == 2000

    @pytest.mark.parametrize("argv,message", [
        ("two-moons --n 0", "--n: must be finite and at least 1"),
        ("two-moons --dim 1", "--dim: must be finite and at least 2"),
        ("two-moons --noise -0.1", "--noise: must be finite and at least 0"),
        ("two-moons --noise nan", "--noise: must be finite and at least 0"),
        ("two-moons --noise inf", "--noise: must be finite and at least 0"),
        ("planted --n 0", "--n: must be finite and at least 1"),
        ("planted --communities 0", "--communities: must be finite and at least 1"),
        ("planted --n 5 --communities 6", "--communities: must not exceed --n"),
        ("planted --degree-in -1", "--degree-in: must be finite and at least 0"),
        ("planted --degree-in nan", "--degree-in: must be finite and at least 0"),
        ("planted --degree-out inf", "--degree-out: must be finite and at least 0"),
        ("planted --degree-out -0.5", "--degree-out: must be finite and at least 0"),
    ])
    def test_generate_range_checked_at_parse_time(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out.txt"
        with pytest.raises(SystemExit) as exc:
            parse_args(["generate", *argv.split(), "--out", str(out)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        "partition --edges E --nhat 2", "partition --edges E --sweep 2..3",
        "partition --edges E --recursive", "generate two-moons", "generate planted",
    ])
    def test_negative_seed_rejected(self, tmp_path, capsys, argv):
        edges = write_cliques(tmp_path)
        argv = [str(edges) if arg == "E" else arg for arg in argv.split()]
        with pytest.raises(SystemExit) as exc:
            parse_args([*argv, "--seed", "-1", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "error: --seed: must be at least 0" in capsys.readouterr().err

    def test_missing_input_file_named(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["partition", "--edges", "no_such.txt", "--nhat", "2", "--out", "x"])
        assert exc.value.code == 2
        assert "no_such.txt" in capsys.readouterr().err

    def test_directory_input_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["partition", "--edges", str(tmp_path), "--nhat", "2", "--out", "x"])
        assert exc.value.code == 2
        assert f"--edges: cannot read file {str(tmp_path)!r}" in capsys.readouterr().err

    def test_sweep_parsing(self, tmp_path):
        edges = write_cliques(tmp_path)
        options = parse_args([
            "partition", "--edges", str(edges), "--sweep", "2..4", "--out", "x",
        ])
        assert options.sweep == range(2, 5)

    def test_bad_sweep_range(self, tmp_path, capsys):
        edges = write_cliques(tmp_path)
        with pytest.raises(SystemExit):
            parse_args([
                "partition", "--edges", str(edges), "--sweep", "4-2", "--out", "x",
            ])
        assert "--sweep" in capsys.readouterr().err

    @pytest.mark.parametrize("strategy,message", [
        (["--nhat", "0"], "--nhat: must be at least 1"),
        (["--sweep", "0..3"], "--sweep: need 1 <= MIN <= MAX"),
        (["--sweep", "5..2"], "--sweep: need 1 <= MIN <= MAX"),
    ])
    def test_count_range_checked_at_parse_time(self, tmp_path, capsys, strategy, message):
        edges = write_cliques(tmp_path)
        with pytest.raises(SystemExit) as exc:
            parse_args(["partition", "--edges", str(edges), *strategy, "--out", "x"])
        assert exc.value.code == 2
        assert f"error: {message}\n" in capsys.readouterr().err

    def test_supervision_with_recursive_rejected(self, tmp_path, capsys):
        edges = write_cliques(tmp_path)
        sup = tmp_path / "sup.csv"
        sup.write_text("node,label\n0,0\n")
        with pytest.raises(SystemExit):
            parse_args([
                "partition", "--edges", str(edges), "--recursive",
                "--supervision", str(sup), "--out", "x",
            ])
        assert "--supervision" in capsys.readouterr().err

    def test_trace_with_recursive_rejected(self, tmp_path, capsys):
        edges = write_cliques(tmp_path)
        with pytest.raises(SystemExit) as exc:
            parse_args(["partition", "--edges", str(edges), "--recursive", "--trace",
                        "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--trace" in err and "--recursive" in err

    def test_bad_split_factor_named(self, tmp_path, capsys):
        edges = write_cliques(tmp_path)
        with pytest.raises(SystemExit) as exc:
            parse_args(["partition", "--edges", str(edges), "--recursive",
                        "--split-factor", "1", "--out", "x"])
        assert exc.value.code == 2
        assert "--split-factor: must be at least 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,removed", [
        ("partition --features IN --recursive --out x", "--min-size 10"),
        ("partition --features IN --recursive --out x", "--gain-tol 1e-8"),
        ("partition --features IN --nhat 2 --out x", "--dt 0.1"),
        ("partition --features IN --nhat 2 --knn 2 --out x", "--scaling-neighbor 1"),
        ("build-graph --features IN --out x", "--scaling-neighbor 1"),
        ("metrics --pred IN --truth IN", "--tol 0.02"),
        ("metrics --pred IN --truth IN", "--batch run_batch.csv"),
        ("partition --features IN --nhat 2 --out x", "--neig 3"),
        ("partition --features IN --sweep 2..4 --out x", "--neig 0"),
        ("partition --features IN --recursive --out x", "--neig 3"),
    ])
    def test_removed_flag_is_unknown(self, tmp_path, capsys, argv, removed):
        pts = tmp_path / "pts.csv"
        pts.write_text("0,0\n1,1\n2,2\n")
        args = [str(pts) if arg == "IN" else arg for arg in argv.split()]
        with pytest.raises(SystemExit) as exc:
            parse_args(args + removed.split())
        assert exc.value.code == 2
        assert f"unrecognized arguments: {removed}" in capsys.readouterr().err

    @pytest.mark.parametrize("command,count", [
        ("partition", 15), ("build-graph", 3), ("metrics", 2),
    ])
    def test_help_lists_settable_flags(self, capsys, command, count):
        with pytest.raises(SystemExit) as exc:
            parse_args([command, "--help"])
        assert exc.value.code == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert len(set(re.findall(r"--[\w-]+", usage))) == count

    @pytest.mark.parametrize("strategy,flag,value", [
        (["--nhat", "4"], "--split-factor", "7"),
    ])
    def test_flag_unused_by_strategy_rejected(self, tmp_path, capsys,
                                              strategy, flag, value):
        edges = write_cliques(tmp_path)
        with pytest.raises(SystemExit) as exc:
            parse_args(["partition", "--edges", str(edges), *strategy,
                        flag, value, "--out", "x"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("strategy", [["--nhat", "2"], ["--sweep", "2..4"],
                                          ["--recursive"]])
    @pytest.mark.parametrize("gamma", ["nan", "inf", "0", "-1"])
    def test_gamma_outside_positive_reals_rejected(self, tmp_path, capsys,
                                                  strategy, gamma):
        edges = write_cliques(tmp_path)
        with pytest.raises(SystemExit) as exc:
            parse_args(["partition", "--edges", str(edges), *strategy,
                        "--gamma", gamma, "--out", "x"])
        assert exc.value.code == 2
        assert "error: --gamma: must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["-1", "nan"])
    def test_bad_supervision_weight_rejected(self, tmp_path, capsys, weight):
        edges = write_cliques(tmp_path)
        sup = tmp_path / "sup.csv"
        sup.write_text("node,label\n0,0\n")
        with pytest.raises(SystemExit) as exc:
            parse_args(["partition", "--edges", str(edges), "--nhat", "2",
                        "--supervision", str(sup), "--supervision-weight", weight,
                        "--out", "x"])
        assert exc.value.code == 2
        assert "error: --supervision-weight: must be at least 0" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("flag,value,needs", [
        ("--knn", "5", "--features"),
        ("--supervision-weight", "5", "--supervision"),
    ])
    def test_partition_flag_without_its_option_rejected(self, tmp_path, capsys,
                                                        flag, value, needs):
        edges = write_cliques(tmp_path)
        with pytest.raises(SystemExit) as exc:
            parse_args(["partition", "--edges", str(edges), "--nhat", "2",
                        flag, value, "--out", "x"])
        assert exc.value.code == 2
        assert f"{flag}: only used with {needs}" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,named", KNN_RANGE_ERRORS)
    def test_partition_knn_range_checked_at_parse_time(self, tmp_path, capsys,
                                                       flags, named):
        pts = tmp_path / "pts.csv"
        pts.write_text("0,0\n1,1\n2,2\n")
        with pytest.raises(SystemExit) as exc:
            parse_args(["partition", "--features", str(pts), "--nhat", "2",
                        *flags, "--out", "x"])
        assert exc.value.code == 2
        assert f"error: {named}: must" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,named", KNN_RANGE_ERRORS)
    def test_build_graph_knn_range_checked_at_parse_time(self, tmp_path, capsys,
                                                         flags, named):
        pts = tmp_path / "pts.csv"
        pts.write_text("0,0\n1,1\n2,2\n")
        with pytest.raises(SystemExit) as exc:
            parse_args(["build-graph", "--features", str(pts), *flags, "--out", "x"])
        assert exc.value.code == 2
        assert f"error: {named}: must" in capsys.readouterr().err

    def test_dependent_defaults_resolved(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("0,0\n1,1\n")
        sup = tmp_path / "sup.csv"
        sup.write_text("node,label\n0,0\n")
        options = parse_args(["partition", "--features", str(pts), "--nhat", "2",
                              "--supervision", str(sup), "--out", "x"])
        assert (options.knn, options.supervision_weight) == (13, 100.0)

    def test_recursive_defaults_resolved(self, tmp_path):
        edges = write_cliques(tmp_path)
        options = parse_args(["partition", "--edges", str(edges), "--recursive",
                              "--out", "x"])
        assert options.split_factor == 2


class TestEndToEnd:
    def test_partition_separates_cliques(self, tmp_path, capsys):
        edges = write_cliques(tmp_path)
        truth = tmp_path / "truth.csv"
        save_labels(truth, np.repeat([0, 1], 5))
        out = tmp_path / "run"
        code = main([
            "partition", "--edges", str(edges), "--gamma", "1.0", "--nhat", "2",
            "--seed", "0", "--repeat", "3", "--truth", str(truth),
            "--out", str(out), "--trace",
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "best modularity" in printed
        assert "best classification" in printed
        labels = load_labels(f"{out}_labels.csv")
        assert len(set(labels[:5])) == 1 and len(set(labels[5:])) == 1
        assert labels[0] != labels[5]
        batch_lines = Path(f"{out}_batch.csv").read_text().splitlines()
        assert batch_lines[0] == "seed,modularity,classification,wall_time_ms"
        assert len(batch_lines) == 4
        trace_lines = Path(f"{out}_trace.csv").read_text().splitlines()
        assert trace_lines[0] == "iteration,balanced_tv,modularity"
        assert len(trace_lines) >= 2

    @pytest.mark.parametrize("scored", [False, True])
    def test_consistency_lines_match_batch(self, tmp_path, capsys, scored):
        edges, truth = write_planted(tmp_path, 90, 3)
        out = tmp_path / "run"
        scoring = ["--truth", str(truth)] if scored else []
        assert main(["partition", "--edges", str(edges), "--nhat", "5",
                     "--repeat", "8", *scoring, "--out", str(out)]) == 0
        printed = capsys.readouterr().out.splitlines()
        rows = [line.split(",")
                for line in Path(f"{out}_batch.csv").read_text().splitlines()[1:]]
        expected = [("modularity", [float(row[1]) for row in rows])]
        if scored:
            expected.append(("classification", [float(row[2]) for row in rows]))
        assert [line for line in printed if " consistency (tol" in line] == [
            f"{name} consistency (tol 0.02): {consistency(values):.6f}"
            for name, values in expected
        ]

    @pytest.mark.parametrize("strategy", [["--nhat", "6"], ["--sweep", "4..6"]])
    def test_seed_row_independent_of_repeat_window(self, tmp_path, strategy):
        # 300 nodes: the whole-graph basis comes from Lanczos
        edges, truth = write_planted(tmp_path, 300, 6)

        def seed_rows(name, seed, repeat):
            out = tmp_path / name
            assert main(["partition", "--edges", str(edges), *strategy,
                         "--seed", str(seed), "--repeat", str(repeat),
                         "--truth", str(truth), "--out", str(out)]) == 0
            lines = Path(f"{out}_batch.csv").read_text().splitlines()[1:]
            return {line.split(",")[0]: line.rsplit(",", 1)[0] for line in lines}

        alone = seed_rows("alone", 2, 1)
        window = seed_rows("window", 1, 3)
        assert alone["2"] == window["2"]

    def test_byte_identical_reruns(self, tmp_path):
        edges = write_cliques(tmp_path)
        outputs = []
        for run_dir in ("a", "b"):
            out = tmp_path / run_dir
            code = main([
                "partition", "--edges", str(edges), "--nhat", "2",
                "--seed", "5", "--repeat", "4", "--out", str(out), "--trace",
            ])
            assert code == 0
            labels_bytes = Path(f"{out}_labels.csv").read_bytes()
            trace_bytes = Path(f"{out}_trace.csv").read_bytes()
            batch = [
                line.split(",")[:3]  # all columns except wall_time_ms
                for line in Path(f"{out}_batch.csv").read_text().splitlines()
            ]
            outputs.append((labels_bytes, trace_bytes, batch))
        assert outputs[0] == outputs[1]

    def test_generate_build_partition_pipeline(self, tmp_path):
        pts = tmp_path / "pts.csv"
        truth = tmp_path / "truth.csv"
        assert main([
            "generate", "two-moons", "--n", "120", "--dim", "4",
            "--noise", "0.05", "--seed", "1", "--out", str(pts),
            "--labels-out", str(truth),
        ]) == 0
        graph_file = tmp_path / "g.txt"
        assert main([
            "build-graph", "--features", str(pts), "--knn", "6",
            "--out", str(graph_file),
        ]) == 0
        out = tmp_path / "moons"
        assert main([
            "partition", "--edges", str(graph_file), "--gamma", "0.5",
            "--nhat", "2", "--repeat", "2", "--truth", str(truth),
            "--out", str(out),
        ]) == 0
        labels = load_labels(f"{out}_labels.csv")
        assert labels.size == 120

    def test_features_input_direct(self, tmp_path):
        pts = tmp_path / "pts.csv"
        main([
            "generate", "two-moons", "--n", "80", "--dim", "3",
            "--noise", "0.05", "--seed", "3", "--out", str(pts),
        ])
        out = tmp_path / "direct"
        assert main([
            "partition", "--features", str(pts), "--knn", "5",
            "--nhat", "2", "--out", str(out),
        ]) == 0

    def test_recursive_and_sweep_commands(self, tmp_path):
        edges = tmp_path / "planted.txt"
        truth = tmp_path / "truth.csv"
        assert main([
            "generate", "planted", "--n", "90", "--communities", "3",
            "--degree-in", "8", "--degree-out", "0.5", "--seed", "2",
            "--out", str(edges), "--labels-out", str(truth),
        ]) == 0
        assert main([
            "partition", "--edges", str(edges), "--recursive",
            "--truth", str(truth), "--out", str(tmp_path / "rec"),
        ]) == 0
        assert main([
            "partition", "--edges", str(edges), "--sweep", "2..4",
            "--truth", str(truth), "--out", str(tmp_path / "swp"),
        ]) == 0

    # a graph of mostly isolated nodes has a repeated zero eigenvalue
    @pytest.mark.filterwarnings("ignore:eigenvalue .* nearly coincide:UserWarning")
    @pytest.mark.parametrize("seed", [2, 4, 5, 7])
    def test_generated_graph_keeps_isolated_last_node(self, tmp_path, seed):
        # at these seeds node 39 draws no edge; the written graph still has 40 nodes
        edges, truth = tmp_path / "p.txt", tmp_path / "t.csv"
        assert main([
            "generate", "planted", "--n", "40", "--communities", "4",
            "--degree-in", "0.3", "--degree-out", "0", "--seed", str(seed),
            "--out", str(edges), "--labels-out", str(truth),
        ]) == 0
        assert main([
            "partition", "--edges", str(edges), "--nhat", "4",
            "--truth", str(truth), "--out", str(tmp_path / "r"),
        ]) == 0

    @pytest.mark.parametrize("strategy,asked", [
        (["--sweep", "2..4"], 8),      # 2 * MAX
        (["--nhat", "3"], 15),         # 5 * nhat
        (["--sweep", "44..46"], 90),   # 2 * MAX = 92, capped at the 90 nodes
        (["--nhat", "20"], 90),        # 5 * nhat = 100, capped likewise
    ])
    def test_basis_size_follows_count(self, tmp_path, monkeypatch, strategy, asked):
        import balancedtv.cli as cli_mod

        edges, _ = write_planted(tmp_path, 90, 3)
        sizes = []
        real = cli_mod.smallest_eigenpairs
        monkeypatch.setattr(cli_mod, "smallest_eigenpairs",
                            lambda op, n_eig, **k: sizes.append(n_eig) or real(op, n_eig, **k))
        assert main(["partition", "--edges", str(edges), *strategy,
                     "--out", str(tmp_path / "run")]) == 0
        assert sizes == [asked]

    def test_sweep_writes_trace(self, tmp_path):
        edges, _ = write_planted(tmp_path, 90, 3)
        out = tmp_path / "swp"
        assert main([
            "partition", "--edges", str(edges), "--sweep", "2..4",
            "--out", str(out), "--trace",
        ]) == 0
        trace_lines = Path(f"{out}_trace.csv").read_text().splitlines()
        assert trace_lines[0] == "iteration,balanced_tv,modularity"
        assert len(trace_lines) >= 2

    @pytest.mark.parametrize("strategy", [
        ["--nhat", "3"], ["--sweep", "2..4"], ["--sweep", "2..4", "--supervision"],
    ])
    def test_trace_ends_at_kept_modularity(self, tmp_path, strategy):
        # the traced rerun starts where the kept run started, so its last
        # iterate is the kept partition
        edges, truth_path = write_planted(tmp_path, 90, 3)
        if strategy[-1] == "--supervision":
            truth = load_labels(truth_path)
            sup = tmp_path / "known.csv"
            sup.write_text("node,label\n" + "".join(
                f"{np.flatnonzero(truth == b)[0]},{b}\n" for b in range(3)))
            strategy = [*strategy, str(sup)]
        out = tmp_path / "run"
        assert main(["partition", "--edges", str(edges), *strategy,
                     "--repeat", "3", "--out", str(out), "--trace"]) == 0
        rows = [line.split(",") for line in
                Path(f"{out}_batch.csv").read_text().splitlines()[1:]]
        best = max(rows, key=lambda row: float(row[1]))[1]
        last = Path(f"{out}_trace.csv").read_text().splitlines()[-1].split(",")
        assert last[2] == best

    def test_sweep_with_more_supervised_classes_than_its_minimum(self, tmp_path):
        edges, truth_path = write_planted(tmp_path, 80, 4)
        truth = load_labels(truth_path)
        nodes = [int(np.flatnonzero(truth == b)[0]) for b in range(4)]
        sup = tmp_path / "known.csv"
        sup.write_text("node,label\n" + "".join(f"{i},{truth[i]}\n" for i in nodes))
        out = tmp_path / "ssl_sweep"
        assert main([
            "partition", "--edges", str(edges), "--sweep", "2..6",
            "--supervision", str(sup), "--out", str(out),
        ]) == 0
        labels = load_labels(f"{out}_labels.csv")
        assert np.array_equal(labels[nodes], truth[nodes])

    @pytest.mark.parametrize("strategy", [["--nhat", "2"], ["--sweep", "2..4"]])
    def test_trace_computed_for_kept_repeat_only(self, tmp_path, monkeypatch, strategy):
        import balancedtv.cli as cli_mod
        import balancedtv.partition as partition_mod

        edges, _ = write_planted(tmp_path, 90, 3)
        # one process, so that the counting wrappers see every repeat
        monkeypatch.setattr(cli_mod, "_worker_count", lambda repeat: 1)
        traced = []
        for mod in (cli_mod, partition_mod):
            real = mod.mbo_run
            monkeypatch.setattr(
                mod, "mbo_run",
                lambda *a, real=real, **k: traced.append(k.get("trace", False))
                or real(*a, **k),
            )
        out = tmp_path / "many"
        assert main(["partition", "--edges", str(edges), *strategy,
                     "--repeat", "5", "--out", str(out), "--trace"]) == 0
        # five untraced repeats, then one traced rerun of the kept run only
        assert traced == [False] * (len(traced) - 1) + [True]
        assert (len(traced) - 1) % 5 == 0
        batch = np.loadtxt(f"{out}_batch.csv", delimiter=",", skiprows=1, usecols=(0, 1))
        best_seed = int(batch[np.argmax(batch[:, 1]), 0])
        single = tmp_path / "single"
        assert main(["partition", "--edges", str(edges), *strategy,
                     "--seed", str(best_seed), "--out", str(single), "--trace"]) == 0
        trace = Path(f"{out}_trace.csv").read_bytes()
        assert trace == Path(f"{single}_trace.csv").read_bytes()
        assert len(trace.splitlines()) >= 2

    @pytest.mark.parametrize("strategy,flag", [
        (["--nhat", "3"], "--nhat"), (["--sweep", "2..3"], "--sweep"),
    ])
    def test_too_many_supervised_classes_names_flags(self, tmp_path, capsys,
                                                     strategy, flag):
        edges, truth_path = write_planted(tmp_path, 80, 4)
        truth = load_labels(truth_path)
        sup = tmp_path / "known.csv"
        sup.write_text("node,label\n" + "".join(
            f"{int(np.flatnonzero(truth == b)[0])},{b}\n" for b in range(4)))
        code = main(["partition", "--edges", str(edges), *strategy,
                     "--supervision", str(sup), "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert flag in err and "--supervision" in err and "4 classes" in err

    def test_supervision_node_outside_graph_named_before_eigensolve(
            self, tmp_path, capsys, monkeypatch):
        import balancedtv.cli as cli_mod

        def no_solve(*args, **kwargs):
            raise AssertionError("eigensolve ran before the supervision check")

        monkeypatch.setattr(cli_mod, "smallest_eigenpairs", no_solve)
        edges = write_cliques(tmp_path)  # 10 nodes
        sup = tmp_path / "sup.csv"
        sup.write_text("node,label\n0,0\n12,1\n10,1\n")
        code = main(["partition", "--edges", str(edges), "--nhat", "2",
                     "--supervision", str(sup), "--out", str(tmp_path / "x")])
        assert code == 1
        assert f"error: --supervision {sup}: node 12 is not in the graph of 10 nodes" in (
            capsys.readouterr().err)

    def test_truth_length_mismatch_names_flag_and_file(self, tmp_path, capsys):
        edges = write_cliques(tmp_path)  # 10 nodes
        truth = tmp_path / "truth.csv"
        save_labels(truth, np.zeros(9, dtype=np.int64))
        code = main(["partition", "--edges", str(edges), "--nhat", "2",
                     "--truth", str(truth), "--out", str(tmp_path / "x")])
        assert code == 1
        assert f"error: --truth {truth}: covers 9 nodes, graph has 10" in (
            capsys.readouterr().err)

    def test_recursive_split_factor_above_min_split_size(self, tmp_path):
        # communities of 4 nodes used to be split into 5 parts, which their
        # 4-vector basis cannot seed
        edges = tmp_path / "planted.txt"
        assert main(["generate", "planted", "--n", "600", "--communities", "6",
                     "--seed", "0", "--out", str(edges)]) == 0
        assert main(["partition", "--edges", str(edges), "--recursive",
                     "--split-factor", "5", "--out", str(tmp_path / "rec5")]) == 0
        labels = load_labels(tmp_path / "rec5_labels.csv")
        assert np.array_equal(np.unique(labels), np.arange(labels.max() + 1))

    @pytest.mark.parametrize("strategy", [["--nhat", "3"], ["--recursive"]])
    def test_non_convergence_reported(self, tmp_path, capsys, monkeypatch, strategy):
        import balancedtv.mbo as mbo_mod

        monkeypatch.setattr(mbo_mod, "MAX_ITERS", 1)
        edges, _ = write_planted(tmp_path, 90, 3)
        options = parse_args([
            "partition", "--edges", str(edges), *strategy, "--seed", "4",
            "--out", str(tmp_path / "short"),
        ])
        assert run(options) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "seed 4" in err[0] and "3 communities" in err[0]
        assert "in 1 iterations" in err[0]

    def test_supervision_flag(self, tmp_path):
        edges = write_cliques(tmp_path)
        sup = tmp_path / "sup.csv"
        sup.write_text("node,label\n0,0\n5,1\n")
        out = tmp_path / "sup_run"
        assert main([
            "partition", "--edges", str(edges), "--nhat", "2",
            "--supervision", str(sup), "--supervision-weight", "100",
            "--out", str(out),
        ]) == 0
        labels = load_labels(f"{out}_labels.csv")
        assert labels[0] == 0 and labels[5] == 1

    def test_infinite_supervision_weight_pins_known_labels(self, tmp_path):
        edges, truth_path = write_planted(tmp_path, 90, 3)
        truth = load_labels(truth_path)
        nodes = [int(np.flatnonzero(truth == b)[0]) for b in range(3)]
        sup = tmp_path / "known.csv"
        sup.write_text("node,label\n" + "".join(f"{i},{truth[i]}\n" for i in nodes))
        out = tmp_path / "pinned"
        assert main(["partition", "--edges", str(edges), "--nhat", "3",
                     "--supervision", str(sup), "--supervision-weight", "inf",
                     "--out", str(out)]) == 0
        labels = load_labels(f"{out}_labels.csv")
        assert np.array_equal(labels[nodes], truth[nodes])

    @pytest.mark.parametrize("command,knn,points,problem", [
        ("partition", "5", "0,0\n1,1\n2,2\n", "k must satisfy 1 <= k < n_points"),
        ("build-graph", "3", "0,0\n1,1\n2,2\n", "k must satisfy 1 <= k < n_points"),
        ("partition", "2", "0,0\n0,0\n0,0\n5,5\n", "point 0: all 2 nearest neighbors coincide"),
        ("build-graph", "2", "0,0\n0,0\n0,0\n5,5\n", "point 0: all 2 nearest neighbors coincide"),
    ])
    def test_knn_failure_names_flag_and_file(self, tmp_path, capsys, command, knn,
                                             points, problem):
        pts = tmp_path / "pts.csv"
        pts.write_text(points)
        strategy = ["--nhat", "2"] if command == "partition" else []
        assert main([command, "--features", str(pts), "--knn", knn, *strategy,
                     "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert f"error: --knn {knn} on --features {pts}: {problem}" in err

    def test_non_finite_feature_line_named(self, tmp_path, capsys):
        pts = tmp_path / "pts.csv"
        pts.write_text("0,0\n1,1\nnan,2\n3,3\n")
        assert main(["partition", "--features", str(pts), "--knn", "2", "--nhat", "2",
                     "--out", str(tmp_path / "x")]) == 1
        assert f"error: {pts}: line 3: non-finite feature entry" in capsys.readouterr().err

    def test_metrics_command(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        truth = tmp_path / "truth.csv"
        save_labels(pred, [0, 0, 1, 1])
        save_labels(truth, [1, 1, 0, 0])
        assert main(["metrics", "--pred", str(pred), "--truth", str(truth)]) == 0
        printed = capsys.readouterr().out
        assert "purity: 1.0" in printed
        assert "classification: 1.0" in printed

    def test_metrics_length_mismatch_names_flags_and_files(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        truth = tmp_path / "truth.csv"
        save_labels(pred, [0, 0, 1])
        save_labels(truth, [1, 0])
        assert main(["metrics", "--pred", str(pred), "--truth", str(truth)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (f"error: --pred {pred} has 3 labels but --truth {truth} has 2"
                in captured.err)

    def test_metrics_on_empty_label_files_names_flags_and_files(self, tmp_path, capsys):
        pred, truth = tmp_path / "pred.csv", tmp_path / "truth.csv"
        pred.write_text("node,label\n")
        truth.write_text("node,label\n")
        assert main(["metrics", "--pred", str(pred), "--truth", str(truth)]) == 1
        assert capsys.readouterr().err == (
            f"error: --pred {pred} and --truth {truth}: no labels\n")

    @pytest.mark.parametrize("content", ["# only a comment\n", "0 0 1\n2 2 3.5\n",
                                         "0 1 0\n1 2 0.0\n"])
    @pytest.mark.parametrize("strategy", [["--nhat", "2"], ["--recursive"]])
    def test_edge_list_without_positive_edge_named(self, tmp_path, capsys, content,
                                                   strategy):
        edges = tmp_path / "g.txt"
        edges.write_text(content)
        assert main(["partition", "--edges", str(edges), *strategy,
                     "--out", str(tmp_path / "x")]) == 1
        assert capsys.readouterr().err == (
            f"error: --edges {edges}: no edge of positive weight\n")
        assert not (tmp_path / "x_labels.csv").exists()

    @pytest.mark.parametrize("flag,name,content", [
        ("--edges", "g.txt", f"0 1 1.0\n1 2 1.0\n2 {2**63 - 1} 1.0\n"),
        ("--supervision", "sup.csv", f"node,label\n0,0\n{2**63},1\n"),
    ])
    def test_id_beyond_int64_is_an_error_line(self, tmp_path, capsys, flag, name, content):
        path = tmp_path / name
        path.write_text(content)
        source = [] if flag == "--edges" else ["--edges", str(write_cliques(tmp_path))]
        code = main(["partition", *source, flag, str(path), "--nhat", "2",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert f"error: {path}: line 3: " in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        ("two-moons --n 10 --dim 2 --noise 1e308",
         "--noise 1e+308: noise_sigma 1e+308 overflows the features"),
        ("planted --n 10 --communities 2 --degree-in 20",
         "--degree-in/--degree-out with --n 10 and --communities 2: "
         "within-block edge probability 5 outside [0, 1]"),
        # arrays of more than intp-max bytes, which numpy refuses before allocating
        (f"two-moons --n {2**62} --dim 2", f"--n {2**62} and --dim 2: too large for memory"),
        (f"planted --n {2**62} --communities 2", f"--n {2**62}: too large for memory"),
    ])
    def test_infeasible_generator_values_named(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out.txt"
        assert main(["generate", *argv.split(), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("generator,argv,named", [
        ("two_moons", "two-moons --n 1000000000000 --dim 2", "--n 1000000000000 and --dim 2"),
        ("planted_partition", "planted --n 1000000000000", "--n 1000000000000"),
    ])
    def test_generator_out_of_memory_names_size_flags(self, tmp_path, capsys, monkeypatch,
                                                      generator, argv, named):
        # a real request of terabytes can succeed under memory overcommit
        def refuse(*args):
            raise MemoryError

        monkeypatch.setattr(f"balancedtv.cli.{generator}", refuse)
        out = tmp_path / "out.txt"
        assert main(["generate", *argv.split(), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {named}: too large for memory\n"
        assert not out.exists()

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_inputs_from_pipes(self, tmp_path, capsys):
        # as in `--edges <(cmd)`: a /dev/fd path that is not a regular file
        def pipe(text):
            read_end, write_end = os.pipe()
            os.write(write_end, text.encode())
            os.close(write_end)
            return read_end

        truth = tmp_path / "truth.csv"
        save_labels(truth, np.repeat([0, 1], 5))
        ends = [pipe(write_cliques(tmp_path).read_text()), pipe(truth.read_text())]
        try:
            assert main(["partition", "--edges", f"/dev/fd/{ends[0]}", "--nhat", "2",
                         "--truth", f"/dev/fd/{ends[1]}", "--seed", "0",
                         "--out", str(tmp_path / "run")]) == 0
        finally:
            for end in ends:
                os.close(end)
        assert "best classification: 1.000000" in capsys.readouterr().out

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1 -5\n")
        code = main(["partition", "--edges", str(bad), "--nhat", "2", "--out", "x"])
        assert code == 1
        assert "error" in capsys.readouterr().err


def run_outputs(tmp_path, name, argv):
    """(labels bytes, batch rows without wall time, trace bytes or None)
    of one ``partition`` run."""
    out = tmp_path / name
    code = main(["partition", *argv, "--out", str(out)])
    assert code == 0
    batch = [line.rsplit(",", 1)[0]
             for line in Path(f"{out}_batch.csv").read_text().splitlines()]
    trace = Path(f"{out}_trace.csv")
    return (Path(f"{out}_labels.csv").read_bytes(), batch,
            trace.read_bytes() if trace.exists() else None)


# the worker count is patched, so these tests fork even on one CPU and in a
# test process that runs BLAS threads, which the driver itself never forks;
# Python 3.12 and later warn on such a fork
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
class TestForkedRepeats:
    """Repeats split over forked workers give the outputs of one process."""

    @pytest.fixture
    def edges(self, tmp_path):
        return write_planted(tmp_path, 90, 3)

    @pytest.mark.parametrize("strategy,repeat", [
        (["--nhat", "3", "--trace"], 5),
        (["--sweep", "2..4", "--trace"], 3),
        (["--recursive"], 4),
    ])
    def test_two_workers_match_one(self, tmp_path, capsys, monkeypatch, edges,
                                   strategy, repeat):
        import balancedtv.cli as cli_mod

        path, truth = edges
        argv = ["--edges", str(path), *strategy, "--seed", "3", "--repeat", str(repeat),
                "--truth", str(truth)]
        capsys.readouterr()  # the fixture's "wrote" line
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(cli_mod, "_worker_count",
                                lambda n, workers=workers: min(workers, n))
            outputs = run_outputs(tmp_path, f"w{workers}", argv)
            printed = [line for line in capsys.readouterr().out.splitlines()
                       if not line.startswith("median wall time")]
            runs.append((outputs, printed))
        assert runs[0] == runs[1]
        assert len(runs[0][0][1]) == repeat + 1
        assert (runs[0][0][2] is None) == (strategy == ["--recursive"])

    @pytest.mark.parametrize("failing_seed", [0, 3])  # in this process, in the child
    def test_worker_exception_is_an_error_line(self, tmp_path, capsys, monkeypatch,
                                               edges, failing_seed):
        import balancedtv.cli as cli_mod

        real = cli_mod.random_start

        def failing(n, nhat, seed, supervision):
            if seed == failing_seed:
                raise RuntimeError("Lanczos did not converge (simulated)")
            return real(n, nhat, seed, supervision)

        monkeypatch.setattr(cli_mod, "random_start", failing)
        monkeypatch.setattr(cli_mod, "_worker_count", lambda n: 2)
        out = tmp_path / "x"
        code = main(["partition", "--edges", str(edges[0]), "--nhat", "3",
                     "--repeat", "4", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: Lanczos did not converge (simulated)\n")
        assert not Path(f"{out}_labels.csv").exists()

    def test_worker_that_dies_is_an_error_line(self, tmp_path, capsys, monkeypatch,
                                               edges):
        import balancedtv.cli as cli_mod

        real, parent = cli_mod.random_start, os.getpid()

        def dying(n, nhat, seed, supervision):
            if os.getpid() != parent:
                os._exit(3)
            return real(n, nhat, seed, supervision)

        monkeypatch.setattr(cli_mod, "random_start", dying)
        monkeypatch.setattr(cli_mod, "_worker_count", lambda n: 2)
        code = main(["partition", "--edges", str(edges[0]), "--nhat", "3",
                     "--repeat", "4", "--out", str(tmp_path / "x")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: the worker running seeds 2..3 exited with code 3\n")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_repeat_warning_reaches_parent_once(self, tmp_path, monkeypatch, edges,
                                                workers):
        import balancedtv.cli as cli_mod

        real = cli_mod.random_start

        def warning(n, nhat, seed, supervision):
            warnings.warn("probe warning from a repeat")
            return real(n, nhat, seed, supervision)

        monkeypatch.setattr(cli_mod, "random_start", warning)
        monkeypatch.setattr(cli_mod, "_worker_count", lambda n: workers)
        with pytest.warns(UserWarning, match="probe warning") as record:
            assert main(["partition", "--edges", str(edges[0]), "--nhat", "3",
                         "--repeat", "4", "--out", str(tmp_path / "x")]) == 0
        probes = [w for w in record if "probe warning" in str(w.message)]
        assert len(probes) == 1
        assert probes[0].filename == __file__

    def test_worker_count_follows_cpu_affinity_and_threads(self, monkeypatch):
        import balancedtv.cli as cli_mod

        threads = ["1"]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(os, "listdir", lambda path: threads)
        assert [cli_mod._worker_count(n) for n in (1, 2, 8)] == [1, 2, 3]
        threads.append("2")  # a BLAS thread pool
        assert cli_mod._worker_count(8) == 1
        threads.pop()
        monkeypatch.delattr(os, "sched_getaffinity")
        assert cli_mod._worker_count(8) == 1
