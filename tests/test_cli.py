import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import graphonstat
from graphonstat import cli
from graphonstat.cli import main
from graphonstat.counting import load_edge_list


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def graph_file(tmp_path, capsys):
    path = str(tmp_path / "g.txt")
    code, _, _ = run(capsys, "sample", "--graphon", "paper-w1", "--n", "80",
                     "--seed", "5", "--out", path)
    assert code == 0
    return path


class TestSampleAndCount:
    def test_roundtrip(self, graph_file, capsys):
        g = load_edge_list(graph_file)
        assert g.n == 80
        code, out, _ = run(capsys, "count", "--graph", graph_file, "--motif", "c4")
        assert code == 0
        rec = json.loads(out)
        assert rec["count"] >= 0
        assert 0.0 <= rec["hat_t"] <= 1.0
        assert rec["config"]["motif"] == "c4"

    def test_sample_deterministic(self, tmp_path, capsys):
        p = str(tmp_path / "a.txt")
        run(capsys, "sample", "--graphon", "const:0.5", "--n", "40", "--seed", "9",
            "--out", p)
        first = open(p).read()
        run(capsys, "sample", "--graphon", "const:0.5", "--n", "40", "--seed", "9",
            "--out", p)
        assert open(p).read() == first


class TestExitCodes:
    def test_missing_seed_is_config_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--graphon", "const:0.5", "--n", "10"])
        assert exc.value.code == 2

    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run(capsys, "count", "--graph", "/nonexistent/g.txt",
                           "--motif", "k2")
        assert code == 3
        assert "i/o" in err

    def test_numeric_error(self, tmp_path, capsys):
        # complete graph: structure statistic undefined
        path = str(tmp_path / "k.txt")
        with open(path, "w") as fh:
            fh.write("# n=5\n" + "\n".join(
                f"{i} {j}" for i in range(5) for j in range(i + 1, 5)) + "\n")
        code, _, err = run(capsys, "structure", "--graph", path)
        assert code == 4

    def test_bad_motif_literal(self, graph_file, capsys):
        code, _, err = run(capsys, "count", "--graph", graph_file,
                           "--motif", "gnarl")
        assert code == 4

    @pytest.mark.parametrize("argv", [
        ["coverage-sim", "--graphon", "const:0.5", "--motifs", "k2", "--n", "40",
         "--B", "50", "--reps", "0", "--seed", "1", "--out", "-"],
        ["limit-sample", "--graphon", "const:0.5", "--motifs", "k2", "--draws", "-5",
         "--seed", "1"],
        ["sample", "--graphon", "const:0.5", "--n", "0", "--seed", "1"],
        ["ci", "--graph", "g.txt", "--motif", "k2", "--B", "0", "--seed", "1"],
        ["coverage-sim", "--graphon", "const:0.5", "--motifs", "k2", "--n", "40",
         "--B", "50", "--reps", "2", "--seed", "1", "--workers", "-1", "--out", "-"],
        ["limit-sample", "--graphon", "const:0.5", "--motifs", "k2", "--draws", "5",
         "--grid", "0", "--seed", "1"],
    ], ids=["reps", "draws", "n", "B", "workers", "grid"])
    def test_count_options_must_be_positive(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
    @pytest.mark.parametrize("argv", [
        ["sample", "--graphon", "const:0.5", "--n", "10"],
        ["limit-sample", "--graphon", "const:0.5", "--motifs", "k2", "--draws", "5"],
        ["bootstrap", "--graph", "g.txt", "--motifs", "k2", "--B", "50"],
        ["ci", "--graph", "g.txt", "--motif", "k2", "--B", "50"],
        ["joint-ci", "--graph", "g.txt", "--motifs", "k2", "--B", "50"],
        ["coverage-sim", "--graphon", "const:0.5", "--motifs", "k2", "--n", "40",
         "--B", "50", "--reps", "2", "--out", "-"],
    ], ids=["sample", "limit-sample", "bootstrap", "ci", "joint-ci", "coverage-sim"])
    def test_seed_must_be_non_negative(self, argv, seed, capsys):
        # rejected while parsing, before a graph is read or a density integrated
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", seed])
        assert exc.value.code == 2
        assert "non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["0", "1", "1.5", "nan"])
    @pytest.mark.parametrize("argv", [
        ["ci", "--graph", "g.txt", "--motif", "k2", "--B", "50", "--seed", "1"],
        ["joint-ci", "--graph", "g.txt", "--motifs", "k2", "--B", "50", "--seed", "1"],
        ["structure", "--graph", "g.txt"],
        ["coverage-sim", "--graphon", "const:0.5", "--motifs", "k2", "--n", "40",
         "--B", "50", "--reps", "2", "--seed", "1", "--out", "-"],
    ], ids=["ci", "joint-ci", "structure", "coverage-sim"])
    def test_alpha_outside_unit_interval_is_config_error(self, argv, alpha, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--alpha", alpha])
        assert exc.value.code == 2
        assert "level in (0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("option,value", [
        ("--exponent", "nan"), ("--exponent", "0"), ("--exponent", "1"), ("--exponent", "1e6"),
        ("--threshold", "inf"), ("--threshold", "nan"), ("--threshold", "0"), ("--threshold", "-1"),
    ])
    def test_regtest_rate_options_are_config_errors(self, option, value, capsys):
        # rejected while parsing, before the graph is read: no NaN or
        # Infinity statistic reaches the JSON summary
        with pytest.raises(SystemExit) as exc:
            main(["regtest", "--graph", "g.txt", "--motif", "k2", option, value])
        assert exc.value.code == 2
        assert {"--exponent": "an exponent in (0, 1)",
                "--threshold": "a finite threshold > 0"}[option] in capsys.readouterr().err

    def test_regtest_on_eight_vertex_motif_raises_at_once(self, graph_file, capsys):
        # the 15-vertex joins of C8 have Bell(15) ~ 1.4e9 vertex partitions
        t = time.perf_counter()
        code, _, err = run(capsys, "regtest", "--graph", graph_file, "--motif", "c8")
        assert time.perf_counter() - t < 1.0
        assert code == 4
        assert "partitions" in err


class TestStatCommands:
    def test_regtest(self, graph_file, capsys):
        code, out, _ = run(capsys, "regtest", "--graph", graph_file, "--motif", "k2")
        rec = json.loads(out)
        assert code == 0
        assert rec["reject_regularity"] in (True, False)
        assert rec["threshold"] == 1.0

    def test_ci(self, graph_file, capsys):
        code, out, _ = run(capsys, "ci", "--graph", graph_file, "--motif", "k2",
                           "--B", "200", "--seed", "3")
        rec = json.loads(out)
        assert code == 0
        assert rec["lower"] <= rec["point_estimate"] <= rec["upper"]

    def test_joint_ci(self, graph_file, capsys):
        code, out, _ = run(capsys, "joint-ci", "--graph", graph_file,
                           "--motifs", "k2,k3", "--B", "200", "--seed", "3")
        rec = json.loads(out)
        assert code == 0
        assert rec["quantile"] >= 0
        assert len(rec["branches"]) == 2

    def test_structure(self, graph_file, capsys):
        code, out, _ = run(capsys, "structure", "--graph", graph_file)
        rec = json.loads(out)
        assert code == 0
        assert rec["reject"] == (abs(rec["t_n"]) > rec["z_crit"])

    def test_bootstrap_csv(self, graph_file, tmp_path, capsys):
        out_path = str(tmp_path / "draws.csv")
        code, _, _ = run(capsys, "bootstrap", "--graph", graph_file,
                         "--motifs", "k2,k3", "--B", "50", "--seed", "7",
                         "--out", out_path)
        assert code == 0
        lines = open(out_path).read().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[2] == "zhat_k2,zhat_k3"
        assert len([l for l in lines if not l.startswith("#")]) == 51

    def test_limit_sample_csv(self, tmp_path, capsys):
        out_path = str(tmp_path / "limit.csv")
        code, _, _ = run(capsys, "limit-sample", "--graphon", "const:0.5",
                         "--motifs", "k2", "--draws", "40", "--grid", "64",
                         "--seed", "11", "--out", out_path)
        assert code == 0
        rows = [l for l in open(out_path).read().splitlines()
                if l and not l.startswith("#")]
        assert len(rows) == 41


    def test_header_names_the_stripped_motifs(self, graph_file, tmp_path, capsys):
        runs = {
            "z_k2,z_k3": ["limit-sample", "--graphon", "const:0.5", "--draws", "5",
                          "--grid", "64"],
            "zhat_k2,zhat_k3": ["bootstrap", "--graph", graph_file, "--B", "5"],
            "rep,inside,quantile,reg_stat_k2,reg_stat_k3": [
                "coverage-sim", "--graphon", "const:0.5", "--n", "30", "--B", "20",
                "--reps", "2"],
        }
        for header, argv in runs.items():
            out_path = str(tmp_path / "out.csv")
            code, _, _ = run(capsys, *argv, "--motifs", " k2, k3,", "--seed", "1",
                             "--out", out_path)
            assert code == 0
            rows = [l.split(",") for l in open(out_path).read().splitlines()
                    if not l.startswith("#")]
            assert rows[0] == header.split(",")
            assert {len(r) for r in rows} == {len(rows[0])}

    def test_motifs_take_explicit_literals(self, graph_file, tmp_path, capsys):
        # the commas of an edge list stay in its literal, whose header cell is
        # quoted; K1,2 centred at vertex 3 draws what k12 draws, byte for byte
        rows = {}
        for motifs in ("k2,k12", "k2,n=3;edges=1-3,2-3"):
            out_path = str(tmp_path / "out.csv")
            code, _, _ = run(capsys, "bootstrap", "--graph", graph_file, "--motifs", motifs,
                             "--B", "20", "--seed", "1", "--out", out_path)
            assert code == 0
            rows[motifs] = [l for l in open(out_path).read().splitlines()
                            if not l.startswith("#")]
        assert rows["k2,n=3;edges=1-3,2-3"][0] == 'zhat_k2,"zhat_n=3;edges=1-3,2-3"'
        assert rows["k2,n=3;edges=1-3,2-3"][1:] == rows["k2,k12"][1:]
        assert len(rows["k2,k12"]) == 21


class TestCsvWriter:
    def test_bytes_of_mixed_rows(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "version_string", lambda: "V")
        nan, inf = float("nan"), float("inf")
        path = str(tmp_path / "mixed.csv")
        mixed = [[True, np.bool_(False), 7, np.int64(-3), 0.1, np.float64(2 / 3),
                  nan, inf, -0.0, 1e-300],
                 [False, np.bool_(True), 0, np.int64(2 ** 62), -1.5, np.float64(-0.0),
                  np.float64(nan), -inf, np.float64(1e-300), 123456789.125]]
        cli.write_csv(path, {"a": 1}, list("abcdefghij"), mixed, footer_comments=["x=1"])
        assert open(path, "rb").read() == (
            b'# config: {"a": 1}\n# version: V\na,b,c,d,e,f,g,h,i,j\n'
            b"1,0,7,-3,0.10000000000000001,0.66666666666666663,nan,inf,-0,1e-300\n"
            b"0,1,0,4611686018427387904,-1.5,-0,nan,-inf,1e-300,123456789.125\n# x=1\n")
        arrays = [(np.array([[0.1, -0.0, nan], [inf, -inf, 1e-300]]),
                   b"0.10000000000000001,-0,nan\ninf,-inf,1e-300\n"),
                  (np.array([[1, -2, 3]], dtype=np.int64), b"1,-2,3\n"),
                  (np.array([[True, False, True]]), b"1,0,1\n")]
        for rows, body in arrays:
            cli.write_csv(path, {}, ["p", "q", "r"], rows)
            assert open(path, "rb").read() == b"# config: {}\n# version: V\np,q,r\n" + body

    def test_float_array_bytes_equal_the_cell_by_cell_path(self, tmp_path, monkeypatch):
        # a float ndarray is formatted in one pass; a list of floats goes through `_fmt`
        monkeypatch.setattr(cli, "version_string", lambda: "V")
        nan, inf = float("nan"), float("inf")
        draws = np.array([[-0.0, 1e-300, nan], [inf, -inf, 2.0 ** 53], [0.1, -2 / 3, 5e-324]])
        whole, cells = str(tmp_path / "whole.csv"), str(tmp_path / "cells.csv")
        cli.write_csv(whole, {}, ["p", "q", "r"], draws, footer_comments=["x=1"])
        cli.write_csv(cells, {}, ["p", "q", "r"], draws.tolist(), footer_comments=["x=1"])
        body = open(whole, "rb").read()
        assert body == open(cells, "rb").read()
        assert b"\n-0,1e-300,nan\ninf,-inf,9007199254740992\n" in body
        for empty in (np.zeros((0, 3)), np.zeros((2, 0))):
            cli.write_csv(whole, {}, ["p"], empty)
            cli.write_csv(cells, {}, ["p"], empty.tolist())
            assert open(whole, "rb").read() == open(cells, "rb").read()


def test_cli_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(graphonstat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; import graphonstat.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_cli_import_defers_modules_used_by_one_path():
    # multiprocessing (--workers > 1), subprocess (version_string) and statistics
    # (two normal quantiles) are imported where they are used
    src = os.path.dirname(os.path.dirname(os.path.abspath(graphonstat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys; import graphonstat.cli; print(sorted(m for m in "
            "('multiprocessing', 'subprocess', 'statistics') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


class TestCoverageSim:
    def test_joint_run_and_consistency(self, tmp_path, capsys):
        out_path = str(tmp_path / "cov.csv")
        code, out, _ = run(capsys, "coverage-sim", "--graphon", "const:0.5",
                           "--motifs", "k2,k3", "--n", "60", "--B", "100",
                           "--reps", "8", "--alpha", "0.05", "--seed", "13",
                           "--workers", "1", "--out", out_path)
        assert code == 0
        summary = json.loads(out)
        lines = open(out_path).read().splitlines()
        rows = [l.split(",") for l in lines if l and not l.startswith("#")][1:]
        flags = [int(r[1]) for r in rows]
        assert summary["coverage"] == pytest.approx(np.mean(flags))
        footer = [l for l in lines if l.startswith("# coverage=")]
        assert len(footer) == 1
        assert float(footer[0].split("=")[1]) == pytest.approx(np.mean(flags))

    def test_coverage_by_branch_splits_the_replications(self, tmp_path, capsys):
        out_path = str(tmp_path / "cov.csv")
        code, out, _ = run(capsys, "coverage-sim", "--graphon", "paper-w1",
                           "--motifs", "k2,k3", "--n", "40", "--B", "50",
                           "--reps", "12", "--seed", "7", "--out", out_path)
        assert code == 0
        summary = json.loads(out)
        split = summary["coverage_by_branch"]
        assert len(split) > 1
        assert sum(c["reps"] for c in split.values()) == summary["reps"]
        assert sum(c["reps"] * c["coverage"] for c in split.values()) / summary["reps"] \
            == pytest.approx(summary["coverage"], rel=1e-12)
        # the branch tuple follows from the reg_stat_* columns (threshold 1)
        lines = open(out_path).read().splitlines()
        rows = [l.split(",") for l in lines if l and not l.startswith("#")][1:]
        expected: dict = {}
        for r in rows:
            key = ",".join("linear" if float(s) > 1 else "quadratic" for s in r[3:])
            expected.setdefault(key, []).append(int(r[1]))
        assert {k: c["reps"] for k, c in split.items()} == \
            {k: len(v) for k, v in expected.items()}
        assert {k: c["coverage"] for k, c in split.items()} == \
            pytest.approx({k: np.mean(v) for k, v in expected.items()})

    def test_byte_identical_given_seed(self, tmp_path, capsys):
        p = str(tmp_path / "cov.csv")
        contents = []
        for _ in range(2):
            run(capsys, "coverage-sim", "--graphon", "paper-w2", "--motifs", "k2",
                "--n", "50", "--B", "50", "--reps", "4", "--seed", "21",
                "--workers", "1", "--out", p)
            contents.append(open(p).read())
        assert contents[0] == contents[1]

    def test_marginal_mode(self, tmp_path, capsys):
        out_path = str(tmp_path / "m.csv")
        code, out, _ = run(capsys, "coverage-sim", "--graphon", "wminus",
                           "--motifs", "k2", "--n", "80", "--B", "100",
                           "--reps", "5", "--seed", "17", "--mode", "marginal",
                           "--workers", "1", "--out", out_path)
        assert code == 0
        assert "coverage" in json.loads(out)

    def test_worker_pool_matches_serial(self, tmp_path, capsys):
        args = ["coverage-sim", "--graphon", "const:0.5", "--motifs", "k2",
                "--n", "40", "--B", "50", "--reps", "4", "--seed", "31"]
        p1, p2 = str(tmp_path / "serial.csv"), str(tmp_path / "pool.csv")
        run(capsys, *args, "--workers", "1", "--out", p1)
        run(capsys, *args, "--workers", "2", "--out", p2)
        body = lambda p: [l for l in open(p).read().splitlines()
                          if not l.startswith("# config")]
        assert body(p1) == body(p2)

    def test_marginal_mode_needs_single_motif(self, tmp_path, capsys):
        code, _, err = run(capsys, "coverage-sim", "--graphon", "wminus",
                           "--motifs", "k2,k3", "--n", "40", "--B", "50",
                           "--reps", "2", "--seed", "1", "--mode", "marginal",
                           "--workers", "1", "--out", str(tmp_path / "x.csv"))
        assert code == 4
