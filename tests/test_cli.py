import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import read_summary
from fcmm import solvers
from fcmm.cli import (RunManifest, SYNTHETIC_PRESETS, TRACE_HEADER, cmd_compare,
                      cmd_run, cmd_validate, execute, iris_manifest, load_manifest_dataset,
                      main, manifest_from_args, _atomic_write, _parser, updates_to_reach)
from fcmm.dataset import SyntheticSpec, load_csv
from fcmm.membership import init_random
from fcmm.solvers import SOLVERS, SolverConfig

REPO = Path(__file__).resolve().parent.parent


def blobs_manifest(out, algorithms=("irw", "mm"), seed=0, **cfg_kwargs):
    cfg = SolverConfig(c=3, seed=seed, **cfg_kwargs)
    spec = SyntheticSpec(seed=seed, **SYNTHETIC_PRESETS["blobs-small"])
    return RunManifest(cfg=cfg, algorithms=tuple(algorithms),
                       output_dir=str(out), synthetic=spec)


def read_trace(path):
    lines = path.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    return [line.split(",") for line in lines[1:]]


class TestManifest:
    def test_requires_algorithms(self, tmp_path):
        with pytest.raises(ValueError, match="at least one algorithm"):
            blobs_manifest(tmp_path, algorithms=())

    def test_rejects_unknown_algorithm(self, tmp_path):
        with pytest.raises(ValueError, match="unknown algorithm"):
            blobs_manifest(tmp_path, algorithms=("mm", "kmeans"))

    def test_rejects_duplicate_algorithm(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate algorithm"):
            blobs_manifest(tmp_path, algorithms=("mm", "irw", "mm"))

    def test_rejects_two_data_sources(self, tmp_path):
        with pytest.raises(ValueError, match="exactly one data source"):
            RunManifest(cfg=SolverConfig(c=3), algorithms=("mm",),
                        output_dir=str(tmp_path), csv_path="x.csv",
                        synthetic=SyntheticSpec(seed=0, **SYNTHETIC_PRESETS["blobs-small"]))

    def test_iris_manifest_defaults(self, iris_path, tmp_path):
        manifest = iris_manifest(iris_path, tmp_path)
        assert manifest.cfg.c == 3 and manifest.cfg.r == 2.0
        assert manifest.drop_columns == (4,)


class TestCmdRun:
    def test_writes_traces_and_summary(self, tmp_path):
        status, results = cmd_run(blobs_manifest(tmp_path))
        assert status == 0
        for name in ("irw", "mm"):
            rows = read_trace(tmp_path / f"{name}_trace.csv")
            assert len(rows) == len(results[name].trace.records)
        summary = read_summary(tmp_path / "summary.json")
        assert set(summary) == {"config", "irw", "mm"}
        assert set(summary["config"]) == {
            "c", "r", "outer_tol", "max_outer_iters", "max_inner_iters", "seed",
            "standardize", "algorithms", "dataset", "output_dir"}
        for name in ("irw", "mm"):
            assert summary[name]["termination"] == "converged"

    def test_objective_round_trips_losslessly(self, tmp_path):
        status, results = cmd_run(blobs_manifest(tmp_path, algorithms=("mm",)))
        assert status == 0
        rows = read_trace(tmp_path / "mm_trace.csv")
        for row, rec in zip(rows, results["mm"].trace.records):
            assert float(row[1]) == rec.objective
            assert int(row[0]) == rec.outer_iter
            assert int(row[3]) == rec.membership_updates

    def test_rerun_identical_up_to_elapsed(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert cmd_run(blobs_manifest(out_a))[0] == 0
        assert cmd_run(blobs_manifest(out_b))[0] == 0
        for name in ("irw", "mm"):
            rows_a = read_trace(out_a / f"{name}_trace.csv")
            rows_b = read_trace(out_b / f"{name}_trace.csv")
            assert len(rows_a) == len(rows_b)
            for ra, rb in zip(rows_a, rows_b):
                assert ra[0] == rb[0] and ra[1] == rb[1]
                assert ra[3] == rb[3] and ra[4] == rb[4]

    def test_missing_csv_is_load_error(self, tmp_path, capsys):
        # open's own OSError names the path: a missing file, and a directory
        for path in ("does/not/exist.csv", str(tmp_path)):
            manifest = RunManifest(cfg=SolverConfig(c=3), algorithms=("mm",),
                                   output_dir=str(tmp_path / "out"), csv_path=path)
            status, results = cmd_run(manifest)
            assert status == 1 and results is None
            err = capsys.readouterr().err
            assert err.startswith("error: [Errno ") and f"'{path}'" in err
        assert not (tmp_path / "out").exists()

    def test_failed_summary_write_is_write_error(self, tmp_path, capsys):
        (tmp_path / "summary.json").mkdir()
        status, results = cmd_run(blobs_manifest(tmp_path, algorithms=("mm",)))
        assert status == 1 and results is None
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.glob("*.tmp"))

    def test_overflowing_objective_is_an_error(self, tmp_path, capsys):
        # unstandardized points near 1e155: phi's sums overflow at the start
        path = tmp_path / "huge.csv"
        path.write_text("".join(f"{1e155 * i},{-2e155 * i}\n" for i in range(1, 9)))
        manifest = RunManifest(cfg=SolverConfig(c=2), algorithms=("mm",),
                               output_dir=str(tmp_path / "out"), csv_path=str(path),
                               standardize=False)
        status, results = cmd_run(manifest)
        assert status == 1 and results is None
        err = capsys.readouterr().err
        assert err.startswith("error: objective ") and "outer iteration 0 is not finite" in err
        assert not (tmp_path / "out").exists()

    def test_atomic_write_leaves_other_temp_files_alone(self, tmp_path):
        target = tmp_path / "summary.json"
        other = tmp_path / "summary.json.tmp"
        other.write_text("another run's half-written file")
        _atomic_write(target, "mine\n")
        assert target.read_text() == "mine\n"
        assert other.read_text() == "another run's half-written file"

    def test_shared_start_across_algorithms(self, tmp_path, iris_path):
        # all selected solvers consume one F0: classic and mm coincide exactly
        manifest = iris_manifest(iris_path, tmp_path, algorithms=("classic", "mm"))
        status, results = cmd_run(manifest)
        assert status == 0
        a = results["classic"].trace.objectives()
        b = results["mm"].trace.objectives()
        assert len(a) == len(b)
        assert np.max(np.abs(a - b)) <= 1e-9 * (1.0 + np.max(np.abs(b)))


class TestCmdCompare:
    def test_iris_mm_beats_irw_on_updates(self, tmp_path, iris_path):
        manifest = iris_manifest(iris_path, tmp_path, algorithms=("irw", "mm"), seed=42)
        status, report = cmd_compare(manifest)
        assert status == 0
        per = report["per_algorithm"]
        assert per["mm"]["updates_to_best"] <= per["irw"]["updates_to_best"]
        assert report["fewest_updates"] == ["mm"]

    def test_classic_and_mm_tie(self, tmp_path):
        status, report = cmd_compare(blobs_manifest(tmp_path, algorithms=("classic", "mm")))
        assert status == 0
        assert report["fewest_updates"] == ["classic", "mm"]

    def test_single_algorithm_is_usage_error(self, tmp_path, capsys):
        status, report = cmd_compare(blobs_manifest(tmp_path, algorithms=("mm",)))
        assert status == 2 and report is None
        assert "at least two" in capsys.readouterr().err

    def test_missing_csv_is_load_error(self, tmp_path, capsys):
        manifest = RunManifest(cfg=SolverConfig(c=3), algorithms=("irw", "mm"),
                               output_dir=str(tmp_path), csv_path="does/not/exist.csv")
        status, report = cmd_compare(manifest)
        assert status == 1 and report is None
        assert capsys.readouterr().err.startswith("error: ")


def _spy(monkeypatch, owner, name, calls, tag):
    """Replace ``owner``'s ``name`` (an attribute, or a SOLVERS key) by a spy
    that appends ``tag(args)`` to ``calls`` and then runs the original."""
    setter = monkeypatch.setitem if isinstance(owner, dict) else monkeypatch.setattr
    original = owner[name] if isinstance(owner, dict) else getattr(owner, name)

    def spy(*args):
        calls.append(tag(args))
        return original(*args)
    setter(owner, name, spy)


class TestClassicAndMMShareOneSolve:
    """Classic's run is bitwise MM's, so with both selected MM is solved once."""

    @pytest.mark.parametrize("command", [execute, cmd_run, cmd_compare])
    @pytest.mark.parametrize("algos", [("classic", "mm"), ("mm", "classic"),
                                       ("classic", "irw", "mm")])
    def test_one_outer_loop_for_the_pair(self, monkeypatch, tmp_path, command, algos):
        caps = []  # the inner-step cap of every _run_outer call
        _spy(monkeypatch, solvers, "_run_outer", caps, lambda args: args[3])
        manifest = blobs_manifest(tmp_path, algorithms=algos)
        command(manifest)
        assert sorted(caps) == sorted(manifest.cfg.max_inner_iters if name == "irw" else 1
                                      for name in algos if name != "classic")

    def test_both_names_hold_the_one_result(self, tmp_path):
        algos = ("classic", "irw", "mm")
        status, results = cmd_run(blobs_manifest(tmp_path, algorithms=algos))
        assert status == 0 and tuple(results) == algos
        assert results["classic"] is results["mm"]
        assert ((tmp_path / "classic_trace.csv").read_bytes()
                == (tmp_path / "mm_trace.csv").read_bytes())
        summary = read_summary(tmp_path / "summary.json")
        assert summary["classic"] == summary["mm"]

    @pytest.mark.parametrize("algos", [("classic",), ("mm",), ("irw", "mm"), ("mm", "irw")])
    def test_other_selections_solve_as_before(self, monkeypatch, tmp_path, algos):
        manifest = blobs_manifest(tmp_path, algorithms=algos)
        data = load_manifest_dataset(manifest)
        F0 = init_random(data.n, manifest.cfg.c, manifest.cfg.seed)
        direct = {name: SOLVERS[name](data, F0, manifest.cfg) for name in algos}
        called = []
        for name in algos:
            _spy(monkeypatch, SOLVERS, name, called, lambda args, name=name: name)
        results = execute(manifest)
        assert called == list(algos) and tuple(results) == algos
        for name, result in results.items():
            assert (result.trace.objectives().tobytes()
                    == direct[name].trace.objectives().tobytes())
            np.testing.assert_array_equal(result.F_final.values, direct[name].F_final.values)


class TestCmdValidate:
    def test_quick_scale_passes(self, capsys):
        assert cmd_validate("quick", seed=0) == 0
        out = capsys.readouterr().out
        assert "[PASS] single_step_equivalence" in out
        assert "[FAIL]" not in out


def main_args(argv):
    return _parser().parse_args(argv)


def argfile(path, lines):
    """Write an argument file, one argument per line, and return its ``@`` form."""
    path.write_text("".join(line + "\n" for line in lines))
    return f"@{path}"


# Option dest -> (flag argv, another value of the same option). An argument
# file holds the same arguments, one per line. --no-standardize has no
# opposite flag, so its other value is the default.
OPTION_CASES = {
    "data": (["--data", "a.csv"], ["--data", "b.csv"]),
    "drop_cols": (["--drop-cols", "0,2"], ["--drop-cols", "1"]),
    "synthetic": (["--synthetic", "blobs-large"], ["--synthetic", "blobs-small"]),
    "c": (["--c", "4"], ["--c", "5"]),
    "r": (["--r", "1.5"], ["--r", "3"]),
    "seed": (["--seed", "7"], ["--seed", "9"]),
    "algos": (["--algos", "irw,mm"], ["--algos", "mm"]),
    "outer_tol": (["--outer-tol", "1e-6"], ["--outer-tol", "1e-4"]),
    "max_outer": (["--max-outer", "50"], ["--max-outer", "60"]),
    "max_inner": (["--max-inner", "20"], ["--max-inner", "30"]),
    "standardize": (["--no-standardize"], []),
    "out": (["--out", "x"], ["--out", "y"]),
}


class TestOptionResolution:
    def test_cases_cover_every_option(self):
        assert set(OPTION_CASES) == set(vars(main_args(["run"]))) - {"command"}

    @pytest.mark.parametrize("key", sorted(OPTION_CASES))
    def test_file_and_flag_agree_and_flag_wins(self, key, tmp_path):
        flag, other = OPTION_CASES[key]
        source = {"data": [], "synthetic": [],
                  "drop_cols": ["--data", "a.csv"]}.get(key, ["--synthetic", "blobs-small"])

        def manifest(*argv):
            return manifest_from_args(main_args(["run", *source, *argv]))

        flag_file = argfile(tmp_path / "flag.args", flag)
        other_file = argfile(tmp_path / "other.args", other)
        from_flag = manifest(*flag)
        assert manifest(flag_file) == from_flag
        assert manifest(*other) != from_flag
        # arguments apply left to right: whatever comes later wins
        assert manifest(other_file, *flag) == from_flag
        if other:
            assert manifest(flag_file, *other) == manifest(*other)

    def test_defaults_match_solver_config(self):
        args = main_args(["run", "--synthetic", "blobs-small"])
        assert manifest_from_args(args).cfg == SolverConfig(c=3)

    def test_argument_file_under_flags(self, tmp_path):
        config = argfile(tmp_path / "run.args",
                         ["--c=4", "--seed=9", "--algos=mm", "--outer-tol=1e-6"])
        manifest = manifest_from_args(main_args(
            ["run", config, "--seed", "11", "--synthetic", "blobs-small",
             "--out", str(tmp_path)]))
        assert manifest.cfg.c == 4           # from file
        assert manifest.cfg.seed == 11       # later flag overrides file
        assert manifest.algorithms == ("mm",)
        assert manifest.cfg.outer_tol == 1e-6
        assert manifest.synthetic.seed == 11
        # a flag before the file is overridden by it
        earlier = main_args(["run", "--seed", "11", config, "--synthetic", "blobs-small"])
        assert manifest_from_args(earlier).cfg.seed == 9

    def test_no_standardize_flag(self, tmp_path):
        args = main_args(["run", "--synthetic", "blobs-small",
                          "--no-standardize", "--out", str(tmp_path)])
        assert args.standardize is False
        assert manifest_from_args(args).standardize is False

    def test_argument_file_with_bom(self, tmp_path, capsys):
        # the file is read as plain arguments, so a byte-order mark is part of one
        config = tmp_path / "bom.args"
        config.write_bytes(b"\xef\xbb\xbf--c=4\n")
        with pytest.raises(SystemExit) as exc:
            main_args(["run", f"@{config}"])
        assert exc.value.code == 2
        assert "unrecognized arguments: \ufeff--c=4" in capsys.readouterr().err

    @pytest.mark.parametrize("lines", [["--c=4", ""], ["# clusters", "--c=4"]],
                             ids=["blank-line", "comment"])
    def test_argument_file_lines_are_arguments(self, tmp_path, capsys, lines):
        with pytest.raises(SystemExit) as exc:
            main_args(["run", argfile(tmp_path / "run.args", lines)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_option_in_argument_file_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main_args(["run", argfile(tmp_path / "bad.args", ["--clusters=4"])])
        assert exc.value.code == 2
        assert "unrecognized arguments: --clusters=4" in capsys.readouterr().err

    def test_config_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(tmp_path / "run.cfg"), "--synthetic", "blobs-small",
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("in_file", [False, True], ids=["flag", "argument-file"])
    def test_inner_tol_flag_is_gone(self, tmp_path, capsys, in_file):
        # the inner loop's one setting is --max-inner; its tolerance is a constant
        gone = ["--inner-tol", "1e-6"]
        if in_file:
            gone = [argfile(tmp_path / "run.args", gone)]
        with pytest.raises(SystemExit) as exc:
            main(["run", "--synthetic", "blobs-small", *gone, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --inner-tol 1e-6" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_separate_at_argument_is_a_file_name(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--synthetic", "blobs-small", "--out", f"@{tmp_path / 'missing'}"])
        assert exc.value.code == 2
        assert "No such file" in capsys.readouterr().err

    def test_drop_cols_not_integers_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main_args(["run", "--drop-cols", "1,x"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert ("argument --drop-cols: expected comma-separated column indices, "
                "got '1,x'") in err
        assert "_parse_int_list" not in err


class TestMainEntryPoint:
    def test_run_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["run", "--synthetic", "blobs-small", "--seed", "7", "--out", str(out)]) == 0
        assert capsys.readouterr().out == (
            "classic: objective 3.29286586615 (converged, 11 updates)\n"
            "irw: objective 3.29286586613 (converged, 110 updates)\n"
            "mm: objective 3.29286586615 (converged, 11 updates)\n"
            f"wrote traces and summary.json to {out}\n")
        assert read_summary(out / "summary.json")["config"]["dataset"] == {"synthetic": {
            "blob_count": 3, "points_per_blob": 20, "dim": 2, "blob_stddev": 0.5,
            "blob_center_scale": 5.0, "seed": 7}}

    def test_module_entry_point_runs(self):
        # ``python -m fcmm.cli`` from a source checkout, no install
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        child = subprocess.run([sys.executable, "-m", "fcmm.cli", "validate"], cwd=REPO,
                               env=env, capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        assert [line.startswith("[PASS] ") for line in child.stdout.splitlines()] == [True] * 8

    def test_compare_stdout(self, tmp_path, capsys, iris_path):
        status = main(["compare", "--data", str(iris_path), "--drop-cols", "4", "--c", "3",
                       "--algos", "classic,irw,mm", "--seed", "42", "--out", str(tmp_path)])
        assert status == 0
        # every byte but the wall_ms figures, each masked with its padding
        out = re.sub(r" +\d+\.\d\d(?=  converged\n)", " <wall_ms>", capsys.readouterr().out)
        assert out == (
            "best final objective: 99.7508217941\n"
            " algorithm    final objective  outer  updates_to_best    wall_ms  termination\n"
            "   classic          99.750822     22               16 <wall_ms>  converged\n"
            "       irw        99.75082179     15              342 <wall_ms>  converged\n"
            "        mm          99.750822     22               16 <wall_ms>  converged\n"
            "fewest membership updates: tie between classic, mm\n")

    def test_compare_end_to_end(self, tmp_path, capsys):
        status = main(["compare", "--synthetic", "blobs-small",
                       "--algos", "irw,mm", "--out", str(tmp_path / "out")])
        assert status == 0
        assert "fewest membership updates" in capsys.readouterr().out

    def test_compare_prints_tie(self, tmp_path, capsys):
        status = main(["compare", "--synthetic", "blobs-small",
                       "--algos", "classic,mm", "--out", str(tmp_path / "out")])
        assert status == 0
        assert "fewest membership updates: tie between classic, mm" in capsys.readouterr().out

    def test_zero_mass_start_fails_without_output(self, tmp_path, capsys, iris_path):
        # F0 ** 100000 underflows to zero columns, so every solver refuses the start
        for command in ("run", "compare"):
            status = main([command, "--data", str(iris_path), "--drop-cols", "4",
                           "--r", "100000", "--out", str(tmp_path / "out")])
            assert status == 1
            assert "cluster(s) [0, 1, 2] have zero mass" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, message", [
        ("seed", "unrecognized arguments: seed"),
        ("--no-standardize=maybe", "ignored explicit argument 'maybe'"),
        ("--synthetic=blobs-huge", "invalid choice: 'blobs-huge'"),
    ], ids=["no-equals", "bad-boolean", "unknown-preset"])
    def test_bad_argument_file_is_usage_error(self, tmp_path, capsys, line, message):
        config = argfile(tmp_path / "run.args", ["--c=4", line])
        with pytest.raises(SystemExit) as exc:
            main(["run", config, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_algos_is_config_error(self, tmp_path, capsys):
        status = main(["run", "--synthetic", "blobs-small", "--algos", "",
                       "--out", str(tmp_path / "out")])
        assert status == 2
        assert "at least one algorithm" in capsys.readouterr().err

    def test_non_finite_tolerance_is_config_error(self, tmp_path, capsys):
        status = main(["run", "--synthetic", "blobs-small", "--outer-tol", "inf",
                       "--out", str(tmp_path / "out")])
        assert status == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("how", ["flag", "config"])  # config: from an @file
    def test_drop_cols_without_csv_is_config_error(self, tmp_path, capsys, how):
        argv = ["run", "--synthetic", "blobs-small", "--out", str(tmp_path / "out")]
        if how == "flag":
            argv += ["--drop-cols", "0"]
        else:
            argv.append(argfile(tmp_path / "run.args", ["--drop-cols=0"]))
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_existing_file_as_out_is_write_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        status = main(["run", "--synthetic", "blobs-small", "--algos", "mm",
                       "--out", str(out)])
        assert status == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_validate_quick(self, capsys):
        assert main(["validate", "--scale", "quick"]) == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_validate_help(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            main(["validate", "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == (
            "usage: fcmm validate [-h] [--scale {quick,full}] [--seed SEED]\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  --scale {quick,full}\n"
            "  --seed SEED\n")

    def test_validate_negative_seed_is_usage_error(self, capsys):
        assert main(["validate", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be an integer >= 0, got -1\n"
        assert captured.out == ""


@pytest.mark.parametrize("content, rows", [
    (b"\xef\xbb\xbf1,2\n3,4\n5,6\n", 3),
    (b"\n1,2\n3,4\n5,6\n", 3),
    (b"\xef\xbb\xbfa,b\n1,2\n3,4\n", 2),
], ids=["bom", "blank-first-line", "bom-header"])
def test_manifest_dataset_keeps_every_data_row(tmp_path, content, rows):
    path = tmp_path / "data.csv"
    path.write_bytes(content)
    manifest = RunManifest(cfg=SolverConfig(c=2), algorithms=("mm",), standardize=False,
                           output_dir=str(tmp_path), csv_path=str(path))
    data = load_manifest_dataset(manifest)
    assert data.n == rows
    np.testing.assert_array_equal(data.points[0], [1.0, 2.0])
    np.testing.assert_array_equal(load_csv(path).points, data.points)


def test_partly_numeric_first_row_is_a_load_error(tmp_path, capsys):
    path = tmp_path / "data.csv"
    path.write_text("1,abc\n2,3\n4,5\n6,7\n")
    status = main(["run", "--data", str(path), "--c", "2", "--algos", "mm",
                   "--out", str(tmp_path / "out")])
    assert status == 1
    assert "row 1, column 2: not a number: 'abc'" in capsys.readouterr().err


def test_header_sniff_reads_only_kept_columns(tmp_path):
    path = tmp_path / "labelled.csv"
    path.write_text("5.1,3.5,1.4,0.2,setosa\n4.9,3.0,1.4,0.2,setosa\n"
                    "6.3,3.3,6.0,2.5,virginica\n")
    manifest = RunManifest(cfg=SolverConfig(c=2), algorithms=("mm",), standardize=False,
                           output_dir=str(tmp_path), csv_path=str(path), drop_columns=(4,))
    data = load_manifest_dataset(manifest)
    assert data.n == 3
    np.testing.assert_array_equal(data.points[0], [5.1, 3.5, 1.4, 0.2])


def test_bundled_iris_keeps_its_header_and_150_rows(iris_path, tmp_path):
    data = load_manifest_dataset(iris_manifest(iris_path, tmp_path))
    assert (data.n, data.d) == (150, 4)


def test_updates_to_reach_uses_relative_landmark():
    from fcmm.solvers import SolverTrace, TraceRecord, SolverResult
    records = tuple(TraceRecord(i, obj, i * 100, i, 0)
                    for i, obj in enumerate([10.0, 5.0, 2.0 + 1e-9, 2.0]))
    result = SolverResult(None, None, 2.0, SolverTrace(records), "converged")
    assert updates_to_reach(result, 2.0) == 2
    assert updates_to_reach(result, 0.0) is None


def test_updates_to_reach_has_no_unit():
    # objectives of data in a 1e-7 unit: record 0 lies 1e-13 above the target
    from fcmm.solvers import SolverTrace, TraceRecord, SolverResult
    unit = 1e-14
    records = tuple(TraceRecord(i, obj * unit, i * 100, i, 0)
                    for i, obj in enumerate([10.0, 5.0, 2.0 + 1e-9, 2.0]))
    result = SolverResult(None, None, 2.0 * unit, SolverTrace(records), "converged")
    assert updates_to_reach(result, 2.0 * unit) == 2


def readme_commands():
    """Every ``fcmm`` command in README's fenced blocks, minus ``@file`` ones."""
    readme = (REPO / "README.md").read_text()
    commands = []
    for block in re.findall(r"```[a-z]*\n(.*?)```", readme, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if not line.startswith("fcmm "):
                continue
            argv = shlex.split(line, comments=True)[1:]
            if not any(arg.startswith("@") for arg in argv):
                commands.append(argv)
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert len(commands) >= 5
    for argv in commands:
        args = _parser().parse_args(argv)
        if args.command != "validate":
            manifest_from_args(args)
