import json

import numpy as np
import pytest

from fcmm.cli import (RunManifest, SYNTHETIC_PRESETS, TRACE_HEADER, cmd_compare,
                      cmd_run, cmd_validate, iris_manifest, load_manifest_dataset, main,
                      manifest_from_options, _atomic_write, _OPTIONS, _resolve_options,
                      updates_to_reach)
from fcmm.dataset import SyntheticSpec
from fcmm.solvers import SolverConfig


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
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary) == {"config", "irw", "mm"}
        for key in ("c", "r", "outer_tol", "inner_tol", "max_outer_iters",
                    "max_inner_iters", "seed", "dist_floor", "standardize",
                    "algorithms", "dataset", "output_dir"):
            assert key in summary["config"]
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
        manifest = RunManifest(cfg=SolverConfig(c=3), algorithms=("mm",),
                               output_dir=str(tmp_path), csv_path="does/not/exist.csv")
        status, results = cmd_run(manifest)
        assert status == 1 and results is None
        assert "error" in capsys.readouterr().err

    def test_failed_summary_write_is_write_error(self, tmp_path, capsys):
        (tmp_path / "summary.json").mkdir()
        status, results = cmd_run(blobs_manifest(tmp_path, algorithms=("mm",)))
        assert status == 1 and results is None
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.glob("*.tmp"))

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


class TestCmdValidate:
    def test_quick_scale_passes(self, capsys):
        assert cmd_validate("quick", seed=0) == 0
        out = capsys.readouterr().out
        assert "[PASS] single_step_equivalence" in out
        assert "[FAIL]" not in out


def main_args(argv):
    import argparse
    from fcmm.cli import _add_manifest_flags
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run")
    _add_manifest_flags(run_p)
    return parser.parse_args(argv)


# Option key -> (flag argv, the same value as a config-file line, another
# config-file value that the flag must override).
OPTION_CASES = {
    "data": (["--data", "a.csv"], "data=a.csv", "data=b.csv"),
    "drop_cols": (["--drop-cols", "0,2"], "drop_cols=0,2", "drop_cols=1"),
    "synthetic": (["--synthetic", "blobs-large"], "synthetic=blobs-large",
                  "synthetic=blobs-small"),
    "c": (["--c", "4"], "c=4", "c=5"),
    "r": (["--r", "1.5"], "r=1.5", "r=3"),
    "seed": (["--seed", "7"], "seed=7", "seed=9"),
    "algos": (["--algos", "irw,mm"], "algos=irw,mm", "algos=mm"),
    "outer_tol": (["--outer-tol", "1e-6"], "outer_tol=1e-6", "outer_tol=1e-4"),
    "inner_tol": (["--inner-tol", "1e-6"], "inner_tol=1e-6", "inner_tol=1e-4"),
    "max_outer": (["--max-outer", "50"], "max_outer=50", "max_outer=60"),
    "max_inner": (["--max-inner", "20"], "max_inner=20", "max_inner=30"),
    "standardize": (["--no-standardize"], "standardize=false", "standardize=true"),
    "out": (["--out", "x"], "out=x", "out=y"),
}


class TestOptionResolution:
    def test_cases_cover_every_option(self):
        assert set(OPTION_CASES) == set(_OPTIONS)

    @pytest.mark.parametrize("key", sorted(OPTION_CASES))
    def test_file_and_flag_agree_and_flag_wins(self, key, tmp_path):
        flag, line, other_line = OPTION_CASES[key]
        source = [] if key in ("data", "synthetic") else ["--synthetic", "blobs-small"]

        def manifest(config_line, flags):
            argv = ["run", *source, *flags]
            if config_line is not None:
                config = tmp_path / "run.cfg"
                config.write_text(config_line + "\n")
                argv += ["--config", str(config)]
            return manifest_from_options(_resolve_options(main_args(argv)))

        from_flag = manifest(None, flag)
        assert manifest(line, []) == from_flag
        assert manifest(other_line, []) != from_flag
        assert manifest(other_line, flag) == from_flag

    def test_defaults_match_solver_config(self):
        options = _resolve_options(main_args(["run", "--synthetic", "blobs-small"]))
        assert manifest_from_options(options).cfg == SolverConfig(c=3)

    def test_config_file_under_flags(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("c=4\nseed=9\nalgos=mm\nouter_tol=1e-6\n# comment\n\n")
        args = main_args(["run", "--config", str(config), "--seed", "11",
                          "--synthetic", "blobs-small", "--out", str(tmp_path)])
        options = _resolve_options(args)
        assert options["c"] == 4           # from file
        assert options["seed"] == 11       # flag overrides file
        assert options["algos"] == ("mm",)
        assert options["outer_tol"] == 1e-6
        manifest = manifest_from_options(options)
        assert manifest.cfg.c == 4 and manifest.cfg.seed == 11
        assert manifest.synthetic.seed == 11

    def test_no_standardize_flag(self, tmp_path):
        args = main_args(["run", "--synthetic", "blobs-small",
                          "--no-standardize", "--out", str(tmp_path)])
        options = _resolve_options(args)
        assert options["standardize"] is False

    def test_unknown_config_key_rejected(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("clusters=4\n")
        args = main_args(["run", "--config", str(config)])
        with pytest.raises(ValueError, match="unknown config key"):
            _resolve_options(args)


class TestMainEntryPoint:
    def test_run_end_to_end(self, tmp_path, capsys):
        status = main(["run", "--synthetic", "blobs-small", "--algos", "mm",
                       "--seed", "5", "--out", str(tmp_path / "out")])
        assert status == 0
        out = capsys.readouterr().out
        assert "wrote traces" in out
        assert (tmp_path / "out" / "summary.json").exists()

    def test_compare_end_to_end(self, tmp_path, capsys):
        status = main(["compare", "--synthetic", "blobs-small",
                       "--algos", "irw,mm", "--out", str(tmp_path / "out")])
        assert status == 0
        assert "fewest membership updates" in capsys.readouterr().out

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


@pytest.mark.parametrize("content, rows", [
    (b"\xef\xbb\xbf1,2\n3,4\n5,6\n", 3),
    (b"\n1,2\n3,4\n5,6\n", 3),
    (b"\xef\xbb\xbfa,b\n1,2\n3,4\n", 2),
], ids=["bom", "blank-first-line", "bom-header"])
def test_manifest_dataset_keeps_every_data_row(tmp_path, content, rows):
    path = tmp_path / "data.csv"
    path.write_bytes(content)
    manifest = RunManifest(cfg=SolverConfig(c=2, standardize=False), algorithms=("mm",),
                           output_dir=str(tmp_path), csv_path=str(path))
    data = load_manifest_dataset(manifest)
    assert data.n == rows
    np.testing.assert_array_equal(data.points[0], [1.0, 2.0])


def test_updates_to_reach_uses_relative_landmark():
    from fcmm.solvers import SolverTrace, TraceRecord, SolverResult
    records = tuple(TraceRecord(i, obj, i * 100, i, 0)
                    for i, obj in enumerate([10.0, 5.0, 2.0 + 1e-9, 2.0]))
    result = SolverResult(None, None, 2.0, SolverTrace(records), "converged")
    assert updates_to_reach(result, 2.0) == 2
    assert updates_to_reach(result, 0.0) is None
