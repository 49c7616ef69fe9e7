"""Benchmark command line: seeded solver runs, work comparisons, validation.

Subcommands
-----------
run
    Load or synthesize a dataset, draw one seeded starting membership
    matrix, run every selected solver from that same start, and write one
    trace CSV per solver plus a ``summary.json`` that embeds the fully
    resolved configuration.
compare
    ``run`` plus a work comparison: for each solver, the cumulative
    membership-update count needed to get within 1e-6 (relative) of the
    best final objective, wall time and outer iterations, with the
    fewest-updates solver(s) flagged.
validate
    Execute the brute-force verification battery and report one line per
    check.

Every option is a flag. An argument ``@FILE`` is replaced by the lines of
FILE, one argument per line in the flags' own syntax (``--drop-cols=4``,
``--no-standardize``); arguments apply left to right, so a flag after
``@FILE`` overrides the file.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional

from .dataset import DataMatrix, SyntheticSpec, load_csv, make_blobs, standardize
from .membership import init_random
from .oracle import SCALES, run_suite
from .solvers import SOLVERS, SolverConfig, SolverResult

TRACE_HEADER = "iter,objective,elapsed_ns,membership_updates,inner_iters"
LANDMARK_RTOL = 1e-6

# Desk-scale synthetic presets; the seed comes from the solver config so a
# manifest is reproducible from --seed alone.
SYNTHETIC_PRESETS = {
    "blobs-small": dict(blob_count=3, points_per_blob=20, dim=2,
                        blob_stddev=0.5, blob_center_scale=5.0),
    "blobs-large": dict(blob_count=5, points_per_blob=200, dim=10,
                        blob_stddev=1.0, blob_center_scale=10.0),
}


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one benchmark run."""

    cfg: SolverConfig
    algorithms: tuple
    output_dir: str
    csv_path: Optional[str] = None
    drop_columns: tuple = ()
    synthetic: Optional[SyntheticSpec] = None
    standardize: bool = True

    def __post_init__(self):
        if not self.algorithms:
            raise ValueError("select at least one algorithm")
        unknown = [a for a in self.algorithms if a not in SOLVERS]
        if unknown:
            raise ValueError(f"unknown algorithm(s) {unknown}; choose from {sorted(SOLVERS)}")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValueError("duplicate algorithm selected")
        if (self.csv_path is None) == (self.synthetic is None):
            raise ValueError("specify exactly one data source (CSV path or synthetic spec)")
        if self.drop_columns and self.csv_path is None:
            raise ValueError("drop columns apply only to a CSV data source")

    def dataset_descriptor(self) -> dict:
        if self.csv_path is not None:
            return {"csv_path": self.csv_path,
                    "drop_columns": sorted(self.drop_columns)}
        return {"synthetic": dataclasses.asdict(self.synthetic)}


def iris_manifest(csv_path, output_dir, algorithms=("irw", "mm"),
                  seed: int = 42) -> RunManifest:
    """Built-in manifest for the Iris benchmark; the CSV path is yours.

    Assumes the usual layout of 4 numeric features plus a trailing label
    column, 3 clusters, fuzziness 2.
    """
    return RunManifest(cfg=SolverConfig(c=3, r=2.0, seed=seed),
                       algorithms=tuple(algorithms), output_dir=str(output_dir),
                       csv_path=str(csv_path), drop_columns=(4,))


def load_manifest_dataset(manifest: RunManifest) -> DataMatrix:
    """Materialize the manifest's dataset, standardized if configured."""
    if manifest.csv_path is not None:
        data = load_csv(manifest.csv_path, manifest.drop_columns)
    else:
        data = make_blobs(manifest.synthetic)
    return standardize(data) if manifest.standardize else data


def execute(manifest: RunManifest) -> dict:
    """Run every selected solver from one shared starting matrix."""
    data = load_manifest_dataset(manifest)
    F0 = init_random(data.n, manifest.cfg.c, manifest.cfg.seed)
    return {name: SOLVERS[name](data, F0, manifest.cfg)
            for name in manifest.algorithms}


def _atomic_write(path, text):
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_trace_csv(result: SolverResult, path) -> None:
    lines = [TRACE_HEADER]
    for rec in result.trace.records:
        lines.append(f"{rec.outer_iter},{repr(rec.objective)},{rec.elapsed_ns},"
                     f"{rec.membership_updates},{rec.inner_iters}")
    _atomic_write(path, "\n".join(lines) + "\n")


def _algorithm_row(result: SolverResult) -> dict:
    last = result.trace.records[-1]
    return {"final_objective": result.objective_final,
            "termination": result.termination,
            "total_membership_updates": result.trace.total_membership_updates(),
            "outer_iters": last.outer_iter,
            "wall_time_ns": last.elapsed_ns}


def _summary_payload(manifest: RunManifest, results: dict) -> dict:
    payload = {"config": {**dataclasses.asdict(manifest.cfg),
                          "standardize": manifest.standardize,
                          "algorithms": list(manifest.algorithms),
                          "output_dir": manifest.output_dir,
                          "dataset": manifest.dataset_descriptor()}}
    for name, result in results.items():
        payload[name] = _algorithm_row(result)
    return payload


def cmd_run(manifest: RunManifest):
    """Execute the manifest and write trace CSVs plus summary.json.

    Returns ``(exit_status, results)``; status 1, with no file written, on a
    dataset load failure, a refused start or a non-finite objective, and 1
    on an output write failure (degenerate terminations are recorded in the
    summary).
    """
    try:
        results = execute(manifest)
        os.makedirs(manifest.output_dir, exist_ok=True)
        for name, result in results.items():
            write_trace_csv(result, os.path.join(manifest.output_dir, f"{name}_trace.csv"))
        _atomic_write(os.path.join(manifest.output_dir, "summary.json"),
                      json.dumps(_summary_payload(manifest, results), indent=2) + "\n")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, None
    return 0, results


def updates_to_reach(result: SolverResult, target: float) -> Optional[int]:
    """Membership updates spent until the trace first reaches the target."""
    threshold = target + LANDMARK_RTOL * abs(target)
    for rec in result.trace.records:
        if rec.objective <= threshold:
            return rec.membership_updates
    return None


def cmd_compare(manifest: RunManifest):
    """Run the manifest and rank solvers by work to the common optimum."""
    if len(manifest.algorithms) < 2:
        print("error: compare needs at least two algorithms", file=sys.stderr)
        return 2, None
    status, results = cmd_run(manifest)
    if status != 0:
        return status, None
    best = min(res.objective_final for res in results.values())
    per_algorithm = {name: {**_algorithm_row(result),
                            "updates_to_best": updates_to_reach(result, best)}
                     for name, result in results.items()}
    reached = {name: row["updates_to_best"] for name, row in per_algorithm.items()
               if row["updates_to_best"] is not None}
    fewest = min(reached.values())
    winners = sorted(name for name, count in reached.items() if count == fewest)
    report = {"best_objective": best, "per_algorithm": per_algorithm,
              "fewest_updates": winners}
    return 0, report


def _print_compare_report(report: dict) -> None:
    print(f"best final objective: {report['best_objective']:.12g}")
    print(f"{'algorithm':>10} {'final objective':>18} {'outer':>6} "
          f"{'updates_to_best':>16} {'wall_ms':>10}  termination")
    for name, row in report["per_algorithm"].items():
        updates = row["updates_to_best"]
        print(f"{name:>10} {row['final_objective']:>18.10g} {row['outer_iters']:>6} "
              f"{str(updates) if updates is not None else 'not reached':>16} "
              f"{row['wall_time_ns'] / 1e6:>10.2f}  {row['termination']}")
    winners = report["fewest_updates"]
    if len(winners) == 1:
        print(f"fewest membership updates: {winners[0]}")
    else:
        print(f"fewest membership updates: tie between {', '.join(winners)}")


def cmd_validate(scale: str = "quick", seed: int = 0) -> int:
    """Print one line per verification check; exit 0 iff all pass."""
    reports = run_suite(scale, seed)
    for report in reports:
        print(report)
    return 0 if all(r.passed for r in reports) else 1


def _parse_int_list(text):
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated column indices, got {text!r}") from None


def _parse_str_list(text):
    return tuple(tok.strip() for tok in text.split(",") if tok.strip() != "")


def _add_manifest_flags(parser: argparse.ArgumentParser) -> None:
    cfg = {field.name: field.default for field in dataclasses.fields(SolverConfig)}
    add = parser.add_argument
    add("--data", help="CSV dataset path (header auto-detected)")
    add("--drop-cols", type=_parse_int_list, default=(),
        help="comma-separated 0-based column indices to drop")
    add("--synthetic", choices=sorted(SYNTHETIC_PRESETS), help="synthetic dataset preset")
    add("--c", type=int, default=3, help="cluster count (default 3)")
    add("--r", type=float, default=cfg["r"], help=f"fuzziness exponent (default {cfg['r']:g})")
    add("--seed", type=int, default=cfg["seed"],
        help=f"seed for the shared start (default {cfg['seed']})")
    add("--algos", type=_parse_str_list, default=("classic", "irw", "mm"),
        help="comma-separated subset of classic,irw,mm")
    add("--outer-tol", type=float, default=cfg["outer_tol"])
    add("--max-outer", type=int, default=cfg["max_outer_iters"])
    add("--max-inner", type=int, default=cfg["max_inner_iters"])
    add("--no-standardize", dest="standardize", action="store_false",
        help="skip feature standardization")
    add("--out", default="runs", help="output directory (default runs/)")


def manifest_from_args(args: argparse.Namespace) -> RunManifest:
    cfg = SolverConfig(c=args.c, r=args.r, seed=args.seed, outer_tol=args.outer_tol,
                       max_outer_iters=args.max_outer, max_inner_iters=args.max_inner)
    synthetic = None
    if args.synthetic is not None:
        synthetic = SyntheticSpec(seed=cfg.seed, **SYNTHETIC_PRESETS[args.synthetic])
    return RunManifest(cfg=cfg, algorithms=args.algos, output_dir=args.out,
                       csv_path=args.data, drop_columns=args.drop_cols, synthetic=synthetic,
                       standardize=args.standardize)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcmm", description="Fuzzy c-means solver benchmark harness.",
        fromfile_prefix_chars="@")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (("run", "run solvers from one shared start"),
                       ("compare", "run and rank solvers by work")):
        _add_manifest_flags(sub.add_parser(name, help=text))
    val_p = sub.add_parser("validate", help="run the verification battery")
    val_p.add_argument("--scale", choices=tuple(SCALES), default="quick")
    val_p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args.scale, args.seed)
        manifest = manifest_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "run":
        status, results = cmd_run(manifest)
        if status == 0:
            for name, result in results.items():
                print(f"{name}: objective {result.objective_final:.12g} "
                      f"({result.termination}, "
                      f"{result.trace.total_membership_updates()} updates)")
            print(f"wrote traces and summary.json to {manifest.output_dir}")
        return status
    status, report = cmd_compare(manifest)
    if status == 0:
        _print_compare_report(report)
    return status


if __name__ == "__main__":
    sys.exit(main())
