"""fcmm benchmark: time to solution per solver, checked, with per-layer spans.

Run from the root of a source checkout (it imports ``fcmm`` from ``src/``
and reads ``data/iris.csv``):

    python3 perfbench/run.py --workload tall --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

With ``--trace 0`` it prints a table of every end-to-end metric (median,
sample count, high percentile, raw median), then as its last line a JSON
object with the metrics that BENCHMARK.json lists:

setup_s
    Median time of one set-up: load or generate, standardize, draw the
    seeded starts (oracle: build the batteries' instances).
op_ms
    Median time of the workload's headline operation: one
    ``cmd_compare`` for one start seed (iris), one MM outer iteration,
    i.e. solve time over iterations (tall, wide), one battery of every
    brute-force oracle (oracle).

Both are times at reference speed (see ``reference.py``), which takes
out most of the drift in a shared machine's speed; the table also shows
raw medians.

With ``--trace 1`` it runs one round untraced and one traced, checks that
both give bitwise the same counts and objectives, and reports per-layer
metrics: calls, self time and share of every span, layer totals, exact
counts and the tracing overhead. ``--workload all`` runs every workload
in its own process and prints one table. Outputs (span CSVs, details
JSON, compare directories) go to ``.bench_out/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("iris", "tall", "wide", "oracle")
BLAS_THREADS = 1

# Every end-to-end metric, for the table; the last line carries only
# those in BENCHMARK.json.
UNITS = {"setup_s": "s", "op_ms": "ms", "peak_rss_mb": "MB",
         "mm_solve_s": "s", "classic_solve_s": "s", "irw_solve_s": "s",
         "mm_iter_ms": "ms", "classic_iter_ms": "ms", "irw_update_ms": "ms",
         "compare_ms": "ms", "oracle_battery_s": "s"}


def _pin_blas_threads():
    """Fix the BLAS thread count before numpy loads; one thread keeps runs
    on a shared machine steady and stays within any nproc."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _import_program():
    """Import fcmm from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "fcmm" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fcmm package under {src}")
    if not (ROOT / "data" / "iris.csv").is_file():
        raise SystemExit(f"perfbench: no data/iris.csv under {ROOT}")
    sys.path.insert(0, str(src))
    import fcmm
    if Path(fcmm.__file__).resolve().parent != (src / "fcmm").resolve():
        raise SystemExit(f"perfbench: imported fcmm from {fcmm.__file__}")
    return src / "fcmm"


def _code_digest(package_dir):
    """Digest of the program's and the benchmark's own sources."""
    digest = hashlib.sha256()
    for path in sorted(package_dir.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _check_against_earlier_runs(run, key, fingerprint):
    """Same code, seed and machine settings must give the same fingerprint
    as any earlier run in this checkout."""
    path = OUT / "fingerprints.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    current = json.loads(json.dumps(fingerprint))
    if key not in known:
        known[key] = current
        tmp = path.with_name(f"{path.name}.{os.getpid()}")
        tmp.write_text(json.dumps(known))
        os.replace(tmp, path)
    elif known[key] != current:
        run.fail("repeat", [f"fingerprint differs from an earlier run with key {key}"])


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(args):
    """Every end-to-end metric: median, sample count and high percentile,
    at reference speed, with the raw median beside it."""
    import harness
    run, fingerprint, rounds = harness.measure(args.workload, str(ROOT), args.seed,
                                               args.seconds)
    raw, scaled = harness.summarize(run.samples), harness.summarize(run.scaled)
    table = {name: {**scaled[name], "raw_median": raw[name]["median"]} for name in raw}
    name, factor = harness.HEADLINE[args.workload]
    table["op_ms"] = {key: value * factor if key != "n" else value
                      for key, value in table[name].items()}
    table["peak_rss_mb"] = {"median": _peak_rss_mb(), "n": 1}
    return run, fingerprint, {"rounds": rounds, "metrics": table, "log": run.log}


def run_traced(args):
    import harness
    import reference
    import spans
    untraced = harness.Run(reference.for_workload(args.workload))
    state = harness.timed_setup(untraced, args.workload, str(ROOT), args.seed, 1)
    do_round = harness.WORKLOADS[args.workload][1]
    fingerprint = do_round(untraced, state)

    traced = harness.Run(untraced.reference)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        state = harness.timed_setup(traced, args.workload, str(ROOT), args.seed, 1)
        traced_fingerprint = do_round(traced, state)
    if traced_fingerprint != fingerprint:
        traced.fail("traced round", ["counts or final objectives differ from the "
                                     "untraced round"])
    tracer.write_csv(OUT / f"spans-{args.workload}-seed{args.seed}.csv")

    wall_ns = traced.busy_ns
    summary = tracer.summary()
    metrics = {}
    for span in spans.TARGETS:
        calls, own = summary.get(span, (0, 0))
        metrics[f"{span}.calls"] = (calls, "count")
        metrics[f"{span}.self_ms"] = (own / 1e6, "ms")
        metrics[f"{span}.share"] = (own / wall_ns, "ratio")
    for layer in spans.LAYERS:
        own = sum(v[1] for k, v in summary.items() if k.startswith(layer + "."))
        metrics[f"{layer}.self_ms"] = (own / 1e6, "ms")
        metrics[f"{layer}.share"] = (own / wall_ns, "ratio")
    counts = [f"solvers.{kind}.{count}" for kind in ("mm", "classic", "irw")
              for count in ("outer_iters", "updates_to_best", "final_objective")]
    for name in counts + ["solvers.irw.membership_updates", "solvers.irw.inner_cap_hits"]:
        unit = "objective" if name.endswith("final_objective") else "count"
        metrics[name] = (traced.counts[name], unit)
    _, agg_ns = summary.get("objective.aggregates", (0, 0))
    metrics["objective.aggregates.gflop_per_s"] = (
        tracer.work["objective.aggregates"] / agg_ns if agg_ns else 0.0, "GFLOP/s")
    metrics["trace.wall_ms"] = (wall_ns / 1e6, "ms")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.span_cost_ms"] = (len(tracer.spans) * spans.wrapper_cost_ns() / 1e6, "ms")
    # Overheads compare the two rounds at reference speed, so that a change
    # in machine load between them does not read as tracing cost.
    metrics["trace.overhead_ms"] = (
        (traced.busy_scaled_ns - untraced.busy_scaled_ns) / 1e6, "ms")
    mm_solve_s = [sum(r.scaled.get("mm_solve_s", [])) for r in (traced, untraced)]
    metrics["trace.mm_solve_overhead_ms"] = ((mm_solve_s[0] - mm_solve_s[1]) * 1e3, "ms")
    traced.attempted += untraced.attempted
    traced.failed += untraced.failed
    traced.problems = untraced.problems + traced.problems
    return traced, fingerprint, {"per_layer": {k: {"value": v, "unit": u}
                                               for k, (v, u) in metrics.items()},
                                 "untraced": harness.summarize(untraced.samples),
                                 "traced": harness.summarize(traced.samples)}


def run_workload(args):
    _pin_blas_threads()
    package_dir = _import_program()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    OUT.mkdir(exist_ok=True)
    import stamp
    run, fingerprint, details = (run_traced if args.trace else run_untraced)(args)
    key = (f"{args.workload}/seed{args.seed}/code-{_code_digest(package_dir)}"
           f"/blas{BLAS_THREADS}")
    _check_against_earlier_runs(run, key, fingerprint)

    details.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, attempted=run.attempted, failed=run.failed,
                   problems=run.problems[:50],
                   machine=stamp.machine_stamp(BLAS_THREADS))
    (OUT / f"details-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1, default=str))

    if args.trace:
        metrics = details["per_layer"]
        wanted = [m["name"] for m in bench["per_layer"]]
    else:
        table = details["metrics"]
        print(f"{'metric':<16} {'unit':<5} {'median':>11} {'n':>5} {'raw median':>11}"
              "  high percentile (times at reference speed)")
        for name, row in table.items():
            high = ", ".join(f"{k}={v:.6g}" for k, v in row.items() if k[0] == "p")
            print(f"{name:<16} {UNITS[name]:<5} {row['median']:>11.6g} {row['n']:>5} "
                  f"{row.get('raw_median', row['median']):>11.6g}  {high}")
        metrics = {name: {"value": row["median"], "unit": UNITS[name]}
                   for name, row in table.items()}
        wanted = [m["name"] for m in bench["end_to_end"]]
    print(json.dumps({"machine": details["machine"], "rounds": details.get("rounds")}))
    for problem in run.problems[:20]:
        print(f"FAILED {problem}")
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {name: metrics[name] for name in wanted}}
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, then one table of every metric."""
    results = {}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            raise SystemExit(f"perfbench: workload {workload} exited {proc.returncode}")
        sys.stdout.write(f"== {workload}\n" + "".join(proc.stdout.splitlines(True)[:-1]))
        results[workload] = json.loads(proc.stdout.splitlines()[-1])
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
