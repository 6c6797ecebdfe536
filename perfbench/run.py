"""Run one Magus benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep|packed|packed-2w \
        --seed N --seconds S --trace 0|1

``--trace 0`` runs the program untouched and reports the end-to-end
metrics, their times in reference seconds: wall seconds scaled by the
host speed measured around them (see ``hostspeed.py``; the table also
shows them unscaled).  ``--trace 1`` records per-layer spans (see
``layer_trace.py``) and reports the per-layer metrics in wall seconds.
A readable table goes to stdout first; the last stdout line is one JSON
object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Each workload plans a fixed ticket list (a repeated ticket would run on
warm caches), so ``--seconds`` does not cut a run short; the ticket
lists take about ``run_seconds`` of ``BENCHMARK.json`` on a 2-core
x86-64 host.  Scratch files (pack files, pool spill files) live in a
per-run directory under ``.perfbench_run/`` that is removed on exit;
span dumps go to ``.perfbench_out/``.
"""

import os

# One BLAS/OpenMP thread per process, fixed before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

END_TO_END_UNITS = {
    "setup_s": "s",
    "mitigations_per_hour": "1/h",
    "plan_s_p50": "s",
    "plan_s_tail": "s",
    "peak_rss_mb": "MB",
    "recovery_mean": "ratio",
}

#: ``plan_s_tail`` is the ticket latency with this many slower tickets
#: beyond it: the highest percentile with ten samples beyond it, p90 of
#: the sweep's 108 tickets and p68 of the packed workloads' 32.
TAIL_BEYOND = 10


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "packed", "packed-2w"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _peak_rss_mb(workers: int) -> float:
    """Parent high-water mark, plus the largest reaped pool worker's."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers > 1:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def _end_to_end(result, reference: bool = True) -> dict:
    """The end-to-end metrics; times in reference seconds (see
    ``hostspeed.py``) unless ``reference`` is false."""
    ok = [o for o in result.measured if o.error is None]
    if not ok:
        return {}
    latencies = [result.seconds((o.start, o.end), reference) for o in ok]
    return {
        "setup_s": statistics.median(result.setup_s(reference)),
        "mitigations_per_hour":
            len(ok) / result.timed_wall_s(reference) * 3600.0,
        "plan_s_p50": statistics.median(latencies),
        "plan_s_tail": sorted(latencies)[-TAIL_BEYOND - 1],
        "peak_rss_mb": _peak_rss_mb(result.workers),
        "recovery_mean": statistics.fmean(o.plan.recovery for o in ok),
    }


def _per_layer(result, tracer, registry, args) -> dict:
    from conftest import host_provenance
    from layer_trace import layer_metrics, span_stats, time_within
    ok = [o for o in result.measured if o.error is None]
    metrics = layer_metrics(
        tracer, registry, tickets=len(result.measured),
        search_steps=sum(o.plan.tuning.n_steps for o in ok),
        gradual_steps=sum(o.schedule.n_steps for o in ok
                          if o.schedule is not None),
        grid_cells=result.grid_cells, workers=result.workers,
        setup_wall_s=sum(result.setup_s(reference=False)),
        timed_wall_s=result.timed_wall_s(reference=False),
        untraced_timed_wall_s=result.untraced_timed_wall_s)
    timed = span_stats(tracer.spans, phase="timed")
    setup = span_stats(tracer.spans, phase="setup")

    def share(stats, name, whole):
        return stats[name].s / whole if name in stats and whole else 0.0

    timed_wall_s = result.timed_wall_s(reference=False)
    attribution = {
        "anchor_share_of_ticket_time": share(
            timed, "engine.evaluate_with_incumbent", timed_wall_s),
        "evaluator_self_share_of_ticket_time": (
            timed["evaluation.score_candidates"].self_s / timed_wall_s
            if "evaluation.score_candidates" in timed else 0.0),
        "crc32c_share_of_stream_database": (
            time_within(tracer.spans, "durable.crc32c",
                        "plossdb.stream_database")
            / setup["plossdb.stream_database"].s
            if "plossdb.stream_database" in setup else 0.0),
        "peak_rss_raised_in": tracer.peak_raiser(),
    }
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}")
    tracer.write(stem + ".spans.json")
    host = host_provenance()
    with open(stem + ".summary.json", "w") as fh:
        json.dump({"host": host, "attribution": attribution,
                   "metrics": metrics}, fh, indent=2)
    print(f"host: {host}")
    print("attribution:")
    for key, value in attribution.items():
        print(f"  {key:40s} {value}")
    return metrics


def _run(args, run_dir: str) -> int:
    import magus_workloads
    from hostspeed import REFERENCE_S
    registry = tracer = None
    if args.trace:
        from layer_trace import LayerTracer
        from repro.obs import MetricsRegistry
        tracer, registry = LayerTracer(), MetricsRegistry()
    result = magus_workloads.WORKLOADS[args.workload](
        args.seed, run_dir, tracer=tracer, registry=registry)

    attempted, failed = len(result.outcomes), result.failed
    for outcome in result.outcomes:
        if outcome.error is not None:
            print(f"FAILED {outcome.ticket.label}: {outcome.error}",
                  file=sys.stderr)
    if args.trace:
        from layer_trace import unit_of
        values = _per_layer(result, tracer, registry, args)
        units = {name: unit_of(name)[0] for name in values}
    else:
        values = _end_to_end(result)
        units = END_TO_END_UNITS
    correct = failed == 0 and bool(values)

    print(f"workload {args.workload}  seed {args.seed}  tickets "
          f"{attempted} attempted, {failed} failed  "
          f"({len(result.measured)} timed)")
    for name, value in values.items():
        print(f"  {name:44s} {value:.6g} {units[name]}")
    if not args.trace and values:
        samples = result.speed.samples
        print(f"host speed: {len(samples)} kernel samples, median "
              f"{statistics.median(samples):.6f} s (reference "
              f"{REFERENCE_S} s); in wall seconds:")
        for name, value in _end_to_end(result, reference=False).items():
            print(f"  {name:44s} {value:.6g} {units[name]}")
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {src}; run from the root "
              f"of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [src, os.path.join(ROOT, "benchmarks")]
    scratch = os.path.join(ROOT, ".perfbench_run")
    run_dir = os.path.join(scratch, str(os.getpid()))
    os.makedirs(run_dir)
    # Pool spill files follow tempfile's default directory.
    os.environ["TMPDIR"] = tempfile.tempdir = run_dir
    try:
        return _run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
