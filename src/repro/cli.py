"""Command-line interface: ``repro-magus <command>`` (or ``python -m repro``).

Commands mirror the library's main workflows:

* ``area``     — build a synthetic study area and print its coverage map;
* ``mitigate`` — plan a mitigation for an upgrade scenario and report
  the recovery ratio (optionally with the gradual schedule);
* ``testbed``  — run a Section-3 testbed scenario and print the
  Figure-2 timeline;
* ``calendar`` — generate a year of upgrade tickets and print the
  motivation statistics.

Observability flags: a global ``-v`` / ``-vv`` (before the subcommand)
turns on structured iteration logging; ``mitigate`` and ``testbed``
additionally accept ``--metrics-out FILE.json`` (write the run's
:class:`~repro.obs.RunReport`), ``--trace`` (print the span tree),
``--trace-out FILE.json`` (export parent *and* worker spans in the
Chrome trace-event format for Perfetto / ``chrome://tracing``) and
``--flight-out FILE.json`` (dump the registry's structured event ring,
worker events included).  Every exit path — including the SIGPIPE
guard and the structured aborts with exit codes 3/4 — flushes each
requested artifact exactly once.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .analysis.ascii_map import render_serving_map
from .analysis.report import format_series, format_table
from .core.magus import TUNING_STRATEGIES
from .faults import ChaosInjector, ChaosPlan, FaultInjector, FaultPlan
from .obs import (MetricsRegistry, RunReport, export_chrome_trace,
                  get_logger, get_registry, set_registry, setup_logging,
                  trace, verbosity_to_level)
from .synthetic.calendar import (UpgradeCalendarGenerator, duration_stats,
                                 weekday_histogram)
from .synthetic.market import build_area
from .synthetic.placement import AreaType
from .testbed.experiment import run_upgrade_experiment
from .testbed.testbed import build_scenario_one, build_scenario_two
from .upgrades.planner import UpgradePlanner
from .upgrades.scenario import UpgradeScenario, select_targets

__all__ = ["main", "build_parser", "EXIT_ROLLOUT_ABORTED",
           "EXIT_INPUT_REJECTED"]

_LOG = get_logger("cli")

#: A resilient rollout exhausted its retries and fell back.
EXIT_ROLLOUT_ABORTED = 3
#: A fault plan corrupted the inputs and the model guards rejected them.
EXIT_INPUT_REJECTED = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-magus",
        description="Magus (CoNEXT 2015) reproduction toolkit")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="structured progress logging "
                             "(-v info, -vv debug); give before the "
                             "subcommand")
    sub = parser.add_subparsers(dest="command", required=True)

    area = sub.add_parser("area", help="build a study area, show coverage")
    _add_area_args(area)

    mitigate = sub.add_parser("mitigate",
                              help="plan mitigation for an upgrade scenario")
    _add_area_args(mitigate)
    mitigate.add_argument("--scenario", choices=["a", "b", "c"], default="a",
                          nargs="+",
                          help="upgrade scenario label(s); several labels "
                               "are planned as one sweep and printed in "
                               "the given order")
    mitigate.add_argument("--tuning", choices=list(TUNING_STRATEGIES),
                          default="joint")
    mitigate.add_argument("--utility",
                          choices=["performance", "coverage", "sum-rate"],
                          default="performance")
    mitigate.add_argument("--gradual", action="store_true",
                          help="also compute the gradual migration schedule")
    mitigate.add_argument("--workers", type=int, default=1, metavar="N",
                          help="plan several --scenario labels on N "
                               "worker processes, one whole mitigation "
                               "per worker (default 1 = serial); one "
                               "scenario always plans in-process")
    mitigate.add_argument("--no-delta", action="store_true",
                          help="disable the incremental delta-evaluation "
                               "engine and run every candidate through "
                               "the full Formula 1-4 pass (ablation "
                               "baseline)")
    mitigate.add_argument("--faults", metavar="PLAN.json", default=None,
                          help="inject the failure scenario described by "
                               "a magus.fault-plan/1 file and execute the "
                               "gradual schedule resiliently")
    mitigate.add_argument("--checkpoint", metavar="RUN.ckpt", default=None,
                          help="checkpoint every accepted rollout step to "
                               "this file and resume from it if present")
    mitigate.add_argument("--plossdb", metavar="FILE.plossdb", default=None,
                          help="read the packed path-loss database "
                               "from this magus.plossdb file (building "
                               "it first, streamed, if missing); switches "
                               "evaluation to float32 planes")
    mitigate.add_argument("--chunk-deadline-s", type=float, default=None,
                          metavar="S",
                          help="per-scenario deadline for --workers; a "
                               "scenario that misses it is retried on a "
                               "respawned pool, then quarantined to a "
                               "serial re-run (default 600)")
    mitigate.add_argument("--chaos", metavar="PLAN.json", default=None,
                          help="inject the process/storage faults "
                               "described by a magus.chaos-plan/1 file "
                               "(worker SIGKILL, item stalls, artifact "
                               "corruption) to exercise the supervision "
                               "and durability layers")
    _add_obs_args(mitigate)

    pack = sub.add_parser(
        "pack", help="stream a packed path-loss database "
                     "(magus.plossdb/1) to disk")
    _add_area_args(pack)
    pack.add_argument("--out", metavar="FILE.plossdb", required=True,
                      help="output file; loadable with `mitigate "
                           "--plossdb` (standard areas) or the library's "
                           "load_packed()")
    pack.add_argument("--tilt-model", choices=["exact", "shared-delta"],
                      default="exact")
    pack.add_argument("--grid-cells", type=int, default=None, metavar="N",
                      help="paper-scale mode: build an NxN square market "
                           "instead of the standard study area (e.g. 600)")
    pack.add_argument("--cell-size", type=float, default=16.0, metavar="M",
                      help="raster cell size in meters for --grid-cells "
                           "mode (default 16)")
    pack.add_argument("--tilts", type=int, default=None, metavar="K",
                      help="pack only the highest K tilt settings of the "
                           "ladder (--grid-cells mode; default: all)")
    pack.add_argument("--clip-floor-db", default=None, metavar="DB",
                      help="zero linear gains below this dB floor at "
                           "the float32 quantization point so sector "
                           "footprints (and the v3 ROI boxes) are "
                           "genuinely sparse; 'none' disables "
                           "clipping (default: -150)")

    testbed = sub.add_parser("testbed", help="run a Section-3 scenario")
    testbed.add_argument("--scenario", type=int, choices=[1, 2], default=1)
    testbed.add_argument("--seed", type=int, default=None)
    _add_obs_args(testbed)

    calendar = sub.add_parser("calendar",
                              help="synthesize a year of upgrade tickets")
    calendar.add_argument("--seed", type=int, default=0)
    calendar.add_argument("--sites", type=int, default=500)

    validate = sub.add_parser(
        "validate", help="drive-test the model against synthetic field "
                         "measurements")
    _add_area_args(validate)
    validate.add_argument("--samples", type=int, default=500)
    validate.add_argument("--noise-db", type=float, default=2.0)
    return parser


def _add_area_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--area-type",
                        choices=[a.value for a in AreaType],
                        default="suburban")
    parser.add_argument("--seed", type=int, default=0)


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics-out", metavar="FILE.json", default=None,
                        help="write the run report (metrics, phases, "
                             "utility trajectory) as JSON")
    parser.add_argument("--trace", action="store_true",
                        help="collect and print the span tree of the run")
    parser.add_argument("--trace-out", metavar="FILE.json", default=None,
                        help="export the run's spans (parent and worker "
                             "processes on separate tracks) in the Chrome "
                             "trace-event format — open in Perfetto or "
                             "chrome://tracing")
    parser.add_argument("--flight-out", metavar="FILE.json", default=None,
                        help="dump the run's event ring (rollout steps, "
                             "faults, retries, pool decisions, search "
                             "passes, pool workers' included) as JSON; "
                             "aborted runs dump it automatically")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    for flag in ("metrics_out", "trace_out", "flight_out"):
        # Checked before any work: the artifacts are written last.
        target = getattr(args, flag, None)
        if target and not os.path.isdir(
                os.path.dirname(os.path.abspath(target))):
            print(f"error: --{flag.replace('_', '-')} {target}: its "
                  f"directory does not exist", file=sys.stderr)
            return 2
    if args.verbose:
        setup_logging(verbosity_to_level(args.verbose))
    handler = {
        "area": _cmd_area,
        "mitigate": _cmd_mitigate,
        "testbed": _cmd_testbed,
        "calendar": _cmd_calendar,
        "validate": _cmd_validate,
        "pack": _cmd_pack,
    }[args.command]

    # One registry whenever there is a consumer of metrics, spans or
    # events: a report or trace flag, an explicit --flight-out, or a
    # fault/chaos plan whose abort path will flush the event ring.
    observing = any(getattr(args, flag, None) for flag in (
        "metrics_out", "trace", "trace_out", "flight_out", "faults",
        "chaos"))
    sink = _ObsSink(args)
    previous_registry = None
    if observing:
        previous_registry = set_registry(
            MetricsRegistry(flight_out=args.flight_out))
        if args.trace or args.trace_out:
            trace.enable()
    try:
        status = handler(args, sink)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # Output was piped to a consumer (head, less) that closed early.
        # Redirect stdout to devnull so the interpreter's shutdown flush
        # does not raise again, and exit quietly (standard SIGPIPE
        # convention).
        _silence_stdout()
        return 0
    finally:
        # Whatever path exits — success, structured aborts (codes
        # 3/4), SIGPIPE — every requested artifact lands exactly once.
        sink.finalize()
        if observing:
            trace.disable()
            trace.clear()
            set_registry(previous_registry)


def _silence_stdout() -> None:
    """Point stdout at devnull after a broken pipe (SIGPIPE guard)."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())


class _ObsSink:
    """Exactly-once writer for the run's on-disk observability artifacts.

    The happy path writes the trace and run report from the command
    handler (where run context — plan, trajectory — is available);
    :meth:`finalize` runs in ``main``'s ``finally`` and catches
    whatever the handler never reached (early returns, aborts,
    SIGPIPE), so each requested file is written exactly once and no
    partial duplicates are left behind.
    """

    def __init__(self, args) -> None:
        self.command = args.command
        self.metrics_out = getattr(args, "metrics_out", None)
        self.trace_out = getattr(args, "trace_out", None)
        self._metrics_written = False
        self._trace_written = False

    def write_trace(self) -> None:
        """Export the Chrome trace (non-destructive peek of the spans).

        Called *before* the run report is built: the report drains the
        tracer, so ordering matters.
        """
        if self.trace_out is None or self._trace_written:
            return
        self._trace_written = True
        export_chrome_trace(self.trace_out, tracer=trace)

    def write_report(self, report: RunReport) -> bool:
        if self.metrics_out is None or self._metrics_written:
            return False
        self._metrics_written = True
        report.write(self.metrics_out)
        return True

    def finalize(self) -> None:
        get_registry().flush()
        self.write_trace()
        if self.metrics_out is not None and not self._metrics_written:
            # The handler exited before reaching its report emission
            # (structured abort, SIGPIPE): still honor --metrics-out
            # with the registry-only report.
            self.write_report(RunReport.from_registry(
                command=self.command, registry=get_registry(),
                tracer=trace))


def _emit_report(report: RunReport, args, sink: _ObsSink) -> None:
    """Write/print the run report per the ``--metrics-out``/``--trace``."""
    if args.trace and report.spans:
        print()
        print("trace:")
        for span_dict in report.spans:
            _print_span(span_dict, indent=1)
    if sink.write_report(report):
        print(f"run report written to {args.metrics_out}")
    elif args.trace:
        print()
        print(report.to_table())


def _print_span(span_dict: dict, indent: int = 0) -> None:
    tags = span_dict.get("tags") or {}
    suffix = ("  " + " ".join(f"{k}={v}" for k, v in tags.items())
              if tags else "")
    mark = "" if span_dict.get("status", "ok") == "ok" else "  [ERROR]"
    print(f"{'  ' * indent}{span_dict['name']}: "
          f"{span_dict['duration_ns'] / 1e6:.2f} ms{suffix}{mark}")
    for child in span_dict.get("children", ()):
        _print_span(child, indent + 1)


# ----------------------------------------------------------------------
def _cmd_area(args, sink: _ObsSink) -> int:
    area = build_area(AreaType(args.area_type), seed=args.seed)
    print(f"{area.name}: {area.network.n_sectors} sectors over "
          f"{area.grid.shape[0]}x{area.grid.shape[1]} grids "
          f"({area.grid.cell_size:.0f} m cells)")
    print(f"mean interferers within 10 km: {area.interferer_stats():.1f}")
    for line in area.baseline.describe():
        print(line)
    print()
    print(render_serving_map(area.baseline.serving))
    return 0


def _cmd_mitigate(args, sink: _ObsSink) -> int:
    try:
        fault_plan = FaultPlan.load(args.faults) if args.faults else None
        chaos_plan = ChaosPlan.load(args.chaos) if args.chaos else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    injector = None if fault_plan is None else FaultInjector(fault_plan)
    chaos = None
    chaos_hook = None
    chaos_scratch = None
    if chaos_plan is not None:
        import tempfile

        from .faults.durable import add_post_write_hook
        chaos_scratch = tempfile.mkdtemp(prefix="magus-chaos-")
        chaos = ChaosInjector(chaos_plan, chaos_scratch)
        # Artifact faults bite every durable write for the run's whole
        # lifetime; the hook is removed (and the claim-marker scratch
        # deleted) on the way out, whatever path exits.
        chaos_hook = chaos.artifact_hook()
        add_post_write_hook(chaos_hook)
    try:
        return _mitigate_run(args, sink, fault_plan, injector, chaos)
    finally:
        if chaos_hook is not None:
            import shutil

            from .faults.durable import remove_post_write_hook
            remove_post_write_hook(chaos_hook)
            shutil.rmtree(chaos_scratch, ignore_errors=True)


def _mitigate_run(args, sink: _ObsSink, fault_plan, injector,
                  chaos) -> int:
    # The default is the bare label; given labels arrive as a list.
    labels = (args.scenario if isinstance(args.scenario, list)
              else [args.scenario])
    run_rollout = bool(args.faults or args.checkpoint)
    if len(labels) > 1 and run_rollout:
        print("--faults and --checkpoint take a single --scenario",
              file=sys.stderr)
        return 2
    strategy = "full" if args.no_delta else "delta"
    try:
        with trace.span("magus.build_area", area_type=args.area_type):
            area = build_area(AreaType(args.area_type), seed=args.seed,
                              evaluation_strategy=strategy,
                              plossdb=args.plossdb)
    except (OSError, ValueError) as exc:
        if not args.plossdb or args.plossdb not in str(exc):
            raise                 # not about the --plossdb file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.plossdb:
        print(f"path-loss database loaded from {args.plossdb} "
              f"({area.pathloss.packed_store.nbytes / 1e6:.0f} MB packed, "
              f"float32 planes)")
    if injector is not None and fault_plan.pathloss is not None:
        injector.corrupt_pathloss(area.engine.pathloss)
    scenarios = [UpgradeScenario.from_label(label) for label in labels]
    planner = UpgradePlanner(area, utility=args.utility,
                             evaluation_strategy=strategy,
                             workers=args.workers,
                             chunk_deadline_s=args.chunk_deadline_s,
                             chaos=chaos)
    magus = planner.magus
    meta = {"area_type": args.area_type, "seed": args.seed,
            "scenario": args.scenario, "tuning": args.tuning,
            "evaluation_strategy": strategy, "workers": args.workers,
            "fault_plan": args.faults, "chaos_plan": args.chaos}
    if len(scenarios) > 1:
        outcomes = planner.sweep_scenarios(scenarios, tuning=args.tuning,
                                           with_gradual=args.gradual)
        for i, outcome in enumerate(outcomes):
            if i:
                print()
            print(f"scenario ({outcome.scenario.value}):")
            _print_plan(outcome.plan, outcome.gradual, outcome.direct_stats)
        _emit_mitigate_artifacts(args, sink, lambda: RunReport.from_registry(
            command="mitigate", registry=get_registry(), tracer=trace,
            total_model_evaluations=sum(
                o.plan.tuning.total_evaluations for o in outcomes),
            meta=meta))
        return 0
    targets = select_targets(area, scenarios[0])
    status = 0
    try:
        plan = magus.plan_mitigation(targets, tuning=args.tuning)
    except ValueError as exc:
        if injector is None:
            raise
        # Fault-injected corrupt inputs: the model guards rejected
        # them — report structurally, not as a traceback.
        _LOG.error("mitigation rejected corrupt inputs: %s", exc)
        print(f"input-rejected command=mitigate seed={args.seed} "
              f"error={exc}", file=sys.stderr)
        return EXIT_INPUT_REJECTED
    if args.gradual or run_rollout:
        gradual = magus.gradual_schedule(plan)
        _print_plan(plan, gradual, magus.direct_migration_stats(plan))
    else:
        _print_plan(plan, None, None)
    if run_rollout:
        from .faults import ResilientExecutor
        executor = ResilientExecutor(
            magus.evaluator, network=magus.network,
            injector=injector, checkpoint_path=args.checkpoint)
        try:
            rollout = executor.execute(gradual)
        except ValueError as exc:       # an unusable --checkpoint file
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print()
        for line in rollout.describe():
            print(line)
        if not rollout.completed:
            _LOG.error(
                "rollout aborted reason=%s steps_applied=%d "
                "retries=%d fallback=last-known-good",
                rollout.reason, rollout.steps_applied,
                rollout.retries)
            print(f"rollout-aborted reason={rollout.reason} "
                  f"steps_applied={rollout.steps_applied} "
                  f"retries={rollout.retries} "
                  f"fallback=last-known-good", file=sys.stderr)
            status = EXIT_ROLLOUT_ABORTED
    _emit_mitigate_artifacts(args, sink, lambda: RunReport.from_mitigation(
        plan, command="mitigate", registry=get_registry(), tracer=trace,
        meta=meta))
    return status


def _emit_mitigate_artifacts(args, sink: _ObsSink, make_report) -> None:
    """Write the trace, then the report ``make_report()`` builds."""
    if not (args.metrics_out or args.trace or args.trace_out):
        return
    # Chrome trace first: it peeks at the finished spans, while the
    # report construction drains them.
    sink.write_trace()
    _emit_report(make_report(), args, sink)
    if args.trace_out:
        print(f"chrome trace written to {args.trace_out}")


def _print_plan(plan, gradual, direct) -> None:
    """The plan, then (when scheduled) its gradual-migration summary."""
    for line in plan.describe():
        print(line)
    if gradual is None:
        return
    print()
    for line in gradual.stats().describe():
        print(line)
    print(f"direct-tuning peak: "
          f"{direct.peak_simultaneous_ues:.0f} UEs "
          f"(x{gradual.reduction_vs(direct):.1f} reduction)")


def _cmd_testbed(args, sink: _ObsSink) -> int:
    if args.scenario == 1:
        bed, target = build_scenario_one(
            **({} if args.seed is None else {"seed": args.seed}))
    else:
        bed, target = build_scenario_two(
            **({} if args.seed is None else {"seed": args.seed}))
    result = run_upgrade_experiment(bed, target)
    print(f"scenario {args.scenario}: "
          f"f(C_before)={result.f_before:.2f} "
          f"f(C_upgrade)={result.f_upgrade:.2f} "
          f"f(C_after)={result.f_after:.2f} "
          f"recovery={result.recovery * 100:.0f}%")
    tl = result.timeline
    print(format_series("no tuning", tl.times, tl.no_tuning, "{:.2f}"))
    print(format_series("reactive", tl.times, tl.reactive, "{:.2f}"))
    print(format_series("proactive", tl.times, tl.proactive, "{:.2f}"))
    if args.metrics_out or args.trace or args.trace_out:
        sink.write_trace()
        registry = get_registry()
        measurements = registry.counter(
            "magus.testbed.measurements").value
        report = RunReport.from_registry(
            command="testbed", registry=registry, tracer=trace,
            utility_trajectory=list(tl.reactive),
            total_model_evaluations=measurements,
            meta={"scenario": args.scenario, "seed": args.seed,
                  "f_before": result.f_before,
                  "f_upgrade": result.f_upgrade,
                  "f_after": result.f_after,
                  "recovery_ratio": result.recovery,
                  "reactive_steps": result.reactive_steps})
        _emit_report(report, args, sink)
        if args.trace_out:
            print(f"chrome trace written to {args.trace_out}")
    return 0


def _cmd_calendar(args, sink: _ObsSink) -> int:
    tickets = UpgradeCalendarGenerator(n_sites=args.sites,
                                       seed=args.seed).generate()
    hist = weekday_histogram(tickets)
    stats = duration_stats(tickets)
    print(format_table(["weekday", "tickets"], list(hist.items()),
                       title=f"{len(tickets)} tickets in one year"))
    tue_fri = sum(hist[d] for d in ("Tue", "Wed", "Thu", "Fri")) / 4.0
    others = sum(hist[d] for d in ("Mon", "Sat", "Sun")) / 3.0
    print(f"Tue-Fri vs other days: x{tue_fri / others:.2f}")
    print(f"median duration: {stats['median_hours']:.1f} h "
          f"({stats['fraction_4_to_6h'] * 100:.0f}% in the 4-6 h band)")
    return 0


def _cmd_pack(args, sink: _ObsSink) -> int:
    from .model.pathloss import DEFAULT_CLIP_FLOOR_DB
    from .synthetic.market import build_packed_market, pack_area_database

    def progress(done: int, total: int) -> None:
        if done == total or done % 50 == 0:
            print(f"  packed {done}/{total} sectors", file=sys.stderr)

    if args.clip_floor_db is None:
        clip_floor_db = DEFAULT_CLIP_FLOOR_DB
    elif args.clip_floor_db.strip().lower() == "none":
        clip_floor_db = None
    else:
        try:
            clip_floor_db = float(args.clip_floor_db)
        except ValueError:
            print(f"--clip-floor-db must be a dB value or 'none', got "
                  f"{args.clip_floor_db!r}", file=sys.stderr)
            return 2

    if args.grid_cells:
        from .synthetic.placement import PlacementParameters
        params = PlacementParameters.for_area(AreaType(args.area_type))
        tilt_values = None
        if args.tilts is not None:
            from .model.antenna import TiltRange
            ladder = TiltRange(normal_deg=params.normal_tilt_deg,
                               min_deg=0.0,
                               max_deg=params.normal_tilt_deg + 4.0,
                               step_deg=0.5).settings
            if not 0 < args.tilts <= len(ladder):
                print(f"--tilts must be in [1, {len(ladder)}]",
                      file=sys.stderr)
                return 2
            tilt_values = list(ladder[-args.tilts:])
        header = build_packed_market(
            args.out, seed=args.seed, area_type=AreaType(args.area_type),
            grid_cells=args.grid_cells, cell_size_m=args.cell_size,
            tilt_values=tilt_values, tilt_model=args.tilt_model,
            progress=progress, clip_floor_db=clip_floor_db)
    else:
        if args.tilts is not None:
            print("--tilts requires --grid-cells (paper-scale mode)",
                  file=sys.stderr)
            return 2
        header = pack_area_database(
            args.out, AreaType(args.area_type), seed=args.seed,
            tilt_model=args.tilt_model, progress=progress,
            clip_floor_db=clip_floor_db)
    print(f"packed {header['n_sectors']} sectors x {header['n_tilts']} "
          f"tilts x {header['grid_shape'][0]}x{header['grid_shape'][1]} "
          f"grids -> {args.out} "
          f"({header['file_bytes'] / 1e9:.2f} GB, {header['format']})")
    return 0


def _cmd_validate(args, sink: _ObsSink) -> int:
    from .analysis.validation import drive_test, validate_against
    area = build_area(AreaType(args.area_type), seed=args.seed)
    samples = drive_test(area.baseline, n_samples=args.samples,
                         measurement_noise_db=args.noise_db,
                         seed=args.seed)
    for line in validate_against(area.baseline, samples).describe():
        print(line)
    return 0


if __name__ == "__main__":       # pragma: no cover
    sys.exit(main())
