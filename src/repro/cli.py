"""Command-line interface: regenerate any paper artifact.

Examples::

    repro table4.1                 # the two-pool experiment
    repro table4.2 --scale 2       # Zipfian, longer windows
    repro table4.3 --scale 0.3     # OLTP trace, shortened
    repro table4.2 --metrics-out run.jsonl --timeline
    repro trace-stats              # Section 4.3 trace characterization
    repro ablation k-sweep         # any DESIGN.md ablation by name
    repro list                     # what can be run

(or ``python -m repro ...`` without installing the entry point.)

Observability: every table and ablation command accepts
``--metrics-out PATH`` (stream structured JSONL events — accesses,
evictions with backward K-distance, history purges, run snapshots, and
the sliding-window hit-ratio series; schema in docs/observability.md)
and ``--timeline`` (render an ASCII chart of windowed hit ratio over
logical time after the table). Progress narration is itself an event
stream with one route, :func:`repro.obs.runtime.narrate`: every command
and the library below it emit ``ProgressEvent``s on the command's
dispatcher, and ``--quiet`` just leaves the console sink unattached, so
it silences tables, ablations, reports and trace-stats uniformly.

Parallelism: ``--jobs N`` (table commands) builds the sweep's stack
passes, one per column and repetition, on N worker processes
(:mod:`repro.sim.parallel`); the passes are the work. The cells, each a
lookup into its column's pass, run in this process in grid order, so
results, narration, metrics, spans and events are those of a serial
run. ``--metrics-out`` and ``--timeline`` take every reference, so
their cells run here on the object path, where their events are
written, and such a run takes as long as a serial one. See
docs/performance.md.

Checkpoints: on the table commands, ``--checkpoint PATH`` records
completed cells to a JSONL ledger as they finish; adding ``--resume``
on a later invocation skips the recorded cells and appends the rest —
an interrupted sweep (Ctrl-C exits with code 130 after salvaging
completed cells) picks up where it left off and produces the identical
table. A stack pass the worker pool did not return (its worker raised
or died) leaves its column's runs to their kernels; a cell that raises
exits 1 after every other cell finished. See the "Checkpoints and
failures" section of docs/performance.md.

Live telemetry: ``--serve-metrics PORT`` exposes the run's metrics
registry as Prometheus text on ``localhost:PORT/metrics`` (plus
``/healthz``) for the whole command, its counters, histogram buckets
and gauges updated as sweep cells complete;
``--sample-resources SECONDS`` adds a periodic RSS/CPU/GC/sink-depth
sampler. ``repro top`` renders a live terminal dashboard over either a
``/metrics`` endpoint or a ``--metrics-out`` file, and ``repro perf``
diffs the latest ``BENCH_history.jsonl`` record against its baseline
window (non-zero exit on regression). See the "Live telemetry" section
of docs/observability.md.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack, contextmanager
from typing import Iterator, List, Optional, Tuple

from .analysis import profile_trace
from .errors import ConfigurationError
from .experiments import (
    PAPER_TABLE_4_1,
    PAPER_TABLE_4_2,
    PAPER_TABLE_4_3,
    comparison_table,
    table_4_1_spec,
    table_4_2_spec,
    table_4_3_spec,
)
from .experiments.ablations import ABLATIONS
from .obs import (
    ConsoleProgressSink,
    EventDispatcher,
    HitRatioWindowRecorder,
    JsonlSink,
    SnapshotEvent,
    TimelineSink,
)
from .obs import runtime as obs_runtime
from .obs.runtime import narrate
from .obs import trace as obs_trace
from .obs import perf as obs_perf
from .obs import top as obs_top
from .obs.registry import MetricsRegistry
from .obs.telemetry import MetricsServer, ResourceSampler
from .obs.trace import Tracer, write_chrome_trace
from .sim import (
    CellExecutionError,
    SweepCheckpoint,
    SweepInterrupted,
    explain_eviction,
    run_experiment,
)
from .sim.explain import EXPLAIN_WORKLOADS
from .workloads import BankOLTPWorkload
from .workloads.oltp import FIVE_MINUTE_WINDOW_REFERENCES, PAPER_TRACE_LENGTH


#: JSONL access-event sampling for CLI runs: decision events (evictions,
#: purges, snapshots, window samples) are always written; raw accesses are
#: thinned to keep multi-million-reference sweeps to tractable file sizes.
METRICS_ACCESS_SAMPLE = 100

#: Sliding hit-ratio window (references) and sampling stride for the
#: windowed series behind ``--metrics-out`` / ``--timeline``.
METRICS_WINDOW = 1000
METRICS_STRIDE = 250


@contextmanager
def _observability(quiet: bool,
                   metrics_out: Optional[str] = None,
                   timeline: bool = False,
                   trace_out: Optional[str] = None,
                   serve_metrics: Optional[int] = None,
                   sample_resources: Optional[float] = None
                   ) -> Iterator[Tuple[EventDispatcher,
                                       Optional[TimelineSink]]]:
    """Build, activate, and tear down the command's event dispatcher.

    The dispatcher is made ambient (:func:`repro.obs.activate`) so
    simulators built anywhere below — including inside ablation
    functions that never see a parameter — emit through it. On exit a
    ``phase="final"`` snapshot is emitted and file sinks are closed.
    With ``trace_out`` an ambient :class:`~repro.obs.trace.Tracer` is
    activated alongside, and the recorded span tree (including the
    ``stack.pass`` spans relayed from forked sweep workers) is written
    as Chrome trace-event JSON when the command finishes.
    ``serve_metrics`` keeps a ``/metrics`` + ``/healthz`` endpoint up
    for the command's whole extent; ``sample_resources`` runs the
    periodic :class:`~repro.obs.telemetry.ResourceSampler` beside it.
    """
    dispatcher = EventDispatcher()
    if not quiet:
        dispatcher.attach(ConsoleProgressSink())
    timeline_sink: Optional[TimelineSink] = None
    if metrics_out or timeline:
        dispatcher.attach(HitRatioWindowRecorder(
            dispatcher, window=METRICS_WINDOW, stride=METRICS_STRIDE))
    if timeline:
        timeline_sink = dispatcher.attach(TimelineSink())
    if metrics_out:
        dispatcher.attach(JsonlSink.open(
            metrics_out, access_every=METRICS_ACCESS_SAMPLE))
    if metrics_out or serve_metrics is not None or sample_resources:
        # A registry rides along so the final snapshot carries protocol
        # totals, and so the live endpoint and sampler have an
        # instrument surface to publish into.
        dispatcher.metrics = MetricsRegistry()
    server: Optional[MetricsServer] = None
    sampler: Optional[ResourceSampler] = None
    tracer: Optional[Tracer] = Tracer() if trace_out else None
    # Everything from the first daemon-thread start to the last command
    # output runs under one try/finally: a command that raises (or a
    # sampler that fails to construct after the server bound its port)
    # must never leak a live endpoint thread or a sampling thread.
    try:
        if serve_metrics is not None:
            assert dispatcher.metrics is not None
            server = MetricsServer(dispatcher.metrics, port=serve_metrics)
            server.start()
            print(f"serving /metrics on {server.url}", file=sys.stderr)
        if sample_resources:
            assert dispatcher.metrics is not None
            sampler = ResourceSampler(dispatcher.metrics,
                                      interval=sample_resources,
                                      dispatcher=dispatcher)
            sampler.start()
        with obs_runtime.activate(dispatcher):
            if tracer is not None:
                with obs_trace.activate(tracer):
                    yield dispatcher, timeline_sink
            else:
                yield dispatcher, timeline_sink
        if dispatcher.has_sinks:
            counters = (dict(dispatcher.metrics.snapshot())
                        if dispatcher.metrics is not None else {})
            dispatcher.emit(SnapshotEvent(time=None, phase="final",
                                          counters=counters))
    finally:
        if sampler is not None:
            sampler.stop()
        if server is not None:
            server.stop()
        dispatcher.close()
    if tracer is not None and trace_out:
        write_chrome_trace(trace_out, tracer)
        print(f"trace written to {trace_out}", file=sys.stderr)
    if metrics_out:
        print(f"metrics written to {metrics_out}", file=sys.stderr)


def _open_checkpoint(path: Optional[str], resume: bool
                     ) -> Optional[SweepCheckpoint]:
    """Open the ``--checkpoint`` ledger (resuming when asked)."""
    if path is None:
        return None
    checkpoint = SweepCheckpoint(path, resume=resume)
    if resume and checkpoint.resumed_cells:
        narrate(f"resuming from {path}: "
                f"{checkpoint.resumed_cells} checkpointed cell(s)")
    return checkpoint


def _report_sweep_failure(exc: Exception) -> int:
    """Render a salvaged-sweep exit: 130 for interrupts, 1 for failures."""
    if isinstance(exc, SweepInterrupted):
        print(f"interrupted: {exc}", file=sys.stderr)
        return 130
    print(f"error: {exc}", file=sys.stderr)
    return 1


def _run_table(number: str, scale: float, repetitions: Optional[int],
               quiet: bool, compare: bool, chart: bool,
               metrics_out: Optional[str], timeline: bool,
               jobs: int = 1, trace_out: Optional[str] = None,
               checkpoint_path: Optional[str] = None,
               resume: bool = False,
               serve_metrics: Optional[int] = None,
               sample_resources: Optional[float] = None) -> int:
    builders = {
        "4.1": (table_4_1_spec, PAPER_TABLE_4_1, 3),
        "4.2": (table_4_2_spec, PAPER_TABLE_4_2, 3),
        "4.3": (table_4_3_spec, PAPER_TABLE_4_3, 1),
    }
    builder, paper_rows, default_reps = builders[number]
    reps = repetitions if repetitions is not None else default_reps
    spec = builder(scale=scale, repetitions=reps)
    with _observability(quiet, metrics_out, timeline, trace_out,
                        serve_metrics,
                        sample_resources) as (obs, timeline_sink):
        with ExitStack() as stack:
            checkpoint = _open_checkpoint(checkpoint_path, resume)
            if checkpoint is not None:
                stack.enter_context(checkpoint)
            try:
                result = run_experiment(spec, observability=obs, jobs=jobs,
                                        checkpoint=checkpoint)
            except (SweepInterrupted, CellExecutionError) as exc:
                return _report_sweep_failure(exc)
        if compare:
            print(comparison_table(result, paper_rows).render())
        else:
            print(result.to_table().render())
        if chart:
            from .sim import chart_experiment
            print()
            print(chart_experiment(result))
        if timeline_sink is not None:
            print()
            print(timeline_sink.render())
    return 0


def _run_trace_stats(scale: float, quiet: bool) -> int:
    with _observability(quiet):
        workload = BankOLTPWorkload()
        count = int(PAPER_TRACE_LENGTH * scale)
        narrate(f"generating {count} OLTP references ...")
        references = list(workload.references(count, seed=0))
        narrate("profiling the trace ...")
        profile = profile_trace(references, FIVE_MINUTE_WINDOW_REFERENCES)
        print("Synthetic OLTP trace characterization "
              "(compare paper Section 4.3 prose):")
        for line in profile.summary_lines():
            print(f"  {line}")
    return 0


def _run_ablation(name: str, quiet: bool,
                  metrics_out: Optional[str], timeline: bool,
                  trace_out: Optional[str] = None,
                  serve_metrics: Optional[int] = None,
                  sample_resources: Optional[float] = None) -> int:
    try:
        ablation = ABLATIONS[name]
    except KeyError:
        known = ", ".join(sorted(ABLATIONS))
        print(f"unknown ablation {name!r}; known: {known}", file=sys.stderr)
        return 2
    with _observability(quiet, metrics_out, timeline, trace_out,
                        serve_metrics,
                        sample_resources) as (_, timeline_sink):
        narrate(f"running ablation {name} ...")
        print(ablation().render())
        if timeline_sink is not None:
            print()
            print(timeline_sink.render())
    return 0


def _list_targets() -> int:
    print("tables:     table4.1  table4.2  table4.3")
    print("analysis:   trace-stats  explain")
    print("report:     report [--ablations] [--output FILE]")
    print("telemetry:  top (--url|--port|--file)  perf [--history FILE]")
    print("service:    serve-bench (--shards --sessions --tenants "
          "--quota ...)")
    print("ablations:  " + "  ".join(sorted(ABLATIONS)))
    return 0


def _positive_int(text: str) -> int:
    """argparse type for a count that must be at least 1."""
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the LRU-K paper's tables and ablations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_obs_flags(command_parser: argparse.ArgumentParser) -> None:
        command_parser.add_argument(
            "--metrics-out", default=None, metavar="PATH",
            help="stream observability events (JSONL) to this file")
        command_parser.add_argument(
            "--timeline", action="store_true",
            help="render a windowed hit-ratio timeline after the output")
        command_parser.add_argument(
            "--trace-out", default=None, metavar="PATH",
            help="write a Chrome trace-event JSON span timeline "
                 "(sweep -> cell -> simulate -> warmup/measure; each "
                 "simulate span names the tier that ran; loadable in "
                 "Perfetto), including the stack.pass spans of --jobs "
                 "workers. "
                 "Tracing keeps the fused kernels")
        command_parser.add_argument(
            "--serve-metrics", type=int, default=None, metavar="PORT",
            help="serve live Prometheus text on localhost:PORT/metrics "
                 "(and /healthz) for the whole command; 0 picks a free "
                 "port. Scrape with curl or watch with `repro top`")
        command_parser.add_argument(
            "--sample-resources", type=float, default=None,
            metavar="SECONDS",
            help="publish process gauges (RSS, CPU, GC, sink depths) "
                 "into the metrics registry every SECONDS")

    for number in ("4.1", "4.2", "4.3"):
        table = sub.add_parser(f"table{number}",
                               help=f"regenerate paper Table {number}")
        table.add_argument("--scale", type=float, default=1.0,
                           help="protocol length multiplier (default 1.0)")
        table.add_argument("--repetitions", type=int, default=None,
                           help="seeded repetitions to average")
        table.add_argument("--quiet", action="store_true",
                           help="suppress progress narration on stderr")
        table.add_argument("--compare", action="store_true",
                           help="render side-by-side with the paper's numbers")
        table.add_argument("--chart", action="store_true",
                           help="append an ASCII hit-ratio chart")
        table.add_argument(
            "--jobs", type=_positive_int, default=1, metavar="N",
            help="worker processes for the sweep's stack passes (default "
                 "1 = serial). The cells run in this process; under "
                 "--metrics-out or --timeline they take every reference "
                 "and get no passes, so such a run is serial. Results "
                 "are identical either way")
        table.add_argument(
            "--checkpoint", default=None, metavar="PATH",
            help="record completed sweep cells to this JSONL ledger as "
                 "they finish; an interrupted run keeps every cell "
                 "recorded before Ctrl-C")
        table.add_argument(
            "--resume", action="store_true",
            help="skip cells already recorded in --checkpoint and append "
                 "the rest (requires --checkpoint)")
        add_obs_flags(table)

    stats = sub.add_parser("trace-stats",
                           help="characterize the synthetic OLTP trace")
    stats.add_argument("--scale", type=float, default=1.0)
    stats.add_argument("--quiet", action="store_true",
                       help="suppress progress narration on stderr")

    ablation = sub.add_parser("ablation", help="run a DESIGN.md ablation")
    ablation.add_argument("name", help="ablation name (see `repro list`)")
    ablation.add_argument("--quiet", action="store_true",
                          help="suppress progress narration on stderr")
    add_obs_flags(ablation)

    explain = sub.add_parser(
        "explain",
        help="replay a (workload, seed, capacity) cell and explain why "
             "a page was evicted (candidates, CRP, Belady regret)")
    explain.add_argument("--workload", default="zipfian",
                         choices=sorted(EXPLAIN_WORKLOADS),
                         help="named workload to replay (default zipfian)")
    explain.add_argument("--seed", type=int, default=0,
                         help="workload seed (default 0)")
    explain.add_argument("--capacity", type=int, required=True,
                         help="buffer slots B")
    explain.add_argument("--page", type=int, required=True,
                         help="the evicted page to explain")
    explain.add_argument("--at", type=int, default=None, metavar="T",
                         help="1-based reference time of the eviction "
                              "(default: the page's latest eviction)")
    explain.add_argument("--refs", type=int, default=None, metavar="N",
                         help="replay length (default 20000, extended to "
                              "cover --at)")
    explain.add_argument("--k", type=int, default=2,
                         help="LRU-K history depth (default 2)")
    explain.add_argument("--crp", type=int, default=0,
                         help="correlated reference period (default 0)")
    explain.add_argument("--rip", type=int, default=None,
                         help="retained information period (default: keep "
                              "all history)")
    explain.add_argument("--top", type=int, default=8,
                         help="candidates to show per decision (default 8)")
    explain.add_argument("--no-belady", action="store_true",
                         help="skip the Belady-regret annotation (faster)")

    top = sub.add_parser(
        "top",
        help="live terminal dashboard over a --serve-metrics endpoint "
             "or a --metrics-out JSONL file")
    top_source = top.add_mutually_exclusive_group(required=True)
    top_source.add_argument("--url", default=None, metavar="URL",
                            help="metrics endpoint base URL or /metrics URL")
    top_source.add_argument("--port", type=int, default=None, metavar="N",
                            help="shorthand for --url http://127.0.0.1:N")
    top_source.add_argument("--file", default=None, metavar="PATH",
                            help="read the last snapshot of a "
                                 "--metrics-out JSONL file instead")
    top.add_argument("--interval", type=float, default=1.0,
                     help="poll/repaint interval in seconds (default 1.0)")
    top.add_argument("--once", action="store_true",
                     help="render a single plain frame and exit "
                          "(no ANSI clears; scriptable)")
    top.add_argument("--frames", type=int, default=None, metavar="N",
                     help="render N frames (scrolling, no clears) and exit")

    serve = sub.add_parser(
        "serve-bench",
        help="drive the concurrent multi-tenant buffer service with "
             "threaded sessions; reports aggregate and per-tenant hit "
             "ratios plus p50/p99/p999 request latency (docs/service.md)")
    serve.add_argument("--shards", type=int, default=2, metavar="N",
                       help="independent buffer-pool shards (default 2)")
    serve.add_argument("--sessions", type=int, default=8, metavar="N",
                       help="concurrent session threads (default 8)")
    serve.add_argument("--tenants", type=int, default=2, metavar="N",
                       help="tenants to spread the sessions over "
                            "round-robin (default 2)")
    serve.add_argument("--refs", type=int, default=10_000, metavar="N",
                       help="page references per session (default 10000)")
    serve.add_argument("--capacity", type=int, default=256,
                       help="total buffer frames across all shards "
                            "(default 256)")
    serve.add_argument("--k", type=int, default=2,
                       help="LRU-K history depth for the per-shard "
                            "policies (default 2)")
    serve.add_argument("--quota", type=int, default=None, metavar="FRAMES",
                       help="per-tenant frame quota; over-quota tenants "
                            "missing into a full shard evict their own "
                            "LRU page first (default: no quotas)")
    serve.add_argument("--workload", default="zipfian",
                       choices=sorted(EXPLAIN_WORKLOADS),
                       help="named workload each session replays, with "
                            "per-session seeds (default zipfian)")
    serve.add_argument("--seed", type=int, default=0,
                       help="base seed; session i uses seed+i (default 0)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress progress narration on stderr")
    serve.add_argument("--serve-metrics", type=int, default=None,
                       metavar="PORT",
                       help="serve the run's service.* instruments live "
                            "on localhost:PORT/metrics; 0 picks a free "
                            "port. Watch with `repro top`")
    serve.add_argument("--sample-resources", type=float, default=None,
                       metavar="SECONDS",
                       help="publish process gauges (RSS, CPU, GC) every "
                            "SECONDS while the bench runs")
    serve.add_argument("--hold", type=float, default=0.0, metavar="SECONDS",
                       help="keep the process (and any --serve-metrics "
                            "endpoint) alive SECONDS after the report, "
                            "so scrapers can read the final counters")

    perf = sub.add_parser(
        "perf",
        help="diff the latest BENCH_history.jsonl record against its "
             "baseline window; non-zero exit on regression")
    perf.add_argument("--history", default=None, metavar="PATH",
                      help="history ledger (default: $REPRO_BENCH_HISTORY "
                           "or ./BENCH_history.jsonl)")
    perf.add_argument("--bench", default="a12c",
                      help="bench whose records to inspect (default a12c)")
    perf.add_argument("--metric", default="lruk_kernel",
                      help="metric to gate on (default lruk_kernel "
                           "refs/sec)")
    perf.add_argument("--threshold", type=float, default=0.10,
                      help="allowed fractional drop vs the baseline "
                           "median (default 0.10)")
    perf.add_argument("--window", type=int, default=5,
                      help="baseline window: measured records preceding "
                           "the latest (default 5)")

    report = sub.add_parser(
        "report", help="regenerate the full reproduction report (Markdown)")
    report.add_argument("--output", default=None,
                        help="write to a file instead of stdout")
    report.add_argument("--table-scale", type=float, default=1.0)
    report.add_argument("--oltp-scale", type=float, default=0.25)
    report.add_argument("--repetitions", type=int, default=2)
    report.add_argument("--ablations", action="store_true",
                        help="include the A1-A10 ablation tables")
    report.add_argument("--quiet", action="store_true",
                        help="suppress progress narration on stderr")

    sub.add_parser("list", help="list runnable targets")
    return parser


def _run_serve_bench(args: argparse.Namespace) -> int:
    import time

    from .core.lruk import LRUKPolicy
    from .service import ShardedBufferManager, run_load
    from .sim.explain import make_workload

    if args.tenants <= 0:
        print("error: --tenants must be positive", file=sys.stderr)
        return 2
    tenants = {f"tenant{index}": make_workload(args.workload)
               for index in range(args.tenants)}
    quotas = ({name: args.quota for name in tenants}
              if args.quota is not None else None)
    with _observability(args.quiet, serve_metrics=args.serve_metrics,
                        sample_resources=args.sample_resources) as (obs, _):
        # The endpoint registry (when --serve-metrics/--sample-resources
        # created one) doubles as the manager's, so a live scrape and the
        # printed report read the same service.* instruments.
        manager = ShardedBufferManager(
            args.capacity, shards=args.shards,
            policy_factory=lambda: LRUKPolicy(k=args.k),
            quotas=quotas, registry=obs.metrics)
        narrate(f"serving {args.sessions} session(s) x {args.refs} "
                f"refs over {args.shards} shard(s), "
                f"{args.tenants} tenant(s) ...")
        report = run_load(manager, tenants, sessions=args.sessions,
                          references=args.refs, seed=args.seed)
        print(report.render())
        if args.hold > 0:
            narrate(f"holding for {args.hold:.1f}s (scrape window) ...")
            time.sleep(args.hold)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    A :class:`~repro.errors.ConfigurationError` from any command,
    including a telemetry flag the plane cannot start with, prints one
    ``error:`` line on stderr and exits 2. A sweep that lost cells
    exits 1. Ctrl-C prints one ``interrupted:`` line and exits 130,
    inside a sweep (which salvages its completed cells first) or
    outside it.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "resume", False) and args.checkpoint is None:
        parser.error("--resume requires --checkpoint PATH")
    try:
        return _run_command(parser, args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted: stopped before the command finished",
              file=sys.stderr)
        return 130


def _run_command(parser: argparse.ArgumentParser,
                 args: argparse.Namespace) -> int:
    """Run the parsed command; returns its exit code."""
    if args.command == "list":
        return _list_targets()
    if args.command == "trace-stats":
        return _run_trace_stats(args.scale, args.quiet)
    if args.command == "ablation":
        return _run_ablation(args.name, args.quiet,
                             args.metrics_out, args.timeline,
                             trace_out=args.trace_out,
                             serve_metrics=args.serve_metrics,
                             sample_resources=args.sample_resources)
    if args.command == "serve-bench":
        return _run_serve_bench(args)
    if args.command == "top":
        url = args.url
        if args.port is not None:
            url = f"http://127.0.0.1:{args.port}"
        try:
            return obs_top.run_top(url=url, file=args.file,
                                   interval=args.interval,
                                   frames=args.frames, once=args.once)
        except ConfigurationError as exc:
            parser.error(str(exc))
    if args.command == "perf":
        history = args.history or obs_perf.default_history_path()
        records = obs_perf.load_history(history, bench=args.bench)
        verdict = obs_perf.check_regression(
            records, args.metric, threshold=args.threshold,
            window=args.window)
        print(obs_perf.render_report(records, verdict))
        return verdict.exit_code
    if args.command == "explain":
        report = explain_eviction(
            args.workload, args.seed, args.capacity, args.page,
            at=args.at, references=args.refs, k=args.k,
            correlated_reference_period=args.crp,
            retained_information_period=args.rip,
            top_candidates=args.top, belady=not args.no_belady)
        print(report.render())
        return 0 if report.found else 1
    if args.command == "report":
        from .experiments.report import generate_report
        with _observability(args.quiet):
            text = generate_report(table_scale=args.table_scale,
                                   oltp_scale=args.oltp_scale,
                                   repetitions=args.repetitions,
                                   include_ablations=args.ablations)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"report written to {args.output}", file=sys.stderr)
        else:
            print(text)
        return 0
    number = args.command.removeprefix("table")
    return _run_table(number, args.scale, args.repetitions,
                      args.quiet, args.compare, args.chart,
                      args.metrics_out, args.timeline, jobs=args.jobs,
                      trace_out=args.trace_out,
                      checkpoint_path=args.checkpoint, resume=args.resume,
                      serve_metrics=args.serve_metrics,
                      sample_resources=args.sample_resources)


if __name__ == "__main__":
    raise SystemExit(main())
