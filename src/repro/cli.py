"""Command-line interface.

Exposes the library's main flows without writing Python::

    repro run gcc                        # run a kernel on the pipeline
    repro run gcc --restore --interval 50
    repro inject mcf --seed 7 --cycle 900
    repro campaign arch --trials 60
    repro campaign uarch --trials 48 --workloads gcc,mcf
    repro campaign uarch --trials 500 --journal run.jsonl --jobs 4 \\
        --trial-timeout 30
    repro campaign uarch --trials 500 --journal run.jsonl --resume
    repro campaign status run.jsonl
    repro campaign report run.jsonl
    repro campaign arch --trials 60 --cache-dir .repro-cache
    repro cache stats --cache-dir .repro-cache
    repro cache clear --cache-dir .repro-cache
    repro serve --port 8642 --workers 2       # the campaign service
    repro submit uarch --trials 120 --shards 2 --wait
    repro jobs                                # list service jobs
    repro jobs job-000001 --results
    repro trace validate run.trace.jsonl
    repro perf --intervals 50,100,500
    repro fit --baseline 0.07 --restore 0.035 --lhf 0.03 --combined 0.01
    repro workloads

Installed as the ``repro`` console script; also runnable as
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import sys

from repro.campaign import (
    ExecutionPolicy,
    format_status,
    run_campaign,
    summarize_journal,
)
from repro.faults import ArchCampaignConfig, UarchCampaignConfig
from repro.perfmodel import measure_restore_performance
from repro.reliability import (
    ConfigFailureFractions,
    equivalent_design_factor,
    fit_scaling_table,
)
from repro.restore import ReStoreController
from repro.restore.controller import RollbackPolicy
from repro.telemetry import (
    JsonlTraceSink,
    TelemetryError,
    render_campaign_report,
    validate_trace,
)
from repro.uarch import load_pipeline
from repro.uarch.latches import LATCH_CLASSES
from repro.util.journal import JournalError
from repro.util.rng import DeterministicRng
from repro.util.tables import format_table
from repro.workloads import WORKLOAD_NAMES, build_workload


def _parse_workloads(text: str) -> tuple[str, ...]:
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    for name in names:
        if name not in WORKLOAD_NAMES:
            raise SystemExit(f"unknown workload {name!r}; know {WORKLOAD_NAMES}")
    return names


def cmd_workloads(args: argparse.Namespace) -> int:
    rows = []
    for name in WORKLOAD_NAMES:
        bundle = build_workload(name, scale=args.scale)
        pipeline = load_pipeline(bundle.program)
        pipeline.run(5_000_000)
        rows.append(
            [
                name,
                pipeline.retired_count,
                pipeline.cycle_count,
                f"{pipeline.retired_count / pipeline.cycle_count:.2f}",
                f"{pipeline.mispredict_count / max(1, pipeline.branch_count):.1%}",
            ]
        )
    print(format_table(
        ["workload", "instructions", "cycles", "IPC", "mispredict rate"],
        rows,
        title=f"Workload kernels (scale {args.scale})",
    ))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    bundle = build_workload(args.workload, scale=args.scale)
    pipeline = load_pipeline(bundle.program)
    trace = JsonlTraceSink(args.trace) if args.trace else None
    if trace is not None:
        pipeline.telemetry = trace
    controller = None
    if args.restore:
        controller = ReStoreController(
            pipeline,
            interval=args.interval,
            policy=RollbackPolicy(args.policy),
            telemetry=trace,
        )
    try:
        pipeline.run(args.max_cycles)
    finally:
        if trace is not None:
            trace.close()
            print(f"trace: {trace.emitted} events -> {args.trace}")
    status = "halted" if pipeline.halted else (
        f"stopped ({pipeline.exception_name() or 'deadlock'})"
        if pipeline.stopped else "cycle budget exhausted"
    )
    print(f"{args.workload}: {status} after {pipeline.cycle_count} cycles, "
          f"{pipeline.retired_count} instructions "
          f"(IPC {pipeline.retired_count / max(1, pipeline.cycle_count):.2f})")
    wrong = bundle.check(pipeline.memory) if pipeline.halted else ["n/a"]
    print(f"outputs: {'correct' if not wrong else wrong}")
    if controller is not None:
        for key, value in controller.summary().items():
            print(f"  {key}: {value}")
    return 0 if pipeline.halted and not wrong else 1


def cmd_inject(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise SystemExit(f"--seed must be non-negative, got {args.seed}")
    if args.cycle < 1:
        raise SystemExit(f"--cycle must be >= 1, got {args.cycle}")
    if args.scale < 1:
        raise SystemExit(f"--scale must be >= 1, got {args.scale}")
    if args.interval < 1:
        raise SystemExit(f"--interval must be >= 1, got {args.interval}")
    if args.max_cycles <= args.cycle:
        raise SystemExit(
            f"--max-cycles ({args.max_cycles}) must exceed "
            f"--cycle ({args.cycle})"
        )
    bundle = build_workload(args.workload, scale=args.scale)
    pipeline = load_pipeline(bundle.program)
    controller = None
    if args.restore:
        controller = ReStoreController(pipeline, interval=args.interval)
    pipeline.run(args.cycle)
    if not pipeline.running:
        raise SystemExit("the program ended before the injection cycle")
    rng = DeterministicRng(args.seed)
    classes = LATCH_CLASSES if args.latches_only else None
    index, bit = pipeline.registry.pick_bit(rng, classes=classes)
    field = pipeline.registry.field(index)
    field.flip(bit)
    print(f"flipped bit {bit} of {field.name} "
          f"({field.state_class} state) at cycle {args.cycle}")
    pipeline.run(args.max_cycles)
    if pipeline.halted:
        wrong = bundle.check(pipeline.memory)
        print("outcome: " + ("correct output (masked or recovered)"
                             if not wrong else f"silent corruption: {wrong[0]}"))
    else:
        print(f"outcome: crash "
              f"({pipeline.exception_name() or 'deadlock/livelock'})")
    if controller is not None:
        for key, value in controller.summary().items():
            print(f"  {key}: {value}")
    return 0


def _execution_policy(
    jobs: int | None,
    trial_timeout: float | None,
    cache_dir: str | None = None,
    lockstep: bool = True,
) -> ExecutionPolicy:
    """Validate execution knobs, converting field names to flag names.

    ``jobs=None`` (flag omitted) resolves to one worker per core.
    """
    try:
        return ExecutionPolicy(
            jobs=jobs, trial_timeout=trial_timeout, cache_dir=cache_dir,
            lockstep=lockstep,
        )
    except ValueError as exc:
        raise SystemExit("--" + str(exc).replace("_", "-")) from None


def _resolve_cache_dir(cache_dir: str | None, no_cache: bool) -> str | None:
    """Resolve the golden-artifact cache directory for a command.

    Precedence: ``--no-cache`` (off) > ``--cache-dir PATH`` >
    ``$REPRO_CACHE_DIR`` > off. The cache defaults to off so casual runs
    leave no stray state; services and big runs opt in via the env var
    or flag.
    """
    if no_cache:
        return None
    if cache_dir:
        return cache_dir
    return os.environ.get("REPRO_CACHE_DIR") or None


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="golden-artifact cache directory (shared across runs and "
             "workers; default: $REPRO_CACHE_DIR, else no cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the golden-artifact cache even if $REPRO_CACHE_DIR "
             "is set",
    )


def _add_memhier_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--memhier-targets", action="store_true",
        help="register cache tag/valid/LRU and MSHR state as injection "
             "targets (uarch campaigns only; off by default — default "
             "journals are byte-identical to previous releases)",
    )
    parser.add_argument(
        "--detectors", default=None, metavar="NAMES",
        help="comma-separated memory-hierarchy detectors to measure: "
             "miss_spike, stall_outlier, spurious_memop (uarch only)",
    )


def _add_planner_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--adaptive", action="store_true",
        help="allocate trials adaptively: round-based top-ups, per-point "
             "Wilson early stopping, masking-equivalence prescreen "
             "(arch campaigns only; off by default — uniform journals are "
             "byte-identical to previous releases)",
    )
    parser.add_argument(
        "--margin", type=float, default=0.05, metavar="M",
        help="target per-point Wilson margin; a point stops once its "
             "half-interval is at most M (default: 0.05)",
    )
    parser.add_argument(
        "--min-trials", type=int, default=20, metavar="N",
        help="round-0 trials per injection point (default: 20)",
    )
    parser.add_argument(
        "--round-trials", type=int, default=10, metavar="N",
        help="top-up trials per still-open point per round (default: 10)",
    )
    parser.add_argument(
        "--max-trials", type=int, default=None, metavar="N",
        help="per-workload trial budget cap (default: --trials)",
    )
    parser.add_argument(
        "--no-prescreen", action="store_true",
        help="disable the masking-equivalence prescreen (every point "
             "simulates its trials, even provably-dead destinations)",
    )


def _planner_from_args(args: argparse.Namespace):
    """The PlannerConfig for ``--adaptive`` runs (None when uniform)."""
    if not getattr(args, "adaptive", False):
        return None
    from repro.planner import PlannerConfig

    try:
        return PlannerConfig(
            margin=args.margin,
            min_trials=args.min_trials,
            round_trials=args.round_trials,
            max_trials=args.max_trials,
            prescreen=not args.no_prescreen,
        )
    except ValueError as exc:
        raise SystemExit(f"invalid planner configuration: {exc}") from None


def cmd_campaign_plan(args: argparse.Namespace) -> int:
    """Preview an adaptive campaign: goldens, points, prescreen, budget.

    Runs only the golden side — no fault is injected — so the preview is
    cheap and exact (the point sample and prescreen verdicts are pure
    functions of the config and seed).
    """
    args.adaptive = True  # 'plan' implies adaptive; the flag is optional
    planner = _planner_from_args(args)
    workloads = _parse_workloads(args.workloads)
    cache_dir = _resolve_cache_dir(args.cache_dir, args.no_cache)
    try:
        config = ArchCampaignConfig(
            trials_per_workload=args.trials,
            injection_points=min(args.trials, max(4, args.trials // 3)),
            workloads=workloads,
            seed=args.seed,
        )
    except ValueError as exc:
        raise SystemExit(f"invalid campaign configuration: {exc}") from None
    cache = None
    if cache_dir:
        from repro.cache import GoldenArtifactCache

        cache = GoldenArtifactCache(cache_dir)
    from repro.planner import format_plan, preview_plan

    rows = preview_plan(config, planner, cache)
    print(format_plan(rows, planner))
    live = [row for row in rows if "skip_reason" not in row]
    print(
        f"\nround 0 executes "
        f"{sum(row['round0_trials'] for row in live)} trials; "
        f"prescreen retires "
        f"{sum(row['prescreened'] for row in live)} points "
        f"({sum(row['prescreen_trials'] for row in live)} round-0 trials "
        f"recorded masked without simulation); "
        f"budget {sum(row['budget'] for row in live)} trials total"
    )
    return 0


def cmd_campaign_status(args: argparse.Namespace) -> int:
    path = args.journal_file or args.journal
    if not path:
        raise SystemExit(
            "campaign status needs a journal path: "
            "repro campaign status <journal>"
        )
    try:
        print(format_status(summarize_journal(path)))
    except FileNotFoundError:
        raise SystemExit(f"no such journal: {path}") from None
    except JournalError as exc:
        raise SystemExit(str(exc)) from None
    return 0


def cmd_campaign_report(args: argparse.Namespace) -> int:
    path = args.journal_file or args.journal
    if not path:
        raise SystemExit(
            "campaign report needs a journal path: "
            "repro campaign report <journal>"
        )
    try:
        print(render_campaign_report(path))
    except FileNotFoundError:
        raise SystemExit(f"no such journal: {path}") from None
    except JournalError as exc:
        raise SystemExit(str(exc)) from None
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    if args.level == "status":
        return cmd_campaign_status(args)
    if args.level == "report":
        return cmd_campaign_report(args)
    if args.level == "plan":
        return cmd_campaign_plan(args)
    if args.journal_file:
        raise SystemExit(
            "positional journal argument is only used with 'repro campaign "
            "status' and 'repro campaign report'; use --journal for "
            "arch/uarch runs"
        )
    workloads = _parse_workloads(args.workloads)
    cache_dir = _resolve_cache_dir(args.cache_dir, args.no_cache)
    policy = _execution_policy(
        args.jobs, args.trial_timeout, cache_dir, args.lockstep
    )
    if args.resume and not args.journal:
        raise SystemExit("--resume requires --journal")
    planner = _planner_from_args(args)
    if planner is not None and args.level != "arch":
        raise SystemExit(
            "--adaptive is only supported for arch campaigns (the uarch "
            "prescreen equivalence does not hold at latch granularity)"
        )
    detectors = _parse_detectors(args.detectors)
    if args.level == "arch" and (args.memhier_targets or detectors):
        raise SystemExit(
            "--memhier-targets and --detectors are uarch-only (the arch "
            "study has no memory-hierarchy state to target)"
        )
    try:
        if args.level == "arch":
            config = ArchCampaignConfig(
                trials_per_workload=args.trials,
                injection_points=min(args.trials, max(4, args.trials // 3)),
                workloads=workloads,
                seed=args.seed,
            )
        else:
            config = UarchCampaignConfig(
                trials_per_workload=args.trials,
                injection_points=min(args.trials, max(4, args.trials // 3)),
                workloads=workloads,
                seed=args.seed,
                memhier_targets=args.memhier_targets,
                detectors=detectors,
            )
    except ValueError as exc:
        raise SystemExit(f"invalid campaign configuration: {exc}") from None
    trace = JsonlTraceSink(args.trace) if args.trace else None
    try:
        report = run_campaign(
            args.level,
            config,
            journal_path=args.journal,
            resume=args.resume,
            jobs=policy.jobs,
            trial_timeout=policy.trial_timeout,
            trace=trace,
            cache_dir=policy.cache_dir,
            lockstep=policy.lockstep,
            planner=planner,
        )
    except JournalError as exc:
        raise SystemExit(str(exc)) from None
    except KeyboardInterrupt:
        if args.journal:
            print(
                f"\ninterrupted; completed trials are journaled in "
                f"{args.journal} — rerun with --resume to continue",
                file=sys.stderr,
            )
        raise
    finally:
        if trace is not None:
            trace.close()
    if trace is not None:
        print(f"trace: {trace.emitted} events -> {args.trace}")
    result = report.result
    if args.level == "arch":
        print(result.table())
        print(f"\nmasked: {result.masked_estimate}")
        print(f"failure coverage @100 (exc+cfv): {result.failure_coverage(100)}")
    else:
        print(result.table(title="coverage vs checkpoint interval (all state)"))
        print(f"\nbenign (masked+other): {result.masked_estimate()}")
        print(f"baseline failures:     {result.baseline_failure_estimate()}")
        print(f"coverage @100:         {result.coverage_of_failures(100)}")
    print()
    print(report.outcome_table())
    print(f"\ntrials executed: {report.executed}  resumed from journal: "
          f"{report.resumed}  jobs: {report.jobs}")
    if report.cache_dir:
        print(f"golden cache: hits={report.cache_hits} "
              f"misses={report.cache_misses} ({report.cache_dir})")
    totals = report.planner_totals
    if totals:
        print(
            f"adaptive planner: executed {totals['executed']} of "
            f"{totals['budget']} budgeted trials "
            f"({totals['trials_saved']} saved), "
            f"{totals['converged_points']}/{totals['total_points']} points "
            f"converged at margin<={totals['margin']}, "
            f"{totals['prescreen_points']} points prescreened as masked"
        )
    for name, reason in report.skipped_workloads:
        print(f"warning: workload {name} skipped: {reason}")
    return 0


def _parse_detectors(value: str | None) -> tuple[str, ...]:
    """Parse a ``--detectors`` comma list (name validation happens in the
    campaign config, so CLI and service submissions reject identically)."""
    if not value:
        return ()
    return tuple(name.strip() for name in value.split(",") if name.strip())


def _campaign_config_options(
    level: str,
    trials: int,
    workloads: tuple[str, ...],
    seed: int,
    memhier_targets: bool = False,
    detectors: tuple[str, ...] = (),
) -> dict:
    """The JSON config options for a job, derived exactly as
    ``repro campaign`` derives its local config — so a service job's
    config digest matches a serial CLI run of the same parameters.

    The memory-hierarchy options are included only when set, mirroring
    their ``omit_default`` journaling: a default submission's config dict
    (and hence digest) is unchanged from before the options existed."""
    options = {
        "trials_per_workload": trials,
        "injection_points": min(trials, max(4, trials // 3)),
        "workloads": list(workloads),
        "seed": seed,
    }
    if memhier_targets:
        options["memhier_targets"] = True
    if detectors:
        options["detectors"] = list(detectors)
    return options


async def _serve_async(args: argparse.Namespace) -> int:
    from repro.service import (
        CampaignScheduler,
        CampaignService,
        LocalWorkerPool,
        ResultStore,
    )

    store = ResultStore(os.path.join(args.data_dir, "service.db"))
    scheduler = CampaignScheduler(
        store,
        args.data_dir,
        lease_ttl=args.lease_ttl,
        max_attempts=args.max_attempts,
    )
    service = CampaignService(scheduler, host=args.host, port=args.port)
    await service.start()
    pool = LocalWorkerPool(
        scheduler,
        workers=args.workers,
        lease_batch=args.lease_batch,
        cache_dir=_resolve_cache_dir(args.cache_dir, args.no_cache),
    )
    pool.start()
    print(
        f"campaign service listening on {service.address} "
        f"(data: {args.data_dir}, local workers: {args.workers})",
        flush=True,
    )
    try:
        await service.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await pool.stop()
        await service.stop()
        store.close()
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise SystemExit(f"--workers must be >= 1, got {args.workers}")
    if args.lease_ttl <= 0:
        raise SystemExit(f"--lease-ttl must be positive, got {args.lease_ttl}")
    if args.max_attempts < 1:
        raise SystemExit(
            f"--max-attempts must be >= 1, got {args.max_attempts}"
        )
    if args.lease_batch < 1:
        raise SystemExit(
            f"--lease-batch must be >= 1, got {args.lease_batch}"
        )
    os.makedirs(args.data_dir, exist_ok=True)
    try:
        return asyncio.run(_serve_async(args))
    except KeyboardInterrupt:
        print("campaign service stopped", file=sys.stderr)
        return 0


def _job_summary_lines(view: dict) -> list[str]:
    units = view.get("units") or {}
    outcomes = view.get("outcomes") or {}
    lines = [
        f"job:     {view['job_id']}  ({view['level']}, {view['state']})",
        "units:   " + (", ".join(
            f"{state}={count}" for state, count in sorted(units.items())
        ) or "none"),
        f"trials:  {view.get('trials', 0)}"
        + ("  [" + ", ".join(
            f"{status}={count}" for status, count in sorted(outcomes.items())
        ) + "]" if outcomes else ""),
    ]
    if view.get("journal_path"):
        lines.append(f"journal: {view['journal_path']}")
    if view.get("trace_path"):
        lines.append(f"trace:   {view['trace_path']}")
    if view.get("error"):
        lines.append(f"note:    {view['error']}")
    return lines


def cmd_submit(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.service import ServiceClientError
    from repro.service.client import ServiceClient

    if args.level not in ("arch", "uarch"):
        raise SystemExit(f"level must be arch or uarch, got {args.level!r}")
    if args.shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {args.shards}")
    workloads = _parse_workloads(args.workloads)
    planner = _planner_from_args(args)
    if planner is not None and args.level != "arch":
        raise SystemExit("--adaptive is only supported for arch campaigns")
    detectors = _parse_detectors(args.detectors)
    if args.level == "arch" and (args.memhier_targets or detectors):
        raise SystemExit(
            "--memhier-targets and --detectors are uarch-only (the arch "
            "study has no memory-hierarchy state to target)"
        )
    payload = {
        "level": args.level,
        "config": _campaign_config_options(
            args.level, args.trials, workloads, args.seed,
            memhier_targets=args.memhier_targets, detectors=detectors,
        ),
        "shards_per_workload": args.shards,
        "trial_timeout": args.trial_timeout,
        "trace": args.trace,
    }
    if planner is not None:
        payload["planner"] = planner.to_dict()
    client = ServiceClient(args.url)
    try:
        view = client.submit(payload)
        if args.wait:
            view = client.wait(view["job_id"], timeout=args.timeout)
    except ServiceClientError as exc:
        raise SystemExit(str(exc)) from None
    if args.json:
        print(json_module.dumps(view, indent=2))
    else:
        print("\n".join(_job_summary_lines(view)))
    return 0 if view["state"] in ("queued", "running", "done") else 1


def cmd_jobs(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.service import ServiceClientError
    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    try:
        if args.requeue is not None:
            if args.job_id is None:
                raise SystemExit("--requeue requires a job id")
            view = client.requeue(args.job_id, args.requeue)
            if args.json:
                print(json_module.dumps(view, indent=2))
            else:
                print(f"{args.job_id}/{args.requeue}: requeued "
                      f"(job state: {view['state']})")
            return 0
        if args.dead_letter:
            listing = client.dead_letter(args.job_id)
            if args.json:
                print(json_module.dumps(listing, indent=2))
                return 0
            rows = [
                [u["job_id"], u["unit_id"], u["workload"],
                 str(u["attempts"]), u.get("error") or ""]
                for u in listing["units"]
            ]
            print(format_table(
                ["job", "unit", "workload", "attempts", "error"], rows,
                title=f"Dead-lettered units ({listing['total']} total)",
            ))
            return 0
        if args.job_id is None:
            listing = client.jobs(offset=args.offset, limit=args.limit)
            if args.json:
                print(json_module.dumps(listing, indent=2))
                return 0
            rows = [
                [v["job_id"], v["level"], v["state"], str(v.get("trials", 0))]
                for v in listing["jobs"]
            ]
            print(format_table(
                ["job", "level", "state", "trials"], rows,
                title=f"Campaign jobs ({listing['total']} total; "
                      f"showing {len(rows)} from offset {listing['offset']})",
            ))
            return 0
        if args.cancel:
            view = client.cancel(args.job_id)
        else:
            view = client.job(args.job_id)
        if args.results:
            page = client.results(
                args.job_id, offset=args.offset, limit=args.limit
            )
            if args.json:
                print(json_module.dumps(page, indent=2))
            else:
                for entry in page["results"]:
                    print(json_module.dumps(entry))
                print(
                    f"# {len(page['results'])} of {page['total']} trials "
                    f"(offset {page['offset']})",
                    file=sys.stderr,
                )
            return 0
        if args.json:
            print(json_module.dumps(view, indent=2))
        else:
            print("\n".join(_job_summary_lines(view)))
    except ServiceClientError as exc:
        raise SystemExit(str(exc)) from None
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache import GoldenArtifactCache, format_cache_stats

    cache_dir = _resolve_cache_dir(args.cache_dir, False)
    if not cache_dir:
        raise SystemExit(
            "no cache directory: pass --cache-dir or set $REPRO_CACHE_DIR"
        )
    cache = GoldenArtifactCache(cache_dir)
    if args.action == "stats":
        print(format_cache_stats(cache.stats()))
    else:
        removed = cache.clear()
        print(f"removed {removed} cache "
              f"entr{'y' if removed == 1 else 'ies'} from {cache_dir}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    try:
        count = validate_trace(args.trace_file)
    except FileNotFoundError:
        raise SystemExit(f"no such trace: {args.trace_file}") from None
    except TelemetryError as exc:
        raise SystemExit(f"invalid trace: {exc}") from None
    print(f"{args.trace_file}: {count} events, all schema-valid")
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    intervals = tuple(int(piece) for piece in args.intervals.split(","))
    points = measure_restore_performance(
        intervals=intervals, workloads=_parse_workloads(args.workloads)
    )
    rows = [
        [point.interval, point.policy, f"{point.speedup:.3f}",
         point.rollbacks, point.false_positives]
        for point in points
    ]
    print(format_table(
        ["interval", "policy", "speedup", "rollbacks", "false positives"],
        rows,
        title="ReStore performance vs baseline (Figure 7)",
    ))
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    fractions = ConfigFailureFractions(
        baseline=args.baseline,
        restore=args.restore,
        lhf=args.lhf,
        lhf_restore=args.combined,
    )
    print(fit_scaling_table(fractions))
    print(f"\nequivalent-design factor (lhf+ReStore vs baseline): "
          f"{equivalent_design_factor(fractions):.1f}x")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ReStore (DSN 2005) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("workloads", help="list kernels with pipeline stats")
    p.add_argument("--scale", type=int, default=1)
    p.set_defaults(func=cmd_workloads)

    p = sub.add_parser("run", help="run a kernel on the pipeline")
    p.add_argument("workload", choices=WORKLOAD_NAMES)
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--restore", action="store_true",
                   help="attach a ReStore controller")
    p.add_argument("--interval", type=int, default=100)
    p.add_argument("--policy", choices=["imm", "delayed"], default="imm")
    p.add_argument("--max-cycles", type=int, default=5_000_000)
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="stream telemetry events (symptoms, rollbacks, "
                        "checkpoints) to a JSONL trace file")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("inject", help="inject one bit flip into a live run")
    p.add_argument("workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cycle", type=int, default=500)
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--latches-only", action="store_true")
    p.add_argument("--restore", action="store_true")
    p.add_argument("--interval", type=int, default=100)
    p.add_argument("--max-cycles", type=int, default=5_000_000)
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser(
        "campaign",
        help="run a fault-injection campaign (or inspect one: "
             "campaign status <journal>, campaign report <journal>, "
             "campaign plan --adaptive preview)",
    )
    p.add_argument("level", choices=["arch", "uarch", "plan", "status",
                                     "report"])
    p.add_argument("journal_file", nargs="?", default=None,
                   help="journal path (status/report subcommands only)")
    p.add_argument("--trials", type=int, default=30,
                   help="trials per workload")
    p.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    p.add_argument("--seed", type=int, default=2005)
    p.add_argument("--journal", default=None, metavar="PATH",
                   help="stream trial results to an append-only JSONL journal")
    p.add_argument("--resume", action="store_true",
                   help="skip trials already recorded in --journal")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="fan workloads out across N worker processes "
                        "(default: one per core)")
    p.add_argument("--trial-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="wall-clock budget per trial; overruns are recorded "
                        "as harness-timeout outcomes")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="stream per-trial telemetry events to a JSONL trace")
    p.add_argument("--lockstep", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="run trials through the level's lockstep "
                        "scheduler (default; --no-lockstep forces the "
                        "serial per-trial path — journals are byte-"
                        "identical either way)")
    _add_memhier_flags(p)
    _add_planner_flags(p)
    _add_cache_flags(p)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "serve",
        help="run the campaign service (scheduler + HTTP API + local "
             "worker pool)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642,
                   help="listen port (0 picks a free port)")
    p.add_argument("--data-dir", default="service-data", metavar="DIR",
                   help="where the SQLite store and job journals live")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="worker loops, and processes in the pool that "
                        "runs their units (default: 1)")
    p.add_argument("--lease-batch", type=int, default=1, metavar="N",
                   help="units each local worker leases per scheduler call "
                        "(one lease clock per batch; pipelined through the "
                        "executor)")
    p.add_argument("--lease-ttl", type=float, default=60.0, metavar="SECONDS",
                   help="work-unit lease duration; an un-heartbeated unit "
                        "is requeued after this long")
    p.add_argument("--max-attempts", type=int, default=2, metavar="N",
                   help="attempts before a unit is retired as failed")
    _add_cache_flags(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("submit", help="submit a campaign job to a service")
    p.add_argument("level", choices=["arch", "uarch"])
    p.add_argument("--url", default="http://127.0.0.1:8642",
                   help="campaign service base URL")
    p.add_argument("--trials", type=int, default=30,
                   help="trials per workload")
    p.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    p.add_argument("--seed", type=int, default=2005)
    p.add_argument("--shards", type=int, default=1, metavar="N",
                   help="work units per workload (stride slices of the "
                        "trial index space)")
    p.add_argument("--trial-timeout", type=float, default=None,
                   metavar="SECONDS")
    p.add_argument("--trace", action="store_true",
                   help="have the job produce a merged telemetry trace")
    p.add_argument("--wait", action="store_true",
                   help="poll until the job finishes")
    p.add_argument("--timeout", type=float, default=600.0, metavar="SECONDS",
                   help="how long --wait polls before giving up")
    p.add_argument("--json", action="store_true",
                   help="print the raw job view as JSON")
    _add_memhier_flags(p)
    _add_planner_flags(p)
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("jobs",
                       help="list, inspect, or cancel campaign-service jobs")
    p.add_argument("job_id", nargs="?", default=None)
    p.add_argument("--url", default="http://127.0.0.1:8642")
    p.add_argument("--cancel", action="store_true")
    p.add_argument("--results", action="store_true",
                   help="page through a job's trial entries (serial order)")
    p.add_argument("--dead-letter", action="store_true",
                   help="list attempt-exhausted units (for one job, or all "
                        "jobs when no job id is given)")
    p.add_argument("--requeue", default=None, metavar="UNIT_ID",
                   help="return a dead-lettered unit of the given job to "
                        "the queue with a fresh attempt budget")
    p.add_argument("--offset", type=int, default=0)
    p.add_argument("--limit", type=int, default=50)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_jobs)

    p = sub.add_parser(
        "cache",
        help="inspect or clear the golden-artifact cache "
             "(cache stats, cache clear)",
    )
    p.add_argument("action", choices=["stats", "clear"])
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="cache directory (default: $REPRO_CACHE_DIR)")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser("trace",
                       help="telemetry trace utilities (trace validate)")
    p.add_argument("action", choices=["validate"])
    p.add_argument("trace_file", help="JSONL trace path")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("perf", help="measure Figure 7 performance points")
    p.add_argument("--intervals", default="50,100,500")
    p.add_argument("--workloads", default="gcc,gzip,mcf")
    p.set_defaults(func=cmd_perf)

    p = sub.add_parser("fit", help="print the Figure 8 FIT scaling table")
    p.add_argument("--baseline", type=float, default=0.07)
    p.add_argument("--restore", type=float, default=0.035)
    p.add_argument("--lhf", type=float, default=0.03)
    p.add_argument("--combined", type=float, default=0.01)
    p.set_defaults(func=cmd_fit)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
