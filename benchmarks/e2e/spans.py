"""Spans around the public entry points of the campaign stack.

The benchmark measures each layer from outside the program: ``instrument``
wraps public functions and methods where the campaign code looks them up
(``build_workload`` through ``repro.faults.arch_campaign``, ``Pipeline.run``
on the class, ...), and every wrapped call becomes a :class:`Span` with a
name, ``perf_counter_ns`` start and end, its parent span, and the trial key
when one is known. Calls too frequent to keep as spans (detector
``observe``) are tallied as notes at the same boundary. Everything stays in
memory; :meth:`SpanRecorder.write` dumps the spans as JSON lines once the
run is over.

A span's self time is its duration minus the part of it that its children
cover (:func:`self_times`); :func:`layer_metrics` turns one traced
repetition into the per-layer numbers listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import weakref
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns


class Span:
    __slots__ = ("name", "start", "end", "parent", "key")

    def __init__(self, name: str, start: int, parent: int, key=None):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.key = key


class SpanRecorder:
    """Spans of one thread of control, plus named notes (counts, samples).

    Spans nest through a stack, so the recorder serves code that runs one
    call at a time: a serial campaign, or the scheduler side of the
    service, whose calls never interleave inside the event loop. Notes are
    filed under the name of the outermost open span (the *phase*, e.g.
    ``setup`` or ``campaign``) so set-up work and measured work stay apart.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.notes: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []

    def begin(self, name: str, key=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter_ns(), parent, key))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> Span:
        span = self.spans[index]
        span.end = perf_counter_ns()
        self._stack.pop()
        return span

    @contextmanager
    def span(self, name: str, key=None):
        index = self.begin(name, key)
        try:
            yield self.spans[index]
        finally:
            self.end(index)

    @property
    def phase(self) -> str:
        return self.spans[self._stack[0]].name if self._stack else "none"

    def inside(self, name: str) -> bool:
        return any(self.spans[index].name == name for index in self._stack)

    def note(self, name: str, value: float = 1.0) -> None:
        self.notes[f"{self.phase}:{name}"].append(value)

    def write(self, path: str, **extra) -> None:
        """Append every span to ``path`` as one JSON object per line."""
        with open(path, "a") as handle:
            for index, span in enumerate(self.spans):
                handle.write(json.dumps({
                    **extra, "id": index, "name": span.name,
                    "start_ns": span.start, "end_ns": span.end,
                    "parent": span.parent, "key": span.key,
                }) + "\n")


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0
        cursor = span.start
        for child in sorted(children[index], key=lambda c: c.start):
            low = max(child.start, cursor)
            high = min(child.end, span.end)
            if high > low:
                covered += high - low
                cursor = high
        result.append(span.end - span.start - covered)
    return result


def percentile(values, q: int) -> float:
    """The ``q``-th percentile (inclusive method); 0 when there is no data."""
    values = list(values)
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    if q == 50:
        return float(statistics.median(values))
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


# ------------------------------------------------------------------ wrappers


class Instrumentation:
    """Installs wrappers and restores the originals on :meth:`remove`."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, make) -> None:
        original = vars(owner)[attr]
        wrapper = make(original)
        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def timed(self, owner, attr: str, name: str, key_arg: int | None = None,
              after=None) -> None:
        """Wrap ``owner.attr`` in a span; ``after(args, kwargs, result,
        span)`` runs once the span is closed."""
        rec = self.recorder

        def make(original):
            def wrapper(*args, **kwargs):
                index = rec.begin(
                    name, args[key_arg] if key_arg is not None else None
                )
                try:
                    result = original(*args, **kwargs)
                finally:
                    span = rec.end(index)
                if after is not None:
                    after(args, kwargs, result, span)
                return result
            return wrapper

        self.patch(owner, attr, make)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


@contextmanager
def instrument(recorder: SpanRecorder):
    """Wrap the campaign stack's public entry points for the duration."""
    from repro.arch.simulator import ArchSimulator
    from repro.cache import GoldenArtifactCache
    from repro.campaign.guard import TrialGuard
    from repro.faults import arch_campaign, uarch_campaign
    import repro.planner as planner_pkg
    from repro.planner import CampaignPlanner
    from repro.service import CampaignScheduler
    from repro.uarch.pipeline import Pipeline
    from repro.util.journal import JournalWriter

    rec = recorder
    inst = Instrumentation(rec)
    roles: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    for module in (arch_campaign, uarch_campaign):
        inst.timed(module, "build_workload", "workloads.build")

    def after_load(args, kwargs, artifact, span):
        rec.note("cache.hits" if artifact is not None else "cache.misses")

    def after_store(args, kwargs, stored, span):
        if stored:
            cache, level, program, config = args[:4]
            rec.note("cache.entry_bytes",
                     os.path.getsize(cache.entry_path(level, program, config)))

    inst.timed(GoldenArtifactCache, "load", "cache.load", after=after_load)
    inst.timed(GoldenArtifactCache, "store", "cache.store", after=after_store)
    inst.timed(ArchSimulator, "run_with_trace", "arch.golden")

    def after_fork(args, kwargs, result, span):
        if rec.inside("faults.lockstep"):
            rec.note("arch.forks")

    inst.timed(ArchSimulator, "fork", "arch.fork", after=after_fork)

    def after_lockstep(args, kwargs, result, span):
        plan = args[5] if len(args) > 5 else kwargs["plan"]
        rec.note("faults.lockstep_trials", sum(len(todo) for _, todo in plan))

    inst.timed(arch_campaign, "run_lockstep_trials", "faults.lockstep",
               after=after_lockstep)
    inst.timed(TrialGuard, "run", "campaign.guard", key_arg=1)

    # Pipelines carry a role: golden (collect_retired), prefix (the
    # campaign's walker), or window (a fork); Pipeline.run is named by it.
    def make_load_pipeline(original):
        def load_pipeline(*args, **kwargs):
            pipeline = original(*args, **kwargs)
            roles[pipeline] = (
                "uarch.golden" if kwargs.get("collect_retired") else "uarch.prefix"
            )
            return pipeline
        return load_pipeline

    inst.patch(uarch_campaign, "load_pipeline", make_load_pipeline)

    def make_fork(original):
        def fork(self):
            with rec.span("uarch.fork"):
                child = original(self)
            roles[child] = "uarch.window"
            return child
        return fork

    inst.patch(Pipeline, "fork", make_fork)

    def make_run(original):
        def run(self, *args, **kwargs):
            role = roles.get(self, "uarch.run")
            before = self.cycle_count
            with rec.span(role):
                original(self, *args, **kwargs)
            if role == "uarch.window":
                rec.note("uarch.window_cycles", self.cycle_count - before)
        return run

    inst.patch(Pipeline, "run", make_run)

    def make_detectors(original):
        def build_memhier_detectors(names):
            detectors = original(names)
            for detector in detectors:
                detector.observe = _tallied_observe(rec, detector.observe)
            return detectors
        return build_memhier_detectors

    inst.patch(uarch_campaign, "build_memhier_detectors", make_detectors)

    def after_plan(args, kwargs, allocation, span):
        if allocation:
            rec.note("planner.rounds")

    inst.timed(CampaignPlanner, "plan_round", "planner.plan", after=after_plan)
    inst.timed(CampaignPlanner, "observe", "planner.observe")
    inst.timed(planner_pkg, "prescreen_dead_points", "planner.prescreen")
    inst.timed(JournalWriter, "write", "journal.append")
    _instrument_scheduler(inst, CampaignScheduler)
    try:
        yield inst
    finally:
        inst.remove()


def _tallied_observe(rec: SpanRecorder, observe):
    def tallied(kind, payload):
        start = perf_counter_ns()
        try:
            return observe(kind, payload)
        finally:
            rec.note("restore.detector_ns", perf_counter_ns() - start)
    return tallied


def _instrument_scheduler(inst: Instrumentation, scheduler_cls) -> None:
    """Lease, complete and finalize spans on the scheduler side, plus the
    per-unit lease-to-complete and submit-to-lease intervals."""
    rec = inst.recorder
    submitted: dict[str, int] = {}
    leased: dict[tuple[str, str], int] = {}

    def after_submit(args, kwargs, view, span):
        submitted[view["job_id"]] = span.end

    def after_lease(args, kwargs, leases, span):
        now = span.end
        for lease in leases:
            unit = lease["unit"]
            leased[(unit["job_id"], unit["unit_id"])] = now
            if unit["job_id"] in submitted:
                rec.note("service.queue_wait_ns", now - submitted[unit["job_id"]])

    def make_complete(original):
        def complete(self, job_id, unit_id, worker, result):
            with rec.span("service.complete") as span:
                accepted = original(self, job_id, unit_id, worker, result)
            start = leased.pop((job_id, unit_id), None)
            if start is not None:
                rec.note("service.unit_ns", span.end - start)
            job = self.store.job(job_id)
            if job is not None and job["state"] == "done":
                rec.note("service.finalize_ns", span.end - span.start)
            return accepted
        return complete

    inst.timed(scheduler_cls, "submit", "service.submit", after=after_submit)
    inst.timed(scheduler_cls, "lease_batch", "service.lease", after=after_lease)
    inst.patch(scheduler_cls, "complete", make_complete)


# ------------------------------------------------------------ layer metrics

#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("uarch.window_s", "s"),
    ("uarch.window_cycles_per_s", "cycles/s"),
    ("uarch.fork_ms.p50", "ms"),
    ("uarch.fork_ms.p90", "ms"),
    ("uarch.fork_s", "s"),
    ("uarch.prefix_s", "s"),
    ("uarch.golden_s", "s"),
    ("arch.golden_s", "s"),
    ("arch.forks", "count"),
    ("faults.uarch_trial_ms.p50", "ms"),
    ("faults.uarch_trial_ms.p90", "ms"),
    ("faults.uarch_classify_s", "s"),
    ("faults.lockstep_s", "s"),
    ("faults.lockstep_trials_per_s", "trials/s"),
    ("faults.materialize_ratio", "ratio"),
    ("restore.detector_s", "s"),
    ("restore.observe_calls", "count"),
    ("planner.plan_s", "s"),
    ("planner.rounds", "count"),
    ("planner.prescreen_s", "s"),
    ("planner.prescreen_ratio", "ratio"),
    ("planner.trials_saved", "count"),
    ("cache.load_ms.p50", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.store_s", "s"),
    ("cache.entry_mb", "MB"),
    ("journal.append_us.p50", "us"),
    ("journal.append_us.p99", "us"),
    ("journal.bytes", "bytes"),
    ("workloads.build_s", "s"),
    ("campaign.harness_self_s", "s"),
    ("campaign.attributed_frac", "fraction"),
    ("campaign.guard_us.p50", "us"),
    ("service.lease_ms.p50", "ms"),
    ("service.lease_ms.p90", "ms"),
    ("service.complete_ms.p50", "ms"),
    ("service.complete_ms.p90", "ms"),
    ("service.unit_ms.p50", "ms"),
    ("service.unit_ms.p90", "ms"),
    ("service.queue_wait_ms.p50", "ms"),
    ("service.finalize_s", "s"),
    ("trace_overhead_frac", "fraction"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    rec: SpanRecorder,
    *,
    level: str,
    trace_overhead_frac: float,
    planner_totals: dict | None = None,
    journal_bytes: float = 0,
) -> dict[str, float]:
    """Per-layer numbers from traced set-ups and traced campaigns.

    Spans are split by the name of the root they descend from: one
    ``setup`` root per traced set-up (campaign workloads only) and one
    ``campaign`` root per traced campaign or service job. Times and counts
    are per root of their phase, so a layer's seconds read directly as a
    share of ``campaign_s`` or ``setup_s``; percentiles pool every call.
    """
    spans = rec.spans
    selfs = self_times(spans)
    phase_of: list[str] = []
    for span in spans:
        phase_of.append(span.name if span.parent < 0 else phase_of[span.parent])
    durations: dict[tuple[str, str], list[int]] = defaultdict(list)
    own: dict[tuple[str, str], list[int]] = defaultdict(list)
    for span, self_ns, phase in zip(spans, selfs, phase_of):
        durations[(phase, span.name)].append(span.end - span.start)
        own[(phase, span.name)].append(self_ns)

    roots = {phase: len(durations[(phase, phase)]) or 1
             for phase in ("campaign", "setup")}

    def total_s(phase: str, name: str) -> float:
        return sum(durations[(phase, name)]) / 1e9 / roots[phase]

    def sample(phase: str, name: str) -> list[float]:
        return rec.notes.get(f"{phase}:{name}", [])

    def count(phase: str, name: str) -> float:
        return sum(sample(phase, name)) / roots[phase]

    c, s = "campaign", "setup"
    if not durations[(c, c)]:
        raise ValueError("no campaign root span was recorded")
    root_s = total_s(c, c)
    root_self_s = sum(own[(c, c)]) / 1e9 / roots[c]
    window_s = total_s(c, "uarch.window")
    lockstep_s = total_s(c, "faults.lockstep")
    lockstep_trials = count(c, "faults.lockstep_trials")
    uarch_guard = durations[(c, "campaign.guard")] if level == "uarch" else []
    uarch_guard_self = own[(c, "campaign.guard")] if level == "uarch" else []
    hits, misses = count(c, "cache.hits"), count(c, "cache.misses")
    entries = sample(s, "cache.entry_bytes")
    totals = planner_totals or {}

    def ms(values, q):
        return percentile(values, q) / 1e6

    values = {
        "uarch.window_s": window_s,
        "uarch.window_cycles_per_s": _ratio(count(c, "uarch.window_cycles"), window_s),
        "uarch.fork_ms.p50": ms(durations[(c, "uarch.fork")], 50),
        "uarch.fork_ms.p90": ms(durations[(c, "uarch.fork")], 90),
        "uarch.fork_s": total_s(c, "uarch.fork"),
        "uarch.prefix_s": total_s(c, "uarch.prefix"),
        "uarch.golden_s": total_s(s, "uarch.golden"),
        "arch.golden_s": total_s(s, "arch.golden"),
        "arch.forks": count(c, "arch.forks"),
        "faults.uarch_trial_ms.p50": ms(uarch_guard, 50),
        "faults.uarch_trial_ms.p90": ms(uarch_guard, 90),
        "faults.uarch_classify_s": sum(uarch_guard_self) / 1e9 / roots[c],
        "faults.lockstep_s": lockstep_s,
        "faults.lockstep_trials_per_s": _ratio(lockstep_trials, lockstep_s),
        "faults.materialize_ratio": _ratio(count(c, "arch.forks"), lockstep_trials),
        "restore.detector_s": count(c, "restore.detector_ns") / 1e9,
        "restore.observe_calls": len(sample(c, "restore.detector_ns")) / roots[c],
        "planner.plan_s": total_s(c, "planner.plan") + total_s(c, "planner.observe"),
        "planner.rounds": count(c, "planner.rounds"),
        "planner.prescreen_s": total_s(c, "planner.prescreen"),
        "planner.prescreen_ratio": _ratio(totals.get("prescreen_points", 0),
                                          totals.get("total_points", 0)),
        "planner.trials_saved": totals.get("trials_saved", 0) / roots[c],
        "cache.load_ms.p50": ms(durations[(c, "cache.load")], 50),
        "cache.hit_ratio": _ratio(hits, hits + misses),
        "cache.store_s": total_s(s, "cache.store"),
        "cache.entry_mb": _ratio(sum(entries), len(entries)) / 1e6,
        "journal.append_us.p50": percentile(durations[(c, "journal.append")], 50) / 1e3,
        "journal.append_us.p99": percentile(durations[(c, "journal.append")], 99) / 1e3,
        "journal.bytes": float(journal_bytes),
        "workloads.build_s": total_s(s, "workloads.build"),
        "campaign.harness_self_s": root_self_s,
        "campaign.attributed_frac": _ratio(root_s - root_self_s, root_s),
        "campaign.guard_us.p50": percentile(own[(c, "campaign.guard")], 50) / 1e3,
        "service.lease_ms.p50": ms(durations[(c, "service.lease")], 50),
        "service.lease_ms.p90": ms(durations[(c, "service.lease")], 90),
        "service.complete_ms.p50": ms(durations[(c, "service.complete")], 50),
        "service.complete_ms.p90": ms(durations[(c, "service.complete")], 90),
        "service.unit_ms.p50": ms(sample(c, "service.unit_ns"), 50),
        "service.unit_ms.p90": ms(sample(c, "service.unit_ns"), 90),
        "service.queue_wait_ms.p50": ms(sample(c, "service.queue_wait_ns"), 50),
        "service.finalize_s": count(c, "service.finalize_ns") / 1e9,
        "trace_overhead_frac": trace_overhead_frac,
    }
    return {name: values[name] for name, _ in LAYER_METRICS}
