"""The five benchmark workloads and how one of them is measured.

Every workload is a closed loop: one client submits one campaign (or one
service job) at a time and waits for its journal to close before the next.

A campaign's host time depends strongly on its inputs: the seed sets the
kernels' data (and so their run lengths and phases) and the sampled
injection points. One seed per run would make the benchmark measure the
seed more than the code, so a run measures a fixed *panel* of campaigns:
member 0 uses ``--seed`` itself and member ``r`` uses
``seed + r * SEED_STRIDE``. The same seed always gives the same panel.

A measurement runs in a fresh process (see ``run.py``) and goes:

1. set up every member once, cold, against its own empty golden-artifact
   cache; ``setup_s`` is the median over members;
2. run every member's campaign against its warm cache, in passes over the
   panel until ``seconds`` have passed (at least one pass); ``campaign_s``
   is the mean over members of each member's fastest pass. Contention from
   other tenants of the host only ever slows a campaign, so the fastest pass
   is the least disturbed reading;
3. with tracing, the set-ups are traced instead, member 0's campaign runs
   once untraced, and one traced pass over the panel gives the per-layer
   numbers (see ``spans.py``).

Every campaign writes its journal to a temp file. A member's journals must
be byte-identical across passes (and, for the service workload, to the
serial ``arch-fig2`` journal of the same member), keep every kernel, and for
seed 2005 match the SHA-256 pinned in ``digests.json``; any mismatch makes
the run incorrect.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import multiprocessing
import os
import resource
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import spans as spanlib

KERNELS = ("bzip2", "gap", "gcc", "gzip", "mcf", "parser", "vortex")
MEMHIER_KERNELS = ("gcc", "mcf", "parser", "vortex")
MEMHIER_DETECTORS = ("miss_spike", "stall_outlier", "spurious_memop")
PINNED_SEED = 2005
SEED_STRIDE = 1_000_003
SERVICE_SETUPS = 3
SERVICE_WORKERS = min(2, os.cpu_count() or 1)
LEASE_BATCH = 4
POLL_INTERVAL = 0.01
JOB_TIMEOUT = 150.0
DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

#: (name, unit) of every end-to-end metric a measurement reports.
END_TO_END = (
    ("campaign_s", "s"),
    ("trials_per_s", "trials/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("failed_frac", "fraction"),
)

#: level of each workload; why each exists is in BENCHMARK.json and README.md.
LEVELS = {
    "uarch-fig46": "uarch",
    "uarch-memhier": "uarch",
    "arch-fig2": "arch",
    "arch-adaptive": "arch",
    "arch-fig2-service": "arch",
}

#: Campaign sizes per scale: ``members`` is the panel size, the rest are
#: per-member config knobs (the service workload runs ``arch-fig2``'s
#: config). ``paper`` is one paper-scale campaign per figure; ``bench`` (the
#: default) keeps a run of any workload, set-ups included, under ~40 s on
#: two cores; ``tiny`` is for tests.
SCALES = {
    "paper": {
        "uarch-fig46": {"members": 1, "workloads": KERNELS,
                        "trials_per_workload": 40, "injection_points": 20},
        "uarch-memhier": {"members": 1, "workloads": MEMHIER_KERNELS,
                          "trials_per_workload": 24, "injection_points": 12},
        "arch-fig2": {"members": 1, "workloads": KERNELS,
                      "trials_per_workload": 1000, "injection_points": 70},
        "arch-adaptive": {"members": 1, "workloads": KERNELS,
                          "trials_per_workload": 1000, "injection_points": 12},
        "arch-fig2-service": {"members": 1},
        "planner": {"margin": 0.05},
        "shards": 16,
    },
    "bench": {
        "uarch-fig46": {"members": 3, "workloads": KERNELS,
                        "trials_per_workload": 5, "injection_points": 5},
        "uarch-memhier": {"members": 3, "workloads": MEMHIER_KERNELS,
                          "trials_per_workload": 9, "injection_points": 9},
        "arch-fig2": {"members": 4, "workloads": KERNELS,
                      "trials_per_workload": 300, "injection_points": 30},
        # Round 0 alone gives 12 points x 20 trials: the budget must exceed it.
        "arch-adaptive": {"members": 4, "workloads": KERNELS,
                          "trials_per_workload": 300, "injection_points": 12},
        "arch-fig2-service": {"members": 4},
        "planner": {"margin": 0.05},
        "shards": 16,
    },
    "tiny": {
        "uarch-fig46": {"members": 2, "workloads": ("gap",),
                        "trials_per_workload": 2, "injection_points": 1},
        "uarch-memhier": {"members": 2, "workloads": ("mcf",),
                          "trials_per_workload": 2, "injection_points": 1},
        "arch-fig2": {"members": 2, "workloads": ("gzip",),
                      "trials_per_workload": 20, "injection_points": 4},
        "arch-adaptive": {"members": 2, "workloads": ("gzip",),
                          "trials_per_workload": 20, "injection_points": 4},
        "arch-fig2-service": {"members": 2},
        "planner": {"margin": 0.05, "min_trials": 2, "round_trials": 2},
        "shards": 2,
    },
}


def panel(workload: str, scale: str, seed: int) -> list[tuple]:
    """The ``(config, planner)`` of every member of a workload's panel."""
    from repro.faults import ArchCampaignConfig, UarchCampaignConfig
    from repro.planner import PlannerConfig

    sizes = SCALES[scale]
    knobs = dict(sizes[workload])
    members = knobs.pop("members")
    if workload == "arch-fig2-service":
        knobs = {k: v for k, v in sizes["arch-fig2"].items() if k != "members"}
    planner = None
    if workload == "uarch-fig46":
        knobs["window_cycles"] = 2500
    elif workload == "uarch-memhier":
        knobs.update(memhier_targets=True, detectors=MEMHIER_DETECTORS)
    elif workload == "arch-adaptive":
        planner = PlannerConfig(**sizes["planner"])
    config_class = UarchCampaignConfig if LEVELS[workload] == "uarch" else ArchCampaignConfig
    return [
        (config_class(seed=seed + r * SEED_STRIDE, **knobs), planner)
        for r in range(members)
    ]


# ------------------------------------------------------------------ journals


class _Everything:
    """A ``completed`` collection holding every trial key: the set-up probe
    walks the preamble of a campaign whose trials are all journaled."""

    def __contains__(self, key) -> bool:
        return True

    def __iter__(self):
        return iter(())

    def __len__(self) -> int:
        return 0


def pinned_digests(scale: str, workload: str, seed: int) -> list[str] | None:
    """The pinned journal SHA-256 of every panel member, for seed 2005."""
    if seed != PINNED_SEED:
        return None
    with open(DIGESTS_PATH) as handle:
        return json.load(handle).get(scale, {}).get(workload)


@dataclass
class JournalCheck:
    """What one panel member's journals must agree on."""

    workloads: tuple[str, ...]
    trials: int | None  # exact trial lines per journal; None for adaptive
    expected: str | None = None  # pinned or reference SHA-256
    digest: str | None = None
    errors: list[str] = field(default_factory=list)
    attempted: int = 0  # trial outcomes over every journal checked
    failed: int = 0  # harness crashes and timeouts among them
    journals: int = 0
    journal_trials: int = 0  # trial outcomes in one journal
    journal_failed: int = 0

    def add(self, path: str) -> None:
        """Check one journal file and count its trial outcomes."""
        with open(path, "rb") as handle:
            data = handle.read()
        digest = hashlib.sha256(data).hexdigest()
        self.journals += 1
        if self.digest is None:
            self.digest = digest
            self._check_content(data)
        elif digest != self.digest:
            self.errors.append(
                f"journal {self.journals} differs from the first "
                f"({digest[:12]} != {self.digest[:12]})"
            )
        if self.expected is not None and digest != self.expected:
            self.errors.append(
                f"journal sha256 {digest[:12]} != expected {self.expected[:12]}"
            )
        self.attempted += self.journal_trials
        self.failed += self.journal_failed

    def _check_content(self, data: bytes) -> None:
        entries = [json.loads(line) for line in data.splitlines()]
        trials = [e for e in entries if e.get("kind") == "trial"]
        self.journal_trials = len(trials)
        self.journal_failed = sum(1 for e in trials if e.get("status") != "ok")
        done = [e["workload"] for e in entries
                if e.get("kind") == "workload" and e.get("status") == "done"]
        if tuple(done) != self.workloads:
            self.errors.append(
                f"journal kernels {done} != configured {list(self.workloads)} "
                f"(a kernel was skipped)"
            )
        if self.trials is not None and self.journal_trials != self.trials:
            self.errors.append(
                f"journal holds {self.journal_trials} trials, expected "
                f"{self.trials}"
            )
        if not trials:
            self.errors.append("journal holds no trials")


def file_sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


@dataclass
class Member:
    """One campaign of the panel and everything measured about it."""

    seed: int
    config: object
    planner: object
    check: JournalCheck
    cache_dir: str = ""
    setup_s: float = 0.0
    campaign_s: list[float] = field(default_factory=list)


# --------------------------------------------------------------- measurement


def measure(workload: str, scale: str, seed: int, seconds: float, trace: bool,
            workdir: str, spans_path: str | None = None) -> dict:
    """Measure one workload in this process; returns a JSON-able result."""
    pinned = pinned_digests(scale, workload, seed)
    members = []
    for index, (config, planner) in enumerate(panel(workload, scale, seed)):
        check = JournalCheck(
            workloads=tuple(config.workloads),
            trials=(config.trials_per_workload * len(config.workloads)
                    if planner is None else None),
            expected=pinned[index] if pinned else None,
        )
        members.append(Member(config.seed, config, planner, check))
    level = LEVELS[workload]
    rec = spanlib.SpanRecorder() if trace else None
    if workload == "arch-fig2-service":
        run = asyncio.run(_measure_service(members, scale, seconds, workdir, rec))
    else:
        run = _measure_campaign(level, members, seconds, workdir, rec)

    checks = [m.check for m in members]
    errors = [f"member {m.seed}: {e}" for m in members for e in m.check.errors]
    if pinned is not None and len(pinned) != len(members):
        errors.append(f"{len(pinned)} pinned digests for {len(members)} members")
    result = {
        "workload": workload,
        "scale": scale,
        "seed": seed,
        "member_seeds": [m.seed for m in members],
        "correct": not errors,
        "errors": errors,
        "attempted": sum(c.attempted for c in checks),
        "failed": sum(c.failed for c in checks),
        "journal_sha256": [c.digest for c in checks],
        "samples": {
            "campaign_s": [m.campaign_s for m in members],
            "setup_s": run.get("setup_s", []),
        },
        "end_to_end": {},
    }
    if not trace:
        per_member = [min(m.campaign_s) for m in members]
        campaign_s = statistics.mean(per_member)
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        values = {
            "campaign_s": campaign_s,
            "trials_per_s": sum(c.journal_trials for c in checks) / sum(per_member),
            "setup_s": statistics.median(result["samples"]["setup_s"]),
            "peak_rss_mb": rss_kb / 1024.0,
            "failed_frac": result["failed"] / max(1, result["attempted"]),
        }
        result["end_to_end"] = {
            name: {"value": values[name], "unit": unit} for name, unit in END_TO_END
        }
    else:
        layers = spanlib.layer_metrics(
            rec, level=level,
            trace_overhead_frac=run["traced_s"] / run["untraced_s"] - 1.0,
            planner_totals=run.get("planner_totals"),
            journal_bytes=run["journal_bytes"],
        )
        result["per_layer"] = {
            name: {"value": layers[name], "unit": unit}
            for name, unit in spanlib.LAYER_METRICS
        }
        if spans_path:
            rec.write(spans_path, workload=workload)
    return result


def _fresh(workdir: str, name: str) -> str:
    path = os.path.join(workdir, name)
    os.makedirs(path)
    return path


def _probe(level: str, config, cache_dir: str) -> list[str]:
    """The cold preamble of every kernel; returns the kernels it skipped."""
    from repro.cache import GoldenArtifactCache
    from repro.faults import arch_campaign, uarch_campaign

    module = arch_campaign if level == "arch" else uarch_campaign
    skipped = []
    for kernel in config.workloads:
        outcome = module.run_workload_trials(
            config, kernel, completed=_Everything(),
            cache=GoldenArtifactCache(cache_dir),
        )
        if outcome.skip_reason:
            skipped.append(f"{kernel}: {outcome.skip_reason}")
    return skipped


def _set_up(level: str, member: Member, workdir: str, rec) -> None:
    """Fill the member's cache cold, timing it (or tracing it)."""
    member.cache_dir = _fresh(workdir, f"cache-{member.seed}")
    start = time.perf_counter()
    if rec is None:
        skipped = _probe(level, member.config, member.cache_dir)
        member.setup_s = time.perf_counter() - start
    else:
        with spanlib.instrument(rec), rec.span("setup"):
            skipped = _probe(level, member.config, member.cache_dir)
    member.check.errors.extend(f"set-up skipped {s}" for s in skipped)


def _merge_planner_totals(totals: list[dict]) -> dict | None:
    totals = [t for t in totals if t]
    if not totals:
        return None
    keys = ("prescreen_points", "total_points", "trials_saved")
    return {key: sum(t[key] for t in totals) for key in keys}


def _measure_campaign(level, members, seconds, workdir, rec):
    from repro.campaign import run_campaign

    for member in members:
        _set_up(level, member, workdir, rec)

    def campaign(member: Member):
        journal = os.path.join(workdir, f"journal-{member.seed}.jsonl")
        start = time.perf_counter()
        report = run_campaign(level, member.config, journal_path=journal, jobs=1,
                              cache_dir=member.cache_dir, planner=member.planner)
        elapsed = time.perf_counter() - start
        member.check.add(journal)
        size = os.path.getsize(journal)
        os.unlink(journal)
        return elapsed, size, report

    if rec is None:
        began = time.perf_counter()
        while True:
            for member in members:
                member.campaign_s.append(campaign(member)[0])
            if time.perf_counter() - began >= seconds:
                return {"setup_s": [m.setup_s for m in members]}
    untraced_s, _, _ = campaign(members[0])
    sizes, totals = [], []
    traced_s = None
    with spanlib.instrument(rec):
        for member in members:
            with rec.span("campaign"):
                elapsed, size, report = campaign(member)
            traced_s = elapsed if traced_s is None else traced_s
            sizes.append(size)
            totals.append(report.planner_totals)
    return {"untraced_s": untraced_s, "traced_s": traced_s,
            "journal_bytes": statistics.mean(sizes),
            "planner_totals": _merge_planner_totals(totals)}


class _Fleet:
    """An in-process scheduler and local worker pool on a SQLite file."""

    def __init__(self, workdir: str, cache_dir: str):
        from repro.service import CampaignScheduler, LocalWorkerPool, ResultStore

        self.store = ResultStore(os.path.join(workdir, "service.sqlite"))
        self.scheduler = CampaignScheduler(self.store, os.path.join(workdir, "data"))
        # A pool this benchmark owns and joins, started with spawn so the
        # workers import clean (unwrapped) modules.
        self.executor = ProcessPoolExecutor(
            max_workers=SERVICE_WORKERS,
            mp_context=multiprocessing.get_context("spawn"),
        )
        self.pool = LocalWorkerPool(
            self.scheduler, workers=SERVICE_WORKERS, executor=self.executor,
            lease_batch=LEASE_BATCH, poll_interval=POLL_INTERVAL,
            cache_dir=cache_dir,
        )
        self.pool.start()

    async def run_job(self, spec) -> tuple[float, str]:
        """Submit ``spec`` and wait for its journal; returns (seconds, path)."""
        done = asyncio.Event()
        finished: dict = {}

        def listener(event: dict) -> None:
            if event["event"] == "done":
                finished["at"] = time.perf_counter()
                finished["journal"] = event["journal_path"]
                done.set()

        start = time.perf_counter()
        job_id = self.scheduler.submit(spec)["job_id"]
        self.scheduler.add_listener(job_id, listener)
        try:
            await asyncio.wait_for(done.wait(), JOB_TIMEOUT)
        finally:
            self.scheduler.remove_listener(job_id, listener)
        return finished["at"] - start, finished["journal"]

    async def close(self) -> None:
        await self.pool.stop()
        self.executor.shutdown(wait=True)
        self.store.close()


async def _measure_service(members, scale, seconds, workdir, rec):
    """Set-up is the fleet (store, scheduler, pool) up to the end of a
    1-trial priming job, several times; then one unmeasured warm-up job,
    then one job per member per pass, each member's cache filled first by
    the serial probe. Every job journal must equal the serial journal."""
    from repro.campaign import run_campaign
    from repro.faults import ArchCampaignConfig
    from repro.service import JobSpec

    shards = SCALES[scale]["shards"]
    first = members[0].config
    priming = JobSpec(level="arch", config=ArchCampaignConfig(
        seed=first.seed, trials_per_workload=1, injection_points=1,
        workloads=first.workloads[:1],
    ))
    cache_dir = _fresh(workdir, "cache")
    fleet = None
    setup_s = []
    for index in range(SERVICE_SETUPS):
        if fleet is not None:
            await fleet.close()
        start = time.perf_counter()
        fleet = _Fleet(_fresh(workdir, f"fleet-{index}"), cache_dir)
        await fleet.run_job(priming)
        setup_s.append(time.perf_counter() - start)
    try:
        for member in members:
            _probe("arch", member.config, cache_dir)
            if member.check.expected is None:
                reference = os.path.join(workdir, f"serial-{member.seed}.jsonl")
                run_campaign("arch", member.config, journal_path=reference,
                             jobs=1, cache_dir=cache_dir)
                member.check.expected = file_sha256(reference)
        specs = {m.seed: JobSpec(level="arch", config=m.config,
                                 shards_per_workload=shards) for m in members}
        await fleet.run_job(specs[first.seed])  # warm-up, unmeasured

        async def job(member: Member) -> tuple[float, int]:
            elapsed, journal = await fleet.run_job(specs[member.seed])
            member.check.add(journal)
            return elapsed, os.path.getsize(journal)

        if rec is None:
            began = time.perf_counter()
            while True:
                for member in members:
                    member.campaign_s.append((await job(member))[0])
                if time.perf_counter() - began >= seconds:
                    return {"setup_s": setup_s}
        untraced_s, _ = await job(members[0])
        traced_s, sizes = None, []
        with spanlib.instrument(rec):
            for member in members:
                index = rec.begin("campaign")
                try:
                    elapsed, size = await job(member)
                finally:
                    rec.end(index)
                traced_s = elapsed if traced_s is None else traced_s
                sizes.append(size)
        return {"untraced_s": untraced_s, "traced_s": traced_s,
                "journal_bytes": statistics.mean(sizes)}
    finally:
        await fleet.close()
