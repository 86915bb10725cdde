"""Derived metrics: the paper's Section 3.3 numbers from trial records.

A candidate symptom is judged by three metrics: (1) how often
failure-causing errors produce it, (2) its error-to-symptom propagation
latency, and (3) its frequency during error-free execution. A campaign's
trial records carry exactly the raw material — per-symptom latencies and
the failing/masked verdict — so this module aggregates them into
per-detector :class:`DetectorMetrics` (coverage, latency histogram,
benign firing rate) plus the rollback-distance distributions implied by
the two-live-checkpoints recovery scheme.

Rollback distance follows Section 5.2.3: a symptom at architectural
position ``s`` restores the *older* of the two live checkpoints, so the
machine rewinds ``interval + (s mod interval)`` instructions — between 1
and 2 intervals, averaging 1.5. Trial records store the injection
position and the symptom latency, which pins down ``s`` exactly.

Everything serializes to/from flat dicts so the campaign runner can
journal an aggregate alongside the trial lines and ``repro campaign
report`` can re-render without re-running anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field

SCHEMA_VERSION = 1

#: Latency bucket upper bounds (retired instructions), chosen to bracket
#: the paper's Figure 2/4 x-axis; the implicit final bucket is overflow.
LATENCY_EDGES: tuple[int, ...] = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 10_000)

#: Symptom kinds per campaign level, in report order.
ARCH_SYMPTOMS = ("exception", "cfv", "mem-addr", "mem-data")
UARCH_SYMPTOMS = ("deadlock", "exception", "cfv", "hc_mispredict")

#: Checkpoint intervals for the rollback-distance breakdown.
DEFAULT_INTERVALS: tuple[int, ...] = (50, 100, 500)


class Histogram:
    """A fixed-edge histogram with an overflow bucket and exact mean.

    ``edges`` are ascending inclusive upper bounds; a value ``v`` lands in
    the first bucket with ``v <= edge``, or the overflow bucket. The value
    sum is tracked so ``mean`` is exact, not bucket-approximated.
    """

    def __init__(self, edges: tuple[int, ...] = LATENCY_EDGES):
        if not edges or list(edges) != sorted(set(edges)):
            raise ValueError(f"edges must be ascending and unique: {edges!r}")
        self.edges = tuple(edges)
        self.counts = [0] * (len(edges) + 1)
        self._sum = 0

    def add(self, value: int) -> None:
        for index, edge in enumerate(self.edges):
            if value <= edge:
                self.counts[index] += 1
                break
        else:
            self.counts[-1] += 1
        self._sum += value

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def mean(self) -> float:
        total = self.total
        return self._sum / total if total else 0.0

    def quantile(self, q: float) -> int | None:
        """Upper bound of the bucket containing the q-quantile (None when
        empty; the overflow bucket reports the last edge)."""
        total = self.total
        if not total:
            return None
        rank = q * total
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= rank and count:
                return self.edges[min(index, len(self.edges) - 1)]
        return self.edges[-1]

    def merge(self, other: "Histogram") -> None:
        if other.edges != self.edges:
            raise ValueError("cannot merge histograms with different edges")
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self._sum += other._sum

    def bucket_labels(self) -> list[str]:
        labels = []
        lower = 0
        for edge in self.edges:
            labels.append(f"{lower + 1}-{edge}" if edge > lower + 1 else f"{edge}")
            lower = edge
        labels.append(f">{self.edges[-1]}")
        return labels

    def as_dict(self) -> dict:
        return {"edges": list(self.edges), "counts": list(self.counts),
                "sum": self._sum}

    @classmethod
    def from_dict(cls, data: dict) -> "Histogram":
        histogram = cls(tuple(data["edges"]))
        counts = list(data["counts"])
        if len(counts) != len(histogram.counts):
            raise ValueError("histogram counts do not match edges")
        histogram.counts = counts
        histogram._sum = int(data.get("sum", 0))
        return histogram


@dataclass
class DetectorMetrics:
    """Section 3.3's three numbers for one symptom detector."""

    symptom: str
    fired_on_failing: int = 0
    fired_on_benign: int = 0
    failing_trials: int = 0
    benign_trials: int = 0
    latency: Histogram = field(default_factory=Histogram)

    @property
    def coverage(self) -> float:
        """Metric 1: fraction of failure-causing errors that produce it."""
        if not self.failing_trials:
            return 0.0
        return self.fired_on_failing / self.failing_trials

    @property
    def benign_rate(self) -> float:
        """Metric 3: firing frequency when no failure occurred."""
        if not self.benign_trials:
            return 0.0
        return self.fired_on_benign / self.benign_trials

    def merge(self, other: "DetectorMetrics") -> None:
        """Fold another shard's tallies for the same symptom into this one."""
        if other.symptom != self.symptom:
            raise ValueError(
                f"cannot merge detector {other.symptom!r} into {self.symptom!r}"
            )
        self.fired_on_failing += other.fired_on_failing
        self.fired_on_benign += other.fired_on_benign
        self.failing_trials += other.failing_trials
        self.benign_trials += other.benign_trials
        self.latency.merge(other.latency)

    def as_dict(self) -> dict:
        return {
            "symptom": self.symptom,
            "fired_on_failing": self.fired_on_failing,
            "fired_on_benign": self.fired_on_benign,
            "failing_trials": self.failing_trials,
            "benign_trials": self.benign_trials,
            "latency": self.latency.as_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DetectorMetrics":
        return cls(
            symptom=data["symptom"],
            fired_on_failing=int(data["fired_on_failing"]),
            fired_on_benign=int(data["fired_on_benign"]),
            failing_trials=int(data["failing_trials"]),
            benign_trials=int(data["benign_trials"]),
            latency=Histogram.from_dict(data["latency"]),
        )


@dataclass
class CampaignMetrics:
    """The aggregate telemetry view of one campaign's trials."""

    level: str
    trials: int = 0
    failing: int = 0
    detectors: dict[str, DetectorMetrics] = field(default_factory=dict)
    rollback_distance: dict[int, Histogram] = field(default_factory=dict)
    # Adaptive-planner account (budget, executed, trials saved, prescreen
    # hits — see repro.planner.aggregate_planner_summaries). ``None`` for
    # uniform campaigns, and omitted from the journal entry so their
    # telemetry lines stay byte-identical to pre-planner journals.
    planner: dict | None = None

    def to_entry(self) -> dict:
        """The journal (JSONL) representation."""
        entry = {
            "kind": "telemetry",
            "schema": SCHEMA_VERSION,
            "level": self.level,
            "trials": self.trials,
            "failing": self.failing,
            "detectors": {
                name: metrics.as_dict() for name, metrics in self.detectors.items()
            },
            "rollback_distance": {
                str(interval): histogram.as_dict()
                for interval, histogram in self.rollback_distance.items()
            },
        }
        if self.planner is not None:
            entry["planner"] = self.planner
        return entry

    @classmethod
    def from_entry(cls, entry: dict) -> "CampaignMetrics":
        return cls(
            level=entry["level"],
            trials=int(entry["trials"]),
            failing=int(entry["failing"]),
            detectors={
                name: DetectorMetrics.from_dict(data)
                for name, data in entry.get("detectors", {}).items()
            },
            rollback_distance={
                int(interval): Histogram.from_dict(data)
                for interval, data in entry.get("rollback_distance", {}).items()
            },
            planner=entry.get("planner"),
        )

    def merge(self, other: "CampaignMetrics") -> None:
        """Fold another shard's aggregate into this one.

        Every constituent is an integer tally (trial counts, detector
        firings, histogram buckets), so merging per-shard aggregates is
        exact: summing the aggregates of any partition of a campaign's
        trials yields the same object as aggregating all trials serially.
        The campaign service relies on this to combine per-unit metrics
        into per-job metrics without re-reading trial records. The
        ``planner`` section is deliberately not merged: it is a whole-
        campaign account computed by replaying the planner, never a
        per-shard tally.
        """
        if other.level != self.level:
            raise ValueError(
                f"cannot merge {other.level!r} metrics into {self.level!r}"
            )
        self.trials += other.trials
        self.failing += other.failing
        for name, detector in other.detectors.items():
            mine = self.detectors.get(name)
            if mine is None:
                self.detectors[name] = DetectorMetrics.from_dict(
                    detector.as_dict()
                )
            else:
                mine.merge(detector)
        for interval, histogram in other.rollback_distance.items():
            mine_hist = self.rollback_distance.get(interval)
            if mine_hist is None:
                self.rollback_distance[interval] = Histogram.from_dict(
                    histogram.as_dict()
                )
            else:
                mine_hist.merge(histogram)


def _distance_histogram(interval: int) -> Histogram:
    """Buckets spanning [interval, 2*interval], the reachable range."""
    quarter = max(1, interval // 4)
    return Histogram((interval, interval + quarter, interval + 2 * quarter,
                      interval + 3 * quarter, 2 * interval))


def trial_symptom_latencies(
    level: str,
    record,
    extra_symptoms: tuple[str, ...] = (),
) -> dict[str, int | None]:
    """Per-symptom latency (retired instructions) of one trial record.

    ``extra_symptoms`` names opt-in uarch detectors (the memory-hierarchy
    ablation set) whose latencies live in ``<name>_latency`` record fields;
    records journaled before a detector existed simply report ``None``.
    """
    if level == "arch":
        return {
            "exception": record.exception_latency,
            "cfv": record.cfv_latency,
            "mem-addr": record.memaddr_latency,
            "mem-data": record.memdata_latency,
        }
    if level == "uarch":
        latencies: dict[str, int | None] = {
            "deadlock": record.deadlock_latency,
            "exception": record.exception_latency,
            "cfv": record.cfv_latency,
            "hc_mispredict": record.cfv_detected_latency,
        }
        for name in extra_symptoms:
            if name not in latencies:
                latencies[name] = getattr(record, f"{name}_latency", None)
        return latencies
    raise ValueError(f"unknown campaign level {level!r}")


def _inject_position(level: str, record) -> int:
    """Architectural position (retired instructions) of the injection."""
    if level == "arch":
        return record.inject_step
    return getattr(record, "inject_retired", 0)


def merge_campaign_metrics(parts) -> CampaignMetrics:
    """Merge an iterable of :class:`CampaignMetrics` shards into one.

    The inputs are not mutated. Raises :class:`ValueError` when ``parts``
    is empty or the shards disagree on the campaign level.
    """
    merged: CampaignMetrics | None = None
    for part in parts:
        if merged is None:
            merged = CampaignMetrics.from_entry(part.to_entry())
        else:
            merged.merge(part)
    if merged is None:
        raise ValueError("cannot merge an empty collection of metrics")
    return merged


def aggregate_campaign(
    level: str,
    records,
    intervals: tuple[int, ...] = DEFAULT_INTERVALS,
    extra_symptoms: tuple[str, ...] = (),
) -> CampaignMetrics:
    """Aggregate trial records into detector and rollback metrics.

    ``records`` are :class:`~repro.faults.classify.ArchTrialResult` /
    :class:`~repro.faults.classify.UarchTrialResult` objects (the ``ok``
    trials of a campaign, as replayed from a journal or produced live).
    ``extra_symptoms`` adds opt-in uarch detector columns (for campaigns
    configured with memory-hierarchy detectors); at its ``()`` default the
    telemetry entry is byte-identical to what older versions wrote.
    """
    symptoms: tuple[str, ...] = ARCH_SYMPTOMS if level == "arch" else UARCH_SYMPTOMS
    if level != "arch":
        symptoms += tuple(n for n in extra_symptoms if n not in symptoms)
    metrics = CampaignMetrics(
        level=level,
        detectors={name: DetectorMetrics(name) for name in symptoms},
        rollback_distance={
            interval: _distance_histogram(interval) for interval in intervals
        },
    )
    for record in records:
        metrics.trials += 1
        failing = bool(record.failing)
        if failing:
            metrics.failing += 1
        latencies = trial_symptom_latencies(level, record, extra_symptoms)
        first_latency: int | None = None
        for name, latency in latencies.items():
            detector = metrics.detectors[name]
            if failing:
                detector.failing_trials += 1
            else:
                detector.benign_trials += 1
            if latency is None:
                continue
            if failing:
                detector.fired_on_failing += 1
                if first_latency is None or latency < first_latency:
                    first_latency = latency
            else:
                detector.fired_on_benign += 1
            detector.latency.add(latency)
        if first_latency is None:
            continue
        # The rollback implied by the earliest symptom: restore the older
        # of the two live checkpoints straddling the symptom position.
        position = _inject_position(level, record) + first_latency
        for interval, histogram in metrics.rollback_distance.items():
            if first_latency <= interval:
                histogram.add(interval + position % interval)
    return metrics


class CounterSet:
    """A named bundle of monotonic event counters with exact merge.

    The service-resilience analogue of :class:`CampaignMetrics`: the
    scheduler tallies protocol-level events (leases, lease expiries,
    requeues, dead-letters) into one of these, shards merge by integer
    addition, and ``/api/metrics`` serves the result.
    Unknown names spring into existence at zero so adding a new counter
    never breaks an old reader, and serialization is a flat dict —
    the same greppable/diffable shape as every other telemetry entry.
    """

    def __init__(self, initial: dict[str, int] | None = None):
        self._counts: dict[str, int] = dict(initial or {})

    def bump(self, name: str, amount: int = 1) -> int:
        """Add ``amount`` to ``name`` (created at zero); returns the total."""
        self._counts[name] = self._counts.get(name, 0) + amount
        return self._counts[name]

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def __getitem__(self, name: str) -> int:
        return self.get(name)

    def merge(self, other: "CounterSet") -> None:
        for name, value in other._counts.items():
            self.bump(name, value)

    def to_entry(self) -> dict[str, int]:
        return dict(sorted(self._counts.items()))

    @classmethod
    def from_entry(cls, entry: dict[str, int]) -> "CounterSet":
        return cls({str(k): int(v) for k, v in entry.items()})
