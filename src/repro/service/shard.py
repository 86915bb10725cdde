"""Sharding: splitting a campaign job into resumable work units.

A work unit is ``(workload, seed-slice)``: one workload of the campaign,
restricted to the stride slice ``index % shard_count == shard_index`` of
the per-point trial index space. Because every trial's randomness is
derived from ``(seed, workload, point, index)`` — never from execution
order or from which process runs it — the slice boundaries cannot change
a single trial record: the union of a workload's shards is exactly the
serial campaign, trial for trial, bit for bit. That is the service's
**serial-equivalence invariant**, and the end-to-end tests assert it by
diffing a sharded job's journal against a serial ``run_campaign`` of the
same config and seed.

A stride (rather than a contiguous index range) is used because the
per-point trial count is only known after the workload's golden run has
been walked; stride slices partition the index space whatever that count
turns out to be.

Sharding finer than one unit per workload duplicates the workload's
golden run and prefix walk in every unit — the classic
throughput-versus-redundancy trade. One unit per workload (the default)
matches the parallel runner's work division; more shards spread
one workload over more pool processes once trial counts dominate the
golden-run cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.service.spec import JobSpec


@dataclass(frozen=True)
class WorkUnit:
    """One leasable slice of a job: a workload restricted to a seed-slice.

    Adaptive jobs execute round by round: ``round`` numbers the planner
    round this unit belongs to, and ``allocation`` carries the explicit
    ``(point, start_index, count)`` plan for rounds after the first.
    Round-0 units ship with ``allocation=None`` — the worker derives the
    round-0 plan (and the prescreen set) from the golden trace itself
    and reports that metadata back for the scheduler to replay. Uniform
    jobs keep ``round=0, allocation=None`` throughout.
    """

    job_id: str
    unit_id: str
    workload: str
    shard_index: int
    shard_count: int
    round: int = 0
    allocation: tuple[tuple[int, int, int], ...] | None = None

    @property
    def shard(self) -> tuple[int, int] | None:
        """The executor-facing stride descriptor (None for a whole workload)."""
        if self.shard_count == 1:
            return None
        return (self.shard_index, self.shard_count)

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "unit_id": self.unit_id,
            "workload": self.workload,
            "shard_index": self.shard_index,
            "shard_count": self.shard_count,
            "round": self.round,
            "allocation": (
                [list(entry) for entry in self.allocation]
                if self.allocation is not None else None
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkUnit":
        allocation = data.get("allocation")
        return cls(
            job_id=data["job_id"],
            unit_id=data["unit_id"],
            workload=data["workload"],
            shard_index=int(data["shard_index"]),
            shard_count=int(data["shard_count"]),
            round=int(data.get("round", 0)),
            allocation=(
                tuple(tuple(int(v) for v in entry) for entry in allocation)
                if allocation is not None else None
            ),
        )


def shard_job(job_id: str, spec: JobSpec) -> list[WorkUnit]:
    """Split a job into its work units, in deterministic dispatch order.

    Units are ordered workload-major (the spec's workload order, which is
    also the serial runner's execution order) so a single worker draining
    the queue processes the job in the same order a serial run would.
    Adaptive jobs start with round 0 only; the scheduler emits each later
    round's units once the previous round's trials have all landed.
    """
    return [
        unit
        for workload in spec.config.workloads
        for unit in round_units(job_id, spec, workload)
    ]


def round_units(
    job_id: str,
    spec: JobSpec,
    workload: str,
    round_number: int = 0,
    allocation: list[tuple[int, int, int]] | None = None,
) -> list[WorkUnit]:
    """The work units of one round of one workload; every unit is named here.

    A unit id is ``{workload}:{i}of{n}`` in round 0 (the whole of a
    uniform job) and ``{workload}:r{k}:{i}of{n}`` in a later planner
    round ``k``. Later rounds carry the full allocation; each unit's
    shard stride selects the trial-index slice it executes, so the union
    of a round's units is exactly the round — the same invariant as
    uniform sharding.
    """
    count = spec.shards_per_workload
    tag = f"r{round_number}:" if round_number else ""
    return [
        WorkUnit(
            job_id=job_id,
            unit_id=f"{workload}:{tag}{index}of{count}",
            workload=workload,
            shard_index=index,
            shard_count=count,
            round=round_number,
            allocation=(
                tuple(tuple(entry) for entry in allocation)
                if allocation is not None else None
            ),
        )
        for index in range(count)
    ]
