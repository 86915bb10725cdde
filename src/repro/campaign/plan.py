"""Trial plans: which trials of one workload exist, and which still run.

An *allocation* is a sorted list of ``(point, start_index, count)``
entries: trial ``index`` of ``point`` exists for every ``start_index <=
index < start_index + count``. A uniform campaign spends one allocation,
:func:`uniform_allocation`; an adaptive campaign spends the rounds
:meth:`repro.planner.CampaignPlanner.plan_round` returns. Either way,
:func:`pending_trials` expands it into the trials an executor still owes,
each with its own random stream derived from ``(seed, workload, point,
index)``, so no allocation order, shard or resume can change a record.
"""

from __future__ import annotations

from collections.abc import Container, Iterable, Sequence

from repro.campaign.outcomes import trial_key
from repro.util.rng import DeterministicRng

#: ``(point, start_index, count)`` entries, sorted by point.
Allocation = list[tuple[int, int, int]]
#: Per point, in journal order: the pending ``(index, trial_rng)`` trials.
PendingTrials = list[tuple[int, list[tuple[int, DeterministicRng]]]]


def uniform_allocation(points: Sequence[int], trials: int) -> Allocation:
    """Split ``trials`` over the sorted ``points`` as one round: every point
    gets ``trials // len(points)``, the first ``trials % len(points)`` one
    more."""
    base, extra = divmod(trials, len(points))
    return [
        (point, 0, base + (1 if position < extra else 0))
        for position, point in enumerate(points)
    ]


def pending_trials(
    wrng: DeterministicRng,
    workload: str,
    allocation: Iterable[tuple[int, int, int]],
    shard: tuple[int, int] | None = None,
    completed: Container[str] = frozenset(),
) -> PendingTrials:
    """The trials of ``allocation`` still to run, in journal order.

    ``shard=(shard_index, shard_count)`` keeps the stride slice ``index %
    shard_count == shard_index``; keys in ``completed`` (already
    journaled) are dropped. ``completed`` is only ever probed with ``in``,
    so a caller may pass any container, however large. Points left with
    no pending trial are omitted.
    """
    pending: PendingTrials = []
    for point, start, count in allocation:
        trials = [
            (index, wrng.child(f"trial:{point}:{index}"))
            for index in range(start, start + count)
            if (shard is None or index % shard[1] == shard[0])
            and trial_key(workload, point, index) not in completed
        ]
        if trials:
            pending.append((point, trials))
    return pending
