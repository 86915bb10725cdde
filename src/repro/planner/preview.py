"""Plan preview: what an adaptive campaign would do, before any trials.

``repro campaign plan`` answers the question every adaptive knob
invites — "what will this configuration actually execute?" — by running
only the golden side of the campaign: build each workload, walk its
golden trace, sample the injection points, and run the masking
prescreen. No fault is injected; the preview is exact because the point
sample, the prescreen verdicts, and the round-0 allocation are all pure
functions of ``(config, planner)`` — the very property the resumable
journal relies on.
"""

from __future__ import annotations

from typing import Any

from repro.planner.core import CampaignPlanner, PlannerConfig, resolve_budget
from repro.planner.prescreen import prescreen_dead_points
from repro.util.tables import format_table


def preview_plan(
    config: Any, planner: PlannerConfig, cache: Any = None
) -> list[dict]:
    """Per-workload preview rows for an adaptive arch campaign.

    Each row carries the sampled point count, how many points the
    masking prescreen retires for free, the trial budget, and the size
    of round 0 (the planner's only unconditional spend); a workload
    whose golden run fails carries ``skip_reason`` instead.
    """
    from repro.faults.arch_campaign import _load_golden, sample_points

    rows: list[dict] = []
    for workload in config.workloads:
        try:
            _bundle, trace, _ = _load_golden(config, workload, cache)
        except Exception as exc:
            rows.append({
                "workload": workload,
                "skip_reason": f"{type(exc).__name__}: {exc}",
            })
            continue
        points = sample_points(config, workload, trace)
        prescreened = (
            prescreen_dead_points(trace, points)
            if planner.prescreen else set()
        )
        budget = resolve_budget(planner, config)
        plan = CampaignPlanner(
            planner, points, sorted(prescreened), budget=budget
        )
        round0 = sum(
            count
            for point, _start, count in plan.plan_round()
            if point not in prescreened
        )
        rows.append({
            "workload": workload,
            "points": len(points),
            "prescreened": len(prescreened),
            "budget": budget,
            "round0_trials": round0,
            "prescreen_trials": len(prescreened) * planner.min_trials,
        })
    return rows


def format_plan(rows: list[dict], planner: PlannerConfig) -> str:
    """Render preview rows as the ``repro campaign plan`` table."""
    table_rows = []
    for row in rows:
        if "skip_reason" in row:
            table_rows.append(
                [row["workload"], "-", "-", "-", "-",
                 f"skipped: {row['skip_reason']}"]
            )
            continue
        table_rows.append([
            row["workload"],
            str(row["points"]),
            str(row["prescreened"]),
            str(row["budget"]),
            str(row["round0_trials"]),
            "",
        ])
    title = (
        f"Adaptive plan (margin<={planner.margin}, "
        f"min={planner.min_trials}, round={planner.round_trials}, "
        f"prescreen={'on' if planner.prescreen else 'off'})"
    )
    return format_table(
        ["workload", "points", "prescreened", "budget", "round-0", "note"],
        table_rows,
        title=title,
    )
