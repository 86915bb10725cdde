"""The SQLite result store: jobs, work units, and trial records.

Everything the service knows lives here, in one SQLite database (or in
memory for tests): submitted jobs and their specs, the work units they
shard into (with lease state for the pull-based lease protocol), and
every trial outcome a worker has reported. Trial ingestion uses
``INSERT OR IGNORE`` on the ``(job, trial key)`` primary key, so a unit
that is retried after a worker death or lease expiry can re-report its
trials without ever double-counting one — the store is idempotent under
at-least-once unit execution.

The store is deliberately synchronous and single-threaded: the scheduler
and every API handler run on one asyncio event loop, and only the trial
*execution* is farmed out to the pool's processes, so there is exactly
one writer and SQLite needs no cross-thread coordination.
"""

from __future__ import annotations

import json
import os
import sqlite3
from typing import Any

from repro.service.shard import WorkUnit

# Unit lifecycle: pending -> leased -> done | failed; cancel short-circuits.
UNIT_PENDING = "pending"
UNIT_LEASED = "leased"
UNIT_DONE = "done"
UNIT_FAILED = "failed"
UNIT_CANCELLED = "cancelled"

# Job lifecycle: queued -> running -> done | failed | cancelled.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_CANCELLED = "cancelled"

JOB_TERMINAL_STATES = (JOB_DONE, JOB_FAILED, JOB_CANCELLED)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id   TEXT PRIMARY KEY,
    seq      INTEGER NOT NULL,
    created  REAL NOT NULL,
    finished REAL,
    state    TEXT NOT NULL,
    level    TEXT NOT NULL,
    spec     TEXT NOT NULL,
    error    TEXT,
    journal_path TEXT,
    trace_path   TEXT,
    metrics  TEXT
);
CREATE TABLE IF NOT EXISTS units (
    job_id      TEXT NOT NULL,
    unit_id     TEXT NOT NULL,
    workload    TEXT NOT NULL,
    shard_index INTEGER NOT NULL,
    shard_count INTEGER NOT NULL,
    state       TEXT NOT NULL,
    attempts    INTEGER NOT NULL DEFAULT 0,
    worker      TEXT,
    lease_expiry REAL,
    skip_reason TEXT,
    total_bits  INTEGER NOT NULL DEFAULT 0,
    metrics     TEXT,
    error       TEXT,
    round       INTEGER NOT NULL DEFAULT 0,
    allocation  TEXT,
    planner_meta TEXT,
    PRIMARY KEY (job_id, unit_id)
);
CREATE TABLE IF NOT EXISTS trials (
    job_id   TEXT NOT NULL,
    key      TEXT NOT NULL,
    wpos     INTEGER NOT NULL,
    workload TEXT NOT NULL,
    point    INTEGER NOT NULL,
    idx      INTEGER NOT NULL,
    status   TEXT NOT NULL,
    entry    TEXT NOT NULL,
    round    INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (job_id, key)
);
CREATE TABLE IF NOT EXISTS planner_state (
    job_id   TEXT NOT NULL,
    workload TEXT NOT NULL,
    state    TEXT NOT NULL,
    PRIMARY KEY (job_id, workload)
);
CREATE INDEX IF NOT EXISTS trials_round_order
    ON trials (job_id, wpos, round, point, idx);
CREATE INDEX IF NOT EXISTS units_state ON units (state, job_id);
"""

#: Columns added after the first released schema; applied idempotently so
#: a store file written by an older service upgrades in place. Serial
#: journal order for adaptive jobs is (workload, round, point, index), so
#: the old (wpos, point, idx) index is superseded by trials_round_order.
_MIGRATIONS = (
    "ALTER TABLE units ADD COLUMN round INTEGER NOT NULL DEFAULT 0",
    "ALTER TABLE units ADD COLUMN allocation TEXT",
    "ALTER TABLE units ADD COLUMN planner_meta TEXT",
    "ALTER TABLE trials ADD COLUMN round INTEGER NOT NULL DEFAULT 0",
    "DROP INDEX IF EXISTS trials_order",
)


def _row_to_dict(row: sqlite3.Row | None) -> dict | None:
    return dict(row) if row is not None else None


class ResultStore:
    """Persistent state for the campaign service."""

    def __init__(self, path: str = ":memory:"):
        self.path = path
        if path != ":memory:":
            directory = os.path.dirname(os.path.abspath(path))
            os.makedirs(directory, exist_ok=True)
        # check_same_thread off: tests create the store on one thread and
        # run the service loop on another; all *use* stays single-threaded
        # (every access happens on the scheduler's thread).
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        self._conn.executescript(_SCHEMA)
        for statement in _MIGRATIONS:
            try:
                self._conn.execute(statement)
            except sqlite3.OperationalError:
                pass  # column already present (fresh schema or re-run)
        self._conn.commit()

    def close(self) -> None:
        self._conn.close()

    # ------------------------------------------------------------- jobs

    def next_sequence(self) -> int:
        row = self._conn.execute("SELECT COALESCE(MAX(seq), 0) + 1 FROM jobs")
        return int(row.fetchone()[0])

    def create_job(
        self, job_id: str, seq: int, level: str, spec: dict, created: float
    ) -> None:
        self._conn.execute(
            "INSERT INTO jobs (job_id, seq, created, state, level, spec) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            (job_id, seq, created, JOB_QUEUED, level, json.dumps(spec)),
        )
        self._conn.commit()

    def job(self, job_id: str) -> dict | None:
        row = self._conn.execute(
            "SELECT * FROM jobs WHERE job_id = ?", (job_id,)
        ).fetchone()
        return _row_to_dict(row)

    def jobs(self, offset: int = 0, limit: int = 50) -> list[dict]:
        rows = self._conn.execute(
            "SELECT * FROM jobs ORDER BY seq DESC LIMIT ? OFFSET ?",
            (limit, offset),
        ).fetchall()
        return [dict(row) for row in rows]

    def job_count(self) -> int:
        return int(self._conn.execute("SELECT COUNT(*) FROM jobs").fetchone()[0])

    def set_job_state(
        self, job_id: str, state: str, *,
        error: str | None = None, finished: float | None = None,
    ) -> None:
        self._conn.execute(
            "UPDATE jobs SET state = ?, error = COALESCE(?, error), "
            "finished = COALESCE(?, finished) WHERE job_id = ?",
            (state, error, finished, job_id),
        )
        self._conn.commit()

    def finalize_job(
        self, job_id: str, *, state: str, journal_path: str | None,
        trace_path: str | None, metrics: dict | None, finished: float,
        error: str | None = None,
    ) -> None:
        # ``error`` overwrites (including to NULL): re-finalizing after a
        # dead-letter requeue must clear a stale "skipped workloads" note.
        self._conn.execute(
            "UPDATE jobs SET state = ?, journal_path = ?, trace_path = ?, "
            "metrics = ?, finished = ?, error = ? WHERE job_id = ?",
            (
                state, journal_path, trace_path,
                json.dumps(metrics) if metrics is not None else None,
                finished, error, job_id,
            ),
        )
        self._conn.commit()

    # ------------------------------------------------------------ units

    def add_units(self, units: list[WorkUnit]) -> None:
        self._conn.executemany(
            "INSERT INTO units (job_id, unit_id, workload, shard_index, "
            "shard_count, state, round, allocation) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            [
                (u.job_id, u.unit_id, u.workload, u.shard_index,
                 u.shard_count, UNIT_PENDING, u.round,
                 json.dumps([list(entry) for entry in u.allocation])
                 if u.allocation is not None else None)
                for u in units
            ],
        )
        self._conn.commit()

    def units(self, job_id: str) -> list[dict]:
        rows = self._conn.execute(
            "SELECT * FROM units WHERE job_id = ? ORDER BY rowid", (job_id,)
        ).fetchall()
        return [dict(row) for row in rows]

    def unit(self, job_id: str, unit_id: str) -> dict | None:
        row = self._conn.execute(
            "SELECT * FROM units WHERE job_id = ? AND unit_id = ?",
            (job_id, unit_id),
        ).fetchone()
        return _row_to_dict(row)

    def unit_state_counts(self, job_id: str) -> dict[str, int]:
        rows = self._conn.execute(
            "SELECT state, COUNT(*) AS n FROM units WHERE job_id = ? "
            "GROUP BY state",
            (job_id,),
        ).fetchall()
        return {row["state"]: row["n"] for row in rows}

    def lease_batch(
        self, worker: str, now: float, ttl: float, limit: int
    ) -> list[dict]:
        """Lease up to ``limit`` pending units to ``worker`` atomically.

        One SQLite transaction covers the whole grant, and every unit in
        the batch carries the *same* lease clock reading (``now + ttl``)
        — one lease clock per batch, so a batch expires as a whole
        rather than unit-by-unit as the select walked the queue. Units
        come oldest-job-first, oldest-unit-first, exactly the order a
        sequence of single leases would have drained them.
        """
        rows = self._conn.execute(
            "SELECT units.rowid AS unit_rowid, units.* FROM units "
            "JOIN jobs ON jobs.job_id = units.job_id "
            "WHERE units.state = ? AND jobs.state IN (?, ?) "
            "ORDER BY jobs.seq, units.rowid LIMIT ?",
            (UNIT_PENDING, JOB_QUEUED, JOB_RUNNING, limit),
        ).fetchall()
        if not rows:
            return []
        expiry = now + ttl
        self._conn.executemany(
            "UPDATE units SET state = ?, worker = ?, lease_expiry = ?, "
            "attempts = attempts + 1 WHERE rowid = ?",
            [(UNIT_LEASED, worker, expiry, row["unit_rowid"]) for row in rows],
        )
        self._conn.commit()
        units = []
        for row in rows:
            unit = dict(row)
            unit.pop("unit_rowid", None)
            unit.update(
                state=UNIT_LEASED, worker=worker, lease_expiry=expiry,
                attempts=row["attempts"] + 1,
            )
            units.append(unit)
        return units

    def reissue_leases(
        self, worker: str, now: float, ttl: float, limit: int
    ) -> list[dict]:
        """Return up to ``limit`` units ``worker`` already holds live
        leases on, refreshing them all to one new lease clock.

        A restarted service names its pool loops as its predecessor did,
        and :meth:`rearm_leases` kept the predecessor's leases alive, so
        each loop gets its predecessor's units straight back instead of
        waiting out the TTL. It is the same attempt per unit, so
        ``attempts`` is not re-counted.
        """
        rows = self._conn.execute(
            "SELECT units.rowid AS unit_rowid, units.* FROM units "
            "JOIN jobs ON jobs.job_id = units.job_id "
            "WHERE units.state = ? AND units.worker = ? AND "
            "units.lease_expiry > ? AND jobs.state IN (?, ?) "
            "ORDER BY jobs.seq, units.rowid LIMIT ?",
            (UNIT_LEASED, worker, now, JOB_QUEUED, JOB_RUNNING, limit),
        ).fetchall()
        if not rows:
            return []
        expiry = now + ttl
        self._conn.executemany(
            "UPDATE units SET lease_expiry = ? WHERE rowid = ?",
            [(expiry, row["unit_rowid"]) for row in rows],
        )
        self._conn.commit()
        units = []
        for row in rows:
            unit = dict(row)
            unit.pop("unit_rowid", None)
            unit["lease_expiry"] = expiry
            units.append(unit)
        return units

    def heartbeat(
        self, job_id: str, unit_id: str, worker: str, expiry: float
    ) -> bool:
        """Extend a live lease; False when the worker no longer owns it."""
        cursor = self._conn.execute(
            "UPDATE units SET lease_expiry = ? WHERE job_id = ? AND "
            "unit_id = ? AND worker = ? AND state = ?",
            (expiry, job_id, unit_id, worker, UNIT_LEASED),
        )
        self._conn.commit()
        return cursor.rowcount > 0

    def complete_unit(
        self, job_id: str, unit_id: str, worker: str, *,
        skip_reason: str | None, total_bits: int, metrics: dict | None,
        planner_meta: dict | None = None,
    ) -> bool:
        """Mark a leased unit done; False when the lease is no longer held.

        ``planner_meta`` (round-0 adaptive units only) persists the
        worker-derived point/prescreen metadata on the unit row itself,
        in the same transaction as the completion — a scheduler restart
        between a complete and the next round's planning can always
        rederive its state from done units plus trial rows.
        """
        cursor = self._conn.execute(
            "UPDATE units SET state = ?, skip_reason = ?, total_bits = ?, "
            "metrics = ?, planner_meta = ?, lease_expiry = NULL "
            "WHERE job_id = ? AND unit_id = ? AND worker = ? AND state = ?",
            (
                UNIT_DONE, skip_reason, total_bits,
                json.dumps(metrics) if metrics is not None else None,
                json.dumps(planner_meta) if planner_meta is not None else None,
                job_id, unit_id, worker, UNIT_LEASED,
            ),
        )
        self._conn.commit()
        return cursor.rowcount > 0

    def release_unit(
        self, job_id: str, unit_id: str, *, state: str, error: str | None
    ) -> None:
        """Return a unit to the queue (pending) or retire it (failed)."""
        self._conn.execute(
            "UPDATE units SET state = ?, worker = NULL, lease_expiry = NULL, "
            "error = COALESCE(?, error) WHERE job_id = ? AND unit_id = ?",
            (state, error, job_id, unit_id),
        )
        self._conn.commit()

    def expired_units(self, now: float) -> list[dict]:
        rows = self._conn.execute(
            "SELECT * FROM units WHERE state = ? AND lease_expiry < ?",
            (UNIT_LEASED, now),
        ).fetchall()
        return [dict(row) for row in rows]

    def rearm_leases(self, expiry: float) -> int:
        """Reset every live lease's expiry; returns how many were re-armed.

        Lease expiries are monotonic-clock readings, which are meaningless
        across process restarts (each boot has its own epoch); a restarted
        scheduler re-arms persisted leases against its own clock so stale
        timestamps can neither mass-expire nor immortalise them.
        """
        cursor = self._conn.execute(
            "UPDATE units SET lease_expiry = ? WHERE state = ?",
            (expiry, UNIT_LEASED),
        )
        self._conn.commit()
        return cursor.rowcount

    def dead_letter_units(self, job_id: str | None = None) -> list[dict]:
        """Attempt-exhausted (failed) units — the dead-letter queue."""
        if job_id is None:
            rows = self._conn.execute(
                "SELECT units.* FROM units JOIN jobs "
                "ON jobs.job_id = units.job_id WHERE units.state = ? "
                "ORDER BY jobs.seq, units.rowid",
                (UNIT_FAILED,),
            ).fetchall()
        else:
            rows = self._conn.execute(
                "SELECT * FROM units WHERE job_id = ? AND state = ? "
                "ORDER BY rowid",
                (job_id, UNIT_FAILED),
            ).fetchall()
        return [dict(row) for row in rows]

    def dead_letter_count(self) -> int:
        row = self._conn.execute(
            "SELECT COUNT(*) FROM units WHERE state = ?", (UNIT_FAILED,)
        ).fetchone()
        return int(row[0])

    def requeue_unit(self, job_id: str, unit_id: str) -> bool:
        """Return a dead-lettered unit to the queue with a fresh attempt
        budget; False when the unit is not in the dead-letter state."""
        cursor = self._conn.execute(
            "UPDATE units SET state = ?, attempts = 0, worker = NULL, "
            "lease_expiry = NULL, error = NULL WHERE job_id = ? AND "
            "unit_id = ? AND state = ?",
            (UNIT_PENDING, job_id, unit_id, UNIT_FAILED),
        )
        self._conn.commit()
        return cursor.rowcount > 0

    def cancel_pending_units(self, job_id: str) -> int:
        cursor = self._conn.execute(
            "UPDATE units SET state = ? WHERE job_id = ? AND state IN (?, ?)",
            (UNIT_CANCELLED, job_id, UNIT_PENDING, UNIT_LEASED),
        )
        self._conn.commit()
        return cursor.rowcount

    # ----------------------------------------------------------- trials

    def add_trials(self, job_id: str, rows: list[tuple]) -> int:
        """Ingest ``(key, wpos, round, workload, point, idx, status,
        entry_json)`` rows idempotently; returns how many were new."""
        cursor = self._conn.executemany(
            "INSERT OR IGNORE INTO trials "
            "(job_id, key, wpos, round, workload, point, idx, status, entry) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            [(job_id, *row) for row in rows],
        )
        self._conn.commit()
        return cursor.rowcount

    def outcome_counts(self, job_id: str) -> dict[str, int]:
        rows = self._conn.execute(
            "SELECT status, COUNT(*) AS n FROM trials WHERE job_id = ? "
            "GROUP BY status",
            (job_id,),
        ).fetchall()
        return {row["status"]: row["n"] for row in rows}

    def workload_outcome_counts(self, job_id: str) -> dict[str, dict[str, int]]:
        rows = self._conn.execute(
            "SELECT workload, status, COUNT(*) AS n FROM trials "
            "WHERE job_id = ? GROUP BY workload, status "
            "ORDER BY MIN(wpos)",
            (job_id,),
        ).fetchall()
        counts: dict[str, dict[str, int]] = {}
        for row in rows:
            counts.setdefault(row["workload"], {})[row["status"]] = row["n"]
        return counts

    def trial_count(
        self, job_id: str, status: str | None = None,
        workload: str | None = None,
    ) -> int:
        clauses = ["job_id = ?"]
        params: list[Any] = [job_id]
        if status is not None:
            clauses.append("status = ?")
            params.append(status)
        if workload is not None:
            clauses.append("workload = ?")
            params.append(workload)
        row = self._conn.execute(
            f"SELECT COUNT(*) FROM trials WHERE {' AND '.join(clauses)}",
            params,
        ).fetchone()
        return int(row[0])

    def trial_entries(
        self, job_id: str, *, offset: int = 0, limit: int = 100,
        status: str | None = None, workload: str | None = None,
    ) -> list[dict]:
        """Trial journal entries in serial order — (workload, round,
        point, index); uniform jobs have every trial at round 0, so
        their order is the historical (workload, point, index)."""
        clauses = ["job_id = ?"]
        params: list[Any] = [job_id]
        if status is not None:
            clauses.append("status = ?")
            params.append(status)
        if workload is not None:
            clauses.append("workload = ?")
            params.append(workload)
        params.extend([limit, offset])
        rows = self._conn.execute(
            f"SELECT entry FROM trials WHERE {' AND '.join(clauses)} "
            f"ORDER BY wpos, round, point, idx LIMIT ? OFFSET ?",
            params,
        ).fetchall()
        return [json.loads(row["entry"]) for row in rows]

    # ---------------------------------------------------- planner state

    def planner_state(self, job_id: str, workload: str) -> dict | None:
        """The scheduler's per-workload adaptive-planning state."""
        row = self._conn.execute(
            "SELECT state FROM planner_state WHERE job_id = ? AND "
            "workload = ?",
            (job_id, workload),
        ).fetchone()
        return json.loads(row["state"]) if row is not None else None

    def set_planner_state(
        self, job_id: str, workload: str, state: dict
    ) -> None:
        self._conn.execute(
            "INSERT OR REPLACE INTO planner_state (job_id, workload, state) "
            "VALUES (?, ?, ?)",
            (job_id, workload, json.dumps(state)),
        )
        self._conn.commit()
