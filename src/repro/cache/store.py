"""The content-addressed golden-artifact store.

Every campaign shard, service worker, and resumed run needs the same
expensive preamble before it can inject a single fault: run the workload
fault-free (the *golden* run), derive the comparator indices, and bring a
prefix simulator to each injection point. None of that work depends on
which process performs it — it is a pure function of the program bytes
and the scientific configuration — so this module memoizes it on disk,
once per ``(program, config)`` across every process that shares it. Arch
entries carry periodic architectural snapshots to fast-forward from;
uarch entries carry a full machine checkpoint at every injection point,
which the prefix pipeline restores instead of re-simulating.

Keying
------

An entry's file name is its address::

    <level>-<program-digest>-<config-digest>-v<schema>.pkl

- *program digest* — SHA-256 over the program's segments (name, base,
  raw bytes) and entry point. Any change to the workload's machine code
  or layout produces a different key.
- *config digest* — :func:`repro.util.journal.stable_digest` of the full
  campaign configuration, the same digest the journal manifest records.
  Any knob change (seed, scale, trial counts, fault model …) produces a
  different key. This is deliberately conservative: some knobs cannot
  affect the golden artifacts, but a useless miss is always safe while a
  false hit never is.
- *schema version* — bumped whenever the pickled payload shape changes,
  so an upgraded tool never misreads an old entry.

Atomicity and corruption
------------------------

Writers serialize to a private temporary file in the cache directory and
publish with :func:`os.replace`, so concurrent workers racing to
populate one key each produce a complete entry and the last rename wins
(every racer computed identical bytes anyway). A reader that finds a
truncated, corrupt, or schema-mismatched entry treats it as a miss and
recomputes, surfacing a :class:`CacheCorruptionWarning` — mirroring the
journal's :class:`~repro.util.journal.JournalTearWarning` semantics: a
damaged artifact is an observation, never an error. Cache *write*
failures (read-only directory, disk full) degrade the same way: the
campaign proceeds uncached.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.util.journal import config_to_dict, stable_digest

if TYPE_CHECKING:
    from repro.arch.memory import SparseMemory
    from repro.arch.tracing import ExecutionTrace
    from repro.isa.program import Program
    from repro.uarch.pipeline import PipelineCheckpoint

#: Bumped whenever the pickled artifact layout changes; part of the key,
#: so old entries become unreachable (and reclaimable via ``cache clear``)
#: rather than misread.
SCHEMA_VERSION = 4


class CacheCorruptionWarning(UserWarning):
    """A cache entry is unreadable or inconsistent; it was treated as a
    miss and the golden artifacts were recomputed."""


def program_digest(program: "Program") -> str:
    """A stable content digest of a program's machine code and layout."""
    digest = hashlib.sha256()
    for segment in program.segments:
        digest.update(segment.name.encode())
        digest.update(segment.base.to_bytes(8, "little"))
        digest.update(len(segment.data).to_bytes(8, "little"))
        digest.update(bytes(segment.data))
    digest.update(program.entry_point.to_bytes(8, "little"))
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class ArchGoldenArtifact:
    """Everything an arch-campaign workload derives before its first trial:
    the golden trace, with its periodic architectural snapshots and the
    per-step memory-operation prefix counts recorded while it ran (schema
    v2 — v1 entries carried separately re-decoded counts and miss
    cleanly)."""

    trace: "ExecutionTrace"


@dataclass(frozen=True)
class UarchGoldenArtifact:
    """The cacheable outputs of both uarch golden pipeline runs.

    ``snapshots`` and ``retired_at`` hold golden's injectable state and
    retired count at each trial-end cycle (``point + window``), for the
    latent-state check. ``hc_mispredicts`` holds the ``(cycle, retired)``
    of every ``hc_mispredict`` symptom golden fired (schema v3): a lockstep
    shadow that heals fires golden's symptoms for the rest of its window.
    ``checkpoints`` maps each injection point to golden's full machine
    state there (schema v4): while no shadow is live, the campaign's
    prefix pipeline restores the next point's checkpoint instead of
    stepping to it."""

    end_cycle: int
    retired: list
    snapshots: dict[int, list[int]]
    retired_at: dict[int, int]
    final_arch_regs: list[int]
    final_memory: "SparseMemory"
    hc_mispredicts: tuple[tuple[int, int], ...]
    checkpoints: dict[int, "PipelineCheckpoint"]


@dataclass
class CacheStats:
    """One directory's contents plus this process's hit/miss tallies."""

    root: str
    entries: int = 0
    total_bytes: int = 0
    by_level: dict = field(default_factory=dict)
    hits: int = 0
    misses: int = 0


class GoldenArtifactCache:
    """A content-addressed on-disk store of golden-run artifacts.

    One instance may be shared across every workload of a campaign run;
    the on-disk directory may be shared across processes, machines with a
    common filesystem, and CI jobs. All failure modes degrade to cache
    misses — a campaign with a broken cache directory produces exactly
    the journal it would have produced with no cache at all.
    """

    def __init__(self, root: str):
        if not root:
            raise ValueError("cache root must be a non-empty path")
        self.root = root
        self.hits = 0
        self.misses = 0

    # -------------------------------------------------------------- keying

    def entry_path(self, level: str, program: "Program", config: Any) -> str:
        key = (
            f"{level}-{program_digest(program)}-"
            f"{stable_digest(config_to_dict(config))}-v{SCHEMA_VERSION}"
        )
        return os.path.join(self.root, f"{key}.pkl")

    # ------------------------------------------------------------ load/store

    def load(self, level: str, program: "Program", config: Any):
        """The cached artifact for ``(program, config)``, or ``None``.

        Anything short of a well-formed, schema-matching entry — missing
        file, torn write from a pre-atomic tool, pickle from a different
        library version — counts as a miss; damage is reported as a
        :class:`CacheCorruptionWarning`, never raised.
        """
        path = self.entry_path(level, program, config)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
            if not isinstance(payload, dict):
                raise ValueError(f"unexpected payload type {type(payload)!r}")
            if payload.get("schema") != SCHEMA_VERSION:
                raise ValueError(
                    f"schema {payload.get('schema')!r} != {SCHEMA_VERSION}"
                )
            artifact = payload["artifact"]
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception as exc:
            warnings.warn(
                f"{path}: corrupt or incompatible cache entry "
                f"({type(exc).__name__}: {exc}); recomputing golden artifacts",
                CacheCorruptionWarning,
                stacklevel=2,
            )
            self.misses += 1
            return None
        self.hits += 1
        return artifact

    def store(
        self, level: str, program: "Program", config: Any, artifact: Any
    ) -> bool:
        """Publish an artifact atomically; False (with a warning) on failure.

        Single-writer semantics come from the private temporary file:
        racing writers never interleave bytes, and ``os.replace`` makes
        the entry appear complete or not at all.
        """
        path = self.entry_path(level, program, config)
        # The temp name must be private to this *writer*, not just this
        # process: worker threads sharing a PID would otherwise interleave
        # on one temp file and publish a torn entry.
        tmp_path = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
        try:
            os.makedirs(self.root, exist_ok=True)
            with open(tmp_path, "wb") as handle:
                pickle.dump(
                    {"schema": SCHEMA_VERSION, "artifact": artifact},
                    handle,
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            os.replace(tmp_path, path)
        except Exception as exc:
            warnings.warn(
                f"{path}: could not write cache entry "
                f"({type(exc).__name__}: {exc}); campaign continues uncached",
                CacheCorruptionWarning,
                stacklevel=2,
            )
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            return False
        return True

    # ---------------------------------------------------------- maintenance

    def stats(self) -> CacheStats:
        """Directory contents plus this process's hit/miss counters."""
        stats = CacheStats(root=self.root, hits=self.hits, misses=self.misses)
        for name, size in self._entries():
            stats.entries += 1
            stats.total_bytes += size
            level = name.split("-", 1)[0]
            stats.by_level[level] = stats.by_level.get(level, 0) + 1
        return stats

    def clear(self) -> int:
        """Delete every cache entry (and stray temp file); returns count."""
        removed = 0
        try:
            names = os.listdir(self.root)
        except FileNotFoundError:
            return 0
        for name in names:
            if not (name.endswith(".pkl") or ".pkl.tmp." in name):
                continue
            try:
                os.unlink(os.path.join(self.root, name))
                removed += 1
            except OSError:
                continue
        return removed

    def _entries(self):
        try:
            names = os.listdir(self.root)
        except FileNotFoundError:
            return
        for name in sorted(names):
            if not name.endswith(".pkl"):
                continue
            try:
                size = os.path.getsize(os.path.join(self.root, name))
            except OSError:
                continue
            yield name, size


def format_cache_stats(stats: CacheStats) -> str:
    """A human-readable ``repro cache stats`` report."""
    lines = [
        f"cache: {stats.root}",
        f"entries: {stats.entries} ({stats.total_bytes / 1024:.1f} KiB)",
    ]
    for level in sorted(stats.by_level):
        lines.append(f"  {level}: {stats.by_level[level]} entr"
                     f"{'y' if stats.by_level[level] == 1 else 'ies'}")
    return "\n".join(lines)
