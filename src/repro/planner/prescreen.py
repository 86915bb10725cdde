"""Masking-equivalence prescreen: provably-dead injections, no simulation.

The arch campaign flips one bit of the register an injection-point
instruction just wrote. If, scanning the golden trace forward from the
injection, the *first* instruction that touches that register overwrites
it without reading it, the flip is dead for every bit: no instruction in
between consumed the corrupt value, so every fetch, operand, branch
decision, memory address, store datum, and exception check is identical
to golden; at the overwriting instruction the register heals to exactly
golden's value (its own inputs are clean), and the trial mirrors golden
to the halt. The outcome is the masked record — all symptom latencies
``None``, ``failing=False`` — that full simulation would produce, which
the differential tests verify kernel by kernel.

Two guards keep the proof honest:

- ``trace.halted`` must hold. A golden run stopped by the instruction
  limit leaves the trial running past the traced window, where the
  campaign's runaway/final-state checks apply — not provable statically.
- The golden run must not store into any executed code page (the same
  modifies-code guard the lockstep scheduler uses before trusting
  per-PC metadata): otherwise the traced words could differ from the
  ones ``trace.final_memory`` holds.

Read and write sets are the decoder's ``source_regs`` and ``dest_reg``
(:class:`~repro.isa.instructions.PredecodedInst`, as in the lockstep
look-ahead). A discarded-result instruction (non-trapping, destination
R31) thus counts as reading its sources although it changes nothing.
That is sound: such a read keeps the point live, so it is simulated
instead of proved dead. None of the seven kernels' 300 static
instructions is of this kind, at scale 1 or 4.

The memory-byte analogue (store overwritten before the next load) is
deliberately out of scope: the arch fault model only flips registers,
and a store of a corrupt register already trips the store-data
comparator before any liveness argument could apply.

Classification is per *point*, not per trial — bit-independent — so one
cheap trace scan retires every trial of a dead point at once.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable

from repro.faults.lockstep import (
    golden_modifies_code,
    register_touch_steps,
    written_register,
)


def _first_after(steps: list[int] | None, step: int) -> int | None:
    if not steps:
        return None
    i = bisect_right(steps, step)
    return steps[i] if i < len(steps) else None


def prescreen_dead_points(trace, points: Iterable[int]) -> set[int]:
    """The subset of injection ``points`` whose register flip is provably
    masked — destination overwritten before the next read, golden halted.

    Conservative by construction: any point it cannot prove dead (no
    later touch, a read-first touch, an instruction that reads its own
    destination, a non-halting golden run, self-modifying code) stays
    live and is simulated normally. Returns the empty set rather than
    guessing whenever the guards fail.
    """
    candidates = sorted(set(points))
    if not candidates or not trace.halted:
        return set()
    if golden_modifies_code(trace):
        return set()
    memory = trace.final_memory
    reads, writes = register_touch_steps(trace, memory)
    dead: set[int] = set()
    for point in candidates:
        dest = written_register(trace, memory, point)
        if dest is None:  # pragma: no cover - writer_steps guarantees one
            continue
        next_write = _first_after(writes.get(dest), point)
        if next_write is None:
            continue  # never healed: the corrupt register survives to the end
        next_read = _first_after(reads.get(dest), point)
        if next_read is not None and next_read <= next_write:
            continue  # the corrupt value is consumed (or merged) first
        dead.add(point)
    return dead
