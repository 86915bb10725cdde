"""Lockstep batch-trial execution against one golden pass.

The serial arch campaign (:func:`repro.faults.arch_campaign._run_trial`)
forks the prefix simulator once per trial and steps the fork through its
whole post-injection window, even though most faulty executions either
re-converge with golden within a few instructions (masking) or never
touch the corrupted register again (silent corruption). This module runs
every trial of a workload *against one golden execution*: the golden
simulator walks forward once, and each live trial is represented not as
a second machine but as a **dirty-state overlay** — the set of registers
and memory bytes where the trial differs from golden, with the trial's
values.

The key observation (OpenSEA's pruning idea, applied dynamically): while
a trial's control flow matches golden, any instruction whose inputs are
all *clean* (no dirty register, no dirty memory byte, instruction word
itself unmodified) produces exactly golden's outputs. Such steps need no
simulation at all — a write to a dirty register heals it, an identical
store heals dirty bytes under it, and nothing else changes. Only
*dirty-input* steps are executed, and by the simulator's own code:
golden's compiled closure for the word
(:meth:`~repro.arch.simulator.ArchSimulator.compiled`) runs on a shadow
view whose registers are ``overlay ∪ golden`` and whose memory reads
golden's image through the trial's dirty bytes. One copy of the ISA's
semantics thus serves golden runs, serial trials and shadows alike; this
module only keeps the overlay bookkeeping.

Three things can end a trial's shadow (overlay) life:

- **convergence** — the overlay empties: the trial's architectural state
  equals golden's at the same retired index, so its remaining window is
  provably identical to golden's and the trial retires early (masked,
  unless a memop latency already fired);
- **a terminal event** — an ISA exception in a dirty step, or golden's
  own halt (the trial halts in lockstep; it fails iff the overlay is
  non-empty);
- **divergence** — a dirty branch or jump resolves to a different PC, or
  a dirty byte lands under an instruction word the trial is about to
  fetch. The trial then *materializes*: a private simulator is built
  from golden's state patched with the overlay (memory via the
  copy-on-write :meth:`~repro.arch.memory.SparseMemory.clone_cow`), and
  runs out its remaining window exactly as the serial loop would.

Between events, trials *sleep*: per-register touch indices and
memop/fetch chunk indices precomputed from the golden trace tell each
trial the next step that could read, write, or overwrite any of its
dirty state, and the golden simulator fast-forwards (batch ``run()``)
to the next event. A trial whose dirty register is never touched again
costs nothing until the end of the trace. The precomputed look-ahead is
only sound while the traced instruction words cannot change, so it is
disabled (every round processed individually) when any golden store
lands in a page instructions were fetched from.

Latency bookkeeping is preserved exactly: memop address/data latencies
fire during dirty memory steps with the same comparisons the serial
loop performs; control-flow divergence and exception latencies fall out
of the materialized continuation. The scheduler is validated
field-for-field against the serial twin (``tests/test_lockstep.py``),
and journals are byte-identical.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush

from repro.arch.exceptions import AccessViolation, IsaException
from repro.arch.memory import PAGE_SHIFT, PageProtection
from repro.arch.simulator import ArchSimulator, StopReason
from repro.faults.classify import ArchTrialResult
from repro.isa.encoding import decode_word
from repro.isa.instructions import PredecodedInst
from repro.util.bitops import flip_bit

# A step index larger than any trace can reach (max_instructions is an
# int well below this): "this trial never wakes again".
_NEVER = 1 << 62


@dataclass
class LockstepStats:
    """Where the lockstep scheduler's time went (for tests and tuning)."""

    forks: int = 0
    early_retired: int = 0  # overlay emptied before golden ended
    halted_in_lockstep: int = 0  # reached golden's halt still shadowed
    finalized_asleep: int = 0  # dirty state never touched again
    materialized: int = 0  # diverged; private simulator built
    excepted: int = 0  # a dirty step raised: terminal ISA exception
    dirty_steps: int = 0  # shadow steps run through golden's closure
    clean_wakes: int = 0  # shadow steps resolved by heal bookkeeping
    solo_steps: int = 0  # per-step serial-equivalent continuation
    batched_steps: int = 0  # continuation steps run in batch mode


class _MetaCache:
    """PC-keyed decoded instructions over the golden memory, text-page
    entries cached.

    Mirrors the simulator's pre-decode policy: only read-only pages are
    cached (ordinary stores cannot rewrite them), and the cache is
    dropped when the image version changes. Fetches from writable pages
    re-read and re-decode every time, so self-modifying golden code sees
    exactly the word it executed.
    """

    def __init__(self, memory):
        self._memory = memory
        self._version = memory.image_version
        self._by_pc: dict[int, PredecodedInst] = {}

    def at(self, pc: int) -> PredecodedInst:
        memory = self._memory
        if self._version != memory.image_version:
            self._by_pc.clear()
            self._version = memory.image_version
        inst = self._by_pc.get(pc)
        if inst is None:
            inst = PredecodedInst(decode_word(memory.read(pc, 4)))
            if memory.protection_at(pc) is PageProtection.READ_ONLY:
                self._by_pc[pc] = inst
        return inst


def golden_modifies_code(trace) -> bool:
    """Does the golden run store into a page it fetched instructions from?

    Per-PC metadata decoded from memory describes every execution of that
    PC only while the traced instruction words are immutable; both the
    scheduler's look-ahead and the prescreen refuse to trust it otherwise.
    """
    executed = {pc >> PAGE_SHIFT for pc in trace.pcs}
    return any(
        kind == "S" and (addr >> PAGE_SHIFT) in executed
        for kind, addr, _value in trace.memops
    )


def register_touch_steps(
    trace, memory
) -> tuple[dict[int, list[int]], dict[int, list[int]]]:
    """Per-register read-step and write-step indices over a golden trace.

    A finer-grained sibling of the engine's combined touch-step lookahead:
    where the scheduler only needs "when is this register touched next",
    the masking-equivalence prescreen (:mod:`repro.planner.prescreen`)
    needs to know whether that first touch *reads* the register (the
    fault propagates) or *overwrites* it without reading (the fault is
    provably dead). ``memory`` must hold the traced instruction words —
    callers are responsible for ruling out self-modifying golden code
    first with :func:`golden_modifies_code`, exactly as the lookahead
    path does.

    Returns ``(reads, writes)``: register -> ascending trace-step lists.
    An instruction that both reads and writes a register (e.g. ``addq
    r1, r2, r1``, or any CMOV, whose result merges the old destination)
    appears in both lists at the same step.
    """
    metas = _MetaCache(memory)
    by_pc: dict[int, PredecodedInst] = {}
    reads: dict[int, list[int]] = {}
    writes: dict[int, list[int]] = {}
    for i, pc in enumerate(trace.pcs):
        inst = by_pc.get(pc)
        if inst is None:
            inst = by_pc[pc] = metas.at(pc)
        for r in inst.source_regs:
            lst = reads.get(r)
            if lst is None:
                lst = reads[r] = []
            lst.append(i)
        dest = inst.dest_reg
        if dest is not None:
            lst = writes.get(dest)
            if lst is None:
                lst = writes[dest] = []
            lst.append(i)
    return reads, writes


def written_register(trace, memory, step: int) -> int | None:
    """The destination register of the instruction at trace ``step``.

    Returns None for non-writing instructions (never the case for a step
    drawn from ``trace.writer_steps``). Same immutable-code caveat as
    :func:`register_touch_steps`.
    """
    return _MetaCache(memory).at(trace.pcs[step]).dest_reg


class _Shadow:
    """One live trial as a dirty-state overlay on the golden machine."""

    __slots__ = ("point", "index", "bit", "regs", "mem", "memaddr", "memdata")

    def __init__(self, point: int, index: int, bit: int, dest: int,
                 flipped: int):
        self.point = point
        self.index = index
        self.bit = bit
        self.regs: dict[int, int] = {dest: flipped}
        self.mem: dict[int, int] = {}
        self.memaddr: int | None = None
        self.memdata: int | None = None


class _ShadowView:
    """What golden's compiled closure sees when it runs a dirty step:
    golden's registers with the trial's overlay applied (``regs``), and
    golden's memory image through the trial's dirty bytes (``memory``).
    """

    __slots__ = ("regs", "memory", "last_dest", "last_memop")

    def __init__(self, golden_memory):
        self.regs = [0] * 32
        self.memory = _ShadowMemory(golden_memory)
        self.last_dest = -1
        self.last_memop: tuple[str, int, int] | None = None


class _ShadowMemory:
    """Golden's image as one trial sees it: a read patches in the trial's
    dirty bytes (``mem``), and a write only checks the page, raising the
    :class:`AccessViolation` a real store would. The closure reports the
    store itself through ``last_memop``; golden's image is never written.
    """

    __slots__ = ("golden", "mem")

    def __init__(self, golden):
        self.golden = golden
        self.mem: dict[int, int] = {}

    def read(self, address: int, size: int) -> int:
        raw = self.golden.read(address, size)
        mem = self.mem
        return _patch_int(raw, address, size, mem) if mem else raw

    def write(self, address: int, size: int, value: int) -> None:
        protection = self.golden.protection_at(address)
        if protection is None:
            raise AccessViolation(address, "write")
        if protection is PageProtection.READ_ONLY:
            raise AccessViolation(address, "write-protected")


# Dispositions returned by round processing for one shadow trial.
_KEEP, _DONE = 0, 1

# The staged action of a step that reads no dirty state.
_CLEAN: tuple = ()


def run_lockstep_trials(
    config,
    workload: str,
    trace,
    memop_counts: list[int],
    prefix: ArchSimulator,
    plan: list[tuple[int, list[tuple[int, int]]]],
    stats: LockstepStats | None = None,
) -> dict[tuple[int, int], ArchTrialResult]:
    """Run every planned trial of one workload in lockstep against golden.

    ``plan`` lists, per sorted injection point, the pending
    ``(index, bit)`` trials. ``prefix`` is the golden simulator positioned
    at or before the first planned point (it is consumed: the golden walk
    advances it). Returns a complete ``(point, index) ->``
    :class:`~repro.faults.classify.ArchTrialResult` mapping whose records
    are field-for-field identical to the serial twin's.
    """
    engine = _Engine(config, workload, trace, memop_counts, prefix,
                     stats if stats is not None else LockstepStats())
    return engine.run(plan)


class _Engine:
    def __init__(self, config, workload, trace, memop_counts, golden, stats):
        self.config = config
        self.workload = workload
        self.trace = trace
        self.pcs: list[int] = trace.pcs
        self.memops = trace.memops
        self.memop_counts = memop_counts
        self.length = len(trace.pcs)
        self.halted: bool = trace.halted
        self.golden = golden
        self.stats = stats
        self.metas = _MetaCache(golden.state.memory)
        self.view = _ShadowView(golden.state.memory)
        self.results: dict[tuple[int, int], ArchTrialResult] = {}
        # Look-ahead (sleep) structures; None until built, disabled when
        # golden stores into executed pages (the traced words could change
        # under the precomputed metadata).
        self.sleep_ok = not golden_modifies_code(trace)
        self._touch_steps: dict[int, list[int]] | None = None
        self._fetch_chunks: dict[int, list[int]] | None = None
        self._memop_chunks: dict[int, list[int]] | None = None
        self._memop_step: list[int] | None = None

    # ------------------------------------------------------------ helpers

    def _build_lookahead(self) -> None:
        """Per-register touch indices and memop/fetch chunk indices.

        Sound only while the traced instruction words are immutable
        (``sleep_ok``): the per-PC metadata decoded now describes every
        future execution of that PC.
        """
        touch: dict[int, list[int]] = {}
        fetch: dict[int, list[int]] = {}
        touched_by_pc: dict[int, tuple[tuple[int, ...], bool]] = {}
        metas = self.metas
        memory = self.golden.state.memory
        for i, pc in enumerate(self.pcs):
            cached = touched_by_pc.get(pc)
            if cached is None:
                inst = metas.at(pc)
                regs = set(inst.source_regs)
                if inst.dest_reg is not None:
                    regs.add(inst.dest_reg)
                writable = (
                    memory.protection_at(pc) is not PageProtection.READ_ONLY
                )
                cached = (tuple(regs), writable)
                touched_by_pc[pc] = cached
            regs, writable = cached
            for r in regs:
                lst = touch.get(r)
                if lst is None:
                    lst = touch[r] = []
                lst.append(i)
            if writable:
                # A 4-byte word at a 4-aligned PC sits in one 8-byte chunk.
                lst = fetch.get(pc >> 3)
                if lst is None:
                    lst = fetch[pc >> 3] = []
                lst.append(i)
        chunks: dict[int, list[int]] = {}
        for gm, (_kind, addr, _value) in enumerate(self.memops):
            lst = chunks.get(addr >> 3)
            if lst is None:
                lst = chunks[addr >> 3] = []
            lst.append(gm)
        memop_step = [0] * len(self.memops)
        prev = 0
        for i, count in enumerate(self.memop_counts):
            if count != prev:
                memop_step[count - 1] = i
                prev = count
        self._touch_steps = touch
        self._fetch_chunks = fetch
        self._memop_chunks = chunks
        self._memop_step = memop_step

    def _next_wake(self, shadow: _Shadow, i: int) -> int:
        """First step after ``i`` that can touch this trial's dirty state."""
        wake = _NEVER
        touch = self._touch_steps
        for r in shadow.regs:
            lst = touch.get(r)
            if lst:
                j = bisect_right(lst, i)
                if j < len(lst) and lst[j] < wake:
                    wake = lst[j]
        if shadow.mem:
            chunks = self._memop_chunks
            fetch = self._fetch_chunks
            memop_step = self._memop_step
            next_gm = self.memop_counts[i]
            for chunk in {addr >> 3 for addr in shadow.mem}:
                lst = chunks.get(chunk)
                if lst:
                    j = bisect_left(lst, next_gm)
                    if j < len(lst) and memop_step[lst[j]] < wake:
                        wake = memop_step[lst[j]]
                lst = fetch.get(chunk)
                if lst:
                    j = bisect_right(lst, i)
                    if j < len(lst) and lst[j] < wake:
                        wake = lst[j]
        return wake

    def _result(self, shadow: _Shadow, exception: int | None,
                cfv: int | None, failing: bool) -> None:
        self.results[(shadow.point, shadow.index)] = ArchTrialResult(
            workload=self.workload,
            inject_step=shadow.point,
            bit=shadow.bit,
            exception_latency=exception,
            cfv_latency=cfv,
            memaddr_latency=shadow.memaddr,
            memdata_latency=shadow.memdata,
            failing=failing,
        )

    # ---------------------------------------------------------- main loop

    def run(self, plan) -> dict[tuple[int, int], ArchTrialResult]:
        if not plan:
            return self.results
        if self.sleep_ok:
            self._build_lookahead()
        golden = self.golden
        pending = list(plan)
        pending.reverse()  # pop() from the tail in point order
        heap: list[tuple[int, int, _Shadow]] = []
        active: list[_Shadow] = []  # processed every round (no look-ahead)
        dormant: list[_Shadow] = []  # never woken again before trace end
        seq = 0
        i = golden.retired
        length = self.length
        while True:
            event = pending[-1][0] if pending else _NEVER
            if heap and heap[0][0] < event:
                event = heap[0][0]
            if active and i < event:
                event = i
            if event >= length:
                break
            if event > i:
                golden.run(event - i)
                golden.resume()
                i = event
            woken = active
            if heap:
                while heap and heap[0][0] == i:
                    woken = woken if woken is not active else list(active)
                    woken.append(heappop(heap)[2])
            survivors = self._round(i, woken, heap, dormant)
            if woken is not active or survivors is not None:
                # Re-schedule survivors that stay in per-round mode.
                if self.sleep_ok:
                    for shadow in survivors or ():
                        wake = self._next_wake(shadow, i)
                        if wake >= length:
                            dormant.append(shadow)
                        else:
                            seq += 1
                            heappush(heap, (wake, seq, shadow))
                else:
                    active = survivors or []
            if pending and pending[-1][0] == i:
                point, trials = pending.pop()
                dest = golden.last_dest
                if dest < 0:  # pragma: no cover - writer_steps guarantee
                    raise AssertionError("injection point wrote no register")
                gval = golden.regs[dest]
                for index, bit in trials:
                    shadow = _Shadow(point, index, bit, dest,
                                     flip_bit(gval, bit))
                    self.stats.forks += 1
                    if self.sleep_ok:
                        wake = self._next_wake(shadow, i)
                        if wake >= length:
                            dormant.append(shadow)
                        else:
                            seq += 1
                            heappush(heap, (wake, seq, shadow))
                    else:
                        active.append(shadow)
            i += 1
        # Golden's trace is exhausted (or no trial will ever wake again).
        remaining = active + [entry[2] for entry in heap] + dormant
        if self.halted:
            # Every remaining trial mirrored golden through its halt: it
            # stopped exactly as golden did, with clean control flow, and
            # differs from golden's final state by exactly its overlay.
            for shadow in remaining:
                self.stats.finalized_asleep += 1
                self._result(shadow, None, None,
                             bool(shadow.regs or shadow.mem))
        elif remaining:
            # Golden hit its instruction limit; the serial twin keeps
            # stepping each fork through its slack budget (control-flow
            # divergence fires at the trace boundary). Materialize and do
            # the same.
            if golden.retired < length:
                golden.run(length - golden.retired)
            for shadow in remaining:
                self._solo_from_shadow(
                    shadow, golden.state.pc, length,
                    self.memop_counts[length - 1],
                    self.config.post_injection_slack + 1,
                )
        return self.results

    # ------------------------------------------------------- one round

    def _round(self, i: int, shadows: list[_Shadow], heap, dormant):
        """Execute trace step ``i`` on golden and every active trial.

        Returns the trials still shadowed after this round (None when
        ``shadows`` is empty and only golden stepped).
        """
        golden = self.golden
        if not shadows:
            golden.step()
            return None
        inst = self.metas.at(self.pcs[i])
        closure = golden.compiled(inst.word)
        # Pre-phase: everything that needs golden's pre-step state.
        staged: list[tuple[_Shadow, tuple]] = []
        for shadow in shadows:
            action = self._pre_step(shadow, inst, closure, i)
            if action is not None:
                staged.append((shadow, action))
        golden.step()
        # Post-phase: heals, memop comparisons, divergence checks against
        # golden's post-step state.
        survivors: list[_Shadow] = []
        for shadow, action in staged:
            if self._post_step(shadow, action, inst, i) is _KEEP:
                survivors.append(shadow)
        return survivors

    def _pre_step(self, shadow: _Shadow, inst: PredecodedInst, closure,
                  i: int):
        """Stage trace step ``i`` for one trial (golden not yet stepped).

        ``closure`` is golden's compiled closure for ``inst``.

        Returns ``None`` when the trial completed here (terminal
        exception, or materialized over a modified instruction word),
        ``_CLEAN`` when no input is dirty, and otherwise the dirty step's
        outputs ``(dest, value, memop, next_pc, gpre)`` for
        :meth:`_post_step`.
        """
        overlay = shadow.regs
        mem = shadow.mem
        pc = self.pcs[i]
        if mem:
            if (pc in mem or pc + 1 in mem or pc + 2 in mem
                    or pc + 3 in mem):
                # The word this trial is about to execute differs from
                # golden's: shadowing golden's instruction would be wrong.
                self.stats.materialized += 1
                sim = self._materialize(shadow, pc)
                self._solo(
                    shadow, sim, i, self.memop_counts[i - 1],
                    (self.length - i) + self.config.post_injection_slack + 1,
                )
                return None
        dirty = False
        for r in inst.source_regs:
            if r in overlay:
                dirty = True
                break
        if not dirty and mem and inst.is_load:
            gaddr = self.memops[self.memop_counts[i] - 1][1]
            for k in range(inst.access_size):
                if gaddr + k in mem:
                    dirty = True
                    break
        if not dirty:
            self.stats.clean_wakes += 1
            return _CLEAN
        self.stats.dirty_steps += 1
        golden = self.golden
        view = self.view
        regs = view.regs
        regs[:] = golden.regs
        for r, value in overlay.items():
            regs[r] = value
        view.memory.mem = mem
        view.last_dest = -1
        view.last_memop = None
        try:
            next_pc = closure(view, pc)
        except IsaException:
            # The dirty step raised where the serial fork's step() would
            # have: terminal exception at this retired index.
            self.stats.excepted += 1
            self._result(shadow, i - shadow.point, None, True)
            return None
        dest = view.last_dest
        memop = view.last_memop
        gpre = None
        if memop is not None and memop[0] == "S":
            gaddr = self.memops[self.memop_counts[i] - 1][1]
            if gaddr != memop[1]:
                # Golden's bytes under its own store, before it lands.
                gpre = golden.memory.read(gaddr, inst.access_size)
        value = regs[dest] if dest >= 0 else None
        return (dest, value, memop, next_pc, gpre)

    def _post_step(self, shadow: _Shadow, action: tuple,
                   inst: PredecodedInst, i: int) -> int:
        """Settle one staged step against golden's post-step state."""
        golden = self.golden
        overlay = shadow.regs
        mem = shadow.mem
        if action is _CLEAN:
            # All inputs matched golden, so all outputs do too: a written
            # register heals, an identical store heals the bytes under it.
            if overlay:
                overlay.pop(golden.last_dest, None)  # -1 is never a key
            if mem and inst.is_store:
                gaddr = golden.last_memop[1]
                for k in range(inst.access_size):
                    mem.pop(gaddr + k, None)
            if inst.is_halt:
                # The trial halted exactly as golden did (clean control
                # flow throughout); it fails iff any state still differs.
                self.stats.halted_in_lockstep += 1
                self._result(shadow, None, None, bool(overlay or mem))
                return _DONE
        else:
            dest, value, memop, next_pc, gpre = action
            if dest >= 0:
                if value != golden.regs[dest]:
                    overlay[dest] = value
                else:
                    overlay.pop(dest, None)
            if memop is not None:
                gop = golden.last_memop
                self._compare_memop(shadow, memop, gop, i)
                if memop[0] == "S":
                    _merge_store(mem, inst.access_size, memop, gop, gpre,
                                 golden.memory)
            if next_pc != golden.state.pc:
                # Control-flow divergence: materialize and run the serial
                # continuation (the cfv check fires on its first round).
                self.stats.materialized += 1
                sim = self._materialize(shadow, next_pc)
                # The serial loop has consumed (i - point) of its budget by
                # the end of the iteration that executed step i.
                self._solo(
                    shadow, sim, i + 1, self.memop_counts[i],
                    (self.length - i) + self.config.post_injection_slack,
                )
                return _DONE
        if not overlay and not mem and self.halted:
            # Converged: state equals golden's at the same retired index,
            # and golden is known to halt, so the remaining window is
            # provably identical. Retire early.
            self.stats.early_retired += 1
            self._result(shadow, None, None, False)
            return _DONE
        return _KEEP

    def _compare_memop(self, shadow: _Shadow, memop, gop, i: int) -> None:
        kind, address, value = memop
        if shadow.memaddr is None and (kind != gop[0] or address != gop[1]):
            shadow.memaddr = i - shadow.point
        elif (shadow.memdata is None and kind == "S" and address == gop[1]
                and value != gop[2]):
            shadow.memdata = i - shadow.point

    # ------------------------------------------------- materialized path

    def _materialize(self, shadow: _Shadow, pc: int) -> ArchSimulator:
        """A private simulator: golden's current state + this overlay."""
        sim = self.golden.fork(cow=True)
        regs = sim.regs
        for r, value in shadow.regs.items():
            regs[r] = value
        sim.state.pc = pc
        memory = sim.memory
        for address, byte in shadow.mem.items():
            # Overlay bytes only ever cover writable pages (both the
            # trial's and golden's stores respected protection).
            memory.write(address, 1, byte)
        return sim

    def _solo_from_shadow(self, shadow, pc, retired_index, memop_index,
                          budget) -> None:
        self.stats.materialized += 1
        sim = self._materialize(shadow, pc)
        self._solo(shadow, sim, retired_index, memop_index, budget)

    def _solo(self, shadow: _Shadow, sim: ArchSimulator, retired_index: int,
              memop_index: int, budget: int) -> None:
        """The serial window loop, resumed mid-flight for a diverged trial.

        Identical bookkeeping to ``arch_campaign._run_trial``'s loop, with
        one shortcut: once no comparator can fire any more (cfv set, and
        either both memop latencies set or the golden memop stream
        exhausted), the only remaining questions are halt/exception/
        runaway, which the simulator's batch ``run()`` answers directly.
        """
        trace = self.trace
        golden_pcs = self.pcs
        golden_memops = self.memops
        golden_length = self.length
        stats = self.stats
        point = shadow.point
        exception_latency: int | None = None
        cfv_latency: int | None = None
        memaddr_latency = shadow.memaddr
        memdata_latency = shadow.memdata
        memop_total = len(golden_memops)
        solo_start = sim.retired
        batched_before = stats.batched_steps
        running = StopReason.RUNNING
        faulted = StopReason.EXCEPTION
        state = sim.state
        step = sim.step
        while budget > 0 and sim.stop_reason is running:
            if cfv_latency is not None and (
                memop_index >= memop_total
                or (memaddr_latency is not None
                    and memdata_latency is not None)
            ):
                before = sim.retired
                sim.run(budget)
                steps = sim.retired - before
                stats.batched_steps += steps
                if sim.stop_reason is faulted:
                    exception_latency = (retired_index + steps) - point
                break
            budget -= 1
            if cfv_latency is None:
                pc = state.pc
                if (retired_index >= golden_length
                        or golden_pcs[retired_index] != pc):
                    cfv_latency = retired_index - point
            step()
            if sim.stop_reason is not running:
                if sim.stop_reason is faulted:
                    exception_latency = retired_index - point
                break
            memop = sim.last_memop
            if memop is not None:
                if memop_index < memop_total:
                    golden_op = golden_memops[memop_index]
                    if memaddr_latency is None and (
                        memop[0] != golden_op[0] or memop[1] != golden_op[1]
                    ):
                        memaddr_latency = retired_index - point
                    elif (
                        memdata_latency is None
                        and memop[0] == "S"
                        and memop[1] == golden_op[1]
                        and memop[2] != golden_op[2]
                    ):
                        memdata_latency = retired_index - point
                memop_index += 1
            retired_index += 1
        stats.solo_steps += (sim.retired - solo_start) - (
            stats.batched_steps - batched_before
        )
        failing = trial_failed(sim, trace, exception_latency, cfv_latency)
        shadow.memaddr = memaddr_latency
        shadow.memdata = memdata_latency
        self._result(shadow, exception_latency, cfv_latency, failing)


def trial_failed(
    sim: ArchSimulator,
    trace,
    exception_latency: int | None,
    cfv_latency: int | None,
) -> bool:
    """The failing verdict for a trial whose window ended on ``sim``.

    Shared by the serial window loop (``arch_campaign._run_trial``) and
    the scheduler's solo continuation.
    """
    if exception_latency is not None:
        return True
    if sim.running or sim.stop_reason is StopReason.LIMIT:
        # Ran past the golden run without halting: runaway execution.
        return True
    if cfv_latency is not None:
        return True
    if tuple(sim.state.regs) != trace.final_regs:
        return True
    return not sim.state.memory.equals(trace.final_memory)


def _patch_int(raw: int, address: int, size: int, overlay: dict[int, int]) -> int:
    """Apply dirty overlay bytes to a little-endian value read from golden."""
    data = bytearray(raw.to_bytes(size, "little"))
    hit = False
    for k in range(size):
        byte = overlay.get(address + k)
        if byte is not None:
            data[k] = byte
            hit = True
    return int.from_bytes(data, "little") if hit else raw


def _merge_store(mem: dict[int, int], size: int, memop, gop,
                 gpre: int | None, memory) -> None:
    """Fold a dirty step's store into the trial's byte overlay.

    ``memop`` is the trial's store and ``gop`` golden's at the same step;
    ``gpre`` holds golden's bytes under ``gop`` before the step (needed
    only when the two addresses differ) and ``memory`` is golden's image
    after it.
    """
    _kind, address, value = memop
    gaddr = gop[1]
    fork_bytes = value.to_bytes(size, "little")
    gbytes = gop[2].to_bytes(size, "little")
    if address == gaddr:
        for k in range(size):
            if fork_bytes[k] != gbytes[k]:
                mem[address + k] = fork_bytes[k]
            else:
                mem.pop(address + k, None)
        return
    # Golden's store range: the trial did not write here, so its byte is
    # the overlay value or golden's *old* byte.
    gold_before = gpre.to_bytes(size, "little")
    for k in range(size):
        b = gaddr + k
        if address <= b < address + size:
            fork_byte = fork_bytes[b - address]
        else:
            fork_byte = mem.get(b, gold_before[k])
        if fork_byte != gbytes[k]:
            mem[b] = fork_byte
        else:
            mem.pop(b, None)
    # The trial's own range outside golden's: golden's bytes there are
    # unchanged by this step.
    for k in range(size):
        b = address + k
        if gaddr <= b < gaddr + size:
            continue
        if fork_bytes[k] != memory.read(b, 1):
            mem[b] = fork_bytes[k]
        else:
            mem.pop(b, None)
