"""Functional (architectural) simulator.

Executes one instruction per :meth:`ArchSimulator.step`. The hot path is a
two-level cache:

- a *pre-decoded instruction cache* keyed by PC: for text (read-only)
  pages, fetch + decode + operand-extraction collapse to one dictionary
  lookup per dynamic instruction. Entries are validated against the
  memory's ``image_version``, so anything that can rewrite text — the
  loader, or a fault campaign flipping an instruction encoding bit in
  place — invalidates the cache and the next step re-fetches and
  re-decodes honestly;
- a *compiled-closure cache* keyed by word value: each distinct encoding
  compiles once into a closure with the semantics handler, register
  numbers, displacements, and masks already bound (see
  :mod:`repro.isa.semantics`'s dispatch tables), so nothing is re-derived
  per execution. Closures are pure per-word functions and are shared
  across the thousands of forked simulators a campaign creates, and with
  the lockstep scheduler's shadow views (:meth:`ArchSimulator.compiled`).

Closures take ``(sim, pc)`` and return the next PC, so the run loop keeps
the PC in a local and writes ``state.pc`` back only on exit; ``step()``
writes it back every call, so external observers (fault injectors,
trace comparators) always see a consistent machine between steps.

Instructions fetched from writable pages (reachable only via corrupted
control flow) always take the fetch-and-decode path, because a later store
could rewrite them.

Constructing with ``predecode=False`` selects the unoptimised reference
interpreter — fetch, decode, and dispatch through the generic semantics
entry points on every step — kept as the differential-testing anchor for
the fast path (see ``tests/test_perf_differential.py``).

The simulator stops (rather than unwinding) on ISA exceptions: the paper's
virtual-machine study treats an exception as the terminal symptom of a
trial, and the ReStore pipeline model performs its own rollback handling at
a lower level.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable

from repro.arch.exceptions import (
    AlignmentFault,
    ArithmeticTrap,
    IllegalOpcode,
    IsaException,
)
from repro.arch.memory import PageProtection, SparseMemory
from repro.arch.state import ArchState
from repro.arch.tracing import ArchSnapshot, ExecutionTrace
from repro.isa import opcodes as op
from repro.isa import semantics
from repro.isa.encoding import IllegalInstructionError, decode_word
from repro.isa.program import STACK_BYTES, STACK_TOP, Program
from repro.isa.registers import REG_GP, REG_SP
from repro.util.bitops import MASK64


class StopReason(Enum):
    """Why execution is (or is not) stopped."""

    RUNNING = "running"
    HALTED = "halted"
    EXCEPTION = "exception"
    LIMIT = "limit"


class _HaltSignal(Exception):
    """Raised by the compiled HALT closure; never escapes this module."""


_Closure = Callable[["ArchSimulator", int], int]


class ArchSimulator:
    """One-instruction-per-step functional simulator."""

    def __init__(
        self,
        state: ArchState,
        shared_closures: dict[int, _Closure] | None = None,
        predecode: bool = True,
    ):
        self.state = state
        # The register list and memory image have stable identity for the
        # lifetime of a simulator (state restores slice-assign in place),
        # so closures reach them through one attribute load instead of two.
        self.regs = state.regs
        self.memory = state.memory
        self.retired = 0
        self.stop_reason = StopReason.RUNNING
        self.exception: IsaException | None = None
        # Per-step outputs for external comparators, valid after step():
        # the memory access ("L"|"S", address, value) and destination
        # register (or -1). Batch run() loops do not maintain them.
        self.last_memop: tuple[str, int, int] | None = None
        self.last_dest = -1
        self.predecode = predecode
        # Compiled closures are pure per-word functions, so campaigns share
        # one cache across the thousands of simulator instances they create.
        self._closures = shared_closures if shared_closures is not None else {}
        # PC-keyed pre-decoded instruction cache over text pages, valid
        # while the memory image's version is unchanged. Forks share it
        # copy-on-write (``_predecode_shared``): entries are pure per-word
        # closures over read-only text, so sharers with the same image
        # version see the same bytes; any text rewrite bumps the version,
        # and the rewriter detaches before touching the dict.
        self._predecoded: dict[int, _Closure] = {}
        self._predecode_shared = False
        self._predecode_version = state.memory.image_version

    def fork(self, cow: bool = False) -> "ArchSimulator":
        """An independent copy of the current machine (for fault trials).

        With ``cow=True`` the memory image is a copy-on-write clone
        (:meth:`~repro.arch.memory.SparseMemory.clone_cow`): pages stay
        shared until either machine writes them, so forking is O(pages)
        instead of O(bytes). Architecturally both forms are identical.
        """
        memory = self.state.memory
        state = ArchState(
            regs=list(self.state.regs),
            pc=self.state.pc,
            memory=memory.clone_cow() if cow else memory.clone(),
        )
        copy = ArchSimulator(
            state, shared_closures=self._closures, predecode=self.predecode
        )
        # The clone's text bytes and version match ours, so the PC cache is
        # shared rather than copied; both sides mark it shared so whichever
        # machine first sees a text rewrite detaches instead of clearing the
        # dict out from under the other (see _invalidate_predecoded).
        copy._predecoded = self._predecoded
        copy._predecode_version = self._predecode_version
        if self.predecode:
            self._predecode_shared = True
            copy._predecode_shared = True
        return copy

    def _invalidate_predecoded(self, image_version: int) -> None:
        """Drop stale PC-cache entries after a text image change.

        A fork-shared cache is abandoned, not cleared: the other sharers'
        text is unchanged (their image version still matches), so their
        entries remain valid and must not be destroyed — and entries this
        machine would compile from its rewritten text must not leak to
        them.
        """
        if self._predecode_shared:
            self._predecoded = {}
            self._predecode_shared = False
        else:
            self._predecoded.clear()
        self._predecode_version = image_version

    # ------------------------------------------------------------- running

    @property
    def running(self) -> bool:
        return self.stop_reason is StopReason.RUNNING

    def step(self) -> int:
        """Execute one instruction; returns its PC (or -1 when stopped)."""
        if self.stop_reason is not StopReason.RUNNING:
            return -1
        state = self.state
        pc = state.pc
        self.last_memop = None
        self.last_dest = -1
        try:
            if self.predecode:
                memory = self.memory
                if self._predecode_version != memory.image_version:
                    self._invalidate_predecoded(memory.image_version)
                closure = self._predecoded.get(pc)
                if closure is None:
                    closure = self._fetch_closure(pc, memory)
                state.pc = closure(self, pc)
            else:
                self._step_reference(pc)
        except _HaltSignal:
            self.stop_reason = StopReason.HALTED
        except IsaException as exc:
            if exc.pc is None:
                exc.pc = pc
            self.exception = exc
            self.stop_reason = StopReason.EXCEPTION
            return pc
        self.retired += 1
        return pc

    def _fetch_closure(self, pc: int, memory: SparseMemory) -> _Closure:
        """Fetch + compile on a PC-cache miss; cache text-page fetches.

        Only instructions on read-only pages enter the PC cache: ordinary
        stores cannot rewrite them, so a cached entry can only go stale
        through the loader/injection route, which bumps ``image_version``.
        Fetches from writable pages (reachable only via corrupted control
        flow) are re-read every step.
        """
        if pc & 3:
            raise AlignmentFault(pc, 4, pc=pc)
        closure = self.compiled(memory.read(pc, 4))
        if memory.protection_at(pc) is PageProtection.READ_ONLY:
            self._predecoded[pc] = closure
        return closure

    def compiled(self, word: int) -> _Closure:
        """The shared compiled closure for instruction ``word``.

        A closure touches only ``regs``, ``memory.read``/``write``,
        ``last_dest`` and ``last_memop`` of the object it is called with,
        and returns the next PC or raises an :class:`IsaException` (HALT
        raises a signal only this class catches). So it runs on any
        object with those attributes, such as a lockstep shadow view.
        """
        closure = self._closures.get(word)
        if closure is None:
            closure = self._closures[word] = self._compile(word)
        return closure

    def run(self, max_instructions: int) -> StopReason:
        """Run until halt, exception, or the instruction budget is spent."""
        if self.stop_reason is not StopReason.RUNNING:
            return self.stop_reason
        if not self.predecode:
            budget = max_instructions
            step = self.step
            while budget > 0 and self.stop_reason is StopReason.RUNNING:
                step()
                budget -= 1
            if self.stop_reason is StopReason.RUNNING:
                self.stop_reason = StopReason.LIMIT
            return self.stop_reason
        # Fast path: the step loop inlined with the PC in a local. Nothing
        # a closure executes can remap or reload text, so the image-version
        # check hoists out of the loop; HALT arrives as an exception so the
        # loop condition is just the budget.
        state = self.state
        memory = self.memory
        if self._predecode_version != memory.image_version:
            self._invalidate_predecoded(memory.image_version)
        lookup = self._predecoded.get
        fetch = self._fetch_closure
        pc = state.pc
        budget = max_instructions
        retired = 0
        try:
            while budget > 0:
                closure = lookup(pc)
                if closure is None:
                    closure = fetch(pc, memory)
                pc = closure(self, pc)
                retired += 1
                budget -= 1
        except _HaltSignal:
            retired += 1
            self.stop_reason = StopReason.HALTED
        except IsaException as exc:
            if exc.pc is None:
                exc.pc = pc
            self.exception = exc
            self.stop_reason = StopReason.EXCEPTION
        state.pc = pc
        self.retired += retired
        if self.stop_reason is StopReason.RUNNING:
            self.stop_reason = StopReason.LIMIT
        return self.stop_reason

    def resume(self) -> None:
        """Clear a LIMIT stop so the simulator can continue."""
        if self.stop_reason is StopReason.LIMIT:
            self.stop_reason = StopReason.RUNNING

    def run_with_trace(
        self, max_instructions: int, snapshot_every: int = 0
    ) -> ExecutionTrace:
        """Run while recording the golden trace used by fault campaigns.

        With ``snapshot_every`` > 0, a full architectural checkpoint
        (:class:`~repro.arch.tracing.ArchSnapshot`) is captured every that
        many retired instructions, letting later prefix walks fast-forward
        to an injection point instead of re-executing from reset.
        """
        trace = ExecutionTrace()
        pcs = trace.pcs
        memops = trace.memops
        writers = trace.writer_steps
        memop_counts = trace.memop_counts
        budget = max_instructions
        step = self.step
        while budget > 0 and self.stop_reason is StopReason.RUNNING:
            pc = step()
            if pc < 0:
                break
            if self.stop_reason is StopReason.EXCEPTION:
                break
            pcs.append(pc)
            if self.last_memop is not None:
                memops.append(self.last_memop)
            memop_counts.append(len(memops))
            if self.last_dest >= 0:
                trace_step = len(pcs) - 1
                writers.append(trace_step)
            budget -= 1
            if (
                snapshot_every
                and self.stop_reason is StopReason.RUNNING
                and self.retired % snapshot_every == 0
            ):
                trace.snapshots.append(
                    ArchSnapshot(
                        retired=self.retired,
                        pc=self.state.pc,
                        regs=tuple(self.state.regs),
                        memory=self.state.memory.clone(),
                    )
                )
        if self.stop_reason is StopReason.RUNNING:
            self.stop_reason = StopReason.LIMIT
        trace.final_regs = tuple(self.state.regs)
        trace.final_memory = self.state.memory.clone()
        trace.exception = self.exception
        trace.halted = self.stop_reason is StopReason.HALTED
        return trace

    # -------------------------------------------------- reference interpreter

    def _step_reference(self, pc: int) -> None:
        """Unoptimised fetch/decode/dispatch: the differential anchor.

        No caches, no bound handlers — every step re-reads the word,
        re-decodes it, and dispatches through the generic entry points of
        :mod:`repro.isa.semantics`. The fast path must stay bit-identical
        to this.
        """
        state = self.state
        if pc & 3:
            raise AlignmentFault(pc, 4, pc=pc)
        word = state.memory.read(pc, 4)
        try:
            inst = decode_word(word)
        except IllegalInstructionError:
            raise IllegalOpcode(word) from None
        if inst.is_halt:
            self.stop_reason = StopReason.HALTED
            return
        regs = state.regs
        if inst.format is op.Format.OPERATE:
            a = regs[inst.ra]
            b = semantics.operand_b(inst, regs[inst.rb])
            if inst.is_cmov:
                result = semantics.execute_cmov(inst, a, b, regs[inst.rc])
            else:
                result = semantics.execute_operate(inst, a, b)
                if result.overflow:
                    raise ArithmeticTrap(inst.mnemonic)
            if inst.rc != 31:
                regs[inst.rc] = result.value
                self.last_dest = inst.rc
            state.pc = (pc + 4) & MASK64
        elif inst.is_lda:
            value = semantics.lda_value(inst, regs[inst.rb])
            if inst.ra != 31:
                regs[inst.ra] = value
                self.last_dest = inst.ra
            state.pc = (pc + 4) & MASK64
        elif inst.is_load:
            address = semantics.effective_address(inst, regs[inst.rb])
            size = inst.access_size
            if size > 1 and address % size:
                raise AlignmentFault(address, size)
            raw = state.memory.read(address, size)
            value = semantics.extend_loaded(inst, raw)
            if inst.ra != 31:
                regs[inst.ra] = value
                self.last_dest = inst.ra
            self.last_memop = ("L", address, value)
            state.pc = (pc + 4) & MASK64
        elif inst.is_store:
            address = semantics.effective_address(inst, regs[inst.rb])
            size = inst.access_size
            if size > 1 and address % size:
                raise AlignmentFault(address, size)
            value = semantics.store_value(inst, regs[inst.ra])
            state.memory.write(address, size, value)
            self.last_memop = ("S", address, value)
            state.pc = (pc + 4) & MASK64
        elif inst.is_cond_branch:
            if semantics.branch_taken(inst, regs[inst.ra]):
                state.pc = inst.branch_target(pc)
            else:
                state.pc = (pc + 4) & MASK64
        elif inst.is_uncond_branch:
            target = inst.branch_target(pc)
            if inst.ra != 31:
                regs[inst.ra] = (pc + 4) & MASK64
                self.last_dest = inst.ra
            state.pc = target
        elif inst.is_jump:
            target = semantics.jump_target(regs[inst.rb])
            if inst.ra != 31:
                regs[inst.ra] = (pc + 4) & MASK64
                self.last_dest = inst.ra
            state.pc = target
        else:  # pragma: no cover - decode covers every format
            raise AssertionError(f"unhandled instruction {inst.mnemonic}")

    # ------------------------------------------------------------ compiler

    def _compile(self, word: int) -> _Closure:
        try:
            inst = decode_word(word)
        except IllegalInstructionError:

            def illegal(sim: "ArchSimulator", pc: int, word: int = word) -> int:
                raise IllegalOpcode(word)

            return illegal

        if inst.is_halt:

            def halt(sim: "ArchSimulator", pc: int) -> int:
                raise _HaltSignal

            return halt

        if inst.format is op.Format.OPERATE:
            return self._compile_operate(inst)
        if inst.is_lda:
            return self._compile_lda(inst)
        if inst.is_load:
            return self._compile_load(inst)
        if inst.is_store:
            return self._compile_store(inst)
        if inst.is_cond_branch:
            return self._compile_cond_branch(inst)
        if inst.is_uncond_branch:
            return self._compile_uncond_branch(inst)
        if inst.is_jump:
            return self._compile_jump(inst)
        raise AssertionError(f"unhandled instruction {inst.mnemonic}")

    @staticmethod
    def _compile_operate(inst) -> _Closure:
        ra, rb, rc = inst.ra, inst.rb, inst.rc
        literal = inst.literal if inst.is_literal else None
        mnemonic = inst.mnemonic
        if inst.is_cmov:
            predicate = semantics.cmov_predicate(inst)

            if rc == 31:  # result discarded; nothing architectural happens

                def run_cmov_dead(sim: "ArchSimulator", pc: int) -> int:
                    return (pc + 4) & MASK64

                return run_cmov_dead

            def run_cmov(sim: "ArchSimulator", pc: int) -> int:
                regs = sim.regs
                if predicate(regs[ra]):
                    regs[rc] = literal if literal is not None else regs[rb]
                sim.last_dest = rc
                return (pc + 4) & MASK64

            return run_cmov

        handler = semantics.value_handler(inst)
        if handler is not None:
            if rc == 31:

                def run_dead(sim: "ArchSimulator", pc: int) -> int:
                    return (pc + 4) & MASK64

                return run_dead

            if literal is not None:

                def run_literal(sim: "ArchSimulator", pc: int) -> int:
                    regs = sim.regs
                    regs[rc] = handler(regs[ra], literal)
                    sim.last_dest = rc
                    return (pc + 4) & MASK64

                return run_literal

            def run_register(sim: "ArchSimulator", pc: int) -> int:
                regs = sim.regs
                regs[rc] = handler(regs[ra], regs[rb])
                sim.last_dest = rc
                return (pc + 4) & MASK64

            return run_register

        trapping = semantics.trapping_handler(inst)
        if trapping is None:  # pragma: no cover - decode admits no others
            raise AssertionError(f"no handler for {mnemonic}")

        def run_trapping(sim: "ArchSimulator", pc: int) -> int:
            regs = sim.regs
            b = literal if literal is not None else regs[rb]
            value, overflow = trapping(regs[ra], b)
            if overflow:
                raise ArithmeticTrap(mnemonic)
            if rc != 31:
                regs[rc] = value
                sim.last_dest = rc
            return (pc + 4) & MASK64

        return run_trapping

    @staticmethod
    def _compile_lda(inst) -> _Closure:
        ra, rb = inst.ra, inst.rb
        offset = semantics.lda_displacement(inst)

        if ra == 31:

            def run_lda_dead(sim: "ArchSimulator", pc: int) -> int:
                return (pc + 4) & MASK64

            return run_lda_dead

        def run_lda(sim: "ArchSimulator", pc: int) -> int:
            regs = sim.regs
            regs[ra] = (regs[rb] + offset) & MASK64
            sim.last_dest = ra
            return (pc + 4) & MASK64

        return run_lda

    @staticmethod
    def _compile_load(inst) -> _Closure:
        ra, rb = inst.ra, inst.rb
        size = inst.access_size
        # Access sizes are powers of two, so the alignment check is a mask.
        unaligned = size - 1
        offset = semantics.signed_displacement(inst)
        extend = semantics.load_extender(inst)

        if inst.opcode == op.OP_LDQ:
            # The quad extender is the identity (memory reads are already
            # unsigned 64-bit), so skip the call on the commonest load.

            def run_load_quad(sim: "ArchSimulator", pc: int) -> int:
                regs = sim.regs
                address = (regs[rb] + offset) & MASK64
                if address & 7:
                    raise AlignmentFault(address, 8)
                value = sim.memory.read(address, 8)
                if ra != 31:
                    regs[ra] = value
                    sim.last_dest = ra
                sim.last_memop = ("L", address, value)
                return (pc + 4) & MASK64

            return run_load_quad

        def run_load(sim: "ArchSimulator", pc: int) -> int:
            regs = sim.regs
            address = (regs[rb] + offset) & MASK64
            if address & unaligned:
                raise AlignmentFault(address, size)
            value = extend(sim.memory.read(address, size))
            if ra != 31:
                regs[ra] = value
                sim.last_dest = ra
            sim.last_memop = ("L", address, value)
            return (pc + 4) & MASK64

        return run_load

    @staticmethod
    def _compile_store(inst) -> _Closure:
        ra, rb = inst.ra, inst.rb
        size = inst.access_size
        unaligned = size - 1
        offset = semantics.signed_displacement(inst)
        mask = semantics.store_mask(inst)

        def run_store(sim: "ArchSimulator", pc: int) -> int:
            regs = sim.regs
            address = (regs[rb] + offset) & MASK64
            if address & unaligned:
                raise AlignmentFault(address, size)
            value = regs[ra] & mask
            sim.memory.write(address, size, value)
            sim.last_memop = ("S", address, value)
            return (pc + 4) & MASK64

        return run_store

    @staticmethod
    def _compile_cond_branch(inst) -> _Closure:
        ra = inst.ra
        predicate = semantics.branch_predicate(inst)
        # branch_target(pc) == (pc + delta) & MASK64 with delta fixed at
        # decode; fold the displacement arithmetic out of the hot path.
        delta = 4 + 4 * semantics.signed_displacement(inst)

        def run_branch(sim: "ArchSimulator", pc: int) -> int:
            if predicate(sim.regs[ra]):
                return (pc + delta) & MASK64
            return (pc + 4) & MASK64

        return run_branch

    @staticmethod
    def _compile_uncond_branch(inst) -> _Closure:
        ra = inst.ra
        delta = 4 + 4 * semantics.signed_displacement(inst)

        if ra == 31:

            def run_br_dead(sim: "ArchSimulator", pc: int) -> int:
                return (pc + delta) & MASK64

            return run_br_dead

        def run_br(sim: "ArchSimulator", pc: int) -> int:
            sim.regs[ra] = (pc + 4) & MASK64
            sim.last_dest = ra
            return (pc + delta) & MASK64

        return run_br

    @staticmethod
    def _compile_jump(inst) -> _Closure:
        ra, rb = inst.ra, inst.rb

        if ra == 31:

            def run_jump_dead(sim: "ArchSimulator", pc: int) -> int:
                return sim.regs[rb] & ~0x3 & MASK64

            return run_jump_dead

        def run_jump(sim: "ArchSimulator", pc: int) -> int:
            regs = sim.regs
            target = regs[rb] & ~0x3 & MASK64
            regs[ra] = (pc + 4) & MASK64
            sim.last_dest = ra
            return target

        return run_jump


def load_program(program: Program, stack_bytes: int = STACK_BYTES) -> ArchSimulator:
    """Build a simulator with the program loaded per the ABI conventions.

    Text pages are mapped read-only (a corrupted store targeting the text
    segment raises an access violation, as on a real OS); data and stack are
    read-write. ``SP`` starts at :data:`~repro.isa.program.STACK_TOP`, ``GP``
    at the data base, and the PC at the program entry point.
    """
    state = ArchState()
    memory = state.memory
    text = program.text_segment
    memory.map_region(text.base, max(len(text.data), 1), PageProtection.READ_ONLY)
    memory.load_bytes(text.base, text.data)
    data = program.data_segment
    if data.data:
        memory.map_region(data.base, len(data.data), PageProtection.READ_WRITE)
        memory.load_bytes(data.base, data.data)
    else:
        memory.map_region(data.base, 1, PageProtection.READ_WRITE)
    memory.map_region(STACK_TOP - stack_bytes, stack_bytes, PageProtection.READ_WRITE)
    state.pc = program.entry_point
    state.write_reg(REG_SP, STACK_TOP - 64)
    state.write_reg(REG_GP, program.data_base)
    return state_simulator(state)


def state_simulator(state: ArchState) -> ArchSimulator:
    """Wrap an existing :class:`ArchState` in a simulator."""
    return ArchSimulator(state)
