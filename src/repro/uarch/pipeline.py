"""The cycle-level out-of-order pipeline.

Execution semantics come from :mod:`repro.isa.semantics` — the same code
the architectural simulator uses — so the pipeline's retired instruction
stream must match the architectural simulator exactly on fault-free runs
(the test suite checks this on every workload).

Stage processing order within a cycle: pending events (register-read
completion, writeback, load completion), then retire, issue, rename (which
includes decode), and fetch. The watchdog ticks last.

Design rule for fault-injection fidelity: pipeline logic always reads
structure fields at the moment the hardware would read the corresponding
latch — operands at register read, store data at store-queue writeback,
retired values at retirement — so an injected bit flip is visible for
exactly the window in which that state is live.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.exceptions import AccessViolation
from repro.arch.memory import PageProtection, SparseMemory
from repro.isa import opcodes as op
from repro.isa import semantics
from repro.isa.encoding import try_decode_word
from repro.isa.instructions import DecodedInst, InstClass, PredecodedInst
from repro.isa.program import STACK_BYTES, STACK_TOP, Program
from repro.isa.registers import REG_GP, REG_SP
from repro.uarch.branch_predictor import (
    BranchTargetBuffer,
    CombiningPredictor,
    ReturnAddressStack,
)
from repro.uarch.caches import MshrFile, SetAssociativeCache, Tlb
from repro.uarch.confidence import JrsConfidenceEstimator
from repro.uarch.config import PipelineConfig
from repro.uarch.latches import StateRegistry
from repro.uarch.memdep import MemoryDependencePredictor
from repro.uarch.structures import (
    EXC_ACCESS,
    EXC_ALIGN,
    EXC_ARITH,
    EXC_ILLEGAL,
    EXC_NAMES,
    EXC_NONE,
    FetchQueue,
    FreeList,
    LoadQueue,
    PhysicalRegisterFile,
    RegisterAliasTable,
    ReorderBuffer,
    Scheduler,
    StoreBuffer,
    StoreQueue,
)
from repro.util.bitops import MASK64

# Instruction classes sharing the ALU functional units at issue.
_ALU_CLASSES = (InstClass.ALU, InstClass.MULTIPLY)


def _copy_wheel(events: dict[int, list[tuple]]) -> dict[int, list[tuple]]:
    """Fork-time copy of the event wheel (event tuples are immutable)."""
    return {cycle: list(bucket) for cycle, bucket in events.items()}


@dataclass(frozen=True, slots=True)
class RetiredInst:
    """One retired instruction, as recorded for golden/faulty comparison."""

    pc: int
    dest: int  # architectural register written, or -1
    value: int
    store_addr: int  # -1 when not a store
    store_data: int
    store_size: int
    exc: int  # EXC_* code; nonzero only on the final, faulting record
    is_cond: bool = False
    taken: bool = False
    next_pc: int = 0  # address of the next instruction in program order
    is_load: bool = False
    load_addr: int = -1


@dataclass(frozen=True, slots=True)
class PipelineCheckpoint:
    """A detached copy of one pipeline's machine state.

    ``values`` is a :meth:`~repro.uarch.latches.StateRegistry.capture`;
    ``memory`` is a copy-on-write clone, so the checkpoints of one run
    share the pages nothing wrote in between (and pickle stores each
    distinct page once). :meth:`Pipeline.restore` only ever clones it, so
    one checkpoint serves any number of restores."""

    values: tuple[list[list[int]], list]
    memory: SparseMemory


@dataclass(frozen=True, slots=True)
class SymptomEvent:
    """A detector-visible event (Section 3's symptom candidates)."""

    kind: str  # exception | mispredict | hc_mispredict | deadlock | *_miss
    cycle: int
    retired: int  # instructions retired when the event fired
    pc: int


class Pipeline:
    """One pipeline instance bound to a memory image."""

    def __init__(
        self,
        memory: SparseMemory,
        entry_pc: int,
        config: PipelineConfig | None = None,
        collect_retired: bool = False,
        record_cache_symptoms: bool = False,
        fast: bool = True,
        memhier_targets: bool = False,
        record_memhier_symptoms: bool = False,
        decode_cache: dict | None = None,
    ):
        self.config = config or PipelineConfig()
        self.memory = memory
        # fast=False selects the unoptimised reference path — per-access
        # property decode, full-scan wakeup, unconditional retire records —
        # kept as the differential-testing anchor for the fast path.
        self.fast = fast
        self.registry = StateRegistry()
        cfg = self.config

        # Storage structures (injectable, plus their substrate bookkeeping).
        self.fetchq = FetchQueue(cfg, self.registry)
        self.prf = PhysicalRegisterFile(cfg, self.registry)
        self.spec_rat = RegisterAliasTable("spec_rat", cfg, self.registry)
        self.arch_rat = RegisterAliasTable("arch_rat", cfg, self.registry)
        self.freelist = FreeList(cfg, self.registry)
        self.sched = Scheduler(cfg, self.registry)
        self.rob = ReorderBuffer(cfg, self.registry)
        self.ldq = LoadQueue(cfg, self.registry)
        self.stq = StoreQueue(cfg, self.registry)
        self.storebuf = StoreBuffer(cfg, self.registry)
        self.sched.use_wakeup_index = fast
        self._fetch_pc = [entry_pc]
        self.registry.register_list("fetch", "data", "fetch.pc", self._fetch_pc, 64)

        # Predictors and caches: substrate, excluded from injection as in
        # the paper — except that the caches and MSHR file register as
        # "mem"-class injectable state when the memory-hierarchy fault
        # surface is enabled.
        self.predictor = CombiningPredictor(cfg)
        self.btb = BranchTargetBuffer(cfg.btb_entries)
        self.ras = ReturnAddressStack(cfg.ras_entries)
        self.confidence = JrsConfidenceEstimator(cfg)
        self.memdep = MemoryDependencePredictor(cfg.memdep_entries)
        self.icache = SetAssociativeCache(cfg.l1i_sets, cfg.l1i_ways, cfg.l1i_line_bytes)
        self.dcache = SetAssociativeCache(cfg.l1d_sets, cfg.l1d_ways, cfg.l1d_line_bytes)
        self.itlb = Tlb(cfg.itlb_entries)
        self.dtlb = Tlb(cfg.dtlb_entries)
        self.mshr = MshrFile(cfg.mshr_entries)
        self.memhier_targets = memhier_targets
        self.icache.register_state(self.registry, "icache", memhier_targets)
        self.dcache.register_state(self.registry, "dcache", memhier_targets)
        self.mshr.register_state(self.registry, "mshr", memhier_targets)
        self.itlb.register_state(self.registry)
        self.dtlb.register_state(self.registry)
        substrate = self.registry.register_substrate
        substrate(self.predictor, "bimodal", "gshare", "chooser", "history")
        substrate(self.btb, "tags", "targets")
        substrate(self.ras, "stack", "top")
        substrate(self.confidence, "table")
        substrate(self.memdep, "table")

        # Machine status (substrate, registered below).
        self.cycle_count = 0
        self.retired_count = 0
        # Monotonic count of retirements, never rewound by ReStore rollback
        # (retired_count is the architectural position and rewinds).
        self.total_retired = 0
        self.halted = False
        self.stopped = False  # stopped on an unhandled exception or deadlock
        self.exception: tuple[int, int] | None = None  # (EXC code, pc)
        self.deadlock = False
        self.watchdog_counter = 0
        self.mispredict_count = 0
        self.hc_mispredict_count = 0
        self.branch_count = 0

        # Fetch status (timing, not latched state).
        self._fetch_stalled_until = 0
        self._fetch_faulted = False  # stop fetching past a faulting fetch

        # Store buffer policy: drained immediately unless gated by ReStore.
        self.store_buffer_gated = False

        # Event wheel: cycle -> list of event tuples.
        self._events: dict[int, list[tuple]] = {}
        self._next_seq = 1
        self._spurious_flagged = False  # edge trigger of spurious_memop
        substrate(
            self, "cycle_count", "retired_count", "total_retired", "halted",
            "stopped", "exception", "deadlock", "watchdog_counter",
            "mispredict_count", "hc_mispredict_count", "branch_count",
            "_fetch_stalled_until", "_fetch_faulted", "store_buffer_gated",
            "_next_seq", "_spurious_flagged",
        )
        substrate(self, "_events", clone=_copy_wheel)

        # Observability.
        self.retired_log: list[RetiredInst] | None = [] if collect_retired else None
        self.on_retire = None  # optional callable(RetiredInst)
        self.symptoms: list[SymptomEvent] = []
        self.record_cache_symptoms = record_cache_symptoms
        # Gates stall_streak / spurious_memop emission (and the store-buffer
        # accounting check behind the latter), so pipelines that never asked
        # for memory-hierarchy symptoms pay nothing for them.
        self.record_memhier_symptoms = record_memhier_symptoms
        # Hook invoked when an exception reaches the ROB head or the
        # watchdog saturates; a ReStore controller installs itself here.
        # Signature: handler(kind: str, payload) -> bool (True = handled).
        self.symptom_handler = None
        # Optional trace sink (repro.telemetry); None keeps symptom
        # emission on the allocation-free fast path.
        self.telemetry = None

        # Optional branch-outcome oracle used during ReStore re-execution
        # (the event log provides perfect prediction; Section 3.2.3).
        self.branch_oracle = None
        # Controller hooks: called at the top of every cycle; retire_stall
        # freezes retirement until a deferred rollback executes;
        # storebuf_full_hook lets a checkpoint manager release buffer space
        # (by taking a forced checkpoint) before a store must retire.
        self.pre_cycle_hook = None
        self.retire_stall = False
        self.storebuf_full_hook = None
        # Mapping-based checkpointing (Section 2.1's "saving the current
        # mapping" variant) pins physical registers; the hook returns True
        # to defer the free of a retiring instruction's old mapping.
        self.preg_free_hook = None

        # Decode cache: pure word -> decoded record (or None for an illegal
        # word), so forks share their parent's. The fast path caches
        # flattened PredecodedInst records so classification is paid once
        # per distinct word instead of through property calls on every
        # access; the reference path caches plain DecodedInst exactly as
        # the unoptimised pipeline did. Both types expose the same read
        # interface, so all stage code is shared.
        self._decode_cache: dict[int, DecodedInst | PredecodedInst | None] = (
            {} if decode_cache is None else decode_cache
        )
        # Per-cycle scratch reused by the issue stage (fast path only).
        self._issue_scratch: list[tuple[int, int]] = []
        # Fast-path fetch cache: pc -> (word, decoded) for instructions on
        # READ_ONLY pages. Stores can never write those pages (the bus drops
        # the access), so the only way the word under a pc changes is a
        # load_bytes/map_region call — which bumps memory.image_version and
        # invalidates the whole cache at the top of the next fetch stage.
        self._fetch_cache: dict[int, tuple[int, DecodedInst | PredecodedInst | None]] = {}
        self._fetch_cache_version = memory.image_version

    # ------------------------------------------------------------ utilities

    def _decode(self, word: int) -> DecodedInst | PredecodedInst | None:
        cached = self._decode_cache.get(word, False)
        if cached is not False:
            return cached
        inst = try_decode_word(word)
        if inst is not None and self.fast:
            inst = PredecodedInst(inst)
        self._decode_cache[word] = inst
        return inst

    def _emit_symptom(self, kind: str, pc: int) -> None:
        self.symptoms.append(
            SymptomEvent(kind, self.cycle_count, self.retired_count, pc)
        )
        if self.telemetry is not None:
            self.telemetry.emit({
                "kind": "symptom",
                "cycle": self.cycle_count,
                "position": self.retired_count,
                "symptom": kind,
                "pc": pc,
            })

    def _schedule(self, delay: int, event: tuple) -> None:
        cycle = self.cycle_count + max(1, delay)
        self._events.setdefault(cycle, []).append(event)

    def exception_name(self) -> str | None:
        if self.exception is None:
            return None
        return EXC_NAMES.get(self.exception[0], "unknown")

    @property
    def running(self) -> bool:
        return not (self.halted or self.stopped)

    # ------------------------------------------------------------- main loop

    def run(self, max_cycles: int, max_retired: int | None = None) -> None:
        """Advance until halt, stop, or a cycle/retirement budget expires."""
        target_cycle = self.cycle_count + max_cycles
        step = self.step_cycle
        while not (self.halted or self.stopped) and self.cycle_count < target_cycle:
            if max_retired is not None and self.retired_count >= max_retired:
                break
            step()

    def step_cycle(self) -> None:
        """Advance the machine by one clock cycle."""
        self.cycle_count += 1
        if self.pre_cycle_hook is not None:
            self.pre_cycle_hook()
        retired_before = self.retired_count
        self._process_events()
        if not (self.halted or self.stopped):
            self._retire_stage()
        if not (self.halted or self.stopped):
            self._issue_stage()
            self._rename_stage()
            self._fetch_stage()
        # Watchdog.
        if self.retired_count > retired_before:
            streak = self.watchdog_counter
            self.watchdog_counter = 0
            if (
                self.record_memhier_symptoms
                and streak >= self.config.stall_streak_floor
            ):
                # A no-retirement streak just ended: report its length so
                # the stall-duration-outlier detector can compare it to the
                # error-free baseline. Payload: (position, streak, pc).
                pc = self._fetch_pc[0]
                self._emit_symptom("stall_streak", pc)
                if self.symptom_handler is not None:
                    self.symptom_handler(
                        "stall_streak", (self.retired_count, streak, pc)
                    )
        else:
            self.watchdog_counter += 1
            if self.watchdog_counter >= self.config.watchdog_cycles and self.running:
                self.watchdog_counter = 0
                self.deadlock = True
                self._emit_symptom("deadlock", self._fetch_pc[0])
                if self.symptom_handler is not None and self.symptom_handler(
                    "deadlock", None
                ):
                    self.deadlock = False
                else:
                    self.stopped = True

    # -------------------------------------------------------------- events

    def _process_events(self) -> None:
        events = self._events.pop(self.cycle_count, None)
        if not events:
            return
        for event in events:
            kind = event[0]
            if kind == "exec":
                self._execute(event[1], event[2], event[3])
            elif kind == "wb":
                self._writeback(event[1], event[2], event[3], event[4])
            elif kind == "load_try":
                self._load_try(event[1], event[2], event[3], event[4])
            elif kind == "load_fin":
                self._load_finish(event[1], event[2], event[3], event[4])
            elif kind == "mshr_fin":
                self._mshr_fill_complete(event[1])

    def _mshr_fill_complete(self, address: int) -> None:
        """A D-cache fill returned: release its MSHR entry. A fill with no
        matching outstanding miss is a spurious memory op — the signature
        of a flipped MSHR valid or address bit."""
        if not self.mshr.release(address) and self.record_memhier_symptoms:
            self._emit_symptom("spurious_memop", address)
            if self.symptom_handler is not None:
                self.symptom_handler(
                    "spurious_memop", (self.retired_count, address)
                )

    # -------------------------------------------------------------- retire

    def _retire_stage(self) -> None:
        if self.retire_stall:
            return
        rob = self.rob
        # Building a RetiredInst per retirement is pure observability; skip
        # the allocation when nobody is listening (fast path only — the
        # reference path keeps the unoptimised allocation behaviour).
        observe = (
            self.retired_log is not None
            or self.on_retire is not None
            or not self.fast
        )
        rob_count = rob._count
        rob_valid = rob.valid
        rob_done = rob.done
        for _ in range(self.config.retire_width):
            if rob_count[0] == 0:
                return
            index = rob._head[0]
            if not rob_valid[index] or not rob_done[index]:
                return
            exc = rob.exc[index]
            pc = rob.pc[index]
            if exc != EXC_NONE:
                self._emit_symptom("exception", pc)
                if self.symptom_handler is not None and self.symptom_handler(
                    "exception", (exc, pc)
                ):
                    return  # controller rolled back; pipeline was flushed
                self.exception = (exc, pc)
                self._record_retired(
                    RetiredInst(pc, -1, 0, -1, 0, 0, exc)
                )
                self.stopped = True
                return
            if rob.is_halt[index]:
                self.halted = True
                self._record_retired(RetiredInst(pc, -1, 0, -1, 0, 0, EXC_NONE))
                self._pop_rob_head(index)
                self.retired_count += 1
                self.total_retired += 1
                # Program end: all committed stores become unconditional.
                self._drain_store_buffer()
                return
            dest = -1
            value = 0
            if rob.has_dest[index]:
                dest = rob.dest_areg[index]
                preg = rob.new_preg[index]
                value = self.prf.values[preg]
                self.arch_rat.map[dest] = preg
                old_preg = rob.old_preg[index]
                if self.preg_free_hook is None or not self.preg_free_hook(old_preg):
                    self.freelist.free(old_preg)
            store_addr, store_data, store_size = -1, 0, 0
            if rob.is_store[index]:
                if self.storebuf.is_full():
                    if self.storebuf_full_hook is not None:
                        self.storebuf_full_hook(pc)
                    if self.storebuf.is_full():
                        # No manager (or it could not free space): release
                        # the oldest committed store unconditionally.
                        entry = self.storebuf.pop_oldest()
                        if entry is not None:
                            addr, data, size_log2 = entry
                            try:
                                self.memory.write(addr, 1 << size_log2, data)
                            except AccessViolation:
                                pass
                store_addr, store_data, store_size = self._retire_store(index)
            if rob.is_branch[index] and self.branch_oracle is not None:
                self.branch_oracle.on_retire(pc)
            is_load = bool(rob.is_load[index])
            if observe:
                if rob.is_branch[index] and rob.actual_taken[index]:
                    next_pc = rob.actual_target[index]
                else:
                    next_pc = (pc + 4) & MASK64
                load_addr = -1
                if is_load:
                    load_addr = self.ldq.addr[rob.lsq_idx[index] % self.ldq.size]
                self._record_retired(
                    RetiredInst(
                        pc,
                        dest,
                        value,
                        store_addr,
                        store_data,
                        store_size,
                        EXC_NONE,
                        bool(rob.is_cond[index]),
                        bool(rob.actual_taken[index]),
                        next_pc,
                        is_load,
                        load_addr,
                    )
                )
            if is_load:
                self.ldq.valid[rob.lsq_idx[index] % self.ldq.size] = 0
            self._pop_rob_head(index)
            self.retired_count += 1
            self.total_retired += 1
            if not self.store_buffer_gated:
                self._drain_store_buffer()

    def _pop_rob_head(self, index: int) -> None:
        rob = self.rob
        rob.valid[index] = 0
        rob._head[0] = (index + 1) % rob.size
        # Callers only pop when count > 0, so the decrement cannot go
        # negative; the upper clamp matters when injection has flipped a
        # high bit of the count register (the property clamped to size).
        count = rob._count[0] - 1
        rob._count[0] = count if count < rob.size else rob.size

    def _retire_store(self, rob_index: int) -> tuple[int, int, int]:
        stq = self.stq
        slot = self.rob.lsq_idx[rob_index] % stq.size
        addr = stq.addr[slot]
        size_log2 = stq.size_log2[slot]
        size = 1 << size_log2
        data = stq.data[slot] & ((1 << (8 * size)) - 1)
        stq.valid[slot] = 0
        self.storebuf.push(addr, data, size_log2)
        return addr, data, size

    def _check_storebuf_accounting(self) -> None:
        """Emit spurious_memop when the store buffer's live entries no
        longer reconcile with its push/pop sequence — a valid bit was
        conjured (a phantom committed store about to drain) or destroyed
        (a committed store silently dropped). Edge-triggered so one
        corruption produces one symptom, not one per retirement."""
        storebuf = self.storebuf
        if storebuf.live_count() == storebuf.total_pushed - storebuf.total_popped:
            self._spurious_flagged = False
            return
        if self._spurious_flagged:
            return
        self._spurious_flagged = True
        addr = storebuf.addr[storebuf.head]
        self._emit_symptom("spurious_memop", addr)
        if self.symptom_handler is not None:
            self.symptom_handler("spurious_memop", (self.retired_count, addr))

    def _drain_store_buffer(self) -> None:
        """Release every committed store to memory (ungated mode)."""
        if self.record_memhier_symptoms:
            self._check_storebuf_accounting()
        while True:
            entry = self.storebuf.pop_oldest()
            if entry is None:
                return
            addr, data, size_log2 = entry
            size = 1 << size_log2
            try:
                self.memory.write(addr, size, data)
            except AccessViolation:
                # The write would have faulted at retirement in an unfaulted
                # machine; with corrupted state the bus simply drops it.
                pass

    def drain_store_buffer_until(self, push_mark: int) -> None:
        """Release committed stores with sequence below ``push_mark`` (used
        by the ReStore checkpoint manager when a checkpoint is released)."""
        if self.record_memhier_symptoms:
            self._check_storebuf_accounting()
        while self.storebuf.total_popped < push_mark:
            entry = self.storebuf.pop_oldest()
            if entry is None:
                return
            addr, data, size_log2 = entry
            try:
                self.memory.write(addr, 1 << size_log2, data)
            except AccessViolation:
                pass

    def _record_retired(self, record: RetiredInst) -> None:
        if self.retired_log is not None:
            self.retired_log.append(record)
        if self.on_retire is not None:
            self.on_retire(record)

    # --------------------------------------------------------------- issue

    def _issue_stage(self) -> None:
        cfg = self.config
        sched = self.sched
        rob = self.rob
        valid = sched.valid
        issued_flags = sched.issued
        src1_ready = sched.src1_ready
        src2_ready = sched.src2_ready
        src3_ready = sched.src3_ready
        sched_rob_idx = sched.rob_idx
        rob_head = rob._head[0]
        rob_size = rob.size
        if self.fast:
            candidates = self._issue_scratch
            candidates.clear()
        else:
            candidates = []
        for slot in range(sched.size):
            if not valid[slot] or issued_flags[slot]:
                continue
            if not (src1_ready[slot] and src2_ready[slot] and src3_ready[slot]):
                continue
            # Inlined rob.age_of: distance from head (0 = oldest in flight).
            candidates.append(((sched_rob_idx[slot] - rob_head) % rob_size, slot))
        if not candidates:
            return
        candidates.sort()
        alu_free = cfg.alu_units
        branch_free = cfg.branch_units
        agen_free = cfg.agen_units
        issue_width = cfg.issue_width
        decode_cache = self._decode_cache
        sched_word = sched.word
        rob_seq = rob.seq
        wheel = self._events
        exec_cycle = self.cycle_count + max(1, cfg.regread_delay)
        issued = 0
        for _, slot in candidates:
            if issued >= issue_width:
                break
            inst = decode_cache.get(sched_word[slot], False)
            if inst is False:
                inst = self._decode(sched_word[slot])
            if inst is None or inst.inst_class in _ALU_CLASSES:
                if alu_free == 0:
                    continue
                alu_free -= 1
            elif inst.inst_class is InstClass.BRANCH:
                if branch_free == 0:
                    continue
                branch_free -= 1
            else:  # loads and stores use an AGEN unit
                if agen_free == 0:
                    continue
                agen_free -= 1
            issued_flags[slot] = 1
            rob_idx = sched_rob_idx[slot]
            event = ("exec", slot, rob_idx, rob_seq[rob_idx])
            bucket = wheel.get(exec_cycle)
            if bucket is None:
                wheel[exec_cycle] = [event]
            else:
                bucket.append(event)
            issued += 1

    # ------------------------------------------------------------- execute

    def _entry_live(self, rob_idx: int, seq: int) -> bool:
        return bool(self.rob.valid[rob_idx]) and self.rob.seq[rob_idx] == seq

    def _free_sched_slot(self, slot: int, seq: int | None = None) -> None:
        if seq is not None and self.sched.seq[slot] != seq:
            return  # the slot was reallocated after a squash
        self.sched.valid[slot] = 0
        self.sched.issued[slot] = 0

    def _operand(self, preg: int) -> int:
        return self.prf.values[preg]

    def _execute(self, slot: int, rob_idx: int, seq: int) -> None:
        rob = self.rob
        if not rob.valid[rob_idx] or rob.seq[rob_idx] != seq:
            self._free_sched_slot(slot, seq)
            return
        sched = self.sched
        word = sched.word[slot]
        pc = sched.pc[slot]
        inst = self._decode_cache.get(word, False)
        if inst is False:
            inst = self._decode(word)
        if inst is None or inst.is_halt:
            # The control word was corrupted after dispatch.
            self._mark_exception(rob_idx, EXC_ILLEGAL)
            self._free_sched_slot(slot)
            return
        if inst.is_load:
            self._execute_load(slot, rob_idx, seq, inst, pc)
            return
        if inst.is_store:
            self._execute_store(slot, rob_idx, seq, inst, pc)
            return
        if inst.is_control:
            self._execute_branch(slot, rob_idx, seq, inst, pc)
            return
        self._execute_operate(slot, rob_idx, seq, inst)

    def _execute_operate(self, slot, rob_idx, seq, inst: DecodedInst) -> None:
        sched = self.sched
        values = self.prf.values
        if inst.is_lda:
            base = values[sched.src2_preg[slot]]
            value = semantics.lda_value(inst, base)
            overflow = False
        elif inst.is_cmov:
            a = values[sched.src1_preg[slot]]
            b = (
                inst.literal
                if inst.is_literal
                else values[sched.src2_preg[slot]]
            )
            old = values[sched.src3_preg[slot]]
            result = semantics.execute_cmov(inst, a, b, old)
            value, overflow = result.value, result.overflow
        else:
            a = values[sched.src1_preg[slot]]
            b = (
                inst.literal
                if inst.is_literal
                else values[sched.src2_preg[slot]]
            )
            result = semantics.execute_operate(inst, a, b)
            value, overflow = result.value, result.overflow
        if overflow:
            self.rob.exc[rob_idx] = EXC_ARITH
        latency = (
            self.config.multiply_latency
            if inst.inst_class is InstClass.MULTIPLY
            else self.config.alu_latency
        )
        self._schedule(latency, ("wb", slot, rob_idx, seq, value))

    def _execute_branch(self, slot, rob_idx, seq, inst: DecodedInst, pc: int) -> None:
        rob = self.rob
        if inst.is_cond_branch:
            a = self._operand(self.sched.src1_preg[slot])
            taken = semantics.branch_taken(inst, a)
            target = inst.branch_target(pc) if taken else (pc + 4) & MASK64
            link_value = None
        elif inst.is_uncond_branch:
            taken = True
            target = inst.branch_target(pc)
            link_value = (pc + 4) & MASK64
        else:  # jump format
            taken = True
            target = semantics.jump_target(self._operand(self.sched.src2_preg[slot]))
            link_value = (pc + 4) & MASK64
        rob.actual_taken[rob_idx] = int(taken)
        rob.actual_target[rob_idx] = target
        predicted_target = (
            rob.pred_target[rob_idx] if rob.pred_taken[rob_idx] else (pc + 4) & MASK64
        )
        mispredicted = predicted_target != target
        history = rob.hist[rob_idx]
        self.branch_count += 1
        if inst.is_cond_branch:
            self.predictor.update(pc, taken, history)
            self.confidence.update(pc, history, correct=not mispredicted)
        if taken and (inst.is_jump or inst.is_cond_branch):
            self.btb.update(pc, target)
        if mispredicted:
            rob.mispredicted[rob_idx] = 1
            self.mispredict_count += 1
            self._emit_symptom("mispredict", pc)
            if inst.is_cond_branch and rob.conf[rob_idx]:
                self.hc_mispredict_count += 1
                self._emit_symptom("hc_mispredict", pc)
                if self.symptom_handler is not None:
                    if self.symptom_handler("hc_mispredict", (pc, rob_idx)):
                        return  # rollback flushed the pipeline
            self._recover_from_branch(rob_idx, target, history, taken)
        if link_value is not None:
            self._schedule(
                self.config.branch_latency, ("wb", slot, rob_idx, seq, link_value)
            )
        else:
            self._schedule(self.config.branch_latency, ("wb", slot, rob_idx, seq, None))

    def _recover_from_branch(
        self, branch_idx: int, target: int, history: int, taken: bool
    ) -> None:
        """Squash everything younger than the branch and redirect fetch."""
        self._squash_younger_than(branch_idx)
        mask = (1 << self.config.history_bits) - 1
        self.predictor.restore_history(((history << 1) | int(taken)) & mask)
        self._redirect_fetch(target)

    def _redirect_fetch(self, target: int) -> None:
        self.fetchq.clear()
        self._fetch_pc[0] = target
        self._fetch_faulted = False
        self._fetch_stalled_until = 0
        if self.branch_oracle is not None:
            self.branch_oracle.on_flush()

    def _squash_younger_than(self, boundary_idx: int) -> None:
        """Squash ROB entries strictly younger than ``boundary_idx``."""
        rob = self.rob
        squashed: set[int] = set()
        guard = rob.size
        while rob.count > 0 and guard > 0:
            index = (rob.tail - 1) % rob.size
            if index == boundary_idx or rob.count == 0:
                break
            if not rob.valid[index]:
                break
            self._undo_rob_entry(index)
            squashed.add(index)
            rob.tail = index
            rob.count -= 1
            guard -= 1
        if squashed:
            self._clear_squashed(squashed)

    def _squash_from(self, first_idx: int) -> None:
        """Squash ``first_idx`` and everything younger (load replay)."""
        rob = self.rob
        squashed: set[int] = set()
        guard = rob.size
        while rob.count > 0 and guard > 0:
            index = (rob.tail - 1) % rob.size
            if not rob.valid[index]:
                break
            self._undo_rob_entry(index)
            squashed.add(index)
            rob.tail = index
            rob.count -= 1
            guard -= 1
            if index == first_idx:
                break
        if squashed:
            self._clear_squashed(squashed)

    def _undo_rob_entry(self, index: int) -> None:
        rob = self.rob
        if rob.has_dest[index]:
            self.spec_rat.map[rob.dest_areg[index]] = rob.old_preg[index]
            self.freelist.free(rob.new_preg[index])
            self.prf.ready[rob.new_preg[index]] = 1
        if rob.is_load[index]:
            self.ldq.valid[rob.lsq_idx[index] % self.ldq.size] = 0
        if rob.is_store[index]:
            self.stq.valid[rob.lsq_idx[index] % self.stq.size] = 0
        rob.valid[index] = 0
        rob.seq[index] = 0

    def _clear_squashed(self, squashed: set[int]) -> None:
        sched = self.sched
        for slot in range(sched.size):
            if sched.valid[slot] and sched.rob_idx[slot] in squashed:
                sched.valid[slot] = 0
                sched.issued[slot] = 0

    # ----------------------------------------------------- loads and stores

    def _mark_exception(self, rob_idx: int, code: int) -> None:
        self.rob.exc[rob_idx] = code
        self.rob.done[rob_idx] = 1

    def _execute_load(self, slot, rob_idx, seq, inst: DecodedInst, pc: int) -> None:
        base = self._operand(self.sched.src2_preg[slot])
        address = semantics.effective_address(inst, base)
        size = inst.access_size
        ldq_idx = self.rob.lsq_idx[rob_idx] % self.ldq.size
        if size > 1 and address % size:
            self._mark_exception(rob_idx, EXC_ALIGN)
            self._free_sched_slot(slot)
            return
        self.ldq.addr[ldq_idx] = address
        self.ldq.addr_valid[ldq_idx] = 1
        self._load_try(slot, rob_idx, seq, ldq_idx)

    def _scan_older_stores(self, rob_idx: int, address: int, size: int):
        """Disambiguate a load at ``address`` against older stores.

        Returns ``(best_slot, unresolved_older, forward_is_speculative)``:
        the youngest older store overlapping [address, address+size), whether
        any older store address is still unresolved, and whether an
        unresolved store *younger than the match* exists — in which case a
        forward from the match may be stale and must be treated as
        speculative (caught by the violation check when the store resolves).
        """
        rob = self.rob
        stq = self.stq
        load_age = rob.age_of(rob_idx)
        best_slot = -1
        best_age = -1
        max_unresolved_age = -1
        for store_slot in range(stq.size):
            if not stq.valid[store_slot]:
                continue
            store_rob = stq.rob_idx[store_slot]
            if not rob.valid[store_rob]:
                continue
            store_age = rob.age_of(store_rob)
            if store_age >= load_age:
                continue
            if not stq.addr_valid[store_slot]:
                max_unresolved_age = max(max_unresolved_age, store_age)
                continue
            store_addr = stq.addr[store_slot]
            store_size = 1 << stq.size_log2[store_slot]
            if store_addr < address + size and address < store_addr + store_size:
                if store_age > best_age:
                    best_age = store_age
                    best_slot = store_slot
        unresolved_older = max_unresolved_age >= 0
        forward_is_speculative = best_slot >= 0 and max_unresolved_age > best_age
        return best_slot, unresolved_older, forward_is_speculative

    def _load_try(self, slot, rob_idx, seq, ldq_idx) -> None:
        """Disambiguate against older stores; forward, wait, or access."""
        if not self._entry_live(rob_idx, seq):
            self._free_sched_slot(slot, seq)
            return
        rob = self.rob
        ldq = self.ldq
        address = ldq.addr[ldq_idx]
        inst = self._decode(self.sched.word[slot])
        if inst is None or not inst.is_load:
            self._mark_exception(rob_idx, EXC_ILLEGAL)
            self._free_sched_slot(slot)
            return
        size = inst.access_size
        stq = self.stq
        best_slot, unresolved_older, spec_forward = self._scan_older_stores(
            rob_idx, address, size
        )
        if best_slot >= 0:
            if spec_forward and self.memdep.should_wait(self.sched.pc[slot]):
                self._schedule(1, ("load_try", slot, rob_idx, seq, ldq_idx))
                return
            store_addr = stq.addr[best_slot]
            store_size = 1 << stq.size_log2[best_slot]
            contains = store_addr <= address and address + size <= store_addr + store_size
            if not contains or not stq.data_valid[best_slot]:
                # Partial overlap or data not ready: retry next cycle.
                self._schedule(1, ("load_try", slot, rob_idx, seq, ldq_idx))
                return
            if spec_forward:
                ldq.speculative[ldq_idx] = 1
            offset = address - store_addr
            raw = (stq.data[best_slot] >> (8 * offset)) & ((1 << (8 * size)) - 1)
            value = semantics.extend_loaded(inst, raw)
            self._complete_load(slot, rob_idx, ldq_idx, value, latency=1)
            return
        if unresolved_older:
            if self.memdep.should_wait(self.sched.pc[slot]):
                self._schedule(1, ("load_try", slot, rob_idx, seq, ldq_idx))
                return
            ldq.speculative[ldq_idx] = 1
        # Access the memory hierarchy. Symptom-handler payloads carry the
        # architectural position first — detectors window and prune by
        # retired-instruction position, not by PC — then the faulting PC.
        latency = self.config.cache_hit_latency
        if not self.dtlb.access(address):
            latency += self.config.tlb_miss_penalty
            pc = self.sched.pc[slot]
            if self.record_cache_symptoms:
                self._emit_symptom("dtlb_miss", pc)
            if self.symptom_handler is not None and self.symptom_handler(
                "dtlb_miss", (self.retired_count, pc)
            ):
                return  # rollback flushed the pipeline; the load is gone
        if not self.dcache.access(address):
            latency = self.config.cache_miss_latency
            pc = self.sched.pc[slot]
            if self.record_cache_symptoms:
                self._emit_symptom("dcache_miss", pc)
            if self.symptom_handler is not None and self.symptom_handler(
                "dcache_miss", (self.retired_count, pc)
            ):
                return
            if self.memhier_targets:
                # Outstanding-miss tracking: a full MSHR file is a
                # structural hazard charged as one extra miss penalty.
                if self.mshr.allocate(address) is None:
                    latency += self.config.cache_miss_latency
                else:
                    self._schedule(latency, ("mshr_fin", address))
        self._schedule(latency, ("load_fin", slot, rob_idx, seq, ldq_idx))

    def _load_finish(self, slot, rob_idx, seq, ldq_idx) -> None:
        """Data return from the hierarchy: read memory/store buffer now."""
        if not self._entry_live(rob_idx, seq):
            self._free_sched_slot(slot, seq)
            return
        inst = self._decode(self.sched.word[slot])
        if inst is None or not inst.is_load:
            self._mark_exception(rob_idx, EXC_ILLEGAL)
            self._free_sched_slot(slot)
            return
        address = self.ldq.addr[ldq_idx]
        size = inst.access_size
        # An older store may have resolved its address while the access was
        # in flight; re-disambiguate before consuming memory data.
        best_slot, _, spec_forward = self._scan_older_stores(rob_idx, address, size)
        if best_slot >= 0:
            stq = self.stq
            store_addr = stq.addr[best_slot]
            store_size = 1 << stq.size_log2[best_slot]
            contains = (
                store_addr <= address and address + size <= store_addr + store_size
            )
            if not contains or not stq.data_valid[best_slot]:
                self._schedule(1, ("load_try", slot, rob_idx, seq, ldq_idx))
                return
            if spec_forward:
                self.ldq.speculative[ldq_idx] = 1
            offset = address - store_addr
            raw = (stq.data[best_slot] >> (8 * offset)) & ((1 << (8 * size)) - 1)
            value = semantics.extend_loaded(inst, raw)
            self._complete_load(slot, rob_idx, ldq_idx, value, latency=0)
            return
        try:
            raw = self._read_through_store_buffer(address, size)
        except AccessViolation:
            self._mark_exception(rob_idx, EXC_ACCESS)
            self._free_sched_slot(slot)
            return
        value = semantics.extend_loaded(inst, raw)
        self._complete_load(slot, rob_idx, ldq_idx, value, latency=0)

    def _read_through_store_buffer(self, address: int, size: int) -> int:
        """Read bytes, honouring committed-but-ungated stores."""
        if self.storebuf.is_empty():
            # Ungated store buffers drain at retirement, so this is the
            # overwhelmingly common case — skip building the entry list.
            return self.memory.read(address, size)
        pending = self.storebuf.entries_youngest_first()
        if not pending:
            return self.memory.read(address, size)
        result = 0
        for index in range(size):
            byte_addr = (address + index) & MASK64
            byte = None
            for slot in pending:
                start = self.storebuf.addr[slot]
                length = 1 << self.storebuf.size_log2[slot]
                if start <= byte_addr < start + length:
                    byte = (self.storebuf.data[slot] >> (8 * (byte_addr - start))) & 0xFF
                    break
            if byte is None:
                byte = self.memory.read(byte_addr, 1)
            result |= byte << (8 * index)
        return result

    def _complete_load(self, slot, rob_idx, ldq_idx, value, latency) -> None:
        self.ldq.value[ldq_idx] = value
        self.ldq.done[ldq_idx] = 1
        seq = self.rob.seq[rob_idx]
        if latency > 0:
            self._schedule(latency, ("wb", slot, rob_idx, seq, value))
        else:
            self._writeback(slot, rob_idx, seq, value)

    def _execute_store(self, slot, rob_idx, seq, inst: DecodedInst, pc: int) -> None:
        data = self._operand(self.sched.src1_preg[slot])
        base = self._operand(self.sched.src2_preg[slot])
        address = semantics.effective_address(inst, base)
        size = inst.access_size
        if size > 1 and address % size:
            self._mark_exception(rob_idx, EXC_ALIGN)
            self._free_sched_slot(slot)
            return
        if not (
            self.memory.is_mapped(address)
            and self.memory.protection_at(address) is PageProtection.READ_WRITE
        ):
            self._mark_exception(rob_idx, EXC_ACCESS)
            self._free_sched_slot(slot)
            return
        stq_idx = self.rob.lsq_idx[rob_idx] % self.stq.size
        stq = self.stq
        stq.addr[stq_idx] = address
        stq.addr_valid[stq_idx] = 1
        stq.data[stq_idx] = semantics.store_value(inst, data)
        stq.data_valid[stq_idx] = 1
        stq.size_log2[stq_idx] = size.bit_length() - 1
        self._check_load_violations(rob_idx, address, size, pc)
        self._schedule(self.config.alu_latency, ("wb", slot, rob_idx, seq, None))

    def _check_load_violations(self, store_rob, address, size, store_pc) -> None:
        """A store resolved its address: any younger done load that read an
        overlapping address speculatively has consumed stale data."""
        rob = self.rob
        ldq = self.ldq
        store_age = rob.age_of(store_rob)
        victim_rob = -1
        victim_age = None
        for load_slot in range(ldq.size):
            if not (ldq.valid[load_slot] and ldq.done[load_slot]):
                continue
            if not ldq.speculative[load_slot]:
                continue
            load_rob = ldq.rob_idx[load_slot]
            if not rob.valid[load_rob]:
                continue
            load_age = rob.age_of(load_rob)
            if load_age <= store_age:
                continue
            load_addr = ldq.addr[load_slot]
            # Conservative overlap: compare 8-byte blocks.
            if load_addr < address + size and address < load_addr + 8:
                if victim_age is None or load_age < victim_age:
                    victim_age = load_age
                    victim_rob = load_rob
        if victim_rob >= 0:
            self.memdep.record_violation(rob.pc[victim_rob])
            replay_pc = rob.pc[victim_rob]
            self._squash_from(victim_rob)
            self._redirect_fetch(replay_pc)

    # ----------------------------------------------------------- writeback

    def _writeback(self, slot, rob_idx, seq, value) -> None:
        rob = self.rob
        if not rob.valid[rob_idx] or rob.seq[rob_idx] != seq:
            self._free_sched_slot(slot, seq)
            return
        if value is not None and rob.has_dest[rob_idx]:
            preg = rob.new_preg[rob_idx]
            prf = self.prf
            prf.values[preg] = value & MASK64
            prf.ready[preg] = 1
            self.sched.wakeup(preg)
        rob.done[rob_idx] = 1
        sched = self.sched
        sched.valid[slot] = 0
        sched.issued[slot] = 0

    # -------------------------------------------------------------- rename

    def _rename_stage(self) -> None:
        fetchq = self.fetchq
        fq_head = fetchq._head
        fq_valid = fetchq.valid
        fq_ready = fetchq.ready_cycle
        fq_word = fetchq.word
        now = self.cycle_count
        rob_count = self.rob._count
        rob_size = self.rob.size
        decode_cache = self._decode_cache
        for _ in range(self.config.rename_width):
            # Inlined fetchq.front_ready / rob.is_full.
            slot = fq_head[0]
            if not fq_valid[slot] or fq_ready[slot] > now:
                return
            if rob_count[0] >= rob_size:
                return
            word = fq_word[slot]
            inst = decode_cache.get(word, False)
            if inst is False:
                inst = self._decode(word)
            # Resource pre-checks so allocation never has to unwind; the
            # slots found here feed allocation directly, so the free-slot
            # scans run once per instruction instead of twice.
            sched_slot = ldq_idx = stq_idx = None
            if inst is not None and not inst.is_halt:
                if inst.dest_reg is not None and self.freelist.count < 1:
                    return
                sched_slot = self.sched.find_free()
                if sched_slot is None:
                    return
                if inst.is_load:
                    ldq_idx = self.ldq.find_free()
                    if ldq_idx is None:
                        return
                if inst.is_store:
                    stq_idx = self.stq.find_free()
                    if stq_idx is None:
                        return
            self._rename_one(slot, word, inst, sched_slot, ldq_idx, stq_idx)

    def _rename_one(
        self,
        fq_slot: int,
        word: int,
        inst: DecodedInst | PredecodedInst | None,
        sched_slot: int | None = None,
        ldq_idx: int | None = None,
        stq_idx: int | None = None,
    ) -> None:
        fetchq = self.fetchq
        rob = self.rob
        seq = self._next_seq
        self._next_seq += 1
        rob_idx = rob.allocate(seq)
        if rob_idx is None:  # pragma: no cover - guarded by is_full
            return
        pc = fetchq.pc[fq_slot]
        rob.pc[rob_idx] = pc
        rob.pred_taken[rob_idx] = fetchq.pred_taken[fq_slot]
        rob.pred_target[rob_idx] = fetchq.pred_target[fq_slot]
        rob.conf[rob_idx] = fetchq.conf[fq_slot]
        rob.hist[rob_idx] = fetchq.hist[fq_slot]
        fetch_fault = fetchq.fetch_fault[fq_slot]
        # Inlined fetchq.pop().
        fetchq.valid[fq_slot] = 0
        fetchq._head[0] = (fq_slot + 1) % fetchq.size

        if fetch_fault:
            rob.exc[rob_idx] = EXC_ACCESS
            rob.done[rob_idx] = 1
            return
        if inst is None:
            rob.exc[rob_idx] = EXC_ILLEGAL
            rob.done[rob_idx] = 1
            return
        if inst.is_halt:
            rob.is_halt[rob_idx] = 1
            rob.done[rob_idx] = 1
            return

        # Source mapping (before destination rename).
        spec_map = self.spec_rat.map
        src1 = src2 = src3 = 0
        src1_used = src2_used = src3_used = False
        if inst.format is op.Format.OPERATE:
            src1 = spec_map[inst.ra]
            src1_used = True
            if not inst.is_literal:
                src2 = spec_map[inst.rb]
                src2_used = True
            if inst.is_cmov:
                src3 = spec_map[inst.rc]
                src3_used = True
        elif inst.is_load or inst.is_lda:
            src2 = spec_map[inst.rb]
            src2_used = True
        elif inst.is_store:
            src1 = spec_map[inst.ra]
            src2 = spec_map[inst.rb]
            src1_used = src2_used = True
        elif inst.is_cond_branch:
            src1 = spec_map[inst.ra]
            src1_used = True
        elif inst.is_jump:
            src2 = spec_map[inst.rb]
            src2_used = True

        # Destination rename.
        dest = inst.dest_reg
        if dest is not None:
            new_preg = self.freelist.allocate()
            if new_preg is None:  # pragma: no cover - guarded in rename stage
                new_preg = 0
            rob.has_dest[rob_idx] = 1
            rob.dest_areg[rob_idx] = dest
            rob.old_preg[rob_idx] = spec_map[dest]
            rob.new_preg[rob_idx] = new_preg
            spec_map[dest] = new_preg
            self.prf.ready[new_preg] = 0

        # Class flags and LSQ allocation.
        if inst.is_control:
            rob.is_branch[rob_idx] = 1
            rob.is_cond[rob_idx] = int(inst.is_cond_branch)
        if inst.is_load:
            if ldq_idx is None:
                ldq_idx = self.ldq.find_free()
            rob.is_load[rob_idx] = 1
            rob.lsq_idx[rob_idx] = ldq_idx
            self.ldq.valid[ldq_idx] = 1
            self.ldq.rob_idx[ldq_idx] = rob_idx
            self.ldq.addr_valid[ldq_idx] = 0
            self.ldq.done[ldq_idx] = 0
            self.ldq.speculative[ldq_idx] = 0
        if inst.is_store:
            if stq_idx is None:
                stq_idx = self.stq.find_free()
            rob.is_store[rob_idx] = 1
            rob.lsq_idx[rob_idx] = stq_idx
            self.stq.valid[stq_idx] = 1
            self.stq.rob_idx[stq_idx] = rob_idx
            self.stq.addr_valid[stq_idx] = 0
            self.stq.data_valid[stq_idx] = 0

        # Scheduler dispatch.
        if sched_slot is None:
            sched_slot = self.sched.find_free()
        if sched_slot is None:  # pragma: no cover - guarded in rename stage
            rob.done[rob_idx] = 1
            return
        sched = self.sched
        sched.valid[sched_slot] = 1
        sched.issued[sched_slot] = 0
        sched.seq[sched_slot] = seq
        sched.rob_idx[sched_slot] = rob_idx
        sched.word[sched_slot] = word
        sched.pc[sched_slot] = pc
        sched.src1_preg[sched_slot] = src1
        sched.src2_preg[sched_slot] = src2
        sched.src3_preg[sched_slot] = src3
        prf_ready = self.prf.ready
        sched.src1_ready[sched_slot] = 1 if not src1_used else prf_ready[src1]
        sched.src2_ready[sched_slot] = 1 if not src2_used else prf_ready[src2]
        sched.src3_ready[sched_slot] = 1 if not src3_used else prf_ready[src3]
        sched.note_dispatch(sched_slot)

    # --------------------------------------------------------------- fetch

    def _fetch_stage(self) -> None:
        if self._fetch_faulted or self.cycle_count < self._fetch_stalled_until:
            return
        cfg = self.config
        memory = self.memory
        fetchq = self.fetchq
        fq_valid = fetchq.valid
        fq_tail = fetchq._tail
        itlb_access = self.itlb.access
        icache_access = self.icache.access
        predictor = self.predictor
        fetch_cache = self._fetch_cache if self.fast else None
        if fetch_cache is not None and self._fetch_cache_version != memory.image_version:
            fetch_cache.clear()
            self._fetch_cache_version = memory.image_version
        pc = self._fetch_pc[0]
        ready_cycle = self.cycle_count + cfg.frontend_delay
        for _ in range(cfg.fetch_width):
            if fq_valid[fq_tail[0]]:  # inlined fetchq.is_full
                break
            if pc & 3:
                # Misaligned fetch target (e.g. a corrupted jump): the
                # fetched "instruction" faults at retirement.
                fetchq.push(pc, 0, False, 0, False,
                            predictor.history, ready_cycle,
                            fetch_fault=True)
                self._fetch_faulted = True
                break
            if not itlb_access(pc):
                self._fetch_stalled_until = self.cycle_count + cfg.tlb_miss_penalty
                if self.record_cache_symptoms:
                    self._emit_symptom("itlb_miss", pc)
                if self.symptom_handler is not None and self.symptom_handler(
                    "itlb_miss", (self.retired_count, pc)
                ):
                    return  # rollback flushed the pipeline mid-fetch
                break
            if not icache_access(pc):
                self._fetch_stalled_until = self.cycle_count + cfg.icache_miss_latency
                if self.record_cache_symptoms:
                    self._emit_symptom("icache_miss", pc)
                if self.symptom_handler is not None and self.symptom_handler(
                    "icache_miss", (self.retired_count, pc)
                ):
                    return
                break
            cached = None if fetch_cache is None else fetch_cache.get(pc)
            if cached is not None:
                word, inst = cached
            else:
                try:
                    word = memory.read(pc, 4)
                except AccessViolation:
                    fetchq.push(pc, 0, False, 0, False,
                                predictor.history, ready_cycle,
                                fetch_fault=True)
                    self._fetch_faulted = True
                    break
                inst = self._decode_cache.get(word, False)
                if inst is False:
                    inst = self._decode(word)
                if (
                    fetch_cache is not None
                    and memory.protection_at(pc) is PageProtection.READ_ONLY
                ):
                    fetch_cache[pc] = (word, inst)
            pred_taken = False
            pred_target = 0
            conf = False
            history = predictor.history
            if inst is not None and inst.is_control:
                if inst.is_cond_branch:
                    oracle_outcome = None
                    if self.branch_oracle is not None:
                        oracle_outcome = self.branch_oracle.predict(pc)
                    if oracle_outcome is not None:
                        pred_taken = oracle_outcome
                    else:
                        pred_taken = predictor.predict(pc)
                    conf = self.confidence.estimate(pc, history)
                    predictor.push_history(pred_taken)
                    if pred_taken:
                        pred_target = inst.branch_target(pc)
                elif inst.is_uncond_branch:
                    pred_taken = True
                    pred_target = inst.branch_target(pc)
                    if inst.is_call:
                        self.ras.push((pc + 4) & MASK64)
                else:  # jump format
                    if inst.is_return:
                        pred_taken = True
                        pred_target = self.ras.pop()
                    else:
                        btb_target = self.btb.lookup(pc)
                        if btb_target is not None:
                            pred_taken = True
                            pred_target = btb_target
                        if inst.is_call:
                            self.ras.push((pc + 4) & MASK64)
            # Inlined fetchq.push — the is_full check at the loop top
            # guarantees the slot is free.
            slot = fq_tail[0]
            fq_valid[slot] = 1
            fetchq.pc[slot] = pc
            fetchq.word[slot] = word
            fetchq.pred_taken[slot] = int(pred_taken)
            fetchq.pred_target[slot] = pred_target
            fetchq.conf[slot] = int(conf)
            fetchq.fetch_fault[slot] = 0
            fetchq.hist[slot] = history
            fetchq.ready_cycle[slot] = ready_cycle
            fq_tail[0] = (slot + 1) % fetchq.size
            if pred_taken:
                pc = pred_target
                self._fetch_pc[0] = pc
                return
            pc = (pc + 4) & MASK64
        self._fetch_pc[0] = pc

    # -------------------------------------------------------------- forking

    def fork(self) -> "Pipeline":
        """An independent deep copy of the full machine state.

        Fault campaigns fork the prefix pipeline at each injection point,
        so a trial only pays for the post-injection window instead of a
        whole run from reset. The memory image is deep-copied
        (:meth:`~repro.arch.memory.SparseMemory.clone`); everything else —
        injectable arrays and substrate alike — goes through the state
        schema's capture and load, the path checkpoints take too.
        """
        copy = Pipeline(
            self.memory.clone(),
            self._fetch_pc[0],
            config=self.config,
            collect_retired=False,
            record_cache_symptoms=self.record_cache_symptoms,
            fast=self.fast,
            memhier_targets=self.memhier_targets,
            record_memhier_symptoms=self.record_memhier_symptoms,
            decode_cache=self._decode_cache,
        )
        copy.registry.load(self.registry.capture())
        return copy

    def checkpoint(self) -> PipelineCheckpoint:
        """This machine's state, detached and picklable."""
        return PipelineCheckpoint(self.registry.capture(), self.memory.clone_cow())

    def restore(self, checkpoint: PipelineCheckpoint) -> None:
        """Put this pipeline, in place, into a checkpoint's state: a deep
        clone of its memory (its pages are never written), an empty fetch
        cache, and every registered value. A checkpoint taken from a
        pipeline built with the same options restores exactly the state
        :meth:`fork` would have copied from it."""
        self.memory = checkpoint.memory.clone()
        self._fetch_cache.clear()
        self.registry.load(checkpoint.values)

    # -------------------------------------------------- architectural views

    def arch_reg_values(self) -> list[int]:
        """Architectural register file contents via the retirement RAT."""
        return [self.prf.values[self.arch_rat.map[areg]] for areg in range(32)]

    def full_flush(self, restart_pc: int) -> None:
        """Discard all speculative state and restart fetch at ``restart_pc``.

        Used by ReStore rollback (after architectural state is restored) and
        by deadlock recovery. The speculative RAT is re-seeded from the
        retirement RAT and the free list is rebuilt.
        """
        rob = self.rob
        for index in range(rob.size):
            rob.valid[index] = 0
            rob.seq[index] = 0
        rob.head = 0
        rob.tail = 0
        rob.count = 0
        for slot in range(self.sched.size):
            self.sched.valid[slot] = 0
            self.sched.issued[slot] = 0
        for slot in range(self.ldq.size):
            self.ldq.valid[slot] = 0
        for slot in range(self.stq.size):
            self.stq.valid[slot] = 0
        self.fetchq.clear()
        self._events.clear()
        # The event wheel just dropped every in-flight fill completion, so
        # outstanding MSHR entries would leak (and eventually wedge loads
        # behind a permanently-full file); discard them with the flush.
        self.mshr.clear()
        self.spec_rat.restore(self.arch_rat.snapshot())
        self.freelist.rebuild(set(self.arch_rat.map))
        for preg in range(self.prf.size):
            self.prf.ready[preg] = 1
        self._fetch_pc[0] = restart_pc
        self._fetch_faulted = False
        self._fetch_stalled_until = 0
        self.watchdog_counter = 0


def load_pipeline(
    program: Program,
    config: PipelineConfig | None = None,
    collect_retired: bool = False,
    record_cache_symptoms: bool = False,
    stack_bytes: int = STACK_BYTES,
    fast: bool = True,
    memhier_targets: bool = False,
    record_memhier_symptoms: bool = False,
) -> Pipeline:
    """Build a pipeline with the program loaded per the ABI conventions
    (mirrors :func:`repro.arch.simulator.load_program`)."""
    memory = SparseMemory()
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
    pipeline = Pipeline(
        memory,
        program.entry_point,
        config=config,
        collect_retired=collect_retired,
        record_cache_symptoms=record_cache_symptoms,
        fast=fast,
        memhier_targets=memhier_targets,
        record_memhier_symptoms=record_memhier_symptoms,
    )
    pipeline.prf.values[REG_SP] = STACK_TOP - 64
    pipeline.prf.values[REG_GP] = program.data_base
    return pipeline
