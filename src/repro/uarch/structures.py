"""Pipeline storage structures.

Each structure owns parallel lists of integer fields and registers each
list with the :class:`~repro.uarch.latches.StateRegistry` — as injectable
state, or as substrate for timing metadata and bookkeeping. Field widths
match structure sizes exactly (a 6-bit ROB index for a 64-entry ROB, a
7-bit physical register number for 128 registers, ...), so a corrupted
field always holds an in-range — but possibly wrong — value, exactly like
flipped hardware bits.

The pipeline logic in :mod:`repro.uarch.pipeline` reads these fields at the
moment the hardware would (operands at register read, store data at
retirement, ...), so an injected flip matters during precisely the window
in which the real latch is live.
"""

from __future__ import annotations

from repro.uarch.config import PipelineConfig
from repro.uarch.latches import StateRegistry

# Exception codes stored in the ROB's 3-bit exception field.
EXC_NONE = 0
EXC_ACCESS = 1
EXC_ALIGN = 2
EXC_ARITH = 3
EXC_ILLEGAL = 4

EXC_NAMES = {
    EXC_NONE: "none",
    EXC_ACCESS: "access_violation",
    EXC_ALIGN: "alignment_fault",
    EXC_ARITH: "arithmetic_trap",
    EXC_ILLEGAL: "illegal_opcode",
}


def _bits_for(count: int) -> int:
    """Width needed to index ``count`` entries."""
    width = 1
    while (1 << width) < count:
        width += 1
    return width


class FetchQueue:
    """32-entry circular queue between fetch and decode/rename.

    An SRAM structure in the paper's model (an ECC target of the hardened
    pipeline). ``ready_cycle`` is timing metadata modelling front-end depth,
    not stored bits.
    """

    def __init__(self, config: PipelineConfig, registry: StateRegistry):
        size = config.fetch_queue_entries
        self.size = size
        self.valid = [0] * size
        self.pc = [0] * size
        self.word = [0] * size
        self.pred_taken = [0] * size
        self.pred_target = [0] * size
        self.conf = [0] * size
        self.fetch_fault = [0] * size
        self.hist = [0] * size
        self.ready_cycle = [0] * size  # timing metadata (substrate)
        self._head = [0]
        self._tail = [0]
        index_bits = _bits_for(size)
        registry.register_list("fetchq", "ram", "fetchq.valid", self.valid, 1)
        registry.register_list("fetchq", "ram", "fetchq.pc", self.pc, 64)
        registry.register_list("fetchq", "ram", "fetchq.word", self.word, 32)
        registry.register_list("fetchq", "ram", "fetchq.pred_taken", self.pred_taken, 1)
        registry.register_list("fetchq", "ram", "fetchq.pred_target", self.pred_target, 64)
        registry.register_list("fetchq", "ram", "fetchq.conf", self.conf, 1)
        registry.register_list("fetchq", "ram", "fetchq.fetch_fault", self.fetch_fault, 1)
        registry.register_list("fetchq", "ram", "fetchq.hist", self.hist, config.history_bits)
        registry.register_list("fetchq", "data", "fetchq.head", self._head, index_bits)
        registry.register_list("fetchq", "data", "fetchq.tail", self._tail, index_bits)
        registry.register_substrate(self, "ready_cycle")

    @property
    def head(self) -> int:
        return self._head[0]

    @head.setter
    def head(self, value: int) -> None:
        self._head[0] = value % self.size

    @property
    def tail(self) -> int:
        return self._tail[0]

    @tail.setter
    def tail(self, value: int) -> None:
        self._tail[0] = value % self.size

    def is_full(self) -> bool:
        return self.valid[self.tail] == 1

    def is_empty(self) -> bool:
        return self.valid[self.head] == 0

    def clear(self) -> None:
        for index in range(self.size):
            self.valid[index] = 0
        self.head = 0
        self.tail = 0

    def push(
        self,
        pc: int,
        word: int,
        pred_taken: bool,
        pred_target: int,
        conf: bool,
        hist: int,
        ready_cycle: int,
        fetch_fault: bool = False,
    ) -> bool:
        slot = self._tail[0]
        if self.valid[slot]:
            return False
        self.valid[slot] = 1
        self.pc[slot] = pc
        self.word[slot] = word
        self.pred_taken[slot] = int(pred_taken)
        self.pred_target[slot] = pred_target
        self.conf[slot] = int(conf)
        self.fetch_fault[slot] = int(fetch_fault)
        self.hist[slot] = hist
        self.ready_cycle[slot] = ready_cycle
        self._tail[0] = (slot + 1) % self.size
        return True

    def front_ready(self, now: int) -> int | None:
        """Slot index of the head entry if present and past front-end delay."""
        slot = self._head[0]
        if self.valid[slot] and self.ready_cycle[slot] <= now:
            return slot
        return None

    def pop(self) -> None:
        slot = self._head[0]
        self.valid[slot] = 0
        self._head[0] = (slot + 1) % self.size


class PhysicalRegisterFile:
    """128 x 64-bit physical registers plus a ready scoreboard."""

    def __init__(self, config: PipelineConfig, registry: StateRegistry):
        self.size = config.physical_registers
        self.values = [0] * self.size
        self.ready = [1] * self.size
        registry.register_list("prf", "ram", "prf.value", self.values, 64)
        registry.register_list("prf", "ctrl", "prf.ready", self.ready, 1)


class RegisterAliasTable:
    """Architectural-to-physical mapping (speculative or retirement copy)."""

    def __init__(self, name: str, config: PipelineConfig, registry: StateRegistry):
        self.name = name
        preg_bits = _bits_for(config.physical_registers)
        # Identity-map the first 32 physical registers initially.
        self.map = list(range(32))
        registry.register_list(name, "ram", f"{name}.map", self.map, preg_bits)

    def snapshot(self) -> list[int]:
        return list(self.map)

    def restore(self, snapshot: list[int]) -> None:
        self.map[:] = snapshot


class FreeList:
    """Circular free list of physical register numbers."""

    def __init__(self, config: PipelineConfig, registry: StateRegistry):
        self.capacity = config.physical_registers
        preg_bits = _bits_for(config.physical_registers)
        # Registers 32..127 start free; slots is a ring buffer.
        self.slots = list(range(32, config.physical_registers)) + [0] * 32
        self._head = [0]
        self._tail = [config.physical_registers - 32]
        self._count = [config.physical_registers - 32]
        registry.register_list("freelist", "ram", "freelist.slot", self.slots, preg_bits)
        index_bits = _bits_for(self.capacity)
        registry.register_list("freelist", "data", "freelist.head", self._head, index_bits)
        registry.register_list("freelist", "data", "freelist.tail", self._tail, index_bits)
        registry.register_list("freelist", "data", "freelist.count", self._count, index_bits + 1)

    @property
    def count(self) -> int:
        return self._count[0]

    def allocate(self) -> int | None:
        if self._count[0] <= 0:
            return None
        preg = self.slots[self._head[0]]
        self._head[0] = (self._head[0] + 1) % self.capacity
        self._count[0] -= 1
        return preg

    def free(self, preg: int) -> None:
        self.slots[self._tail[0]] = preg
        self._tail[0] = (self._tail[0] + 1) % self.capacity
        self._count[0] = min(self.capacity, self._count[0] + 1)

    def rebuild(self, in_use: set[int]) -> None:
        """Reconstruct from scratch: everything not in ``in_use`` is free."""
        free_regs = [preg for preg in range(self.capacity) if preg not in in_use]
        for index, preg in enumerate(free_regs):
            self.slots[index] = preg
        self._head[0] = 0
        self._tail[0] = len(free_regs) % self.capacity
        self._count[0] = len(free_regs)


class Scheduler:
    """32-entry issue window.

    Wakeup is hardware CAM behaviour: broadcast a physical register number,
    set the ready bit of every matching source in a valid slot. The fast
    path keeps a preg -> {slots} *waiter index* so a broadcast only visits
    slots that were ever dispatched waiting on that preg, validating each
    hit against the live ``valid``/``src?_preg`` fields (so a stale index
    entry can never set a wrong bit). The index is rebuilt from a full scan
    whenever injection or snapshot-restore writes a scheduler field through
    the registry (see ``on_set`` in :mod:`repro.uarch.latches`), which keeps
    the indexed broadcast bit-identical to the full scan even with flipped
    ``valid`` or source-tag bits. Set ``use_wakeup_index = False`` to force
    the reference full scan.
    """

    def __init__(self, config: PipelineConfig, registry: StateRegistry):
        size = config.scheduler_entries
        self.size = size
        rob_bits = _bits_for(config.rob_entries)
        preg_bits = _bits_for(config.physical_registers)
        self.valid = [0] * size
        self.issued = [0] * size
        self.rob_idx = [0] * size
        self.word = [0] * size
        self.pc = [0] * size
        self.src1_preg = [0] * size
        self.src1_ready = [0] * size
        self.src2_preg = [0] * size
        self.src2_ready = [0] * size
        self.src3_preg = [0] * size
        self.src3_ready = [0] * size
        # Bookkeeping (substrate): sequence tag guarding slot reuse against
        # events that belong to a squashed previous occupant.
        self.seq = [0] * size
        self.use_wakeup_index = True
        self._waiters: dict[int, set[int]] | None = None
        invalidate = self._invalidate_waiters
        registry.register_list("sched", "ctrl", "sched.valid", self.valid, 1,
                               on_set=invalidate)
        registry.register_list("sched", "ctrl", "sched.issued", self.issued, 1)
        registry.register_list("sched", "ctrl", "sched.rob_idx", self.rob_idx, rob_bits)
        registry.register_list("sched", "data", "sched.word", self.word, 32)
        registry.register_list("sched", "data", "sched.pc", self.pc, 64)
        registry.register_list("sched", "ctrl", "sched.src1_preg", self.src1_preg,
                               preg_bits, on_set=invalidate)
        registry.register_list("sched", "ctrl", "sched.src1_ready", self.src1_ready, 1)
        registry.register_list("sched", "ctrl", "sched.src2_preg", self.src2_preg,
                               preg_bits, on_set=invalidate)
        registry.register_list("sched", "ctrl", "sched.src2_ready", self.src2_ready, 1)
        registry.register_list("sched", "ctrl", "sched.src3_preg", self.src3_preg,
                               preg_bits, on_set=invalidate)
        registry.register_list("sched", "ctrl", "sched.src3_ready", self.src3_ready, 1)
        registry.register_substrate(self, "seq")

    def find_free(self) -> int | None:
        for index in range(self.size):
            if not self.valid[index]:
                return index
        return None

    def _invalidate_waiters(self) -> None:
        self._waiters = None

    def _rebuild_waiters(self) -> dict[int, set[int]]:
        waiters: dict[int, set[int]] = {}
        for index in range(self.size):
            if not self.valid[index]:
                continue
            for preg in (
                self.src1_preg[index],
                self.src2_preg[index],
                self.src3_preg[index],
            ):
                waiters.setdefault(preg, set()).add(index)
        self._waiters = waiters
        return waiters

    def note_dispatch(self, slot: int) -> None:
        """Index a freshly dispatched slot's source tags (fast path)."""
        waiters = self._waiters
        if waiters is None:
            return  # next wakeup rebuilds from a full scan anyway
        for preg in (
            self.src1_preg[slot],
            self.src2_preg[slot],
            self.src3_preg[slot],
        ):
            bucket = waiters.get(preg)
            if bucket is None:
                waiters[preg] = {slot}
            else:
                bucket.add(slot)

    def wakeup(self, preg: int) -> None:
        """Broadcast a completed physical register to waiting sources."""
        if self.use_wakeup_index:
            waiters = self._waiters
            if waiters is None:
                waiters = self._rebuild_waiters()
            slots = waiters.get(preg)
            if not slots:
                return
            valid = self.valid
            src1_preg = self.src1_preg
            src2_preg = self.src2_preg
            src3_preg = self.src3_preg
            stale = None
            for index in slots:
                if valid[index]:
                    hit = False
                    if src1_preg[index] == preg:
                        self.src1_ready[index] = 1
                        hit = True
                    if src2_preg[index] == preg:
                        self.src2_ready[index] = 1
                        hit = True
                    if src3_preg[index] == preg:
                        self.src3_ready[index] = 1
                        hit = True
                    if hit:
                        continue
                # The slot no longer waits on this preg: either it was freed
                # or it was re-dispatched with different sources. Freed slots
                # re-enter the index through note_dispatch and source tags
                # only change behind our back via the registry (which drops
                # the whole index), so pruning here can never lose a waiter.
                if stale is None:
                    stale = [index]
                else:
                    stale.append(index)
            if stale is not None:
                for index in stale:
                    slots.discard(index)
            return
        for index in range(self.size):
            if not self.valid[index]:
                continue
            if self.src1_preg[index] == preg:
                self.src1_ready[index] = 1
            if self.src2_preg[index] == preg:
                self.src2_ready[index] = 1
            if self.src3_preg[index] == preg:
                self.src3_ready[index] = 1


class ReorderBuffer:
    """64-entry circular reorder buffer."""

    def __init__(self, config: PipelineConfig, registry: StateRegistry):
        size = config.rob_entries
        self.size = size
        preg_bits = _bits_for(config.physical_registers)
        lsq_bits = _bits_for(max(config.ldq_entries, config.stq_entries))
        self.valid = [0] * size
        self.done = [0] * size
        self.pc = [0] * size
        self.dest_areg = [31] * size  # 31 = no destination
        self.new_preg = [0] * size
        self.old_preg = [0] * size
        self.exc = [0] * size
        self.is_store = [0] * size
        self.is_load = [0] * size
        self.is_branch = [0] * size
        self.is_cond = [0] * size
        self.is_halt = [0] * size
        self.has_dest = [0] * size
        self.lsq_idx = [0] * size
        self.pred_taken = [0] * size
        self.pred_target = [0] * size
        self.actual_taken = [0] * size
        self.actual_target = [0] * size
        self.mispredicted = [0] * size
        self.conf = [0] * size
        self.hist = [0] * size
        self._head = [0]
        self._tail = [0]
        self._count = [0]
        # Bookkeeping (substrate): a monotonically increasing sequence
        # number guarding in-flight events against squashed entries.
        self.seq = [0] * size
        registry.register_list("rob", "ctrl", "rob.valid", self.valid, 1)
        registry.register_list("rob", "ctrl", "rob.done", self.done, 1)
        registry.register_list("rob", "data", "rob.pc", self.pc, 64)
        registry.register_list("rob", "ctrl", "rob.dest_areg", self.dest_areg, 5)
        registry.register_list("rob", "ctrl", "rob.new_preg", self.new_preg, preg_bits)
        registry.register_list("rob", "ctrl", "rob.old_preg", self.old_preg, preg_bits)
        registry.register_list("rob", "ctrl", "rob.exc", self.exc, 3)
        registry.register_list("rob", "ctrl", "rob.is_store", self.is_store, 1)
        registry.register_list("rob", "ctrl", "rob.is_load", self.is_load, 1)
        registry.register_list("rob", "ctrl", "rob.is_branch", self.is_branch, 1)
        registry.register_list("rob", "ctrl", "rob.is_cond", self.is_cond, 1)
        registry.register_list("rob", "ctrl", "rob.is_halt", self.is_halt, 1)
        registry.register_list("rob", "ctrl", "rob.has_dest", self.has_dest, 1)
        registry.register_list("rob", "ctrl", "rob.lsq_idx", self.lsq_idx, lsq_bits)
        registry.register_list("rob", "ctrl", "rob.pred_taken", self.pred_taken, 1)
        registry.register_list("rob", "data", "rob.pred_target", self.pred_target, 64)
        registry.register_list("rob", "ctrl", "rob.actual_taken", self.actual_taken, 1)
        registry.register_list("rob", "data", "rob.actual_target", self.actual_target, 64)
        registry.register_list("rob", "ctrl", "rob.mispredicted", self.mispredicted, 1)
        registry.register_list("rob", "ctrl", "rob.conf", self.conf, 1)
        registry.register_list("rob", "data", "rob.hist", self.hist, config.history_bits)
        index_bits = _bits_for(size)
        registry.register_list("rob", "data", "rob.head", self._head, index_bits)
        registry.register_list("rob", "data", "rob.tail", self._tail, index_bits)
        registry.register_list("rob", "data", "rob.count", self._count, index_bits + 1)
        registry.register_substrate(self, "seq")

    @property
    def head(self) -> int:
        return self._head[0]

    @head.setter
    def head(self, value: int) -> None:
        self._head[0] = value % self.size

    @property
    def tail(self) -> int:
        return self._tail[0]

    @tail.setter
    def tail(self, value: int) -> None:
        self._tail[0] = value % self.size

    @property
    def count(self) -> int:
        return self._count[0]

    @count.setter
    def count(self, value: int) -> None:
        self._count[0] = max(0, min(self.size, value))

    def is_full(self) -> bool:
        return self.count >= self.size

    def allocate(self, next_seq: int) -> int | None:
        if self._count[0] >= self.size:
            return None
        index = self._tail[0]
        self.valid[index] = 1
        self.done[index] = 0
        self.exc[index] = EXC_NONE
        self.dest_areg[index] = 31
        self.is_store[index] = 0
        self.is_load[index] = 0
        self.is_branch[index] = 0
        self.is_cond[index] = 0
        self.is_halt[index] = 0
        self.has_dest[index] = 0
        self.mispredicted[index] = 0
        self.actual_taken[index] = 0
        self.seq[index] = next_seq
        # Direct ring-pointer updates; the allocate guard above keeps the
        # count within [0, size] exactly as the clamping property would.
        self._tail[0] = (index + 1) % self.size
        self._count[0] += 1
        return index

    def age_of(self, index: int) -> int:
        """Distance from head (0 = oldest in flight)."""
        return (index - self.head) % self.size

    def youngest_first(self) -> list[int]:
        """Valid entry indices from tail-1 back to head."""
        result = []
        for offset in range(self.count):
            index = (self.tail - 1 - offset) % self.size
            result.append(index)
        return result


class LoadQueue:
    """In-flight load addresses and values."""

    def __init__(self, config: PipelineConfig, registry: StateRegistry):
        size = config.ldq_entries
        self.size = size
        rob_bits = _bits_for(config.rob_entries)
        self.valid = [0] * size
        self.rob_idx = [0] * size
        self.addr = [0] * size
        self.addr_valid = [0] * size
        self.value = [0] * size
        self.done = [0] * size
        self.speculative = [0] * size  # issued past an unresolved store
        registry.register_list("ldq", "ctrl", "ldq.valid", self.valid, 1)
        registry.register_list("ldq", "ctrl", "ldq.rob_idx", self.rob_idx, rob_bits)
        registry.register_list("ldq", "data", "ldq.addr", self.addr, 64)
        registry.register_list("ldq", "ctrl", "ldq.addr_valid", self.addr_valid, 1)
        registry.register_list("ldq", "data", "ldq.value", self.value, 64)
        registry.register_list("ldq", "ctrl", "ldq.done", self.done, 1)
        registry.register_list("ldq", "ctrl", "ldq.spec", self.speculative, 1)

    def find_free(self) -> int | None:
        for index in range(self.size):
            if not self.valid[index]:
                return index
        return None


class StoreQueue:
    """In-flight store addresses and data."""

    def __init__(self, config: PipelineConfig, registry: StateRegistry):
        size = config.stq_entries
        self.size = size
        rob_bits = _bits_for(config.rob_entries)
        self.valid = [0] * size
        self.rob_idx = [0] * size
        self.addr = [0] * size
        self.addr_valid = [0] * size
        self.data = [0] * size
        self.data_valid = [0] * size
        self.size_log2 = [0] * size
        registry.register_list("stq", "ctrl", "stq.valid", self.valid, 1)
        registry.register_list("stq", "ctrl", "stq.rob_idx", self.rob_idx, rob_bits)
        registry.register_list("stq", "data", "stq.addr", self.addr, 64)
        registry.register_list("stq", "ctrl", "stq.addr_valid", self.addr_valid, 1)
        registry.register_list("stq", "data", "stq.data", self.data, 64)
        registry.register_list("stq", "ctrl", "stq.data_valid", self.data_valid, 1)
        registry.register_list("stq", "ctrl", "stq.size", self.size_log2, 2)

    def find_free(self) -> int | None:
        for index in range(self.size):
            if not self.valid[index]:
                return index
        return None


class StoreBuffer:
    """Committed stores awaiting release to memory.

    In the baseline pipeline this drains immediately; in the ReStore
    configuration it is the gated store buffer of Section 2.1 — stores
    between the live checkpoints stay here so a rollback can discard them.
    An SRAM structure (ECC target).
    """

    def __init__(self, config: PipelineConfig, registry: StateRegistry):
        size = config.store_buffer_entries
        self.size = size
        self.valid = [0] * size
        self.addr = [0] * size
        self.data = [0] * size
        self.size_log2 = [0] * size
        self._head = [0]
        self._tail = [0]
        # Monotonic push/pop sequence numbers (bookkeeping, not latched
        # state): checkpoint marks use these, so they stay unambiguous even
        # when the ring wraps completely between checkpoints.
        self.total_pushed = 0
        self.total_popped = 0
        registry.register_list("storebuf", "ram", "storebuf.valid", self.valid, 1)
        registry.register_list("storebuf", "ram", "storebuf.addr", self.addr, 64)
        registry.register_list("storebuf", "ram", "storebuf.data", self.data, 64)
        registry.register_list("storebuf", "ram", "storebuf.size", self.size_log2, 2)
        index_bits = _bits_for(size)
        registry.register_list("storebuf", "data", "storebuf.head", self._head, index_bits)
        registry.register_list("storebuf", "data", "storebuf.tail", self._tail, index_bits)
        registry.register_substrate(self, "total_pushed", "total_popped")

    @property
    def head(self) -> int:
        return self._head[0]

    @head.setter
    def head(self, value: int) -> None:
        self._head[0] = value % self.size

    @property
    def tail(self) -> int:
        return self._tail[0]

    @tail.setter
    def tail(self, value: int) -> None:
        self._tail[0] = value % self.size

    def is_full(self) -> bool:
        return self.valid[self.tail] == 1

    def is_empty(self) -> bool:
        # The youngest slot (tail - 1) is valid iff anything is buffered;
        # see entries_youngest_first, which walks backwards from there.
        return self.valid[(self._tail[0] - 1) % self.size] == 0

    def live_count(self) -> int:
        """Valid entries right now. In an uncorrupted machine this always
        equals ``total_pushed - total_popped`` (minus rollback truncations,
        which adjust total_pushed); a divergence means a valid bit was
        conjured or destroyed behind the buffer's back — the signature the
        spurious-memory-op symptom detector watches for."""
        return sum(self.valid)

    def push(self, addr: int, data: int, size_log2: int) -> bool:
        if self.is_full():
            return False
        slot = self.tail
        self.valid[slot] = 1
        self.addr[slot] = addr
        self.data[slot] = data
        self.size_log2[slot] = size_log2
        self.tail = slot + 1
        self.total_pushed += 1
        return True

    def entries_youngest_first(self) -> list[int]:
        """Valid slots from newest to oldest (for load forwarding)."""
        result = []
        slot = (self.tail - 1) % self.size
        for _ in range(self.size):
            if not self.valid[slot]:
                break
            result.append(slot)
            slot = (slot - 1) % self.size
        return result

    def pop_oldest(self) -> tuple[int, int, int] | None:
        slot = self.head
        if not self.valid[slot]:
            return None
        self.valid[slot] = 0
        self.head = slot + 1
        self.total_popped += 1
        return self.addr[slot], self.data[slot], self.size_log2[slot]

    def truncate_to(self, push_mark: int) -> None:
        """Discard entries pushed after sequence ``push_mark`` (rollback).

        Entries already released to memory (``total_popped``) cannot be
        recalled; with deterministic re-execution they are rewritten with
        identical values, so an early forced release stays benign."""
        while self.total_pushed > push_mark and self.total_pushed > self.total_popped:
            slot = (self.tail - 1) % self.size
            self.valid[slot] = 0
            self.tail = slot
            self.total_pushed -= 1
