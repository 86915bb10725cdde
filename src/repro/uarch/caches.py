"""Cache, TLB, and MSHR timing models.

These model hit/miss behaviour only — data always comes from the memory
image, since an L1 in a single-core model is always coherent with it. They
exist for three reasons: realistic load/fetch latencies, the cache/TLB
*miss symptoms* discussed in Section 3.3 (rare-in-steady-state events that
a soft error can trigger, candidates for symptom-based detection), and —
when the pipeline is built with ``memhier_targets`` — a memory-hierarchy
fault surface: cache tag/valid/LRU state and the MSHR file register in the
:class:`~repro.uarch.latches.StateRegistry` as injectable ``mem`` state so
campaigns can flip them (otherwise they register as substrate, copied by
forks but never flipped).

Because the caches are tag-only (data never lives here), a corrupted tag,
valid, or LRU bit can only perturb *timing* — spurious misses, spurious
hits on the wrong line's latency, structural stalls — never architectural
values. That is exactly the corruption class the miss-rate-spike and
stall-outlier symptom detectors exist to catch. By default (the paper's
configuration) none of this state registers: the paper excludes caches
from injection ("caches are easily protected by ECC or parity").
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.uarch.latches import StateRegistry

_ADDRESS_BITS = 64


def _log2_or_none(value: int) -> int | None:
    if value > 0 and not (value & (value - 1)):
        return value.bit_length() - 1
    return None


def _index_bits(slots: int) -> int:
    """Bits needed to name one of ``slots`` entries (>= 1)."""
    return max(1, (slots - 1).bit_length())


class SetAssociativeCache:
    """Tag-only set-associative cache with LRU replacement.

    State lives in three flat registerable arrays (``sets * ways`` slots
    each, set-major): ``_tags``, ``_valid``, and ``_order``. The LRU order
    array holds way numbers, most-recent first within each set's span — the
    hardware's per-set recency stack encoded as one latch bank. Arrays are
    mutated in place only, so the registry's records and forks stay valid.
    """

    def __init__(self, sets: int, ways: int, line_bytes: int):
        if sets & (sets - 1):
            raise ValueError("sets must be a power of two")
        self.sets = sets
        self.ways = ways
        self.line_bytes = line_bytes
        slots = sets * ways
        self._tags: list[int] = [0] * slots
        self._valid: list[int] = [0] * slots
        # LRU order, set-major: _order[set*ways + pos] is a way number,
        # pos 0 = most recently used.
        self._order: list[int] = list(range(ways)) * sets
        self.hits = 0
        self.misses = 0
        line_bits = _log2_or_none(line_bytes)
        set_bits = _log2_or_none(sets)
        if line_bits is not None and set_bits is not None:
            self.tag_bits = max(1, _ADDRESS_BITS - line_bits - set_bits)
        else:
            self.tag_bits = _ADDRESS_BITS
        self._tag_mask = (1 << self.tag_bits) - 1
        self.order_bits = _index_bits(ways)

    def _set_tag(self, address: int) -> tuple[int, int]:
        line = address // self.line_bytes
        return line % self.sets, (line // self.sets) & self._tag_mask

    def access(self, address: int) -> bool:
        """Access a line; returns True on hit. Misses fill (allocate)."""
        set_index, tag = self._set_tag(address)
        base = set_index * self.ways
        ways = self.ways
        tags = self._tags
        valid = self._valid
        order = self._order
        for position in range(ways):
            way = order[base + position]
            # An injected order bit can name a way outside the set; such a
            # slot is unreachable until the position is refilled.
            if way >= ways:
                continue
            if valid[base + way] and tags[base + way] == tag:
                if position:  # already MRU otherwise; moving is a no-op
                    for index in range(base + position, base, -1):
                        order[index] = order[index - 1]
                    order[base] = way
                self.hits += 1
                return True
        # Miss: replace the LRU way (clamped in case of a corrupted entry).
        victim = order[base + ways - 1]
        if victim >= ways:
            victim = ways - 1
        for index in range(base + ways - 1, base, -1):
            order[index] = order[index - 1]
        order[base] = victim
        tags[base + victim] = tag
        valid[base + victim] = 1
        self.misses += 1
        return False

    def probe(self, address: int) -> bool:
        """Check residency without updating LRU or filling."""
        set_index, tag = self._set_tag(address)
        base = set_index * self.ways
        for way in range(self.ways):
            if self._valid[base + way] and self._tags[base + way] == tag:
                return True
        return False

    def register_state(
        self, registry: "StateRegistry", structure: str, injectable: bool = True
    ) -> None:
        """Register the tag/valid/LRU arrays as injectable ``mem``-class
        state (substrate when not ``injectable``), the tallies as substrate."""
        registry.register_substrate(self, "hits", "misses")
        if not injectable:
            registry.register_substrate(self, "_tags", "_valid", "_order")
            return
        for name, storage, width in (
            ("tag", self._tags, self.tag_bits),
            ("valid", self._valid, 1),
            ("lru", self._order, self.order_bits),
        ):
            registry.register_list(structure, "mem", f"{structure}.{name}", storage, width)


class Tlb:
    """Fully-associative TLB with FIFO replacement.

    The page list is variable-length (a Python-level FIFO), so it has no
    fixed latch encoding to inject into; TLBs register as substrate even
    under ``memhier_targets``.
    """

    def __init__(self, entries: int, page_shift: int = 13):
        self.entries = entries
        self.page_shift = page_shift
        self._pages: list[int] = []
        self.hits = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Translate; returns True on hit. Misses fill."""
        page = address >> self.page_shift
        if page in self._pages:
            self.hits += 1
            return True
        self.misses += 1
        self._pages.append(page)
        if len(self._pages) > self.entries:
            self._pages.pop(0)
        return False

    def register_state(self, registry: "StateRegistry") -> None:
        registry.register_substrate(self, "_pages", "hits", "misses")


class MshrFile:
    """Miss Status Holding Registers: outstanding D-cache miss tracking.

    One entry per in-flight miss: a valid bit and the miss address. A fill
    completion releases the entry holding its address; a fill that finds no
    matching entry is a *spurious memory op* (the corruption signature a
    flipped valid or address bit produces). A full file is a structural
    hazard — the pipeline charges an extra miss penalty, which is how a
    corrupted occupancy becomes a visible stall symptom.
    """

    def __init__(self, entries: int):
        if entries < 1:
            raise ValueError(f"mshr entries must be >= 1, got {entries}")
        self.entries = entries
        self._valid: list[int] = [0] * entries
        self._addr: list[int] = [0] * entries
        self.allocations = 0
        self.overflows = 0

    def occupancy(self) -> int:
        return sum(self._valid)

    def is_full(self) -> bool:
        return self.occupancy() >= self.entries

    def allocate(self, address: int) -> int | None:
        """Claim a free entry for a miss to ``address`` (None when full)."""
        for slot in range(self.entries):
            if not self._valid[slot]:
                self._valid[slot] = 1
                self._addr[slot] = address & ((1 << _ADDRESS_BITS) - 1)
                self.allocations += 1
                return slot
        self.overflows += 1
        return None

    def release(self, address: int) -> bool:
        """Complete the fill for ``address``; False = no matching entry."""
        for slot in range(self.entries):
            if self._valid[slot] and self._addr[slot] == address:
                self._valid[slot] = 0
                self._addr[slot] = 0
                return True
        return False

    def clear(self) -> None:
        """Discard all outstanding misses (pipeline flush)."""
        for slot in range(self.entries):
            self._valid[slot] = 0
            self._addr[slot] = 0

    def register_state(
        self, registry: "StateRegistry", structure: str = "mshr", injectable: bool = True
    ) -> None:
        registry.register_substrate(self, "allocations", "overflows")
        if not injectable:
            registry.register_substrate(self, "_valid", "_addr")
            return
        registry.register_list(structure, "mem", f"{structure}.valid", self._valid, 1)
        registry.register_list(
            structure, "mem", f"{structure}.addr", self._addr, _ADDRESS_BITS
        )
