"""The machine-state schema: injectable arrays plus copied substrate.

Every piece of pipeline machine state registers here exactly once:

- **Injectable** arrays are the latches and RAM cells the paper's
  campaigns flip: one record per registered list, with a state class and
  a per-slot bit width. The registry counts their bits, picks a uniformly
  random (slot, bit) pair, flips it, snapshots the whole surface, and
  diffs two snapshots — exactly the operations latch-level campaigns need.
- **Substrate** is copied with the machine but never injected or counted:
  predictor tables, TLBs, timing metadata, counters, status scalars, the
  event wheel. :meth:`StateRegistry.capture` reads both kinds out as
  detached, picklable values and :meth:`StateRegistry.load` writes them
  into another registry of the same layout; with the memory image, that
  is all a :meth:`~repro.uarch.pipeline.Pipeline.fork` or a
  :meth:`~repro.uarch.pipeline.Pipeline.checkpoint` needs.
  :meth:`StateRegistry.equals` compares both kinds, which with the memory
  image is the uarch lockstep scheduler's heal check.

Injectable state classes mirror the paper's taxonomy:

- ``ram``  — SRAM arrays: physical register file, alias tables, free lists,
  fetch queue, store buffer ("structures that were implemented as SRAMs in
  our processor include the register file and register alias tables").
  These are the ECC targets of the "low-hanging-fruit" hardened pipeline.
- ``ctrl`` — control word latches: ROB and scheduler control fields, LSQ
  control bits. These are the parity targets of the hardened pipeline.
- ``data`` — datapath latches: in-flight addresses, values, and PCs that
  remain unprotected even in the hardened pipeline; ReStore's symptom
  coverage is what protects them.
- ``mem``  — memory-hierarchy metadata: cache tag/valid/LRU arrays and the
  MSHR file. The paper excludes these from its campaigns ("caches are
  easily protected by ECC or parity"), so they are injectable only when a
  pipeline is built with ``memhier_targets`` (substrate otherwise) — the
  opt-in fault surface behind the miss-rate-spike / stall-outlier /
  spurious-memory-op detector study. Tag-only caches make this class
  timing-only corruption: it can never change an architectural value
  directly.

Predictor tables are always substrate ("corrupt predictor table entries
cannot lead to failure"), and so are TLBs, even under ``memhier_targets``
— their FIFO page list has no fixed latch encoding.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from dataclasses import dataclass, field as dataclass_field
from typing import Any, Callable

from repro.util.rng import DeterministicRng

STATE_CLASSES = ("ram", "ctrl", "data", "mem")

# State classes counted as pipeline latches for the Section 5.1.2 study.
LATCH_CLASSES = ("ctrl", "data")


@dataclass(eq=False, slots=True)
class StateArray:
    """One injectable array. ``start`` is the flat index of its slot 0 in
    the numbering that snapshots, :meth:`StateRegistry.pick_bit`, and
    :meth:`StateRegistry.diff_indices` share."""

    name: str
    structure: str
    state_class: str
    storage: list[int] = dataclass_field(repr=False)
    width: int
    on_set: Callable[[], None] | None
    start: int


class StateField:
    """A view of one slot of a :class:`StateArray`, built on demand."""

    __slots__ = ("array", "slot", "name", "structure", "state_class", "width")

    def __init__(self, array: StateArray, slot: int):
        self.array = array
        self.slot = slot
        self.name = f"{array.name}[{slot}]"
        self.structure = array.structure
        self.state_class = array.state_class
        self.width = array.width

    def get(self) -> int:
        return self.array.storage[self.slot]

    def set(self, value: int) -> None:
        """Write through the registry: masks to width and fires ``on_set``."""
        self.array.storage[self.slot] = value & ((1 << self.width) - 1)
        if self.array.on_set is not None:
            self.array.on_set()

    def flip(self, bit: int) -> None:
        if not 0 <= bit < self.width:
            raise ValueError(f"bit {bit} out of range for {self.name}")
        self.set(self.get() ^ (1 << bit))

    def __repr__(self) -> str:
        return f"StateField({self.name}, {self.state_class}, {self.width}b)"


class StateRegistry:
    """The machine-state schema of one pipeline instance."""

    def __init__(self):
        self.arrays: list[StateArray] = []
        # (weakref to owner, attribute, clone) records.
        self.substrate: list[tuple[weakref.ref, str, Callable | None]] = []
        self._slots = 0
        self._fields: list[StateField] | None = None
        self._tables: dict = {}

    # ---------------------------------------------------------- registering

    def register_list(
        self,
        structure: str,
        state_class: str,
        base_name: str,
        storage: list[int],
        width: int,
        on_set: Callable[[], None] | None = None,
    ) -> None:
        """Register a list of ints (an SRAM array or a latch bank) as
        injectable state. The list must stay in place, never rebound.

        ``on_set``, when given, fires after every write through the
        registry — fault injection (:meth:`StateField.flip`),
        :meth:`restore`, and :meth:`load` — but not on the structure's
        own direct list writes. Structures use it to invalidate derived
        lookup indexes (e.g. the scheduler's wakeup index) when state
        changes behind their back."""
        if state_class not in STATE_CLASSES:
            raise ValueError(f"unknown state class {state_class!r}")
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        self.arrays.append(StateArray(
            base_name, structure, state_class, storage, width, on_set, self._slots
        ))
        self._slots += len(storage)
        self._fields = None
        self._tables.clear()

    def register_substrate(
        self, owner: Any, *attributes: str, clone: Callable | None = None
    ) -> None:
        """Register attributes of ``owner`` as substrate: captured and
        loaded with the machine, never injected, counted, or snapshotted.
        Lists are loaded in place; other values are rebound, through
        ``clone`` when they hold mutable containers.

        Owners are held weakly: a pipeline registers its own status
        scalars, and a strong reference back to it would make every fork a
        reference cycle that outlives its trial until the cyclic garbage
        collector happens to run."""
        ref = weakref.ref(owner)
        self.substrate.extend((ref, attribute, clone) for attribute in attributes)

    def capture(self) -> tuple[list[list[int]], list[Any]]:
        """Every registered value as plain data, detached from this
        machine: injectable arrays and substrate lists as fresh lists,
        ``clone`` records cloned, scalars as they are. The result
        pickles, and :meth:`load` writes it into any registry built by
        the same constructor, as often as asked."""
        substrate = []
        for owner_ref, attribute, clone in self.substrate:
            value = getattr(owner_ref(), attribute)
            if clone is not None:
                value = clone(value)
            elif type(value) is list:
                value = list(value)
            substrate.append(value)
        return [list(array.storage) for array in self.arrays], substrate

    def load(self, values: tuple[list[list[int]], list[Any]]) -> None:
        """Write a :meth:`capture` into this registry: arrays and
        substrate lists in place (firing ``on_set``), ``clone`` records as
        fresh clones, so the capture itself is never aliased."""
        arrays, substrate = values
        for array, stored in zip(self.arrays, arrays, strict=True):
            array.storage[:] = stored
            if array.on_set is not None:
                array.on_set()
        for (owner_ref, attribute, clone), value in zip(
            self.substrate, substrate, strict=True
        ):
            owner = owner_ref()
            if clone is not None:
                setattr(owner, attribute, clone(value))
            elif type(value) is list:
                getattr(owner, attribute)[:] = value
            else:
                setattr(owner, attribute, value)

    def equals(self, other: "StateRegistry") -> bool:
        """Whether ``other``, a registry built by the same constructor,
        holds exactly this one's values: every injectable array and every
        substrate value. Two pipelines whose registries and memory images
        are equal step identically from then on; the uarch lockstep
        scheduler retires a shadow on that test."""
        for mine, theirs in zip(self.arrays, other.arrays, strict=True):
            if mine.storage != theirs.storage:
                return False
        for (owner_ref, attribute, _), (target_ref, _, _) in zip(
            self.substrate, other.substrate, strict=True
        ):
            if getattr(owner_ref(), attribute) != getattr(target_ref(), attribute):
                return False
        return True

    # ------------------------------------------------------------- queries

    @property
    def fields(self) -> list[StateField]:
        """One view per injectable slot, in flat-index order (built lazily
        for reports; per-trial code resolves single indexes with
        :meth:`field`)."""
        if self._fields is None:
            self._fields = [
                StateField(array, slot)
                for array in self.arrays
                for slot in range(len(array.storage))
            ]
        return self._fields

    def locate(self, index: int) -> tuple[StateArray, int]:
        """The array and slot behind a flat slot index."""
        if not 0 <= index < self._slots:
            raise IndexError(f"slot index {index} out of range")
        position = bisect_right(self.arrays, index, key=lambda array: array.start)
        array = self.arrays[position - 1]
        return array, index - array.start

    def field(self, index: int) -> StateField:
        return StateField(*self.locate(index))

    def total_bits(self, classes: tuple[str, ...] | None = None) -> int:
        _, ends = self._table(classes)
        return ends[-1] if ends else 0

    def bits_by_structure(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for array in self.arrays:
            bits = len(array.storage) * array.width
            totals[array.structure] = totals.get(array.structure, 0) + bits
        return totals

    # ------------------------------------------------------------ sampling

    def _table(self, classes: tuple[str, ...] | None) -> tuple[list, list[int]]:
        """The (optionally class-filtered) arrays and their cumulative bit
        ends, cached per class tuple."""
        key = None if classes is None else tuple(classes)
        if key not in self._tables:
            arrays = [a for a in self.arrays if key is None or a.state_class in key]
            ends, total = [], 0
            for array in arrays:
                total += len(array.storage) * array.width
                ends.append(total)
            self._tables[key] = (arrays, ends)
        return self._tables[key]

    def pick_bit(
        self,
        rng: DeterministicRng,
        classes: tuple[str, ...] | None = None,
    ) -> tuple[int, int]:
        """Uniformly pick one bit across all (optionally filtered) state.

        Returns ``(index, bit)``: the flat slot index (resolve it with
        :meth:`field`) and the bit within that slot. One ``randrange``
        over the filtered bit total, so the draw matches a per-slot
        bisection exactly."""
        arrays, ends = self._table(classes)
        if not ends or not ends[-1]:
            raise ValueError("no fields to pick from")
        bit_index = rng.randrange(ends[-1])
        position = bisect_right(ends, bit_index)
        array = arrays[position]
        slot, bit = divmod(bit_index - (ends[position - 1] if position else 0),
                           array.width)
        return array.start + slot, bit

    # ----------------------------------------------------------- snapshots

    def snapshot(self) -> list[int]:
        """Values of every injectable slot, in flat-index order."""
        values: list[int] = []
        for array in self.arrays:
            values.extend(array.storage)
        return values

    def restore(self, snapshot: list[int]) -> None:
        if len(snapshot) != self._slots:
            raise ValueError("snapshot length mismatch")
        for array in self.arrays:
            mask = (1 << array.width) - 1
            end = array.start + len(array.storage)
            array.storage[:] = [value & mask for value in snapshot[array.start:end]]
            if array.on_set is not None:
                array.on_set()

    def diff_indices(self, a: list[int], b: list[int]) -> list[int]:
        """Flat indices of slots whose values differ between two snapshots."""
        if len(a) != len(b):
            raise ValueError("snapshot length mismatch")
        return [index for index, (x, y) in enumerate(zip(a, b)) if x != y]
