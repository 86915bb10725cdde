"""Fault models.

The paper uses two:

- For the virtual-machine study: "a single bit flip in the result of a
  randomly chosen instruction", with a variant restricted to the bottom
  32 bits of each 64-bit result (Section 3.1's second campaign).
- For the microarchitectural study: "a single bit flip of a state element",
  targeting latches and RAM cells, excluding caches and predictor tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.rng import DeterministicRng


@dataclass(frozen=True)
class ArchResultBitFlip:
    """Flip one bit of a randomly chosen instruction's register result.

    ``low32_only`` restricts flips to the bottom 32 bits, modelling the
    paper's investigation of machines with smaller virtual address spaces.
    """

    low32_only: bool = False

    def choose_bit(self, rng: DeterministicRng) -> int:
        return rng.randrange(32 if self.low32_only else 64)


@dataclass(frozen=True)
class StateBitFlip:
    """Flip one bit of a randomly chosen microarchitectural state element.

    ``target_classes`` optionally restricts injection to a subset of state
    classes (e.g. only ``latch`` for the Section 5.1.2 study); ``None``
    targets all eligible state. It is the ``classes`` filter of
    :meth:`~repro.uarch.latches.StateRegistry.pick_bit`.
    """

    target_classes: tuple[str, ...] | None = None
