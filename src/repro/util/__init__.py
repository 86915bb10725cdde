"""Shared utilities: bit manipulation, RNG streams, statistics, rendering.

These helpers are deliberately dependency-light; everything in the simulator
stack (ISA, architectural simulator, pipeline model, fault injection) builds
on them.
"""

from repro.util.journal import (
    JournalError,
    JournalWriter,
    config_to_dict,
    read_journal,
    repair_tail,
    stable_digest,
)
from repro.util.bitops import (
    MASK32,
    MASK64,
    bit_is_set,
    extract_bits,
    flip_bit,
    popcount,
    set_bits,
    sign_extend,
    to_signed64,
    to_unsigned64,
)
from repro.util.rng import DeterministicRng, derive_seed
from repro.util.stats import (
    BinomialEstimate,
    CategoryCounter,
    mean,
    proportion_confidence_interval,
)
from repro.util.tables import format_table, render_stacked_bars

__all__ = [
    "MASK32",
    "MASK64",
    "BinomialEstimate",
    "CategoryCounter",
    "DeterministicRng",
    "JournalError",
    "JournalWriter",
    "config_to_dict",
    "read_journal",
    "repair_tail",
    "stable_digest",
    "bit_is_set",
    "derive_seed",
    "extract_bits",
    "flip_bit",
    "format_table",
    "mean",
    "popcount",
    "proportion_confidence_interval",
    "render_stacked_bars",
    "set_bits",
    "sign_extend",
    "to_signed64",
    "to_unsigned64",
]
