"""State registry: registration, sampling, snapshots."""

import pytest
from hypothesis import given, strategies as st

from repro.uarch.latches import LATCH_CLASSES, StateRegistry
from repro.util.rng import DeterministicRng


def build_registry():
    registry = StateRegistry()
    storage_a = [0] * 4
    storage_b = [0] * 2
    registry.register_list("alpha", "ram", "alpha.v", storage_a, 8)
    registry.register_list("beta", "ctrl", "beta.v", storage_b, 3)
    return registry, storage_a, storage_b


class TestRegistration:
    def test_field_counts_and_bits(self):
        registry, _, _ = build_registry()
        assert len(registry.fields) == 6
        assert registry.total_bits() == 4 * 8 + 2 * 3
        assert registry.total_bits(("ctrl",)) == 6

    def test_bits_by_structure(self):
        registry, _, _ = build_registry()
        assert registry.bits_by_structure() == {"alpha": 32, "beta": 6}

    def test_width_validation(self):
        registry = StateRegistry()
        with pytest.raises(ValueError):
            registry.register_list("s", "ram", "x", [0], 0)

    def test_state_class_validation(self):
        registry = StateRegistry()
        with pytest.raises(ValueError):
            registry.register_list("s", "bogus", "x", [0], 1)

    def test_latch_classes(self):
        assert set(LATCH_CLASSES) == {"ctrl", "data"}


class TestAccessors:
    def test_setter_masks_to_width(self):
        registry, storage, _ = build_registry()
        registry.fields[0].set(0x1FF)
        assert storage[0] == 0xFF

    def test_flip_changes_storage(self):
        registry, storage, _ = build_registry()
        registry.fields[1].flip(3)
        assert storage[1] == 8
        registry.fields[1].flip(3)
        assert storage[1] == 0

    def test_flip_validates_bit(self):
        registry, _, _ = build_registry()
        with pytest.raises(ValueError):
            registry.fields[0].flip(8)

    def test_fields_of_classes(self):
        registry, _, _ = build_registry()
        assert [f.state_class for f in registry.fields] == ["ram"] * 4 + ["ctrl"] * 2
        assert registry.total_bits(("ram",)) == 4 * 8
        assert registry.total_bits(("ram", "ctrl")) == registry.total_bits()


class TestSampling:
    def test_pick_bit_uniform_over_bits(self):
        registry, _, _ = build_registry()
        rng = DeterministicRng(42)
        counts = {"alpha": 0, "beta": 0}
        for _ in range(3000):
            index, bit = registry.pick_bit(rng)
            field = registry.field(index)
            counts[field.structure] += 1
            assert 0 <= bit < field.width
        # alpha has 32 of 38 bits ~ 84%.
        fraction = counts["alpha"] / 3000
        assert 0.78 < fraction < 0.90

    def test_pick_bit_with_class_filter(self):
        registry, _, _ = build_registry()
        rng = DeterministicRng(1)
        for _ in range(50):
            index, _ = registry.pick_bit(rng, classes=("ctrl",))
            assert registry.field(index).state_class == "ctrl"

    def test_pick_bit_empty_filter(self):
        registry, _, _ = build_registry()
        with pytest.raises(ValueError):
            registry.pick_bit(DeterministicRng(1), classes=("data",))


class TestSnapshots:
    def test_snapshot_restore_roundtrip(self):
        registry, storage_a, storage_b = build_registry()
        storage_a[2] = 17
        storage_b[0] = 5
        snapshot = registry.snapshot()
        storage_a[2] = 0
        storage_b[0] = 0
        registry.restore(snapshot)
        assert storage_a[2] == 17 and storage_b[0] == 5

    def test_diff_indices(self):
        registry, storage_a, _ = build_registry()
        before = registry.snapshot()
        storage_a[1] = 9
        after = registry.snapshot()
        assert registry.diff_indices(before, after) == [1]

    def test_diff_validates_length(self):
        registry, _, _ = build_registry()
        with pytest.raises(ValueError):
            registry.diff_indices([0], registry.snapshot())

    @given(st.integers(0, 3), st.integers(0, 7))
    def test_flip_shows_in_diff(self, index, bit):
        registry, _, _ = build_registry()
        before = registry.snapshot()
        registry.fields[index].flip(bit)
        diff = registry.diff_indices(before, registry.snapshot())
        assert diff == [index]
