"""Fault model definitions."""

from repro.faults.models import ArchResultBitFlip, StateBitFlip
from repro.uarch import load_pipeline
from repro.uarch.latches import LATCH_CLASSES
from repro.util.rng import DeterministicRng
from repro.workloads import build_workload


class TestArchResultBitFlip:
    def test_full_width_model(self):
        model = ArchResultBitFlip()
        rng = DeterministicRng(1)
        bits = {model.choose_bit(rng) for _ in range(2000)}
        assert min(bits) == 0 and max(bits) == 63

    def test_low32_model(self):
        model = ArchResultBitFlip(low32_only=True)
        rng = DeterministicRng(1)
        bits = {model.choose_bit(rng) for _ in range(2000)}
        assert max(bits) == 31


class TestStateBitFlip:
    def test_targets_all_by_default(self):
        registry = load_pipeline(build_workload("gcc").program).registry
        model = StateBitFlip()
        assert registry.total_bits(model.target_classes) == registry.total_bits()
        rng = DeterministicRng(3)
        classes = {
            registry.field(registry.pick_bit(rng, model.target_classes)[0]).state_class
            for _ in range(400)
        }
        assert classes == {"ram", "ctrl", "data"}

    def test_targets_filtered_by_class(self):
        registry = load_pipeline(build_workload("gcc").program).registry
        model = StateBitFlip(target_classes=LATCH_CLASSES)
        latch_bits = registry.total_bits(model.target_classes)
        assert 0 < latch_bits < registry.total_bits()
        rng = DeterministicRng(3)
        for _ in range(200):
            index, bit = registry.pick_bit(rng, model.target_classes)
            field = registry.field(index)
            assert field.state_class in LATCH_CLASSES
            assert 0 <= bit < field.width
