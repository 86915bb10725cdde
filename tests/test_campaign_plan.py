"""Trial plans: allocations and the pending trials they expand to."""

from repro.campaign.plan import pending_trials, uniform_allocation
from repro.util.rng import DeterministicRng

WRNG = DeterministicRng(7).child("arch-campaign").child("gcc")


class ContainsOnly:
    """Journaled keys that may only be probed with ``in``, like the
    benchmark's set-up probe, which claims every key but lists none."""

    def __init__(self, keys):
        self.keys = set(keys)

    def __contains__(self, key):
        return key in self.keys

    def __iter__(self):
        raise AssertionError("completed keys must not be iterated")

    def __len__(self):
        raise AssertionError("completed keys must not be sized")


def indices(pending):
    return [(point, [index for index, _ in trials]) for point, trials in pending]


def test_uniform_allocation_is_the_divmod_split():
    assert uniform_allocation([3, 8, 9], 8) == [
        (3, 0, 3), (8, 0, 3), (9, 0, 2),
    ]
    assert sum(c for _, _, c in uniform_allocation(list(range(7)), 100)) == 100


def test_pending_trials_follow_the_allocation_in_journal_order():
    pending = pending_trials(WRNG, "gcc", [(3, 0, 3), (8, 2, 2)])
    assert indices(pending) == [(3, [0, 1, 2]), (8, [2, 3])]
    for point, trials in pending:
        for index, rng in trials:
            assert rng.seed == WRNG.child(f"trial:{point}:{index}").seed


def test_pending_trials_apply_the_stride_and_skip_journaled_keys():
    pending = pending_trials(
        WRNG, "gcc", [(3, 0, 3), (8, 2, 2)], shard=(1, 2),
        completed=ContainsOnly({"gcc:3:1"}),
    )
    # Point 3's only index in the slice is journaled, so the point drops.
    assert indices(pending) == [(8, [3])]
