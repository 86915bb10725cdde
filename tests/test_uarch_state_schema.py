"""The pipeline's machine-state schema: every attribute is registered once;
fork, snapshot/restore, checkpoint/restore and the golden-cache pickle
reproduce every registered value; and a prefix restored from golden's
checkpoints is the prefix a walk from reset reaches."""

import random
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.arch.memory import PAGE_SHIFT, PAGE_SIZE
from repro.cache import GoldenArtifactCache, UarchGoldenArtifact
from repro.faults import UarchCampaignConfig, uarch_campaign
from repro.faults.uarch_campaign import _latent_is_arch_relevant, _same_state
from repro.restore.symptoms import MEMHIER_DETECTOR_NAMES
from repro.uarch import load_pipeline
from repro.util.rng import DeterministicRng
from repro.workloads import WORKLOAD_NAMES, build_workload

# Pipeline attributes holding components whose own attributes are checked.
COMPONENTS = (
    "fetchq", "prf", "spec_rat", "arch_rat", "freelist", "sched", "rob",
    "ldq", "stq", "storebuf", "predictor", "btb", "ras", "confidence",
    "memdep", "icache", "dcache", "itlb", "dtlb", "mshr",
)

# Attributes deliberately outside the schema, per class: configuration and
# constructor arguments, hooks, telemetry, logs, derived indexes, and caches
# of pure functions. Everything else must be registered.
WIRING = {
    "Pipeline": {
        # configuration and constructor arguments
        "config", "memory", "fast", "memhier_targets",
        "record_cache_symptoms", "record_memhier_symptoms", "registry",
        # hooks installed by ReStore controllers and campaigns
        "on_retire", "symptom_handler", "branch_oracle", "pre_cycle_hook",
        "retire_stall", "storebuf_full_hook", "preg_free_hook",
        # telemetry and logs
        "telemetry", "retired_log", "symptoms",
        # decode/fetch caches and scratch
        "_decode_cache", "_fetch_cache", "_fetch_cache_version",
        "_issue_scratch",
    },
    "FetchQueue": {"size"},
    "PhysicalRegisterFile": {"size"},
    "RegisterAliasTable": {"name"},
    "FreeList": {"capacity"},
    "Scheduler": {"size", "use_wakeup_index", "_waiters"},
    "ReorderBuffer": {"size"},
    "LoadQueue": {"size"},
    "StoreQueue": {"size"},
    "StoreBuffer": {"size"},
    "CombiningPredictor": {"config", "_history_mask"},
    "BranchTargetBuffer": {"entries"},
    "ReturnAddressStack": {"entries"},
    "JrsConfidenceEstimator": {"entries", "max_value", "threshold"},
    "MemoryDependencePredictor": {"entries"},
    "SetAssociativeCache": {
        "sets", "ways", "line_bytes", "tag_bits", "_tag_mask", "order_bits",
    },
    "Tlb": {"entries", "page_shift"},
    "MshrFile": {"entries"},
}

BUNDLE = build_workload("gcc")


def unregistered(pipeline) -> list[str]:
    """Attributes of the pipeline and its components that are neither in
    the schema nor on the wiring allowlist."""
    registry = pipeline.registry
    arrays = {id(array.storage) for array in registry.arrays}
    substrate = {(id(ref()), attr) for ref, attr, _ in registry.substrate}
    missing = []
    for owner in [pipeline] + [getattr(pipeline, name) for name in COMPONENTS]:
        allowed = WIRING[type(owner).__name__]
        for attr, value in vars(owner).items():
            if owner is pipeline and attr in COMPONENTS:
                continue
            if attr in allowed or (id(owner), attr) in substrate:
                continue
            if type(value) is list and id(value) in arrays:
                continue
            missing.append(f"{type(owner).__name__}.{attr}")
    return missing


def schema_values(pipeline) -> tuple[list, list]:
    registry = pipeline.registry
    return (
        [list(array.storage) for array in registry.arrays],
        [getattr(ref(), attr) for ref, attr, _ in registry.substrate],
    )


def perturb(pipeline, rnd: random.Random) -> None:
    """Overwrite every registered slot and scalar with a random value that
    fits it (injectable slots within their bit width)."""
    registry = pipeline.registry
    for array in registry.arrays:
        array.storage[:] = [rnd.getrandbits(array.width) for _ in array.storage]
    for ref, attr, _ in registry.substrate:
        owner = ref()
        value = getattr(owner, attr)
        if isinstance(value, bool):
            setattr(owner, attr, not value)
        elif isinstance(value, int):
            setattr(owner, attr, rnd.getrandbits(16))
        elif isinstance(value, list):
            value[:] = [rnd.getrandbits(16) for _ in value] + [rnd.getrandbits(16)]
        elif isinstance(value, dict):
            cycle = pipeline.cycle_count + rnd.randint(1, 50)
            value.setdefault(cycle, []).append(("wb", 1, 2, 3, rnd.getrandbits(64)))
        elif value is None or isinstance(value, tuple):
            setattr(owner, attr, (rnd.randrange(5), rnd.getrandbits(64)))
        else:
            raise AssertionError(f"no perturbation for {attr}: {type(value)}")


def assert_unaliased(a, b) -> None:
    for mine, theirs in zip(a.registry.arrays, b.registry.arrays):
        assert mine.storage is not theirs.storage, mine.name
    for (mine_ref, attr, _), (theirs_ref, _, _) in zip(
        a.registry.substrate, b.registry.substrate
    ):
        mine, theirs = getattr(mine_ref(), attr), getattr(theirs_ref(), attr)
        if isinstance(mine, (list, dict)):
            assert mine is not theirs, attr
        if isinstance(mine, dict):
            for cycle, bucket in mine.items():
                assert bucket is not theirs[cycle], attr


@pytest.mark.parametrize("memhier_targets", [False, True])
class TestRegistrationGuard:
    def test_every_attribute_is_registered_or_wiring(self, memhier_targets):
        pipeline = load_pipeline(BUNDLE.program, memhier_targets=memhier_targets)
        pipeline.run(300)
        assert unregistered(pipeline) == []
        assert unregistered(pipeline.fork()) == []

    def test_registered_exactly_once(self, memhier_targets):
        pipeline = load_pipeline(BUNDLE.program, memhier_targets=memhier_targets)
        registry = pipeline.registry
        arrays = [id(array.storage) for array in registry.arrays]
        substrate = [(id(ref()), attr) for ref, attr, _ in registry.substrate]
        assert len(set(arrays)) == len(arrays)
        assert len(set(substrate)) == len(substrate)
        substrate_values = {
            id(getattr(ref(), attr)) for ref, attr, _ in registry.substrate
        }
        assert not substrate_values & set(arrays)

    def test_new_attribute_fails_the_guard(self, memhier_targets):
        pipeline = load_pipeline(BUNDLE.program, memhier_targets=memhier_targets)
        pipeline.new_counter = 0
        pipeline.rob.new_table = [0] * 4
        assert unregistered(pipeline) == [
            "Pipeline.new_counter", "ReorderBuffer.new_table",
        ]


class TestSchemaRoundTrips:
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        cycles=st.integers(0, 1_200),
        elsewhere_cycles=st.integers(0, 1_200),
        seed=st.integers(0, 2**32 - 1),
        memhier_targets=st.booleans(),
    )
    def test_fork_snapshot_and_cache_reproduce_every_value(
        self, cycles, elsewhere_cycles, seed, memhier_targets
    ):
        rnd = random.Random(seed)
        pipeline = load_pipeline(BUNDLE.program, memhier_targets=memhier_targets)
        pipeline.run(cycles)
        perturb(pipeline, rnd)
        for page in pipeline.memory.mapped_pages():
            address = (page << PAGE_SHIFT) + rnd.randrange(PAGE_SIZE - 8)
            pipeline.memory.load_bytes(address, rnd.randbytes(8))
        expected = schema_values(pipeline)
        checkpoint = pipeline.checkpoint()

        fork = pipeline.fork()
        assert schema_values(fork) == expected
        assert_unaliased(pipeline, fork)
        assert schema_values(pipeline) == expected

        snapshot = pipeline.registry.snapshot()
        fresh = load_pipeline(BUNDLE.program, memhier_targets=memhier_targets)
        fresh.registry.restore(snapshot)
        assert fresh.registry.snapshot() == snapshot
        assert schema_values(fresh)[0] == expected[0]

        # The golden cache pickles snapshots and checkpoints; each must
        # restore exactly.
        artifact = UarchGoldenArtifact(
            end_cycle=pipeline.cycle_count, retired=[],
            snapshots={pipeline.cycle_count: snapshot},
            retired_at={pipeline.cycle_count: pipeline.retired_count},
            final_arch_regs=pipeline.arch_reg_values(),
            final_memory=pipeline.memory,
            hc_mispredicts=((pipeline.cycle_count, pipeline.retired_count),),
            checkpoints={pipeline.cycle_count: checkpoint},
        )
        config = UarchCampaignConfig(memhier_targets=memhier_targets)
        with tempfile.TemporaryDirectory() as root:
            cache = GoldenArtifactCache(root)
            assert cache.store("uarch", BUNDLE.program, config, artifact)
            loaded = cache.load("uarch", BUNDLE.program, config)
        cached = load_pipeline(BUNDLE.program, memhier_targets=memhier_targets)
        cached.registry.restore(loaded.snapshots[pipeline.cycle_count])
        assert schema_values(cached)[0] == expected[0]
        assert cached.memhier_targets == memhier_targets
        assert loaded.hc_mispredicts == artifact.hc_mispredicts

        # A pickled checkpoint puts a pipeline standing at another cycle
        # into exactly the checkpointed state, in place.
        elsewhere = load_pipeline(BUNDLE.program, memhier_targets=memhier_targets)
        elsewhere.run(elsewhere_cycles)
        registry = elsewhere.registry
        elsewhere.restore(loaded.checkpoints[pipeline.cycle_count])
        assert elsewhere.registry is registry
        assert schema_values(elsewhere) == expected
        assert _same_state(elsewhere, pipeline)
        assert elsewhere.memory.diff_addresses(pipeline.memory) == []
        assert elsewhere._fetch_cache == {}
        # Neither side aliases the other or the checkpoint.
        assert_unaliased(pipeline, elsewhere)
        perturb(elsewhere, rnd)
        for page in elsewhere.memory.mapped_pages():
            elsewhere.memory.load_bytes(page << PAGE_SHIFT, b"\xff" * 8)
        elsewhere.restore(loaded.checkpoints[pipeline.cycle_count])
        assert schema_values(elsewhere) == expected
        assert _same_state(elsewhere, pipeline)

    def test_copy_drops_the_scheduler_waiter_index(self):
        source = load_pipeline(BUNDLE.program)
        source.run(400)
        target = load_pipeline(BUNDLE.program)
        target.run(400)
        assert target.sched._waiters is not None
        target.registry.load(source.registry.capture())
        assert target.sched._waiters is None
        assert schema_values(target) == schema_values(source)

    def test_flat_indices_resolve_to_named_slots(self):
        registry = load_pipeline(BUNDLE.program).registry
        for index in (0, 1_000, len(registry.fields) - 1):
            array, slot = registry.locate(index)
            assert registry.field(index).name == registry.fields[index].name
            assert registry.fields[index].name == f"{array.name}[{slot}]"
        with pytest.raises(IndexError):
            registry.locate(len(registry.fields))


# Cycles a restored prefix and the walked one step side by side.
STEP_CYCLES = 500


def restored_equals_walked(name: str, config: UarchCampaignConfig) -> int:
    """Build golden's checkpoints at the campaign's own injection points,
    walk a fresh pipeline from reset through every point, and check the
    prefix restored at each point against it: the same state there, and
    the same retired records, symptoms and state after both step
    :data:`STEP_CYCLES` more. Returns the number of points checked."""
    bundle = build_workload(name, config.workload_scale, config.seed)
    wrng = DeterministicRng(config.seed).child("uarch-campaign").child(name)
    probe = uarch_campaign._run_golden(bundle, config, snapshot_cycles=None)
    assert probe.checkpoints == {}
    points = uarch_campaign._injection_points(wrng, config, probe.end_cycle)
    golden = uarch_campaign._run_golden(
        bundle, config, snapshot_cycles=None, checkpoint_cycles=points
    )
    assert sorted(golden.checkpoints) == points

    options = dict(
        record_cache_symptoms=config.record_cache_symptoms,
        memhier_targets=config.memhier_targets,
        record_memhier_symptoms=config.record_memhier_symptoms,
    )
    walked = load_pipeline(bundle.program, **options)
    walked.retired_log = []
    stepping: dict[int, list] = {}  # end cycle -> [(restored, retired, symptoms)]
    stops = sorted(set(points) | {point + STEP_CYCLES for point in points})
    for cycle in stops:
        walked.run(cycle - walked.cycle_count)
        if cycle in golden.checkpoints:
            restored = load_pipeline(bundle.program, **options)
            restored.restore(golden.checkpoints[cycle])
            assert _same_state(restored, walked), (name, cycle)
            restored.retired_log = []
            restored.symptoms = []
            restored.run(STEP_CYCLES)
            stepping.setdefault(cycle + STEP_CYCLES, []).append(
                (restored, len(walked.retired_log), len(walked.symptoms))
            )
        for restored, retired, symptoms in stepping.pop(cycle, []):
            assert restored.cycle_count == walked.cycle_count, (name, cycle)
            assert restored.retired_log == walked.retired_log[retired:], (name, cycle)
            assert restored.symptoms == walked.symptoms[symptoms:], (name, cycle)
            assert _same_state(restored, walked), (name, cycle)
    assert not stepping
    return len(points)


class TestRestoredPrefix:
    """The campaign's prefix jumps to an injection point by restoring
    golden's checkpoint there instead of stepping; that is only sound if
    the restored machine is the walked one, at the point and from then on.
    This is the first test to run after touching the schema or Pipeline."""

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_restored_prefix_is_the_walked_prefix(self, name):
        config = UarchCampaignConfig(seed=2005, workloads=(name,))
        assert restored_equals_walked(name, config) == config.injection_points

    def test_with_memhier_targets_and_symptoms(self):
        config = UarchCampaignConfig(
            seed=2005, workloads=("mcf",), memhier_targets=True,
            detectors=MEMHIER_DETECTOR_NAMES,
        )
        assert config.record_memhier_symptoms
        assert restored_equals_walked("mcf", config) == config.injection_points


def nudged(value, rnd: random.Random):
    """A value of the same kind as ``value`` that differs from it in one
    place: one list element, one event, one flag, one number."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, list):
        changed = list(value)
        slot = rnd.randrange(len(changed))
        changed[slot] = changed[slot] + 1
        return changed
    if isinstance(value, dict):
        changed = {cycle: list(bucket) for cycle, bucket in value.items()}
        changed.setdefault(max(changed, default=0) + 1, []).append(("wb", 0, 0, 0, 0))
        return changed
    if value is None or isinstance(value, tuple):
        return (0, 0) if value is None else None
    raise AssertionError(f"no nudge for {type(value)}")


class TestHealPredicate:
    """The uarch lockstep scheduler retires a shadow once its registry and
    memory equal the prefix's. A fork must pass that test, and any one
    change to a registered slot, a substrate value, or a memory byte must
    fail it; with the registration guard above, no machine state can stay
    outside the check."""

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        cycles=st.integers(0, 1_200),
        seed=st.integers(0, 2**32 - 1),
        memhier_targets=st.booleans(),
    )
    def test_fork_equals_parent_and_any_one_change_breaks_it(
        self, cycles, seed, memhier_targets
    ):
        rnd = random.Random(seed)
        pipeline = load_pipeline(BUNDLE.program, memhier_targets=memhier_targets)
        pipeline.run(cycles)
        perturb(pipeline, rnd)
        fork = pipeline.fork()
        assert _same_state(fork, pipeline)

        for array in fork.registry.arrays:
            slot = rnd.randrange(len(array.storage))
            original = array.storage[slot]
            array.storage[slot] = original ^ (1 << rnd.randrange(array.width))
            assert not _same_state(fork, pipeline), array.name
            array.storage[slot] = original
        assert _same_state(fork, pipeline)

        for ref, attr, _ in fork.registry.substrate:
            owner = ref()
            original = getattr(owner, attr)
            setattr(owner, attr, nudged(original, rnd))
            assert not _same_state(fork, pipeline), attr
            setattr(owner, attr, original)
        assert _same_state(fork, pipeline)

        page = rnd.choice(fork.memory.mapped_pages())
        address = (page << PAGE_SHIFT) + rnd.randrange(PAGE_SIZE)
        byte = fork.memory.read(address, 1)
        fork.memory.load_bytes(address, bytes([byte ^ 0x40]))
        assert not _same_state(fork, pipeline)
        fork.memory.load_bytes(address, bytes([byte]))
        assert _same_state(fork, pipeline)


class TestLatentRelevance:
    """The latent-state verdict resolves each differing slot through the
    schema: retirement RAT, mapped physical registers, and live store-buffer
    entries are architecturally relevant; any other residue is not."""

    @staticmethod
    def verdict(pipeline, *names):
        index = {field.name: i for i, field in enumerate(pipeline.registry.fields)}
        return _latent_is_arch_relevant(pipeline, [index[name] for name in names])

    def test_verdicts(self):
        pipeline = load_pipeline(BUNDLE.program)
        pipeline.run(400)
        mapped = pipeline.arch_rat.map[3]
        unmapped = next(
            p for p in range(pipeline.prf.size) if p not in pipeline.arch_rat.map
        )
        pipeline.storebuf.valid[:] = [0] * pipeline.storebuf.size
        pipeline.storebuf.valid[2] = 1
        assert self.verdict(pipeline, "arch_rat.map[7]")
        assert self.verdict(pipeline, f"prf.value[{mapped}]")
        assert not self.verdict(pipeline, f"prf.value[{unmapped}]")
        assert not self.verdict(pipeline, f"prf.ready[{mapped}]")
        assert self.verdict(pipeline, "storebuf.valid[5]")
        for payload in ("addr", "data", "size"):
            assert self.verdict(pipeline, f"storebuf.{payload}[2]")
            assert not self.verdict(pipeline, f"storebuf.{payload}[5]")
        assert not self.verdict(pipeline, "storebuf.head[0]", "spec_rat.map[1]")
        assert not self.verdict(pipeline, "rob.pc[4]", "stq.addr[2]", "fetch.pc[0]")
        assert not self.verdict(pipeline)
