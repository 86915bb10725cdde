"""The uarch lockstep scheduler and its serial twin.

Under lockstep every uarch trial's fork steps along with the one prefix
walk and retires the moment its machine state equals the prefix's; its
record is then built from its own pre-heal history plus golden's. The
contract is the arch scheduler's: every ``UarchTrialResult`` field equals
the full-window serial trial's, under sharding, resume, dense points,
windows that outlive golden, and detector campaigns — and a shadow that
crashes or overruns its budget is contained in its own record. The prefix
itself steps only while a shadow is live; otherwise it jumps to the next
injection point by restoring golden's checkpoint there.
"""

import time
import weakref

import pytest

from repro.cache import GoldenArtifactCache
from repro.campaign import run_campaign
from repro.campaign import guard as guard_module
from repro.campaign.guard import TrialGuard, timeout_supported
from repro.campaign.outcomes import OUTCOME_CRASH, OUTCOME_OK, OUTCOME_TIMEOUT
from repro.faults import UarchCampaignConfig, uarch_campaign
from repro.uarch.latches import StateRegistry
from repro.uarch.pipeline import Pipeline
from repro.workloads import WORKLOAD_NAMES, build_workload

SMALL = dict(trials_per_workload=8, injection_points=4, window_cycles=1000)
# Six trials per point: every point's windows overlap its neighbours'.
DENSE = UarchCampaignConfig(
    trials_per_workload=24, injection_points=4, window_cycles=800,
    workloads=("gcc",),
)


def entries(outcome):
    return [o.to_entry() for o in outcome.outcomes]


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    """One golden cache for the module: both legs of a comparison load
    the same golden run."""
    return GoldenArtifactCache(str(tmp_path_factory.mktemp("golden")))


@pytest.fixture
def heals(monkeypatch):
    """Counts the heal checks that succeed, so an identity test cannot
    pass without the lockstep path retiring anything early."""
    count = {"checks": 0, "healed": 0}
    real = StateRegistry.equals

    def equals(self, other):
        same = real(self, other)
        count["checks"] += 1
        count["healed"] += same
        return same

    monkeypatch.setattr(StateRegistry, "equals", equals)
    return count


@pytest.fixture
def prefix_steps(monkeypatch):
    """Cycles the campaign's prefix pipeline steps, split by whether a
    shadow was live as it stepped. The prefix is identified as the e2e
    span recorder identifies it: the object ``uarch_campaign.
    load_pipeline`` returns for anything but a golden run, held weakly
    (forks reuse the ids of freed prefixes, so ``id()`` would miscount)."""
    prefixes = weakref.WeakSet()
    schedulers = []
    steps = {"live": 0, "idle": 0}
    real_load = uarch_campaign.load_pipeline
    real_init = uarch_campaign._Scheduler.__init__
    real_run = Pipeline.run

    def load_pipeline(*args, **kwargs):
        pipeline = real_load(*args, **kwargs)
        if not kwargs.get("collect_retired"):
            prefixes.add(pipeline)
        return pipeline

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        schedulers.append(self)

    def run(self, max_cycles, max_retired=None):
        before = self.cycle_count
        real_run(self, max_cycles, max_retired)
        if self in prefixes:
            scheduler = next(s for s in schedulers if s.prefix is self)
            steps["live" if scheduler.live else "idle"] += self.cycle_count - before

    monkeypatch.setattr(uarch_campaign, "load_pipeline", load_pipeline)
    monkeypatch.setattr(uarch_campaign._Scheduler, "__init__", init)
    monkeypatch.setattr(Pipeline, "run", run)
    return steps


def twins(config, workload, cache, **kwargs):
    lock = uarch_campaign.run_workload_trials(
        config, workload, cache=cache, lockstep=True, **kwargs
    )
    serial = uarch_campaign.run_workload_trials(
        config, workload, cache=cache, lockstep=False, **kwargs
    )
    assert lock.skip_reason is None and serial.skip_reason is None
    return lock, serial


class TestSerialTwinIdentity:
    @pytest.mark.parametrize("seed", [2005, 7])
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_kernel_outcomes_identical(self, name, seed, cache, heals):
        config = UarchCampaignConfig(**SMALL, seed=seed, workloads=(name,))
        lock, serial = twins(config, name, cache)
        assert len(lock.outcomes) == config.trials_per_workload
        assert entries(lock) == entries(serial)
        assert heals["healed"] >= 1

    def test_dense_points_with_overlapping_windows(self, cache, heals):
        lock, serial = twins(DENSE, "gcc", cache)
        assert entries(lock) == entries(serial)
        assert heals["healed"] >= 1

    def test_stride_shards_union_is_the_serial_campaign(self, cache):
        serial = uarch_campaign.run_workload_trials(
            DENSE, "gcc", cache=cache, lockstep=False
        )
        shards = [
            uarch_campaign.run_workload_trials(
                DENSE, "gcc", cache=cache, shard=(index, 2)
            )
            for index in range(2)
        ]
        union = sorted(
            (o for shard in shards for o in shard.outcomes),
            key=lambda o: o.order,
        )
        assert [o.to_entry() for o in union] == entries(serial)

    def test_resume_runs_exactly_the_missing_half(self, cache):
        serial = uarch_campaign.run_workload_trials(
            DENSE, "gcc", cache=cache, lockstep=False
        )
        done = {o.key for o in serial.outcomes[::2]}
        resumed = uarch_campaign.run_workload_trials(
            DENSE, "gcc", cache=cache, completed=done
        )
        assert entries(resumed) == [
            o.to_entry() for o in serial.outcomes if o.key not in done
        ]

    def test_windows_that_outlive_golden_halt(self, cache, heals):
        config = UarchCampaignConfig(
            trials_per_workload=8, injection_points=4, window_cycles=6000,
            workloads=("gap",),
        )
        lock, serial = twins(config, "gap", cache)
        program = build_workload("gap", config.workload_scale, config.seed).program
        golden = cache.load("uarch", program, config)
        # The premise: some windows run past golden's halt, so their
        # shadows keep stepping after the prefix has stopped.
        assert any(
            o.point + config.window_cycles > golden.end_cycle
            for o in lock.outcomes
        )
        assert entries(lock) == entries(serial)

    def test_detector_campaign_runs_its_shadows_unpaced(self, cache, heals):
        config = UarchCampaignConfig(
            trials_per_workload=6, injection_points=3, window_cycles=800,
            workloads=("mcf",), memhier_targets=True,
            detectors=("miss_spike", "stall_outlier", "spurious_memop"),
        )
        lock, serial = twins(config, "mcf", cache)
        assert entries(lock) == entries(serial)
        # First detector firings depend on the whole handler-call stream,
        # so detector shadows never take the heal shortcut.
        assert heals["checks"] == 0

    def test_campaign_journal_equals_its_no_lockstep_twin(self, tmp_path):
        config = UarchCampaignConfig(
            trials_per_workload=6, injection_points=3, window_cycles=800,
            workloads=("gcc", "vortex"),
        )
        paths = {}
        for lockstep in (True, False):
            paths[lockstep] = tmp_path / f"lockstep-{lockstep}.jsonl"
            run_campaign("uarch", config, journal_path=str(paths[lockstep]),
                         lockstep=lockstep)
        assert paths[True].read_bytes() == paths[False].read_bytes()


class TestPrefixJumps:
    """With no shadow live there is nothing to pace, so the prefix jumps
    to the next injection point instead of stepping there."""

    def test_detector_campaign_prefix_never_steps(self, cache, prefix_steps):
        config = UarchCampaignConfig(
            trials_per_workload=6, injection_points=3, window_cycles=800,
            workloads=("mcf",), memhier_targets=True,
            detectors=("miss_spike", "stall_outlier", "spurious_memop"),
        )
        outcome = uarch_campaign.run_workload_trials(config, "mcf", cache=cache)
        assert len(outcome.outcomes) == config.trials_per_workload
        assert prefix_steps == {"live": 0, "idle": 0}

    @pytest.mark.parametrize("run", ["small", "shard", "resume"])
    def test_paced_prefix_steps_only_while_a_shadow_is_live(
        self, cache, prefix_steps, run
    ):
        if run == "small":
            config = UarchCampaignConfig(**SMALL, workloads=("gcc",))
            outcome = uarch_campaign.run_workload_trials(config, "gcc", cache=cache)
            expected = config.trials_per_workload
        else:
            kwargs = {"shard": (1, 2)} if run == "shard" else {
                "completed": {
                    o.key for o in uarch_campaign.run_workload_trials(
                        DENSE, "gcc", cache=cache, lockstep=False
                    ).outcomes[::2]
                }
            }
            outcome = uarch_campaign.run_workload_trials(
                DENSE, "gcc", cache=cache, **kwargs
            )
            expected = DENSE.trials_per_workload // 2
        assert len(outcome.outcomes) == expected
        assert prefix_steps["live"] > 0
        assert prefix_steps["idle"] == 0


class TestContainment:
    def test_outcomes_leave_in_serial_order_classified_inside_the_guard(
        self, cache, monkeypatch
    ):
        guarded, inside = [], []
        real_run = TrialGuard.run

        def run(self, key, workload, point, index, thunk, descriptor=None):
            guarded.append((point, index))
            inside.append(key)
            try:
                return real_run(self, key, workload, point, index, thunk,
                                descriptor)
            finally:
                inside.pop()

        classified = []
        real_classify = uarch_campaign._classify_trial

        def classify(workload, golden, shadow):
            classified.append(inside == [shadow.key])
            return real_classify(workload, golden, shadow)

        monkeypatch.setattr(TrialGuard, "run", run)
        monkeypatch.setattr(uarch_campaign, "_classify_trial", classify)
        uarch_campaign.run_workload_trials(DENSE, "gcc", cache=cache)
        assert len(guarded) == DENSE.trials_per_workload
        assert guarded == sorted(guarded)
        assert classified == [True] * len(guarded)

    @pytest.mark.skipif(not timeout_supported(), reason="no SIGALRM here")
    @pytest.mark.parametrize("alarms", [True, False])
    def test_a_crashing_and_an_overrunning_shadow_are_contained(
        self, cache, monkeypatch, alarms
    ):
        if not alarms:
            # Where SIGALRM cannot be armed, nothing interrupts a chunk:
            # the overrun is caught before the shadow's next slice.
            monkeypatch.setattr(guard_module, "timeout_supported", lambda: False)
            monkeypatch.setattr(guard_module, "_warned_no_timeout", True)
        guard = TrialGuard(timeout=0.6)
        clean = uarch_campaign.run_workload_trials(
            DENSE, "gcc", cache=cache, guard=guard
        )
        # Rig two shadows whose clean windows ran out without an exception
        # or deadlock, so they are still stepping at their third chunk.
        ran_out = [
            position for position, o in enumerate(clean.outcomes)
            if o.record.exception_latency is None
            and o.record.deadlock_latency is None
        ]
        crash_at, slow_at = ran_out[1], ran_out[4]

        def crash():
            raise RuntimeError("rigged shadow crash")

        def slow():
            time.sleep(0.25)  # each chunk is under budget; three are not

        rigs = {crash_at: crash, slow_at: slow}
        real_fork = Pipeline.fork
        forks = []

        def fork(self):
            child = real_fork(self)
            rig = rigs.get(len(forks))
            forks.append(child)
            if rig is not None:
                real_child_run = child.run
                chunks = []

                def run(cycles, max_retired=None):
                    chunks.append(cycles)
                    # A statistics counter, so the rigged shadow never
                    # heals and keeps stepping chunk after chunk.
                    child.branch_count += 1
                    if len(chunks) >= 3 or rig is slow:
                        rig()
                    real_child_run(cycles, max_retired)

                child.run = run
            return child

        monkeypatch.setattr(Pipeline, "fork", fork)
        rigged = uarch_campaign.run_workload_trials(
            DENSE, "gcc", cache=cache, guard=guard
        )
        statuses = [o.status for o in rigged.outcomes]
        assert statuses[crash_at] == OUTCOME_CRASH
        assert "rigged shadow crash" in rigged.outcomes[crash_at].error["message"]
        assert statuses[slow_at] == OUTCOME_TIMEOUT
        assert rigged.outcomes[slow_at].error["descriptor"]["level"] == "uarch"
        for position, (mine, theirs) in enumerate(
            zip(rigged.outcomes, clean.outcomes, strict=True)
        ):
            if position not in rigs:
                assert mine.status == OUTCOME_OK
                assert mine.to_entry() == theirs.to_entry()
