"""The lockstep batch-trial scheduler and its serial twin.

The contract under test is absolute: the lockstep scheduler must produce
*byte-identical* journals to the serial per-trial path — every
``ArchTrialResult`` field bit for bit, on every kernel, under sharding,
resume, caching, snapshot fast-forward, and a golden run that hits the
instruction limit. Speed may differ; science may not.
"""

import pytest

from repro.arch import load_program
from repro.cache import ArchGoldenArtifact, GoldenArtifactCache
from repro.campaign import run_campaign
from repro.campaign.outcomes import CampaignWorkloadWarning, trial_key
from repro.faults import ArchCampaignConfig, arch_campaign
from repro.faults.lockstep import LockstepStats, run_lockstep_trials
from repro.isa import assemble
from repro.isa import opcodes as op
from repro.isa.encoding import HALT_WORD, encode_memory, try_decode_word
from repro.planner import PlannerConfig
from repro.service import CampaignScheduler, JobSpec, ResultStore, execute_unit
from repro.workloads import WORKLOAD_NAMES, WorkloadBundle, build_workload

SMALL = dict(trials_per_workload=18, injection_points=6)


def entries(outcome):
    return [o.to_entry() for o in outcome.outcomes]


def read_lines(path):
    with open(path, "rb") as handle:
        return handle.read().splitlines()


# ----------------------------------------------------- serial-twin identity


class TestSerialTwinIdentity:
    """Every kernel, lockstep vs serial, field for field."""

    @pytest.fixture(scope="class")
    def config(self):
        return ArchCampaignConfig(**SMALL)

    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_workload_entries_identical(self, config, name):
        lock = arch_campaign.run_workload_trials(config, name)
        serial = arch_campaign.run_workload_trials(
            config, name, lockstep=False
        )
        assert lock.skip_reason is None
        assert entries(lock) == entries(serial)

    def test_limit_golden_entries_identical(self):
        """A golden run that hits max_instructions (never halts) drives
        the scheduler's walk-to-the-limit finalization path."""
        config = ArchCampaignConfig(
            trials_per_workload=8, injection_points=3, max_instructions=800,
            workloads=("gcc",),
        )
        bundle = build_workload("gcc")
        trace = load_program(bundle.program).run_with_trace(800)
        assert not trace.halted  # the premise of this test
        lock = arch_campaign.run_workload_trials(config, "gcc")
        serial = arch_campaign.run_workload_trials(
            config, "gcc", lockstep=False
        )
        assert entries(lock) == entries(serial)

    def test_sharded_entries_identical(self, config):
        for shard in ((0, 2), (1, 2)):
            lock = arch_campaign.run_workload_trials(
                config, "gzip", shard=shard
            )
            serial = arch_campaign.run_workload_trials(
                config, "gzip", shard=shard, lockstep=False
            )
            assert entries(lock) == entries(serial)


class TestCampaignJournals:
    def test_journals_byte_identical(self, tmp_path):
        config = ArchCampaignConfig(
            trials_per_workload=7, injection_points=3,
            workloads=("gcc", "mcf"),
        )
        lock = str(tmp_path / "lockstep.jsonl")
        twin = str(tmp_path / "twin.jsonl")
        run_campaign("arch", config, journal_path=lock)
        run_campaign("arch", config, journal_path=twin, lockstep=False)
        assert read_lines(lock) == read_lines(twin)

    def test_resumed_run_matches_serial(self, tmp_path):
        """Kill a lockstep campaign mid-run; the resume (also lockstep)
        must reproduce the uninterrupted serial journal bit for bit."""
        config = ArchCampaignConfig(
            trials_per_workload=9, injection_points=4, workloads=("gzip",)
        )
        full = str(tmp_path / "full.jsonl")
        serial_report = run_campaign(
            "arch", config, journal_path=full, lockstep=False
        )
        lines = open(full).read().splitlines()
        trial_lines = [l for l in lines if '"kind": "trial"' in l]
        interrupted = str(tmp_path / "interrupted.jsonl")
        with open(interrupted, "w") as handle:
            handle.write(
                "\n".join([lines[0]] + trial_lines[: len(trial_lines) // 2])
                + "\n"
            )
        resumed = run_campaign(
            "arch", config, journal_path=interrupted, resume=True
        )
        assert resumed.resumed == len(trial_lines) // 2
        assert resumed.result.trials == serial_report.result.trials

    def test_two_shard_service_matches_serial_twin(self, tmp_path):
        """The worker fleet (lockstep by default) and a --no-lockstep
        serial campaign write the same journal bytes."""
        config = ArchCampaignConfig(
            trials_per_workload=7, injection_points=3,
            workloads=("gcc", "vortex"),
        )
        twin = str(tmp_path / "twin.jsonl")
        run_campaign("arch", config, journal_path=twin, lockstep=False)

        spec = JobSpec.from_request({
            "level": "arch",
            "config": {
                "trials_per_workload": 7, "injection_points": 3,
                "workloads": ["gcc", "vortex"],
            },
            "shards_per_workload": 2,
        })
        assert spec.config == config
        store = ResultStore(":memory:")
        try:
            scheduler = CampaignScheduler(store, str(tmp_path))
            job_id = scheduler.submit(spec)["job_id"]
            while leases := scheduler.lease_batch("lockstep-test-worker", 1):
                [lease] = leases
                unit = lease["unit"]
                result = execute_unit(lease["spec"], unit, None)
                scheduler.complete(
                    unit["job_id"], unit["unit_id"], "lockstep-test-worker",
                    result,
                )
            view = scheduler.job_view(job_id)
            assert view["state"] == "done"
            assert read_lines(view["journal_path"]) == read_lines(twin)
        finally:
            store.close()

    @pytest.mark.parametrize(
        "planner",
        [None, PlannerConfig(margin=0.3, min_trials=2, round_trials=2)],
        ids=["uniform", "adaptive"],
    )
    def test_scheduler_failure_falls_back_to_serial(
        self, tmp_path, monkeypatch, planner
    ):
        """Every round of either allocation falls back to the serial path
        and still writes the serial twin's records."""
        config = ArchCampaignConfig(
            trials_per_workload=12, injection_points=3, workloads=("gcc",)
        )
        reference = arch_campaign.run_workload_trials(
            config, "gcc", lockstep=False, planner=planner
        )

        def broken(*args, **kwargs):
            raise RuntimeError("scheduler wedged")

        monkeypatch.setattr(arch_campaign, "run_lockstep_trials", broken)
        with pytest.warns(CampaignWorkloadWarning, match="falling back"):
            outcome = arch_campaign.run_workload_trials(
                config, "gcc", planner=planner
            )
        assert outcome.skip_reason is None
        assert entries(outcome) == entries(reference)
        if planner is not None:
            assert outcome.planner_summary["rounds"] >= 2


# --------------------------------------------- snapshot-boundary fast-forward


class TestSnapshotBoundaryFork:
    """The first fork lands exactly where a restored snapshot left the
    prefix simulator — zero prefix steps between restore and injection."""

    @pytest.fixture()
    def config(self):
        return ArchCampaignConfig(
            trials_per_workload=6, injection_points=3, workloads=("gcc",)
        )

    @pytest.fixture()
    def gcc_trace(self, gcc_bundle):
        return load_program(gcc_bundle.program).run_with_trace(400_000)

    def test_fork_at_restored_snapshot(
        self, tmp_path, monkeypatch, config, gcc_bundle, gcc_trace
    ):
        points = arch_campaign.sample_points(config, "gcc", gcc_trace)
        assert points[0] > 0
        # A snapshot cadence equal to the first injection point puts a
        # snapshot *exactly* at the first fork: the warm prefix restores
        # with retired == point and forks without stepping once.
        monkeypatch.setattr(
            arch_campaign, "ARCH_SNAPSHOT_INTERVAL", points[0]
        )
        cache = GoldenArtifactCache(str(tmp_path))
        reference = arch_campaign.run_workload_trials(config, "gcc")
        cold = arch_campaign.run_workload_trials(config, "gcc", cache=cache)
        artifact = cache.load("arch", gcc_bundle.program, config)
        assert any(
            snap.retired == points[0] for snap in artifact.trace.snapshots
        )
        for lockstep in (True, False):
            warm = arch_campaign.run_workload_trials(
                config, "gcc", cache=cache, lockstep=lockstep
            )
            assert warm.golden_cache == "hit"
            assert entries(warm) == entries(reference)
        assert entries(cold) == entries(reference)

    def test_sharded_fork_at_restored_snapshot(
        self, tmp_path, monkeypatch, config, gcc_trace
    ):
        points = arch_campaign.sample_points(config, "gcc", gcc_trace)
        monkeypatch.setattr(
            arch_campaign, "ARCH_SNAPSHOT_INTERVAL", points[0]
        )
        cache = GoldenArtifactCache(str(tmp_path))
        serial = arch_campaign.run_workload_trials(config, "gcc", cache=cache)
        sharded = []
        for index in range(2):
            outcome = arch_campaign.run_workload_trials(
                config, "gcc", shard=(index, 2), cache=cache
            )
            assert outcome.golden_cache == "hit"
            sharded.extend(entries(outcome))

        def key(entry):
            return (entry["point"], entry["index"])

        assert sorted(sharded, key=key) == sorted(entries(serial), key=key)

    def test_resumed_fork_at_restored_snapshot(
        self, tmp_path, monkeypatch, config, gcc_trace
    ):
        """A resumed run whose first *pending* trial sits exactly on a
        snapshot boundary: everything at the first point is already
        journaled, so the restore lands at the second point."""
        points = arch_campaign.sample_points(config, "gcc", gcc_trace)
        assert points[1] > points[0]
        monkeypatch.setattr(
            arch_campaign, "ARCH_SNAPSHOT_INTERVAL", points[1]
        )
        cache = GoldenArtifactCache(str(tmp_path))
        reference = arch_campaign.run_workload_trials(config, "gcc")
        reference_entries = entries(reference)
        completed = {
            trial_key("gcc", e["point"], e["index"])
            for e in reference_entries
            if e["point"] == points[0]
        }
        assert completed  # the first point did run trials
        arch_campaign.run_workload_trials(config, "gcc", cache=cache)
        for lockstep in (True, False):
            resumed = arch_campaign.run_workload_trials(
                config, "gcc", completed=completed, cache=cache,
                lockstep=lockstep,
            )
            assert resumed.golden_cache == "hit"
            assert entries(resumed) == [
                e for e in reference_entries if e["point"] != points[0]
            ]


# --------------------------------------------------- scheduler observability


class TestLockstepStats:
    @pytest.mark.parametrize("first_bit", [7, 40])
    def test_counters_account_for_every_trial(self, first_bit):
        """Each fork lands in exactly one ending bucket. Flipping bits
        40-43 of gzip's results sends pointers wild, so some dirty steps
        raise: those trials land in ``excepted``."""
        config = ArchCampaignConfig(
            trials_per_workload=20, injection_points=5, workloads=("gzip",)
        )
        bundle = build_workload("gzip")
        trace = load_program(bundle.program).run_with_trace(
            config.max_instructions
        )
        points = arch_campaign.sample_points(config, "gzip", trace)
        plan = [(point, [(index, first_bit + index) for index in range(4)])
                for point in points]
        stats = LockstepStats()
        results = run_lockstep_trials(
            config, "gzip", trace, trace.memop_counts,
            load_program(bundle.program), plan, stats=stats,
        )
        total = sum(len(pending) for _, pending in plan)
        assert len(results) == total
        assert stats.forks == total
        # Every fork ends in exactly one of the terminal buckets.
        assert (
            stats.early_retired + stats.halted_in_lockstep
            + stats.finalized_asleep + stats.materialized + stats.excepted
        ) == total
        # Result-bit flips on a real kernel reconverge often enough that
        # the early-retire fast path must actually fire.
        assert stats.early_retired > 0
        if first_bit >= 32:
            assert stats.excepted > 0


# ------------------------------------------- every mnemonic, dirty steps


def mnemonic_forms(spec):
    """Forms of ``spec`` that read a freshly written register in every
    operand position the instruction has (see :func:`mnemonic_program`
    for what each register holds)."""
    name = spec.mnemonic
    if spec.format is op.Format.OPERATE:
        # ra + rb (and a CMOV's old rc), the literal form, a dead result.
        return [f"{name} r2, r3, r4", f"{name} r2, 7, r4",
                f"{name} r2, r3, r31"]
    if spec.format is op.Format.MEMORY:
        if spec.opcode in op.STORE_OPCODES:
            return [f"{name} r4, 0(r6)"]  # store data and base
        return [f"{name} r4, 0(r6)", f"{name} r31, 0(r6)"]
    if spec.format is op.Format.JUMP:
        return [f"{name} (r8)", f"{name} r4, (r8)"]
    if spec.format is op.Format.BRANCH:
        if spec.opcode in (op.OP_BR, op.OP_BSR):
            return [f"{name} after", f"{name} r4, after"]
        return [f"{name} r2, after"]
    if spec.format is op.Format.PAL:
        return [name]
    raise AssertionError(f"no test form for {name}")


def mnemonic_program(spec, form):
    """``form`` after fresh writes of every register it can read.

    r2/r3/r4 are loaded operands (a CMOV's old rc and store data are r4),
    r6 points at a data slot 64 KiB into .data, so flipping its bit 21
    lands in the read-only text page, and r8 is the jump target. The tail
    stores r4 and loads it back into an address, so a load that misses
    the trial's stored bytes moves a later access; it also loads the slot
    back and overwrites r4's copy with a clean store.
    """
    a, b, c = 0x4000_0000_1234_5678, 0x3000_0000_0000_0042, 0x0123_4567_89AB_CDEF
    if spec.format is op.Format.BRANCH or spec.mnemonic.startswith("cmov"):
        a = 0  # every flip of the condition changes some predicate
    if spec.mnemonic == "mulqv":
        a, b = 0x1234_5678, 0x42  # golden itself must not overflow
    source = "\n".join([
        ".text",
        "start: la r1, data",
        " ldq r2, 0(r1)",
        " ldq r3, 8(r1)",
        " ldq r4, 16(r1)",
        " la r6, slot",
        " la r8, after",
        f" {form}",
        " addq r4, 1, r4",
        "after: stq r4, 24(r1)",
        " ldq r5, 24(r1)",
        " xor r5, r4, r5",  # zero iff the load saw the stored bytes
        " addq r1, r5, r5",
        " ldq r5, 0(r5)",
        " ldq r7, 0(r6)",
        " stq r3, 24(r1)",
        " halt",
        ".data",
        f"data: .quad {a}, {b}, {c}, 0",
        " .space 65536",
        "slot: .quad 0x80000000F0E1D2C3",
    ])
    return assemble(source, spec.mnemonic)


class TestEveryMnemonic:
    @pytest.mark.parametrize("spec", op.ALL_SPECS, ids=lambda s: s.mnemonic)
    def test_dirty_steps_match_serial(self, spec):
        """Every writer step of a program around ``spec``, all 64 bits:
        the scheduler runs the dirty steps through golden's closures on a
        shadow view, and its records must equal the serial twin's. The
        parameters are ``op.ALL_SPECS`` itself, so a new opcode gets a
        case, and each case checks that its mnemonic really executed."""
        config = ArchCampaignConfig(trials_per_workload=1, injection_points=1)
        for form in mnemonic_forms(spec):
            program = mnemonic_program(spec, form)
            trace = load_program(program).run_with_trace(
                config.max_instructions
            )
            assert trace.halted, form
            executed = {
                try_decode_word(trace.final_memory.read(pc, 4)).mnemonic
                for pc in trace.pcs
            }
            assert spec.mnemonic in executed, form
            plan = [(point, [(bit, bit) for bit in range(64)])
                    for point in trace.writer_steps]
            stats = LockstepStats()
            lock = run_lockstep_trials(
                config, spec.mnemonic, trace, trace.memop_counts,
                load_program(program), plan, stats=stats,
            )
            assert stats.dirty_steps > 0
            prefix = load_program(program)
            for point, pending in plan:
                if prefix.retired < point:
                    prefix.run(point - prefix.retired)
                    prefix.resume()
                for index, bit in pending:
                    serial = arch_campaign._run_trial(
                        spec.mnemonic, prefix, trace, trace.memop_counts,
                        point, bit, config,
                    )
                    assert lock[(point, index)] == serial, (form, point, bit)


# ----------------------------------------------- satellite regressions


def halt_only_bundle(name="gcc"):
    return WorkloadBundle(
        name=name, program=assemble(".text\nstart: halt\n", name)
    )


class TestZeroWriterGolden:
    """A golden run that writes no registers has no injection points; it
    must skip the workload, never divide by a zero point count."""

    @pytest.fixture()
    def config(self):
        return ArchCampaignConfig(
            trials_per_workload=6, injection_points=3, workloads=("gcc",)
        )

    def test_fresh_golden_skips(self, monkeypatch, config):
        monkeypatch.setattr(
            arch_campaign, "build_workload",
            lambda name, scale=1, seed=2005: halt_only_bundle(name),
        )
        with pytest.warns(CampaignWorkloadWarning, match="wrote no registers"):
            outcome = arch_campaign.run_workload_trials(config, "gcc")
        assert outcome.skip_reason is not None
        assert "wrote no registers" in outcome.skip_reason
        assert outcome.outcomes == []

    def test_cached_golden_skips_identically(
        self, tmp_path, monkeypatch, config
    ):
        """The regression: a cache *hit* used to bypass golden validation
        and crash in the trial-budget arithmetic (ZeroDivisionError)."""
        bundle = halt_only_bundle()
        monkeypatch.setattr(
            arch_campaign, "build_workload",
            lambda name, scale=1, seed=2005: bundle,
        )
        trace = load_program(bundle.program).run_with_trace(
            config.max_instructions
        )
        assert trace.halted and not trace.writer_steps
        cache = GoldenArtifactCache(str(tmp_path))
        assert cache.store(
            "arch", bundle.program, config, ArchGoldenArtifact(trace=trace)
        )
        with pytest.warns(CampaignWorkloadWarning, match="wrote no registers"):
            outcome = arch_campaign.run_workload_trials(
                config, "gcc", cache=cache
            )
        assert cache.hits == 1  # the hit path really was exercised
        assert outcome.skip_reason is not None
        assert "wrote no registers" in outcome.skip_reason


class TestRecordedMemopCounts:
    """Self-modifying code breaks any scheme that re-decodes the golden
    instruction stream from the *final* memory image: once a store has
    overwritten an executed instruction word, the final bytes no longer
    say whether that step was a memory operation. The trace must record
    the step-to-memop mapping while the golden run executes."""

    @pytest.fixture()
    def program(self):
        # The code block lives in .data (writable, hence executable with
        # no predecode caching) as raw encoded words: ldq r3, 0(r4) /
        # stl zero, 0(r5) / halt. The store overwrites the (already
        # executed) ldq word with HALT_WORD.
        source = "\n".join([
            ".text",
            "start: la r4, victim",
            " la r5, code",
            " jmp (r5)",
            ".data",
            "code:",
            f" .long {encode_memory(op.OP_LDQ, 3, 4, 0)}",
            f" .long {encode_memory(op.OP_STL, 31, 5, 0)}",
            f" .long {HALT_WORD}",
            " .long 0",
            "victim: .quad 0x1234",
        ])
        return assemble(source, "smc")

    @pytest.fixture()
    def trace(self, program):
        trace = load_program(program).run_with_trace(100)
        assert trace.halted
        return trace

    def test_counts_recorded_during_execution(self, trace):
        # Text setup (la expands to lda pairs), then jmp into .data:
        # ldq (memop 1), stl (memop 2), halt.
        assert [kind for kind, _, _ in trace.memops] == ["L", "S"]
        setup = len(trace.pcs) - 3  # instructions before the data block
        assert trace.memop_counts == [0] * setup + [1, 2, 2]

    def test_final_image_redecode_would_lie(self, trace):
        """The executed load's address now holds HALT in final memory —
        a re-decode there misses the memop the golden run performed."""
        load_pc = trace.pcs[trace.memop_counts.index(1)]
        word = trace.final_memory.read(load_pc, 4)
        assert word == HALT_WORD
        decoded = try_decode_word(word)
        assert decoded is None or decoded.opcode not in (
            op.LOAD_OPCODES | op.STORE_OPCODES
        )

    def test_lockstep_matches_serial_on_smc(self, program, trace):
        """The scheduler's golden-modifies-code path (per-round shadow
        processing, fetch from live memory) against the serial twin."""
        config = ArchCampaignConfig(
            trials_per_workload=6, injection_points=3, workloads=("gcc",)
        )
        plan = [
            (point, [(index, 3 * index + 1) for index in range(2)])
            for point in trace.writer_steps
        ]
        lock = run_lockstep_trials(
            config, "smc", trace, trace.memop_counts,
            load_program(program), plan,
        )
        prefix = load_program(program)
        for point, pending in plan:
            if prefix.retired < point and prefix.running:
                prefix.run(point - prefix.retired)
                prefix.resume()
            for index, bit in pending:
                serial = arch_campaign._run_trial(
                    "smc", prefix, trace, trace.memop_counts, point, bit,
                    config,
                )
                assert lock[(point, index)] == serial, (point, index, bit)
