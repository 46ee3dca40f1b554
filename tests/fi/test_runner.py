"""Resilience tests for the parallel, checkpointed campaign runner.

Worker-pool targets come from :mod:`tests.fi.runner_targets` — spawn
workers must import the factories, so they live in a real module. The
accumulator's golden run is 9 cycles; its ``trip`` flip-flop reads 1 only
when injected, which lets a target misbehave on exactly one point.
"""

import random

import pytest

from repro import obs
from repro.fi import (
    Campaign,
    CampaignRunner,
    JournalMismatch,
    Outcome,
    RunnerConfig,
    TargetSpec,
    load_journal,
    load_result,
)
from repro.fi.runner import backoff_delay

from .runner_targets import TRIP_FF, accum_target

ACCUM = TargetSpec(factory="tests.fi.runner_targets:accum_target")

#: Benign-plus-interesting point mix; ("trip", 2) is the misbehaving one.
TRIP_POINTS = [
    ("decoy_b0", 2),
    ("decoy_b1", 3),
    (TRIP_FF, 2),
    ("acc_b0", 2),
    ("decoy_b2", 4),
    ("decoy_b3", 5),
]


def _config(**overrides):
    defaults = dict(workers=0, max_cycles=100, install_signal_handlers=False)
    defaults.update(overrides)
    return RunnerConfig(**defaults)


def _record_tuples(result):
    return [(r.dff_name, r.cycle, r.outcome) for r in result.records]


@pytest.fixture(scope="module")
def inline_runner():
    return CampaignRunner(ACCUM, _config())


class TestBackoffDelay:
    """Bounds of the shared jittered-backoff helper (runner retries and
    the distributed service's lease reassignment both sleep on it)."""

    def test_doubles_per_attempt_without_jitter(self):
        assert [backoff_delay(n, 0.5, jitter=0.0) for n in (1, 2, 3, 4)] == [
            0.5,
            1.0,
            2.0,
            4.0,
        ]

    def test_cap_clamps_the_deterministic_part(self):
        assert backoff_delay(50, 1.0, cap=30.0, jitter=0.0) == 30.0

    def test_jitter_stays_within_documented_bounds(self):
        rng = random.Random(1234)
        for attempt in range(1, 7):
            floor = min(30.0, 0.25 * 2 ** (attempt - 1))
            samples = [
                backoff_delay(attempt, 0.25, jitter=0.25, rng=rng)
                for _ in range(200)
            ]
            assert all(floor <= s <= floor * 1.25 for s in samples)
            # The jitter genuinely decorrelates: not one repeated value.
            assert len(set(samples)) == len(samples)

    def test_jittered_cap_may_exceed_cap_but_never_its_stretch(self):
        # Jitter stretches *after* clamping: the delay can exceed the cap,
        # but only by the jitter factor.
        rng = random.Random(7)
        samples = [
            backoff_delay(50, 1.0, cap=2.0, jitter=0.5, rng=rng)
            for _ in range(100)
        ]
        assert all(2.0 <= s <= 3.0 for s in samples)
        assert any(s > 2.0 for s in samples)

    def test_seeded_rng_is_deterministic(self):
        a = [backoff_delay(n, 0.1, rng=random.Random(42)) for n in (1, 2, 3)]
        b = [backoff_delay(n, 0.1, rng=random.Random(42)) for n in (1, 2, 3)]
        assert a == b

    def test_attempt_counts_from_one(self):
        with pytest.raises(ValueError, match="counts from 1"):
            backoff_delay(0, 0.5)


class TestTargetSpec:
    def test_build_round_trip(self):
        spec = TargetSpec.from_dict(ACCUM.to_dict())
        assert spec == ACCUM
        assert spec.build().name == "accum"

    def test_malformed_factory_rejected(self):
        with pytest.raises(ValueError, match="package.module:callable"):
            TargetSpec(factory="no-colon-here").build()

    def test_non_target_factory_rejected(self):
        with pytest.raises(TypeError, match="expected CampaignTarget"):
            TargetSpec(factory="tests.fi.runner_targets:build_netlist").build()


class TestInlineRunner:
    def test_matches_campaign_run_points(self, inline_runner, tmp_path):
        points = inline_runner.sample_points(12, seed=3)
        report = inline_runner.run(points, tmp_path / "c.jsonl")
        assert report.complete
        reference = Campaign(accum_target(), max_cycles=100).run_points(points)
        assert _record_tuples(report.result) == _record_tuples(reference)

    def test_sample_points_matches_run_sampled(self, inline_runner):
        points = inline_runner.sample_points(8, seed=42)
        reference = Campaign(accum_target(), max_cycles=100).run_sampled(
            8, seed=42
        )
        assert points == [(r.dff_name, r.cycle) for r in reference.records]

    def test_unknown_point_rejected(self, inline_runner, tmp_path):
        with pytest.raises(KeyError, match="unknown flip-flop"):
            inline_runner.run([("ghost_b0", 0)], tmp_path / "c.jsonl")

    def test_cycle_beyond_golden_rejected(self, inline_runner, tmp_path):
        with pytest.raises(ValueError, match="outside the golden run"):
            inline_runner.run([("acc_b0", 50)], tmp_path / "c.jsonl")

    def test_negative_cycle_rejected(self, inline_runner, tmp_path):
        with pytest.raises(ValueError, match=r"cycle -1 outside the golden run"):
            inline_runner.run([("acc_b0", -1)], tmp_path / "c.jsonl")

    def test_existing_journal_needs_resume_flag(self, inline_runner, tmp_path):
        points = inline_runner.sample_points(3, seed=0)
        inline_runner.run(points, tmp_path / "c.jsonl")
        with pytest.raises(FileExistsError, match="resume"):
            inline_runner.run(points, tmp_path / "c.jsonl")


class TestResume:
    def test_limit_then_resume_bit_identical(self, tmp_path):
        points = CampaignRunner(ACCUM, _config()).sample_points(14, seed=9)

        full = CampaignRunner(ACCUM, _config())
        reference = full.run(points, tmp_path / "ref.jsonl", seed=9)
        assert reference.complete

        partial = CampaignRunner(ACCUM, _config(limit=5))
        first = partial.run(points, tmp_path / "c.jsonl", seed=9)
        assert not first.complete
        assert first.executed == 5
        assert "resume --journal" in first.resume_hint

        resumed = CampaignRunner(ACCUM, _config()).run(
            points, tmp_path / "c.jsonl", resume=True, seed=9
        )
        assert resumed.complete
        assert resumed.skipped == 5
        assert (
            obs.get_registry().counter("campaign.resume.skipped").value == 5
        )
        assert _record_tuples(resumed.result) == _record_tuples(
            reference.result
        )

    def test_resume_after_torn_tail_bit_identical(self, tmp_path):
        # A kill mid-append leaves a torn last line; the resumed journal
        # must still load, with the records of an uninterrupted run.
        points = CampaignRunner(ACCUM, _config()).sample_points(10, seed=4)
        reference = CampaignRunner(ACCUM, _config()).run(
            points, tmp_path / "ref.jsonl", seed=4
        )
        path = tmp_path / "c.jsonl"
        CampaignRunner(ACCUM, _config(limit=3)).run(points, path, seed=4)
        with open(path, "ab") as fh:
            fh.write(b'{"kind": "record", "i": 5, "dff')
        resumed = CampaignRunner(ACCUM, _config()).run(
            points, path, resume=True, seed=4
        )
        assert resumed.complete
        loaded = load_result(path)
        assert _record_tuples(loaded) == _record_tuples(reference.result)
        assert load_journal(path).complete

    def test_partial_journal_loads_as_valid_result(self, tmp_path):
        runner = CampaignRunner(ACCUM, _config(limit=4))
        points = runner.sample_points(10, seed=1)
        runner.run(points, tmp_path / "c.jsonl", seed=1)
        result = load_result(tmp_path / "c.jsonl")
        assert result.num_injections == 4
        assert "accum" in result.summary()

    def test_mismatched_points_refuse_resume(self, tmp_path):
        runner = CampaignRunner(ACCUM, _config(limit=2))
        points = runner.sample_points(6, seed=1)
        runner.run(points, tmp_path / "c.jsonl", seed=1)
        other = CampaignRunner(ACCUM, _config())
        with pytest.raises(JournalMismatch, match="points_hash"):
            other.run(
                other.sample_points(6, seed=2),
                tmp_path / "c.jsonl",
                resume=True,
                seed=1,
            )

    def test_complete_journal_resume_is_noop(self, tmp_path):
        runner = CampaignRunner(ACCUM, _config())
        points = runner.sample_points(4, seed=0)
        runner.run(points, tmp_path / "c.jsonl", seed=0)
        size = (tmp_path / "c.jsonl").stat().st_size
        again = runner.run(points, tmp_path / "c.jsonl", resume=True, seed=0)
        assert again.complete
        assert again.executed == 0
        assert (tmp_path / "c.jsonl").stat().st_size == size  # nothing appended


@pytest.mark.slow
class TestWorkerPool:
    def test_pool_matches_inline(self, inline_runner, tmp_path):
        points = inline_runner.sample_points(10, seed=5)
        inline = inline_runner.run(points, tmp_path / "inline.jsonl", seed=5)
        pooled = CampaignRunner(ACCUM, _config(workers=2)).run(
            points, tmp_path / "pool.jsonl", seed=5
        )
        assert pooled.complete
        assert _record_tuples(pooled.result) == _record_tuples(inline.result)

    def test_worker_sigkill_transient_completes(self, tmp_path):
        """A worker SIGKILLed mid-campaign is replaced; totals stay correct.

        The sentinel file makes the kill one-shot, so the retry succeeds —
        no point may end up quarantined.
        """
        sentinel = tmp_path / "killed-once"
        spec = TargetSpec(
            factory="tests.fi.runner_targets:killer_target",
            kwargs={"sentinel": str(sentinel)},
        )
        runner = CampaignRunner(spec, _config(workers=2, max_retries=2))
        report = runner.run(TRIP_POINTS, tmp_path / "c.jsonl")
        assert sentinel.exists()  # the kill really happened
        assert report.complete
        assert report.worker_restarts >= 1
        assert report.quarantined == 0
        assert report.total_points == len(TRIP_POINTS)
        outcomes = {r.outcome for r in report.result.records}
        assert Outcome.ERROR not in outcomes
        registry = obs.get_registry()
        assert registry.counter("campaign.worker_restarts").value >= 1
        assert registry.counter("campaign.retries").value >= 1

    def test_poison_point_quarantined_campaign_completes(self, tmp_path):
        """A deterministically crashing point is quarantined — only it."""
        spec = TargetSpec(factory="tests.fi.runner_targets:killer_target")
        runner = CampaignRunner(spec, _config(workers=2, max_retries=1))
        report = runner.run(TRIP_POINTS, tmp_path / "c.jsonl")
        assert report.complete
        assert report.quarantined == 1
        errors = [
            r for r in report.result.records if r.outcome is Outcome.ERROR
        ]
        assert [(r.dff_name, r.cycle) for r in errors] == [(TRIP_FF, 2)]
        assert (
            obs.get_registry().counter("campaign.points.quarantined").value
            == 1
        )
        state = load_journal(tmp_path / "c.jsonl")
        index = TRIP_POINTS.index((TRIP_FF, 2))
        assert "error" in state.details[index]

    def test_hung_point_times_out_and_quarantines(self, tmp_path):
        """Wall-clock timeout fires on a hung worker; the rest completes."""
        spec = TargetSpec(factory="tests.fi.runner_targets:sleepy_target")
        runner = CampaignRunner(
            spec, _config(workers=2, max_retries=0, timeout_seconds=1.0)
        )
        report = runner.run(TRIP_POINTS, tmp_path / "c.jsonl")
        assert report.complete
        assert report.quarantined == 1
        errors = [
            r for r in report.result.records if r.outcome is Outcome.ERROR
        ]
        assert [(r.dff_name, r.cycle) for r in errors] == [(TRIP_FF, 2)]
        benign = [
            r for r in report.result.records if r.outcome is not Outcome.ERROR
        ]
        assert len(benign) == len(TRIP_POINTS) - 1

    def test_injections_per_second_gauge_set(self, tmp_path):
        runner = CampaignRunner(ACCUM, _config(workers=1))
        runner.run(TRIP_POINTS[:3], tmp_path / "c.jsonl")
        assert (
            obs.get_registry().gauge("campaign.injections_per_second").value
            > 0
        )


class TestStoreAutoIngest:
    def test_completed_run_lands_in_the_warehouse(self, tmp_path):
        from repro.store import ResultsStore

        db = tmp_path / "warehouse.sqlite3"
        runner = CampaignRunner(ACCUM, _config(store_path=db))
        report = runner.run(
            TRIP_POINTS[:3], tmp_path / "c.jsonl",
            meta={"pruned": False, "space_points": 99},
        )
        assert report.complete
        assert report.store_id is not None
        with ResultsStore(db) as store:
            campaign = store.campaign(report.store_id)
            assert campaign.workload == "accum"
            assert campaign.complete
            assert campaign.space_points == 99
            assert len(store.outcomes(report.store_id)) == 3

    def test_store_failure_never_fails_the_campaign(self, tmp_path, capsys):
        # A path that cannot become a database directory: ingest fails,
        # the campaign still completes and reports.
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not dir")
        runner = CampaignRunner(
            ACCUM, _config(store_path=blocker / "x" / "db.sqlite3")
        )
        report = runner.run(TRIP_POINTS[:3], tmp_path / "c.jsonl")
        assert report.complete
        assert report.store_id is None
        assert obs.counter("store.ingest.errors").value == 1
        assert "could not ingest" in capsys.readouterr().err

    def test_no_store_by_default(self, tmp_path):
        runner = CampaignRunner(ACCUM, _config())
        report = runner.run(TRIP_POINTS[:3], tmp_path / "c.jsonl")
        assert report.complete
        assert report.store_id is None
