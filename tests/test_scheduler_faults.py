"""Fault-aware batch operation: failures, repairs, checkpoint restart.

These run :class:`~repro.health.DegradedBatchSimulator` with its
defaults (zero detection lag, no spares, backoff or drains): the
oracular model in which a failure kills its job the instant it strikes.
"""

import math

import pytest

from repro.health import DegradedBatchSimulator
from repro.scheduler import (
    Job,
    WorkloadGenerator,
    WorkloadParams,
    get_policy,
)
from repro.sim import RandomStreams

YEAR = 365.25 * 86400.0


def workload(count=200, nodes=64, load=0.7, seed=3):
    generator = WorkloadGenerator(
        WorkloadParams(max_nodes=nodes, offered_load=load),
        RandomStreams(seed))
    return generator.generate(count)


class TestNoFailureEquivalence:
    def test_infinite_mtbf_matches_plain_simulator(self):
        """With failures off, the fault-aware simulator must reproduce
        the plain simulator's outcome exactly."""
        from repro.scheduler import BatchSimulator, evaluate_schedule

        jobs = workload()
        plain = BatchSimulator(64, get_policy("easy")).run(jobs)
        faulty = DegradedBatchSimulator(64, get_policy("easy"),
                                        math.inf).run(jobs)
        assert faulty.failures == 0
        assert faulty.job_kills == 0
        assert faulty.lost_node_seconds == 0.0
        assert len(faulty.completions) == len(jobs)
        plain_metrics = evaluate_schedule(plain)
        assert faulty.goodput_utilization == pytest.approx(
            plain_metrics.utilization, rel=1e-6)
        for record in plain.records:
            submit, end = faulty.completions[record.job.job_id]
            assert end == pytest.approx(record.end_time)


class TestFailureSemantics:
    def test_all_jobs_still_finish(self):
        result = DegradedBatchSimulator(
            64, get_policy("easy"), node_mtbf_seconds=0.02 * YEAR,
            streams=RandomStreams(5)).run(workload())
        assert len(result.completions) == 200
        assert result.failures > 0

    def test_goodput_conserved(self):
        """Total goodput equals total submitted work, failures or not —
        everything eventually completes and durable work is credited
        exactly once."""
        jobs = workload(count=150)
        total_work = sum(job.node_seconds for job in jobs)
        for ckpt in (None, 1800.0):
            result = DegradedBatchSimulator(
                64, get_policy("easy"), node_mtbf_seconds=0.1 * YEAR,
                checkpoint_interval=ckpt,
                streams=RandomStreams(8)).run(jobs)
            assert result.goodput_node_seconds == pytest.approx(total_work,
                                                                rel=1e-9)

    def test_failures_extend_responses(self):
        jobs = workload(count=150)
        clean = DegradedBatchSimulator(64, get_policy("easy"),
                                       math.inf).run(jobs)
        faulty = DegradedBatchSimulator(
            64, get_policy("easy"), node_mtbf_seconds=0.05 * YEAR,
            streams=RandomStreams(4)).run(jobs)
        assert faulty.job_kills > 0
        assert faulty.mean_response() > clean.mean_response()

    def test_checkpointing_reduces_waste(self):
        jobs = workload(count=200)
        outcomes = {}
        for label, ckpt in (("none", None), ("hourly", 3600.0)):
            outcomes[label] = DegradedBatchSimulator(
                64, get_policy("easy"), node_mtbf_seconds=0.02 * YEAR,
                checkpoint_interval=ckpt,
                streams=RandomStreams(11)).run(jobs)
        assert (outcomes["hourly"].lost_node_seconds
                < outcomes["none"].lost_node_seconds)
        assert (outcomes["hourly"].waste_fraction
                < outcomes["none"].waste_fraction)

    def test_lower_mtbf_more_waste(self):
        jobs = workload(count=150)

        def waste(mtbf):
            return DegradedBatchSimulator(
                64, get_policy("easy"), node_mtbf_seconds=mtbf,
                streams=RandomStreams(13)).run(jobs).waste_fraction

        assert waste(0.02 * YEAR) > waste(0.5 * YEAR)

    def test_wide_jobs_die_more(self):
        """Kill probability proportional to width: with one huge job and
        many tiny ones running, the huge one takes most of the hits."""
        jobs = [Job(0, 0.0, nodes=60, runtime=50_000.0, estimate=60_000.0)]
        jobs += [Job(i, 0.0, nodes=1, runtime=50_000.0, estimate=60_000.0)
                 for i in range(1, 5)]
        result = DegradedBatchSimulator(
            64, get_policy("fcfs"), node_mtbf_seconds=30_000.0 * 64,
            checkpoint_interval=10_000.0,
            streams=RandomStreams(17)).run(jobs)
        # All jobs complete despite the hostile environment.
        assert len(result.completions) == 5

    def test_virtual_time_guard(self):
        """A machine whose MTBF is far below the only job's runtime can
        never finish without checkpointing — the guard must fire."""
        job = Job(0, 0.0, nodes=4, runtime=1e6, estimate=1e6)
        simulator = DegradedBatchSimulator(
            4, get_policy("fcfs"), node_mtbf_seconds=4e4,  # sys MTBF 1e4
            repair_seconds=10.0, streams=RandomStreams(23))
        with pytest.raises(RuntimeError, match="guard|drain"):
            simulator.run([job], max_virtual_seconds=3e7)

    def test_checkpoint_rescues_impossible_job(self):
        """The same hopeless job finishes once checkpoint restart keeps
        its durable progress."""
        job = Job(0, 0.0, nodes=4, runtime=1e6, estimate=1e6)
        result = DegradedBatchSimulator(
            4, get_policy("fcfs"), node_mtbf_seconds=4e4,
            repair_seconds=10.0, checkpoint_interval=2000.0,
            streams=RandomStreams(23)).run([job])
        assert 0 in result.completions
        assert result.job_kills > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            DegradedBatchSimulator(0, get_policy("fcfs"), 1e6)
        with pytest.raises(ValueError):
            DegradedBatchSimulator(4, get_policy("fcfs"), 0.0)
        with pytest.raises(ValueError):
            DegradedBatchSimulator(4, get_policy("fcfs"), 1e6,
                                   checkpoint_interval=0.0)
        with pytest.raises(ValueError):
            DegradedBatchSimulator(4, get_policy("fcfs"), 1e6).run([])


class TestEdgeCases:
    """Deterministic single-event scenarios, built by replaying the
    simulator's RNG stream (first draw = first failure time, a gap draw
    precedes the struck-in-use uniform) to place strikes exactly."""

    def draws(self, seed, mtbf, total_nodes):
        rng = RandomStreams(seed).get("scheduler.failures")
        mean = mtbf / total_nodes
        first = float(rng.exponential(mean))
        gap = float(rng.exponential(mean))
        return first, first + gap

    def test_idle_node_strike_kills_nothing(self):
        """A failure with nothing running must strike idle: capacity
        dips, no job dies, no work is lost."""
        mtbf, total = 40_000.0, 4
        first, second = self.draws(0, mtbf, total)
        assert second > first + 102.0  # only the first strike matters
        # Submit mid-repair: the machine is idle at the strike.
        job = Job(0, first + 0.5, nodes=4, runtime=100.0, estimate=100.0)
        result = DegradedBatchSimulator(
            total, get_policy("fcfs"), node_mtbf_seconds=mtbf,
            repair_seconds=1.0, streams=RandomStreams(0)).run([job])
        assert result.failures == 1
        assert result.job_kills == 0
        assert result.lost_node_seconds == 0.0
        # The full-width job waits out the 1 s repair, nothing more.
        assert result.completions[0][1] == pytest.approx(
            first + 1.0 + 100.0)

    def test_repair_same_instant_as_completion(self):
        """A repair landing at the exact instant a job completes: both
        events batch before the scheduling pass, so a full-width
        successor starts immediately — no deadlock, no overcommit."""
        mtbf, total = 1_000_000.0, 2
        first, second = self.draws(0, mtbf, total)
        submit = first + 10.0       # strike lands while all is idle
        completion = submit + 50.0  # job 0: one node, 50 s
        repair = completion - first  # repair ends exactly at completion
        assert second > completion + 100.0
        jobs = [Job(0, submit, nodes=1, runtime=50.0, estimate=50.0),
                Job(1, completion, nodes=2, runtime=30.0, estimate=30.0)]
        result = DegradedBatchSimulator(
            total, get_policy("fcfs"), node_mtbf_seconds=mtbf,
            repair_seconds=repair, streams=RandomStreams(0)).run(jobs)
        assert result.failures == 1
        assert result.job_kills == 0
        assert result.completions[0][1] == pytest.approx(completion)
        # Job 1 needs both nodes; they are whole again at its arrival.
        assert result.completions[1][1] == pytest.approx(completion + 30.0)

    def test_stale_generation_completion_is_ignored(self):
        """A killed attempt's completion event still sits in the heap;
        when it fires during the restarted attempt it must be discarded
        by the generation check, not complete the job early."""
        mtbf, total = 20_000.0, 1
        first, second = self.draws(1, mtbf, total)
        runtime = first + 5_000.0   # strike lands mid-run
        repair = 100.0
        restart_done = first + repair + runtime
        assert second > restart_done
        # The only node is struck while the job runs, so the original
        # completion event (at ``runtime``) fires inside the restarted
        # attempt's window whenever repair < 5000.
        job = Job(0, 0.0, nodes=1, runtime=runtime, estimate=runtime)
        result = DegradedBatchSimulator(
            total, get_policy("fcfs"), node_mtbf_seconds=mtbf,
            repair_seconds=repair, streams=RandomStreams(1)).run([job])
        assert result.job_kills == 1
        assert result.completions[0][1] == pytest.approx(restart_done)
        # No checkpoint: the whole first attempt is lost, and goodput
        # credits the second attempt exactly once.
        assert result.lost_node_seconds == pytest.approx(first)
        assert result.goodput_node_seconds == pytest.approx(runtime)


class TestDegradedScheduling:
    def test_policies_work_degraded(self):
        """Every policy keeps functioning while nodes are down (the
        pseudo-job repair representation)."""
        jobs = workload(count=100, nodes=32)
        for policy in ("fcfs", "easy", "conservative", "sjf"):
            result = DegradedBatchSimulator(
                32, get_policy(policy), node_mtbf_seconds=0.05 * YEAR,
                repair_seconds=7200.0,
                streams=RandomStreams(29)).run(jobs)
            assert len(result.completions) == 100

    def test_full_width_job_waits_for_repair(self):
        """A job needing the whole machine must wait out a repair window
        rather than deadlock or overcommit."""
        jobs = [Job(0, 0.0, nodes=8, runtime=5000.0, estimate=5000.0),
                Job(1, 100.0, nodes=8, runtime=5000.0, estimate=5000.0)]
        result = DegradedBatchSimulator(
            8, get_policy("easy"), node_mtbf_seconds=8 * 2000.0,
            repair_seconds=3600.0, checkpoint_interval=500.0,
            streams=RandomStreams(31)).run(jobs)
        assert set(result.completions) == {0, 1}
