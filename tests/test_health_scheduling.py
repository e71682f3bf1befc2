"""Degraded-mode batch scheduling: zombies, spares, drains, backoff."""

import dataclasses
import math

import pytest

from repro.health import (
    DegradedBatchSimulator,
    DrainWindow,
)
from repro.scheduler import (
    Job,
    WorkloadGenerator,
    WorkloadParams,
    get_policy,
)
from repro.sim import RandomStreams
from tests.batch_oracle import OracleBatchSimulator

YEAR = 365.25 * 86400.0
NAN = float("nan")


def workload(count=120, nodes=32, load=0.7, seed=3):
    generator = WorkloadGenerator(
        WorkloadParams(max_nodes=nodes, offered_load=load),
        RandomStreams(seed))
    return generator.generate(count)


def degraded(jobs, **kwargs):
    base = dict(total_nodes=32, policy=get_policy("easy"),
                node_mtbf_seconds=0.05 * YEAR, repair_seconds=7200.0,
                streams=RandomStreams(9))
    base.update(kwargs)
    return DegradedBatchSimulator(**base).run(jobs)


def assert_matches_oracle(jobs, nodes, policy, mtbf, repair, interval,
                          seed):
    """Run the degraded simulator at its defaults (zero detection lag,
    no spares, backoff or drains) beside the historical oracle and
    require every raw result field to be equal, not approximately."""
    oracle = OracleBatchSimulator(
        nodes, get_policy(policy), node_mtbf_seconds=mtbf,
        repair_seconds=repair, checkpoint_interval=interval,
        streams=RandomStreams(seed)).run(jobs)
    detected = DegradedBatchSimulator(
        nodes, get_policy(policy), node_mtbf_seconds=mtbf,
        repair_seconds=repair, checkpoint_interval=interval,
        streams=RandomStreams(seed)).run(jobs)
    assert oracle.job_kills > 0  # the point exercises the kill path
    for field in dataclasses.fields(oracle):
        assert (getattr(detected, field.name)
                == getattr(oracle, field.name)), field.name
    assert detected.zombie_node_seconds == 0.0
    assert detected.requeues == detected.job_kills
    assert detected.spare_activations == 0
    assert detected.drain_shortfall == 0


#: (nodes, policy, job count, offered load, workload seed, node MTBF,
#: checkpoint interval, stream seed) per differential point: a 32-node
#: matrix over every policy, both recovery modes and three seeds, plus
#: the hostile end of bench E15's sweep.
_MATRIX = [
    pytest.param(32, policy, 120, 0.7, seed, 0.02 * YEAR, interval,
                 seed, id=f"{policy}-{label}-s{seed}")
    for policy in ("fcfs", "easy", "conservative", "sjf")
    for label, interval in (("scratch", None), ("hourly", 3600.0))
    for seed in (0, 1, 2)
] + [
    pytest.param(1024, "easy", 800, 0.8, 41, 0.25 * YEAR, 3600.0, 97,
                 id="e15-easy-hourly-mtbf0.25y"),
]


class TestOracleEquivalence:
    def test_zero_detection_matches_oracle_simulator(self):
        """With instantaneous detection, no spares, and no drains, the
        degraded simulator replays the oracle's RNG stream and must
        reproduce its schedule exactly."""
        assert_matches_oracle(workload(), 32, "easy", 0.05 * YEAR,
                              7200.0, 3600.0, 9)

    @pytest.mark.parametrize(
        "nodes, policy, count, load, workload_seed, mtbf, interval, seed",
        _MATRIX)
    def test_zero_detection_matrix(self, nodes, policy, count, load,
                                   workload_seed, mtbf, interval, seed):
        jobs = workload(count=count, nodes=nodes, load=load,
                        seed=workload_seed)
        assert_matches_oracle(jobs, nodes, policy, mtbf, 1800.0, interval,
                              seed)

    def test_no_failures_clean_run(self):
        jobs = workload(count=80)
        result = degraded(jobs, node_mtbf_seconds=math.inf)
        assert result.failures == 0
        assert result.zombie_node_seconds == 0.0
        assert result.health_log == ()
        assert len(result.completions) == 80


class TestDetectionLatency:
    def test_detection_window_breeds_zombies(self):
        jobs = workload()
        blind = degraded(jobs, detection_seconds=1800.0,
                         checkpoint_interval=3600.0)
        assert blind.job_kills > 0
        assert blind.zombie_node_seconds > 0.0
        assert len(blind.completions) == len(jobs)

    def test_slower_detection_wastes_more(self):
        jobs = workload()

        def waste(detect):
            return degraded(jobs, detection_seconds=detect,
                            checkpoint_interval=3600.0).waste_fraction

        assert waste(3600.0) > waste(0.0)

    def test_lost_work_clocked_at_strike_not_detection(self):
        """Zombie time is pure waste on top of lost work: the checkpoint
        arithmetic must not credit progress made while dead."""
        jobs = workload()
        instant = degraded(jobs, detection_seconds=0.0,
                           checkpoint_interval=3600.0)
        slow = degraded(jobs, detection_seconds=1800.0,
                        checkpoint_interval=3600.0)
        # Same strikes (same stream): per-kill durable credit decided at
        # the strike, so goodput is conserved in both.
        total = sum(job.node_seconds for job in jobs)
        assert instant.goodput_node_seconds == pytest.approx(total,
                                                             rel=1e-9)
        assert slow.goodput_node_seconds == pytest.approx(total, rel=1e-9)

    def test_health_log_records_the_pipeline(self):
        result = degraded(workload(), detection_seconds=1800.0)
        assert result.failures > 0
        log = "\n".join(result.health_log)
        assert "cause=missed-heartbeats" in log
        assert "cause=silence-confirmed" in log
        assert "cause=repaired" in log


class TestSparePool:
    def test_spares_absorb_failures(self):
        jobs = workload()
        bare = degraded(jobs, detection_seconds=900.0)
        pooled = degraded(jobs, detection_seconds=900.0, spare_nodes=4)
        assert pooled.spare_activations > 0
        assert pooled.min_spare_depth < 4
        assert pooled.degraded_node_seconds < bare.degraded_node_seconds
        assert pooled.availability > bare.availability

    def test_depleted_pool_falls_back_to_degraded(self):
        """One spare, many failures: activations stop at the pool and
        later failures still take capacity out."""
        jobs = workload()
        result = degraded(jobs, detection_seconds=900.0, spare_nodes=1,
                          node_mtbf_seconds=0.02 * YEAR)
        assert result.min_spare_depth == 0
        assert result.degraded_node_seconds > 0.0

    def test_node_identity_is_deterministic(self):
        """Strikes take the lowest in-service id: the first suspicion in
        the log is always node 0, and every struck node completes the
        suspected -> dead -> repairing -> healthy cycle."""
        result = degraded(workload(), detection_seconds=900.0,
                          spare_nodes=2)
        assert result.spare_activations > 0
        suspected = [line for line in result.health_log
                     if "cause=missed-heartbeats" in line]
        assert suspected[0].split()[2] == "node=0"
        # Repairs can still be pending when the workload drains, but
        # no node is ever repaired without having been struck first.
        repaired = [line for line in result.health_log
                    if "cause=repaired" in line]
        assert 0 < len(repaired) <= len(suspected)


class TestRequeueBackoff:
    MTBF = 20_000.0
    RUNTIME = 5_000.0
    DETECT = 900.0
    REPAIR = 3_600.0
    BACKOFF = 7_200.0

    def find_seed(self):
        """A seed whose first strike kills the only job mid-run and
        whose second strike lands after every restart of interest
        (mirrors the simulator's RNG draw order: the next-failure gap
        is drawn before the struck-in-use uniform)."""
        horizon = self.DETECT + self.BACKOFF + self.RUNTIME
        for seed in range(500):
            rng = RandomStreams(seed).get("scheduler.failures")
            first = float(rng.exponential(self.MTBF))
            gap = float(rng.exponential(self.MTBF))
            if first < self.RUNTIME and gap > horizon:
                return seed, first
        raise AssertionError("no suitable seed in range")

    def test_backoff_delays_the_restart(self):
        """Single-node machine, one job: the kill, the repair, and the
        requeue are fully deterministic, so the backoff's effect on the
        completion time is exact."""
        seed, struck_at = self.find_seed()

        def run(backoff):
            job = Job(0, 0.0, nodes=1, runtime=self.RUNTIME,
                      estimate=self.RUNTIME)
            return degraded([job], total_nodes=1,
                            node_mtbf_seconds=self.MTBF,
                            detection_seconds=self.DETECT,
                            repair_seconds=self.REPAIR,
                            requeue_backoff_seconds=backoff,
                            streams=RandomStreams(seed))

        detected_at = struck_at + self.DETECT
        # Eager requeue: the restart waits only for the repair.
        eager = run(0.0)
        assert eager.job_kills == 1 and eager.requeues == 1
        assert eager.completions[0][1] == pytest.approx(
            detected_at + self.REPAIR + self.RUNTIME)
        # Backoff beyond the repair: the restart waits for the backoff.
        patient = run(self.BACKOFF)
        assert patient.requeues == 1
        assert patient.completions[0][1] == pytest.approx(
            detected_at + self.BACKOFF + self.RUNTIME)


class TestDrains:
    def test_drain_takes_and_returns_capacity(self):
        job = Job(0, 0.0, nodes=4, runtime=1000.0, estimate=1000.0)
        result = degraded([job], node_mtbf_seconds=math.inf,
                          total_nodes=8,
                          drains=(DrainWindow(100.0, 600.0, nodes=2),))
        assert 0 in result.completions
        assert result.drain_shortfall == 0
        # 2 nodes out for 500 s.
        assert result.degraded_node_seconds == pytest.approx(1000.0)
        log = "\n".join(result.health_log)
        assert "cause=drain" in log and "cause=undrain" in log

    def test_drain_takes_only_free_nodes(self):
        """Demand beyond the free pool is recorded, never forced."""
        job = Job(0, 0.0, nodes=8, runtime=1000.0, estimate=1000.0)
        result = degraded([job], node_mtbf_seconds=math.inf,
                          total_nodes=8,
                          drains=(DrainWindow(100.0, 200.0, nodes=3),))
        assert result.drain_shortfall == 3
        assert result.degraded_node_seconds == 0.0
        assert result.completions[0][1] == pytest.approx(1000.0)

    def test_full_width_job_waits_out_a_drain(self):
        jobs = [Job(0, 0.0, nodes=2, runtime=100.0, estimate=100.0),
                Job(1, 150.0, nodes=8, runtime=100.0, estimate=100.0)]
        result = degraded(jobs, node_mtbf_seconds=math.inf, total_nodes=8,
                          drains=(DrainWindow(120.0, 500.0, nodes=8),))
        # Job 1 needs the whole machine; it must wait for the undrain.
        assert result.completions[1][1] == pytest.approx(600.0)


class TestDeterminism:
    def test_same_seed_same_log(self):
        jobs = workload()

        def log():
            return degraded(jobs, detection_seconds=900.0, spare_nodes=2,
                            checkpoint_interval=3600.0,
                            streams=RandomStreams(9)).health_log

        assert log() == log()

    def test_policies_survive_degraded_capacity(self):
        jobs = workload(count=60)
        for policy in ("fcfs", "easy", "conservative", "sjf"):
            result = degraded(jobs, policy=get_policy(policy),
                              detection_seconds=900.0, spare_nodes=2)
            assert len(result.completions) == 60


class TestValidation:
    def test_constructor_guards(self):
        policy = get_policy("fcfs")
        with pytest.raises(ValueError):
            DegradedBatchSimulator(4, policy, 1e6, detection_seconds=-1.0)
        with pytest.raises(ValueError):
            DegradedBatchSimulator(4, policy, 1e6, spare_nodes=-1)
        with pytest.raises(ValueError):
            DegradedBatchSimulator(4, policy, 1e6,
                                   requeue_backoff_seconds=-1.0)
        with pytest.raises(ValueError):
            DrainWindow(5.0, 5.0)
        with pytest.raises(ValueError):
            DrainWindow(0.0, 1.0, nodes=0)

    @pytest.mark.parametrize("kwargs", [
        {"node_mtbf_seconds": NAN},
        {"detection_seconds": NAN},
        {"detection_seconds": math.inf},
        {"repair_seconds": NAN},
        {"repair_seconds": math.inf},
        {"requeue_backoff_seconds": NAN},
        {"requeue_backoff_seconds": math.inf},
        {"checkpoint_interval": NAN},
        {"checkpoint_interval": math.inf},
    ], ids=lambda kwargs: "-".join(f"{k}={v}" for k, v in kwargs.items()))
    def test_malformed_floats_rejected(self, kwargs):
        """NaN fails every comparison, so a ``< 0`` guard lets it
        through to a silently empty or misleadingly failing run; every
        float parameter must reject it (and infinity, except for the
        MTBF, where it means "no failures")."""
        base = dict(total_nodes=4, policy=get_policy("fcfs"),
                    node_mtbf_seconds=1e6)
        base.update(kwargs)
        with pytest.raises(ValueError):
            DegradedBatchSimulator(**base)

    @pytest.mark.parametrize("start, end", [(NAN, 5.0), (1.0, NAN),
                                            (NAN, NAN)])
    def test_drain_window_rejects_nan(self, start, end):
        with pytest.raises(ValueError):
            DrainWindow(start, end)

    def test_empty_workload_raises(self):
        with pytest.raises(ValueError):
            DegradedBatchSimulator(4, get_policy("fcfs"), 1e6).run([])
