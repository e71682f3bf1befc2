"""The benchmark's four campaign workloads.

Each workload is a class with the same four steps:

* ``setup()`` imports the library and builds everything the campaign
  needs (topology, fabric, monitor or service, trace or spec).  It is
  what ``setup_s`` times, together with the interpreter's first
  ``import repro``, so the library is imported here and not at the top
  of this module.
* ``run()`` simulates the fixed horizon.  It is what ``wall_s`` times.
* ``outcome()`` returns the simulated outcome as a JSON-able record.
  At the default seed it is compared field by field with the pinned
  record in ``expected_outcomes.json``; at every seed ``problems()``
  checks the workload's invariants.
* ``counters()`` returns the hardware-independent per-layer counts,
  read only from the library's public counters.

Inputs derive from the seed alone: the crash victims, the faulted
ranks and every named random stream of the simulation.  jobs_swf's SWF
trace is fixed; its seed drives the random message drops.
``small=True`` shrinks each workload for the self-tests; the benchmark
always runs the full size.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["DEFAULT_SEED", "WORKLOADS", "check", "make_workload"]

#: The seed whose exact outcome is pinned in ``expected_outcomes.json``.
DEFAULT_SEED = 0

#: Transfers that finish within this many simulated seconds of their
#: closed-form idle-fabric time are counted as unqueued, so float
#: rounding in the cost model never reads as contention.
_WAIT_EPSILON = 1e-12


def _wait_sim_seconds(fabric) -> float:
    """Simulated seconds recorded transfers spent beyond their
    uncontended time (``Fabric(record_transfers=True)`` only)."""
    total = 0.0
    for rec in fabric.records:
        excess = rec.duration - fabric.uncontended_time(
            rec.src, rec.dst, rec.nbytes)
        if excess > _WAIT_EPSILON:
            total += excess
    return total


def _nan_to_zero(value: float) -> float:
    return 0.0 if math.isnan(value) else value


def _health_transitions(health_log, arrow: str) -> List[Tuple[int, str]]:
    """``(node, cause)`` of every membership line containing ``arrow``,
    e.g. ``"->dead"``.  Lines read ``<t> epoch=<e> node=<n> a->b
    cause=<c>``."""
    found = []
    for line in health_log:
        if arrow not in line:
            continue
        fields = dict(part.split("=", 1) for part in line.split()
                      if "=" in part)
        found.append((int(fields["node"]), fields.get("cause", "")))
    return found


class _Workload:
    """Shared shape; subclasses fill in the four steps."""

    name = ""
    #: Module paths (relative to ``src/``) whose import closure is the
    #: code this workload measures, for ``repro.xp.code_fingerprint``.
    roots: Tuple[str, ...] = ()

    def __init__(self, seed: int, small: bool = False,
                 record_transfers: bool = False) -> None:
        self.seed = seed
        self.small = small
        self.record_transfers = record_transfers

    def _rng(self) -> random.Random:
        """The benchmark's own input generator for this seed."""
        return random.Random(f"{self.name}:{self.seed}")

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def outcome(self) -> Dict[str, Any]:
        raise NotImplementedError

    def problems(self, record: Dict[str, Any]) -> List[str]:
        raise NotImplementedError

    def counters(self, events: int) -> Dict[str, float]:
        """Per-layer counts; ``events`` is the engine's event total."""
        raise NotImplementedError


# -- fleet-scale failure detection ----------------------------------------


class _Detection(_Workload):
    """A 10^4-node fat tree under a membership monitor with three
    mid-run crashes; the gossip variant also blackholes host 0."""

    roots = ("repro/health/__init__.py", "repro/network/__init__.py",
             "repro/sim/__init__.py")
    detector = ""
    interval = 0.1
    dead_after = 0.6
    crash_at = 0.0
    horizon = 0.0
    partition = False
    #: Host 0 is the central monitor's home and the gossip island.
    host0 = 0

    def setup(self) -> None:
        from repro.health import DetectionSpec, build_monitor
        from repro.network import (
            Fabric,
            FabricFaultPlan,
            FatTreeTopology,
            get_interconnect,
        )
        from repro.sim import RandomStreams, Simulator

        self.nodes = 400 if self.small else 10_000
        self.victims = sorted(self._rng().sample(range(1, self.nodes), 3))
        self.sim = Simulator()
        topology = FatTreeTopology(self.nodes)
        plan = None
        if self.partition:
            # Both directions of host 0's access link go dark: a grey
            # failure routing cannot see, so nothing re-routes.
            plan = FabricFaultPlan()
            host, leaf = topology.route(self.host0, 1)[0]
            plan.link_down_oneway(host, leaf, self.crash_at, self.horizon)
            plan.link_down_oneway(leaf, host, self.crash_at, self.horizon)
        self.fabric = Fabric(self.sim, topology,
                             get_interconnect("infiniband_4x"),
                             record_transfers=self.record_transfers,
                             fault_plan=plan)
        spec = DetectionSpec(detector=self.detector,
                             heartbeat_interval=self.interval,
                             suspect_after=3 * self.interval,
                             dead_after=self.dead_after,
                             monitor_host=self.host0,
                             heartbeat_slots=256)
        self.monitor = build_monitor(self.sim, self.fabric, self.nodes,
                                     spec=spec,
                                     streams=RandomStreams(self.seed))
        self.monitor.start()

    def run(self) -> None:
        self.sim.run(until=self.crash_at)
        for node in self.victims:
            self.monitor.crash(node)
        self.sim.run(until=self.horizon)

    def outcome(self) -> Dict[str, Any]:
        monitor = self.monitor
        real = sorted(d.node for d in monitor.deaths
                      if not d.false_positive)
        mttd = monitor.mttd_seconds()
        return {
            "victims": list(self.victims),
            "detected": real,
            "false_deaths": monitor.false_deaths,
            "false_verdicts": sorted(
                [node, cause] for node, cause in _health_transitions(
                    monitor.outcome().health_log, "->dead")
                if node not in self.victims),
            "mttd_sim_s": None if math.isnan(mttd) else mttd,
            "messages_sent": monitor.heartbeats_sent,
            "messages_delivered": monitor.heartbeats_delivered,
            "messages_lost": monitor.heartbeats_lost,
        }

    def problems(self, record: Dict[str, Any]) -> List[str]:
        found = []
        if record["detected"] != record["victims"]:
            found.append(f"detected {record['detected']} != crashed "
                         f"{record['victims']}")
        return found

    def counters(self, events: int) -> Dict[str, float]:
        monitor = self.monitor
        outcome = monitor.outcome()
        suspicions = len(_health_transitions(outcome.health_log,
                                             "->suspected"))
        indirect = 0
        if hasattr(monitor, "gossip_stats"):
            stats = monitor.gossip_stats()
            suspicions = stats.suspicions
            indirect = stats.indirect_probes
        intervals = self.horizon / self.interval
        return {
            "health.events_per_node_interval":
                events / (self.nodes * intervals),
            "health.messages_sent": monitor.heartbeats_sent,
            "health.messages_delivered": monitor.heartbeats_delivered,
            "health.suspicions": suspicions,
            "health.indirect_probes": indirect,
            "health.false_deaths": monitor.false_deaths,
            "health.mttd_sim_s": _nan_to_zero(monitor.mttd_seconds()),
            "network.wait_sim_s": (_wait_sim_seconds(self.fabric)
                                   if self.record_transfers else 0.0),
        }


class Central10k(_Detection):
    """Slotted central heartbeat monitor, fixed detector: heartbeat
    fan-in on the monitor host's link is the contended hotspot."""

    name = "central_10k"
    detector = "fixed"
    crash_at = 0.25
    horizon = 1.0

    def problems(self, record: Dict[str, Any]) -> List[str]:
        found = super().problems(record)
        if record["false_deaths"]:
            found.append(f"{record['false_deaths']} false death(s) "
                         "with no fault on any route")
        return found


class Gossip10k(_Detection):
    """SWIM gossip with the same crashes plus the one-way blackhole of
    host 0, so every transfer takes the fault-aware path."""

    name = "gossip_10k"
    detector = "gossip"
    #: A short suspicion timer keeps the horizon affordable.  Outside
    #: the island no probe is lost (no drops, no outage on its routes),
    #: so a live node there is never suspected and cannot die falsely.
    dead_after = 0.2
    crash_at = 0.05
    horizon = 1.2
    partition = True

    def problems(self, record: Dict[str, Any]) -> List[str]:
        found = super().problems(record)
        for node, cause in record["false_verdicts"]:
            # Every false verdict must involve the island: either host
            # 0 itself, or a node host 0 declared dead from inside it.
            island = f"gossip-dead-by-{self.host0}"
            if node != self.host0 and cause != island:
                found.append(f"false death of node {node} ({cause}) "
                             "outside the partitioned island")
        return found


# -- the lease-based job control plane ------------------------------------


class JobsSwf(_Workload):
    """E22's control-plane campaign on a seeded, SWF-round-tripped
    trace: crashes, a stall, a supervisor outage, duplicates, drops."""

    name = "jobs_swf"
    roots = ("repro/jobs/__init__.py", "repro/scheduler/__init__.py")
    trace_seed = 22

    def setup(self) -> None:
        import numpy as np

        import repro.jobs
        from repro.health import DetectionSpec
        from repro.jobs import (
            DuplicateSubmitSpec,
            JobsCampaignSpec,
            ServiceConfig,
            SupervisorCrashSpec,
            WorkerCrashSpec,
            WorkerStallSpec,
        )
        from repro.scheduler import (
            WorkloadGenerator,
            WorkloadParams,
            format_swf,
            parse_swf,
            scale_jobs,
        )
        from repro.sim import RandomStreams

        self._jobs = repro.jobs
        count = 30 if self.small else 240
        params = WorkloadParams(max_nodes=16, offered_load=2.0,
                                runtime_log_mean=float(np.log(2.0)),
                                runtime_log_sigma=0.6,
                                overestimate_max=2.0)
        # The trace is E22's, at 240 jobs and E22's seed: a seed-drawn
        # trace moves the job log's scan work by about 20% between
        # seeds, which would read as timing noise.  The seed drives the
        # campaign's random message drops.
        natural = WorkloadGenerator(
            params, RandomStreams(seed=self.trace_seed)).generate(count)
        trace = parse_swf(format_swf(natural, max_nodes=16))
        # SWF is integer seconds; the control plane runs in ms.
        requests = repro.jobs.requests_from_jobs(
            tuple(scale_jobs(trace, 1e-3)))
        detection = DetectionSpec(detector="fixed",
                                  heartbeat_interval=1e-4,
                                  suspect_after=3e-4, dead_after=6e-4,
                                  monitor_host=0)
        self.spec = JobsCampaignSpec(
            requests=requests,
            name=self.name,
            service=ServiceConfig(workers=4, spare_workers=2,
                                  detection=detection),
            worker_crashes=(WorkerCrashSpec(time=2e-3, host=2),
                            WorkerCrashSpec(time=6e-3, host=4)),
            worker_stalls=(WorkerStallSpec(time=3e-3, host=1,
                                           duration=4e-3),),
            supervisor_crashes=(SupervisorCrashSpec(
                time=4.5e-3, restart_after=1.5e-3),),
            duplicate_submits=(DuplicateSubmitSpec(time=2.5e-3, index=2),
                               DuplicateSubmitSpec(time=5e-3, index=7)),
            drop_probability=0.02,
            seed=self.seed,
            # Far past the last close, so every job finishes.
            horizon=2.0,
        )

    def run(self) -> None:
        self.report = self._jobs.run_jobs_campaign(self.spec)

    def outcome(self) -> Dict[str, Any]:
        report = self.report
        return {
            "jobs": report.jobs,
            "completed": report.completed,
            "failed": report.failed,
            "unfinished": report.unfinished,
            "violations": len(report.violations),
            "log_digest": report.log_digest,
        }

    def problems(self, record: Dict[str, Any]) -> List[str]:
        found = []
        if record["violations"]:
            found.append(f"{record['violations']} log invariant "
                         "violation(s)")
        if record["unfinished"]:
            found.append(f"{record['unfinished']} job(s) never closed")
        closed = record["completed"] + record["failed"]
        if closed != record["jobs"]:
            # Each job closes exactly once: completed, or failed after
            # its attempt budget ran out without a durable effect.
            found.append(f"{closed} of {record['jobs']} jobs closed")
        return found

    def counters(self, events: int) -> Dict[str, float]:
        report = self.report
        detection = report.detection
        interval = self.spec.service.detection.heartbeat_interval
        host_intervals = (self.spec.service.total_hosts
                          * report.elapsed / interval)
        return {
            "health.events_per_node_interval": events / host_intervals,
            "health.messages_sent": detection.heartbeats_sent,
            "health.messages_delivered": detection.heartbeats_delivered,
            "health.suspicions": len(_health_transitions(
                detection.health_log, "->suspected")),
            "health.false_deaths": detection.false_deaths,
            "health.mttd_sim_s": _nan_to_zero(detection.mttd_seconds),
            "jobs.grants": report.grants,
            "jobs.expiries": report.expiries,
            "jobs.fencing_rejections": report.fencing_rejections,
            "jobs.log_records": report.log_records,
            "jobs.useful_grant_ratio": (report.completed / report.grants
                                        if report.grants else 0.0),
        }


# -- checkpoint/restart fault campaign ------------------------------------


class SummaCampaign(_Workload):
    """SUMMA on 64 ranks over GigE with two node faults and 1% drops:
    the faulty run plus its failure-free twin, bit-identical answers."""

    name = "summa_campaign"
    roots = ("repro/fault/__init__.py", "repro/apps/campaigns.py")

    def setup(self) -> None:
        import repro.apps.campaigns  # noqa: F401  (registers the kernels)
        import repro.fault
        from repro.fault import CampaignSpec, NodeFaultSpec

        self._fault = repro.fault
        ranks, n = (16, 16) if self.small else (64, 64)
        fault_times = (2e-3, 4e-3) if self.small else (6e-3, 13e-3)
        victims = self._rng().sample(range(ranks), len(fault_times))
        self.spec = CampaignSpec(
            kernel="summa", ranks=ranks, name=self.name,
            app_args=(("n", n),),
            node_faults=tuple(NodeFaultSpec(time=t, rank=r)
                              for t, r in zip(fault_times, victims)),
            checkpoint_every=1,
            checkpoint_write_seconds=1e-4,
            restart_seconds=2e-4,
            drop_probability=0.01,
            seed=self.seed,
        )

    def run(self) -> None:
        self.report = self._fault.run_campaign(self.spec)

    def outcome(self) -> Dict[str, Any]:
        report = self.report
        faulty = report.faulty
        return {
            "answers_match": report.answers_match,
            "faults": len(self.spec.node_faults),
            "restarts": faulty.incarnations - 1,
            "commits": faulty.commits,
            "goodput": report.goodput,
        }

    def problems(self, record: Dict[str, Any]) -> List[str]:
        found = []
        if not record["answers_match"]:
            found.append("recovered answers differ from the "
                         "failure-free twin")
        if record["restarts"] != record["faults"]:
            found.append(f"{record['restarts']} restart(s) for "
                         f"{record['faults']} node fault(s)")
        return found

    def counters(self, events: int) -> Dict[str, float]:
        report = self.report
        runs = (report.faulty, report.clean)
        faulty = report.faulty
        return {
            "messaging.retries": sum(r.comm_stats.get("retries", 0)
                                     for r in runs),
            "messaging.acks": sum(r.comm_stats.get("acks", 0)
                                  for r in runs),
            "messaging.duplicates": sum(r.comm_stats.get("duplicates", 0)
                                        for r in runs),
            "fault.restarts": faulty.incarnations - 1,
            "fault.commits": faulty.commits,
            "fault.lost_work_sim_s": faulty.lost_work_seconds,
        }


WORKLOADS = {cls.name: cls for cls in (Central10k, Gossip10k, JobsSwf,
                                       SummaCampaign)}


def make_workload(name: str, seed: int, small: bool = False,
                  record_transfers: bool = False) -> _Workload:
    """Instantiate a workload by name (``KeyError`` if unknown)."""
    return WORKLOADS[name](seed, small=small,
                           record_transfers=record_transfers)


def check(workload: _Workload, record: Dict[str, Any],
          expected: Optional[Dict[str, Any]] = None) -> List[str]:
    """Every way ``record`` is wrong: the workload's invariants, plus
    each field that differs from the pinned ``expected`` record."""
    found = workload.problems(record)
    if expected is not None:
        for key in sorted(set(expected) | set(record)):
            if record.get(key) != expected.get(key):
                found.append(f"{key}: got {record.get(key)!r}, pinned "
                             f"{expected.get(key)!r}")
    return found
