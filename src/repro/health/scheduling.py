"""Batch scheduling under failures: detection latency meets the queue.

The keynote's two system-software threads — resource management and
fault recovery — are one problem in production: node failures kill
running jobs, killed jobs re-enter the queue, and the machine runs
degraded while nodes repair.  Real clusters learn about failures from a
detector, so between the strike and the declaration the job's nodes
are **zombies** — occupied, billed, doing no useful work — and only at
detection does the scheduler kill, requeue (after a backoff), dispatch
repair, and activate a spare.

:class:`DegradedBatchSimulator` is the library's one batch simulator
under failures, and models exactly that pipeline on the aggregate
batch model:

* failures strike Poisson at rate ``capacity / node_mtbf`` on a
  uniformly random node, so a job's kill probability is proportional
  to its width — wide jobs die more, as in real logs;
* each strike is *detected* ``detection_seconds`` later (the knob a
  heartbeat detector timeout sets);
* killed jobs restart from scratch, or from their last checkpoint at a
  fixed interval (the work since it is lost);
* a **spare pool** of ``spare_nodes`` held outside the schedulable
  capacity: a detected failure activates a spare immediately (the slot
  returns to service at detection, not at repair), and the repaired
  node later refills the pool;
* killed jobs **requeue with backoff** — re-eligible only
  ``requeue_backoff_seconds`` after detection;
* :class:`DrainWindow` maintenance intervals administratively remove
  nodes from capacity, taking only from currently free nodes (unmet
  demand is counted, not forced);
* the policy sees degraded capacity as width-1 pseudo-jobs:
  out-of-service and drained slots release at their estimated return
  times, so backfill reservations stay honest, while zombies look like
  ordinary running jobs (the scheduler does not know yet — that is the
  point).

With its defaults — zero detection lag, no spares, no backoff, no
drains — a failure kills its job the instant it strikes: the oracular
model bench E15 sweeps.  ``tests/batch_oracle.py`` keeps the historical
oracular simulator, and the health-scheduling tests pin the two
bit-equal on every raw result field.

Outputs add *goodput* (node-seconds of work that counted toward a
completion), *lost work* and *zombie time* to the usual metrics, so the
benches can show what recovery software is worth in delivered machine.

A per-node :class:`~repro.health.state.Membership` machine tracks a
deterministic node-identity assignment (strikes and drains take the
lowest in-service id) purely for the health log and the availability
metric; the aggregate schedule never depends on which id failed.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.health.spares import SparePool
from repro.health.state import Membership, NodeHealthState
from repro.obs import NULL_OBS, Observability
from repro.scheduler.job import Job
from repro.scheduler.policies import SchedulingPolicy
from repro.sim.rng import RandomStreams

__all__ = [
    "DegradedBatchSimulator",
    "DegradedScheduleResult",
    "DrainWindow",
]

_ARRIVAL = 0
_FAILURE = 1
_DETECT = 2
_COMPLETION = 3
_REPAIR = 4
_DRAIN_START = 5
_DRAIN_END = 6
_REQUEUE = 7


@dataclass(frozen=True)
class DrainWindow:
    """Administratively drain ``nodes`` nodes over ``[start, end)``."""

    start: float
    end: float
    nodes: int = 1

    def __post_init__(self) -> None:
        if not 0 <= self.start < self.end:  # NaN fails every comparison
            raise ValueError("need 0 <= start < end")
        if self.nodes < 1:
            raise ValueError("must drain at least one node")


@dataclass
class _RunningJob:
    job: Job
    start_time: float
    remaining_runtime: float      # work left at this attempt's start
    generation: int               # cancels stale completion events


@dataclass
class _Zombie:
    entry: _RunningJob
    failed_at: float


@dataclass
class DegradedScheduleResult:
    """Outcome of a detection-aware, spare-pooled workload run."""

    total_nodes: int
    spare_nodes: int
    makespan: float
    first_submit: float
    #: job_id -> (original submit, final completion) for finished jobs.
    completions: Dict[int, Tuple[float, float]]
    goodput_node_seconds: float = 0.0
    #: Node-seconds of killed work since the last checkpoint.
    lost_node_seconds: float = 0.0
    #: Node-seconds occupied by dead-but-undetected jobs.
    zombie_node_seconds: float = 0.0
    #: Slot-seconds removed from schedulable capacity (down + drained).
    degraded_node_seconds: float = 0.0
    failures: int = 0
    job_kills: int = 0
    requeues: int = 0
    spare_activations: int = 0
    #: Drain demand that found no free node to take.
    drain_shortfall: int = 0
    min_spare_depth: int = 0
    #: Canonical membership event log (determinism checks).
    health_log: Tuple[str, ...] = field(default_factory=tuple)

    @property
    def horizon(self) -> float:
        """Virtual time from first submit to makespan."""
        return self.makespan - self.first_submit

    @property
    def goodput_utilization(self) -> float:
        """Useful work over nominal capacity."""
        capacity = self.total_nodes * max(self.horizon, 1e-12)
        return min(1.0, self.goodput_node_seconds / capacity)

    @property
    def availability(self) -> float:
        """Fraction of slot-time in service.  Zombie slots count as up:
        the scheduler does not yet know they are wasted — the gap
        between availability and goodput is detection's bill."""
        capacity = self.total_nodes * max(self.horizon, 1e-12)
        return max(0.0, 1.0 - self.degraded_node_seconds / capacity)

    @property
    def waste_fraction(self) -> float:
        """(lost + zombie) over all expended node-seconds."""
        wasted = self.lost_node_seconds + self.zombie_node_seconds
        total = wasted + self.goodput_node_seconds
        return wasted / total if total > 0 else 0.0

    def mean_response(self) -> float:
        """Mean submit-to-final-completion time over finished jobs."""
        if not self.completions:
            raise ValueError("no completed jobs")
        return float(np.mean([end - submit for submit, end
                              in self.completions.values()]))


class DegradedBatchSimulator:
    """Batch simulator with detection latency, spares, and drains.

    Parameters
    ----------
    total_nodes, policy:
        Schedulable capacity and policy, as in
        :class:`~repro.scheduler.simulator.BatchSimulator`.
    node_mtbf_seconds:
        Per-node exponential MTBF; ``math.inf`` disables failures.
    detection_seconds:
        Latency between a failure striking and the scheduler learning
        of it (a heartbeat detector's dead-timeout).
    repair_seconds:
        Repair duration, measured from *detection* — repair cannot be
        dispatched for a failure nobody has noticed.
    spare_nodes:
        Healthy nodes held outside schedulable capacity; a detected
        failure activates one immediately if the pool is non-empty.
    requeue_backoff_seconds:
        Delay between detection and the killed job re-entering the
        queue (zero requeues at the detection instant).
    checkpoint_interval:
        ``None`` restarts killed jobs from scratch; a positive value
        restarts them from the last multiple of the interval.  Checkpoint
        write overhead is assumed folded into the runtime (jobs of the
        workload model are wall-clock observations).  Progress is
        measured to the strike, not to detection — zombie time is pure
        waste.
    drains:
        :class:`DrainWindow` maintenance schedule.
    """

    def __init__(self, total_nodes: int, policy: SchedulingPolicy,
                 node_mtbf_seconds: float,
                 detection_seconds: float = 0.0,
                 repair_seconds: float = 1800.0,
                 spare_nodes: int = 0,
                 requeue_backoff_seconds: float = 0.0,
                 checkpoint_interval: Optional[float] = None,
                 drains: Sequence[DrainWindow] = (),
                 streams: Optional[RandomStreams] = None,
                 obs: Optional[Observability] = None) -> None:
        if total_nodes < 1:
            raise ValueError("total_nodes must be >= 1")
        # Written as ``not (in range)`` so NaN, which fails every
        # comparison, is rejected too.
        if not node_mtbf_seconds > 0:
            raise ValueError("node MTBF must be positive")
        if not 0 <= detection_seconds < math.inf:
            raise ValueError("detection latency must be finite and "
                             "non-negative")
        if not 0 <= repair_seconds < math.inf:
            raise ValueError("repair time must be finite and non-negative")
        if spare_nodes < 0:
            raise ValueError("spare_nodes must be >= 0")
        if not 0 <= requeue_backoff_seconds < math.inf:
            raise ValueError("requeue backoff must be finite and "
                             "non-negative")
        if (checkpoint_interval is not None
                and not 0 < checkpoint_interval < math.inf):
            raise ValueError("checkpoint interval must be finite and "
                             "positive")
        self.total_nodes = total_nodes
        self.policy = policy
        self.node_mtbf = node_mtbf_seconds
        self.detection_seconds = detection_seconds
        self.repair_seconds = repair_seconds
        self.spare_nodes = spare_nodes
        self.requeue_backoff = requeue_backoff_seconds
        self.checkpoint_interval = checkpoint_interval
        self.drains = tuple(sorted(drains, key=lambda d: (d.start, d.end)))
        self.streams = streams if streams is not None else RandomStreams(0)
        self.obs = obs if obs is not None else NULL_OBS

    # -- helpers -------------------------------------------------------------

    def _durable_progress(self, elapsed: float) -> float:
        """Work preserved when a kill lands ``elapsed`` into an attempt."""
        if self.checkpoint_interval is None:
            return 0.0
        return math.floor(elapsed / self.checkpoint_interval) \
            * self.checkpoint_interval

    # -- the run ---------------------------------------------------------------

    def run(self, jobs: Sequence[Job],
            max_virtual_seconds: float = 10 * 365.25 * 86400.0
            ) -> DegradedScheduleResult:
        """Replay ``jobs`` to completion under detected failures.

        ``max_virtual_seconds`` guards pathological configurations
        (nothing ever finishes) — exceeding it raises rather than
        looping forever.
        """
        if not jobs:
            raise ValueError("no jobs to schedule")
        for job in jobs:
            if job.nodes > self.total_nodes:
                raise ValueError(
                    f"job {job.job_id} wants {job.nodes} nodes; machine "
                    f"has {self.total_nodes}")
        rng = self.streams.get("scheduler.failures")
        physical = self.total_nodes + self.spare_nodes
        membership = Membership(physical)

        events: List[Tuple[float, int, int, int]] = [
            (job.submit_time, _ARRIVAL, job.job_id, 0) for job in jobs
        ]
        by_id = {job.job_id: job for job in jobs}
        heapq.heapify(events)
        failure_rate = self.total_nodes / self.node_mtbf
        if math.isfinite(self.node_mtbf):
            heapq.heappush(events,
                           (float(rng.exponential(1 / failure_rate)),
                            _FAILURE, -1, 0))
        for index, window in enumerate(self.drains):
            heapq.heappush(events, (window.start, _DRAIN_START, index, 0))

        result = DegradedScheduleResult(
            total_nodes=self.total_nodes,
            spare_nodes=self.spare_nodes,
            makespan=0.0,
            first_submit=min(job.submit_time for job in jobs),
            completions={},
            min_spare_depth=self.spare_nodes,
        )
        pool = SparePool(range(self.total_nodes, physical))
        queue: List[Job] = []
        running: Dict[int, _RunningJob] = {}
        generations: Dict[int, int] = {job.job_id: 0 for job in jobs}
        remaining: Dict[int, float] = {job.job_id: job.runtime
                                       for job in jobs}
        # Slot accounting invariant, enforced indirectly by the policy
        # overcommit guard:  free + busy + out + drained == total_nodes,
        # where busy includes zombie widths.  Spares live outside it.
        free = self.total_nodes
        out = 0
        drained_active = 0
        finished = 0
        #: tag -> estimated release time of an out-of-service slot
        #: (rendered to the policy as width-1 pseudo-jobs).
        out_slots: Dict[int, float] = {}
        zombie_by_tag: Dict[int, _Zombie] = {}
        drain_taken: Dict[int, int] = {}
        drain_ids: Dict[int, List[int]] = {}
        next_tag = 0

        # Deterministic node-identity bookkeeping for the health log:
        # strikes and drains take the lowest in-service id.
        in_service_ids = list(range(self.total_nodes))
        struck_node: Dict[int, int] = {}      # tag -> id awaiting detect
        repairing_node: Dict[int, int] = {}   # tag -> id under repair

        # Availability integral: slot-seconds out of service.
        degraded_integral = 0.0
        last_change = result.first_submit

        def accumulate(now: float) -> None:
            """Fold the out-of-service integral up to ``now``."""
            nonlocal degraded_integral, last_change
            degraded_integral += ((out + drained_active)
                                  * max(0.0, now - last_change))
            last_change = now

        def kill_progress(victim: _RunningJob, failed_at: float) -> None:
            """Checkpoint math, clocked at the strike, not detection."""
            elapsed = failed_at - victim.start_time
            durable = min(self._durable_progress(elapsed),
                          victim.remaining_runtime)
            lost = min(elapsed, victim.remaining_runtime) - durable
            result.lost_node_seconds += max(0.0, lost) * victim.job.nodes
            result.goodput_node_seconds += durable * victim.job.nodes
            remaining[victim.job.job_id] = max(
                1e-9, victim.remaining_runtime - durable)

        def handle(now: float, kind: int, job_id: int,
                   extra: int) -> None:
            nonlocal queue, free, out, drained_active
            nonlocal finished, next_tag

            if kind == _ARRIVAL:
                queue.append(by_id[job_id])

            elif kind == _COMPLETION:
                if extra != generations[job_id]:
                    return  # stale: this attempt was killed
                entry = running.pop(job_id)
                free += entry.job.nodes
                finished += 1
                result.completions[job_id] = (entry.job.submit_time, now)
                result.goodput_node_seconds += (entry.remaining_runtime
                                                * entry.job.nodes)
                result.makespan = max(result.makespan, now)

            elif kind == _REQUEUE:
                queue.append(by_id[job_id])
                queue.sort(key=lambda j: (j.submit_time, j.job_id))

            elif kind == _REPAIR:
                # job_id is the slot tag, extra the spare-covered flag.
                node = repairing_node.pop(job_id)
                membership.transition(node, NodeHealthState.HEALTHY,
                                      now, "repaired")
                if extra:
                    pool.refill(node)
                else:
                    accumulate(now)
                    out -= 1
                    free += 1
                    del out_slots[job_id]
                    in_service_ids.append(node)
                    in_service_ids.sort()

            elif kind == _DRAIN_START:
                window = self.drains[job_id]
                take = min(free, window.nodes)
                result.drain_shortfall += window.nodes - take
                drain_taken[job_id] = take
                if take:
                    accumulate(now)
                    free -= take
                    drained_active += take
                    taken_ids = []
                    for _ in range(take):
                        node = in_service_ids.pop(0)
                        membership.transition(
                            node, NodeHealthState.DRAINING, now, "drain")
                        taken_ids.append(node)
                    drain_ids[job_id] = taken_ids
                heapq.heappush(events, (window.end, _DRAIN_END, job_id, 0))

            elif kind == _DRAIN_END:
                take = drain_taken.pop(job_id, 0)
                if take:
                    accumulate(now)
                    drained_active -= take
                    free += take
                    for node in drain_ids.pop(job_id):
                        membership.transition(
                            node, NodeHealthState.HEALTHY, now, "undrain")
                        in_service_ids.append(node)
                    in_service_ids.sort()

            elif kind == _DETECT:
                tag = job_id
                node = struck_node.pop(tag)
                membership.transition(node, NodeHealthState.DEAD,
                                      now, "silence-confirmed")
                membership.transition(node, NodeHealthState.REPAIRING,
                                      now, "repair")
                repairing_node[tag] = node
                activated = pool.activate()
                covered = activated is not None
                if activated is not None:
                    in_service_ids.append(activated)
                    in_service_ids.sort()
                zombie = zombie_by_tag.pop(tag, None)
                if zombie is not None:
                    # The job dies only now; its slots were busy (and
                    # wasted) for the whole detection window.
                    width = zombie.entry.job.nodes
                    free += width - 1
                    result.zombie_node_seconds += (
                        width * (now - zombie.failed_at))
                    kill_progress(zombie.entry, zombie.failed_at)
                    result.job_kills += 1
                    result.requeues += 1
                    if self.requeue_backoff > 0:
                        heapq.heappush(
                            events, (now + self.requeue_backoff, _REQUEUE,
                                     zombie.entry.job.job_id, 0))
                    else:
                        queue.append(zombie.entry.job)
                        queue.sort(key=lambda j: (j.submit_time, j.job_id))
                    if covered:
                        free += 1     # spare takes the failed slot now
                    else:
                        accumulate(now)
                        out += 1
                        out_slots[tag] = now + self.repair_seconds
                else:
                    # Idle strike: the slot went out at the strike.
                    if covered:
                        accumulate(now)
                        out -= 1
                        free += 1
                        del out_slots[tag]
                    else:
                        # Refine the release estimate to the real one.
                        out_slots[tag] = now + self.repair_seconds
                heapq.heappush(events, (now + self.repair_seconds,
                                        _REPAIR, tag, int(covered)))

            elif kind == _FAILURE:
                result.failures += 1
                heapq.heappush(
                    events,
                    (now + float(rng.exponential(1 / failure_rate)),
                     _FAILURE, -1, 0))
                busy = (sum(r.job.nodes for r in running.values())
                        + sum(z.entry.job.nodes
                              for z in zombie_by_tag.values()))
                struck_in_use = rng.random() < busy / self.total_nodes
                if struck_in_use and running:
                    widths = np.array([r.job.nodes
                                       for r in running.values()],
                                      dtype=float)
                    victim_key = list(running)[int(
                        rng.choice(len(widths), p=widths / widths.sum()))]
                    victim = running.pop(victim_key)
                    # Cancel the attempt's completion immediately — the
                    # job is dead even though nobody knows yet.
                    generations[victim_key] += 1
                    next_tag += 1
                    node = in_service_ids.pop(0)
                    membership.transition(node, NodeHealthState.SUSPECTED,
                                          now, "missed-heartbeats")
                    struck_node[next_tag] = node
                    zombie_by_tag[next_tag] = _Zombie(entry=victim,
                                                      failed_at=now)
                    heapq.heappush(events,
                                   (now + self.detection_seconds,
                                    _DETECT, next_tag, 0))
                else:
                    if free <= 0:
                        return  # all non-busy slots already out
                    accumulate(now)
                    free -= 1
                    out += 1
                    next_tag += 1
                    node = in_service_ids.pop(0)
                    membership.transition(node, NodeHealthState.SUSPECTED,
                                          now, "missed-heartbeats")
                    struck_node[next_tag] = node
                    out_slots[next_tag] = (now + self.detection_seconds
                                           + self.repair_seconds)
                    heapq.heappush(events,
                                   (now + self.detection_seconds,
                                    _DETECT, next_tag, 0))

        while events and finished < len(jobs):
            now, kind, job_id, extra = heapq.heappop(events)
            if now > max_virtual_seconds:
                raise RuntimeError(
                    "virtual-time guard exceeded: with this MTBF/detect/"
                    "repair configuration the workload cannot drain")
            handle(now, kind, job_id, extra)
            # Batch simultaneous events before scheduling, matching the
            # plain simulator's semantics (a completion and an arrival at
            # one instant must both be visible to the policy).
            while events and events[0][0] == now:
                _t, kind2, job_id2, extra2 = heapq.heappop(events)
                handle(now, kind2, job_id2, extra2)

            # Scheduling pass.  Out-of-service and drained slots appear
            # as width-1 pseudo-jobs with estimated releases; zombies
            # masquerade as ordinary running jobs.
            running_view = [
                (entry.start_time + entry.job.estimate
                 * (entry.remaining_runtime / entry.job.runtime),
                 entry.job.nodes)
                for entry in running.values()
            ] + [
                (z.entry.start_time + z.entry.job.estimate
                 * (z.entry.remaining_runtime / z.entry.job.runtime),
                 z.entry.job.nodes)
                for z in zombie_by_tag.values()
            ] + [(release, 1) for release in out_slots.values()]
            for window_index, take in drain_taken.items():
                release = self.drains[window_index].end
                running_view.extend((release, 1) for _ in range(take))
            starts = self.policy.select(now, list(queue), running_view,
                                        free, self.total_nodes)
            started = set()
            for job in starts:
                if job.nodes > free or job.job_id in started:
                    raise RuntimeError(
                        f"policy {self.policy.name} overcommitted under "
                        "degraded capacity")
                started.add(job.job_id)
                free -= job.nodes
                generations[job.job_id] += 1
                generation = generations[job.job_id]
                work = remaining[job.job_id]
                running[job.job_id] = _RunningJob(
                    job=job, start_time=now,
                    remaining_runtime=work, generation=generation)
                heapq.heappush(events, (now + work, _COMPLETION,
                                        job.job_id, generation))
            if started:
                queue = [j for j in queue if j.job_id not in started]

        if finished < len(jobs):
            raise RuntimeError(
                f"{len(jobs) - finished} jobs never finished (event queue "
                "drained early)")
        accumulate(result.makespan)
        result.degraded_node_seconds = degraded_integral
        result.spare_activations = pool.activations
        result.min_spare_depth = pool.min_depth
        result.health_log = tuple(
            event.line() for event in membership.events)
        if self.obs.enabled:
            metrics = self.obs.metrics
            metrics.gauge("sched.health.availability").set(
                result.availability)
            metrics.gauge("sched.health.zombie_node_seconds").set(
                result.zombie_node_seconds)
            metrics.gauge("sched.health.spare_activations").set(
                float(result.spare_activations))
            metrics.gauge("sched.health.min_spare_depth").set(
                float(result.min_spare_depth))
            metrics.gauge("sched.health.requeues").set(
                float(result.requeues))
        return result
