"""Test oracle: the oracular batch simulator under failures.

This is the batch simulator the scheduler package shipped before
:class:`repro.health.DegradedBatchSimulator` became the only one: a
failure kills its job the same instant it strikes, repair runs for
``repair_seconds``, and killed jobs restart from scratch or from their
last checkpoint.  Its run loop and raw result fields are kept here, and
only here, so ``test_health_scheduling.py`` can prove the degraded
simulator at zero detection lag, with no spares, backoff or drains,
bit-identical to it.
"""

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.scheduler.job import Job
from repro.scheduler.policies import SchedulingPolicy
from repro.sim.rng import RandomStreams

_ARRIVAL = 0
_FAILURE = 1
_COMPLETION = 2
_REPAIR = 3


@dataclass
class _RunningJob:
    job: Job
    start_time: float
    remaining_runtime: float      # work left at this attempt's start
    generation: int               # cancels stale completion events


@dataclass
class OracleScheduleResult:
    """Raw outcome of an oracle run (no derived metrics)."""

    total_nodes: int
    makespan: float
    first_submit: float
    #: job_id -> (original submit, final completion) for finished jobs.
    completions: Dict[int, Tuple[float, float]]
    #: Node-seconds that contributed to a completed attempt.
    goodput_node_seconds: float = 0.0
    #: Node-seconds destroyed by failures (work since last checkpoint).
    lost_node_seconds: float = 0.0
    failures: int = 0
    job_kills: int = 0


class OracleBatchSimulator:
    """Batch simulator with node failures, repair, and checkpoint restart.

    Parameters
    ----------
    total_nodes, policy:
        As in :class:`~repro.scheduler.simulator.BatchSimulator`.
    node_mtbf_seconds:
        Per-node exponential MTBF; ``math.inf`` disables failures.
    repair_seconds:
        Time a failed node is out of service.
    checkpoint_interval:
        ``None`` restarts killed jobs from scratch; a positive value
        restarts them from the last multiple of the interval.  Checkpoint
        write overhead is assumed folded into the runtime (jobs of the
        workload model are wall-clock observations).
    """

    def __init__(self, total_nodes: int, policy: SchedulingPolicy,
                 node_mtbf_seconds: float, repair_seconds: float = 1800.0,
                 checkpoint_interval: Optional[float] = None,
                 streams: Optional[RandomStreams] = None) -> None:
        if total_nodes < 1:
            raise ValueError("total_nodes must be >= 1")
        if node_mtbf_seconds <= 0:
            raise ValueError("node MTBF must be positive")
        if repair_seconds < 0:
            raise ValueError("repair time must be non-negative")
        if checkpoint_interval is not None and checkpoint_interval <= 0:
            raise ValueError("checkpoint interval must be positive")
        self.total_nodes = total_nodes
        self.policy = policy
        self.node_mtbf = node_mtbf_seconds
        self.repair_seconds = repair_seconds
        self.checkpoint_interval = checkpoint_interval
        self.streams = streams if streams is not None else RandomStreams(0)

    # -- helpers -------------------------------------------------------------

    def _durable_progress(self, elapsed: float) -> float:
        """Work preserved when a failure strikes after ``elapsed`` of an
        attempt."""
        if self.checkpoint_interval is None:
            return 0.0
        return math.floor(elapsed / self.checkpoint_interval) \
            * self.checkpoint_interval

    # -- the run ---------------------------------------------------------------

    def run(self, jobs: Sequence[Job],
            max_virtual_seconds: float = 10 * 365.25 * 86400.0
            ) -> OracleScheduleResult:
        """Replay ``jobs`` to completion under failures.

        ``max_virtual_seconds`` guards against pathological configurations
        (MTBF shorter than every job: nothing ever finishes) — exceeding
        it raises rather than looping forever.
        """
        if not jobs:
            raise ValueError("no jobs to schedule")
        for job in jobs:
            if job.nodes > self.total_nodes:
                raise ValueError(
                    f"job {job.job_id} wants {job.nodes} nodes; machine "
                    f"has {self.total_nodes}")
        rng = self.streams.get("scheduler.failures")

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

        result = OracleScheduleResult(
            total_nodes=self.total_nodes,
            makespan=0.0,
            first_submit=min(job.submit_time for job in jobs),
            completions={},
        )
        queue: List[Job] = []
        running: Dict[int, _RunningJob] = {}
        generations: Dict[int, int] = {job.job_id: 0 for job in jobs}
        #: remaining work per job id (shrinks across checkpointed attempts)
        remaining: Dict[int, float] = {job.job_id: job.runtime
                                       for job in jobs}
        down_nodes = 0
        repair_times: List[float] = []  # min-heap of pending repairs
        free = self.total_nodes
        finished = 0

        def handle(now: float, kind: int, job_id: int,
                   generation: int) -> None:
            nonlocal queue, free, down_nodes, finished

            if kind == _ARRIVAL:
                queue.append(by_id[job_id])

            elif kind == _COMPLETION:
                if generation != generations[job_id]:
                    return  # stale: this attempt was killed
                entry = running.pop(job_id)
                free += entry.job.nodes
                finished += 1
                result.completions[job_id] = (entry.job.submit_time, now)
                # Credit only this attempt's work: durable progress from
                # earlier killed attempts was credited at kill time.
                result.goodput_node_seconds += (entry.remaining_runtime
                                                * entry.job.nodes)
                result.makespan = max(result.makespan, now)

            elif kind == _REPAIR:
                down_nodes -= 1
                free += 1
                heapq.heappop(repair_times)

            elif kind == _FAILURE:
                result.failures += 1
                # Schedule the next failure (rate follows nominal size;
                # failures of down nodes are absorbed harmlessly below).
                heapq.heappush(
                    events,
                    (now + float(rng.exponential(1 / failure_rate)),
                     _FAILURE, -1, 0))
                # Which node? in-use with probability (in use / total).
                in_use = sum(r.job.nodes for r in running.values())
                struck_in_use = rng.random() < in_use / self.total_nodes
                if struck_in_use and running:
                    widths = np.array([r.job.nodes
                                       for r in running.values()],
                                      dtype=float)
                    victim_key = list(running)[int(
                        rng.choice(len(widths), p=widths / widths.sum()))]
                    victim = running.pop(victim_key)
                    result.job_kills += 1
                    elapsed = now - victim.start_time
                    durable = min(self._durable_progress(elapsed),
                                  victim.remaining_runtime)
                    lost = min(elapsed, victim.remaining_runtime) - durable
                    result.lost_node_seconds += max(0.0, lost) \
                        * victim.job.nodes
                    result.goodput_node_seconds += durable \
                        * victim.job.nodes
                    remaining[victim_key] = max(
                        1e-9, victim.remaining_runtime - durable)
                    generations[victim_key] += 1
                    # All its nodes come back except the failed one.
                    free += victim.job.nodes - 1
                    queue.append(victim.job)  # resubmitted, queue reorders
                    queue.sort(key=lambda j: (j.submit_time, j.job_id))
                else:
                    # Struck an idle (or already-down) node.
                    if free > 0:
                        free -= 1
                    else:
                        return  # all non-running nodes already down
                down_nodes += 1
                heapq.heappush(repair_times, now + self.repair_seconds)
                heapq.heappush(events, (now + self.repair_seconds,
                                        _REPAIR, -1, 0))

        while events and finished < len(jobs):
            now, kind, job_id, generation = heapq.heappop(events)
            if now > max_virtual_seconds:
                raise RuntimeError(
                    "virtual-time guard exceeded: with this MTBF/repair "
                    "configuration the workload cannot drain")
            handle(now, kind, job_id, generation)
            # Batch simultaneous events before scheduling, matching the
            # plain simulator's semantics (a completion and an arrival at
            # one instant must both be visible to the policy).
            while events and events[0][0] == now:
                _t, kind2, job_id2, generation2 = heapq.heappop(events)
                handle(now, kind2, job_id2, generation2)

            # Scheduling pass.  Down nodes appear to the policy as
            # width-1 pseudo-jobs releasing at their repair times, so
            # backfill reservations account for repairs without any
            # policy-side special casing.
            # Policies see user estimates, never actual runtimes (no
            # oracle); a restarted job's estimate shrinks in proportion
            # to its durable progress.
            running_view = [
                (entry.start_time + entry.job.estimate
                 * (entry.remaining_runtime / entry.job.runtime),
                 entry.job.nodes)
                for entry in running.values()
            ] + [(repair, 1) for repair in repair_times]
            starts = self.policy.select(now, list(queue), running_view,
                                        free, self.total_nodes)
            started: Set[int] = set()
            for job in starts:
                if job.nodes > free or job.job_id in started:
                    raise RuntimeError(
                        f"policy {self.policy.name} overcommitted under "
                        "failures")
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
        return result
