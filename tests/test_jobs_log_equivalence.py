"""Differential harness: the job log's O(1) close check equals the scan.

``JobLog.all_terminal`` (the jobs campaign's per-event stop predicate)
answers from the ``completed``/``failed`` counters;
``tests/joblog_oracle.py`` keeps the full-row scan it replaced.  Each
case drives a production log and an oracle log in lockstep through
seeded random *legal* sequences of ``submit`` (new keys and dedups),
``grant``, ``mark_running`` (current and stale tokens), ``expire``,
``requeue_dead_worker``, ``fail`` and ``apply_effect`` (applied,
duplicate, stale and closed writes).  After every step it asserts:

* both mutators returned the same value;
* ``all_terminal()`` equals the oracle's;
* ``pending()`` lists exactly the SUBMITTED/REQUEUED jobs in
  first-submission (job id) order, however often they were requeued;
* at the end, both canonical logs are byte-identical and replay with
  no invariant violations.

Halfway through, each pair is ``snapshot()``-copied and the copies are
driven down a different random path than the originals, both checked
the same way, so the counters survive a deep copy.  Explicit cases pin
that a requeued job keeps its first-submission slot and that a tampered
close counter is a replay violation.
"""

import collections
import random

import pytest

from repro.jobs import JobLog, JobRequest, JobState
from tests.joblog_oracle import OracleJobLog

WORKERS = 4
LEASE = 1.0
STEPS = 160
SEEDS = range(24)

_LIVE = (JobState.LEASED, JobState.RUNNING)
_OPEN = (JobState.SUBMITTED, JobState.LEASED, JobState.RUNNING,
         JobState.REQUEUED)


def request(key):
    return JobRequest(tenant="t", key=f"k{key}", kernel="sum",
                      payload=(("key", key),), work_seconds=1e-3)


class Pair:
    """A production log and an oracle log fed identical calls."""

    def __init__(self, log, oracle, rng, keys):
        self.log = log
        self.oracle = oracle
        self.rng = rng
        self.keys = keys
        self.now = 0.0
        self.seen = collections.Counter()

    def both(self, method, *args):
        got = getattr(self.log, method)(*args)
        want = getattr(self.oracle, method)(*args)
        assert got == want, (method, args)
        return got

    def check(self):
        log, oracle = self.log, self.oracle
        assert log.all_terminal() == oracle.all_terminal()
        assert log.pending() == self.jobs(JobState.SUBMITTED,
                                          JobState.REQUEUED)
        self.seen["terminal" if log.all_terminal() else "open"] += 1

    def snapshot(self, rng):
        copy = Pair(self.log.snapshot(), self.oracle.snapshot(), rng,
                    self.keys)
        assert type(copy.oracle) is OracleJobLog
        copy.now = self.now
        return copy

    def jobs(self, *states):
        return [job_id for job_id, row in sorted(self.log.rows.items())
                if not states or row.state in states]

    def step(self):
        """Apply one random legal operation to both logs."""
        rng = self.rng
        self.now += rng.choice((0.0, 0.0, 0.25, 0.5))
        granted = [job_id for job_id in self.jobs()
                   if self.log.rows[job_id].fencing_token > 0]
        ops = ["submit", "requeue"]
        if self.jobs(JobState.SUBMITTED, JobState.REQUEUED):
            ops += ["grant"] * 3
        if self.jobs(JobState.REQUEUED):
            ops.append("fail")
        if self.jobs(*_LIVE):
            ops.append("expire")
        if granted:
            ops += ["start", "effect", "effect"]
        op = rng.choice(ops)
        self.seen[op] += 1
        if op == "submit":
            job_id, dedup = self.both("submit", self.now,
                                      request(rng.randrange(self.keys)))
            self.seen["dedup" if dedup else "new"] += 1
        elif op == "grant":
            job_id = rng.choice(self.jobs(JobState.SUBMITTED,
                                          JobState.REQUEUED))
            self.both("grant", self.now, job_id, rng.randrange(WORKERS),
                      LEASE)
        elif op == "start":
            job_id = rng.choice(granted)
            token = self._token(job_id)
            self.both("mark_running", self.now, job_id, token)
        elif op == "expire":
            job_id = rng.choice(self.jobs(*_LIVE))
            self.now = max(self.now, self.log.rows[job_id].expires_at)
            self.both("expire", self.now, job_id)
        elif op == "requeue":
            self.both("requeue_dead_worker", self.now,
                      rng.randrange(WORKERS))
        elif op == "fail":
            job_id = rng.choice(self.jobs(JobState.REQUEUED))
            self.both("fail", self.now, job_id, "attempts-exhausted")
        else:
            job_id = rng.choice(granted)
            outcome = self.both("apply_effect", self.now, job_id,
                                self._token(job_id),
                                rng.randrange(WORKERS), f"v{job_id}")
            self.seen[outcome] += 1

    def _token(self, job_id):
        """The current token mostly, a fenced-out one sometimes."""
        current = self.log.rows[job_id].fencing_token
        if self.rng.random() < 0.6:
            return current
        return self.rng.randint(1, current)

    def drain(self):
        """Close every open job (grant if needed, then write)."""
        for job_id in self.jobs(*_OPEN):
            row = self.log.rows[job_id]
            if row.state in (JobState.SUBMITTED, JobState.REQUEUED):
                self.both("grant", self.now, job_id, 0, LEASE)
                self.check()
            outcome = self.both("apply_effect", self.now, job_id,
                                row.fencing_token, 0, "drain")
            assert outcome == "applied"
            self.check()

    def finish(self):
        self.drain()
        assert self.log.all_terminal() and self.oracle.all_terminal()
        assert self.log.render() == self.oracle.render()
        assert self.log.check_invariants() == []
        assert self.oracle.check_invariants() == []


def run_sequence(seed):
    """One seeded lockstep run with a diverging snapshot; returns what
    it exercised."""
    rng = random.Random(seed)
    pair = Pair(JobLog(), OracleJobLog(), rng, keys=rng.randint(1, 8))
    pair.check()
    fork = None
    for index in range(STEPS):
        pair.step()
        if fork is not None:
            fork.step()
        pair.check()
        if fork is not None:
            fork.check()
        if index == STEPS // 2:
            fork = pair.snapshot(random.Random(seed + 10_000))
            fork.check()
    pair.finish()
    fork.finish()
    return pair.seen + fork.seen


@pytest.mark.parametrize("seed", SEEDS)
def test_queries_equal_oracle_over_random_histories(seed):
    run_sequence(seed)


def test_random_histories_cover_every_operation_and_outcome():
    seen = collections.Counter()
    for seed in SEEDS:
        seen += run_sequence(seed)
    for what in ("new", "dedup", "grant", "start", "expire", "requeue",
                 "fail", "applied", "duplicate", "stale", "closed",
                 "open", "terminal"):
        assert seen[what] > 0, what


def test_empty_log_is_not_terminal():
    assert not JobLog().all_terminal()
    assert not OracleJobLog().all_terminal()
    assert JobLog().pending() == []


def test_requeued_job_keeps_its_first_submission_slot():
    log = JobLog()
    first, second, third = (log.submit(0.0, request(key))[0]
                            for key in range(3))
    log.grant(0.0, first, worker=1, lease_seconds=LEASE)
    # Scanned while leased: the job keeps its queue entry, not granted.
    assert log.pending() == [second, third]
    assert log.expire(1.0, first)
    assert log.pending() == [first, second, third]
    log.grant(1.0, second, worker=2, lease_seconds=LEASE)
    assert log.requeue_dead_worker(1.5, 2) == [second]
    log.grant(1.5, first, worker=1, lease_seconds=LEASE)
    assert log.expire(2.5, first)
    assert log.pending() == [first, second, third]


@pytest.mark.parametrize("counter", ["completed", "failed"])
def test_tampered_close_counter_is_a_violation(counter):
    log = JobLog()
    first, second = (log.submit(0.0, request(key))[0] for key in range(2))
    lease = log.grant(0.0, first, worker=1, lease_seconds=LEASE)
    log.apply_effect(0.5, first, lease.token, 1, "v")
    log.grant(0.5, second, worker=2, lease_seconds=LEASE)
    log.expire(1.5, second)
    log.fail(1.5, second, "attempts-exhausted")
    assert log.check_invariants() == []
    assert log.all_terminal()
    setattr(log, counter, getattr(log, counter) - 1)
    assert not log.all_terminal()
    violations = log.check_invariants()
    assert len(violations) == 1
    assert violations[0].startswith(f"{counter} counter ")
