"""Differential harness: detector messages as operations equal their oracle.

Heartbeats, SWIM probe rounds (with their direct and indirect legs) and
suspicion timers run as callback operations on the fabric's transfer
path; ``tests/health_oracle.py`` keeps the process bodies they replaced.
The operations are only admissible because nothing a model can observe
tells them apart.  Each scenario runs on both, with the fixed, phi and
gossip detectors, per-node and slotted, on ``queue="wheel"`` (the
plain-mode fast loop) and ``queue="heap"`` (instrumented, with
observability on), and asserts equal:

* the detection outcome — membership log, deaths, MTTD and every
  monitor counter — and, for gossip, ``gossip_stats()``, every node's
  incarnation and every per-node RNG's end state;
* every :class:`~repro.network.fabric.TransferRecord` and the fabric's
  byte/transfer counters;
* the fault plan's counters and its RNG's end state;
* the landing log of background application transfers that start at
  the very instants heartbeats and probe rounds do, from the same
  hosts — so the slot a detector message starts in decides who wins
  the NIC, and a start one slot early or late changes the records;
* with observability on, every span and instant, except the removed
  ``process:hb<n>`` / ``process:gs.*<n>`` wrapper spans and the
  ``events`` count on ``sim.run`` spans (fewer engine events is the
  point).

Scenarios: crashes with restore plus a short access-link outage that a
live node refutes; a one-way blackhole; a spine link down window that
forces reroutes; random drops.  Also here: the Chrome trace of the
CLI's detector-driven campaign against the oracle's, exact event-count
gates for one heartbeat and one acknowledged probe round, and the check
that a finished operation is freed by reference counting alone.
"""

import argparse
import collections
import gc
import json
import re
import weakref

import pytest

import repro.fault.campaign as campaign
from repro.__main__ import _campaign_spec
from repro.health import DetectionSpec, GossipMonitor, HeartbeatMonitor
from repro.health.monitor import _Beat
from repro.health.state import NodeHealthState
from repro.network import (
    Fabric,
    FabricFaultPlan,
    FatTreeTopology,
    get_interconnect,
)
from repro.obs import Observability, chrome_trace, render_metrics
from repro.sim import RandomStreams, Simulator
from tests.health_oracle import OracleGossipMonitor, OracleHeartbeatMonitor

HB = 1e-3
NODES = 16
SLOTS = 4
HORIZON = 30 * HB
#: Background application transfers: size, and the hosts whose
#: detector schedule they shadow in per-node mode.
APP_BYTES = 2048
SHADOWED = (1, 6, 11)
#: Wrapper spans of the removed per-message processes.
_WRAPPER = re.compile(r"process:(hb|gs\.(probe|ping|req|sus))\d+$")


def _topology():
    # Four leaves, two spines: a spine link can fail without a partition.
    return FatTreeTopology(NODES, hosts_per_leaf=4, spines=2)


def _access(host):
    return _topology().route(host, (host + 1) % NODES)[0]


def _plan(name, streams):
    if name == "crash_restore":
        # Host 2 loses its access link long enough to be suspected, not
        # long enough to be declared dead: a gossip refutation.
        return FabricFaultPlan().link_down(*_access(2), 6 * HB, 10.5 * HB)
    if name == "oneway":
        return FabricFaultPlan().link_down_oneway(*_access(7), 5 * HB,
                                                  14 * HB)
    if name == "reroute":
        return FabricFaultPlan().link_down(("s", 0), ("s", 5), 2 * HB,
                                           20 * HB)
    if name == "drops":
        return FabricFaultPlan(drop_probability=0.05,
                               rng=streams.get("fabric.drops"))
    raise ValueError(name)


#: Ground-truth crashes per scenario: (time, node).
_CRASHES = {
    "crash_restore": ((3 * HB, 5), (4 * HB, 11)),
    "oneway": (),
    "reroute": ((6 * HB, 9),),
    "drops": ((5 * HB, 12),),
}


def _background(sim, fabric, spec, node, log):
    """Application traffic that starts exactly when the detector does.

    Mirrors the detector's timer arithmetic — the slot driver's, or one
    node's per-node sender or prober — so its wakeups land on the same
    float instants, queued after the detector's own timer; at every
    other tick it starts a transfer from a host sending at that tick.
    """
    interval = spec.heartbeat_interval

    def send(src, tick):
        def landed(op):
            log.append((tick, src, sim.now, type(op.error).__name__))
        fabric.start_transfer(src, (src + NODES // 2) % NODES, APP_BYTES,
                              landed)

    if spec.heartbeat_slots is None:
        yield sim.timeout(interval * (node + 1) / (NODES + 1))
        tick = 0
        while True:
            if tick % 2 == 0:
                send(node, tick)
            yield sim.timeout(interval)
            tick += 1
    spacing = interval / (spec.heartbeat_slots + 1)
    base = sim.now
    cycle = 0
    while True:
        start = base + cycle * interval
        for s in range(spec.heartbeat_slots):
            delay = (start + spacing * (s + 1)) - sim.now
            if delay > 0.0:
                yield sim.timeout(delay)
            if (cycle + s) % 2 == 0:
                send(s + SLOTS * (cycle % (NODES // SLOTS)), (cycle, s))
        cycle += 1


def _spans(obs):
    """Spans and instants, minus the removed wrappers and the engine
    event count each ``sim.run`` span carries."""
    obs.finalize()
    spans = sorted(
        (s.track, s.start, s.end, s.name, s.status,
         () if s.name == "sim.run" else tuple(sorted(s.attrs.items())))
        for s in obs.spans if not _WRAPPER.match(s.name))
    instants = [(i.track, i.time, i.name, tuple(sorted(i.attrs.items())))
                for i in obs.instants]
    return spans, instants


def run(detector, slots, queue, scenario, oracle):
    """One monitored run; everything a model can observe of it."""
    obs = Observability() if queue == "heap" else None
    sim = Simulator(queue=queue, obs=obs)
    streams = RandomStreams(11)
    plan = _plan(scenario, streams)
    fabric = Fabric(sim, _topology(), get_interconnect("gigabit_ethernet"),
                    fault_plan=plan, record_transfers=True)
    spec = DetectionSpec(detector=detector, heartbeat_interval=HB,
                         suspect_after=3 * HB, dead_after=6 * HB,
                         heartbeat_slots=slots)
    if detector == "gossip":
        cls = OracleGossipMonitor if oracle else GossipMonitor
        monitor = cls(sim, fabric, NODES, spec=spec, streams=streams)
    else:
        cls = OracleHeartbeatMonitor if oracle else HeartbeatMonitor
        monitor = cls(sim, fabric, NODES, spec=spec)
    monitor.start()
    app_log = []
    for node in (SHADOWED if slots is None else (None,)):
        sim.process(_background(sim, fabric, spec, node, app_log))
    crashes = list(_CRASHES[scenario])
    t = 0.0
    while t < HORIZON:
        t += HB
        sim.run(until=t)
        while crashes and crashes[0][0] <= sim.now:
            monitor.crash(crashes.pop(0)[1])
        # The supervisor repairs every declared death and restores it.
        for death in monitor.pop_deaths():
            if monitor.membership.state_of(death.node) is \
                    NodeHealthState.DEAD:
                monitor.repair(death.node)
                monitor.restore(death.node)
    result = {
        "outcome": repr(monitor.outcome()),
        "records": list(fabric.records),
        "fabric": (fabric.bytes_moved, fabric.transfer_count),
        "plan": (plan.drops, plan.corruptions, plan.reroutes,
                 plan.unreachable, plan.blackholes,
                 None if plan.rng is None
                 else plan.rng.bit_generator.state),
        "app": app_log,
    }
    if detector == "gossip":
        result["gossip"] = (
            repr(monitor.gossip_stats()), list(monitor._incarnation),
            sorted((node, rng.bit_generator.state)
                   for node, rng in monitor._rngs.items()))
    if obs is not None:
        result["obs"] = _spans(obs)
    return result


class TestOracleEquivalence:
    @pytest.mark.parametrize("queue", ["wheel", "heap"])
    @pytest.mark.parametrize("slots", [None, SLOTS],
                             ids=["per-node", "slotted"])
    @pytest.mark.parametrize("detector", ["fixed", "phi", "gossip"])
    @pytest.mark.parametrize("scenario", sorted(_CRASHES))
    def test_operations_match_process_bodies(self, scenario, detector,
                                             slots, queue):
        ours = run(detector, slots, queue, scenario, oracle=False)
        theirs = run(detector, slots, queue, scenario, oracle=True)
        for key in theirs:
            assert ours[key] == theirs[key], key

    @pytest.mark.parametrize("detector", ["fixed", "gossip"])
    def test_scenarios_exercise_the_machinery(self, detector):
        """Guard the harness itself: the scenarios really crash,
        restore, refute, black-hole, reroute, drop — and the background
        traffic really contends with detector messages."""
        seen = {}
        for scenario in sorted(_CRASHES):
            ours = run(detector, SLOTS, "wheel", scenario, oracle=False)
            seen[scenario] = ours
            assert ours["app"], scenario
        assert seen["drops"]["plan"][0] > 0
        assert seen["reroute"]["plan"][2] > 0
        assert seen["oneway"]["plan"][4] > 0
        outcome = seen["crash_restore"]["outcome"]
        assert "restored" in outcome
        if detector == "gossip":
            assert "gossip-refuted" in outcome
        else:
            assert "heartbeat-resumed" in outcome
        # Contention: some detector message waited behind application
        # traffic on a NIC or link (its duration exceeds the idle one).
        records = seen["drops"]["records"]
        fabric = Fabric(Simulator(), _topology(),
                        get_interconnect("gigabit_ethernet"))
        assert any(
            r.nbytes != APP_BYTES and r.duration > fabric.uncontended_time(
                r.src, r.dst, r.nbytes) + 1e-12
            for r in records)


def _idle_tree():
    sim = Simulator()
    fabric = Fabric(sim, FatTreeTopology(8, hosts_per_leaf=2, spines=2),
                    get_interconnect("infiniband_4x"))
    return sim, fabric


def _gossip(nodes, plan=None):
    sim = Simulator()
    fabric = Fabric(sim, FatTreeTopology(8, hosts_per_leaf=2, spines=2),
                    get_interconnect("gigabit_ethernet"), fault_plan=plan)
    spec = DetectionSpec(detector="gossip", heartbeat_interval=HB,
                         suspect_after=3 * HB, dead_after=6 * HB)
    return sim, GossipMonitor(sim, fabric, nodes, spec=spec,
                              streams=RandomStreams(3))


class TestEventCounts:
    """Hardware-independent cost of a detector message, gated exactly."""

    def test_one_slotted_heartbeat(self):
        # Node 0 beats to host 5 over four hops, in slot 0 at T/2.  The
        # window holds the slot tick, then the beat: its start hop,
        # overhead, one batch for the five grant hops (NIC + 4 links),
        # serialization, propagation.
        sim, fabric = _idle_tree()
        spec = DetectionSpec(heartbeat_interval=HB, monitor_host=5,
                             heartbeat_slots=1, check_interval=1.0)
        monitor = HeartbeatMonitor(sim, fabric, 1, spec=spec)
        monitor.start()
        sim.run(until=0.4 * HB)
        before = sim.events_executed
        sim.run(until=0.9 * HB)
        assert monitor.heartbeats_delivered == 1
        assert sim.events_executed - before == 1 + 5

    def test_one_acknowledged_direct_probe_round(self):
        # The round's start hop (its direct leg's start joins that same
        # batch), the probe-timeout timer, then four events per message:
        # overhead, grant batch, serialization, propagation — ping and
        # ack.
        sim, monitor = _gossip(2)
        monitor._launch_probe(0)
        sim.run()
        assert monitor.probes == 1
        assert monitor.indirect_probes == 0
        assert monitor.heartbeats_delivered == 2
        assert sim.events_executed == 2 + 2 * 4


class TestNoCycles:
    """A finished operation is freed by reference counting: with the
    cyclic collector off, it dies with its last outside reference."""

    @staticmethod
    def _dies(make, run):
        enabled = gc.isenabled()
        gc.disable()
        try:
            op = make()
            ref = weakref.ref(op)
            run()
            assert ref() is op
            del op
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_heartbeat(self):
        sim, fabric = _idle_tree()
        monitor = HeartbeatMonitor(sim, fabric, 1,
                                   spec=DetectionSpec(monitor_host=5))
        self._dies(lambda: _Beat(monitor, 0), sim.run)
        assert monitor.heartbeats_delivered == 1

    def test_direct_probe_round(self):
        sim, monitor = _gossip(2)
        self._dies(lambda: monitor._launch_probe(0), sim.run)
        assert monitor.heartbeats_delivered == 2
        assert monitor.indirect_probes == 0

    def test_indirect_probe_round(self):
        # The ping is black-holed on the prober's uplink; the relays
        # start after the window closes and bring the ack home.
        topology = FatTreeTopology(8, hosts_per_leaf=2, spines=2)
        plan = FabricFaultPlan().link_down_oneway(
            *topology.route(0, 1)[0], 0.0, HB / 6)
        sim, monitor = _gossip(4, plan)
        probe = []

        def launch():
            probe.append(monitor._launch_probe(0))
            return probe[0]

        def run():
            sim.run()
            assert probe.pop().acked

        self._dies(launch, run)
        assert plan.blackholes == 1
        assert monitor.indirect_probes == 2
        assert monitor.probe_timeouts == 0


#: ``trace campaign`` detector -> (wrapper spans removed, heartbeat
#: transfer spans in flight at teardown).
_TRACE_COUNTS = {"fixed": (137, 2), "phi": (142, 1)}


class TestCampaignTrace:
    """``python -m repro trace campaign --detector fixed|phi``: the
    Chrome trace and metrics dump equal the oracle's, up to three
    counted differences.

    * The ``process:hb<n>`` wrapper spans are gone (the heartbeat
      tracks stay, with every transfer span on them).
    * ``sim.run`` spans and the ``sim.events_executed`` gauge count
      fewer engine events.
    * A heartbeat still in flight at teardown is no process for
      ``quiesce()`` to close, so its transfer span is exported
      ``"open"`` where the oracle's was closed ``"error"``.
    """

    @staticmethod
    def _trace(detector, oracle, monkeypatch):
        if oracle:
            def build(sim, fabric, nodes, spec=None, streams=None):
                return OracleHeartbeatMonitor(sim, fabric, nodes, spec=spec)
            monkeypatch.setattr(campaign, "build_monitor", build)
        args = argparse.Namespace(
            kernel="summa", ranks=4, faults=2, first_fault=6e-4, seed=7,
            link_faults=True, detector=detector, heartbeat=1e-4,
            detect_timeout=None)
        obs = Observability()
        campaign.run_workload(_campaign_spec(args, with_faults=True),
                              obs=obs)
        monkeypatch.undo()
        doc = chrome_trace(obs)
        tracks = {e["tid"]: e["args"]["name"]
                  for e in doc["traceEvents"] if e["ph"] == "M"}
        rows = []
        for event in doc["traceEvents"]:
            if event["ph"] != "M":
                event = dict(event, tid=tracks[event["tid"]])
                if event["name"] == "sim.run":
                    event["args"] = {}
                rows.append(event)
        metrics = [line for line in render_metrics(obs.metrics).splitlines()
                   if not line.startswith("gauge sim.events_executed ")]
        return rows, metrics, sorted(tracks.values())

    @pytest.mark.parametrize("detector", sorted(_TRACE_COUNTS))
    def test_trace_matches_oracle(self, detector, monkeypatch):
        ours, our_metrics, our_tracks = self._trace(detector, False,
                                                    monkeypatch)
        theirs, their_metrics, their_tracks = self._trace(detector, True,
                                                          monkeypatch)
        assert our_metrics == their_metrics
        assert our_tracks == their_tracks
        wrappers = [row for row in theirs if _WRAPPER.match(row["name"])]
        in_flight = 0
        for row in ours:
            if (row["name"] == "fabric.transfer"
                    and row["args"].get("status") == "open"
                    and re.match(r"hb\d+(~\d+)?$", row["tid"])):
                row["args"]["status"] = "error"
                in_flight += 1
        assert (len(wrappers), in_flight) == _TRACE_COUNTS[detector]

        def key(row):
            return json.dumps(row, sort_keys=True)
        assert (collections.Counter(map(key, ours))
                == collections.Counter(
                    key(row) for row in theirs
                    if not _WRAPPER.match(row["name"])))
