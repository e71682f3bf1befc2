"""Test oracle: detector messages as spawned generator processes.

These are the process bodies the health monitors shipped before their
messages became callback operations: every heartbeat spawned an
``hb<n>`` process, every SWIM probe round a ``gs.probe<n>`` process
plus a ``gs.ping<n>`` leg and one ``gs.req<n>`` per relay, every
suspicion a ``gs.sus<n>`` timer process.  They are kept here, and only
here, so the differential harness in ``test_health_equivalence.py`` can
prove the production operations observably identical to them.  Nothing
in ``src/`` imports this module.

The bodies are verbatim; the subclasses inherit everything else
(state, update plumbing, ``stop()``), so a difference the harness finds
is a difference in how messages run, not in what the protocol does.
"""

from typing import Any, Dict, Generator

from repro.health.gossip import _FRESH, GossipMonitor, GossipStatus
from repro.health.monitor import HeartbeatMonitor
from repro.network.fabric import NetworkUnreachable, TransferDropped
from repro.sim import Event, Interrupt


class OracleHeartbeatMonitor(HeartbeatMonitor):
    """A :class:`HeartbeatMonitor` whose heartbeats are processes."""

    def _sender_body(self, node: int) -> Generator[Event, Any, None]:
        """Process body: emit one heartbeat per interval, staggered per
        node so the fleet's heartbeats do not collide on the fabric."""
        interval = self.spec.heartbeat_interval
        phase = interval * (node + 1) / (self.nodes + 1)
        try:
            yield self.sim.timeout(phase)
            while True:
                self.heartbeats_sent += 1
                self.sim.process(self._beat_body(node),
                                 name=f"hb{node}")
                yield self.sim.timeout(interval)
        except Interrupt:
            return

    def _slot_driver_body(self) -> Generator[Event, Any, None]:
        """Process body: one timer wheel for the whole fleet's heartbeats.

        Each interval is divided into ``heartbeat_slots`` evenly-spaced
        ticks; every tick emits the heartbeats of all live nodes assigned
        to that slot.  The engine therefore services S timer events per
        interval (vs one timeout *and one sender process* per node in
        legacy mode), and each tick's beats land on the calendar queue as
        one same-instant batch.  Slot targets are recomputed from the
        cycle index every interval (not accumulated), so float error does
        not drift the schedule.
        """
        interval = self.spec.heartbeat_interval
        slots = self.spec.heartbeat_slots
        if slots is None:  # pragma: no cover - start() gates on the spec
            raise RuntimeError("slot driver requires heartbeat_slots")
        spacing = interval / (slots + 1)
        base = self.sim.now
        beating = self._beating
        slot_nodes = self._slot_nodes
        cycle = 0
        try:
            while True:
                start = base + cycle * interval
                for s in range(slots):
                    delay = (start + spacing * (s + 1)) - self.sim.now
                    if delay > 0.0:
                        yield self.sim.timeout(delay)
                    for node in slot_nodes[s]:
                        if node in beating:
                            self.heartbeats_sent += 1
                            self.sim.process(self._beat_body(node),
                                             name=f"hb{node}")
                cycle += 1
        except Interrupt:
            return

    def _beat_body(self, node: int) -> Generator[Event, Any, None]:
        """Process body: one heartbeat transfer node -> monitor host.

        Spawned detached so a crash mid-flight cannot leak fabric
        resources (the in-flight packet completes or is lost on its
        own, exactly like application traffic)."""
        try:
            yield from self.fabric.transfer(node, self.spec.monitor_host,
                                            self.spec.heartbeat_bytes)
        except (TransferDropped, NetworkUnreachable):
            self.heartbeats_lost += 1
            return
        self.heartbeats_delivered += 1
        self.detector.observe(node, self.sim.now)

class OracleGossipMonitor(GossipMonitor):
    """A :class:`GossipMonitor` whose probe rounds, legs and suspicion
    timers are processes."""

    def _launch_probe(self, node: int) -> None:
        """Start one probe round for ``node`` (no-op with no target)."""
        if node in self._crashed:
            return
        target = self._next_target(node)
        if target is None:
            return
        self.probes += 1
        self.sim.process(self._probe_body(node, target),
                         name=f"gs.probe{node}")

    def _probe_body(self, node: int,
                    target: int) -> Generator[Event, Any, None]:
        """Process body: one full SWIM probe round (direct ping, then k
        indirect relays, then the suspicion verdict at period end)."""
        spec = self.spec
        direct_deadline = spec.effective_probe_timeout
        state: Dict[str, bool] = {"acked": False}
        self.sim.process(self._direct_leg(node, target, state),
                         name=f"gs.ping{node}")
        yield self.sim.timeout(direct_deadline)
        if state["acked"] or node in self._crashed:
            return
        for relay in self._pick_relays(node, target):
            self.indirect_probes += 1
            self.sim.process(self._indirect_leg(node, relay, target, state),
                             name=f"gs.req{node}")
        yield self.sim.timeout(
            max(spec.heartbeat_interval - direct_deadline, 0.0))
        if state["acked"] or node in self._crashed:
            return
        self.probe_timeouts += 1
        self._suspect(node, target)

    def _transmit(self, src: int, dst: int,
                  updates: int) -> Generator[Event, Any, bool]:
        """Process body fragment: one protocol message on the fabric.

        Returns True when the last byte reached ``dst``; loss and
        unreachability are swallowed into the counters exactly like
        lost heartbeats (the protocol's whole job is surviving them).
        """
        nbytes = (self.spec.heartbeat_bytes
                  + updates * self.spec.bytes_per_update)
        self.heartbeats_sent += 1
        self.bytes_sent_by[src] += nbytes
        try:
            yield from self.fabric.transfer(src, dst, nbytes)
        except (TransferDropped, NetworkUnreachable):
            self.heartbeats_lost += 1
            return False
        self.heartbeats_delivered += 1
        self.bytes_received_by[dst] += nbytes
        return True

    def _direct_leg(self, node: int, target: int,
                    state: Dict[str, bool]) -> Generator[Event, Any, None]:
        """Process body: ping ``node`` -> ``target``, ack back, both
        carrying piggybacked updates."""
        updates = self._select_updates(node)
        delivered = yield from self._transmit(node, target, len(updates))
        if not delivered or target in self._crashed:
            return
        self._deliver(target, updates)
        ack = self._select_updates(target)
        delivered = yield from self._transmit(target, node, len(ack))
        if not delivered or node in self._crashed:
            return
        self._deliver(node, ack)
        # A completed round trip is first-hand proof of life at the
        # target's current incarnation (implicit in every real ack).
        self._apply_update(node, target, GossipStatus.ALIVE,
                           self._incarnation[target])
        state["acked"] = True

    def _indirect_leg(self, node: int, relay: int, target: int,
                      state: Dict[str, bool]
                      ) -> Generator[Event, Any, None]:
        """Process body: the four-hop ping-req chain
        ``node -> relay -> target -> relay -> node``, each hop carrying
        the sender's piggyback — per-link routing diversity for the
        probe verdict."""
        updates = self._select_updates(node)
        delivered = yield from self._transmit(node, relay, len(updates))
        if not delivered or relay in self._crashed:
            return
        self._deliver(relay, updates)
        updates = self._select_updates(relay)
        delivered = yield from self._transmit(relay, target, len(updates))
        if not delivered or target in self._crashed:
            return
        self._deliver(target, updates)
        updates = self._select_updates(target)
        delivered = yield from self._transmit(target, relay, len(updates))
        if not delivered or relay in self._crashed:
            return
        self._deliver(relay, updates)
        updates = self._select_updates(relay)
        delivered = yield from self._transmit(relay, node, len(updates))
        if not delivered or node in self._crashed:
            return
        self._deliver(node, updates)
        self._apply_update(node, target, GossipStatus.ALIVE,
                           self._incarnation[target])
        state["acked"] = True

    def _suspect(self, node: int, target: int) -> None:
        """A full probe round failed: ``node`` suspects ``target`` at
        its currently-known incarnation and starts the suspicion
        timer."""
        view = self._views[node]
        entry = view.get(target, _FRESH)
        if entry[0] is GossipStatus.DEAD:
            return
        incarnation = entry[1]
        self.suspicions += 1
        obs = self.sim.obs
        if obs.enabled:
            obs.instant("health.gossip.suspect", node=target,
                        by=node)
            obs.metrics.counter("health.gossip.suspicions").inc()
        self._create_update(node, target, GossipStatus.SUSPECT,
                            incarnation)
        self.sim.process(
            self._suspicion_timer_body(node, target, incarnation),
            name=f"gs.sus{node}")

    def _suspicion_timer_body(self, node: int, target: int,
                              incarnation: int
                              ) -> Generator[Event, Any, None]:
        """Process body: the suspicion clock.  Expires into a death
        assertion unless the suspicion was refuted (overridden in
        ``node``'s view) first."""
        try:
            yield self.sim.timeout(self.spec.effective_dead_after)
        except Interrupt:
            return
        if node in self._crashed:
            return
        entry = self._views[node].get(target)
        if entry is None or entry != (GossipStatus.SUSPECT, incarnation):
            return
        self._create_update(node, target, GossipStatus.DEAD, incarnation)
