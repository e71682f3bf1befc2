"""The simulated transport: moves bytes between hosts in virtual time.

A :class:`Fabric` binds a topology to an interconnect technology inside a
simulator.  :meth:`Fabric.transfer` and :meth:`Fabric.transfer_ex` are
*process bodies* (generators): the messaging layer delegates to them
with ``yield from``.  :meth:`Fabric.start_transfer` is the callback
entry point for senders that are not processes (detector messages):
the same transfer, with a callback run where the process would resume.

Cost model for one ``n``-byte transfer along a ``h``-hop route::

    [circuit setup, first use of (src,dst) if circuit-switched]
    o_send                                  (sender CPU)
    route choice + fault-plan check         (re-route / unreachable)
    grants: sender NIC, then each link      (one FIFO round per resource)
    serialization: max(g, n * G)            (holding NIC + route links)
    release; in-flight / blackhole / random loss checks
    L + (h - 1) * hop_latency + o_recv      (wire, switches, receiver CPU)

All three entry points validate and construct the same operation: the
steps above as a chain of callbacks on the events a generator body
would have waited on, with the owner resuming (or its callback running)
once, when the transfer completes or fails.  Without a fault plan the
checks are no-ops.

Contention: while serializing, the transfer holds a capacity-1
:class:`~repro.sim.resources.Resource` per link on its route plus the
sender's NIC injection port.  Resources are acquired in canonical global
order — the NIC, then the links in sorted order — one same-instant FIFO
round each, which makes concurrent transfers deadlock-free at the price
of a slightly pessimistic (circuit-like) contention estimate — an
explicit, ablatable modelling choice (bench E13 runs it both ways via
``contention=False``).  A free resource is granted as a *hop*: the next
round runs in the FIFO slot a grant event would take, and consecutive
same-instant hops share one engine event (see
:meth:`repro.sim.Simulator.hop`).  An owner interrupted or closed
mid-transfer releases what it holds and withdraws a queued grant.

Per-transfer state is sized by the topology, not by traffic history.
Routes are not memoised: each injection asks ``topology.route``, which
on the two-level fat tree indexes interned link tables, so a route
shares its link tuples with every other route over those links and the
``_links`` resource keys are those same objects.  A link or NIC
resource allocates its waiter queue only when a transfer first queues
on it.  The two pair-keyed sets left are ``_circuits`` (optical
technologies only) and ``_degraded`` (only while an outage is active).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Generator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.network.technologies import InterconnectTechnology
from repro.network.topology import (
    Edge,
    Node,
    Topology,
    canonical_link,
)
from repro.sim.engine import Simulator
from repro.sim.event import Completion, Event
from repro.sim.resources import Resource

__all__ = [
    "Fabric",
    "TransferRecord",
    "TransferOutcome",
    "FabricFaultPlan",
    "DownWindow",
    "NetworkUnreachable",
    "TransferDropped",
]

#: Local (intra-node) copy bandwidth used for rank-to-self transfers.
_LOCAL_COPY_BANDWIDTH = 10e9


class NetworkUnreachable(RuntimeError):
    """No route between two hosts survives the currently-down elements."""


class TransferDropped(RuntimeError):
    """A transfer was lost in flight (down window hit it, or random drop)."""


@dataclass(frozen=True)
class TransferRecord:
    """One completed transfer, for traffic analysis in tests/benchmarks."""

    src: int
    dst: int
    nbytes: int
    start: float
    end: float
    hops: int

    @property
    def duration(self) -> float:
        """Transfer length in virtual seconds."""
        return self.end - self.start


@dataclass(frozen=True)
class TransferOutcome:
    """Result of a fault-aware transfer that reached the destination."""

    end: float
    hops: int
    corrupted: bool
    rerouted: bool


@dataclass(frozen=True)
class DownWindow:
    """Half-open outage interval ``[start, end)`` in virtual seconds."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start or self.start < 0:
            raise ValueError(
                f"down window must satisfy 0 <= start < end, got "
                f"[{self.start}, {self.end})"
            )

    def active_at(self, t: float) -> bool:
        """True while the element is out of service at instant ``t``."""
        return self.start <= t < self.end

    def overlaps(self, t0: float, t1: float) -> bool:
        """True if the outage intersects the half-open span ``[t0, t1)``."""
        return self.start < t1 and t0 < self.end


class FabricFaultPlan:
    """Declarative schedule of fabric faults, injected into a Fabric.

    Four fault classes, all reproducible:

    * **link down windows** — both directions of a physical link are out
      of service for an interval;
    * **one-way link windows** — a single *direction* of a link silently
      blackholes traffic (asymmetric / grey failure: the healthy reverse
      direction keeps flowing, routing never notices, messages just
      vanish — the classic bad-transceiver failure that makes A suspect
      B while B still hears A);
    * **switch/node down windows** — a graph node (usually a switch) is
      out, taking all its links with it;
    * **random loss** — each delivered transfer is independently dropped
      with ``drop_probability`` or bit-corrupted with
      ``corrupt_probability``, using draws from ``rng`` (pass a generator
      from a named :class:`~repro.sim.rng.RandomStreams` stream so
      campaigns stay bit-reproducible).

    Counters (``drops``, ``corruptions``, ``reroutes``, ``unreachable``)
    accumulate across the plan's lifetime for campaign reports.
    """

    def __init__(self, *, drop_probability: float = 0.0,
                 corrupt_probability: float = 0.0,
                 rng: Optional[Any] = None) -> None:
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError(f"drop_probability {drop_probability} not in "
                             "[0, 1]")
        if not 0.0 <= corrupt_probability <= 1.0:
            raise ValueError(f"corrupt_probability {corrupt_probability} "
                             "not in [0, 1]")
        if drop_probability + corrupt_probability > 1.0:
            raise ValueError("drop + corrupt probabilities exceed 1")
        if (drop_probability > 0 or corrupt_probability > 0) and rng is None:
            raise ValueError(
                "random drop/corrupt faults need an rng (use a named "
                "RandomStreams stream for reproducibility)"
            )
        self.drop_probability = drop_probability
        self.corrupt_probability = corrupt_probability
        self.rng = rng
        self._link_windows: List[Tuple[Edge, DownWindow]] = []
        self._node_windows: List[Tuple[Node, DownWindow]] = []
        self._directed_windows: List[Tuple[Edge, DownWindow]] = []
        self.drops = 0
        self.corruptions = 0
        self.reroutes = 0
        self.unreachable = 0
        self.blackholes = 0

    # -- schedule construction -------------------------------------------

    def link_down(self, a: Node, b: Node, start: float,
                  end: float) -> "FabricFaultPlan":
        """Schedule the link between graph nodes ``a`` and ``b`` down for
        ``[start, end)``; returns self for chaining."""
        self._link_windows.append(
            (canonical_link(a, b), DownWindow(start, end)))
        return self

    def link_down_oneway(self, src: Node, dst: Node, start: float,
                         end: float) -> "FabricFaultPlan":
        """Schedule the ``src -> dst`` *direction* of a link to silently
        blackhole traffic for ``[start, end)``; the reverse direction
        keeps working.  The edge is oriented — no canonicalization —
        and routing never re-routes around it (grey failure: nothing
        reports the loss, transfers crossing it are simply dropped).
        Returns self for chaining."""
        self._directed_windows.append(
            ((src, dst), DownWindow(start, end)))
        return self

    def node_down(self, node: Node, start: float,
                  end: float) -> "FabricFaultPlan":
        """Schedule a switch (or host NIC) node down for ``[start, end)``."""
        self._node_windows.append((node, DownWindow(start, end)))
        return self

    @property
    def has_random_faults(self) -> bool:
        """True when drop or corruption probabilities are active."""
        return self.drop_probability > 0 or self.corrupt_probability > 0

    @property
    def has_outages(self) -> bool:
        """True when any two-way link or node down window is scheduled."""
        return bool(self._link_windows or self._node_windows)

    @property
    def has_directed_faults(self) -> bool:
        """True when any one-way blackhole window is scheduled."""
        return bool(self._directed_windows)

    @property
    def link_outages(self) -> int:
        """Scheduled link down windows (for campaign accounting)."""
        return len(self._link_windows)

    # -- queries -----------------------------------------------------------

    def down_links_at(self, t: float) -> FrozenSet[Edge]:
        """Canonical links out of service at instant ``t``."""
        return frozenset(link for link, w in self._link_windows
                         if w.active_at(t))

    def down_nodes_at(self, t: float) -> FrozenSet[Node]:
        """Graph nodes out of service at instant ``t``."""
        return frozenset(node for node, w in self._node_windows
                         if w.active_at(t))

    def route_hit_during(self, links: Set[Edge], nodes: Set[Node],
                         t0: float, t1: float) -> bool:
        """Did any of the given elements go down within ``[t0, t1)``?

        Used for mid-flight loss: a message serializing onto a link when
        the link dies is gone.
        """
        for link, window in self._link_windows:
            if link in links and window.overlaps(t0, t1):
                return True
        for node, window in self._node_windows:
            if node in nodes and window.overlaps(t0, t1):
                return True
        return False

    def directed_hit_during(self, hops: List[Edge], t0: float,
                            t1: float) -> bool:
        """Did a one-way blackhole cover any oriented route hop while
        the message crossed it (``[t0, t1)``)?

        ``hops`` are the route's directed ``(from, to)`` steps as
        routed — orientation matters, that is the whole point.
        """
        for edge, window in self._directed_windows:
            if window.overlaps(t0, t1) and edge in hops:
                return True
        return False


class Fabric:
    """Contention-aware byte transport over a topology + technology."""

    def __init__(self, sim: Simulator, topology: Topology,
                 technology: InterconnectTechnology, *,
                 contention: bool = True,
                 record_transfers: bool = False,
                 fault_plan: Optional[FabricFaultPlan] = None) -> None:
        self.sim = sim
        self.topology = topology
        self.technology = technology
        self.contention = contention
        self.record_transfers = record_transfers
        self.fault_plan = fault_plan
        self.records: List[TransferRecord] = []
        self._degraded: Dict[Tuple[int, int, FrozenSet[Node],
                                   FrozenSet[Edge]],
                             Optional[List[Edge]]] = {}
        self._links: Dict[Edge, Resource] = {}
        self._nics: Dict[int, Resource] = {}
        self._circuits: Set[Tuple[int, int]] = set()
        self.bytes_moved = 0.0
        self.transfer_count = 0

    # -- resource lookup (lazy so huge topologies stay cheap) -------------

    def _link(self, edge: Edge) -> Resource:
        resource = self._links.get(edge)
        if resource is None:
            resource = Resource(self.sim, capacity=1, name=f"link{edge}")
            self._links[edge] = resource
        return resource

    def _nic(self, host: int) -> Resource:
        resource = self._nics.get(host)
        if resource is None:
            resource = Resource(self.sim, capacity=1, name=f"nic{host}")
            self._nics[host] = resource
        return resource

    # -- the transfer operation -------------------------------------------

    def transfer(self, src: int, dst: int,
                 nbytes: int) -> Generator[Any, Any, float]:
        """Process body: completes when the last byte reaches ``dst``.

        Use as ``yield from fabric.transfer(...)`` inside a process, or
        wrap with ``sim.process`` for a standalone transfer.  Returns the
        completion time.  Under a fault plan it raises exactly as
        :meth:`transfer_ex` does; a corrupted delivery still returns.
        """
        return (yield from self._transfer(src, dst, nbytes, False))

    def transfer_ex(self, src: int, dst: int,
                    nbytes: int) -> Generator[Any, Any, "TransferOutcome"]:
        """Process body: :meth:`transfer`, reporting a :class:`TransferOutcome`.

        Consults the fault plan (if any): re-routes around down elements
        (paying the degraded route's hop cost), raises
        :class:`NetworkUnreachable` when no path survives, raises
        :class:`TransferDropped` when the message is lost (an element on
        the route went down mid-serialization, a one-way blackhole ate
        it, or the random drop draw fired), and flags corruption in the
        returned outcome — the end-to-end check is the caller's job, as
        on a real wire.  Without a plan nothing is ever dropped and
        ``corrupted`` is False.
        """
        return (yield from self._transfer(src, dst, nbytes, True))

    def start_transfer(self, src: int, dst: int, nbytes: int,
                       done: Callable[[_Transfer], None]) -> _Transfer:
        """Callback entry point: start :meth:`transfer` now, no process.

        ``done(op)`` runs at the instant the transfer settles — exactly
        where a process waiting in :meth:`transfer` would resume — with
        ``op.error`` ``None`` on delivery (``op.value`` is the end time)
        or the :class:`TransferDropped` / :class:`NetworkUnreachable` the
        process would have caught.  Same validation, cost model and
        ``fabric.transfer`` span as :meth:`transfer`, on the caller's
        current span track.
        """
        op = self._start(src, dst, nbytes, False)
        op.add_callback(done)
        return op

    def _start(self, src: int, dst: int, nbytes: int,
               outcome: bool) -> _Transfer:
        """The one transfer path: validate, then start a :class:`_Transfer`."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if not 0 <= src < self.topology.hosts:
            raise IndexError(f"src {src} out of range")
        if not 0 <= dst < self.topology.hosts:
            raise IndexError(f"dst {dst} out of range")
        return _Transfer(self, src, dst, nbytes, outcome)

    def _transfer(self, src: int, dst: int, nbytes: int,
                  outcome: bool) -> Generator[Any, Any, Any]:
        """Run one :class:`_Transfer` for the owner process; an interrupt
        or close aborts it."""
        op = self._start(src, dst, nbytes, outcome)
        try:
            value = yield op
        except BaseException:  # repro: noqa[REP010] - abort, re-raise
            op.abort()
            raise
        if op.error is not None:
            raise op.error
        return value

    @staticmethod
    def _blocked(route: List[Edge], down_nodes: FrozenSet[Node],
                 down_links: FrozenSet[Edge]) -> bool:
        for a, b in route:
            if a in down_nodes or b in down_nodes:
                return True
            if canonical_link(a, b) in down_links:
                return True
        return False

    def _degraded_route(self, src: int, dst: int,
                        down_nodes: FrozenSet[Node],
                        down_links: FrozenSet[Edge]
                        ) -> Optional[List[Edge]]:
        key = (src, dst, down_nodes, down_links)
        if key not in self._degraded:
            self._degraded[key] = self.topology.route_avoiding(
                src, dst, down_nodes, down_links)
        return self._degraded[key]

    def _acquire_order(self, src: int, route: List[Edge]) -> List[Resource]:
        """NIC + link resources in a globally consistent order.

        The sender's NIC first, then the route's links in sorted
        edge order.  Every transfer acquires in this order, so
        no cycle of waits can form (classic total-order deadlock
        avoidance).
        """
        order = [self._nics.get(src) or self._nic(src)]
        links = self._links
        for edge in sorted(route):
            order.append(links.get(edge) or self._link(edge))
        return order

    def _finish(self, src: int, dst: int, nbytes: int, start: float,
                hops: int) -> None:
        self.bytes_moved += nbytes
        self.transfer_count += 1
        obs = self.sim.obs
        if obs.enabled:
            obs.metrics.counter("fabric.transfers").inc()
            obs.metrics.counter("fabric.bytes_moved").inc(float(nbytes))
            obs.metrics.histogram("fabric.transfer_seconds").observe(
                self.sim.now - start)
        if self.record_transfers:
            self.records.append(TransferRecord(
                src=src, dst=dst, nbytes=nbytes,
                start=start, end=self.sim.now, hops=hops,
            ))

    # -- analytic helpers (no simulation needed) ---------------------------

    def uncontended_time(self, src: int, dst: int, nbytes: int) -> float:
        """Closed-form transfer time on an idle fabric (no circuit setup)."""
        params = self.technology.loggp
        # Route first: it rejects out-of-range ranks, self-pairs included.
        hops = len(self.topology.route(src, dst))
        if src == dst:
            return params.overhead + nbytes / _LOCAL_COPY_BANDWIDTH
        return (2 * params.overhead
                + max(params.gap, nbytes * params.gap_per_byte)
                + params.latency
                + max(0, hops - 1) * self.technology.hop_latency)


class _Transfer(Completion):
    """One transfer in flight: the cost model as a chain of callbacks.

    Each callback runs on the event a generator body would wait on, in
    the same order — circuit setup, overhead, route and fault check,
    one FIFO round per NIC and link grant, serialization, release and
    loss checks, propagation — and the owner, which yields the transfer
    itself (or registered a callback), resumes once, when it settles.
    The ``fabric.transfer`` span opens with the transfer and closes as
    it settles or aborts, ``"error"`` unless it was delivered.
    """

    __slots__ = ("fabric", "src", "dst", "nbytes", "outcome",
                 "start", "track", "span", "route", "rerouted",
                 "corrupted", "depart", "serialization", "held", "granted",
                 "queued", "stopped", "error")

    def __init__(self, fabric: Fabric, src: int, dst: int, nbytes: int,
                 outcome: bool) -> None:
        sim = fabric.sim
        super().__init__(sim, "fabric.transfer")
        self.span = sim.obs.span("fabric.transfer", src=src, dst=dst,
                                 nbytes=nbytes)
        self.fabric = fabric
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        #: Settle with a TransferOutcome (True) or the end time (False).
        self.outcome = outcome
        self.start = sim.now
        #: The owner's span track: loss instants recorded from engine
        #: callbacks must land where the owner's generator put them.
        self.track = sim.obs.current_track
        self.route: List[Edge] = []
        self.rerouted = False
        self.corrupted = False
        self.depart = 0.0
        self.serialization = 0.0
        #: Acquisition order; ``granted`` of them claimed so far, the
        #: last one possibly still ``queued`` behind another holder.
        self.held: List[Resource] = []
        self.granted = 0
        self.queued: Optional[Event] = None
        self.stopped = False
        #: Why the transfer failed; the owner's generator raises it.
        self.error: Optional[Exception] = None
        technology = fabric.technology
        params = technology.loggp
        if src == dst:
            # Intra-host handoff: CPU overhead plus a memcpy.
            self.after(params.overhead + nbytes / _LOCAL_COPY_BANDWIDTH,
                       self._arrived)
        elif (technology.is_circuit_switched
                and (src, dst) not in fabric._circuits):
            # First use of this pair: optics must set up the circuit.
            self.after(technology.circuit_setup_seconds, self._circuit_up)
        else:
            # Sender-side CPU overhead.
            self.after(params.overhead, self._inject)

    def _circuit_up(self, _event: Event) -> None:
        if self.stopped:
            return
        fabric = self.fabric
        fabric._circuits.add((self.src, self.dst))
        self.after(fabric.technology.loggp.overhead, self._inject)

    def _inject(self, _event: Event) -> None:
        """Pick the route against the fault state at injection time."""
        if self.stopped:
            return
        fabric = self.fabric
        src, dst = self.src, self.dst
        route = fabric.topology.route(src, dst)
        plan = fabric.fault_plan
        now = fabric.sim.now
        if plan is not None and plan.has_outages:
            down_nodes = plan.down_nodes_at(now)
            down_links = plan.down_links_at(now)
            if down_nodes or down_links:
                if fabric._blocked(route, down_nodes, down_links):
                    obs = fabric.sim.obs
                    degraded = fabric._degraded_route(src, dst, down_nodes,
                                                      down_links)
                    if degraded is None:
                        plan.unreachable += 1
                        obs.instant("fabric.unreachable", track=self.track,
                                    src=src, dst=dst)
                        obs.metrics.counter("fabric.unreachable").inc()
                        self._fail(NetworkUnreachable(
                            f"no route {src}->{dst} avoids "
                            f"{len(down_nodes)} down node(s) and "
                            f"{len(down_links)} down link(s)"
                        ))
                        return
                    route = degraded
                    self.rerouted = True
                    plan.reroutes += 1
                    obs.instant("fabric.reroute", track=self.track,
                                src=src, dst=dst)
                    obs.metrics.counter("fabric.reroutes").inc()
        self.route = route
        self.depart = now
        params = fabric.technology.loggp
        self.serialization = max(params.gap, self.nbytes * params.gap_per_byte)
        if fabric.contention:
            self.held = fabric._acquire_order(src, route)
            self._grant_round(_event)
        else:
            self.after(self.serialization, self._serialized)

    def _grant_round(self, _event: Event) -> None:
        """Claim the next resource at this instant.

        A free one is held at once and the next round runs as a hop — in
        the FIFO slot its grant event used to take; a busy one queues
        behind its holder in the resource's FIFO.  After the last grant,
        serialization starts.
        """
        if self.stopped:
            return
        self.queued = None
        held = self.held
        i = self.granted
        if i == len(held):
            self.after(self.serialization, self._serialized)
            return
        self.granted = i + 1
        grant = held[i].claim()
        if grant is None:
            self.hop(self._grant_round)
        else:
            self.queued = grant
            self.follow(grant, self._grant_round)

    def _serialized(self, _event: Event) -> None:
        """Release the route, then decide whether the message survived."""
        if self.stopped:
            return
        for resource in self.held:
            resource.release()
        self.held = []
        self.granted = 0
        fabric = self.fabric
        plan = fabric.fault_plan
        if plan is not None:
            reason = self._loss(plan, fabric.sim.now)
            if reason is not None:
                self._fail(TransferDropped(reason))
                return
        technology = fabric.technology
        params = technology.loggp
        propagation = (params.latency
                       + max(0, len(self.route) - 1) * technology.hop_latency)
        # Pipeline latency plus receiver overhead.
        self.after(propagation + params.overhead, self._arrived)

    def _loss(self, plan: FabricFaultPlan, now: float) -> Optional[str]:
        """Apply the plan's in-flight checks; the drop reason, if any.

        Order matters for bit-reproducibility: down windows, then
        one-way blackholes, then the single random draw.
        """
        route = self.route
        if plan.has_outages:
            links = {canonical_link(a, b) for a, b in route}
            nodes = {node for edge in route for node in edge}
            if plan.route_hit_during(links, nodes, self.depart, now):
                return self._drop(plan, "down_window", "lost: route element "
                                  f"went down in flight at t<={now:g}")
        if (plan.has_directed_faults
                and plan.directed_hit_during(route, self.depart, now)):
            # Grey failure: the oriented hop eats the message.
            # Deliberately no reroute — nothing reported the loss, so
            # the routing layer has nothing to avoid.
            plan.blackholes += 1
            return self._drop(plan, "blackhole", "lost: one-way blackhole "
                              f"on the route at t<={now:g}")
        if plan.has_random_faults:
            draw = plan.rng.random()
            if draw < plan.drop_probability:
                return self._drop(plan, "random", "randomly dropped")
            if draw < plan.drop_probability + plan.corrupt_probability:
                plan.corruptions += 1
                obs = self.fabric.sim.obs
                obs.instant("fabric.corrupt", track=self.track,
                            src=self.src, dst=self.dst)
                obs.metrics.counter("fabric.corruptions").inc()
                self.corrupted = True
        return None

    def _drop(self, plan: FabricFaultPlan, cause: str, reason: str) -> str:
        plan.drops += 1
        obs = self.fabric.sim.obs
        obs.instant("fabric.drop", track=self.track, src=self.src,
                    dst=self.dst, cause=cause)
        obs.metrics.counter("fabric.drops").inc()
        return f"transfer {self.src}->{self.dst} {reason}"

    def _arrived(self, _event: Event) -> None:
        if self.stopped:
            return
        fabric = self.fabric
        hops = len(self.route)
        fabric._finish(self.src, self.dst, self.nbytes, self.start, hops)
        self.span.close()
        now = fabric.sim.now
        if self.outcome:
            self.settle(TransferOutcome(
                end=now, hops=hops, corrupted=self.corrupted,
                rerouted=self.rerouted))
        else:
            self.settle(now)

    def _fail(self, error: Exception) -> None:
        self.error = error
        self.span.close("error")
        self.settle(None)

    def abort(self) -> None:
        """Stop: the owner was interrupted or closed mid-transfer.

        Releases every slot claimed so far — including one a release
        already handed over but whose grant is not yet delivered — and
        withdraws a grant still queued behind another holder.  A no-op
        once the transfer finished or failed.
        """
        if self.stopped:
            return
        self.stopped = True
        held = self.held
        granted = self.granted
        queued = self.queued
        if queued is not None and not queued.triggered:
            held[granted - 1].cancel(queued)
            granted -= 1
        for resource in held[:granted]:
            resource.release()
        self.held = []
        self.granted = 0
        self.queued = None
        self.span.close("error")
