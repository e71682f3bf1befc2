"""Test oracle: the fabric's transfer path as generator bodies.

These are the two process bodies the fabric shipped before its transfer
path became a callback-driven operation: the owner process itself waits
on every step (overhead, one ``Resource.request()`` grant per NIC and
link, serialization, propagation).  They are kept here, and only here,
so the differential harness in ``test_fabric_equivalence.py`` can prove
the production operation observably identical to them.

One deliberate change from the historical bodies: the interrupt/close
leak fix.  An owner interrupted or closed mid-transfer releases every
slot it holds and withdraws a grant still queued, exactly as the
production operation's ``abort`` does.
"""

from typing import Any, Generator, List, Tuple

from repro.network.fabric import (
    _LOCAL_COPY_BANDWIDTH,
    Fabric,
    NetworkUnreachable,
    TransferDropped,
    TransferOutcome,
)
from repro.network.topology import Edge, canonical_link
from repro.sim import Resource


class OracleFabric(Fabric):
    """A :class:`Fabric` whose transfers run as the historical generators."""

    def transfer(self, src: int, dst: int,
                 nbytes: int) -> Generator[Any, Any, float]:
        if self.fault_plan is not None:
            outcome = yield from self.transfer_ex(src, dst, nbytes)
            return outcome.end
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if not 0 <= src < self.topology.hosts:
            raise IndexError(f"src {src} out of range")
        if not 0 <= dst < self.topology.hosts:
            raise IndexError(f"dst {dst} out of range")
        start = self.sim.now
        params = self.technology.loggp

        with self.sim.obs.span("fabric.transfer", src=src, dst=dst,
                               nbytes=nbytes):
            if src == dst:
                yield self.sim.timeout(params.overhead
                                       + nbytes / _LOCAL_COPY_BANDWIDTH)
                self._finish(src, dst, nbytes, start, hops=0)
                return self.sim.now

            if (self.technology.is_circuit_switched
                    and (src, dst) not in self._circuits):
                yield self.sim.timeout(self.technology.circuit_setup_seconds)
                self._circuits.add((src, dst))

            route = self.topology.route(src, dst)
            hops = len(route)
            serialization = max(params.gap, nbytes * params.gap_per_byte)
            propagation = (params.latency
                           + max(0, hops - 1) * self.technology.hop_latency)

            yield self.sim.timeout(params.overhead)

            if self.contention:
                yield from self._hold(self._keyed_order(src, route),
                                      serialization)
            else:
                yield self.sim.timeout(serialization)

            yield self.sim.timeout(propagation + params.overhead)
            self._finish(src, dst, nbytes, start, hops)
            return self.sim.now

    def transfer_ex(self, src: int, dst: int,
                    nbytes: int) -> Generator[Any, Any, TransferOutcome]:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if not 0 <= src < self.topology.hosts:
            raise IndexError(f"src {src} out of range")
        if not 0 <= dst < self.topology.hosts:
            raise IndexError(f"dst {dst} out of range")
        start = self.sim.now
        params = self.technology.loggp
        plan = self.fault_plan
        obs = self.sim.obs

        with obs.span("fabric.transfer", src=src, dst=dst, nbytes=nbytes):
            if src == dst:
                yield self.sim.timeout(params.overhead
                                       + nbytes / _LOCAL_COPY_BANDWIDTH)
                self._finish(src, dst, nbytes, start, hops=0)
                return TransferOutcome(end=self.sim.now, hops=0,
                                       corrupted=False, rerouted=False)

            if (self.technology.is_circuit_switched
                    and (src, dst) not in self._circuits):
                yield self.sim.timeout(self.technology.circuit_setup_seconds)
                self._circuits.add((src, dst))

            yield self.sim.timeout(params.overhead)
            route = self.topology.route(src, dst)
            rerouted = False
            if plan is not None:
                down_nodes = plan.down_nodes_at(self.sim.now)
                down_links = plan.down_links_at(self.sim.now)
                if down_nodes or down_links:
                    if self._blocked(route, down_nodes, down_links):
                        route = self._degraded_route(src, dst, down_nodes,
                                                     down_links)
                        if route is None:
                            plan.unreachable += 1
                            obs.instant("fabric.unreachable", src=src,
                                        dst=dst)
                            obs.metrics.counter("fabric.unreachable").inc()
                            raise NetworkUnreachable(
                                f"no route {src}->{dst} avoids "
                                f"{len(down_nodes)} down node(s) and "
                                f"{len(down_links)} down link(s)"
                            )
                        rerouted = True
                        plan.reroutes += 1
                        obs.instant("fabric.reroute", src=src, dst=dst)
                        obs.metrics.counter("fabric.reroutes").inc()

            hops = len(route)
            serialization = max(params.gap, nbytes * params.gap_per_byte)
            propagation = (params.latency
                           + max(0, hops - 1) * self.technology.hop_latency)

            depart = self.sim.now
            if self.contention:
                yield from self._hold(self._keyed_order(src, route),
                                      serialization)
            else:
                yield self.sim.timeout(serialization)

            corrupted = False
            if plan is not None:
                links = set()
                nodes = set()
                for a, b in route:
                    links.add(canonical_link(a, b))
                    nodes.add(a)
                    nodes.add(b)
                if plan.route_hit_during(links, nodes, depart, self.sim.now):
                    plan.drops += 1
                    obs.instant("fabric.drop", src=src, dst=dst,
                                cause="down_window")
                    obs.metrics.counter("fabric.drops").inc()
                    raise TransferDropped(
                        f"transfer {src}->{dst} lost: route element went "
                        f"down in flight at t<={self.sim.now:g}"
                    )
                if (plan.has_directed_faults
                        and plan.directed_hit_during(route, depart,
                                                     self.sim.now)):
                    plan.drops += 1
                    plan.blackholes += 1
                    obs.instant("fabric.drop", src=src, dst=dst,
                                cause="blackhole")
                    obs.metrics.counter("fabric.drops").inc()
                    raise TransferDropped(
                        f"transfer {src}->{dst} lost: one-way blackhole "
                        f"on the route at t<={self.sim.now:g}"
                    )
                if plan.has_random_faults:
                    draw = plan.rng.random()
                    if draw < plan.drop_probability:
                        plan.drops += 1
                        obs.instant("fabric.drop", src=src, dst=dst,
                                    cause="random")
                        obs.metrics.counter("fabric.drops").inc()
                        raise TransferDropped(
                            f"transfer {src}->{dst} randomly dropped"
                        )
                    if draw < (plan.drop_probability
                               + plan.corrupt_probability):
                        plan.corruptions += 1
                        obs.instant("fabric.corrupt", src=src, dst=dst)
                        obs.metrics.counter("fabric.corruptions").inc()
                        corrupted = True

            yield self.sim.timeout(propagation + params.overhead)
            self._finish(src, dst, nbytes, start, hops)
            return TransferOutcome(end=self.sim.now, hops=hops,
                                   corrupted=corrupted, rerouted=rerouted)

    def _hold(self, held: List[Resource],
              serialization: float) -> Generator[Any, Any, None]:
        """Grant every resource in order, serialize, release.

        The leak fix: an interrupt or close while waiting releases the
        slots already held — plus one a release handed over whose grant
        is not yet delivered — and withdraws a grant still queued.
        """
        granted = 0
        grant = None
        try:
            for resource in held:
                grant = resource.request()
                yield grant
                grant = None
                granted += 1
            yield self.sim.timeout(serialization)
        except BaseException:  # repro: noqa[REP010] - release, re-raise
            if grant is not None:
                if grant.triggered:
                    granted += 1
                else:
                    held[granted].cancel(grant)
            for resource in held[:granted]:
                resource.release()
            raise
        for resource in held:
            resource.release()

    def _keyed_order(self, src: int, route: List[Edge]) -> List[Resource]:
        """The historical acquisition order: a keyed sort, NICs first."""
        resources: List[Tuple[Tuple, Resource]] = [
            ((0, ("h", src)), self._nic(src))
        ]
        for edge in route:
            resources.append(((1, edge), self._link(edge)))
        resources.sort(key=lambda pair: pair[0])
        return [resource for _key, resource in resources]
