"""Fabric transfer timing, contention, and circuit-switching behaviour."""

import pytest

from repro.network import (
    Fabric,
    FatTreeTopology,
    SingleSwitchTopology,
    TorusTopology,
    get_interconnect,
)
from repro.sim import Interrupt, Simulator


def build_fabric(hosts=4, technology="gigabit_ethernet", **kwargs):
    sim = Simulator()
    fabric = Fabric(sim, SingleSwitchTopology(hosts),
                    get_interconnect(technology), **kwargs)
    return sim, fabric


class TestUncontendedTiming:
    def test_matches_closed_form(self):
        sim, fabric = build_fabric()

        def body():
            end = yield from fabric.transfer(0, 1, 10_000)
            return end

        result = sim.run_process(body())
        assert result == pytest.approx(fabric.uncontended_time(0, 1, 10_000))

    def test_self_transfer_is_cheap(self):
        sim, fabric = build_fabric()

        def body():
            yield from fabric.transfer(2, 2, 1_000_000)
            return sim.now

        elapsed = sim.run_process(body())
        params = fabric.technology.loggp
        # Far cheaper than the network path for the same size.
        assert elapsed < fabric.uncontended_time(0, 1, 1_000_000)
        assert elapsed >= params.overhead

    def test_larger_messages_take_longer(self):
        _sim, fabric = build_fabric()
        assert (fabric.uncontended_time(0, 1, 1 << 20)
                > fabric.uncontended_time(0, 1, 1 << 10))

    def test_multi_hop_charges_hop_latency(self):
        sim = Simulator()
        technology = get_interconnect("infiniband_4x")
        fabric = Fabric(sim, TorusTopology((4, 4)), technology)
        near = fabric.uncontended_time(0, 1, 0)       # 1 hop
        far = fabric.uncontended_time(0, 2, 0)        # 2 hops
        assert far - near == pytest.approx(technology.hop_latency)

    def test_validation(self):
        sim, fabric = build_fabric()

        def bad_size():
            yield from fabric.transfer(0, 1, -5)

        with pytest.raises(ValueError):
            sim.run_process(bad_size())

        def bad_host():
            yield from fabric.transfer(0, 99, 5)

        with pytest.raises(IndexError):
            sim.run_process(bad_host())


class TestContention:
    def test_shared_link_serializes(self):
        """Two large transfers into the same destination share its host
        link; the second must finish roughly one serialization later."""
        sim, fabric = build_fabric(contention=True)
        nbytes = 10_000_000
        ends = {}

        def sender(name, src):
            end = yield from fabric.transfer(src, 3, nbytes)
            ends[name] = end

        sim.process(sender("a", 0))
        sim.process(sender("b", 1))
        sim.run()
        serialization = nbytes * fabric.technology.loggp.gap_per_byte
        assert abs(ends["a"] - ends["b"]) == pytest.approx(serialization,
                                                           rel=0.05)

    def test_disjoint_paths_do_not_interfere(self):
        sim, fabric = build_fabric(hosts=4, contention=True)
        nbytes = 10_000_000
        ends = {}

        def sender(name, src, dst):
            end = yield from fabric.transfer(src, dst, nbytes)
            ends[name] = end

        sim.process(sender("a", 0, 1))
        sim.process(sender("b", 2, 3))
        sim.run()
        assert ends["a"] == pytest.approx(ends["b"])
        assert ends["a"] == pytest.approx(fabric.uncontended_time(0, 1, nbytes))

    def test_contention_off_lets_transfers_overlap(self):
        sim, fabric = build_fabric(contention=False)
        nbytes = 10_000_000
        ends = []

        def sender(src):
            end = yield from fabric.transfer(src, 3, nbytes)
            ends.append(end)

        sim.process(sender(0))
        sim.process(sender(1))
        sim.run()
        assert ends[0] == pytest.approx(ends[1])

    def test_no_deadlock_under_crossing_traffic(self):
        """All-pairs simultaneous transfers on a torus complete (the
        total-order acquisition claim)."""
        sim = Simulator()
        fabric = Fabric(sim, TorusTopology((3, 3)),
                        get_interconnect("infiniband_4x"), contention=True)
        done = []

        def sender(src, dst):
            yield from fabric.transfer(src, dst, 100_000)
            done.append((src, dst))

        for src in range(9):
            for dst in range(9):
                if src != dst:
                    sim.process(sender(src, dst))
        sim.run()
        assert len(done) == 72


class TestCircuitSwitching:
    def test_first_transfer_pays_setup(self):
        sim = Simulator()
        technology = get_interconnect("optical_circuit")
        fabric = Fabric(sim, SingleSwitchTopology(4), technology)
        ends = []

        def body():
            first = yield from fabric.transfer(0, 1, 1_000)
            ends.append(first)
            second = yield from fabric.transfer(0, 1, 1_000)
            ends.append(second)

        sim.run_process(body())
        first_duration = ends[0]
        second_duration = ends[1] - ends[0]
        assert first_duration - second_duration == pytest.approx(
            technology.circuit_setup_seconds)

    def test_circuits_are_per_pair(self):
        sim = Simulator()
        technology = get_interconnect("optical_circuit")
        fabric = Fabric(sim, SingleSwitchTopology(4), technology)

        def body():
            yield from fabric.transfer(0, 1, 0)
            t_before = sim.now
            yield from fabric.transfer(0, 2, 0)   # new pair: pays setup
            return sim.now - t_before

        duration = sim.run_process(body())
        assert duration >= technology.circuit_setup_seconds


class TestAccounting:
    def test_bytes_and_counts(self):
        sim, fabric = build_fabric(record_transfers=True)

        def body():
            yield from fabric.transfer(0, 1, 500)
            yield from fabric.transfer(1, 2, 700)

        sim.run_process(body())
        assert fabric.bytes_moved == 1200
        assert fabric.transfer_count == 2
        assert len(fabric.records) == 2
        record = fabric.records[0]
        assert (record.src, record.dst, record.nbytes) == (0, 1, 500)
        assert record.duration > 0
        assert record.hops == 2

    def test_recording_off_by_default(self):
        sim, fabric = build_fabric()

        def body():
            yield from fabric.transfer(0, 1, 500)

        sim.run_process(body())
        assert fabric.records == []


class TestAbandonedTransfers:
    """An interrupted or closed owner gives its NIC and links back."""

    def test_interrupt_mid_serialization_releases_the_route(self):
        sim, fabric = build_fabric()
        ends = []

        def big():
            try:
                yield from fabric.transfer(0, 1, 10_000_000)
            except Interrupt:
                pass

        def small():
            yield sim.timeout(1.0)
            ends.append((yield from fabric.transfer(0, 2, 64)))

        victim = sim.process(big())
        sim.process(small())

        def interrupter():
            yield sim.timeout(0.010)  # 10 MB on GigE serializes for 80 ms
            victim.interrupt()

        sim.process(interrupter())
        sim.run()
        assert ends == [pytest.approx(1.0 + fabric.uncontended_time(0, 2,
                                                                    64))]
        nic = fabric._nic(0)
        assert (nic.in_use, nic.queue_length) == (0, 0)

    def test_interrupt_while_queued_withdraws_the_grant(self):
        sim, fabric = build_fabric()
        outcomes = []

        def sender(name, nbytes):
            try:
                yield from fabric.transfer(0, 1, nbytes)
                outcomes.append(name)
            except Interrupt:
                outcomes.append(f"{name}:interrupted")

        sim.process(sender("first", 1_000_000))
        queued = sim.process(sender("second", 64))

        def interrupter():
            yield sim.timeout(1e-3)
            assert fabric._nic(0).queue_length == 1
            queued.interrupt()

        sim.process(interrupter())
        sim.run()
        assert outcomes == ["second:interrupted", "first"]
        for resource in [*fabric._nics.values(), *fabric._links.values()]:
            assert (resource.in_use, resource.queue_length) == (0, 0)

    def test_quiesce_closing_an_owner_releases_the_route(self):
        sim, fabric = build_fabric()

        def sender():
            yield from fabric.transfer(0, 1, 10_000_000)

        sim.process(sender())
        sim.run(until=0.010)
        assert fabric._nic(0).in_use == 1
        assert sim.quiesce() == 1
        for resource in [*fabric._nics.values(), *fabric._links.values()]:
            assert (resource.in_use, resource.queue_length) == (0, 0)


class TestEventCounts:
    """Hardware-independent cost of the transfer path, gated exactly."""

    #: Four disjoint 4-hop routes on the fat tree below.
    PAIRS = ((0, 5), (2, 7), (4, 1), (6, 3))

    @staticmethod
    def fat_tree():
        sim = Simulator()
        fabric = Fabric(sim, FatTreeTopology(8, hosts_per_leaf=2, spines=2),
                        get_interconnect("infiniband_4x"))
        return sim, fabric

    def test_routes_are_disjoint_four_hop_paths(self):
        _sim, fabric = self.fat_tree()
        routes = [fabric.topology.route(*pair) for pair in self.PAIRS]
        assert [len(route) for route in routes] == [4] * 4
        edges = [edge for route in routes for edge in route]
        assert len(set(edges)) == len(edges)

    def test_uncontended_transfer_resumes_its_owner_once(self):
        sim, fabric = self.fat_tree()
        resumes = []

        def counted(body):
            value = None
            while True:
                try:
                    target = body.send(value)
                except StopIteration as stop:
                    return stop.value
                value = yield target
                resumes.append(sim.now)

        end = sim.run_process(counted(fabric.transfer(0, 5, 1500)))
        assert resumes == [end]

    def test_uncontended_four_hop_transfer_event_count(self):
        # Process start, overhead, one batch carrying all five grant
        # hops (NIC + 4 links), serialization, propagation, process end.
        sim, fabric = self.fat_tree()

        def body():
            yield from fabric.transfer(0, 5, 1500)

        sim.run_process(body())
        assert sim.events_executed == 6

    def test_same_instant_cohort_hops_coalesce(self):
        # Per transfer: start, overhead, serialization, propagation,
        # end — plus one hop batch for the whole cohort's 20 grants.
        sim, fabric = self.fat_tree()

        def body(src, dst):
            yield from fabric.transfer(src, dst, 1500)

        for src, dst in self.PAIRS:
            sim.process(body(src, dst))
        sim.run()
        assert fabric.transfer_count == 4
        assert sim.events_executed == 5 * 4 + 1


class TestStateSizedByTopology:
    """Fabric state grows with the links traffic touched, never with the
    number of distinct (src, dst) pairs that carried it."""

    #: Pair-keyed containers allowed to grow: opt-in transfer records,
    #: optical circuits, and degraded routes (only under outages).
    EXEMPT = {"records", "_circuits", "_degraded"}
    #: Collaborators the fabric shares rather than owns.
    SHARED = {"sim", "topology", "technology", "fault_plan"}

    @staticmethod
    def fat_tree():
        sim = Simulator()
        fabric = Fabric(sim, FatTreeTopology(64, hosts_per_leaf=8, spines=4),
                        get_interconnect("infiniband_4x"))
        return sim, fabric

    @staticmethod
    def run_one_at_a_time(sim, fabric, pairs):
        def body():
            for src, dst in pairs:
                yield from fabric.transfer(src, dst, 1500)
                fabric.uncontended_time(src, dst, 1500)

        sim.run_process(body())

    @staticmethod
    def lengths(obj):
        """``len`` of every container attribute of ``obj``."""
        return {name: len(value) for name, value in vars(obj).items()
                if hasattr(value, "__len__")}

    def sizes(self, fabric):
        """``len`` of every container the fabric owns, one object deep."""
        found = {}
        for name, value in vars(fabric).items():
            if name in self.EXEMPT or name in self.SHARED:
                continue
            if hasattr(value, "__len__"):
                found[name] = len(value)
            elif hasattr(value, "__dict__"):
                for inner, size in self.lengths(value).items():
                    found[f"{name}.{inner}"] = size
        return found

    def covering_pairs(self, topology):
        """Pairs whose routes together cross every directed link."""
        seen, pairs = set(), []
        for src in range(topology.hosts):
            for dst in range(topology.hosts):
                route = topology.route(src, dst)
                if not seen.issuperset(route):
                    seen.update(route)
                    pairs.append((src, dst))
        assert len(seen) == 2 * topology.num_links
        return pairs

    def test_no_container_grows_with_distinct_pairs(self):
        sim, fabric = self.fat_tree()
        warm = self.covering_pairs(fabric.topology)
        self.run_one_at_a_time(sim, fabric, warm)
        before = self.sizes(fabric)
        topology_before = self.lengths(fabric.topology)
        seen = set(warm)
        fresh = [(src, dst) for src in range(64) for dst in range(64)
                 if (src, dst) not in seen]
        assert len(fresh) > 3000
        self.run_one_at_a_time(sim, fabric, fresh)
        assert fabric.transfer_count == len(warm) + len(fresh)
        assert self.sizes(fabric) == before
        assert self.lengths(fabric.topology) == topology_before

    def test_route_links_are_the_link_resource_keys(self):
        sim, fabric = self.fat_tree()
        pairs = [(0, 9), (0, 40), (40, 0), (9, 0), (3, 4), (63, 1)]
        self.run_one_at_a_time(sim, fabric, pairs)
        topology = fabric.topology
        assert topology.route(0, 9)[0] is topology.route(0, 40)[0]
        keys = {edge: edge for edge in fabric._links}
        for src, dst in pairs:
            for edge in topology.route(src, dst):
                assert keys[edge] is edge

    def test_uncontended_links_allocate_no_waiter_queue(self):
        sim, fabric = self.fat_tree()
        self.run_one_at_a_time(sim, fabric, [(0, 9), (9, 0), (5, 60)])
        resources = [*fabric._nics.values(), *fabric._links.values()]
        assert len(resources) == 3 + 4 * 3
        assert all(resource._waiters is None for resource in resources)
