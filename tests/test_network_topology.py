"""Topologies: structure, routing validity, formulas."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.network import (
    Fabric,
    FatTreeTopology,
    HypercubeTopology,
    SingleSwitchTopology,
    ThreeLevelFatTreeTopology,
    TorusTopology,
    get_interconnect,
)
from repro.sim import Simulator


def assert_route_valid(topology, src, dst):
    """A route must be a connected, correctly-oriented edge path."""
    route = topology.route(src, dst)
    if src == dst:
        assert route == []
        return
    position = topology.host_node(src)
    for edge in route:
        assert topology.graph.has_edge(*edge), f"missing edge {edge}"
        origin, target = edge
        assert position == origin, f"route discontinuous at {edge}"
        position = target
    assert position == topology.host_node(dst)


class TestSingleSwitch:
    def test_structure(self):
        topology = SingleSwitchTopology(8)
        assert topology.num_switches == 1
        assert topology.num_links == 8

    def test_all_pairs_two_hops(self):
        topology = SingleSwitchTopology(6)
        for src in range(6):
            for dst in range(6):
                assert_route_valid(topology, src, dst)
                if src != dst:
                    assert topology.hop_count(src, dst) == 2
        assert topology.diameter_hops() == 2

    def test_bisection(self):
        assert SingleSwitchTopology(8).bisection_links() == 4

    def test_host_range_checked(self):
        with pytest.raises(IndexError):
            SingleSwitchTopology(4).host_node(4)
        with pytest.raises(ValueError):
            SingleSwitchTopology(0)


class TestFatTree:
    def test_structure_full_bisection(self):
        topology = FatTreeTopology(64, hosts_per_leaf=16)
        assert topology.num_leaves == 4
        assert topology.num_spines == 16
        assert topology.oversubscription == pytest.approx(1.0)
        # Leaf-spine links + host links.
        assert topology.num_links == 4 * 16 + 64

    def test_oversubscribed(self):
        topology = FatTreeTopology(64, hosts_per_leaf=16, spines=4)
        assert topology.oversubscription == pytest.approx(4.0)
        assert topology.bisection_links() == 2 * 4

    def test_intra_leaf_routes_two_hops(self):
        topology = FatTreeTopology(32, hosts_per_leaf=8)
        assert topology.hop_count(0, 7) == 2

    def test_inter_leaf_routes_four_hops(self):
        topology = FatTreeTopology(32, hosts_per_leaf=8)
        assert topology.hop_count(0, 31) == 4
        assert topology.diameter_hops() == 4

    def test_routes_valid_everywhere(self):
        topology = FatTreeTopology(24, hosts_per_leaf=8, spines=4)
        for src in range(24):
            for dst in range(24):
                assert_route_valid(topology, src, dst)

    def test_spine_choice_deterministic(self):
        topology = FatTreeTopology(64, hosts_per_leaf=8)
        assert topology.route(0, 63) == topology.route(0, 63)

    def test_spine_spreading(self):
        """Different pairs should not all share one spine."""
        topology = FatTreeTopology(64, hosts_per_leaf=8)
        spines = {topology.route(src, 63)[1][1] for src in range(8)}
        assert len(spines) > 1

    def test_partial_last_leaf(self):
        topology = FatTreeTopology(20, hosts_per_leaf=8)
        assert topology.num_leaves == 3
        assert_route_valid(topology, 0, 19)


class TestTorus:
    def test_structure_2d(self):
        topology = TorusTopology((4, 4))
        assert topology.hosts == 16
        assert topology.num_links == 32          # 2 links per host
        assert topology.num_switches == 0        # direct network

    def test_coordinates_round_trip(self):
        topology = TorusTopology((3, 4, 5))
        for rank in range(topology.hosts):
            assert topology.rank_of(topology.coords_of(rank)) == rank

    def test_wraparound_shortens_routes(self):
        topology = TorusTopology((8,) * 2)
        # 0 -> 7 in one dimension: wrap is 1 hop, not 7.
        assert topology.hop_count(0, 7) == 1

    def test_dimension_ordered_routing_valid(self):
        topology = TorusTopology((4, 4))
        for src in range(16):
            for dst in range(16):
                assert_route_valid(topology, src, dst)

    def test_hop_count_is_manhattan_with_wrap(self):
        topology = TorusTopology((6, 6))
        src = topology.rank_of((0, 0))
        dst = topology.rank_of((2, 5))
        assert topology.hop_count(src, dst) == 2 + 1  # wrap the second dim

    def test_diameter(self):
        assert TorusTopology((8, 8)).diameter_hops() == 8
        assert TorusTopology((4, 4, 4)).diameter_hops() == 6

    def test_bisection(self):
        assert TorusTopology((8, 8)).bisection_links() == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            TorusTopology((1, 4))
        with pytest.raises(ValueError):
            TorusTopology(())


class TestHypercube:
    def test_structure(self):
        topology = HypercubeTopology(4)
        assert topology.hosts == 16
        assert topology.num_links == 16 * 4 // 2

    def test_hop_count_is_hamming_distance(self):
        topology = HypercubeTopology(5)
        assert topology.hop_count(0, 0b10110) == 3
        assert topology.diameter_hops() == 5

    def test_routes_valid(self):
        topology = HypercubeTopology(4)
        for src in range(16):
            for dst in range(16):
                assert_route_valid(topology, src, dst)

    def test_bisection(self):
        assert HypercubeTopology(4).bisection_links() == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            HypercubeTopology(0)


TOPOLOGIES = {
    "single_switch": lambda: SingleSwitchTopology(8),
    "fat_tree": lambda: FatTreeTopology(8, hosts_per_leaf=4),
    "torus": lambda: TorusTopology((2, 4)),
    "hypercube": lambda: HypercubeTopology(3),
    "fat_tree_3level": lambda: ThreeLevelFatTreeTopology(4),
}


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
class TestHostRange:
    """Routing rejects a rank outside ``[0, hosts)`` the way
    ``host_node`` does, including the self-route of a bogus rank."""

    @staticmethod
    def bad_pairs(hosts):
        return [(hosts, hosts), (-1, -1), (0, hosts), (hosts, 0),
                (0, -1), (-1, 0)]

    def test_route_rejects_out_of_range(self, name):
        topology = TOPOLOGIES[name]()
        for src, dst in self.bad_pairs(topology.hosts):
            with pytest.raises(IndexError, match="out of range"):
                topology.route(src, dst)
            with pytest.raises(IndexError, match="out of range"):
                topology.hop_count(src, dst)

    def test_route_avoiding_rejects_out_of_range(self, name):
        topology = TOPOLOGIES[name]()
        for src, dst in self.bad_pairs(topology.hosts):
            with pytest.raises(IndexError, match="out of range"):
                topology.route_avoiding(src, dst)

    def test_uncontended_time_rejects_out_of_range(self, name):
        topology = TOPOLOGIES[name]()
        fabric = Fabric(Simulator(), topology,
                        get_interconnect("infiniband_4x"))
        for src, dst in self.bad_pairs(topology.hosts):
            with pytest.raises(IndexError, match="out of range"):
                fabric.uncontended_time(src, dst, 1500)

    def test_in_range_self_route_is_empty(self, name):
        topology = TOPOLOGIES[name]()
        last = topology.hosts - 1
        assert topology.route(last, last) == []
        assert topology.route_avoiding(0, 0) == []


class TestSharedLinks:
    """The fat tree and the crossbar route over interned link tuples."""

    def test_fat_tree_routes_share_link_objects(self):
        topology = FatTreeTopology(64, hosts_per_leaf=8, spines=4)
        assert topology.route(0, 9)[0] is topology.route(0, 40)[0]
        assert topology.route(9, 0)[-1] is topology.route(40, 0)[-1]
        assert topology.route(0, 9) is not topology.route(0, 9)
        interned = {}
        for src in range(64):
            for dst in range(64):
                for edge in topology.route(src, dst):
                    assert interned.setdefault(edge, edge) is edge
        # Every directed link appears, and no more objects than links.
        assert len(interned) == 2 * topology.num_links

    def test_fat_tree_degraded_routes_use_the_same_links(self):
        topology = FatTreeTopology(32, hosts_per_leaf=8, spines=4)
        normal = topology.route(0, 9)
        spine = normal[1][1]
        degraded = topology.route_avoiding(0, 9,
                                           down_nodes=frozenset({spine}))
        assert degraded[0] is normal[0] and degraded[-1] is normal[-1]
        assert degraded[1][1] != spine
        links = {edge: edge for s in range(32) for d in range(32)
                 for edge in topology.route(s, d)}
        assert all(links[edge] is edge for edge in degraded)

    def test_single_switch_routes_share_link_objects(self):
        topology = SingleSwitchTopology(6)
        assert topology.route(2, 3)[0] is topology.route(2, 5)[0]
        assert topology.route(1, 4)[1] is topology.route(3, 4)[1]


class TestRoutingProperties:
    @given(st.integers(min_value=2, max_value=6),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_hypercube_routes_are_shortest(self, dimension, data):
        topology = HypercubeTopology(dimension)
        src = data.draw(st.integers(0, topology.hosts - 1))
        dst = data.draw(st.integers(0, topology.hosts - 1))
        assert topology.hop_count(src, dst) == bin(src ^ dst).count("1")

    @given(st.tuples(st.integers(2, 5), st.integers(2, 5)), st.data())
    @settings(max_examples=40, deadline=None)
    def test_torus_routes_never_exceed_diameter(self, shape, data):
        topology = TorusTopology(shape)
        src = data.draw(st.integers(0, topology.hosts - 1))
        dst = data.draw(st.integers(0, topology.hosts - 1))
        assert_route_valid(topology, src, dst)
        assert topology.hop_count(src, dst) <= topology.diameter_hops()
