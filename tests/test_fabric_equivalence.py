"""Differential harness: the fabric's transfer operation equals its oracle.

Production transfers run as one callback-driven operation whose owner
resumes once; ``tests/fabric_oracle.py`` keeps the historical generator
bodies, where the owner waits on every step.  The operation is only
admissible because nothing a model can observe tells them apart.  Each
scenario runs on both, on ``queue="wheel"`` and ``queue="heap"``, and
asserts equal:

* per-owner resume logs — the instant each transfer returned or raised,
  with its value or exception type, and every draw the owners take
  from an RNG shared with the fault plan;
* the fabric's :class:`~repro.network.fabric.TransferRecord` list and
  byte/transfer counters;
* the fault plan's counters and its RNG's final state;
* every NIC and link ``Resource``'s final occupancy and queue, and the
  number of processes ``quiesce()`` still had to close;
* with observability on, every span and instant record (name, track,
  times, status, parentage).

Scenarios cover single-switch, two-level and three-level fat trees,
same-instant cohorts sharing links, contention on and off, the first
use of a circuit-switched pair, ``src == dst``, link and node down
windows (reroute and unreachable), one-way blackholes, random drop and
corruption, and interrupts landing at tie instants or while a grant is
queued.
"""

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.network import (
    Fabric,
    FabricFaultPlan,
    FatTreeTopology,
    NetworkUnreachable,
    SingleSwitchTopology,
    ThreeLevelFatTreeTopology,
    TransferDropped,
    canonical_link,
    get_interconnect,
)
from repro.obs import Observability
from repro.sim import Interrupt, Simulator
from tests.fabric_oracle import OracleFabric

_TOPOLOGIES = {
    "single": lambda: SingleSwitchTopology(6),
    "fattree": lambda: FatTreeTopology(8, hosts_per_leaf=2, spines=2),
    "fattree3": lambda: ThreeLevelFatTreeTopology(4),
}
_TECHNOLOGIES = ("gigabit_ethernet", "infiniband_4x", "optical_circuit")
#: Start times biased toward same-instant cohorts.
_STARTS = (0.0, 0.0, 0.0, 1e-6, 2e-5)
_SIZES = (0, 64, 1500, 65_536, 1_000_000)
_WINDOW_TIMES = (0.0, 5e-6, 2e-5, 1e-4, 1e-3)


@dataclass(frozen=True)
class Scenario:
    """One generated workload (everything but the queue kind)."""

    topology: str
    technology: str
    contention: bool
    observed: bool
    #: Per owner: start delay and a chain of (src, dst, nbytes, api).
    owners: Tuple[Tuple[float, Tuple[Tuple[int, int, int, str], ...]], ...]
    #: (owner, delay steps): walk the delays, then interrupt if alive.
    interrupts: Tuple[Tuple[int, Tuple[str, ...]], ...] = ()
    #: ("link" | "node" | "oneway", element index, start, end).
    windows: Tuple[Tuple[str, int, float, float], ...] = ()
    drop: float = 0.0
    corrupt: float = 0.0
    rng_seed: Optional[int] = None


@st.composite
def scenarios(draw) -> Scenario:
    topology = draw(st.sampled_from(sorted(_TOPOLOGIES)))
    hosts = _TOPOLOGIES[topology]().hosts
    # A few hosts only, so cohorts collide on NICs and links.
    host = st.integers(0, min(hosts, 6) - 1)
    job = st.tuples(host, host, st.sampled_from(_SIZES),
                    st.sampled_from(("transfer", "transfer_ex")))
    owners = draw(st.lists(
        st.tuples(st.sampled_from(_STARTS),
                  st.lists(job, min_size=1, max_size=2).map(tuple)),
        min_size=1, max_size=6).map(tuple))
    steps = st.lists(st.sampled_from(
        ("start", "overhead", "serialization", "setup", "tiny", "zero")),
        min_size=1, max_size=4).map(tuple)
    interrupts = draw(st.lists(
        st.tuples(st.integers(0, len(owners) - 1), steps),
        max_size=3).map(tuple))
    faulty = draw(st.booleans())
    windows: Tuple[Tuple[str, int, float, float], ...] = ()
    drop = corrupt = 0.0
    rng_seed = None
    if faulty:
        window = st.tuples(
            st.sampled_from(("link", "node", "oneway")),
            st.integers(0, 63),
            st.sampled_from(_WINDOW_TIMES),
            st.sampled_from((1e-5, 5e-5, 1e-3)))
        windows = draw(st.lists(window, max_size=3).map(
            lambda ws: tuple((kind, index, t, t + length)
                             for kind, index, t, length in ws)))
        drop = draw(st.sampled_from((0.0, 0.2)))
        corrupt = draw(st.sampled_from((0.0, 0.2)))
        rng_seed = draw(st.integers(0, 2**16))
    return Scenario(
        topology=topology,
        technology=draw(st.sampled_from(_TECHNOLOGIES)),
        contention=draw(st.booleans()),
        observed=draw(st.booleans()),
        owners=owners, interrupts=interrupts, windows=windows,
        drop=drop, corrupt=corrupt, rng_seed=rng_seed)


def _plan(scenario: Scenario, topology: Any,
          rng: Any) -> Optional[FabricFaultPlan]:
    if scenario.rng_seed is None:
        return None
    plan = FabricFaultPlan(drop_probability=scenario.drop,
                           corrupt_probability=scenario.corrupt, rng=rng)
    # Elements the scenario's traffic actually crosses.
    edges: List[Tuple[Any, Any]] = []
    for _start, jobs in scenario.owners:
        for src, dst, _nbytes, _api in jobs:
            if src != dst:
                edges.extend(topology.route(src, dst))
    if not edges:
        return plan
    switches = sorted({node for edge in edges for node in edge
                       if node[0] == "s"})
    for kind, index, start, end in scenario.windows:
        edge = edges[index % len(edges)]
        if kind == "link":
            plan.link_down(*canonical_link(*edge), start, end)
        elif kind == "oneway":
            plan.link_down_oneway(*edge, start, end)
        elif switches:
            plan.node_down(switches[index % len(switches)], start, end)
    return plan


def _run(scenario: Scenario, fabric_cls: type, queue: str) -> Dict[str, Any]:
    """Run one scenario on one fabric class; everything observable."""
    obs = Observability() if scenario.observed else None
    sim = Simulator(obs=obs, queue=queue)
    topology = _TOPOLOGIES[scenario.topology]()
    technology = get_interconnect(scenario.technology)
    rng = (np.random.default_rng(scenario.rng_seed)
           if scenario.rng_seed is not None else None)
    plan = _plan(scenario, topology, rng)
    fabric = fabric_cls(sim, topology, technology,
                        contention=scenario.contention,
                        record_transfers=True, fault_plan=plan)
    params = technology.loggp
    log: List[Tuple[Any, ...]] = []

    def owner(k: int, start: float, jobs: Any) -> Any:
        try:
            yield sim.timeout(start)
        except Interrupt:
            log.append((k, sim.now, "Interrupt"))
        for src, dst, nbytes, api in jobs:
            try:
                value = yield from getattr(fabric, api)(src, dst, nbytes)
                log.append((k, sim.now, api, value))
            except (Interrupt, TransferDropped, NetworkUnreachable) as exc:
                log.append((k, sim.now, type(exc).__name__))
            if rng is not None:
                # Owners share the plan's generator: any reordering of
                # the plan's draws against theirs shows up here.
                log.append((k, sim.now, "draw", rng.random()))

    procs = [sim.process(owner(k, start, jobs), name=f"owner{k}")
             for k, (start, jobs) in enumerate(scenario.owners)]

    def interrupter(k: int, steps: Tuple[str, ...]) -> Any:
        start, jobs = scenario.owners[k]
        nbytes = jobs[0][2]
        delays = {
            "start": start,
            "overhead": params.overhead,
            "serialization": max(params.gap, nbytes * params.gap_per_byte),
            "setup": technology.circuit_setup_seconds,
            "tiny": 1e-7,
            "zero": 0.0,
        }
        for step in steps:
            yield sim.timeout(delays[step])
        if procs[k].is_alive:
            procs[k].interrupt("test")

    for k, steps in scenario.interrupts:
        sim.process(interrupter(k, steps), name=f"interrupter{k}")
    sim.run()
    result: Dict[str, Any] = {
        "log": log,
        "now": sim.now,
        "records": list(fabric.records),
        "moved": (fabric.transfer_count, fabric.bytes_moved),
        "resources": sorted(
            (resource.name, resource.in_use, resource.queue_length)
            for resource in [*fabric._links.values(),
                             *fabric._nics.values()]),
        "quiesced": sim.quiesce(),
    }
    if plan is not None:
        result["plan"] = (plan.drops, plan.corruptions, plan.reroutes,
                          plan.unreachable, plan.blackholes)
        result["rng"] = rng.bit_generator.state
    if obs is not None:
        obs.finalize()
        # ``sim.run`` spans carry the run's delivered-event count, which
        # coalesced hops lower by design; everything else must match.
        result["spans"] = [
            (s.span_id, s.name, s.track, s.start, s.end, s.status,
             s.parent_id, sorted((key, value) for key, value
                                 in s.attrs.items()
                                 if (s.name, key) != ("sim.run", "events")))
            for s in obs.spans]
        result["instants"] = [
            (i.name, i.track, i.time, sorted(i.attrs.items()))
            for i in obs.instants]
    return result


def _assert_equivalent(scenario: Scenario) -> None:
    runs = {}
    for queue in ("wheel", "heap"):
        production = _run(scenario, Fabric, queue)
        oracle = _run(scenario, OracleFabric, queue)
        assert production == oracle, (queue, scenario)
        runs[queue] = production
    assert runs["wheel"] == runs["heap"]


def _job(src: int, dst: int, nbytes: int = 1500,
         api: str = "transfer_ex") -> Tuple[int, int, int, str]:
    return (src, dst, nbytes, api)


class TestDifferential:
    @given(scenarios())
    @settings(max_examples=150, deadline=None)
    @example(Scenario(  # interrupt at the instant the first hop is due
        topology="fattree", technology="infiniband_4x", contention=True,
        observed=True, owners=((0.0, (_job(0, 5),)),),
        interrupts=((0, ("overhead",)),)))
    @example(Scenario(  # interrupt while queued behind a shared NIC
        topology="single", technology="gigabit_ethernet", contention=True,
        observed=False,
        owners=((0.0, (_job(0, 1, 1_000_000),)),
                (0.0, (_job(0, 2, 64, "transfer"),)),
                (0.0, (_job(3, 2, 64, "transfer"),))),
        interrupts=((1, ("overhead", "tiny")),)))
    @example(Scenario(  # interrupt mid-serialization, then reuse the NIC
        topology="single", technology="gigabit_ethernet", contention=True,
        observed=True,
        owners=((0.0, (_job(0, 1, 1_000_000), _job(0, 2, 64))),
                (2e-5, (_job(0, 3, 64, "transfer"),))),
        interrupts=((0, ("overhead", "tiny")),)))
    @example(Scenario(  # first use of a circuit, self-send, no contention
        topology="fattree3", technology="optical_circuit", contention=False,
        observed=True,
        owners=((0.0, (_job(0, 5), _job(0, 5))),
                (0.0, (_job(2, 2, 65_536, "transfer"),))),
        interrupts=((0, ("setup", "overhead")),)))
    @example(Scenario(  # down link reroutes, down leaf is unreachable
        topology="fattree", technology="infiniband_4x", contention=True,
        observed=True,
        owners=((0.0, (_job(0, 5), _job(1, 4))), (0.0, (_job(4, 1),))),
        windows=(("link", 1, 0.0, 1e-3), ("node", 0, 2e-5, 1e-3),
                 ("oneway", 6, 0.0, 1e-5)),
        drop=0.2, corrupt=0.2, rng_seed=7))
    def test_operation_matches_oracle(self, scenario):
        _assert_equivalent(scenario)


class TestOracleCarriesTheLeakFix:
    def test_interrupted_owner_frees_its_route_in_both(self):
        scenario = Scenario(
            topology="single", technology="gigabit_ethernet",
            contention=True, observed=False,
            owners=((0.0, (_job(0, 1, 10_000_000),)),
                    (1.0, (_job(0, 2, 64),))),
            interrupts=((0, ("overhead", "tiny")),))
        for fabric_cls in (Fabric, OracleFabric):
            result = _run(scenario, fabric_cls, "wheel")
            assert [entry[2] for entry in result["log"]] == [
                "Interrupt", "transfer_ex"]
            assert all(in_use == 0 and queued == 0
                       for _name, in_use, queued in result["resources"])

    def test_close_with_a_handed_over_grant_releases_it_in_both(self):
        # Stop the run right after a release handed the NIC to a queued
        # transfer, before that grant is delivered; closing its owner
        # must pass the slot on, not strand it.
        states = []
        for fabric_cls in (Fabric, OracleFabric):
            sim = Simulator()
            fabric = fabric_cls(sim, SingleSwitchTopology(4),
                                get_interconnect("gigabit_ethernet"))

            def sender(dst):
                yield from fabric.transfer(0, dst, 1_000_000)

            sim.process(sender(1))
            sim.process(sender(2))
            nic = fabric._nic(0)
            queued = []

            def handed_over():
                if nic.queue_length:
                    queued.append(sim.now)
                return bool(queued) and nic.queue_length == 0

            sim.run(stop=handed_over)
            assert nic.in_use == 1 and sim.now > queued[0]
            assert sim.quiesce() == 2
            states.append(sorted(
                (resource.name, resource.in_use, resource.queue_length)
                for resource in [*fabric._links.values(),
                                 *fabric._nics.values()]))
        assert states[0] == states[1]
        assert all(in_use == 0 and queued == 0
                   for _name, in_use, queued in states[0])
