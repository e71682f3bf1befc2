"""E23: SWIM gossip vs the central monitor at 10^4 nodes.

ROADMAP item 2's scorecard.  The central ``HeartbeatMonitor`` funnels
O(cluster) transfers per interval into one host — a hotspot *and* a
single point of failure.  ``GossipMonitor`` decentralizes detection:
every node probes one random peer per period and membership rides the
probe traffic.  This bench runs both detectors over the same 10^4-node
fat tree and scores the trade head-to-head:

* **crash detection** — three mid-run crashes: both detectors must find
  all three; gossip's MTTD must land within 2x the central monitor's
  (it pays up to a couple of probe periods before the first failed
  probe, then the same suspicion budget).
* **fault-free twin** — gossip must report zero suspicions and zero
  false positives when nothing is wrong (randomized probing must not
  manufacture noise at scale).
* **partition** — a one-way blackhole pair (grey failure: no reroute,
  no error, packets just vanish) isolates host 0, the central monitor's
  home.  The central detector goes *provably blind* — it declares
  nearly the whole healthy fleet dead — while gossip keeps detecting a
  real crash injected elsewhere with bounded false deaths (the
  isolated island's honest-but-wrong verdicts; see DESIGN.md).
* **bytes on wire** — scaling 10^3 -> 10^4 nodes, the central monitor
  host's inbound detector traffic grows ~10x (O(n)) while gossip's
  *busiest single node* stays ~flat (O(1) per node per period).

Writes ``BENCH_e23_gossip.json`` with every scenario's verdicts,
MTTD, false-positive counts and per-node traffic accounting, plus two
informational host figures per scenario, never gated: the number of
full (generation 2) cyclic-GC collections the scenario triggered, and
the process's peak resident set size while it ran.  On Linux the peak
restarts with each scenario, but it never reads below the memory that
earlier scenarios left resident, so only the first scenario and the
ones that outgrow their predecessors measure themselves alone.
"""

import gc
import resource
import time
from pathlib import Path

from repro.health import DetectionSpec, build_monitor
from repro.network import (
    Fabric,
    FabricFaultPlan,
    FatTreeTopology,
    get_interconnect,
)
from repro.sim import RandomStreams, Simulator
from repro.xp import write_bench_artifact

NODES = 10_000
SMALL_NODES = 1_000
HEARTBEAT = 0.1
SLOTS = 256
#: Crashes injected after the detectors have a baseline.
CRASH_AT = 0.5
CRASHED = (1234, 7777, 9999)
#: The partition scenario's real crash, far from the isolated host.
PARTITION_CRASH = 5000
PARTITION_AT = 0.5
HORIZON = 2.0

_ARTIFACT_PATH = Path(__file__).resolve().parent.parent / \
    "BENCH_e23_gossip.json"


def _spec(detector, nodes):
    """The shared detection budget, slotted for affordability."""
    return DetectionSpec(detector=detector,
                         heartbeat_interval=HEARTBEAT,
                         suspect_after=3 * HEARTBEAT,
                         dead_after=6 * HEARTBEAT,
                         heartbeat_slots=SLOTS if nodes >= 1000 else None)


def _isolate_host(topology, plan, start, end):
    """Blackhole both directions of host 0's access link: a grey
    failure routing cannot see, so nothing re-routes — host 0 is simply
    gone from the fleet's point of view (and the fleet from host 0's).
    """
    access = topology.route(0, 1)[0]  # (("h", 0), leaf switch)
    plan.link_down_oneway(access[0], access[1], start, end)
    plan.link_down_oneway(access[1], access[0], start, end)


def _reset_peak_rss():
    """Restart the process's resident-set high-water mark (Linux
    ``clear_refs``); elsewhere ``peak_rss_mb`` stays process-wide."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def _peak_rss_mb():
    """Peak resident set size in MB (``ru_maxrss`` is KB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_scenario(detector, nodes, *, crashes=(), crash_at=None,
                 partition=False, horizon=HORIZON, seed=23):
    """One campaign: build the fleet, optionally crash / partition,
    and score the detector."""
    _reset_peak_rss()
    full_collections = gc.get_stats()[2]["collections"]
    sim = Simulator()
    topology = FatTreeTopology(nodes)
    plan = None
    if partition:
        plan = FabricFaultPlan()
        _isolate_host(topology, plan, PARTITION_AT, horizon)
    fabric = Fabric(sim, topology, get_interconnect("infiniband_4x"),
                    fault_plan=plan)
    monitor = build_monitor(sim, fabric, nodes,
                            spec=_spec(detector, nodes),
                            streams=RandomStreams(seed))
    monitor.start()
    wall_start = time.perf_counter()
    if crashes:
        sim.run(until=crash_at)
        for node in crashes:
            monitor.crash(node)
    sim.run(until=horizon)
    wall = time.perf_counter() - wall_start
    intervals = horizon / HEARTBEAT
    real = sorted(d.node for d in monitor.deaths if not d.false_positive)
    row = {
        "detector": detector,
        "nodes": nodes,
        "events": sim.events_executed,
        "wall_seconds": wall,
        "events_per_second": sim.events_executed / wall,
        "detected": real,
        "false_deaths": sum(1 for d in monitor.deaths
                            if d.false_positive),
        "false_suspicions": monitor.false_suspicions,
        "mttd_seconds": monitor.mttd_seconds(),
        "messages_sent": monitor.heartbeats_sent,
        "messages_delivered": monitor.heartbeats_delivered,
        "messages_lost": monitor.heartbeats_lost,
        "gc_full_collections": (gc.get_stats()[2]["collections"]
                                - full_collections),
        "peak_rss_mb": _peak_rss_mb(),
    }
    if detector == "gossip":
        stats = monitor.gossip_stats()
        row["suspicions"] = stats.suspicions
        row["refutations"] = stats.refutations
        row["indirect_probes"] = stats.indirect_probes
        # The O(1) claim: the busiest node's outbound detector bytes
        # per protocol period.
        row["max_node_bytes_per_interval"] = (
            stats.max_node_bytes_sent / intervals)
        row["mean_node_bytes_per_interval"] = (
            stats.mean_node_bytes_sent / intervals)
    else:
        # The O(n) reality: every delivered heartbeat lands on the
        # monitor host, so its inbound bytes scale with the fleet.
        row["monitor_bytes_per_interval"] = (
            monitor.heartbeats_delivered
            * monitor.spec.heartbeat_bytes / intervals)
    return row


def test_e23_gossip_vs_central(benchmark, show):
    results = benchmark.pedantic(
        lambda: {
            "central_crash": run_scenario(
                "fixed", NODES, crashes=CRASHED, crash_at=CRASH_AT),
            "gossip_crash": run_scenario(
                "gossip", NODES, crashes=CRASHED, crash_at=CRASH_AT),
            "gossip_clean": run_scenario("gossip", NODES),
            "central_partition": run_scenario(
                "fixed", NODES, crashes=(PARTITION_CRASH,),
                crash_at=0.6, partition=True),
            "gossip_partition": run_scenario(
                "gossip", NODES, crashes=(PARTITION_CRASH,),
                crash_at=0.6, partition=True),
            "central_small": run_scenario("fixed", SMALL_NODES),
            "gossip_small": run_scenario("gossip", SMALL_NODES),
        },
        rounds=1, iterations=1)

    central = results["central_crash"]
    gossip = results["gossip_crash"]
    clean = results["gossip_clean"]

    # Crash detection: both find every injected crash, honestly.
    assert central["detected"] == sorted(CRASHED)
    assert gossip["detected"] == sorted(CRASHED)
    assert central["false_deaths"] == 0
    assert gossip["false_deaths"] == 0
    # Gossip pays at most a couple of probe periods over the central
    # monitor's silence budget: MTTD within 2x.
    assert gossip["mttd_seconds"] <= 2.0 * central["mttd_seconds"]

    # The fault-free twin: randomized probing manufactures no noise.
    assert clean["false_deaths"] == 0
    assert clean["false_suspicions"] == 0
    assert clean["suspicions"] == 0

    # Partition: the central detector is provably blind — with its host
    # blackholed it declares (nearly) the whole healthy fleet dead —
    # while gossip still finds the real crash with bounded collateral
    # (the isolated island's honest false verdicts).
    blind = results["central_partition"]
    live = results["gossip_partition"]
    assert blind["false_deaths"] >= NODES - 5
    assert PARTITION_CRASH in live["detected"]
    assert live["false_deaths"] <= 25
    assert live["false_deaths"] < blind["false_deaths"] / 100

    # Bytes on wire: central's monitor-host load scales O(n), gossip's
    # per-node load stays O(1).
    central_ratio = (central["monitor_bytes_per_interval"]
                     / results["central_small"]
                     ["monitor_bytes_per_interval"])
    gossip_ratio = (gossip["max_node_bytes_per_interval"]
                    / results["gossip_small"]
                    ["max_node_bytes_per_interval"])
    assert central_ratio >= 5.0
    assert gossip_ratio <= 3.0

    payload = {
        "benchmark_module": "bench_e23_gossip",
        "heartbeat_interval_seconds": HEARTBEAT,
        "dead_after_seconds": 6 * HEARTBEAT,
        "horizon_seconds": HORIZON,
        "crashed_nodes": list(CRASHED),
        "results": results,
        "comparisons": {
            "mttd_ratio_gossip_vs_central": (
                gossip["mttd_seconds"] / central["mttd_seconds"]),
            "central_bytes_scaling_10x_nodes": central_ratio,
            "gossip_bytes_scaling_10x_nodes": gossip_ratio,
            "partition_central_false_deaths": blind["false_deaths"],
            "partition_gossip_false_deaths": live["false_deaths"],
        },
    }
    write_bench_artifact(_ARTIFACT_PATH, payload, required=("results",))

    lines = ["E23: gossip vs central at 10^4 nodes"]
    for label in ("central_crash", "gossip_crash"):
        row = results[label]
        lines.append(
            f"  {label:>17}: MTTD {row['mttd_seconds'] * 1e3:.0f} ms  "
            f"false {row['false_deaths']}  "
            f"{row['events_per_second']:>10,.0f} ev/s")
    lines.append(
        f"  partition: central false deaths "
        f"{blind['false_deaths']:,} (blind), gossip "
        f"{live['false_deaths']} (live, real crash detected)")
    lines.append(
        f"  bytes scaling 10^3->10^4: central x{central_ratio:.1f} "
        f"(O(n)), gossip x{gossip_ratio:.2f} (O(1) per node)")
    print("\n" + "\n".join(lines))
