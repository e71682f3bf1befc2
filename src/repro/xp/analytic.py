"""The analytic E01–E17 benches, repackaged as fleet experiments.

ROADMAP item 4 left one piece of headroom: the original paper-claim
benches (technology curves, petaflops crossings, rooflines, scheduling
grids, checkpoint ablations, fleet procurement …) lived only as pytest
benchmarks, outside the fleet runner's cache.  This module registers a
compact fleet version of each — same library calls, reduced sizes —
so ``python -m repro fleet`` re-measures the whole paper surface and a
warm run touches only experiments whose code actually changed.

Conventions (shared with :mod:`repro.xp.experiments`):

* every run function is module-level and picklable, takes
  ``(config, seed)`` and returns a flat JSON-able dict;
* purely analytic experiments ignore ``seed`` (closed-form models have
  no randomness to seed); simulation-backed ones feed it through
  :class:`~repro.sim.rng.RandomStreams`;
* ``code_roots`` name the library modules each experiment drives, so
  cache invalidation tracks the right import closures;
* an edit to the definitions here is signalled by bumping the
  ``version`` field in the point configs.

The pytest benches keep their richer shape assertions and report
rendering; these summaries exist for cheap routine re-measurement, not
as a replacement.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Tuple

from repro.units import GIB, GIGA, KIB, KILO, MEGA, MIB, PETA, TERA
from repro.xp.spec import ExperimentSpec, PointSpec

__all__ = [
    "ANALYTIC_EXPERIMENTS",
    "e01_run",
    "e02_run",
    "e03_run",
    "e04_run",
    "e05_run",
    "e06_run",
    "e07_run",
    "e08_run",
    "e09_run",
    "e10_run",
    "e11_run",
    "e12_run",
    "e13_run",
    "e14_run",
    "e15_run",
    "e16_run",
    "e17_run",
]

#: The era's reliability rule of thumb: three years per node.
_NODE_MTBF = 3 * 365.25 * 86400.0


def e01_run(config: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """E01 point: one scenario's technology curves, as endpoint ratios.

    Summarizes each quantity by its total growth (or decline) factor
    over the projection span — the headline number the keynote's
    figures carry.
    """
    from repro.tech import get_scenario, technology_curve

    roadmap = get_scenario(str(config["scenario"]))
    years = [float(y) for y in range(2003, 2011)]
    summary: Dict[str, Any] = {"first_year": years[0],
                               "last_year": years[-1]}
    for quantity in ("node_peak_flops", "node_memory_bytes",
                     "dollars_per_flops", "watts_per_flops"):
        curve = technology_curve(roadmap, quantity, years)
        summary[f"{quantity}_factor"] = float(curve[-1] / curve[0])
    return summary


def e02_run(config: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """E02 point: first year one budget buys a peak petaflops."""
    from repro.cluster import design_to_budget
    from repro.tech import get_scenario

    roadmap = get_scenario(str(config["scenario"]))
    budget = float(config["budget"])
    target = PETA

    def peak_at(year: float) -> float:
        return design_to_budget(budget, roadmap, year,
                                "conventional").peak_flops

    low, high = 2003.0, 2020.0
    if peak_at(high) < target:
        return {"crossing_year": None, "nodes_at_crossing": None}
    for _ in range(40):
        mid = (low + high) / 2.0
        if peak_at(mid) >= target:
            high = mid
        else:
            low = mid
    spec = design_to_budget(budget, roadmap, high, "conventional")
    return {"crossing_year": high,
            "nodes_at_crossing": spec.node_count}


def e03_run(config: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """E03 point: one node architecture's roofline scorecard in 2006."""
    from repro.nodes import REFERENCE_KERNELS, RooflineModel, make_node
    from repro.tech import get_scenario

    node = make_node(str(config["architecture"]),
                     get_scenario("nominal"), 2006.0)
    model = RooflineModel(node)
    summary: Dict[str, Any] = {
        "gflops_per_watt": node.flops_per_watt / GIGA,
        "gflops_per_dollar": node.flops_per_dollar / GIGA,
        "machine_balance": node.machine_balance,
    }
    for kernel in REFERENCE_KERNELS:
        summary[f"attainable_{kernel.name}_gflops"] = (
            model.attainable_flops(kernel) / GIGA)
    return summary


def e04_run(config: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """E04 point: ping-pong latency and bandwidth for one technology."""
    import numpy as np

    from repro.messaging import run_spmd

    technology = str(config["technology"])
    reps = 3

    def pingpong(comm: Any, nbytes: int) -> Any:
        payload = np.zeros(nbytes, dtype=np.uint8)
        yield from comm.sendrecv(payload, 1 - comm.rank)
        start = comm.sim.now
        for _ in range(reps):
            if comm.rank == 0:
                yield from comm.send(payload, 1, tag=1)
                payload = yield from comm.recv(1, tag=2)
            else:
                payload = yield from comm.recv(0, tag=1)
                yield from comm.send(payload, 0, tag=2)
        return (comm.sim.now - start) / (2 * reps)

    def half_rtt(nbytes: int) -> float:
        outcome = run_spmd(2, pingpong, nbytes, technology=technology)
        return float(outcome.results[0])

    large = MIB
    return {
        "latency_0b_us": half_rtt(0) * MEGA,
        "latency_1k_us": half_rtt(KIB) * MEGA,
        "bandwidth_1m_mb_s": large / half_rtt(large) / MEGA,
    }


def e05_run(config: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """E05 point: one app's 8-rank speedup on slow vs fast fabric."""
    from repro.apps import ComputeCharge, run_cg, run_fft2d, run_stencil

    app = str(config["app"])
    ranks = 8
    charge = ComputeCharge(effective_flops=3e9)

    def elapsed(p: int, technology: str) -> float:
        if app == "stencil":
            return run_stencil(
                p, n=1024,  # repro: noqa[REP003] grid side, not bytes
                iterations=2, charge=charge,
                technology=technology).elapsed
        if app == "cg":
            return run_cg(p, n=65536, max_iterations=10, tolerance=0.0,
                          charge=charge, technology=technology).elapsed
        return run_fft2d(p, n=256, charge=charge,
                         technology=technology).elapsed

    summary: Dict[str, Any] = {}
    for technology in ("fast_ethernet", "infiniband_4x"):
        summary[f"speedup_{technology}"] = (
            elapsed(1, technology) / elapsed(ranks, technology))
    summary["fabric_gain"] = (summary["speedup_infiniband_4x"]
                              / summary["speedup_fast_ethernet"])
    return summary


def e06_run(config: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """E06 point: density/power of a 100 TF design per architecture."""
    from repro.cluster import cluster_metrics, design_to_peak
    from repro.tech import get_scenario

    spec = design_to_peak(100e12, get_scenario("nominal"), 2006.0,
                          str(config["architecture"]), "infiniband_4x")
    metrics = cluster_metrics(spec)
    return {
        "nodes": spec.node_count,
        "racks": metrics.packaging.racks,
        "total_megawatts": metrics.total_watts / MEGA,
        "floor_area_m2": metrics.packaging.floor_area_m2,
        "dollars_per_gflops": metrics.dollars_per_flops * GIGA,
    }


def e07_run(config: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """E07 point: one batch policy on a 128-node machine at 0.85 load."""
    from repro.scheduler import (
        BatchSimulator,
        WorkloadGenerator,
        WorkloadParams,
        evaluate_schedule,
        get_policy,
    )
    from repro.sim.rng import RandomStreams

    nodes = 128
    generator = WorkloadGenerator(
        WorkloadParams(max_nodes=nodes, offered_load=0.85),
        RandomStreams(seed=seed))
    jobs = generator.generate(400)
    policy = str(config["policy"])
    metrics = evaluate_schedule(
        BatchSimulator(nodes, get_policy(policy)).run(jobs))
    return {
        "utilization": metrics.utilization,
        "mean_bounded_slowdown": metrics.mean_bounded_slowdown,
    }


def e08_run(config: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """E08 point: checkpoint efficiency at one machine scale, analytic
    Daly bound plus a short Monte-Carlo cross-check."""
    import numpy as np

    from repro.fault import (
        CheckpointParams,
        ExponentialFailures,
        daly_interval,
        efficiency,
        simulate_checkpoint_run,
    )
    from repro.fault.models import system_mtbf
    from repro.sim.rng import RandomStreams

    nodes = int(config["nodes"])
    mtbf = system_mtbf(_NODE_MTBF, nodes)
    params = CheckpointParams(300.0, 600.0, mtbf)
    tau = daly_interval(params)
    runs = [simulate_checkpoint_run(24 * 3600.0, params, tau,
                                    ExponentialFailures(mtbf),
                                    RandomStreams(seed), rep)
            for rep in range(3)]
    return {
        "system_mtbf_hours": mtbf / 3600.0,
        "daly_interval_seconds": tau,
        "analytic_efficiency": efficiency(params, tau),
        "monte_carlo_efficiency": float(
            np.mean([r.efficiency for r in runs])),
    }


def e09_run(config: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """E09 point: useful-work fraction per checkpoint strategy at one
    machine scale."""
    import math

    from repro.fault import (
        CheckpointParams,
        daly_interval,
        expected_runtime,
        young_interval,
    )
    from repro.fault.models import system_mtbf

    nodes = int(config["nodes"])
    work = 24 * 3600.0
    restart = 600.0
    mtbf = system_mtbf(_NODE_MTBF, nodes)
    params = CheckpointParams(300.0, restart, mtbf)

    def useful(interval: float) -> float:
        return work / expected_runtime(params, work, interval)

    return {
        "none": work / ((mtbf + restart) * math.expm1(work / mtbf)),
        "hourly": useful(3600.0),
        "young": useful(young_interval(params)),
        "daly": useful(daly_interval(params)),
    }


def e10_run(config: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """E10 point: PIM-vs-conventional roofline crossover in 2006."""
    import numpy as np

    from repro.nodes import RooflineModel, make_node
    from repro.tech import get_scenario

    roadmap = get_scenario("nominal")
    intensities = np.logspace(-2, 2, 33)
    curves = {name: RooflineModel(make_node(name, roadmap, 2006.0))
              .attainable_curve(intensities)
              for name in ("pim", "conventional")}
    pim_wins = curves["pim"] > curves["conventional"]
    crossover = float(intensities[int(np.argmin(pim_wins))])
    return {
        "crossover_intensity": crossover,
        "pim_low_intensity_gain": float(
            curves["pim"][0] / curves["conventional"][0]),
        "conventional_peak_gflops": float(
            curves["conventional"][-1] / GIGA),
    }


def e11_run(config: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """E11 point: cluster $/GFLOPS and the SoC TCO edge in one year."""
    from repro.cluster import (
        CostModel,
        cluster_metrics,
        design_cluster,
        pack_cluster,
    )
    from repro.tech import get_scenario

    year = float(config["year"])
    roadmap = get_scenario("nominal")
    cost_model = CostModel()
    summary: Dict[str, Any] = {}
    for architecture in ("conventional", "soc"):
        spec = design_cluster("xp-e11", roadmap, year, 512, architecture,
                              "infiniband_4x")
        packaging = pack_cluster(spec)
        peak = cluster_metrics(spec).peak_flops
        summary[f"{architecture}_purchase_per_gflops"] = (
            cost_model.purchase(spec, packaging).total_dollars
            / peak * GIGA)
        summary[f"{architecture}_tco4_per_gflops"] = (
            cost_model.tco(spec, packaging, 4.0) / peak * GIGA)
    return summary


def e12_run(config: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """E12 point: HPL Rmax trajectory for one budget class."""
    from repro.apps import HplModel
    from repro.cluster import design_to_budget
    from repro.tech import get_scenario

    budget = float(config["budget"])
    roadmap = get_scenario("nominal")
    model = HplModel()

    def rmax(year: float) -> float:
        spec = design_to_budget(budget, roadmap, year, "conventional")
        return model.estimate(spec).rmax_flops

    first, last = 2003.0, 2011.0
    first_rmax = rmax(first)
    last_rmax = rmax(last)
    span = last - first
    return {
        "rmax_2003_tflops": first_rmax / TERA,
        "rmax_2011_tflops": last_rmax / TERA,
        "growth_per_year": (last_rmax / first_rmax) ** (1.0 / span),
    }


def e13_run(config: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """E13 point: one ablation family (collective algorithms, fabric
    contention, or backfill policies)."""
    import numpy as np

    from repro.messaging import SUM, run_spmd
    from repro.network import FatTreeTopology
    from repro.scheduler import (
        BatchSimulator,
        WorkloadGenerator,
        WorkloadParams,
        evaluate_schedule,
        get_policy,
    )
    from repro.sim.rng import RandomStreams

    family = str(config["family"])
    if family == "collective":
        def body(comm: Any, algorithm: str) -> Any:
            vector = np.zeros(1024)  # repro: noqa[REP003] element count
            start = comm.sim.now
            for _ in range(3):
                yield from comm.allreduce(vector, SUM,
                                          algorithm=algorithm)
            return (comm.sim.now - start) / 3

        return {
            f"allreduce_8k_{algorithm}_us": max(
                run_spmd(16, body, algorithm,
                         technology="infiniband_4x").results) * MEGA
            for algorithm in ("recursive_doubling", "ring",
                              "rabenseifner")
        }
    if family == "contention":
        def alltoall(comm: Any) -> Any:
            payload = [np.zeros(1 << 14, dtype=np.uint8)
                       for _ in range(comm.size)]
            start = comm.sim.now
            yield from comm.alltoall(payload)
            return comm.sim.now - start

        full = max(run_spmd(
            16, alltoall, technology="infiniband_4x",
            topology=FatTreeTopology(16, hosts_per_leaf=4),
            contention=True).results)
        tapered = max(run_spmd(
            16, alltoall, technology="infiniband_4x",
            topology=FatTreeTopology(16, hosts_per_leaf=4, spines=1),
            contention=True).results)
        return {"alltoall_full_us": full * MEGA,
                "alltoall_4to1_us": tapered * MEGA,
                "taper_slowdown": tapered / full}
    generator = WorkloadGenerator(
        WorkloadParams(max_nodes=128, offered_load=0.9),
        RandomStreams(seed=seed))
    jobs = generator.generate(300)
    return {
        f"{policy}_utilization": evaluate_schedule(
            BatchSimulator(128, get_policy(policy)).run(jobs)).utilization
        for policy in ("fcfs", "easy", "conservative")
    }


def e14_run(config: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """E14 point: the checkpoint I/O wall at one machine scale, fixed
    vs scaled I/O provisioning."""
    from repro.fault import daly_interval, efficiency
    from repro.io import DiskModel, derive_checkpoint_params
    from repro.network import get_interconnect

    nodes = int(config["nodes"])
    link = get_interconnect("infiniband_4x").loggp.bandwidth
    raid = DiskModel(transfer_bytes_per_second=160e6,
                     capacity_bytes=320e9)
    summary: Dict[str, Any] = {"nodes": nodes}
    for label, servers in (("fixed", 16), ("scaled",
                                           max(16, nodes // 16))):
        params = derive_checkpoint_params(
            2 * GIB, nodes, servers, link, _NODE_MTBF, disk=raid)
        summary[f"{label}_servers"] = servers
        summary[f"{label}_write_seconds"] = params.checkpoint_seconds
        summary[f"{label}_efficiency"] = efficiency(
            params, daly_interval(params))
    return summary


def e15_run(config: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """E15 point: EASY backfilling on a failing 1024-node machine at
    one node-MTBF, scratch restart vs hourly checkpoints."""
    from repro.health import DegradedBatchSimulator
    from repro.scheduler import WorkloadGenerator, WorkloadParams, get_policy
    from repro.sim.rng import RandomStreams

    nodes = 1024  # repro: noqa[REP003] machine size in nodes, not bytes
    mtbf_seconds = float(config["mtbf_years"]) * 365.25 * 86400.0
    generator = WorkloadGenerator(
        WorkloadParams(max_nodes=nodes, offered_load=0.8),
        RandomStreams(seed=seed))
    jobs = generator.generate(200)
    summary: Dict[str, Any] = {}
    for label, interval in (("scratch", None), ("hourly", 3600.0)):
        result = DegradedBatchSimulator(
            nodes, get_policy("easy"),
            node_mtbf_seconds=mtbf_seconds,
            repair_seconds=1800.0,
            checkpoint_interval=interval,
            streams=RandomStreams(seed=seed)).run(jobs)
        summary[f"{label}_goodput"] = result.goodput_utilization
        summary[f"{label}_kills"] = result.job_kills
    return summary


def e16_run(config: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """E16 point: the model's trajectory vs the public record."""
    import numpy as np

    from repro.analysis.scaling import fit_serial_fraction
    from repro.apps import ComputeCharge, HplModel, run_stencil
    from repro.cluster import design_to_budget
    from repro.tech import get_scenario
    from repro.tech.history import (
        first_commodity_petaflops_year,
        historical_slope,
    )

    roadmap = get_scenario("nominal")
    model = HplModel()
    years = np.arange(2003.0, 2012.0, 1.0)
    rmax = np.array([
        model.estimate(design_to_budget(100e6, roadmap, year,
                                        "conventional")).rmax_flops
        for year in years])
    slope = float(np.exp(np.polyfit(years, np.log(rmax), 1)[0]))
    crossing = float(np.interp(np.log(PETA), np.log(rmax), years))

    ranks = [1, 4, 8]
    charge = ComputeCharge(effective_flops=3e9)
    times = {p: run_stencil(p, n=512, iterations=2, charge=charge,
                            technology="infiniband_4x").elapsed
             for p in ranks}
    serial_fraction, rms = fit_serial_fraction(
        ranks, [times[1] / times[p] for p in ranks])
    return {
        "model_slope": slope,
        "model_crossing_year": crossing,
        "record_slope": historical_slope(),
        "record_crossing_year": first_commodity_petaflops_year(),
        "stencil_serial_fraction": serial_fraction,
        "fit_rms": rms,
    }


def e17_run(config: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """E17 point: one procurement strategy's fleet trajectory."""
    from repro.cluster import simulate_fleet, time_averaged_peak
    from repro.tech import get_scenario

    strategy = str(config["strategy"])
    roadmap = get_scenario("nominal")
    if strategy == "rolling":
        timeline = simulate_fleet(roadmap, 2003.0, 2010.0, 2e6,
                                  strategy="rolling",
                                  lifetime_years=4.0)
    else:
        timeline = simulate_fleet(roadmap, 2003.0, 2010.0, 2e6,
                                  strategy="forklift",
                                  forklift_interval_years=3.0)
    return {
        "time_avg_peak_tflops": time_averaged_peak(timeline) / TERA,
        "final_peak_tflops": timeline[-1].peak_flops / TERA,
        "max_cohorts": max(fy.cohort_count for fy in timeline),
        "final_power_kw": timeline[-1].power_watts / KILO,
    }


def _points(*names_and_configs: Tuple[str, Dict[str, Any]]
            ) -> Tuple[PointSpec, ...]:
    """Point list helper: versioned configs, stable order."""
    return tuple(PointSpec(name=name, config={"version": 1, **config})
                 for name, config in names_and_configs)


def _scenario_points() -> Tuple[PointSpec, ...]:
    return _points(*((scenario, {"scenario": scenario})
                     for scenario in ("conservative", "nominal",
                                      "aggressive")))


def _spec(name: str, run: Any, points: Tuple[PointSpec, ...],
          code_roots: Tuple[str, ...],
          description: str) -> ExperimentSpec:
    """One analytic experiment spec (they are all deterministic)."""
    return ExperimentSpec(name=name, run=run, points=points,
                          code_roots=code_roots,
                          description=description)


#: The analytic paper-claim experiments, in bench order.
ANALYTIC_EXPERIMENTS: Tuple[ExperimentSpec, ...] = (
    _spec("e01_tech_curves", e01_run, _scenario_points(),
          ("repro/tech/__init__.py",),
          "technology curve growth factors per scenario"),
    _spec("e02_petaflops_crossing", e02_run,
          _points(*((f"{scenario}-20m",
                     {"scenario": scenario, "budget": 20e6})
                    for scenario in ("conservative", "nominal",
                                     "aggressive"))),
          ("repro/cluster/__init__.py", "repro/tech/__init__.py"),
          "first year a $20M budget buys a peak petaflops"),
    _spec("e03_node_architectures", e03_run,
          _points(*((arch, {"architecture": arch})
                    for arch in ("conventional", "smp", "blade",
                                 "soc", "pim"))),
          ("repro/nodes/__init__.py", "repro/tech/__init__.py"),
          "2006 node-architecture roofline scorecard"),
    _spec("e04_interconnects", e04_run,
          _points(*((tech, {"technology": tech})
                    for tech in ("fast_ethernet", "gigabit_ethernet",
                                 "myrinet_2000", "infiniband_4x",
                                 "optical_circuit"))),
          ("repro/messaging/__init__.py", "repro/network/__init__.py"),
          "measured ping-pong latency/bandwidth per interconnect"),
    _spec("e05_app_scaling", e05_run,
          _points(*((app, {"app": app})
                    for app in ("stencil", "cg", "fft"))),
          ("repro/apps/__init__.py",),
          "8-rank app speedup, slow vs fast fabric"),
    _spec("e06_density", e06_run,
          _points(*((arch, {"architecture": arch})
                    for arch in ("conventional", "smp", "blade",
                                 "soc"))),
          ("repro/cluster/__init__.py",),
          "100 TF design density/power per architecture"),
    _spec("e07_scheduling", e07_run,
          _points(*((policy, {"policy": policy})
                    for policy in ("fcfs", "sjf", "easy",
                                   "conservative"))),
          ("repro/scheduler/__init__.py",),
          "batch policy utilization/slowdown at 0.85 load"),
    _spec("e08_fault_scale", e08_run,
          _points(*((f"n{nodes}", {"nodes": nodes})
                    for nodes in (1_000, 10_000, 100_000))),
          ("repro/fault/__init__.py",),
          "checkpoint efficiency vs machine scale (analytic + MC)"),
    _spec("e09_checkpoint_ablation", e09_run,
          _points(*((f"n{nodes}", {"nodes": nodes})
                    for nodes in (1_000, 10_000, 100_000))),
          ("repro/fault/__init__.py",),
          "useful-work fraction per checkpoint strategy"),
    _spec("e10_pim_ablation", e10_run,
          _points(("nominal-2006", {})),
          ("repro/nodes/__init__.py",),
          "PIM-vs-conventional roofline crossover"),
    _spec("e11_cost_performance", e11_run,
          _points(*((f"y{int(year)}", {"year": year})
                    for year in (2004.0, 2008.0))),
          ("repro/cluster/__init__.py",),
          "$/GFLOPS purchase and 4-year TCO, conventional vs SoC"),
    _spec("e12_top500_extrapolation", e12_run,
          _points(("lab-100m", {"budget": 100e6}),
                  ("department-2m", {"budget": 2e6})),
          ("repro/apps/__init__.py", "repro/cluster/__init__.py"),
          "HPL Rmax trajectory per budget class"),
    _spec("e13_ablations", e13_run,
          _points(*((family, {"family": family})
                    for family in ("collective", "contention",
                                   "backfill"))),
          ("repro/messaging/__init__.py",
           "repro/scheduler/__init__.py",
           "repro/network/__init__.py"),
          "collective/contention/backfill ablation families"),
    _spec("e14_checkpoint_io_wall", e14_run,
          _points(*((f"n{nodes}", {"nodes": nodes})
                    for nodes in (1_024, 16_384))),  # repro: noqa[REP003] node counts
          ("repro/io/__init__.py", "repro/fault/__init__.py"),
          "checkpoint I/O wall, fixed vs scaled I/O servers"),
    _spec("e15_fault_aware_operation", e15_run,
          _points(*((f"mtbf{label}", {"mtbf_years": years})
                    for label, years in (("2y", 2.0), ("3m", 0.25)))),
          ("repro/scheduler/__init__.py", "repro/health/scheduling.py"),
          "EASY backfilling on a failing machine, per node MTBF"),
    _spec("e16_history_validation", e16_run,
          _points(("nominal", {})),
          ("repro/tech/history.py", "repro/analysis/scaling.py",
           "repro/apps/__init__.py"),
          "model trajectory vs the public record"),
    _spec("e17_fleet_evolution", e17_run,
          _points(("rolling", {"strategy": "rolling"}),
                  ("forklift-3y", {"strategy": "forklift"})),
          ("repro/cluster/__init__.py",),
          "fleet procurement strategies (rolling vs forklift)"),
)
