"""The repository's benchmark: one workload, one seed, one result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload central_10k --seed 0 \
        --seconds 20 --trace 0

``--trace 0`` runs fresh-process samples of the workload for about
``--seconds`` seconds (at least one), each timing set-up and the run
with nothing installed into the program, and checks every sample's
simulated outcome.  It reports the end-to-end metrics as medians.

``--trace 1`` runs one untraced sample and one traced sample, and
reports the per-layer metrics: host self-time folded by layer, calls
at the layer boundaries, the hardware-independent counters, and
``trace.overhead_ratio`` (traced run time over untraced run time).

The last line of standard output is the JSON result; the lines before
it name every metric with its unit and the run's identity (machine,
seed, code fingerprint).  Exit status is 0 when every sample ran,
non-zero (with no result line) when one could not.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: End-to-end metrics (untraced runs): name -> unit.
END_TO_END: Dict[str, str] = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced runs): name -> unit.
PER_LAYER: Dict[str, str] = {
    "sim.events": "count",
    "sim.run_calls": "count",
    "sim.self_s": "s",
    "network.transfers": "count",
    "network.transfer_calls": "count",
    "network.transfer_ex_calls": "count",
    "network.events_per_transfer": "events/transfer",
    "network.bytes": "bytes",
    "network.wait_sim_s": "sim_s",
    "network.drops": "count",
    "network.self_s": "s",
    "health.self_s": "s",
    "health.events_per_node_interval": "events/node/T",
    "health.messages_sent": "count",
    "health.messages_delivered": "count",
    "health.suspicions": "count",
    "health.indirect_probes": "count",
    "health.false_deaths": "count",
    "health.mttd_sim_s": "sim_s",
    "jobs.self_s": "s",
    "jobs.run_jobs_campaign_calls": "count",
    "jobs.grants": "count",
    "jobs.expiries": "count",
    "jobs.fencing_rejections": "count",
    "jobs.log_records": "count",
    "jobs.useful_grant_ratio": "ratio",
    "messaging.self_s": "s",
    "messaging.retries": "count",
    "messaging.acks": "count",
    "messaging.duplicates": "count",
    "fault.self_s": "s",
    "fault.run_campaign_calls": "count",
    "fault.restarts": "count",
    "fault.commits": "count",
    "fault.lost_work_sim_s": "sim_s",
    "apps.self_s": "s",
    "scheduler.self_s": "s",
    "obs.self_s": "s",
    "other.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Set-up is timed in at least this many fresh processes per run.
MIN_SETUPS = 3

#: Every child must finish by this many seconds after the run starts.
DEADLINE_S = 170.0


class SampleFailed(RuntimeError):
    """A sample process crashed, timed out or printed no result."""


def _child(name: str, seed: int, mode: str, deadline: float,
           identity: bool = False) -> Dict[str, Any]:
    command = [sys.executable, str(HERE / "sample.py"),
               "--workload", name, "--seed", str(seed), "--mode", mode]
    if identity:
        command.append("--identity")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise SampleFailed(f"{mode} sample timed out after "
                           f"{timeout:.0f}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleFailed(f"{mode} sample exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def _compile_sources() -> None:
    """Byte-compile the library once, so no sample's import pays it."""
    proc = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SampleFailed("cannot compile the library sources:\n"
                           f"{proc.stdout.strip()}{proc.stderr.strip()}")


def _report_problems(label: str, sample: Dict[str, Any]) -> None:
    for problem in sample["problems"]:
        print(f"  WRONG OUTCOME ({label}): {problem}")


def run_untraced(name: str, seed: int, seconds: float,
                 deadline: float) -> Tuple[Dict[str, float], int, int,
                                           Dict[str, Any]]:
    """Fresh-process samples for about ``seconds``; end-to-end medians.

    A first, untimed set-up process computes the identity and lets the
    host settle: the first sample after a heavy run read about 20%
    slow.  Another sample starts only while at least half of a typical
    one still fits, so a run overshoots ``seconds`` by less than half a
    sample.
    """
    identity = _child(name, seed, "setup", deadline,
                      identity=True)["identity"]
    samples: List[Dict[str, Any]] = []
    durations: List[float] = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        samples.append(_child(name, seed, "full", deadline))
        now = time.monotonic()
        durations.append(now - began)
        if now - start + statistics.median(durations) / 2 > seconds:
            break
    setup_samples = list(samples)
    while len(setup_samples) < MIN_SETUPS:
        setup_samples.append(_child(name, seed, "setup", deadline))
    wrong = 0
    for index, sample in enumerate(samples):
        if sample["problems"]:
            wrong += 1
            _report_problems(f"sample {index}", sample)
    # A wrong outcome is never timed as a success.
    timed = [s for s in samples if not s["problems"]] or samples
    values = {
        "wall_s": statistics.median(s["wall_s"] for s in timed),
        "setup_s": statistics.median(s["setup_s"] for s in setup_samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"]
                                         for s in samples),
    }
    print("  samples: wall_s " + " ".join(
        f"{s['wall_s']:.4f}" for s in samples) + "; setup_s " + " ".join(
        f"{s['setup_s']:.4f}" for s in setup_samples))
    print(f"perfbench {name} seed={seed}: {len(samples)} timed "
          f"sample(s), {len(setup_samples)} set-up sample(s), {wrong} "
          "wrong outcome(s)")
    return values, len(samples), wrong, identity


def run_traced(name: str, seed: int, deadline: float
               ) -> Tuple[Dict[str, float], int, int, Dict[str, Any]]:
    """One untraced and one traced sample; per-layer values."""
    plain = _child(name, seed, "full", deadline, identity=True)
    traced = _child(name, seed, "traced", deadline)
    wrong = 0
    for label, sample in (("untraced", plain), ("traced", traced)):
        if sample["problems"]:
            wrong += 1
            _report_problems(label, sample)
    values: Dict[str, float] = {
        f"{layer}.self_s": seconds
        for layer, seconds in traced["self_s"].items()}
    values.update(traced["counters"])
    values["trace.overhead_ratio"] = traced["traced_run_s"] / plain["wall_s"]
    folded = sum(traced["self_s"].values())
    print(f"perfbench {name} seed={seed} traced: run "
          f"{traced['traced_run_s']:.4f}s traced vs {plain['wall_s']:.4f}s "
          f"untraced; self time {folded:.4f}s of "
          f"{traced['traced_total_s']:.4f}s profiled; {wrong} wrong "
          "outcome(s)")
    return ({metric: values.get(metric, 0.0) for metric in PER_LAYER},
            2, wrong, plain["identity"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through Python on SIGTERM, so subprocess.run kills and reaps
    # the sample in flight instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    deadline = time.monotonic() + DEADLINE_S
    try:
        _compile_sources()
        if args.trace:
            values, attempted, wrong, ident = run_traced(
                args.workload, args.seed, deadline)
            units = PER_LAYER
        else:
            values, attempted, wrong, ident = run_untraced(
                args.workload, args.seed, args.seconds, deadline)
            units = END_TO_END
    except SampleFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:>16.6f} {metric['unit']}")
    print("identity " + json.dumps(ident, sort_keys=True))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": wrong, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
