"""One workload sample in a fresh process; prints one JSON line.

Run by ``run.py``, one process per sample, so every sample pays the
import and build cost a user pays::

    python3 perfbench/sample.py --workload central_10k --seed 0 \
        --mode full|setup|traced [--identity]

* ``full``: time set-up and the run, check the outcome, report peak
  resident memory.  Nothing is installed into the program.
* ``setup``: time set-up only.
* ``traced``: profile set-up and run with ``cProfile``, count the layer
  boundary calls, record fabric transfers, and read the per-layer
  counters.  Its times are only used for the per-layer numbers.
"""

import argparse
import cProfile
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED_PATH = HERE / "expected_outcomes.json"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

__all__ = ["expected_record", "measure", "measure_traced", "identity"]


def _normalised(record: Dict[str, Any]) -> Dict[str, Any]:
    """The record as JSON will carry it (tuples become lists)."""
    return json.loads(json.dumps(record))


def expected_record(name: str, seed: int) -> Optional[Dict[str, Any]]:
    """The pinned outcome for ``name`` at the default seed, else None.

    A default-seed run with no pinned record gets an empty one, so it
    fails its check instead of passing unpinned.
    """
    if seed != workloads.DEFAULT_SEED:
        return None
    pinned = json.loads(EXPECTED_PATH.read_text())
    return pinned.get(name, {})


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _checked(workload: Any) -> Dict[str, Any]:
    record = _normalised(workload.outcome())
    problems = workloads.check(
        workload, record, expected_record(workload.name, workload.seed))
    return {"record": record, "problems": problems}


def measure(name: str, seed: int, run: bool = True) -> Dict[str, Any]:
    """Untraced sample: set-up time, run time, outcome check, memory.

    Set-up starts before the workload's first ``import repro``.
    """
    start = time.perf_counter()
    workload = workloads.make_workload(name, seed)
    workload.setup()
    ready = time.perf_counter()
    result: Dict[str, Any] = {"setup_s": ready - start}
    if run:
        workload.run()
        result["wall_s"] = time.perf_counter() - ready
        result["peak_rss_mb"] = _peak_rss_mb()
        result.update(_checked(workload))
    return result


def measure_traced(name: str, seed: int,
                   small: bool = False) -> Dict[str, Any]:
    """Traced sample: per-layer self time, boundary calls, counters."""
    import repro  # noqa: F401  (import cost stays outside the profile)
    from layers import Boundaries, fold_self_time
    from repro.lint import LAYERS

    workload = workloads.make_workload(name, seed, small=small,
                                       record_transfers=True)
    # C builtins are not profiled: their time stays in the caller.
    profile = cProfile.Profile(builtins=False)
    with Boundaries() as bounds:
        start = time.perf_counter()
        profile.enable()
        workload.setup()
        ready = time.perf_counter()
        workload.run()
        profile.disable()
        end = time.perf_counter()
    sims = bounds.instances["sims"]
    fabrics = bounds.instances["fabrics"]
    events = sum(sim.events_executed for sim in sims)
    transfers = sum(fabric.transfer_count for fabric in fabrics)
    counters: Dict[str, float] = {
        "sim.events": events,
        "network.transfers": transfers,
        "network.bytes": sum(fabric.bytes_moved for fabric in fabrics),
        "network.drops": sum(fabric.fault_plan.drops for fabric in fabrics
                             if fabric.fault_plan is not None),
        "network.events_per_transfer": (events / transfers
                                        if transfers else 0.0),
    }
    counters.update(bounds.calls)
    counters.update(workload.counters(events))
    result = {
        "traced_run_s": end - ready,
        "traced_total_s": end - start,
        "self_s": fold_self_time(profile, SRC / "repro", LAYERS),
        "counters": counters,
    }
    result.update(_checked(workload))
    return result


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def identity(name: str, seed: int) -> Dict[str, Any]:
    """What this result measured: machine, seed and code fingerprint."""
    from repro.xp import code_fingerprint

    return {
        "workload": name,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "code_fingerprint": code_fingerprint(
            workloads.WORKLOADS[name].roots, SRC),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("full", "setup", "traced"),
                        default="full")
    parser.add_argument("--identity", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "traced":
        result = measure_traced(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed,
                         run=args.mode == "full")
    if args.identity:
        result["identity"] = identity(args.workload, args.seed)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
