"""Self-tests of the benchmark, on shrunken workloads.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import sample  # noqa: E402
import workloads  # noqa: E402
from repro.lint import LAYERS  # noqa: E402  (sample put src/ on the path)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
SEED = 5


@pytest.fixture(scope="module")
def traced_twice():
    """Every workload, small, traced twice in one process at one seed."""
    return {name: [sample.measure_traced(name, SEED, small=True)
                   for _ in range(2)]
            for name in workloads.WORKLOADS}


def test_metric_and_workload_names_are_well_formed():
    names = ([m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
             + [w["name"] for w in SPEC["workloads"]])
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.match(name), name


def test_declared_metrics_are_the_emitted_ones():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        run.PER_LAYER
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_same_seed_runs_give_identical_counters(traced_twice):
    for name, (first, second) in traced_twice.items():
        assert first["problems"] == [], name
        assert first["record"] == second["record"], name
        assert first["counters"] == second["counters"], name
        assert first["counters"]["sim.events"] > 0, name
        # Every counter is a declared per-layer metric.
        assert set(first["counters"]) <= set(run.PER_LAYER), name


def test_outcome_check_rejects_a_perturbed_expected_record(traced_twice):
    for name, (first, _) in traced_twice.items():
        workload = workloads.make_workload(name, SEED, small=True)
        record = first["record"]
        assert workloads.check(workload, record, record) == []
        for key, value in record.items():
            perturbed = copy.deepcopy(record)
            perturbed[key] = ([value, "perturbed"] if not isinstance(
                value, (int, float)) else value + 1)
            problems = workloads.check(workload, record, perturbed)
            assert problems and key in problems[-1], (name, key)


def test_invariants_reject_wrong_outcomes(traced_twice):
    def broken(name, **changes):
        record = dict(traced_twice[name][0]["record"], **changes)
        return workloads.make_workload(name, SEED).problems(record)

    assert broken("central_10k", detected=[])
    assert broken("central_10k", false_deaths=1)
    assert broken("gossip_10k", false_verdicts=[[7, "gossip-dead-by-3"]])
    assert not broken("gossip_10k",
                      false_verdicts=[[7, "gossip-dead-by-0"],
                                      [0, "gossip-dead-by-3"]])
    assert broken("jobs_swf", violations=1)
    assert broken("jobs_swf", unfinished=1)
    assert broken("summa_campaign", answers_match=False)
    assert broken("summa_campaign", restarts=0)


def test_layer_fold_covers_every_layer_and_sums_to_traced_time(
        traced_twice):
    for name, (first, _) in traced_twice.items():
        self_s = first["self_s"]
        assert set(self_s) == set(LAYERS) | {"other"}, name
        total = sum(self_s.values())
        assert total == pytest.approx(first["traced_total_s"], rel=0.05)
        assert self_s["sim"] > 0 and self_s["network"] > 0, name
    # Each workload's own layer shows up in its profile.
    assert traced_twice["gossip_10k"][0]["self_s"]["health"] > 0
    assert traced_twice["jobs_swf"][0]["self_s"]["jobs"] > 0
    assert traced_twice["summa_campaign"][0]["self_s"]["messaging"] > 0


def test_per_layer_self_time_names_are_layers():
    for metric in run.PER_LAYER:
        layer, _, kind = metric.partition(".")
        if kind == "self_s":
            assert layer in LAYERS or layer == "other", metric


def test_every_workload_has_a_pinned_record():
    pinned = json.loads(sample.EXPECTED_PATH.read_text())
    assert set(pinned) == set(workloads.WORKLOADS)
    for name, record in pinned.items():
        workload = workloads.make_workload(name, workloads.DEFAULT_SEED)
        assert workload.problems(record) == [], name


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "jobs_swf",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
