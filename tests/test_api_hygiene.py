"""API hygiene: exports resolve and the layering rules DESIGN.md
promises actually hold.

Docstring coverage used to be checked here by reflection (import every
module, inspect every ``__all__`` entry); that pass was slower and saw
only re-exported names.  It is now lint rule REP009, which walks the
AST of every file.

``import repro`` must stay cheap: ``scipy.stats`` is loaded inside the
two function bodies that use it, and ``TestImportHygiene`` gates that
in a fresh interpreter and pins that the lazy import changed no answer.
"""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import repro
from repro.analysis.stats import summarize
from repro.fault.availability import probability_at_least, spares_for_sla

PACKAGES = [
    "repro",
    "repro.obs",
    "repro.sim",
    "repro.tech",
    "repro.nodes",
    "repro.network",
    "repro.messaging",
    "repro.cluster",
    "repro.scheduler",
    "repro.health",
    "repro.fault",
    "repro.apps",
    "repro.io",
    "repro.analysis",
]


class TestExports:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_names_resolve(self, package_name):
        package = importlib.import_module(package_name)
        assert hasattr(package, "__all__"), f"{package_name} lacks __all__"
        for name in package.__all__:
            assert hasattr(package, name), (
                f"{package_name}.__all__ lists {name!r} but it is missing"
            )

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_is_sorted_unique(self, package_name):
        package = importlib.import_module(package_name)
        exported = list(package.__all__)
        assert len(exported) == len(set(exported)), (
            f"{package_name}.__all__ has duplicates"
        )


class TestLayering:
    """DESIGN.md: no module imports a higher layer."""

    FORBIDDEN = {
        "repro.obs": ["repro.sim", "repro.tech", "repro.nodes",
                      "repro.network", "repro.messaging", "repro.cluster",
                      "repro.scheduler", "repro.fault", "repro.apps",
                      "repro.io", "repro.analysis"],
        "repro.sim": ["repro.tech", "repro.nodes", "repro.network",
                      "repro.messaging", "repro.cluster", "repro.scheduler",
                      "repro.fault", "repro.apps", "repro.io",
                      "repro.analysis"],
        "repro.tech": ["repro.nodes", "repro.network", "repro.messaging",
                       "repro.cluster", "repro.apps"],
        "repro.nodes": ["repro.network", "repro.messaging", "repro.cluster",
                        "repro.apps"],
        "repro.network": ["repro.messaging", "repro.cluster", "repro.apps"],
        "repro.messaging": ["repro.cluster", "repro.scheduler", "repro.apps"],
        "repro.health": ["repro.messaging", "repro.cluster", "repro.fault",
                         "repro.io", "repro.apps"],
        "repro.analysis": ["repro.sim", "repro.network", "repro.messaging",
                           "repro.cluster", "repro.scheduler", "repro.apps"],
    }

    @pytest.mark.parametrize("package_name", sorted(FORBIDDEN))
    def test_no_upward_imports(self, package_name):
        import sys

        package = importlib.import_module(package_name)
        forbidden = self.FORBIDDEN[package_name]
        # Inspect the source of each submodule for forbidden imports
        # (runtime sys.modules checks would be confounded by other
        # packages importing both).
        offenders = []
        for info in pkgutil.iter_modules(package.__path__):
            module = importlib.import_module(f"{package_name}.{info.name}")
            try:
                source = inspect.getsource(module)
            except OSError:  # pragma: no cover
                continue
            for target in forbidden:
                if (f"from {target}" in source
                        or f"import {target}" in source):
                    offenders.append((module.__name__, target))
        assert not offenders, f"upward imports: {offenders}"


class TestImportHygiene:
    def test_import_repro_leaves_scipy_unloaded(self):
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        probe = ("import sys, repro; "
                 "print(sorted({'scipy', 'scipy.stats'} & set(sys.modules)))")
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             check=True, capture_output=True, text=True)
        assert out.stdout.strip() == "[]"

    # The ``==`` checks against the live scipy expressions are the gate
    # that the lazy import changed no answer.  The literal values were
    # produced with scipy 1.17.1; they are held to rel 1e-9 so that a
    # scipy release that moves the last digits of ``binom.sf`` or
    # ``t.ppf`` does not fail the pin.
    @pytest.mark.parametrize("usable, nodes, availability, expected", [
        (95, 100, 0.97, 0.9191628710986264),
        (9990, 10000, 0.999, 0.583039760629257),
        (3, 5, 0.5, 0.5),
        (1, 1, 0.25, 0.25),
    ])
    def test_probability_at_least_is_the_binomial_tail(
            self, usable, nodes, availability, expected):
        got = probability_at_least(usable, nodes, availability)
        assert got == float(stats.binom.sf(usable - 1, nodes,
                                           availability))
        assert got == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("required, availability, confidence, spares", [
        (1000, 0.999, 0.999, 5),
        (64, 0.99, 0.9999, 5),
        (10000, 0.9995, 0.999, 13),
    ])
    def test_spares_for_sla_unchanged(self, required, availability,
                                      confidence, spares):
        assert spares_for_sla(required, availability, confidence) == spares

    @pytest.mark.parametrize("samples, confidence, low, high", [
        ([1.0, 2.0, 4.0, 8.0], 0.95, -1.1759430482302937, 8.675943048230295),
        ([0.5, 0.25, 0.125], 0.99, -0.8024444546225018, 1.3857777879558353),
        ([3.0, 3.5], 0.9, 1.6715621213312408, 4.828437878668759),
    ])
    def test_summarize_interval_is_the_t_interval(self, samples, confidence,
                                                  low, high):
        summary = summarize(samples, confidence)
        count = len(samples)
        halfwidth = (summary.std / np.sqrt(count)
                     * stats.t.ppf((1 + confidence) / 2.0, count - 1))
        assert summary.ci_low == summary.mean - float(halfwidth)
        assert summary.ci_high == summary.mean + float(halfwidth)
        assert (summary.ci_low, summary.ci_high) == pytest.approx(
            (low, high), rel=1e-9)
