"""Per-layer attribution, measured from outside the program.

Two instruments, both installed by the benchmark around an unmodified
library:

* :func:`fold_self_time` folds a ``cProfile`` run's per-function self
  time into the ``repro.lint.LAYERS`` keys by the ``repro.<package>``
  that defines each function; everything else (stdlib, numpy, this
  benchmark, and C builtins when they are profiled) lands in
  ``other``.
* :class:`Boundaries` wraps the calls at the layer boundaries to count
  them, and keeps every ``Simulator`` and ``Fabric`` the workload
  builds so their public counters can be read after the run, including
  those a campaign runner builds internally.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Tuple

__all__ = ["BOUNDARY_CALLS", "Boundaries", "fold_self_time", "layer_of"]

#: (module, owner attribute or "", function, metric name).  An empty
#: owner means a module-level function, looked up on the module.
BOUNDARY_CALLS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.engine", "Simulator", "run", "sim.run_calls"),
    ("repro.network.fabric", "Fabric", "transfer",
     "network.transfer_calls"),
    ("repro.network.fabric", "Fabric", "transfer_ex",
     "network.transfer_ex_calls"),
    ("repro.fault", "", "run_campaign", "fault.run_campaign_calls"),
    ("repro.jobs", "", "run_jobs_campaign",
     "jobs.run_jobs_campaign_calls"),
)

#: Classes whose instances are collected: (module, class, registry key).
_REGISTERED = (
    ("repro.sim.engine", "Simulator", "sims"),
    ("repro.network.fabric", "Fabric", "fabrics"),
)


def layer_of(filename: str, package_dir: Path,
             layers: Iterable[str]) -> str:
    """The layer a source file belongs to, or ``"other"``.

    ``package_dir`` is the ``repro`` package directory; a file in
    ``repro/<pkg>/`` belongs to ``<pkg>``, a top-level module such as
    ``repro/units.py`` to its stem, when that name is a layer.
    """
    try:
        parts = Path(filename).resolve().relative_to(package_dir).parts
    except ValueError:
        return "other"
    name = parts[0] if len(parts) > 1 else Path(parts[0]).stem
    return name if name in set(layers) else "other"


def fold_self_time(profile: cProfile.Profile, package_dir: Path,
                   layers: Iterable[str]) -> Dict[str, float]:
    """Host self-seconds per layer: every key of ``layers`` plus
    ``"other"``, summing each profiled function's inline time."""
    names = list(layers)
    totals = {name: 0.0 for name in names}
    totals["other"] = 0.0
    by_file: Dict[str, str] = {}
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):  # a C builtin
            layer = "other"
        else:
            filename = code.co_filename
            layer = by_file.get(filename)
            if layer is None:
                layer = layer_of(filename, package_dir, names)
                by_file[filename] = layer
        totals[layer] += entry.inlinetime
    return totals


class Boundaries:
    """Context manager: count boundary calls and collect instances.

    Patches are class or module attributes, restored on exit, so they
    see every caller, including the library's own.
    """

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {
            metric: 0 for *_, metric in BOUNDARY_CALLS}
        self.instances: Dict[str, List[Any]] = {
            key: [] for *_, key in _REGISTERED}
        self._undo: List[Tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attr: str,
               make: Callable[[Any], Any]) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def __enter__(self) -> "Boundaries":
        for module, owner, attr, metric in BOUNDARY_CALLS:
            target = importlib.import_module(module)
            if owner:
                target = getattr(target, owner)
            self._patch(target, attr, self._counting(metric))
        for module, cls, key in _REGISTERED:
            target = getattr(importlib.import_module(module), cls)
            self._patch(target, "__init__", self._collecting(key))
        return self

    def __exit__(self, *exc: Any) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _counting(self, metric: str) -> Callable[[Any], Any]:
        calls = self.calls

        def make(original):
            def counted(*args, **kwargs):
                calls[metric] += 1
                return original(*args, **kwargs)
            return counted
        return make

    def _collecting(self, key: str) -> Callable[[Any], Any]:
        found = self.instances[key]

        def make(original):
            def init(instance, *args, **kwargs):
                original(instance, *args, **kwargs)
                found.append(instance)
            return init
        return make
