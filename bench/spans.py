"""Per-layer timing from outside the program.

A ``Tracer`` wraps public functions of the program at every place where
their callers look them up: each loaded ``gpchoice`` module attribute (and
``scipy.optimize.linprog`` itself) that is the original function object is
replaced by a timing wrapper.  Nested calls form spans; a layer's self time
is its span's duration minus the time of the spans it caused.  A name that no
longer exists is skipped, so it reads as zero calls.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter

# layer name -> (defining module, public function name)
LAYERS = {
    "selectors.solve_choice": ("gpchoice.selectors", "solve_choice"),
    "selectors.expand": ("gpchoice.selectors", "expand"),
    "posynomial.standardize": ("gpchoice.posynomial", "standardize"),
    "solver.solve": ("gpchoice.solver", "solve"),
    "dual.build_dual": ("gpchoice.dual", "build_dual"),
    "solver.solve_dual": ("gpchoice.solver", "solve_dual"),
    "solver.recover_primal": ("gpchoice.solver", "recover_primal"),
    "scipy.linprog": ("scipy.optimize", "linprog"),
}

# layers reported by call count alone; their time still leaves the self time
# of the caller, so solve_dual.self_ms excludes time in linprog
COUNT_ONLY = ("scipy.linprog",)
STATUSES = ("optimal", "infeasible", "unbounded", "iteration_limit")


def _lookup_sites(original) -> list[tuple[object, str]]:
    """Every (module, attribute) through which callers reach ``original``."""
    sites = []
    for name, module in list(sys.modules.items()):
        if module is None:
            continue
        if name == "gpchoice" or name.startswith("gpchoice.") or name == "scipy.optimize":
            for attr, value in list(vars(module).items()):
                if value is original:
                    sites.append((module, attr))
    return sites


class Tracer:
    """Aggregates calls, inclusive and self time per layer, plus counters."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.seconds: Counter[str] = Counter()
        self.self_seconds: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[list] = []  # [layer, start, seconds in child spans]
        self._patches: list[tuple[object, str, object, object]] = []

    def install(self) -> None:
        if not self._patches:  # find the lookup sites once, while unwrapped
            for layer, (module_name, attr) in LAYERS.items():
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(layer, original)
                self._patches += [(site, site_attr, original, wrapper)
                                  for site, site_attr in _lookup_sites(original)]
        for site, attr, _, wrapper in self._patches:
            setattr(site, attr, wrapper)

    def uninstall(self) -> None:
        for site, attr, original, _ in reversed(self._patches):
            setattr(site, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, layer: str, fn):
        def traced(*args, **kwargs):
            outer = all(frame[0] != layer for frame in self._stack)
            frame = [layer, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - frame[1]
                self._stack.pop()
                self.calls[layer] += 1
                self.self_seconds[layer] += elapsed - frame[2]
                if outer:  # a recursive call is already inside the outer span
                    self.seconds[layer] += elapsed
                if self._stack:
                    self._stack[-1][2] += elapsed
            self._observe(layer, result, outer)
            return result

        return traced

    def _observe(self, layer: str, result, outer: bool) -> None:
        if layer == "solver.solve_dual" and outer:
            # a nested solve on a reduced program reports its iterations
            # through the outer result as well
            self.counts["solver.solve_dual.iterations"] += getattr(result, "iterations", 0)
        elif layer == "solver.solve":
            status = getattr(getattr(result, "status", None), "value", None)
            if status is not None:
                self.counts[f"solver.status.{status}"] += 1

    def merge(self, other: dict) -> None:
        """Add the ``snapshot()`` of another tracer, e.g. from a child process."""
        for key, target in (
            ("calls", self.calls), ("seconds", self.seconds),
            ("self_seconds", self.self_seconds), ("counts", self.counts),
        ):
            target.update(other.get(key, {}))

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "seconds": dict(self.seconds),
            "self_seconds": dict(self.self_seconds),
            "counts": dict(self.counts),
        }

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-pass metrics for every layer in LAYERS, zero where unused."""
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer] / passes, "count")
            if layer in COUNT_ONLY:
                continue
            out[f"{layer}.ms"] = (self.seconds[layer] * 1e3 / passes, "ms")
            out[f"{layer}.self_ms"] = (self.self_seconds[layer] * 1e3 / passes, "ms")
        out["solver.solve_dual.iterations"] = (
            self.counts["solver.solve_dual.iterations"] / passes, "count")
        for status in STATUSES:
            key = f"solver.status.{status}"
            out[key] = (self.counts[key] / passes, "count")
        return out
