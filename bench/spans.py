"""Span tracing of the library's six modules, installed from outside ``src/``.

``Tracer.install`` wraps every public function defined in each layer module
(plus ``FactoredForm.expand`` and numpy's ``polyroots``, the solver's seeding
step) and rebinds the wrapper at every import site: each ``quadrinomials``
module and the package itself.  A span is ``[name, start, end, parent, op]``;
spans stay in memory and are summarised into per-layer metrics at the end.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

from numpy.polynomial import polynomial as npp

from quadrinomials import NoConvergence

LAYERS = ("polycore", "chebyshev", "families", "stability", "univalent", "cli")
METHODS = {"families": ("FactoredForm.expand",)}
# Scalar evaluators called once per sample or per Newton step: a span per
# call would cost more than the call and swamp their callers' self time.
UNTRACED = {"chebyshev.cheb_U", "chebyshev.cheb_U_prime", "stability.boundary_point"}
SEED = "polycore.seed"

# Besides <layer>.self_s, the self time of all spans in one layer:
# (metric, span name, statistic); statistic is calls, s (inclusive seconds),
# self_s, or an attribute summed over the span's calls.
LAYER_METRICS = (
    ("polycore.find_roots.calls", "polycore.find_roots", "calls"),
    ("polycore.find_roots.self_s", "polycore.find_roots", "self_s"),
    ("polycore.find_roots.degree_sum", "polycore.find_roots", "degree"),
    ("polycore.find_roots.multiple_roots", "polycore.find_roots", "multiple_roots"),
    ("polycore.find_roots.no_convergence", "polycore.find_roots", "no_convergence"),
    ("polycore.find_roots.warnings", "polycore.find_roots", "warnings"),
    ("polycore.seed.s", SEED, "s"),
    ("stability.cohn_on_circle.calls", "stability.cohn_on_circle", "calls"),
    ("stability.cohn_on_circle.self_s", "stability.cohn_on_circle", "self_s"),
    ("stability.trinomial_in_disk.self_s", "stability.trinomial_in_disk", "self_s"),
    ("families.verify_criterion.self_s", "families.verify_criterion", "self_s"),
    ("families.factorize_limit_case.self_s", "families.factorize_limit_case", "self_s"),
    ("families.verify_factorization.self_s", "families.verify_factorization", "self_s"),
    ("families.FactoredForm.expand.s", "families.FactoredForm.expand", "s"),
    ("chebyshev.positive_roots_U_prime.calls", "chebyshev.positive_roots_U_prime", "calls"),
    ("chebyshev.positive_roots_U_prime.s", "chebyshev.positive_roots_U_prime", "s"),
    ("chebyshev.positive_roots_U.s", "chebyshev.positive_roots_U", "s"),
    ("univalent.simple_curve_scan.calls", "univalent.simple_curve_scan", "calls"),
    ("univalent.simple_curve_scan.s", "univalent.simple_curve_scan", "s"),
    ("univalent.simple_curve_scan.segments", "univalent.simple_curve_scan", "segments"),
    ("univalent.boundary_image.s", "univalent.boundary_image", "s"),
    ("univalent.suffridge_membership.self_s", "univalent.suffridge_membership", "self_s"),
    ("univalent.quasi_extremal_checks.self_s", "univalent.quasi_extremal_checks", "self_s"),
    ("cli.main.calls", "cli.main", "calls"),
    ("cli.main.self_s", "cli.main", "self_s"),
    ("cli.main.bytes_out", "cli.main", "bytes_out"),
)
UNITS = {"s": "s", "self_s": "s", "bytes_out": "bytes"}


def _find_roots_attrs(args, kwargs, result, new_warnings):
    attrs = {"degree": args[0].degree, "warnings": sum(
        issubclass(w.category, RuntimeWarning) for w in new_warnings)}
    if isinstance(result, NoConvergence):
        attrs["no_convergence"] = 1
    else:
        attrs["multiple_roots"] = sum(r.multiplicity > 1 for r in result.roots)
    return attrs


def _scan_attrs(args, kwargs, result, new_warnings):
    return {"segments": len(args[0].points)}


def _cli_attrs(args, kwargs, result, new_warnings):
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if "--out" in argv and isinstance(result, int):
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            return {"bytes_out": os.path.getsize(path)}
    return {}


ATTRS = {
    "polycore.find_roots": _find_roots_attrs,
    "univalent.simple_curve_scan": _scan_attrs,
    "cli.main": _cli_attrs,
}


class Tracer:
    """Records spans only while ``recording`` is set, so oracle work between
    ops passes straight through the wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self.attrs: dict[int, dict] = {}
        self.stack: list[int] = []
        self.recording = False
        self.op = -1
        self.warning_log: list = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        annotate = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
            self.spans.append(span)
            self.stack.append(index)
            seen = len(self.warning_log)
            outcome = None
            span[1] = time.perf_counter()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except NoConvergence as exc:
                outcome = exc
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
                if annotate and outcome is not None:
                    self.attrs[index] = annotate(args, kwargs, outcome, self.warning_log[seen:])

        return wrapper

    def _targets(self):
        """(span name, owner, attribute, function) of everything to wrap."""
        for layer in LAYERS:
            module = sys.modules[f"quadrinomials.{layer}"]
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and name not in UNTRACED
                ):
                    yield name, None, attr, fn
            for qual in METHODS.get(layer, ()):
                cls_name, meth = qual.split(".")
                cls = getattr(module, cls_name)
                yield f"{layer}.{qual}", cls, meth, cls.__dict__[meth]

    def install(self) -> None:
        """Wrap every target and rebind it wherever it was imported."""
        sites = [m for n, m in sys.modules.items() if n == "quadrinomials" or n.startswith("quadrinomials.")]
        for name, owner, attr, fn in list(self._targets()):
            wrapper = self._wrap(name, fn)
            if owner is not None:
                self._rebind(owner, attr, wrapper)
                continue
            for module in sites:
                for site_attr, value in list(vars(module).items()):
                    if value is fn:
                        self._rebind(module, site_attr, wrapper)
        self._rebind(npp, "polyroots", self._wrap(SEED, npp.polyroots))

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds, attribute sums."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            st = stats[name]
            st["calls"] += 1
            st["s"] += end - start
            st["self_s"] += end - start - child[i]
            for key, value in self.attrs.get(i, {}).items():
                st[key] += value
        return stats

    def layer_metrics(self) -> tuple[dict[str, float], dict[str, str]]:
        """Values and units of every metric in LAYER_METRICS."""
        stats = self.summary()
        values, units = {}, {}
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(
                st["self_s"] for name, st in stats.items() if name.startswith(layer + "."))
            units[f"{layer}.self_s"] = "s"
        for metric, span, stat in LAYER_METRICS:
            values[metric] = stats.get(span, {}).get(stat, 0.0)
            units[metric] = UNITS.get(stat, "count")
        return values, units
