"""Per-layer tracer for fflab, installed from outside the package.

The tracer wraps fflab's public layer entry points in place. A timed entry
point records a span (name, start, end, parent) that stays in memory until
the traced command ends; a counted entry point only bumps a counter, because
some of them (``rref_mod``) run hundreds of thousands of times per sweep.
A span's self time is its duration minus the time its child spans cover.

Run as a script, it executes one fflab CLI command in this process with the
wrappers installed and writes the per-layer summary as JSON:

    PYTHONPATH=src python3 perfbench/tracer.py SUMMARY.json -- sweep --ids all --out DIR

The CLI's own exit code is passed through.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import time
from collections import Counter

SPAN, COUNT = "span", "count"

# (metric name, defining module, attribute path, mode).  A span entry gives
# the metrics <name>.calls and <name>.self_s; a count entry gives <name>.
# The first dotted part of a name is its layer.
ENTRY_POINTS = (
    ("fourier.fourier_transform", "fflab.fourier", "fourier_transform", SPAN),
    ("fourier.inverse_transform", "fflab.fourier", "inverse_transform", SPAN),
    ("fourier.convolve", "fflab.fourier", "convolve", SPAN),
    ("fourier.power_iteration_norm", "fflab.fourier", "power_iteration_norm", SPAN),
    ("surfaces.extension", "fflab.surfaces", "extension", SPAN),
    ("surfaces.restriction", "fflab.surfaces", "restriction", SPAN),
    ("surfaces.bochner_riesz", "fflab.surfaces", "bochner_riesz", SPAN),
    ("qforms.enumerate_max_isotropic", "fflab.qforms", "enumerate_max_isotropic", SPAN),
    ("qforms.complementary_isotropic", "fflab.qforms", "complementary_isotropic", SPAN),
    ("qforms.enumerate_subspaces.calls", "fflab.qforms", "enumerate_subspaces", COUNT),
    ("qforms.rref_mod.calls", "fflab.qforms", "rref_mod", COUNT),
    ("qforms.is_totally_isotropic.calls", "fflab.qforms", "is_totally_isotropic", COUNT),
    ("combinatorics.additive_energy", "fflab.combinatorics", "additive_energy", SPAN),
    ("combinatorics.off_diagonal_energy", "fflab.combinatorics", "off_diagonal_energy", SPAN),
    ("combinatorics.incidence_bound_audit", "fflab.combinatorics", "incidence_bound_audit", SPAN),
    ("combinatorics.max_isotropic_slice", "fflab.combinatorics", "max_isotropic_slice", SPAN),
    ("kakeya.kakeya_maximal", "fflab.kakeya", "kakeya_maximal", SPAN),
    ("kakeya.maximal_ratio", "fflab.kakeya", "maximal_ratio", SPAN),
    ("kakeya.maximizing_base_map", "fflab.kakeya", "maximizing_base_map", SPAN),
    ("kakeya.coset_extension", "fflab.kakeya", "coset_extension", SPAN),
    ("kakeya.dual_kakeya_apply", "fflab.kakeya", "dual_kakeya_apply", SPAN),
    ("core.FFVector.constructed", "fflab.core", "FFVector.__post_init__", COUNT),
    ("core.coordinate_array.calls", "fflab.core", "coordinate_array", COUNT),
    ("harness.run_scenario", "fflab.harness.scenarios", "run_scenario", SPAN),
    ("harness.BaselineStore.load", "fflab.harness.baselines", "BaselineStore.load", SPAN),
    ("harness.reports_to_json", "fflab.harness.reporting", "reports_to_json", SPAN),
)
LAYERS = ("fourier", "surfaces", "qforms", "combinatorics", "kakeya", "harness")

ROOT = "trace.root"
ENUM_ISO = "qforms.enumerate_max_isotropic"
# raw counters behind the two enumeration ratios
ISO_DISTINCT = ENUM_ISO + ".distinct_inputs"
ISO_RETURNED = ENUM_ISO + ".returned"
ISO_CANDIDATES = ENUM_ISO + ".candidates"


class TraceSetupError(RuntimeError):
    """An entry point could not be found or rebound everywhere it is held."""


def self_times(spans) -> list:
    """Self time of each span: its duration minus its children's durations.

    ``spans`` holds (name, start, end, parent) with parent an index into
    ``spans`` or -1.  Spans of one thread nest, so the children of a span
    never overlap and their durations add up to the time they cover.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent]
        self.counts = Counter()
        self._stack = []
        self._iso_inputs = set()
        self._installed = []     # (holder, attribute, original value)

    # -- spans ------------------------------------------------------------

    def open(self, name: str, start=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter() if start is None else start
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def _current(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name, fn, after):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(self, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _counted(self, name, fn, before):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            if before is not None:
                before(self)
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    def install(self, entry_points=ENTRY_POINTS) -> None:
        """Wrap every entry point and rebind it in each fflab module that
        holds it.  Fails when an entry point is missing, or when a class or
        a module-level container of fflab still holds the unwrapped
        function, because calls through it would go untraced."""
        for name, module_name, attr, mode in entry_points:
            module = importlib.import_module(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = vars(owner).get(fn_name)
            if raw is None:
                raise TraceSetupError(f"{module_name}.{attr} not found; "
                                      f"update the entry point for {name}")
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if not inspect.isfunction(fn):
                raise TraceSetupError(f"{module_name}.{attr} is not a function")
            if mode == SPAN:
                if inspect.isgeneratorfunction(fn):
                    raise TraceSetupError(f"{name}: a generator cannot be timed")
                wrapper = self._timed(name, fn, _AFTER.get(name))
            else:
                wrapper = self._counted(name, fn, _BEFORE.get(name))
            if owner_name:
                new = classmethod(wrapper) if isinstance(raw, classmethod) else wrapper
                self._rebind(owner, fn_name, raw, new)
                continue
            for m in _fflab_modules():
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._rebind(m, key, fn, wrapper)
            left = _other_holders(fn)
            if left:
                raise TraceSetupError(f"{name} is also held by {left}; "
                                      "calls through it would go untraced")

    def _rebind(self, holder, attr, original, new) -> None:
        self._installed.append((holder, attr, original))
        setattr(holder, attr, new)

    def uninstall(self) -> None:
        while self._installed:
            holder, attr, original = self._installed.pop()
            setattr(holder, attr, original)

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-entry-point calls and self time, per-layer self time, the
        raw counters, and the root span's wall and unattributed time."""
        out = {}
        for name, _, _, mode in ENTRY_POINTS:
            if mode == SPAN:
                out[name + ".calls"] = 0
                out[name + ".self_s"] = 0.0
            else:
                out[name] = 0
        for layer in LAYERS:
            out[layer + ".self_s"] = 0.0
        out["trace.wall_s"] = 0.0
        out["trace.unattributed_s"] = 0.0
        for (name, start, end, _), own in zip(self.spans, self_times(self.spans)):
            if name == ROOT:
                out["trace.wall_s"] += end - start
                out["trace.unattributed_s"] += own
                continue
            for key, value in ((name + ".calls", 1), (name + ".self_s", own),
                               (name.split(".")[0] + ".self_s", own)):
                out[key] = out.get(key, 0) + value
        out.update(self.counts)
        out[ISO_DISTINCT] = len(self._iso_inputs)
        return out


def _fflab_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "fflab" or n.startswith("fflab."))]


def _other_holders(fn) -> list:
    """Classes and module-level containers of fflab that hold ``fn``."""
    found = []
    for m in _fflab_modules():
        for key, value in vars(m).items():
            if isinstance(value, type) and value.__module__ == m.__name__:
                values = vars(value).values()
            elif isinstance(value, dict):
                values = value.values()
            elif isinstance(value, (list, tuple, set, frozenset)):
                values = value
            else:
                continue
            if any(v is fn for v in values):
                found.append(f"{m.__name__}.{key}")
    return found


def _count_points(tracer, args, result):
    f = args[0]
    tracer.counts["fourier.points.computed"] += f.field.p ** f.dim


def _record_isotropic(tracer, args, result):
    Q = args[0]
    tracer._iso_inputs.add((Q.field.p, Q.A.shape, Q.A.tobytes()))
    tracer.counts[ISO_RETURNED] += len(result)


def _count_candidate(tracer):
    if tracer._current() == ENUM_ISO:
        tracer.counts[ISO_CANDIDATES] += 1


def _count_report_bytes(tracer, args, result):
    tracer.counts["harness.report_bytes"] += len(result.encode("utf-8"))


_AFTER = {
    "fourier.fourier_transform": _count_points,
    "fourier.inverse_transform": _count_points,
    ENUM_ISO: _record_isotropic,
    "harness.reports_to_json": _count_report_bytes,
}
_BEFORE = {"qforms.is_totally_isotropic.calls": _count_candidate}


def derive(totals: dict) -> dict:
    """Turn raw counters into the published ratios:
    distinct (p, A) inputs per enumeration call, and subspaces returned per
    candidate tested.  A ratio with no calls behind it is 0."""
    out = {k: v for k, v in totals.items()
           if k not in (ISO_DISTINCT, ISO_RETURNED, ISO_CANDIDATES)}
    calls = totals.get(ENUM_ISO + ".calls", 0)
    candidates = totals.get(ISO_CANDIDATES, 0)
    out[ENUM_ISO + ".distinct_share"] = (
        totals.get(ISO_DISTINCT, 0) / calls if calls else 0.0)
    out[ENUM_ISO + ".yield_ratio"] = (
        totals.get(ISO_RETURNED, 0) / candidates if candidates else 0.0)
    out.setdefault("fourier.points.computed", 0)
    out.setdefault("harness.report_bytes", 0)
    return out


def main(argv) -> int:
    start = time.perf_counter()
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SUMMARY.json -- <fflab cli arguments>",
              file=sys.stderr)
        return 2
    tracer = Tracer()
    root = tracer.open(ROOT, start=start)
    import fflab.cli
    tracer.install()
    try:
        code = fflab.cli.main(argv[2:])
    finally:
        tracer.close(root)
    with open(argv[0], "w") as fh:
        json.dump(tracer.summary(), fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
