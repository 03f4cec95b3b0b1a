"""Per-layer spans, recorded from outside the library.

The tracer replaces each public function of a layer with a wrapper that
times it.  A wrapper keeps a stack of the time its children covered, so a
span's self time is its duration minus its children's durations.  Only
totals per function are kept, not single spans, so memory stays flat over
any run length.

A module-level function is bound by name in every module that imports it
(for example `klopsch_rep` in `group`, `cli` and the package).  `install`
replaces it in every module of the package, and in module-level dicts such
as the CLI's route table, so that no call can bypass the wrapper.
"""

import functools
import sys
import time

import numpy as np

# (layer, class) -> {metric name: class attributes that hold the function}
METHODS = {
    ("series", "Series"): {
        "mul": ("__mul__", "__rmul__"), "pow": ("__pow__",),
        "reciprocal": ("reciprocal",), "compose": ("compose", "__call__"),
        "reversion": ("reversion",), "artin_schreier_root": ("artin_schreier_root",),
        "nth_root": ("nth_root",), "init": ("__init__",),
        "from_text": ("from_text",), "to_text": ("to_text",),
    },
    ("group", "GroupElement"): {
        "mul": ("__mul__",), "pow": ("__pow__",),
        "inverse": ("inverse",), "depth": ("depth",),
    },
}
# layer -> module-level functions
FUNCTIONS = {
    "group": ("order_mod_truncation", "klopsch_rep"),
    "order4": ("sigma_bundle", "run_checks", "schreier_root", "relation_root",
               "sigma_closed", "sigma_algebraic", "sigma_relation"),
    "cli": ("run",),
    "field": ("check_prime",),
}
EXIT_CODES = (0, 1, 2)


def span_names():
    names = [f"{layer}.{fn}" for (layer, _), fns in METHODS.items() for fn in fns]
    return names + [f"{layer}.{fn}" for layer, fns in FUNCTIONS.items() for fn in fns]


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for name in span_names():
        specs += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    specs.append(("series.mul.coeff_macs", "count_computed", "lower"))
    specs += [(f"cli.run.exit{c}", "count", "higher" if c != 1 else "lower")
              for c in EXIT_CODES]
    specs += [("cli.run.uncaught", "count", "lower"),
              ("trace.overhead_ratio", "ratio", "lower")]
    return specs


class Tracer:
    """Installs timing wrappers into a freshly imported package."""

    def __init__(self):
        self.calls = dict.fromkeys(span_names(), 0)
        self.self_s = dict.fromkeys(span_names(), 0.0)
        self.counts = {"series.mul.coeff_macs": 0, "cli.run.uncaught": 0}
        self.counts.update({f"cli.run.exit{c}": 0 for c in EXIT_CODES})
        self._stack = []            # time covered by children of each open span
        self._undo = []

    # -- spans ---------------------------------------------------------

    def _wrap(self, name, fn):
        stack, clock, calls, self_s = self._stack, time.perf_counter, self.calls, self.self_s
        counts = self.counts
        count_macs = name == "series.mul"
        is_cli = name == "cli.run"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_macs:
                # time spent counting is charged to no span
                h0 = clock()
                self._count_macs(*args)
                if stack:
                    stack[-1] += clock() - h0
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if is_cli:
                    counts["cli.run.uncaught"] += 1
                raise
            finally:
                dur = clock() - t0
                child = stack.pop()
                calls[name] += 1
                self_s[name] += dur - child
                if stack:
                    stack[-1] += dur
            if is_cli and f"cli.run.exit{result}" in counts:
                counts[f"cli.run.exit{result}"] += 1
            return result
        return wrapper

    def _count_macs(self, a, b=None, *_):
        """span^2 per Series x Series product, from the operands' valuations:
        the multiply-accumulates of the kernel's convolution, computed, not
        observed."""
        if not hasattr(b, "coeffs"):
            return
        va = np.flatnonzero(a.coeffs)
        vb = np.flatnonzero(b.coeffs)
        if va.size and vb.size:
            span = a.coeffs.shape[0] - int(va[0]) - int(vb[0])
            if span > 0:
                self.counts["series.mul.coeff_macs"] += span * span

    # -- installation --------------------------------------------------

    def install(self, package_name):
        """Wrap every listed function of the imported package.  A function
        that a later version of the library no longer has is skipped, and
        reports zero calls."""
        modules = [m for n, m in sys.modules.items()
                   if n == package_name or n.startswith(package_name + ".")]
        for (layer, cls_name), fns in METHODS.items():
            cls = getattr(sys.modules.get(f"{package_name}.{layer}"), cls_name, None)
            for fn_name, attrs in fns.items():
                wrapped = {}
                for attr in attrs:
                    orig = vars(cls).get(attr) if cls else None
                    if orig is None:
                        continue
                    if isinstance(orig, classmethod):
                        new = classmethod(self._wrap(f"{layer}.{fn_name}", orig.__func__))
                    else:
                        new = wrapped.setdefault(id(orig), self._wrap(f"{layer}.{fn_name}", orig))
                    self._set(cls, attr, new)
        for layer, fns in FUNCTIONS.items():
            home = sys.modules.get(f"{package_name}.{layer}")
            for fn_name in fns:
                orig = getattr(home, fn_name, None)
                if orig is None:
                    continue
                new = self._wrap(f"{layer}.{fn_name}", orig)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is orig:
                            self._set(module, key, new)
                        elif isinstance(value, dict):
                            for k, v in list(value.items()):
                                if v is orig:
                                    self._set_item(value, k, new)

    def _set(self, obj, attr, new):
        self._undo.append(functools.partial(setattr, obj, attr, vars(obj)[attr]))
        setattr(obj, attr, new)

    def _set_item(self, mapping, key, new):
        self._undo.append(functools.partial(mapping.__setitem__, key, mapping[key]))
        mapping[key] = new

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def metrics(self, rounds, overhead_ratio):
        """Per-layer metrics per round (one pass over the workload's pool)."""
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = self.calls[name] / rounds
            out[f"{name}.self_s"] = self.self_s[name] / rounds
        for key, value in self.counts.items():
            out[key] = value / rounds
        out["trace.overhead_ratio"] = overhead_ratio
        return {name: out[name] for name, _, _ in metric_specs()}
