"""Run-time spans around the public functions of each ssmfrac module.

Nothing in the package is edited: ``Tracer.install`` replaces every public
module-level function and every public method of the package's classes with
a wrapper that records a span (name, start, end, parent, pass id), and
``Tracer.uninstall`` puts the originals back. Spans stay in memory until
``write_csv`` is called at the end of the run.

A span's self time is its duration minus the time covered by its direct
children; calls nest strictly in one thread, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import statistics
import time

LAYERS = ("spectrum", "dictionary", "fit", "dynamics", "normalform",
          "trajectory", "cli")

# Short span names for the functions the per-layer metrics are about; other
# functions are named module.qualname.
ALIASES = {
    "dictionary.Dictionary.evaluate": "dictionary.evaluate",
    "dictionary.IntegerDictionary.evaluate": "dictionary.evaluate",
    "fit.fit_reduced_map": "fit.solve",
    "fit.fit_reduced_flow": "fit.solve",
    "fit.fit_graph": "fit.solve",
    "fit.ReducedFit.rhs": "fit.rhs",
    "dynamics.newton_fixed_point": "dynamics.newton",
    "normalform.LinearizingTransform.inverse_coefficients":
        "normalform.inverse",
    "normalform.conjugacy_residual": "normalform.residual",
    "normalform.pullback_graph": "normalform.pullback",
    "normalform.extended_normalform_2d": "normalform.extended2d",
    "spectrum.partition_spectrum": "spectrum.partition",
    "trajectory.Trajectory.read_csv": "trajectory.read_csv",
}

# Per-element methods called from inside dictionary.evaluate (one call per
# monomial per evaluate); their cost stays in evaluate's self time instead
# of adding a span per monomial.
SKIP = {
    "dictionary.FractionalMonomial.eval_real",
    "dictionary.FractionalMonomial.eval_complex",
    "dictionary.FractionalMonomial.to_dict",
    "dictionary.IntegerMonomial.eval_multi",
    "dictionary.IntegerMonomial.to_dict",
}


def _targets(modules):
    """(owner, attribute, kind, function, span name) for every function the
    tracer wraps. kind is 'function', 'method', 'classmethod' or
    'staticmethod'."""
    out = []
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                full = f"{layer}.{name}"
                out.append((mod, name, "function", obj,
                            ALIASES.get(full, full)))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr, raw in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    full = f"{layer}.{obj.__name__}.{attr}"
                    if full in SKIP:
                        continue
                    if isinstance(raw, classmethod):
                        kind, fn = "classmethod", raw.__func__
                    elif isinstance(raw, staticmethod):
                        kind, fn = "staticmethod", raw.__func__
                    elif inspect.isfunction(raw):
                        kind, fn = "method", raw
                    else:
                        continue
                    out.append((obj, attr, kind, fn, ALIASES.get(full, full)))
    return out


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.modules = {layer: importlib.import_module(f"ssmfrac.{layer}")
                        for layer in LAYERS}
        self.names, self.starts, self.ends = [], [], []
        self.parents, self.passes = [], []
        self.counters = {}           # (pass id, counter name) -> value
        self.pass_id = -1
        self._stack = []
        self._saved = []

    # -- recording -----------------------------------------------------------

    def count(self, name, value=1):
        key = (self.pass_id, name)
        self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, name, value):
        key = (self.pass_id, name)
        self.counters[key] = max(self.counters.get(key, value), value)

    def _span(self, name, fn, observe=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.passes.append(tracer.pass_id)
            tracer.ends.append(None)
            tracer._stack.append(idx)
            tracer.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = time.perf_counter()
                tracer._stack.pop()
            if observe is not None:
                observe(tracer, args, result)
            return result
        return wrapper

    # -- installation --------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every target; module globals that alias a wrapped function
        (``from .x import f``) are redirected too."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        originals = {}
        for owner, attr, kind, fn, name in _targets(self.modules):
            wrapped = self._span(name, fn, OBSERVERS.get(name))
            if kind == "classmethod":
                self._replace(owner, attr, classmethod(wrapped))
            elif kind == "staticmethod":
                self._replace(owner, attr, staticmethod(wrapped))
            else:
                self._replace(owner, attr, wrapped)
            if kind == "function":
                originals[id(fn)] = (fn, wrapped)
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj and \
                        vars(mod)[attr] is not hit[1]:
                    self._replace(mod, attr, hit[1])
        # counters at boundaries that are not spans of their own
        dyn, fit = self.modules["dynamics"], self.modules["fit"]
        self._replace(dyn, "solve_ivp", self._count_nfev(dyn.solve_ivp))
        self._replace(fit, "_scaled_lstsq",
                      self._count_design(fit._scaled_lstsq))

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def _count_nfev(self, solve_ivp):
        @functools.wraps(solve_ivp)
        def wrapper(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            self.count("dynamics.rhs_evals", int(sol.nfev))
            return sol
        return wrapper

    def _count_design(self, lstsq):
        @functools.wraps(lstsq)
        def wrapper(design, targets, ridge):
            coeffs, rms, cond = lstsq(design, targets, ridge)
            rows, cols = design.shape
            self.count("fit.design_cells", rows * cols)
            self.count("fit.design_bytes", design.nbytes)
            self.maximum("fit.condition_number", cond)
            return coeffs, rms, cond
        return wrapper

    def recover(self):
        """Close spans left open when a deadline interrupted a wrapper
        between its bookkeeping steps."""
        now = time.perf_counter()
        self.ends = [now if e is None else e for e in self.ends]
        self._stack = []

    # -- analysis ------------------------------------------------------------

    def self_times(self):
        """Per-span self time, in span order."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def pass_metrics(self, pass_ids):
        """Per-layer metric values, each the median over the given passes of
        its per-pass total."""
        selfs = self.self_times()
        per_pass = {pid: {} for pid in pass_ids}

        def add(pid, key, value):
            if pid in per_pass:
                bucket = per_pass[pid]
                bucket[key] = bucket.get(key, 0) + value

        # parents precede their children, so one forward sweep suffices
        inside_newton = [False] * len(self.names)
        for i, parent in enumerate(self.parents):
            inside_newton[i] = parent >= 0 and (
                inside_newton[parent]
                or self.names[parent] == "dynamics.newton")
        for i, name in enumerate(self.names):
            pid = self.passes[i]
            add(pid, f"{name}.self_s", selfs[i])
            add(pid, f"{name}.calls", 1)
            add(pid, f"{name.split('.', 1)[0]}.self_s", selfs[i])
            add(pid, "trace.spans", 1)
            if name == "dynamics.integrate" and inside_newton[i]:
                add(pid, "dynamics.newton.integrations", 1)
        for (pid, key), value in self.counters.items():
            add(pid, key, value)

        keys = set().union(*per_pass.values()) if per_pass else set()
        return {key: statistics.median(per_pass[pid].get(key, 0)
                                       for pid in pass_ids)
                for key in keys}

    def write_csv(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,pass\n")
            for row in zip(self.names, self.starts, self.ends, self.parents,
                           self.passes):
                fh.write("%s,%.9f,%.9f,%d,%d\n" % row)


# -- counters read from results ----------------------------------------------

def _observe_evaluate(tracer, args, result):
    tracer.count("dictionary.evaluate.rows", len(result))


def _observe_newton(tracer, args, result):
    tracer.count("dynamics.newton.iterations", result.iterations)


def _observe_inverse(tracer, args, result):
    # the inverse is cached on the transform; later calls return the same
    tracer.maximum("normalform.terms", len(result))


def _observe_extended(tracer, args, result):
    tracer.count("normalform.extended2d.resonant_terms",
                 len(result.resonant_terms))


def _observe_read_csv(tracer, args, result):
    tracer.count("trajectory.read_csv.bytes", os.path.getsize(args[-1]))


OBSERVERS = {
    "dictionary.evaluate": _observe_evaluate,
    "dynamics.newton": _observe_newton,
    "normalform.inverse": _observe_inverse,
    "normalform.extended2d": _observe_extended,
    "trajectory.read_csv": _observe_read_csv,
}
