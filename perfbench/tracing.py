"""Timing wrappers installed around hesskit's layers from outside the program.

``Tracer.install()`` wraps every public module-level function of every
loaded hesskit module, the ``Form`` products, sums and derivatives, the curve
point search and the suite entries in ``reports.REGISTRY``.  It then rebinds
every module-level name that refers to a wrapped function, since
``from .x import y`` binds one function under several modules (``hess`` sits
in five).  Each call records a span (name, start, end, parent span) in flat
arrays; ``summary()`` reduces them to per-name calls, self and total time,
per-layer self time and the counters listed in ``METRICS``.

A layer is a module of ``src/hesskit``; a span named ``forms.mul`` belongs to
layer ``forms``.
"""

import functools
import sys
import types
from array import array
from time import perf_counter

# Methods traced besides module-level functions: (module, class, attribute,
# span name).
METHODS = (
    ("forms", "Form", "__mul__", "forms.mul"),
    ("forms", "Form", "__add__", "forms.add"),
    ("forms", "Form", "diff", "forms.diff"),
    ("curves", "QuadraticInY", "integral_points", "curves.integral_points"),
)

LAYERS = ("forms", "linalg", "hessians", "harmonic", "orbit_checks",
          "rank_certificates", "curves", "indeterminacy", "reports")

SUITE_ENTRIES = (
    "closed-forms", "pair-expansions", "rank-certificates", "block-structure",
    "condition-scans", "curve-families", "multilinear-identities",
    "harmonic-structure", "cone-normal-forms", "gated-divisibility",
    "limit-divisibility", "certificates")


def _metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for span in ("forms.mul", "linalg.clear_denominators", "linalg.rank_mod_p",
                 "linalg.rank_bareiss", "linalg.invert"):
        specs += [(span + ".calls", "count", "lower"),
                  (span + ".self_s", "s", "lower")]
    for span in ("forms.add", "forms.diff", "hessians.hess", "hessians.hess_t",
                 "hessians.h3", "hessians.h12", "hessians.hessian_expansion",
                 "hessians.adjugate_second_partials",
                 "harmonic.harmonic_decompose", "curves.integral_points"):
        specs.append((span + ".self_s", "s", "lower"))
    for span in ("rank_certificates.differential_matrix",
                 "rank_certificates.projective_injectivity",
                 "curves.verify_family",
                 "indeterminacy.limit_divisibility_check",
                 "indeterminacy.pair_divisibility_check",
                 "indeterminacy.triple_divisibility_check",
                 "orbit_checks.verify_pair", "orbit_checks.verify_closed_form",
                 "reports.certify", "reports.canonical_json",
                 "reports.check_fixtures",
                 *("reports.entry." + e for e in SUITE_ENTRIES)):
        specs.append((span + ".total_s", "s", "lower"))
    specs += [
        ("forms.mul.term_pairs", "count", "lower"),
        ("rank_certificates.matrix_entries", "count", "lower"),
        ("linalg.primes_per_rank", "ratio", "lower"),
        ("linalg.modular_settled_ratio", "ratio", "higher"),
        ("harmonic.solver_builds", "count", "lower"),
        ("curves.x_scanned", "count", "lower"),
        ("curves.points_found", "count", "higher"),
    ]
    specs += [("layer.%s.self_s" % layer, "s", "lower") for layer in LAYERS]
    specs += [("trace.spans", "count", "lower"),
              ("trace.overhead_s", "s", "lower")]
    return specs


METRICS = _metric_specs()


# Counters updated after a traced call returns: span name -> hook.

def _count_mul(counters, args, kwargs, result):
    a, b = args
    if hasattr(b, "terms"):
        counters["forms.mul.term_pairs"] += len(a.terms) * len(b.terms)


def _count_points(counters, args, kwargs, result):
    bound = args[1] if len(args) > 1 else kwargs["bound"]
    counters["curves.x_scanned"] += 2 * bound + 1
    counters["curves.points_found"] += len(result)


def _count_matrix(counters, args, kwargs, result):
    rows, cols = result.shape
    counters["rank_certificates.matrix_entries"] += rows * cols


def _count_rank(counters, args, kwargs, result):
    counters["linalg.modular_settled"] += result[1] == "modular-full-rank"


HOOKS = {
    "forms.mul": _count_mul,
    "curves.integral_points": _count_points,
    "rank_certificates.differential_matrix": _count_matrix,
    "linalg.rank_with_certificate": _count_rank,
}
COUNTERS = ("forms.mul.term_pairs", "curves.x_scanned", "curves.points_found",
            "rank_certificates.matrix_entries", "linalg.modular_settled")


def _is_wrapper(obj) -> bool:
    return getattr(obj, "__traced__", False)


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.names = []          # name id -> span name
        self._ids = {}
        self._active = []        # name id -> open spans of that name
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.outermost = bytearray()  # no open span of the same name
        self._stack = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.uncovered = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        span_name, parent, start, end = (self.span_name, self.parent,
                                         self.start, self.end)
        outermost, stack, active = self.outermost, self._stack, self._active
        hook, counters = HOOKS.get(name), self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            depth = active[nid]
            active[nid] = depth + 1
            outermost.append(depth == 0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                active[nid] = depth
                start[idx] = t0
                end[idx] = t1
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        traced.__traced__ = True
        return traced

    def install(self) -> None:
        """Wrap and rebind; record every binding left unwrapped."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "hesskit" or n.startswith("hesskit.")]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for attr, val in vars(mod).items():
                if _is_public(val) and val.__module__ == mod.__name__:
                    wrappers[val] = self.wrap("%s.%s" % (layer, attr), val)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                new = _rebound(val, wrappers)
                if new is not val:
                    setattr(mod, attr, new)
        for modname, cls, attr, name in METHODS:
            klass = getattr(sys.modules["hesskit." + modname], cls)
            setattr(klass, attr, self.wrap(name, vars(klass)[attr]))
        reports = sys.modules["hesskit.reports"]
        reports.REGISTRY = tuple(
            (entry, self.wrap("reports.entry." + entry, fn))
            for entry, fn in reports.REGISTRY)
        self.uncovered = _uncovered(modules)

    def summary(self) -> dict:
        """Per-name and per-layer figures, the metrics and the top layers."""
        n = len(self.span_name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        stats = {name: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
                 for name in self.names}
        for i in range(n):
            s = stats[self.names[self.span_name[i]]]
            s["calls"] += 1
            s["self_s"] += dur[i] - child[i]
            if self.outermost[i]:
                s["total_s"] += dur[i]
        layers = {}
        for name, s in stats.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + s["self_s"]

        def calls(name):
            return stats.get(name, {}).get("calls", 0)

        def under(name, ancestor):
            nid, aid = self._ids.get(name), self._ids.get(ancestor)
            count = 0
            for i in range(n):
                if self.span_name[i] != nid:
                    continue
                p = self.parent[i]
                while p >= 0 and self.span_name[p] != aid:
                    p = self.parent[p]
                count += p >= 0
            return count

        ranks = calls("linalg.rank_with_certificate")
        derived = dict(self.counters)
        derived.update({
            "linalg.primes_per_rank": (
                under("linalg.rank_mod_p", "linalg.rank_with_certificate")
                / ranks if ranks else 0.0),
            "linalg.modular_settled_ratio": (
                derived.pop("linalg.modular_settled") / ranks
                if ranks else 0.0),
            "harmonic.solver_builds": under(
                "linalg.invert", "harmonic.harmonic_decompose"),
            "trace.spans": n,
        })
        metrics = {}
        for name, unit, _ in METRICS:
            if name in derived:
                metrics[name] = derived[name]
            elif name.startswith("layer."):
                metrics[name] = layers.get(name.split(".")[1], 0.0)
            elif name != "trace.overhead_s":
                span, _, field = name.rpartition(".")
                metrics[name] = stats.get(span, {}).get(field, 0)
        top = sorted(((layer, t) for layer, t in layers.items() if t > 0),
                     key=lambda kv: -kv[1])[:3]
        return {
            "spans": n,
            "uncovered": self.uncovered,
            "self_sum_s": sum(dur[i] - child[i] for i in range(n)),
            "top_layers": top,
            "layers": layers,
            "metrics": metrics,
        }


def _is_public(fn) -> bool:
    """A named, public function defined in hesskit (lambdas excluded)."""
    return (isinstance(fn, types.FunctionType)
            and (fn.__module__ or "").startswith("hesskit")
            and fn.__name__.isidentifier()
            and not fn.__name__.startswith("_"))


def _rebound(val, wrappers, depth=2):
    """``val`` with wrapped functions swapped in, two container levels deep.

    Module-level tables hold functions too: ``curves.CONDITIONS`` maps a
    condition to a (function, m_min) pair.  Lists and dicts are updated in
    place; a plain tuple that changes is returned as a new tuple.
    """
    if isinstance(val, types.FunctionType):
        return wrappers.get(val, val)
    if not depth:
        return val
    if type(val) is tuple:
        new = tuple(_rebound(v, wrappers, depth - 1) for v in val)
        return new if any(a is not b for a, b in zip(new, val)) else val
    if isinstance(val, list):
        val[:] = [_rebound(v, wrappers, depth - 1) for v in val]
    elif isinstance(val, dict):
        for key, item in list(val.items()):
            val[key] = _rebound(item, wrappers, depth - 1)
    return val


def _functions(val, depth=2):
    """Every function reachable from ``val`` the way ``_rebound`` walks."""
    if isinstance(val, types.FunctionType):
        yield val
    elif depth and isinstance(val, (tuple, list)):
        for item in val:
            yield from _functions(item, depth - 1)
    elif depth and isinstance(val, dict):
        for item in val.values():
            yield from _functions(item, depth - 1)


def _uncovered(modules):
    """Layers not loaded, and bindings that reach a public function unwrapped.

    A layer imported only after ``install()`` would escape the wrappers.
    """
    loaded = {mod.__name__ for mod in modules}
    missed = ["hesskit.%s (not loaded)" % layer for layer in LAYERS
              if "hesskit." + layer not in loaded]
    for mod in modules:
        for attr, val in vars(mod).items():
            if attr.startswith("__"):
                continue
            if any(_is_public(fn) and not _is_wrapper(fn)
                   for fn in _functions(val)):
                missed.append("%s.%s" % (mod.__name__, attr))
    return missed
