"""Spans around packbound's public functions, recorded outside the package.

A traced set-up wraps each function below at every name it is bound under in
the freshly imported package (``packbound.lpbound.solve_min`` as well as
``packbound.simplex.solve_min``), so every caller's lookup goes through the
wrapper, and wraps two hot methods on their classes.  Spans are kept in
memory: name, start, end, parent, operation id and phase (``setup`` or
``op``).  Per-layer metrics are computed from the spans of one operation.
"""

from __future__ import annotations

import functools
import math
import statistics
import time

OPT8 = math.pi ** 4 / 384

# (module, function) wrapped at every binding in the package
FUNCTIONS = (
    ("qseries", "s_transform_terms"),
    ("qseries", "psi_forms"),
    ("magic", "magic_spec"),
    ("magic", "taylor_quadratic"),
    ("certify", "certify_magic"),
    ("certify", "poisson_check"),
    ("lpbound", "sampled_lp"),
    ("simplex", "solve_min"),
    ("lattices", "standard_lattice"),
    ("lattices", "vectors_by_norm"),
    ("lattices", "lattice_properties"),
    ("codes", "weight_enumerator"),
)
# (module, class, method) wrapped on the class
METHODS = (
    ("magic", "MagicFunctionSpec", "pair"),
    ("lpbound", "RadialAnsatz", "f_value"),
)


# (name, unit, better) of every per-layer metric, in BENCHMARK.json order
PER_LAYER = (
    ("qseries.build_s", "s", "lower"),
    ("magic.spec_build_s", "s", "lower"),
    ("magic.pair_calls", "count", "lower"),
    ("magic.pair_distinct", "count", "lower"),
    ("magic.pair_hit_ratio", "ratio", "higher"),
    ("magic.pair_s", "s", "lower"),
    ("magic.pair_ms.p50", "ms", "lower"),
    ("magic.pair_ms.p90", "ms", "lower"),
    ("magic.taylor_s", "s", "lower"),
    ("certify.magic_self_s", "s", "lower"),
    ("certify.poisson_s", "s", "lower"),
    ("lpbound.rounds", "count", "lower"),
    ("lpbound.samples_used", "count", "lower"),
    ("lpbound.sweep_evals", "count", "lower"),
    ("lpbound.sweep_s", "s", "lower"),
    ("lpbound.self_s", "s", "lower"),
    ("lpbound.gap", "ratio", "lower"),
    ("simplex.solves", "count", "lower"),
    ("simplex.pivots", "count", "lower"),
    ("simplex.solve_s", "s", "lower"),
    ("simplex.ms_per_pivot", "ms", "lower"),
    ("lattices.leech_build_s", "s", "lower"),
    ("lattices.enum_s", "s", "lower"),
    ("lattices.props_s", "s", "lower"),
    ("codes.enum_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _pair_before(args):
    return len(args[0]._cache)


def _pair_after(span, args, result, cache_size):
    span["hit"] = len(args[0]._cache) == cache_size


def _solve_after(span, args, result, _):
    span["pivots"] = result["iterations"]


def _lp_after(span, args, result, _):
    report = result["feasible_report"]
    span.update(rounds=report["rounds"], samples_used=report["samples_used"],
                bound=result["bound"])


HOOKS = {
    "magic.pair": (_pair_before, _pair_after),
    "simplex.solve_min": (None, _solve_after),
    "lpbound.sampled_lp": (None, _lp_after),
}


class Tracer:
    """In-memory span recorder; the caller sets ``op_id`` and ``phase``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op_id = None
        self.phase = None

    def install(self, pb):
        """Wrap the traced functions in the package namespace ``pb``."""
        modules = list(vars(pb).values())
        for mod_name, attr in FUNCTIONS:
            original = getattr(getattr(pb, mod_name), attr)
            wrapped = self._wrap(f"{mod_name}.{attr}", original)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)
        for mod_name, cls_name, attr in METHODS:
            cls = getattr(getattr(pb, mod_name), cls_name)
            setattr(cls, attr, self._wrap(f"{mod_name}.{attr}",
                                          getattr(cls, attr)))

    def _wrap(self, name, fn):
        before, after = HOOKS.get(name, (None, None))
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name, "op": self.op_id,
                    "phase": self.phase,
                    "parent": stack[-1]["id"] if stack else None}
            if args and isinstance(args[0], (str, int)):
                span["arg"] = args[0]
            token = before(args) if before else None
            spans.append(span)
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if after:
                after(span, args, result, token)
            return result
        return traced


def layer_metrics(spans, factors, probe):
    """Per-layer metrics of one operation (its set-up and op spans).

    A span's time leaves out the speed probe's samples inside it and is
    multiplied by the speed factor of its phase (see speed.py).
    """
    def duration(span):
        start, end = span["start"], span["end"]
        return ((end - start - probe.spent_between(start, end))
                * factors.get(span["phase"], 1.0))

    by_id = {s["id"]: s for s in spans}
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + duration(s))

    def self_time(s):
        return duration(s) - child_time.get(s["id"], 0.0)

    def select(name, phase):
        return [s for s in spans if s["name"] == name and s["phase"] == phase]

    def total(name, phase):
        return sum(duration(s) for s in select(name, phase))

    def outermost(names, phase):
        """Spans of ``names`` not nested inside another span of ``names``."""
        out = []
        for s in spans:
            if s["name"] not in names or s["phase"] != phase:
                continue
            p = s["parent"]
            while p is not None and by_id[p]["name"] not in names:
                p = by_id[p]["parent"]
            if p is None:
                out.append(s)
        return out

    qseries = ("qseries.s_transform_terms", "qseries.psi_forms")
    pairs = select("magic.pair", "op")
    evaluated = [1000 * duration(s) for s in pairs if not s.get("hit")]
    # percentiles only with at least ten samples beyond p90
    enough = len(evaluated) >= 100
    lps = select("lpbound.sampled_lp", "op")
    solves = select("simplex.solve_min", "op")
    pivots = sum(s.get("pivots", 0) for s in solves)
    solve_s = total("simplex.solve_min", "op")
    gaps = [s["bound"] / OPT8 - 1 for s in lps
            if s.get("arg") == 8 and "bound" in s]
    return {
        "qseries.build_s": sum(duration(s)
                               for s in outermost(qseries, "setup")),
        "magic.spec_build_s": sum(self_time(s) for s in
                                  select("magic.magic_spec", "setup")),
        "magic.pair_calls": len(pairs),
        "magic.pair_distinct": len(evaluated),
        "magic.pair_hit_ratio":
            (len(pairs) - len(evaluated)) / len(pairs) if pairs else 0.0,
        "magic.pair_s": total("magic.pair", "op"),
        "magic.pair_ms.p50": statistics.median(evaluated) if enough else 0.0,
        "magic.pair_ms.p90":
            statistics.quantiles(evaluated, n=10)[8] if enough else 0.0,
        "magic.taylor_s": total("magic.taylor_quadratic", "op"),
        "certify.magic_self_s": sum(self_time(s) for s in
                                    select("certify.certify_magic", "op")),
        "certify.poisson_s": total("certify.poisson_check", "op"),
        "lpbound.rounds": sum(s.get("rounds", 0) for s in lps),
        "lpbound.samples_used": sum(s.get("samples_used", 0) for s in lps),
        "lpbound.sweep_evals": len(select("lpbound.f_value", "op")),
        "lpbound.sweep_s": total("lpbound.f_value", "op"),
        "lpbound.self_s": sum(self_time(s) for s in lps),
        "lpbound.gap": gaps[0] if gaps else 0.0,
        "simplex.solves": len(solves),
        "simplex.pivots": pivots,
        "simplex.solve_s": solve_s,
        "simplex.ms_per_pivot": 1000 * solve_s / pivots if pivots else 0.0,
        "lattices.leech_build_s": sum(
            duration(s) for s in select("lattices.standard_lattice", "setup")
            if s.get("arg") == "leech"),
        "lattices.enum_s": total("lattices.vectors_by_norm", "op"),
        "lattices.props_s": sum(self_time(s) for s in
                                select("lattices.lattice_properties", "op")),
        "codes.enum_s": total("codes.weight_enumerator", "op"),
    }
