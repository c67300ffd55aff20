"""Run one packbound benchmark workload and print its metrics.

    python3 bench/run.py --workload certify8 --seed 1 --seconds 10 --trace 0

One client in one process runs a closed loop: each operation gets a cold
set-up (every ``packbound`` module dropped and imported again, then the
workload's specs or lattices built), one timed call into the package, and a
check of its output.  The loop runs until ``--seconds`` have passed, at least
once; untraced runs repeat set-up until there are MIN_SETUPS samples that
took MIN_SETUP_S seconds together.
Every time is reported at reference speed (see speed.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (medians over operations); with
``--trace 1`` every operation runs twice, untraced and then traced, and the
metrics are the per-layer medians over the traced operations plus
``trace.overhead_ratio``.  A traced run also writes its spans to
``bench/out/``.  The line before the result records host and environment.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path
from types import SimpleNamespace

import mpmath  # third-party imports are paid once, before any timed set-up

import speed
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MIN_SETUPS = 3          # an untraced run repeats set-up to at least
MIN_SETUP_S = 2.0       # this many samples and this many seconds
MODULES = ("codes", "exact", "lattices", "qseries", "magic", "certify",
           "simplex", "lpbound", "cli")


class ColdCacheError(RuntimeError):
    """A timed operation would be served from an earlier operation's caches."""


def fresh_package():
    """Drop every loaded packbound module, import the package again and
    return its modules as a namespace."""
    for name in [m for m in sys.modules
                 if m == "packbound" or m.startswith("packbound.")]:
        del sys.modules[name]
    importlib.import_module("packbound.cli")
    return SimpleNamespace(**{m: sys.modules[f"packbound.{m}"]
                              for m in MODULES})


def module_cache_problems(pb):
    """Module-level caches that are not empty right after import."""
    problems = [f"{mod}.{cache} is not empty"
                for mod, cache in (("magic", "_SPEC_CACHE"),
                                   ("magic", "_GL_CACHE"),
                                   ("lattices", "_LATTICE_CACHE"))
                if getattr(getattr(pb, mod), cache)]
    for mod in MODULES:
        for name, value in vars(getattr(pb, mod)).items():
            info = getattr(value, "cache_info", None)
            if callable(info) and info().currsize:
                problems.append(f"{mod}.{name} lru cache is not empty")
    return problems


def spec_cache_problems(state):
    """Specs built by the set-up whose pair cache is already filled."""
    specs = [state.get("spec"), *state.get("specs", {}).values()]
    return [f"pair cache of the n={s.n} spec is not empty"
            for s in specs if s is not None and s._cache]


def cold_setup(setup, tracer=None):
    """(package namespace, state) after one cold set-up."""
    pb = fresh_package()
    problems = module_cache_problems(pb)
    if tracer is not None:
        tracer.install(pb)
    state = setup(pb)
    problems += spec_cache_problems(state)
    if problems:
        raise ColdCacheError("; ".join(problems))
    return pb, state


def git_commit(root):
    """Commit of the checkout from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def environment(args):
    """Host facts that change every timing."""
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "numpy": _version("numpy"), "scipy": _version("scipy"),
            "git_commit": git_commit(ROOT)}


class Loop:
    """Operations of one workload, with their times at reference speed and
    their failures."""

    def __init__(self, name, seed, probe):
        inputs, self.setup, self.run, self.check = workloads.WORKLOADS[name]
        self.inputs = inputs(seed)
        self.probe = probe
        self.setups, self.walls, self.traced_walls = [], [], []
        self.factors = {}       # operation number -> {phase: speed factor}
        self.attempted = self.failed = 0

    def timed(self, fn, *args):
        gc.collect()
        return self.probe.timed(fn, *args)

    def operation(self, tracer=None):
        """One cold set-up, timed call and output check."""
        self.attempted += 1
        factors = self.factors[self.attempted] = {}
        if tracer is not None:
            tracer.op_id, tracer.phase = self.attempted, "setup"
        try:
            (pb, state), setup_s, factors["setup"] = self.timed(
                cold_setup, self.setup, tracer)
            if tracer is not None:
                tracer.phase = "op"
            result, wall, factors["op"] = self.timed(
                self.run, pb, state, self.inputs)
            (self.walls if tracer is None else self.traced_walls).append(wall)
            problems = self.check(result, self.inputs)
        except Exception:  # one failed operation must not end the run
            problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            print(f"operation {self.attempted} failed: {'; '.join(problems)}",
                  file=sys.stderr)
        elif tracer is None:
            self.setups.append(setup_s)

    def setup_only(self):
        self.setups.append(self.timed(cold_setup, self.setup)[1])


def _median(values):
    """Median, or 0 when every operation failed before it was timed."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def end_to_end(loop):
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": {"value": _median(loop.walls), "unit": "s"},
        "setup_s": {"value": _median(loop.setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        "pass_ratio": {"value": 1 - loop.failed / loop.attempted,
                       "unit": "ratio"},
    }


def per_layer(loop, tracer, env):
    ops = sorted({s["op"] for s in tracer.spans})
    rows = [tracing.layer_metrics([s for s in tracer.spans if s["op"] == op],
                                  loop.factors[op], loop.probe)
            for op in ops]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{env['workload']}-seed{env['seed']}.json"
    path.write_text(json.dumps({"env": env, "walls": loop.walls,
                                "traced_walls": loop.traced_walls,
                                "per_op": rows, "spans": tracer.spans},
                               default=str))
    metrics = {}
    for name, unit, _ in tracing.PER_LAYER:
        if name == "trace.overhead_ratio":
            value = _median(loop.traced_walls) / (_median(loop.walls) or 1.0)
        else:
            value = _median(row[name] for row in rows)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "packbound" / "__init__.py").is_file():
        print(f"packbound sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    env = environment(args)
    with speed.SpeedProbe() as probe:
        loop = Loop(args.workload, args.seed, probe)
        tracer = tracing.Tracer() if args.trace else None
        start = time.perf_counter()
        while True:
            loop.operation()
            if tracer is not None:
                loop.operation(tracer)
            if time.perf_counter() - start >= args.seconds:
                break
        while tracer is None and (len(loop.setups) < MIN_SETUPS
                                  or sum(loop.setups) < MIN_SETUP_S):
            loop.setup_only()
    env["host_slowdown"] = _median(
        1 / f for op in loop.factors.values() for f in op.values())
    metrics = per_layer(loop, tracer, env) if tracer else end_to_end(loop)
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
