"""The benchmark workloads: inputs, cold set-up, one timed operation, check.

Every function here receives ``pb``, a namespace of freshly imported
packbound modules, and calls the package through its module attributes, so
that a traced run sees each call at the name the caller looks up.

Each ``check_*`` returns a list of problems; an empty list means the output
is correct.  Checks compare against constants from the paper or against
``eval_reference.json``, never against another packbound result.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import mpmath as mp

OPT8 = math.pi ** 4 / 384          # E8 packing density = Cohn-Elkies optimum
GOLAY_CENSUS = {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}
LEECH_SHELLS = {4: 196560, 6: 16773120}
REFERENCE_PATH = Path(__file__).with_name("eval_reference.json")
REFERENCE_DPS = 90                 # digits used to store and parse references
EVAL_DIMS = (8, 24)
EVAL_DRAWS = 16                    # radii per dimension, besides r = 0


# ---------------------------------------------------------------------------
# certify8: `packbound magic check --dim 8`
# ---------------------------------------------------------------------------

def setup_certify8(pb):
    return {"spec": pb.magic.magic_spec(8)}


def run_certify8(pb, state, inputs):
    spec = state["spec"]
    cert = pb.certify.certify_magic(8, spec)
    bound = None
    if cert.status == "verified":
        bound = pb.magic.ce_bound_from_function(
            8, spec, certificate=cert).value
    return {"status": cert.status, "bound": bound}


def check_certify8(result, inputs):
    if result["status"] != "verified":
        return [f"certificate status is {result['status']!r}"]
    rel = abs(float(result["bound"]) / OPT8 - 1)
    if not rel <= 1e-6:
        return [f"bound is {rel:.3e} relative from pi^4/384"]
    return []


# ---------------------------------------------------------------------------
# lp8: `packbound lpbound run --dim 8 --degree 30 --method sampled`
# ---------------------------------------------------------------------------

def setup_lp8(pb):
    return {}


def run_lp8(pb, state, inputs):
    res = pb.lpbound.sampled_lp(8, 30)
    return {"feasible": res["feasible_report"]["feasible"],
            "bound": res["bound"]}


def check_lp8(result, inputs):
    problems = []
    if result["feasible"] is not True:
        problems.append("sampled LP solution is not grid-feasible")
    if not OPT8 <= result["bound"] <= 1.5 * OPT8:
        problems.append(f"bound {result['bound']!r} outside "
                        "[pi^4/384, 1.5 pi^4/384]")
    return problems


# ---------------------------------------------------------------------------
# eval: `packbound magic eval` at seed-drawn radii, dimensions 8 and 24
# ---------------------------------------------------------------------------

def load_reference():
    """{dim: {radius string: {"f", "f_err", "fhat", "fhat_err"}}}."""
    with open(REFERENCE_PATH) as fh:
        raw = json.load(fh)
    return {int(dim): table for dim, table in raw["values"].items()}


def inputs_eval(seed):
    """Radius strings: "0" first, then EVAL_DRAWS drawn from the reference
    grid of each dimension."""
    rng = random.Random(seed)
    ref = load_reference()
    draws = {}
    for n in EVAL_DIMS:
        grid = sorted((r for r in ref[n] if r != "0"), key=Fraction)
        draws[n] = ["0"] + rng.sample(grid, EVAL_DRAWS)
    return {"radii": draws}


def setup_eval(pb):
    return {"specs": {n: pb.magic.magic_spec(n) for n in EVAL_DIMS}}


def evaluate(spec, radii):
    """{radius string: (f, fhat)} as certified values, as `magic eval` does."""
    out = {}
    with mp.workdps(spec.dps + 10):
        for r in radii:
            out[r] = (spec.eval("f", mp.mpf(r)), spec.eval("f_hat", mp.mpf(r)))
    return out


def run_eval(pb, state, inputs):
    return {n: evaluate(state["specs"][n], inputs["radii"][n])
            for n in EVAL_DIMS}


def check_eval(result, inputs):
    reference = load_reference()
    problems = []
    with mp.workdps(REFERENCE_DPS):
        for n in EVAL_DIMS:
            values = result.get(n, {})
            if set(values) != set(inputs["radii"][n]):
                problems.append(f"n={n}: evaluated radii differ from the draw")
                continue
            f0, fhat0 = values["0"]
            for label, v in (("f", f0), ("fhat", fhat0)):
                if not abs(v.value - 1) <= 1e-6:
                    problems.append(f"n={n}: {label}(0) = {v.value}")
            for r, pair in values.items():
                ref = reference[n][r]
                for label, v in zip(("f", "fhat"), pair):
                    diff = abs(v.value - mp.mpf(ref[label]))
                    if not diff <= v.error + mp.mpf(ref[label + "_err"]):
                        problems.append(
                            f"n={n}: {label}({r}) is {mp.nstr(diff, 3)} from "
                            "the reference, beyond the certified errors")
    return problems


# ---------------------------------------------------------------------------
# exact: codes, lattices and the Poisson half of the certificate
# ---------------------------------------------------------------------------

def setup_exact(pb):
    return {"leech": pb.lattices.standard_lattice("leech"),
            "e8": pb.lattices.standard_lattice("e8")}


def run_exact(pb, state, inputs):
    lat, poisson = pb.lattices, pb.certify.poisson_check
    leech, e8 = state["leech"], state["e8"]
    census = pb.codes.weight_enumerator(pb.codes.golay24()).as_dict()
    table = lat.vectors_by_norm(leech, 10, budget=Fraction(10))
    theta = pb.qseries.leech_theta()
    return {
        "census": census,
        "shells": {2 * r: table.count(Fraction(2 * r)) for r in range(6)},
        "theta": {2 * r: theta.q_coeff(r) for r in range(6)},
        "covolumes": [lat.covolume(x).rational_value() for x in (e8, leech)],
        "residual_e8": poisson(e8, Fraction(1), 25)["residual"],
        "residual_leech": poisson(leech, Fraction(1), 12)["residual"],
    }


def check_exact(result, inputs):
    problems = []
    if result["census"] != GOLAY_CENSUS:
        problems.append(f"Golay census {result['census']}")
    shells = result["shells"]
    for norm, count in LEECH_SHELLS.items():
        if shells.get(norm) != count:
            problems.append(
                f"Leech shell {norm}: {shells.get(norm)} != {count}")
    if shells != result["theta"]:
        problems.append("Leech shells differ from leech_theta through q^5")
    if result["covolumes"] != [1, 1]:
        problems.append(f"covolumes {result['covolumes']}")
    if not result["residual_e8"] <= 1e-10:
        problems.append(f"E8 Poisson residual {result['residual_e8']}")
    if not result["residual_leech"] <= 1e-8:
        problems.append(f"Leech Poisson residual {result['residual_leech']}")
    return problems


# name -> (inputs(seed), setup(pb), run(pb, state, inputs),
#          check(result, inputs))
WORKLOADS = {
    "certify8": (lambda seed: {}, setup_certify8, run_certify8,
                 check_certify8),
    "lp8": (lambda seed: {}, setup_lp8, run_lp8, check_lp8),
    "eval": (inputs_eval, setup_eval, run_eval, check_eval),
    "exact": (lambda seed: {}, setup_exact, run_exact, check_exact),
}
