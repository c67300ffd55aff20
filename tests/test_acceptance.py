"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
report lines.
"""

import json
import math
import shlex
from fractions import Fraction

import mpmath as mp
import pytest

from packbound.certify import certify_magic, poisson_check
from packbound.cli import dispatch
from packbound.codes import code_properties, golay24, hamming8, weight_enumerator
from packbound.lattices import covolume, standard_lattice, vectors_by_norm
from packbound.lpbound import (
    LpCertificate, forced_bound, sampled_lp, verify_lp,
)
from packbound.magic import ce_bound_from_function, taylor_quadratic
from packbound.qseries import (
    eisenstein, leech_theta, psi_forms, s_transform_terms,
)
from series_terms import evaluate_at_it, evaluate_terms_at_it

# a proven bound pi < PI_HI: a certificate with y0 = PI_HI is refuted
PI_HI = Fraction(314159265358980, 10 ** 14)
OPT8 = math.pi ** 4 / 384
OPT24 = math.pi ** 12 / math.factorial(12)


def report(criterion, ok, detail=""):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}"
          f"{': ' + detail if detail else ''}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_exact_combinatorics():
    ok = weight_enumerator(hamming8()).as_dict() == {0: 1, 4: 14, 8: 1}
    props24 = code_properties(golay24())
    ok &= props24 == {"self_dual": True, "doubly_even": True}
    e8 = standard_lattice("e8")
    te8 = vectors_by_norm(e8, 6).as_dict()
    ok &= te8[Fraction(2)] == 240 and te8[Fraction(4)] == 2160 \
        and te8[Fraction(6)] == 6720
    leech = standard_lattice("leech")
    tl = vectors_by_norm(leech, 6).as_dict()
    ok &= tl[Fraction(2)] == 0 and tl[Fraction(4)] == 196560 \
        and tl[Fraction(6)] == 16773120
    ok &= covolume(e8).rational_value() == 1
    ok &= covolume(leech).rational_value() == 1
    report(1, ok, "Hamming/Golay censuses, E8 and Leech shells, covolumes")


def test_criterion_2_theta_identities():
    e8 = standard_lattice("e8")
    e4 = eisenstein(4)
    ok = all(vectors_by_norm(e8, 10).count(Fraction(2 * r)) == e4.q_coeff(r)
             for r in range(6))
    leech = standard_lattice("leech")
    lt = leech_theta()
    ok &= all(vectors_by_norm(leech, 10, budget=Fraction(10)).count(
        Fraction(2 * r)) == lt.q_coeff(r) for r in range(6))
    report(2, ok, "enumerated theta coefficients equal the modular forms "
                  "through q^5, exactly")


def test_criterion_3_modular_evaluation():
    with mp.workdps(50):
        e6_at_i = evaluate_at_it(eisenstein(6), 1, dps=40)
        ok = abs(e6_at_i.value) <= 1e-10
        e2_at_i = evaluate_at_it(eisenstein(2), 1, dps=40)
        ok &= abs(e2_at_i.value - 3 / mp.pi) <= 1e-10
        detail = (f"|E6(i)|={mp.nstr(abs(e6_at_i.value), 3)}, "
                  f"|E2(i)-3/pi|={mp.nstr(abs(e2_at_i.value - 3 / mp.pi), 3)}")
        for n in (8, 24):
            plus = psi_forms(n)["psi_plus"]
            direct = evaluate_at_it(plus, 1, dps=40)
            lhs = direct.value
            rhs, err = evaluate_terms_at_it(
                s_transform_terms(n)["psi_plus"], 1, dps=40)
            ok &= abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs)) + err + direct.error
    report(3, ok, detail)


def test_criterion_4_poisson_residuals():
    # At sigma = 1 the lattice sum and the dual sum are one expression, so
    # only the tails are tested; sigma = 4/5, the CLI default, compares two.
    lattices = (("Z8", "zn", 8), ("E8", "e8", None), ("Leech", "leech", None))
    checks = [(Fraction(1), *lat, cutoff, tol) for lat, cutoff, tol
              in zip(lattices, (25, 25, 12), (1e-10, 1e-10, 1e-8))]
    checks += [(Fraction(4, 5), *lat, 25, 1e-10) for lat in lattices]
    results = [(f"{label} sigma={sigma}", poisson_check(
        standard_lattice(name, n), sigma, cutoff)["residual"], tol)
        for sigma, label, name, n, cutoff, tol in checks]
    ok = all(residual <= tol for _, residual, tol in results)
    report(4, ok, "residuals: " + ", ".join(
        f"{label} {mp.nstr(residual, 3)}" for label, residual, _ in results))


def _magic_criterion(n, spec, taylor_targets, opt):
    with mp.workdps(spec.dps + 10):
        r1 = mp.sqrt(spec.r1_sq)
        checks = {}
        checks["f(0)"] = abs(spec.eval("f", 0).value - 1) <= 1e-6
        checks["fhat(0)"] = abs(spec.eval("f_hat", 0).value - 1) <= 1e-6
        for rr, name in ((r1, "r1"), (mp.sqrt(spec.r1_sq + 2), "r2")):
            checks[f"f({name})"] = abs(spec.eval("f", rr).value) <= 1e-6
            checks[f"fhat({name})"] = abs(spec.eval("f_hat", rr).value) <= 1e-6
        # slopes in r^2, exact at the even squared radii
        checks["f'(second) double"] = spec.jet("f", spec.r1_sq + 2)[1] == 0
        checks["f'(r1) transversal"] = spec.jet("f", spec.r1_sq)[1] != 0
        checks["taylor f"] = taylor_quadratic("f", n, spec) == taylor_targets[0]
        checks["taylor fhat"] = (taylor_quadratic("f_hat", n, spec)
                                 == taylor_targets[1])
        cert = certify_magic(n, spec)
        checks["grid signs + roots certificate"] = cert.status == "verified"
        bound = ce_bound_from_function(n, spec, certificate=cert)
        checks["bound"] = abs(float(bound.value) - opt) / opt <= 1e-6
        return checks


def test_criterion_5_magic_dimension_8(spec8):
    checks = _magic_criterion(
        8, spec8, (Fraction(-27, 10), Fraction(-3, 2)), OPT8)
    failing = [k for k, v in checks.items() if not v]
    report(5, not failing, f"n=8 checks: {', '.join(checks)}"
           + (f" FAILING: {failing}" if failing else ""))


def test_criterion_6_magic_dimension_24(spec24):
    checks = _magic_criterion(
        24, spec24, (Fraction(-14347, 5460), Fraction(-205, 156)), OPT24)
    failing = [k for k, v in checks.items() if not v]
    report(6, not failing, f"n=24 checks: {', '.join(checks)}"
           + (f" FAILING: {failing}" if failing else ""))


@pytest.fixture(scope="module")
def lp8():
    return sampled_lp(8, 30)


def test_criterion_7_lp_pipeline(lp8):
    res = lp8
    ok = res["feasible_report"]["feasible"]
    ok &= res["certificate_status"] == "certified"
    ok &= OPT8 <= res["bound"] <= 1.5 * OPT8
    detail = f"sampled d=30 bound/optimal {res['bound'] / OPT8:.6f}"
    forced = forced_bound(8, 27)
    # the forced roots: a proved bound within 1e-3 of the optimum
    ratio = forced.get("bound", math.nan) / OPT8 - 1
    ok &= forced["proof"].status == "verified" and 0 <= ratio <= 1e-3
    detail += f"; forced d=27 bound/optimal - 1 {ratio:.6e}"
    # validity: the reported bound sits above the known optimal density
    ok &= res["bound"] >= OPT8
    report(7, ok, detail)


def test_criterion_8_certificate_soundness(spec8, lp8):
    cert = lp8["certificate"]
    ok = verify_lp(cert).status == "verified"
    # each tampering breaks one hypothesis: a negative coefficient, a root
    # of p beyond y0 (a positive lead for the even degree), y0 above pi
    tiny = Fraction(1, 10 ** 40)
    tampered = [
        LpCertificate(8, 30, cert.b[:-1] + (-tiny,), cert.y0),
        LpCertificate(8, 30, cert.b[:-1] + (tiny,), cert.y0),
        LpCertificate(8, 30, cert.b, PI_HI),
    ]
    rejected = sum(verify_lp(t).status == "refuted" for t in tampered)
    ok &= rejected == len(tampered)
    flipped = spec8.flipped_minus_copy()
    sabotage = certify_magic(8, flipped)
    ok &= sabotage.status == "refuted"
    report(8, ok, f"d=30 sign certificate accepted, {rejected}/"
                  f"{len(tampered)} tamperings rejected, sign-flipped spec "
                  f"refuted")


def test_criterion_9_determinism(tmp_path, spec8):
    import os
    import pathlib
    import subprocess
    import sys

    import packbound
    outputs = []
    # first run in-process (warm caches), second in a fresh interpreter:
    # byte-identity across cold and warm runs is the determinism contract
    target = tmp_path / "one.json"
    code = dispatch(["--format", "json", "magic", "check", "--dim", "8",
                     "--out", str(target)])
    assert code == 0
    outputs.append(target.read_bytes())
    # the cold run is the artifact's own replay command
    program, *replay = shlex.split(json.loads(outputs[0])["replay"])
    assert program == "packbound"
    target2 = tmp_path / "two.json"
    # the fresh interpreter imports the package the tests import
    src = str(pathlib.Path(packbound.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "packbound.cli", *replay, "--out",
         str(target2)],
        capture_output=True, text=True, env=env, timeout=900)
    assert proc.returncode == 0, proc.stderr[-500:]
    outputs.append(target2.read_bytes())
    ok = outputs[0] == outputs[1]
    doc = json.loads(outputs[0])
    ok &= doc["certificate"]["status"] == "verified"
    report(9, ok, f"{len(outputs[0])} bytes, identical across a warm and a "
                  f"cold run")
