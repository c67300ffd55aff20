import argparse
import contextlib
import hashlib
import json
import os
import shlex
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from packbound import certify, cli, codes, lattices, lpbound, magic, simplex
from packbound.cli import (
    EXIT_INCONCLUSIVE, EXIT_OK, EXIT_REFUTED, EXIT_USAGE, build_parser,
    dispatch, output_format,
)
from packbound.exact import poly_eval, poly_primitive
from packbound.lpbound import PI_LO, LpCertificate, laguerre_all

# a proven bound pi < PI_HI: a certificate with y0 = PI_HI is refuted
PI_HI = Fraction(314159265358980, 10 ** 14)


def run(argv, capsys):
    code = dispatch(argv)
    out = capsys.readouterr().out
    return code, out


def test_unknown_command_usage_error(capsys):
    code, _ = run(["frobnicate"], capsys)
    assert code == EXIT_USAGE


def test_bad_config_rejected(capsys):
    code, _ = run(["--precision", "5", "code", "info", "--name", "hamming8"],
                  capsys)
    assert code == EXIT_USAGE


def test_code_info_json(capsys):
    code, out = run(["--format", "json", "code", "info", "--name", "golay24"],
                    capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["dimension"] == 12
    assert doc["weights"] == {"0": 1, "8": 759, "12": 2576, "16": 759,
                              "24": 1}
    assert doc["self_dual"] and doc["doubly_even"]
    assert doc["version"]
    assert doc["config"]["precision"] == 60


def test_lattice_info_e8(capsys):
    code, out = run(["--format", "json", "lattice", "info", "--name", "e8"],
                    capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["min_sq_norm"] == 2
    assert doc["kissing"] == 240
    assert doc["covolume"] == "1"
    assert doc["density"] == "pi^4/384"


def _count_calls(monkeypatch, module, name):
    """Calls of module.name through its own binding and the CLI's."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in (module, cli):
        monkeypatch.setattr(mod, name, counted)
    return calls


def test_code_info_enumerates_once(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, codes, "weight_enumerator")
    code, _ = run(["code", "info", "--name", "golay24"], capsys)
    assert code == EXIT_OK and len(calls) == 1


def test_lattice_info_counts_once(monkeypatch, capsys):
    lattices.standard_lattice("leech")  # the build is not the command's count
    calls = _count_calls(monkeypatch, lattices, "vectors_by_norm")
    code, out = run(["lattice", "info", "--name", "leech"], capsys)
    assert code == EXIT_OK and len(calls) == 1
    assert "kissing: 196560" in out and "density: pi^12/479001600" in out


def test_lattice_theta_csv(capsys):
    code, out = run(["lattice", "theta", "--name", "e8", "--max-norm", "6"],
                    capsys)
    assert code == EXIT_OK
    assert out.splitlines()[:4] == ["sq_norm,count", "0,1", "2,240", "4,2160"]


def test_qseries_show(capsys):
    code, out = run(["qseries", "show", "e4", "--terms", "4"], capsys)
    assert code == EXIT_OK
    assert out.strip() == "e4: 1, 240, 2160, 6720"


def test_qseries_csv(capsys):
    code, out = run(["--format", "csv", "qseries", "show", "theta10"],
                    capsys)
    assert code == EXIT_OK
    assert out.splitlines()[1] == "1,2,1"


def test_magic_eval(capsys, spec8):
    code, out = run(["magic", "eval", "--dim", "8", "--r", "1.7"], capsys)
    assert code == EXIT_OK
    assert "f(1.7)" in out
    assert "-0.000494" in out


def test_magic_eval_far_radius(capsys, spec8):
    # far beyond the pole band: zero within its error, not a hang
    code, out = run(["--format", "json", "magic", "eval", "--dim", "8",
                     "--r", "1e300"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert float(doc["f"]) == 0 and float(doc["f_err"]) < 1e-40


def test_magic_table(tmp_path, capsys, spec8):
    target = tmp_path / "f.csv"
    code, _ = run(["magic", "table", "--dim", "8", "--rmax", "1",
                   "--step", "0.5", "--out", str(target)], capsys)
    assert code == EXIT_OK
    lines = target.read_text().splitlines()
    assert lines[0] == "r,f,f_err,fhat,fhat_err"
    assert len(lines) == 4  # r = 0, 0.5, 1.0


# sha256 of the stdout of magic artifacts: a change to the numerics that
# moves one byte of them shows here
ARTIFACT_DIGESTS = {
    "--format json magic check --dim 8":
        "893b2b1a238ff7657061ba299e5ffb871eacf1eaefa9d1c15417972590cc37a6",
    "--format json magic check --dim 24":
        "70d0471fdbb5a2a19057b6ecd2760b1b970163bb1b018e3ecf5e30a0b8ed27f3",
    "magic table --dim 8 --rmax 4 --step 0.01":
        "46d33e476a711d53ccc03b4b9f27ad91d840d3efde2d9c02bb925fe941eb7046",
}

# the same for the exact lattice and LP artifacts, whose densities and
# optimum ratios read the exact constants rat * pi^k
EXACT_ARTIFACT_DIGESTS = {
    "--format json lattice info --name e8":
        "f313eba604238bac87324a59d574dd5ff0682385e28c6cefd9919dfd44bc5cf1",
    "--format json lattice info --name l24":
        "28b387eb62e284c96e23b06b91ba9bb3af00ba936730a9b8ec92e23169ccad76",
    "--format json lattice info --name leech":
        "c819673d1ea333b3e82d2a3e7cae9a0730023ab3b360b4bb62dcbb947c6d8219",
    "--format json lattice info --name zn --n 3":
        "6c394c1a3239c6db088ea74b3847b2cabe63801b70c6f6994bd4faf65f5735bf",
    "--format json lpbound run --dim 8 --degree 30":
        "95855db8201dc9f169323292b9ee38d90346bba055c579e1c4d79cd3b5e89b6a",
    "--format json lpbound run --dim 8 --degree 27 --method forced":
        "a5f6c7ea11d8a832139a79dfdb50ee6b27d0c0ff9855cb71ae517b7b20d8e089",
    "--format json lpbound run --dim 24 --degree 27 --method forced":
        "c9f8e307a7b600a186df90cd1fe9e418ed059da0355c4708b40209dbb8aab8e8",
}


@pytest.mark.parametrize("command", sorted(ARTIFACT_DIGESTS))
def test_magic_artifact_fingerprint(command, capsys):
    code, out = run(command.split(), capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == \
        ARTIFACT_DIGESTS[command]


@pytest.mark.parametrize("command", sorted(EXACT_ARTIFACT_DIGESTS))
def test_exact_artifact_fingerprint(command, capsys):
    code, out = run(command.split(), capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == \
        EXACT_ARTIFACT_DIGESTS[command]


def test_magic_table_stops_at_rmax(capsys, spec8):
    code, out = run(["magic", "table", "--dim", "8", "--rmax", "1e-14",
                     "--step", "1e-15"], capsys)
    assert code == EXIT_OK
    radii = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
    assert len(radii) == 11 and radii[-1] <= 1e-14


@pytest.mark.parametrize("step", ["1e-300", "1e-6"])
def test_magic_table_row_limit_is_usage_error(step, monkeypatch, capsys):
    # checked before the spec is built, so the command returns at once
    monkeypatch.setattr(cli, "magic_spec",
                        lambda *a, **k: pytest.fail("spec built"))
    code = dispatch(["magic", "table", "--dim", "8", "--rmax", "1",
                     "--step", step])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert f"{cli.MAX_TABLE_ROWS} rows" in captured.err


def test_deterministic_artifacts(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code, _ = run(["--format", "json", "lattice", "info", "--name",
                       "leech", "--out", str(target)], capsys)
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_verify_poisson(capsys):
    code, out = run(["verify", "poisson", "--name", "e8", "--sigma", "1",
                     "--cutoff", "25"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["status"] == "verified"
    assert doc["config"]["fmt"] == "json"  # the format written


@pytest.mark.parametrize("lattice", [
    ["e8"], ["l24"], ["leech"], ["zn", "--n", "8"]], ids=lambda a: a[0])
def test_verify_poisson_default_sigma(lattice, capsys):
    # the default is 4/5: at sigma = 1 the lattice sum and the dual sum of a
    # unimodular lattice are one expression, and only the tails are checked
    code, out = run(["verify", "poisson", "--name", *lattice], capsys)
    doc = json.loads(out)
    assert code == EXIT_OK and doc["status"] == "verified"
    assert doc["sigma"] == "4/5" and " --sigma 4/5 " in doc["replay"]


@pytest.mark.parametrize("sigma, cutoff", [("1/10", 5), ("1", 2), ("3", 3)])
def test_verify_poisson_tails_alone_are_inconclusive(sigma, cutoff, capsys):
    # Poisson summation holds on E8; these residuals exceed the tolerance
    # only through the tail bounds (+inf, or 2.5e-4 each with a difference
    # of 0)
    code, out = run(["verify", "poisson", "--name", "e8", "--sigma", sigma,
                     "--cutoff", str(cutoff)], capsys)
    assert code == EXIT_INCONCLUSIVE
    doc = json.loads(out)
    assert (doc["status"], doc["passed"]) == ("inconclusive", False)


def test_verify_poisson_sabotaged_counts_refuted(monkeypatch, capsys):
    # one norm-2 vector too many: the truncated sums differ by more than
    # both tails (2.95e-3 beyond them at sigma = 4/5; at sigma = 1 the two
    # sums coincide, so the sabotage would not show)
    vectors_by_norm = certify.vectors_by_norm

    def sabotaged(lat, max_norm, budget=Fraction(64)):
        table = vectors_by_norm(lat, max_norm, budget=budget)
        counts = tuple((v, c + (v == 2)) for v, c in table.counts)
        assert dict(counts)[2] == 241
        return lattices.NormCountTable(counts)

    monkeypatch.setattr(certify, "vectors_by_norm", sabotaged)
    code, out = run(["verify", "poisson", "--name", "e8", "--sigma", "4/5",
                     "--cutoff", "25"], capsys)
    assert code == EXIT_REFUTED
    assert json.loads(out)["status"] == "refuted"


@pytest.fixture(scope="module")
def lp8_artifacts(tmp_path_factory):
    """`lpbound run --dim 8 --degree 30` artifacts at two precisions."""
    paths = {}
    for precision in (30, 80):
        paths[precision] = tmp_path_factory.mktemp("lp8") / "lp8.json"
        code = dispatch(["--precision", str(precision), "--format", "json",
                         "lpbound", "run", "--dim", "8", "--degree", "30",
                         "--out", str(paths[precision])])
        assert code == EXIT_OK
    return paths


def test_lpbound_sampled_ignores_precision(lp8_artifacts):
    docs = [json.loads(p.read_text()) for p in lp8_artifacts.values()]
    assert [d.pop("config")["precision"] for d in docs] == [30, 80]
    assert docs[0] == docs[1]
    assert docs[0]["certificate_status"] == "certified"


def test_lpbound_reads_the_optimal_density_without_a_lattice(
        lp8_artifacts, monkeypatch, capsys):
    # the E8 density, pi^4/384, from a lattice build before the patch
    e8 = lattices.lattice_properties(lattices.standard_lattice("e8"))

    def no_lattice(*args):
        raise AssertionError("lpbound run built a lattice")

    monkeypatch.setattr(cli, "standard_lattice", no_lattice)
    monkeypatch.setattr(lattices, "standard_lattice", no_lattice)
    code, out = run(["--format", "json", "lpbound", "run", "--dim", "8",
                     "--degree", "30"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["bound_over_optimal"] == (doc["bound"]
                                         / e8["density"].to_float())
    # the same document as the artifact written before the patch
    artifact = json.loads(lp8_artifacts[30].read_text())
    assert doc.pop("config")["precision"] == 60
    artifact.pop("config")
    assert doc == artifact


def test_verify_lp_roundtrip(lp8_artifacts, capsys):
    code, out = run(["verify", "lp", "--cert", str(lp8_artifacts[30])],
                    capsys)
    assert code == EXIT_OK
    assert json.loads(out)["certificate"]["status"] == "verified"


@pytest.mark.parametrize("argv", [
    ["verify", "poisson", "--name", "zn", "--n", "4", "--tolerance", "1e-05",
     "--cutoff", "10"],
    ["verify", "poisson", "--name", "e8", "--tolerance", "1e-09"],
    ["verify", "lp", "--cert", "LP8"],
    ["--precision", "30", "--format", "json", "lpbound", "run", "--dim",
     "24", "--degree", "27", "--method", "forced"],
], ids=["poisson-zn", "poisson-e8", "lp", "lpbound-forced"])
def test_replay_reproduces_artifact(argv, lp8_artifacts, tmp_path):
    """Each artifact's `replay` command writes the same artifact with the
    same exit code (`magic check`'s replay is criterion 9's cold run)."""
    argv = [str(lp8_artifacts[30]) if a == "LP8" else a for a in argv]
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    code = dispatch([*argv, "--out", str(first)])
    program, *replay = shlex.split(json.loads(first.read_text())["replay"])
    assert program == "packbound"
    assert dispatch([*replay, "--out", str(second)]) == code == EXIT_OK
    assert second.read_bytes() == first.read_bytes()


def test_verify_lp_tampering_refuted(lp8_artifacts, tmp_path, capsys):
    doc = json.loads(lp8_artifacts[30].read_text())
    cert = LpCertificate.from_dict(doc["certificate"])
    assert cert.y0 == PI_LO and cert.d % 2 == 0

    def with_b(k, value):
        b = list(cert.b)
        b[k - 1] = value
        return LpCertificate(cert.n, cert.d, tuple(b), cert.y0)

    # raising b_1 by this lifts p(y0) to exactly 0, since L_1(y0) > 0
    lift = -poly_eval(cert.polynomial(), cert.y0) / laguerre_all(
        1, Fraction(cert.n, 2) - 1, cert.y0)[1]
    tiny = Fraction(1, 10 ** 40)  # L_d has a positive lead for d even
    # each tampering breaks exactly one hypothesis
    tampered = {
        "profile coefficients b >= 0": with_b(cert.d, -tiny),
        "y0 lies below pi": LpCertificate(cert.n, cert.d, cert.b, PI_HI),
        "p(y0) < 0": with_b(1, cert.b[0] + lift),
        "no root of p in (y0, inf)": with_b(cert.d, tiny),
    }
    for step, bad in tampered.items():
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(doc, certificate=bad.to_dict())))
        code, out = run(["verify", "lp", "--cert", str(path)], capsys)
        assert code == EXIT_REFUTED, step
        log = json.loads(out)["certificate"]["log"]
        assert [s["statement"] for s in log if not s["passed"]] == [step]


M127 = 2 ** 127 - 1


@pytest.mark.parametrize("n, b, y0, p, code, found", [
    # (16 y^2 - 308 y + 1103)^2 (1 - y): double roots at (77 +- sqrt 1517)/8,
    # both beyond PI_LO and off every bisection grid
    (3, ["415994/169847", "293056/169847", "256320/169847", "147456/169847",
         "61440/169847"], str(PI_LO),
     [1216609, -1896057, 809608, -140016, 10112, -256], EXIT_REFUTED,
     "2 roots, 0 unresolved intervals"),
    # that p plus 2^-3000 L_5: each double root parts into two roots (or a
    # complex pair) about 2^-1500 apart, which the cap leaves unresolved
    (3, ["415994/169847", "293056/169847", "256320/169847", "147456/169847",
         str(Fraction(61440, 169847) + Fraction(1, 2 ** 3000))], str(PI_LO),
     None, EXIT_INCONCLUSIVE, "0 roots, 2 unresolved intervals"),
    # (2 y - 7)^2 (1 - 2 y): a double root at 7/2, the third midpoint of
    # p's grid from 45/28 towards its Cauchy bound 67/4; the square-free
    # part, with Cauchy bound 5, isolates it in its first node
    (1, ["9/4", "0", "3"], "45/28", [49, -126, 60, -8], EXIT_REFUTED,
     "1 roots, 0 unresolved intervals (1 bisection nodes)"),
    # (M y - 4 M - 1)^2 (1 - y), M = 2^127 - 1: the prime of the quick
    # square-free test divides the leading coefficient, so the lift finds
    # the double root 4 + 1/M; nothing raises, nothing is left unresolved
    (2, [str(Fraction(6 * M127 ** 2 + 2 * M127 + 1,
                      2 * M127 * (2 * M127 + 1))),
         str(Fraction(2, 2 * M127 + 1)), str(Fraction(3 * M127, 2 * M127 + 1))],
     "3", [(4 * M127 + 1) ** 2, -(4 * M127 + 1) * (6 * M127 + 1),
           M127 * (9 * M127 + 2), -M127 ** 2], EXIT_REFUTED,
     "1 roots, 0 unresolved intervals"),
], ids=["irrational-double-root", "root-cluster", "root-at-a-midpoint",
        "lead-a-multiple-of-the-quick-prime"])
def test_verify_lp_at_the_bisection_cap(n, b, y0, p, code, found, tmp_path,
                                        capsys):
    # b >= 0, y0 <= PI_LO and p(y0) < 0 hold, so the root step decides: a
    # double root, found on the square-free part of p, refutes; roots too
    # close to part within the node cap are inconclusive (the failure is
    # not definite), never verified
    cert = LpCertificate(n, len(b), tuple(map(Fraction, b)), Fraction(y0))
    assert p is None or poly_primitive(cert.polynomial()) == p
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"certificate": cert.to_dict()}))
    got, out = run(["verify", "lp", "--cert", str(path)], capsys)
    assert got == code
    log = json.loads(out)["certificate"]["log"]
    assert [s["statement"] for s in log if not s["passed"]] == [
        "no root of p in (y0, inf)"]
    assert log[-1]["bound"].startswith(found)


@pytest.mark.parametrize("b, bound", [
    (["1e400"], "inf"), (["-1e400", "1"], "-inf"),
], ids=["huge-b", "huge-negative-b"])
def test_verify_lp_beyond_float_range_is_refuted(b, bound, tmp_path,
                                                 capsys):
    # min(b) and p(y0) lie past the float range; their rendering must not
    # raise, and the artifact is written
    path, out_path = tmp_path / "cert.json", tmp_path / "out.json"
    path.write_text(json.dumps({"certificate": {
        "n": 8, "d": len(b), "b": b, "y0": "3"}}))
    code = dispatch(["verify", "lp", "--cert", str(path),
                     "--out", str(out_path)])
    assert code == EXIT_REFUTED and capsys.readouterr().err == ""
    cert = json.loads(out_path.read_text())["certificate"]
    assert cert["status"] == "refuted"
    assert {s["statement"]: s["bound"] for s in cert["log"]}[
        "p(y0) < 0"] == bound


@pytest.mark.parametrize("b, y0", [
    (["1"], "1e5000"), (["1"], "1e100000000"), (["1" * 2001], "3"),
    (["1"] * 10 ** 6, "3"),
], ids=["y0-1e5000", "y0-1e100000000", "long-b", "many-b"])
def test_verify_lp_oversized_number_is_usage_error(b, y0, tmp_path, capsys):
    # refused as malformed before Fraction builds the integer: 10^100000000
    # alone would take far longer, and str() of a 5001-digit integer raises
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"certificate": {
        "n": 8, "d": len(b), "b": b, "y0": y0}}))
    start = time.perf_counter()
    code = dispatch(["verify", "lp", "--cert", str(path)])
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("packbound: ") and err.count("\n") == 1


def test_lpbound_infeasible_is_inconclusive(capsys):
    code, out = run(["--format", "json", "lpbound", "run", "--dim", "24",
                     "--degree", "30"], capsys)
    assert code == EXIT_INCONCLUSIVE
    doc = json.loads(out)
    assert doc["certificate_status"] == "infeasible"
    assert "bound" not in doc and "estimate" not in doc


def test_lpbound_iteration_limit_is_inconclusive(monkeypatch, capsys,
                                                 tmp_path):
    # a solve stopped at the pivot limit is no answer: exit 3 with its own
    # status and an artifact, not a usage error
    monkeypatch.setattr(simplex, "MAX_ITER", 10)
    out_path = tmp_path / "lp8.json"
    code, _ = run(["--format", "json", "lpbound", "run", "--dim", "8",
                   "--degree", "30", "--out", str(out_path)], capsys)
    assert code == EXIT_INCONCLUSIVE
    doc = json.loads(out_path.read_text())
    assert doc["certificate_status"] == "iteration-limit"
    assert doc["feasible_report"]["feasible"] is False
    assert "bound" not in doc and "estimate" not in doc
    assert "certificate" not in doc


MALFORMED_CERTS = {
    "short_b": {"n": 1, "d": 2, "b": ["1/2"], "y0": "3"},
    "nonrational_b": {"n": 1, "d": 1, "b": ["x"], "y0": "3"},
    "no_y0": {"n": 1, "d": 1, "b": ["1/2"]},
    "huge_d": {"n": 8, "d": 3000, "b": ["0"] * 2999 + ["1"], "y0": "3"},
    # beyond the budget, which keeps a verification under 20 s
    "over_budget": {"n": 8, "d": 200, "b": ["1e1999"] * 200, "y0": "3"},
}
# certificate files as raw text: json.dumps of these would recurse too deeply
RAW_CERT_FILES = {
    "nested": "[" * 200000 + "]" * 200000,
    "nested_cert": '{"certificate": ' + "[" * 200000 + "]" * 200000 + "}",
}


@pytest.mark.parametrize("argv", [
    ["verify", "lp"],
    ["lpbound", "run", "--dim", "8", "--degree", "0"],
    ["lpbound", "run", "--dim", "8", "--degree", "-5", "--method", "forced"],
    ["lpbound", "run", "--dim", "3", "--degree", "0", "--method", "forced"],
    ["magic", "eval", "--dim", "8", "--r", "-1"],
    ["qseries", "show", "nope"],
    ["verify", "lp", "--cert", "{short_b}"],
    ["verify", "lp", "--cert", "{nonrational_b}"],
    ["verify", "lp", "--cert", "{no_y0}"],
    ["verify", "lp", "--cert", "{absent}"],
    ["lattice", "info", "--name", "zn"],
    ["verify", "poisson", "--name", "zn"],
    ["lattice", "info", "--name", "e8", "--n", "5"],
    ["magic", "eval", "--dim", "8", "--r", "inf"],
    ["magic", "eval", "--dim", "8", "--r", "nan"],
    ["magic", "table", "--dim", "8", "--step", "0"],
    ["magic", "table", "--dim", "8", "--step", "-0.5"],
    ["magic", "table", "--dim", "8", "--step", "nan"],
    ["magic", "table", "--dim", "8", "--step", "inf"],
    ["magic", "table", "--dim", "8", "--rmax", "inf"],
    ["magic", "table", "--dim", "8", "--rmax", "nan"],
    ["magic", "table", "--dim", "8", "--rmax", "-1"],
    ["verify", "poisson", "--name", "e8", "--sigma", "abc"],
    ["verify", "poisson", "--name", "e8", "--sigma", "0"],
    ["verify", "poisson", "--name", "e8", "--sigma", "1/0"],
    ["verify", "poisson", "--name", "e8", "--sigma", "-1"],
    ["verify", "poisson", "--name", "e8", "--cutoff", "-3"],
    ["verify", "poisson", "--name", "e8", "--tolerance", "nan"],
    ["verify", "poisson", "--name", "e8", "--tolerance", "-1"],
    ["verify", "poisson", "--name", "e8", "--tolerance", "inf"],
    ["lattice", "theta", "--name", "e8", "--max-norm", "-2"],
    ["qseries", "show", "e4", "--terms", "-1"],
    ["qseries", "show", "e4", "--terms", "0"],
    ["lpbound", "run", "--dim", "0", "--degree", "30"],
    ["lpbound", "run", "--dim", "-2", "--degree", "30"],
    ["lpbound", "run", "--dim", "3", "--degree", "7", "--method", "forced"],
    ["lpbound", "run", "--dim", "1", "--degree", "7", "--method", "forced"],
    ["lattice", "theta", "--name", "e8", "--max-norm", "100000"],
    ["verify", "poisson", "--name", "e8", "--cutoff", "100000"],
    ["lpbound", "run", "--dim", "8", "--degree", "100000"],
    ["verify", "lp", "--cert", "{huge_d}"],
    ["verify", "lp", "--cert", "{over_budget}"],
    ["verify", "lp", "--cert", "{nested}"],
    ["verify", "lp", "--cert", "{nested_cert}"],
    ["lattice", "info", "--name", "zn", "--n", "0"],
    ["lattice", "info", "--name", "zn", "--n", "25"],
    ["lattice", "theta", "--name", "zn", "--n", "5000"],
    ["verify", "poisson", "--name", "zn", "--n", "25"],
    ["magic", "eval", "--dim", "8", "--r", "-0.5"],
    ["magic", "eval", "--dim", "24", "--r=-inf"],
    # refused by argparse itself: an unknown command or option, an
    # abbreviated one, a missing value, a bad choice, and a negative value
    # given as its own token, which argparse reads as an option
    ["frobnicate"],
    ["code", "info", "--name", "golay24", "--bogus"],
    ["--prec", "10", "code", "info", "--name", "golay24"],
    ["magic", "eval", "--dim"],
    ["lpbound", "run", "--dim", "8", "--degree", "27", "--method", "newton"],
    ["magic", "eval", "--dim", "8", "--r", "-inf"],
    # a global option out of range or a format the command does not write,
    # and an abbreviation on a command-level parser (`--he` is no `--help`)
    ["--precision", "5", "code", "info", "--name", "golay24"],
    ["--precision", "1000", "code", "info", "--name", "golay24"],
    ["--trunc", "10", "code", "info", "--name", "golay24"],
    ["--format", "csv", "code", "info", "--name", "golay24"],
    ["lpbound", "--he"],
])
def test_bad_input_is_usage_error(argv, tmp_path, capsys):
    paths = {"absent": tmp_path / "absent.json"}
    for name, cert in MALFORMED_CERTS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({"certificate": cert}))
    for name, text in RAW_CERT_FILES.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(text)
    argv = [a.format(**paths) for a in argv]
    # a table whose radius never advances must fail the test, not hang it;
    # pytest's Failed is no OSError, so dispatch does not turn it into exit 2
    with _deadline(argv):
        code = dispatch(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err.startswith("packbound: ")
    assert captured.err.count("\n") == 1


def test_bad_dimension_or_radius_is_refused_before_any_build(monkeypatch,
                                                             capsys):
    # a Z^n basis is n x n and a spec build takes a second, so an --n or
    # --r out of range is refused where it enters, before either is built
    def fail(*args, **kwargs):
        raise AssertionError("built before the input was checked")

    monkeypatch.setattr(lattices, "_make_lattice", fail)
    monkeypatch.setattr(cli, "magic_spec", fail)
    for argv in (["lattice", "info", "--name", "zn", "--n", "25"],
                 ["lattice", "info", "--name", "zn", "--n", "0"],
                 ["lattice", "theta", "--name", "zn", "--n", "5000"],
                 ["verify", "poisson", "--name", "zn", "--n", "25"],
                 ["magic", "eval", "--dim", "8", "--r", "-0.5"],
                 ["magic", "eval", "--dim", "24", "--r=-inf"],
                 ["magic", "eval", "--dim", "8", "--r", "nan"]):
        assert dispatch(argv) == EXIT_USAGE, argv
        assert capsys.readouterr().err.startswith("packbound: ")


@contextlib.contextmanager
def _deadline(argv, seconds=120):
    """Fail the test if the block has not returned within seconds."""
    def expire(signum, frame):
        pytest.fail(f"{argv} did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("argv, expected", [
    (["lpbound", "run", "--dim", "6000", "--degree", "200"],
     EXIT_INCONCLUSIVE),
    (["lpbound", "run", "--dim", str(10 ** 20), "--degree", "30"],
     EXIT_INCONCLUSIVE),
    (["lpbound", "run", "--dim", "2000", "--degree", "200"],
     EXIT_INCONCLUSIVE),
    (["magic", "eval", "--dim", "8", "--r", "1e300"], EXIT_OK),
    (["verify", "poisson", "--name", "e8", "--sigma", "1e400"],
     EXIT_INCONCLUSIVE),
    (["verify", "poisson", "--name", "e8", "--sigma", "100"],
     EXIT_INCONCLUSIVE),
    (["verify", "poisson", "--name", "e8", "--sigma", "1e5000"], EXIT_USAGE),
    (["verify", "poisson", "--name", "e8", "--sigma", "1e100000000"],
     EXIT_USAGE),
], ids=["lp-n6000-d200", "lp-n1e20-d30", "lp-n2000-d200", "eval-r1e300",
        "poisson-sigma1e400", "poisson-sigma100", "poisson-sigma1e5000",
        "poisson-sigma1e100000000"])
def test_extreme_numeric_flags_keep_the_exit_code(argv, expected):
    # numbers at the edge of or beyond a float's range reach the numerics;
    # the process must still end with its contract code, not a traceback
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    with _deadline(argv):
        proc = subprocess.run([sys.executable, "-m", "packbound.cli", *argv],
                              capture_output=True, text=True, env=env)
    assert "Traceback" not in proc.stderr, proc.stderr[-500:]
    assert proc.returncode == expected


@pytest.mark.parametrize("argv", [
    ["--format", "csv", "lpbound", "run", "--dim", "8", "--degree", "30"],
    ["--format", "json", "lattice", "theta", "--name", "e8"],
    ["--format", "json", "magic", "table", "--dim", "8"],
    ["--format", "csv", "code", "info", "--name", "golay24"],
    ["--format", "text", "verify", "poisson", "--name", "e8"],
])
def test_format_not_written_is_usage_error(argv, monkeypatch, capsys):
    # the format is checked before any handler runs
    for name in ("code", "lattice", "qseries", "magic", "lpbound", "verify"):
        monkeypatch.setattr(cli, f"_cmd_{name}",
                            lambda *a: pytest.fail("handler ran"))
    code = dispatch(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "writes" in captured.err


@pytest.mark.parametrize("argv", [
    ["code", "info", "--name", "golay24", "--json"],
    ["lattice", "info", "--name", "e8", "--json"],
    ["qseries", "show", "e4", "--csv"],
    ["magic", "check", "--dim", "8", "--report", "json"],
    ["verify", "magic", "--dim", "8"],
    ["lpbound", "run", "--dim", "8", "--degree", "27", "--method", "newton"],
])
def test_removed_format_flags_are_usage_errors(argv, capsys):
    assert dispatch(argv) == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["lattice", "info", "--name", "e8", "--max-norm", "8"],
    ["magic", "eval", "--dim", "8", "--rmax", "1"],
    ["magic", "eval", "--dim", "8", "--step", "0.5"],
    ["magic", "table", "--dim", "8", "--r", "1"],
    ["magic", "check", "--dim", "8", "--r", "1"],
    ["magic", "check", "--dim", "8", "--rmax", "1"],
    ["magic", "check", "--dim", "8", "--step", "0.5"],
    ["verify", "poisson", "--name", "e8", "--cert", "lp8.json"],
    ["verify", "lp", "--cert", "lp8.json", "--name", "e8"],
    ["verify", "lp", "--cert", "lp8.json", "--n", "8"],
    ["verify", "lp", "--cert", "lp8.json", "--sigma", "1"],
    ["verify", "lp", "--cert", "lp8.json", "--cutoff", "5"],
    ["verify", "lp", "--cert", "lp8.json", "--tolerance", "1e-9"],
    ["lpbound", "--dim", "8", "--degree", "6"],
    ["lpbound", "run", "--dim", "8", "--degree", "6", "-o", "lp8.json"],
    ["code", "--name", "golay24", "info"],
    ["lattice", "--name", "e8", "info"],
], ids=lambda argv: " ".join(argv[:2] + argv[-2:-1]))
def test_option_of_another_action_is_usage_error(argv, monkeypatch, capsys):
    # an action takes only the options its handler reads: any other is
    # refused by the parser, before any handler runs.  Every command names
    # its action first, and --out has no short form
    for name in ("code", "lattice", "lpbound", "magic", "verify"):
        monkeypatch.setattr(cli, f"_cmd_{name}",
                            lambda *a: pytest.fail("handler ran"))
    code = dispatch(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    "--prec 10 lpbound run --dim 8 --deg 30 --meth forced",
    "code info --n golay24",
])
def test_abbreviated_option_is_usage_error(argv, monkeypatch, capsys):
    # no parser completes a truncated option into another one
    for name in ("code", "lpbound"):
        monkeypatch.setattr(cli, f"_cmd_{name}",
                            lambda *a: pytest.fail("handler ran"))
    code = dispatch(argv.split())
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv, message", [
    ("lpbound --he", "unrecognized arguments: --he"),
    ("code --he", "unrecognized arguments: --he"),
    ("--he", "unrecognized arguments: --he"),
    ("--format json lpbound --he=1 --x", "unrecognized arguments: --he=1 --x"),
    ("lpbound", "a command and its action are required"),
    ("--format json", "a command and its action are required"),
    ("lpbound run --dim -3", "the following arguments are required: "
                             "--degree"),
])
def test_unknown_option_is_named_before_a_missing_action(argv, message,
                                                         capsys):
    # a command-level option that no parser knows is named as such, not as
    # the missing command or action it leaves; a negative value is no
    # option
    assert dispatch(argv.split()) == EXIT_USAGE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"packbound: {message}\n")


def test_magic_check_artifact_survives_a_failed_worker(monkeypatch, capsys,
                                                       cpus, forks):
    # a child that exits without a result leaves its block of the grid to
    # the parent: the same bytes, exit 0
    cpus(2)
    monkeypatch.setattr(magic, "_SPEC_CACHE", {})
    parent, block = os.getpid(), magic.MagicFunctionSpec._block

    def failing(self, *args):
        if os.getpid() != parent:
            os._exit(1)
        return block(self, *args)

    monkeypatch.setattr(magic.MagicFunctionSpec, "_block", failing)
    command = "--format json magic check --dim 8"
    code, out = run(command.split(), capsys)
    assert code == EXIT_OK
    assert forks
    assert hashlib.sha256(out.encode()).hexdigest() == \
        ARTIFACT_DIGESTS[command]


def _readme_command_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1]
    return [line for line in block.split("```", 1)[0].splitlines()
            if line.startswith("packbound ")]


def test_readme_command_lines_parse():
    # each line of the "Command line" block parses and asks for a format
    # its command writes; nothing is executed
    lines = _readme_command_lines()
    assert len(lines) >= 10
    for line in lines:
        try:
            output_format(build_parser().parse_args(shlex.split(line)[1:]))
        except (SystemExit, ValueError) as exc:
            pytest.fail(f"README line {line!r}: {exc!r}")


def test_readme_command_lines_cover_every_action():
    shown = set()
    for line in _readme_command_lines():
        args = build_parser().parse_args(shlex.split(line)[1:])
        shown.add((args.command, args.action))
    assert sorted(set(cli.FORMATS) - shown) == []


def test_lpbound_run_small(capsys):
    code, out = run(["--format", "json", "lpbound", "run", "--dim", "1",
                     "--degree", "4", "--method", "sampled"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["bound"] >= 1
    assert doc["method"] == "sampled"


@pytest.mark.parametrize("argv", [
    ["--dim", "24", "--degree", "3", "--method", "forced"],
    ["--dim", "24", "--degree", "7", "--method", "forced"],
    ["--dim", "24", "--degree", "11", "--method", "forced"],
])
def test_lpbound_vacuous_estimate_reports_infeasible(argv, capsys):
    # at n = 24 a function with the forced roots of degree 3, 7 or 11
    # undercuts the optimum only because it breaks the sign conditions,
    # and says so: both quotient steps fail, an estimate, exit 3
    code, out = run(["--format", "json", "lpbound", "run"] + argv, capsys)
    assert code == EXIT_INCONCLUSIVE
    doc = json.loads(out)
    assert doc["estimate_over_optimal"] < 1 and "bound" not in doc
    assert doc["proof"]["status"] == "refuted"
    assert [s["statement"] for s in doc["proof"]["log"]
            if not s["passed"]][:2] == ["R_P < 0 on [25.1328125, inf)",
                                        "R_Q > 0 on [0.0, inf)"]


def _forced_failures(argv, capsys):
    """Exit code and failed proof steps of a forced run; no bound."""
    code, out = run(["--format", "json", "lpbound", "run", "--method",
                     "forced"] + argv.split(), capsys)
    doc = json.loads(out)
    assert "bound" not in doc and "estimate" in doc
    return code, [s["statement"] for s in doc["proof"]["log"]
                  if not s["passed"]]


def test_lpbound_forced_wrong_alpha_fails_the_proof(monkeypatch, capsys):
    # Q from P by the Laplacian step, so the flip, of L_k^(n/2-1 -+ 1): at
    # n - 2 every sign proof passes and only the truth check stops the bound
    # (0.805 times the E8 density, 0.689 times Leech's); at n + 2 both
    # quotients fail
    times_x = lpbound._times_x
    for shift in (-2, 2):
        monkeypatch.setattr(lpbound, "_times_x",
                            lambda n, q, shift=shift: times_x(n + shift, q))
        for dim in (8, 24):
            code, failed = _forced_failures(f"--dim {dim} --degree 27",
                                            capsys)
            assert code == EXIT_INCONCLUSIVE
            assert [s.split()[0] for s in failed] == (
                ["bound"] if shift < 0 else ["R_P", "R_Q", "bound"]), shift


def test_lpbound_forced_truth_check(monkeypatch, capsys):
    # with 3.15 for pi the E8 density exceeds the proved bound, 1.00088
    # times the optimum: only the truth step fails
    monkeypatch.setattr(lpbound, "PI_LO", Fraction(315, 100))
    code, failed = _forced_failures("--dim 8 --degree 27", capsys)
    assert code == EXIT_INCONCLUSIVE
    assert failed == ["bound >= the density of E8 or Leech, pi as PI_LO"]


@pytest.mark.parametrize("argv", [
    "--dim 16 --degree 27", "--dim 8 --degree 26", "--dim 8 --degree 63",
], ids=["dim16", "degree26", "degree63"])
def test_lpbound_forced_refuses_before_any_solve(argv, monkeypatch, capsys):
    # only E8 and Leech have the forced roots, at d = 4m + 3 up to
    # MAX_FORCED_DEGREE
    monkeypatch.setattr(lpbound, "_flip",
                        lambda *a: pytest.fail("system built"))
    code = dispatch(["lpbound", "run", "--method", "forced"] + argv.split())
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err.startswith("packbound: ")
    assert captured.err.count("\n") == 1


def test_lpbound_forced_ignores_precision_and_trunc(capsys):
    docs = []
    for config in ("--precision 30 --trunc 120", "--precision 80"):
        code, out = run(config.split() + [
            "--format", "json", "lpbound", "run", "--dim", "8", "--degree",
            "7", "--method", "forced"], capsys)
        assert code == EXIT_OK
        docs.append(json.loads(out))
        assert docs[-1].pop("replay").startswith(f"packbound {config} ")
        docs[-1].pop("config")
    assert docs[0] == docs[1]


def test_verify_lp_refuses_a_forced_artifact(tmp_path, capsys):
    # a forced run carries its proof, not a sign certificate
    path = tmp_path / "forced.json"
    assert dispatch(["--format", "json", "lpbound", "run", "--dim", "8",
                     "--degree", "7", "--method", "forced", "--out",
                     str(path)]) == EXIT_OK
    capsys.readouterr()
    code = dispatch(["verify", "lp", "--cert", str(path)])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE and captured.out == ""
    assert captured.err.startswith("packbound: not an lpbound run artifact")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, expected", [
    ("--dim 8 --degree 30", EXIT_OK),
    ("--dim 24 --degree 30", EXIT_INCONCLUSIVE),
    ("--dim 24 --degree 27 --method forced", EXIT_OK),
    ("--dim 24 --degree 11 --method forced", EXIT_INCONCLUSIVE),
], ids=["sampled-bound", "sampled-infeasible", "forced-bound",
        "forced-estimate"])
def test_lpbound_exits_0_only_on_a_proved_bound(argv, expected, capsys):
    # one rule for both methods: exit 0 if and only if a bound is printed
    code, out = run(["--format", "json", "lpbound", "run"] + argv.split(),
                    capsys)
    assert code == expected
    assert (code == EXIT_OK) == ("bound" in json.loads(out))


@pytest.mark.parametrize("command, label", [
    ("magic check --dim 8", "certificate"),
    ("lpbound run --dim 24 --degree 11 --method forced", "proof"),
], ids=["magic-check", "lpbound-forced"])
def test_text_output_lists_each_proof_step(command, label, capsys):
    # a certificate prints as its status, then one [ok] or [FAIL] line
    # per step of the JSON artifact's log, not as a dict
    _, text = run(command.split(), capsys)
    _, out = run(["--format", "json"] + command.split(), capsys)
    cert = json.loads(out)[label]
    lines = text.splitlines()
    start = lines.index(f"{label}: {cert['status']}")
    assert lines[start + 1:start + 1 + len(cert["log"])] == [
        f"  [{'ok' if s['passed'] else 'FAIL'}] {s['statement']} "
        f"({s['bound']})" for s in cert["log"]]
    assert "{" not in text


def _parsers(parser):
    """parser and every parser under it, through its subparser actions."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_every_parser_refuses_in_one_line():
    # a parser of another class would refuse with argparse's two-line usage
    parsers = list(_parsers(build_parser()))
    assert len(parsers) == 1 + len({c for c, _ in cli.FORMATS}) + len(
        cli.FORMATS)
    assert [p.prog for p in parsers if not isinstance(p, cli._Parser)] == []


@pytest.mark.parametrize("command, action", sorted(cli.FORMATS))
def test_action_help_exits_0(command, action, capsys):
    assert dispatch([command, action, "--help"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith(f"usage: packbound {command} {action}")
    assert captured.err == ""
