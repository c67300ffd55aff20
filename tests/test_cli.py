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
    EXIT_INCONCLUSIVE, EXIT_OK, EXIT_REFUTED, EXIT_USAGE, RunConfig,
    build_parser, dispatch, output_format,
)
from packbound.exact import poly_eval
from packbound.lpbound import PI_HI, PI_LO, LpCertificate, laguerre_all


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


@pytest.mark.parametrize("command", sorted(ARTIFACT_DIGESTS))
def test_magic_artifact_fingerprint(command, capsys):
    code, out = run(command.split(), capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == \
        ARTIFACT_DIGESTS[command]


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
        return lattices.NormCountTable(counts, table.max_norm)

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
    assert docs[0]["certificate_status"] == "sturm-certified"


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
], ids=["poisson-zn", "poisson-e8", "lp"])
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
    # its Sturm chain does not end within a minute: beyond the budget
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
    ["lpbound", "run", "--dim", "8", "--degree", "-5", "--method", "newton"],
    ["lpbound", "run", "--dim", "3", "--degree", "0", "--method", "newton"],
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
    ["lpbound", "run", "--dim", "3", "--degree", "7", "--method", "newton"],
    ["lpbound", "run", "--dim", "1", "--degree", "7", "--method", "newton"],
    ["lattice", "theta", "--name", "e8", "--max-norm", "100000"],
    ["verify", "poisson", "--name", "e8", "--cutoff", "100000"],
    ["lpbound", "run", "--dim", "8", "--degree", "100000"],
    ["verify", "lp", "--cert", "{huge_d}"],
    ["verify", "lp", "--cert", "{over_budget}"],
    ["verify", "lp", "--cert", "{nested}"],
    ["verify", "lp", "--cert", "{nested_cert}"],
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
    ["lpbound", "run", "--dim", "8", "--degree", "30", "--method", "forced"],
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
], ids=lambda argv: " ".join(argv[:2] + argv[-2:-1]))
def test_option_of_another_action_is_usage_error(argv, monkeypatch, capsys):
    # an action takes only the options its handler reads: any other is
    # refused by the parser, before any handler runs
    for name in ("lattice", "magic", "verify"):
        monkeypatch.setattr(cli, f"_cmd_{name}",
                            lambda *a: pytest.fail("handler ran"))
    code = dispatch(argv)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    "--prec 10 lpbound run --dim 8 --deg 30 --meth newton",
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
    ["--dim", "8", "--degree", "2", "--method", "newton"],
    ["--dim", "24", "--degree", "2", "--method", "newton"],
])
def test_lpbound_vacuous_estimate_reports_infeasible(argv, capsys):
    # a degree-2 projection undercuts the optimum only because it breaks
    # the sign conditions, and says so
    code, out = run(["--format", "json", "lpbound", "run"] + argv, capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["d"] == 2
    assert doc["estimate_over_optimal"] < 1
    assert doc["feasible"] is False
    assert max(doc["violations"]) > 0


def test_lpbound_newton_other_dimension_fails_before_work(monkeypatch,
                                                          capsys):
    # only dimensions 8 and 24 have an optimal function to project
    monkeypatch.setattr(lpbound, "_collocation_seed",
                        lambda *a: pytest.fail("projection ran"))
    code = dispatch(["lpbound", "run", "--dim", "3", "--degree", "7",
                     "--method", "newton"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.out == ""
    assert "dimension 8 or 24" in captured.err


def test_lpbound_newton_builds_spec_at_run_trunc(monkeypatch):
    # the projected function is built at the run's --trunc and --precision
    class Built(Exception):
        pass

    def fake_spec(*args):
        raise Built(args)

    monkeypatch.setattr(magic, "magic_spec", fake_spec)
    with pytest.raises(Built) as info:
        dispatch(["--trunc", "120", "--precision", "30", "lpbound", "run",
                  "--dim", "8", "--degree", "7", "--method", "newton"])
    assert info.value.args == ((8, 120, 30),)


@pytest.mark.slow
def test_lpbound_newton_reports_estimate(capsys):
    code, out = run(["--format", "json", "lpbound", "run", "--dim", "8",
                     "--degree", "30", "--method", "newton"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert "estimate" in doc and "bound" not in doc
    assert doc["certificate_status"] == "uncertified"


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(precision=1000).validate()
    assert RunConfig().validate().fmt == "text"
