import json
import signal

import pytest

from packbound.cli import (
    EXIT_OK, EXIT_REFUTED, EXIT_USAGE, RunConfig, dispatch,
    sos_certificate_to_json,
)


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
    code, out = run(["lattice", "info", "--name", "e8", "--json"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["min_sq_norm"] == 2
    assert doc["kissing"] == 240
    assert doc["covolume"] == "1"
    assert doc["density"] == "pi^4/384"


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
    code, out = run(["qseries", "show", "theta10", "--csv"], capsys)
    assert code == EXIT_OK
    assert out.splitlines()[1] == "1,2,1"


def test_magic_eval(capsys, spec8):
    code, out = run(["magic", "eval", "--dim", "8", "--r", "1.7"], capsys)
    assert code == EXIT_OK
    assert "f(1.7)" in out
    assert "-0.000494" in out


def test_magic_table(tmp_path, capsys, spec8):
    target = tmp_path / "f.csv"
    code, _ = run(["magic", "table", "--dim", "8", "--rmax", "1",
                   "--step", "0.5", "--out", str(target)], capsys)
    assert code == EXIT_OK
    lines = target.read_text().splitlines()
    assert lines[0] == "r,f,f_err,fhat,fhat_err"
    assert len(lines) == 4  # r = 0, 0.5, 1.0


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


def test_verify_sos_roundtrip(tmp_path, capsys):
    from packbound.lpbound import build_toy_certificate
    cert = build_toy_certificate()
    path = tmp_path / "cert.json"
    path.write_text(sos_certificate_to_json(cert))
    code, out = run(["verify", "sos", "--cert", str(path)], capsys)
    assert code == EXIT_OK
    # tamper one entry and expect refutation
    doc = json.loads(sos_certificate_to_json(cert))
    doc["q1"][0][0] = str(doc["q1"][0][0]) + "1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _ = run(["verify", "sos", "--cert", str(bad)], capsys)
    assert code == EXIT_REFUTED


NEGATIVE_A_CERT = {"n": 1, "d": 2, "a": ["0", "-3"], "y0": "3",
                   "q1": [["109/8", "-9/2"], ["-9/2", "3/2"]],
                   "q2": [["9/2"]]}


def test_verify_sos_negative_a_refuted(tmp_path, capsys):
    # identity, y0 and both Grams check out, but a_2 = -3 breaks the
    # transform side: cert.bound() would be -1/8
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(NEGATIVE_A_CERT))
    code, out = run(["verify", "sos", "--cert", str(path)], capsys)
    assert code == EXIT_REFUTED
    doc = json.loads(out)["certificate"]
    assert doc["status"] == "refuted"
    failed = [s["statement"] for s in doc["log"] if not s["passed"]]
    assert failed == ["transform coefficients a >= 0"]


MALFORMED_CERTS = {
    "short_a": dict(NEGATIVE_A_CERT, a=["0"]),
    "asymmetric_q1": dict(NEGATIVE_A_CERT, q1=[["1", "2"], ["3", "4"]]),
    "no_q2": {k: v for k, v in NEGATIVE_A_CERT.items() if k != "q2"},
}


@pytest.mark.parametrize("argv", [
    ["verify", "sos"],
    ["lpbound", "run", "--dim", "8", "--degree", "0"],
    ["magic", "eval", "--dim", "8", "--r", "-1"],
    ["qseries", "show", "nope"],
    ["verify", "sos", "--cert", "{short_a}"],
    ["verify", "sos", "--cert", "{asymmetric_q1}"],
    ["verify", "sos", "--cert", "{no_q2}"],
    ["verify", "sos", "--cert", "{absent}"],
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
])
def test_bad_input_is_usage_error(argv, tmp_path, capsys):
    paths = {"absent": tmp_path / "absent.json"}
    for name, doc in MALFORMED_CERTS.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    argv = [a.format(**paths) for a in argv]

    # a table whose radius never advances must fail the test, not hang it;
    # pytest's Failed is no OSError, so dispatch does not turn it into exit 2
    def expire(signum, frame):
        pytest.fail(f"{argv} did not return within 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    try:
        code = dispatch(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err.startswith("packbound: ")
    assert captured.err.count("\n") == 1


def test_lpbound_run_small(capsys):
    code, out = run(["--format", "json", "lpbound", "run", "--dim", "1",
                     "--degree", "4", "--method", "sampled"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["bound"] >= 1
    assert doc["method"] == "sampled"


def test_lpbound_forced_small(capsys):
    code, out = run(["--format", "json", "lpbound", "run", "--dim", "8",
                     "--degree", "5", "--method", "forced"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["method"] == "forced"
    assert float(doc["residual"]) < 1e-20
    assert "bound" not in doc and "estimate" in doc


@pytest.mark.parametrize("argv", [
    ["--dim", "8", "--degree", "2", "--method", "forced"],
    ["--dim", "3", "--degree", "7", "--method", "newton"],
])
def test_lpbound_vacuous_estimate_reports_infeasible(argv, capsys):
    code, out = run(["--format", "json", "lpbound", "run"] + argv, capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["estimate"] < 0
    assert doc["feasible"] is False
    assert max(doc["violations"]) > 0


@pytest.mark.slow
def test_lpbound_newton_reports_estimate(capsys):
    code, out = run(["--format", "json", "lpbound", "run", "--dim", "8",
                     "--degree", "30", "--method", "newton"], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert "estimate" in doc and "bound" not in doc
    assert doc["certificate_status"] == "uncertified"


def test_lpbound_export_sdp(tmp_path, capsys):
    target = tmp_path / "prob.dat-s"
    code, _ = run(["lpbound", "export-sdp", "--dim", "8", "--degree", "12",
                   "-o", str(target)], capsys)
    assert code == EXIT_OK
    lines = target.read_text().splitlines()
    assert lines[2] == "3 = nBLOCK"


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(precision=1000).validate()
    assert RunConfig().validate().fmt == "text"
