"""Command-line front end.

Subcommands: code, lattice, qseries, magic, lpbound, verify.  Exit codes:
0 success/verified, 1 refuted, 2 usage error, 3 numerically inconclusive.

Artifacts are deterministic: JSON is emitted with sorted keys, numbers are
rendered at fixed precision, no timestamps, and every artifact embeds the
run configuration and library version.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

import mpmath as mp

from . import __version__
from .codes import (
    CodeError, code_properties, golay24, hamming8, weight_enumerator,
)
from .lattices import (
    LatticeError, covolume, density, lattice_properties,
    standard_lattice, vectors_by_norm,
)
from .qseries import QSeriesError, named_form
from .certify import CertifyError, certify_magic, poisson_check
from .magic import MagicError, ce_bound_from_function, magic_spec
from .simplex import SimplexError
from . import lpbound as lp

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

# errors raised on bad input; dispatch maps them to EXIT_USAGE, so they can
# never surface as a traceback with exit 1 ("refuted")
PACKAGE_ERRORS = (CertifyError, CodeError, LatticeError, lp.LpError,
                  MagicError, QSeriesError, SimplexError)


@dataclass(frozen=True)
class RunConfig:
    precision: int = 60
    trunc: int = 300
    fmt: str = "text"

    def validate(self):
        if not (10 <= self.precision <= 200):
            raise ValueError("precision out of range [10, 200]")
        if not (50 <= self.trunc <= 2000):
            raise ValueError("trunc out of range [50, 2000]")
        if self.fmt not in ("json", "csv", "text"):
            raise ValueError("format must be json, csv or text")
        return self


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _artifact(payload: dict, cfg: RunConfig) -> str:
    doc = {"version": __version__, "config": asdict(cfg)}
    doc.update(payload)
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def _nstr(x, digits=17):
    return mp.nstr(mp.mpf(x), digits, strip_zeros=True)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_code(args, cfg):
    code = {"hamming8": hamming8, "golay24": golay24}[args.name]()
    weights = weight_enumerator(code).as_dict()
    props = code_properties(code)
    payload = {
        "name": args.name,
        "length": code.length,
        "dimension": code.dimension,
        "generator": code.generator_strings(),
        "weights": {str(k): v for k, v in sorted(weights.items())},
        "self_dual": props["self_dual"],
        "doubly_even": props["doubly_even"],
    }
    if cfg.fmt == "json" or args.json:
        _emit(_artifact(payload, cfg), args.out)
    else:
        lines = [f"{args.name}: [{code.length}, {code.dimension}] binary code",
                 f"weights: {weights}",
                 f"self-dual: {props['self_dual']}, doubly even: "
                 f"{props['doubly_even']}"]
        _emit("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_lattice(args, cfg):
    lat = standard_lattice(args.name, args.n)
    if args.action == "info":
        props = lattice_properties(lat)
        dens = density(lat)
        min_norm = props["min_sq_norm"]
        payload = {
            "name": lat.name,
            "dimension": lat.dimension,
            "min_sq_norm": int(min_norm) if min_norm.denominator == 1
            else str(min_norm),
            "kissing": props["kissing"],
            "even": props["even"],
            "unimodular": props["unimodular"],
            "covolume": str(covolume(lat)),
            "density": str(dens),
            "density_float": float(dens.to_float()),
        }
        if cfg.fmt == "json" or args.json:
            _emit(_artifact(payload, cfg), args.out)
        else:
            _emit("\n".join(f"{k}: {v}" for k, v in payload.items()),
                  args.out)
        return EXIT_OK
    # theta table
    table = vectors_by_norm(lat, Fraction(args.max_norm),
                            budget=Fraction(args.max_norm))
    _emit(table.to_csv(), args.out)
    return EXIT_OK


def _cmd_qseries(args, cfg):
    if args.terms < 1:
        raise QSeriesError("--terms must be at least 1")
    series = named_form(args.name, trunc=cfg.trunc)
    if cfg.fmt == "csv" or args.csv:
        _emit(series.dump_csv(), args.out)
        return EXIT_OK
    terms = []
    shown = 0
    for e, c in series.items():
        if shown >= args.terms:
            break
        terms.append({"exponent_eighths": e, "coefficient": str(c)})
        shown += 1
    payload = {"name": args.name, "trunc": series.trunc, "terms": terms}
    if cfg.fmt == "json":
        _emit(_artifact(payload, cfg), args.out)
    else:
        body = ", ".join(t["coefficient"] for t in terms)
        _emit(f"{args.name}: {body}", args.out)
    return EXIT_OK


def _cmd_magic(args, cfg):
    if args.action == "table" and not (
            math.isfinite(args.step) and args.step > 0
            and math.isfinite(args.rmax) and args.rmax >= 0):
        raise MagicError("--step must be finite and positive, "
                         "--rmax finite and nonnegative")
    spec = magic_spec(args.dim, trunc=cfg.trunc, dps=cfg.precision)
    if args.action == "eval":
        with mp.workdps(cfg.precision + 10):
            f = spec.eval("f", mp.mpf(args.r))
            fh = spec.eval("f_hat", mp.mpf(args.r))
        payload = {"dim": args.dim, "r": _nstr(args.r),
                   "f": _nstr(f.value), "f_err": _nstr(f.error, 3),
                   "fhat": _nstr(fh.value), "fhat_err": _nstr(fh.error, 3)}
        if cfg.fmt == "json":
            _emit(_artifact(payload, cfg), args.out)
        else:
            _emit(f"f({payload['r']}) = {payload['f']} (+- {payload['f_err']})\n"
                  f"fhat({payload['r']}) = {payload['fhat']} "
                  f"(+- {payload['fhat_err']})", args.out)
        return EXIT_OK
    if args.action == "table":
        lines = ["r,f,f_err,fhat,fhat_err"]
        with mp.workdps(cfg.precision + 10):
            step = mp.mpf(args.step)
            count = int(mp.floor((args.rmax + 1e-12) / step)) + 1
            for k, (p, m) in enumerate(spec.sweep(0, step, count)):
                f = spec.combine("f", p, m)
                fh = spec.combine("f_hat", p, m)
                lines.append(",".join([
                    _nstr(k * step, 12), _nstr(f.value), _nstr(f.error, 3),
                    _nstr(fh.value), _nstr(fh.error, 3)]))
        _emit("\n".join(lines) + "\n", args.out)
        return EXIT_OK
    # check
    cert = certify_magic(args.dim, spec)
    bound = None
    if cert.status == "verified":
        b = ce_bound_from_function(args.dim, spec, certificate=cert)
        bound = {"value": _nstr(b.value), "error": _nstr(b.error, 3)}
    payload = {"dim": args.dim,
               "certificate": json.loads(cert.to_json()),
               "replay": f"packbound --precision {cfg.precision} "
                         f"--trunc {cfg.trunc} magic check --dim {args.dim} "
                         f"--report json",
               "bound": bound}
    if args.report == "json" or cfg.fmt == "json":
        _emit(_artifact(payload, cfg), args.out)
    else:
        _emit(f"certificate: {cert.status}\n"
              + "\n".join(f"  [{'ok' if s['passed'] else 'FAIL'}] "
                          f"{s['statement']} ({s['bound']})"
                          for s in cert.log), args.out)
    return {"verified": EXIT_OK, "refuted": EXIT_REFUTED}.get(
        cert.status, EXIT_INCONCLUSIVE)


def _cmd_lpbound(args, cfg):
    dim, degree = args.dim, args.degree
    code = EXIT_OK
    if args.method == "sampled":
        res = lp.sampled_lp(dim, degree)
        payload = {"n": dim, "d": degree, "method": "sampled",
                   "certificate_status": res["certificate_status"],
                   "feasible_report": res["feasible_report"]}
        if "certificate" in res:
            payload.update(f0=res["f0"],
                           certificate=res["certificate"].to_dict())
        key = next((k for k in ("bound", "estimate") if k in res), None)
        if key:
            payload[key] = res[key]
        # without the Sturm proof (or without any LP solution) nothing is
        # bounded: inconclusive
        if key != "bound":
            code = EXIT_INCONCLUSIVE
    else:
        # nothing on these paths certifies the sign conditions, so f(0)
        # times the ball volume is reported as an estimate, not a bound,
        # with the sign sweep that says whether it is vacuous
        res = lp.estimate(dim, degree, args.method, cfg.precision)
        payload = {"n": dim, "d": res["d"], "method": args.method,
                   "estimate": res["estimate"], "f0": float(res["f0"]),
                   "certificate_status": "uncertified",
                   "violations": res["violations"],
                   "feasible": res["feasible"]}
        if args.method == "forced":
            payload.update(residual=_nstr(res["residual"], 3),
                           condition=_nstr(res["condition"], 3))
        else:
            payload.update(roots_f=res["roots_f"],
                           roots_fhat=res["roots_fhat"])
        key = "estimate"
    if dim in (8, 24) and key:
        opt = density(standard_lattice("e8" if dim == 8 else "leech"))
        payload[f"{key}_over_optimal"] = payload[key] / opt.to_float()
    _emit(_artifact(payload, cfg) if cfg.fmt != "text"
          else "\n".join(f"{k}: {v}" for k, v in payload.items()),
          args.out)
    return code


def _cmd_verify(args, cfg):
    if args.target == "magic":
        cert = certify_magic(args.dim, magic_spec(args.dim, trunc=cfg.trunc,
                                                  dps=cfg.precision))
        replay = (f"packbound --precision {cfg.precision} --trunc "
                  f"{cfg.trunc} verify magic --dim {args.dim}")
        _emit(_artifact({"certificate": json.loads(cert.to_json()),
                         "replay": replay}, cfg), args.out)
        return {"verified": EXIT_OK, "refuted": EXIT_REFUTED}.get(
            cert.status, EXIT_INCONCLUSIVE)
    if args.target == "poisson":
        if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
            raise CertifyError("--tolerance must be finite and nonnegative")
        lat = standard_lattice(args.name, args.n)
        res = poisson_check(lat, args.sigma, args.cutoff)
        ok = res["residual"] <= args.tolerance
        payload = {"lattice": lat.name, "sigma": res["sigma"],
                   "cutoff": res["cutoff"],
                   "residual": _nstr(res["residual"], 6),
                   "tolerance": args.tolerance, "passed": bool(ok),
                   "replay": f"packbound verify poisson --name {args.name} "
                             f"--sigma {args.sigma} --cutoff {args.cutoff}"}
        _emit(_artifact(payload, cfg), args.out)
        return EXIT_OK if ok else EXIT_REFUTED
    # lp
    if args.cert is None:
        sys.stderr.write("packbound: verify lp requires --cert\n")
        return EXIT_USAGE
    with open(args.cert) as fh:
        try:
            obj = json.load(fh)["certificate"]
        except (KeyError, TypeError, ValueError) as exc:
            raise lp.LpError(f"not an lpbound run artifact: {exc!r}") from exc
    cert = lp.LpCertificate.from_dict(obj)
    result = lp.verify_lp(cert)
    _emit(_artifact({"certificate": json.loads(result.to_json()),
                     "replay": f"packbound verify lp --cert {args.cert}"},
                    cfg), args.out)
    return EXIT_OK if result.status == "verified" else EXIT_REFUTED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="packbound",
        description="Exact constructions and certified numerics for the "
                    "sphere-packing bounds in dimensions 8 and 24.")
    parser.add_argument("--precision", type=int, default=60,
                        help="working precision in decimal digits")
    parser.add_argument("--trunc", type=int, default=300,
                        help="series truncation in grid units (eighths)")
    parser.add_argument("--format", dest="fmt", default="text",
                        choices=("json", "csv", "text"))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("code", help="binary code constructions")
    p.add_argument("action", choices=("info",))
    p.add_argument("--name", required=True, choices=("hamming8", "golay24"))
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("lattice", help="lattice constructions")
    p.add_argument("action", choices=("info", "theta"))
    p.add_argument("--name", required=True,
                   choices=("e8", "l24", "leech", "zn"))
    p.add_argument("--n", type=int, help="dimension for zn")
    p.add_argument("--max-norm", dest="max_norm", type=int, default=10)
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("qseries", help="named q-series")
    p.add_argument("action", choices=("show",))
    p.add_argument("name")
    p.add_argument("--terms", type=int, default=8)
    p.add_argument("--csv", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("magic", help="optimal test functions")
    p.add_argument("action", choices=("eval", "table", "check"))
    p.add_argument("--dim", type=int, required=True, choices=(8, 24))
    p.add_argument("--r", type=float, default=0.0)
    p.add_argument("--rmax", type=float, default=4.0)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--report", choices=("json", "text"), default="text")
    p.add_argument("--out")

    p = sub.add_parser("lpbound", help="linear-programming bound pipeline")
    p.add_argument("action", nargs="?", default="run",
                   choices=("run",))
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--method", choices=("sampled", "forced", "newton"),
                   default="sampled")
    p.add_argument("-o", "--out")

    p = sub.add_parser("verify", help="verification pipelines")
    p.add_argument("target", choices=("magic", "poisson", "lp"))
    p.add_argument("--dim", type=int, default=8, choices=(8, 24))
    p.add_argument("--name", default="e8",
                   choices=("e8", "l24", "leech", "zn"))
    p.add_argument("--n", type=int)
    p.add_argument("--sigma", default="1")
    p.add_argument("--cutoff", type=int, default=25)
    p.add_argument("--tolerance", type=float, default=1e-10)
    p.add_argument("--cert")
    p.add_argument("--out")
    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    try:
        cfg = RunConfig(precision=args.precision, trunc=args.trunc,
                        fmt=args.fmt).validate()
    except ValueError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_USAGE
    handler = {
        "code": _cmd_code,
        "lattice": _cmd_lattice,
        "qseries": _cmd_qseries,
        "magic": _cmd_magic,
        "lpbound": _cmd_lpbound,
        "verify": _cmd_verify,
    }[args.command]
    try:
        return handler(args, cfg)
    except (PACKAGE_ERRORS + (OSError,)) as exc:
        sys.stderr.write(f"packbound: {' '.join(str(exc).split())}\n")
        return EXIT_USAGE


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
