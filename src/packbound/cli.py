"""Command-line front end.

Subcommands: code, lattice, qseries, magic, lpbound, verify.  Exit codes:
0 success/verified, 1 refuted, 2 usage error, 3 numerically inconclusive.

The global ``--format`` is the only output switch.  Each (command, action)
writes the formats listed in ``FORMATS``, the first by default; asking for
any other format is a usage error, caught before any work is done.

Artifacts are deterministic: JSON is emitted with sorted keys, numbers are
rendered at fixed precision, no timestamps, and every artifact embeds the
run configuration (with the format written) and library version.
"""

from __future__ import annotations

import argparse
import json
import math
import shlex
import sys
from fractions import Fraction

import mpmath as mp

from . import __version__
from .codes import code_properties, golay24, hamming8, weight_enumerator
from .exact import PackboundError
from .lattices import (
    ball_volume, covolume, lattice_properties, standard_lattice,
    vectors_by_norm,
)
from .qseries import named_form
from .certify import certify_magic, poisson_check
from .magic import (DEFAULT_DPS, DEFAULT_TRUNC, ce_bound_from_function,
                    grid_count, magic_spec)
from . import lpbound as lp

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3

# a certificate's status decides the exit code of the command that made it
STATUS_EXIT = {"verified": EXIT_OK, "refuted": EXIT_REFUTED,
               "inconclusive": EXIT_INCONCLUSIVE}

MAX_TABLE_ROWS = 10 ** 6  # the most rows `magic table` writes

# the formats each (command, action) writes; the first is its default
FORMATS = {
    ("code", "info"): ("text", "json"),
    ("lattice", "info"): ("text", "json"),
    ("lattice", "theta"): ("csv",),
    ("qseries", "show"): ("text", "json", "csv"),
    ("magic", "eval"): ("text", "json"),
    ("magic", "table"): ("csv",),
    ("magic", "check"): ("text", "json"),
    ("lpbound", "run"): ("text", "json"),
    ("verify", "poisson"): ("json",),
    ("verify", "lp"): ("json",),
}


def output_format(args) -> str:
    """The format the parsed command line asks for: --format, or the
    command's default.  A format the command does not write raises
    PackboundError."""
    formats = FORMATS[args.command, args.action]
    fmt = args.fmt or formats[0]
    if fmt not in formats:
        raise PackboundError(f"{args.command} {args.action} writes "
                             f"{' or '.join(formats)}, not {fmt}")
    return fmt


def _emit(rendering, args):
    """Write one rendering to --out or stdout; a JSON one is the artifact's
    payload, next to the library version and the run configuration."""
    if args.fmt == "json":
        config = {k: vars(args)[k] for k in ("fmt", "precision", "trunc")}
        rendering = json.dumps(
            {"version": __version__, "config": config, **rendering},
            sort_keys=True, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(rendering)
    else:
        sys.stdout.write(rendering if rendering.endswith("\n")
                         else rendering + "\n")


def _nstr(x, digits=17):
    return mp.nstr(mp.mpf(x), digits, strip_zeros=True)


def _proof_text(label, cert) -> str:
    """label: cert's status, then one [ok] or [FAIL] line per step."""
    return "\n".join([f"{label}: {cert.status}"] + [
        f"  [{'ok' if s['passed'] else 'FAIL'}] {s['statement']} "
        f"({s['bound']})" for s in cert.log])


# ---------------------------------------------------------------------------
# subcommand handlers: each returns its exit code and its renderings, one
# per format in FORMATS (a JSON rendering is the artifact's payload)
# ---------------------------------------------------------------------------

def _cmd_code(args):
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
    text = (f"{args.name}: [{code.length}, {code.dimension}] binary code\n"
            f"weights: {weights}\n"
            f"self-dual: {props['self_dual']}, doubly even: "
            f"{props['doubly_even']}")
    return EXIT_OK, {"text": text, "json": payload}


def _cmd_lattice(args):
    lat = standard_lattice(args.name, args.n)
    if args.action == "theta":
        table = vectors_by_norm(lat, Fraction(args.max_norm))
        return EXIT_OK, {"csv": table.to_csv()}
    props = lattice_properties(lat)
    dens = props["density"]
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
    return EXIT_OK, {"text": "\n".join(f"{k}: {v}"
                                       for k, v in payload.items()),
                     "json": payload}


def _cmd_qseries(args):
    if args.terms < 1:
        raise PackboundError("--terms must be at least 1")
    series = named_form(args.name, trunc=args.trunc)
    terms = [{"exponent_eighths": e, "coefficient": str(c)}
             for e, c in series.items()[:args.terms]]
    body = ", ".join(t["coefficient"] for t in terms)
    return EXIT_OK, {
        "text": f"{args.name}: {body}",
        "json": {"name": args.name, "trunc": series.trunc, "terms": terms},
        "csv": series.dump_csv()}


def _cmd_magic(args):
    if args.action == "table" and not (
            math.isfinite(args.step) and args.step > 0
            and math.isfinite(args.rmax) and args.rmax >= 0
            and grid_count(args.rmax, mp.mpf(args.step)) <= MAX_TABLE_ROWS):
        raise PackboundError("--step must be finite and positive, --rmax "
                             "finite and nonnegative, and the table at most "
                             f"{MAX_TABLE_ROWS} rows")
    if args.action == "eval" and not (math.isfinite(args.r) and args.r >= 0):
        raise PackboundError("--r must be finite and nonnegative")
    spec = magic_spec(args.dim, trunc=args.trunc, dps=args.precision)
    if args.action == "eval":
        with mp.workdps(args.precision + 10):
            f, fh = spec.combine(*spec.pair(mp.mpf(args.r)))
        payload = {"dim": args.dim, "r": _nstr(args.r),
                   "f": _nstr(f.value), "f_err": _nstr(f.error, 3),
                   "fhat": _nstr(fh.value), "fhat_err": _nstr(fh.error, 3)}
        text = (f"f({payload['r']}) = {payload['f']} (+- {payload['f_err']})"
                f"\nfhat({payload['r']}) = {payload['fhat']} "
                f"(+- {payload['fhat_err']})")
        return EXIT_OK, {"text": text, "json": payload}
    if args.action == "table":
        lines = ["r,f,f_err,fhat,fhat_err"]
        with mp.workdps(args.precision + 10):
            step = mp.mpf(args.step)
            pairs = spec.sweep(0, step, grid_count(args.rmax, step))
            for k, (p, m) in enumerate(pairs):
                f, fh = spec.combine(p, m)
                lines.append(",".join([
                    _nstr(k * step, 12), _nstr(f.value), _nstr(f.error, 3),
                    _nstr(fh.value), _nstr(fh.error, 3)]))
        return EXIT_OK, {"csv": "\n".join(lines) + "\n"}
    # check
    cert = certify_magic(args.dim, spec)
    bound = None
    if cert.status == "verified":
        b = ce_bound_from_function(args.dim, spec, certificate=cert)
        bound = {"value": _nstr(b.value), "error": _nstr(b.error, 3)}
    payload = {"dim": args.dim,
               "certificate": json.loads(cert.to_json()),
               "replay": f"packbound --precision {args.precision} "
                         f"--trunc {args.trunc} --format json magic check "
                         f"--dim {args.dim}",
               "bound": bound}
    return STATUS_EXIT[cert.status], {
        "text": _proof_text("certificate", cert), "json": payload}


def _cmd_lpbound(args):
    dim, degree = args.dim, args.degree
    if args.method == "sampled":
        res = lp.sampled_lp(dim, degree)
        payload = {"n": dim, "d": degree, "method": "sampled",
                   "certificate_status": res["certificate_status"],
                   "feasible_report": res["feasible_report"]}
        if "certificate" in res:
            payload.update(f0=res["f0"],
                           certificate=res["certificate"].to_dict())
    else:
        res = lp.forced_bound(dim, degree)
        payload = {"n": dim, "d": degree, "method": "forced",
                   "proof": json.loads(res["proof"].to_json()),
                   "replay": f"packbound --precision {args.precision} "
                             f"--trunc {args.trunc} --format json lpbound run "
                             f"--dim {dim} --degree {degree} --method forced"}
    key = next((k for k in ("bound", "estimate") if k in res), None)
    if key:
        payload[key] = res[key]
    if dim in (8, 24) and key:
        # E8 and Leech: covolume 1, minimal squared norm 2 and 4
        opt = ball_volume(dim, Fraction(2 if dim == 8 else 4, 4))
        payload[f"{key}_over_optimal"] = payload[key] / opt.to_float()
    # exit 0 only on a proved bound, not on an estimate or no LP solution
    code = EXIT_OK if "bound" in payload else EXIT_INCONCLUSIVE
    text = "\n".join(_proof_text(k, res["proof"]) if k == "proof"
                     else f"{k}: {v}" for k, v in payload.items())
    return code, {"text": text, "json": payload}


def _cmd_verify(args):
    if args.action == "poisson":
        if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
            raise PackboundError("--tolerance must be finite and nonnegative")
        lat = standard_lattice(args.name, args.n)
        res = poisson_check(lat, args.sigma, args.cutoff)
        # refuted only if the truncated sums differ beyond both tails
        excess = res["difference"] - res["tail_lattice"] - res["tail_dual"]
        status = ("verified" if res["residual"] <= args.tolerance else
                  "refuted" if excess > args.tolerance else "inconclusive")
        dim = "" if args.n is None else f" --n {args.n}"
        payload = {"lattice": lat.name, "sigma": res["sigma"],
                   "cutoff": res["cutoff"], "status": status,
                   "residual": _nstr(res["residual"], 6),
                   "tolerance": args.tolerance, "passed": status == "verified",
                   "replay": f"packbound verify poisson --name {args.name}"
                             f"{dim} --sigma {args.sigma} --cutoff "
                             f"{args.cutoff} --tolerance {args.tolerance!r}"}
        return STATUS_EXIT[status], {"json": payload}
    # lp
    with open(args.cert) as fh:
        try:
            obj = json.load(fh)["certificate"]
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise PackboundError(
                f"not an lpbound run artifact: {exc!r}") from exc
    result = lp.verify_lp(lp.LpCertificate.from_dict(obj))
    return STATUS_EXIT[result.status], {"json": {
        "certificate": json.loads(result.to_json()),
        "replay": f"packbound verify lp --cert {shlex.quote(args.cert)}"}}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A parser that takes no abbreviations and refuses, like every other
    usage error, in one `packbound:` line; its subparsers share the class."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.allow_abbrev = False

    def error(self, message):
        self.exit(EXIT_USAGE, f"packbound: {' '.join(message.split())}\n")


def build_parser():
    parser = _Parser(prog="packbound", description="Exact constructions and "
                     "certified numerics for the sphere-packing bounds in "
                     "dimensions 8 and 24.")
    parser.add_argument("--precision", type=int, default=DEFAULT_DPS,
                        help="working precision in decimal digits")
    parser.add_argument("--trunc", type=int, default=DEFAULT_TRUNC,
                        help="series truncation in grid units (eighths)")
    parser.add_argument("--format", dest="fmt",
                        choices=("json", "csv", "text"),
                        help="output format (default: the command's own)")
    sub = parser.add_subparsers(dest="command")

    def actions(command, text, metavar=None):
        """One parser per action of command in FORMATS, each with --out."""
        subs = sub.add_parser(command, help=text).add_subparsers(
            dest="action", metavar=metavar)
        parsers = {action: subs.add_parser(action)
                   for cmd, action in FORMATS if cmd == command}
        for p in parsers.values():
            p.add_argument("--out")
        return parsers

    p = actions("code", "binary code constructions")["info"]
    p.add_argument("--name", required=True, choices=("hamming8", "golay24"))

    lattice = actions("lattice", "lattice constructions")
    for p in lattice.values():
        p.add_argument("--name", required=True,
                       choices=("e8", "l24", "leech", "zn"))
        p.add_argument("--n", type=int, help="dimension for zn")
    lattice["theta"].add_argument("--max-norm", type=int, default=10)

    p = actions("qseries", "named q-series")["show"]
    p.add_argument("name")
    p.add_argument("--terms", type=int, default=8)

    magic = actions("magic", "optimal test functions")
    for p in magic.values():
        p.add_argument("--dim", type=int, required=True, choices=(8, 24))
    magic["eval"].add_argument("--r", type=float, default=0.0)
    magic["table"].add_argument("--rmax", type=float, default=4.0)
    magic["table"].add_argument("--step", type=float, default=0.01)

    p = actions("lpbound", "linear-programming bound pipeline")["run"]
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--method", choices=("sampled", "forced"),
                   default="sampled")

    verify = actions("verify", "verification pipelines", "target")
    p = verify["poisson"]
    p.add_argument("--name", default="e8",
                   choices=("e8", "l24", "leech", "zn"))
    p.add_argument("--n", type=int)
    p.add_argument("--sigma", default="4/5")
    p.add_argument("--cutoff", type=int, default=25)
    p.add_argument("--tolerance", type=float, default=1e-10)
    verify["lp"].add_argument("--cert", required=True)
    return parser


def dispatch(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # 0 after --help, EXIT_USAGE on a refusal
        return exc.code
    try:
        # after parse_args, so that an unknown option is named first
        if getattr(args, "action", None) is None:
            raise PackboundError("a command and its action are required")
        handler = globals()[f"_cmd_{args.command}"]  # _cmd_code, _cmd_lattice
        args.fmt = output_format(args)
        if not 10 <= args.precision <= 200:
            raise PackboundError("precision out of range [10, 200]")
        if not 50 <= args.trunc <= 2000:
            raise PackboundError("trunc out of range [50, 2000]")
        code, renderings = handler(args)
        _emit(renderings[args.fmt], args)
        return code
    except (PackboundError, OSError) as exc:
        sys.stderr.write(f"packbound: {' '.join(str(exc).split())}\n")
        return EXIT_USAGE


def main():
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
