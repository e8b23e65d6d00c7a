"""Command-line surface.

Commands: ``compute`` (polynomials in the monomial basis), ``expand``
(change of basis), ``coeff`` (signed lattice counts), ``verify``
(identity suites), ``scan`` (the staircase converse scan).  Output is
text or JSON; JSON documents round-trip byte for byte (fixed field
order, partitions listed in graded lex order, coefficients carried as
decimal strings).

Exit codes: 0 on success (for ``verify``/``scan``: every gated case
holds, and there is at least one case), 1 when a verification suite
fails (the report is still emitted) or the reader of the output closes
it early, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys

from . import grothendieck as gr
from . import symfunc as sf
from . import verify as vf
from .shapes import (
    format_partition,
    graded_lex_key,
    parse_partition,
    parse_skew,
)
from .symfunc import TruncationProfile


class UsageError(Exception):
    pass


# polynomial constructors by --kind, each taking a skew shape and a profile
_KINDS = {"s": gr.schur, "g": gr.dual_g, "G": gr.big_G}
# changes of basis out of the monomial basis by --target
_TARGETS = {"s": sf.m_to_schur, "g": gr.expand_in_g, "G": gr.expand_in_G,
            "e": sf.m_to_e, "h": sf.m_to_h}


def _parse_opt(parse, text: str, option: str):
    """``parse(text)``, with its ValueError reported against ``option``."""
    try:
        return parse(text)
    except ValueError as e:
        raise UsageError(f"{option}: {e}") from None


def _profile(args, default_degree: int) -> TruncationProfile:
    deg = args.deg if args.deg is not None else default_degree
    if deg < 0:
        raise UsageError("--deg: must be nonnegative")
    return TruncationProfile(deg)


def _coeff_doc(kind: str, basis: str, poly_coeffs: dict,
               trunc: TruncationProfile) -> dict:
    keys = sorted(poly_coeffs, key=graded_lex_key)
    return {
        "kind": kind,
        "basis": basis,
        "trunc": {"vars": trunc.num_vars, "max_deg": trunc.max_degree},
        "coeffs": [{"partition": list(k), "coeff": str(poly_coeffs[k])}
                   for k in keys],
    }


def _emit(doc: dict, fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(doc, indent=2) + "\n")
        return
    basis = doc["basis"]
    terms = [f"{basis}[{','.join(map(str, c['partition']))}]={c['coeff']}"
             for c in doc["coeffs"]]
    out.write((" ".join(terms) if terms else "0") + "\n")


def _polynomial(args) -> tuple:
    """The --kind polynomial of --shape and the --deg profile."""
    shape = _parse_opt(parse_skew, args.shape, "--shape")
    trunc = _profile(args, shape.size())
    try:
        return _KINDS[args.kind](shape, trunc), trunc
    except ValueError as e:
        raise UsageError(f"--shape/--deg: {e}") from None


def _cmd_compute(args, out) -> int:
    if args.kind == "G-double":
        shape = _parse_opt(parse_skew, args.shape, "--shape")
        if shape.inner:
            raise UsageError("--shape: G-double takes a straight outer shape; "
                             "pass the inner through --mu")
        if args.mu is None:
            raise UsageError("--mu: required for kind G-double")
        mu = _parse_opt(parse_partition, args.mu, "--mu")
        trunc = _profile(args, sum(shape.outer))
        try:
            poly = gr.big_G_double(shape.outer, mu, trunc)
        except ValueError as e:
            raise UsageError(f"--mu: {e}") from None
    elif args.mu is not None:
        raise UsageError("--mu: only meaningful for kind G-double")
    else:
        poly, trunc = _polynomial(args)
    _emit(_coeff_doc(args.kind, "m", poly.coeffs, trunc), args.format, out)
    return 0


def _cmd_expand(args, out) -> int:
    poly, trunc = _polynomial(args)
    exp = _TARGETS[args.target](poly)
    _emit(_coeff_doc(args.kind, args.target, exp.coeffs, trunc), args.format,
          out)
    return 0


def _cmd_coeff(args, out) -> int:
    if args.family == "c":
        if args.nu is None or args.mu is None or args.target is None:
            raise UsageError("--nu/--mu/--target: all required for family c")
        nu = _parse_opt(parse_partition, args.nu, "--nu")
        mu = _parse_opt(parse_partition, args.mu, "--mu")
        target = _parse_opt(parse_partition, args.target, "--target")
        try:
            sc = gr.lr_coeff(nu, mu, target)
        except ValueError as e:
            raise UsageError(f"--nu/--mu/--target: {e}") from None
        inputs = {"nu": format_partition(nu), "mu": format_partition(mu),
                  "target": format_partition(target)}
    else:
        if args.shape is None or args.content is None:
            raise UsageError("--shape/--content: required for family alpha")
        shape = _parse_opt(parse_skew, args.shape, "--shape")
        content = _parse_opt(parse_partition, args.content, "--content")
        try:
            sc = gr.alpha(shape, content)
        except ValueError as e:
            raise UsageError(f"--shape/--content: {e}") from None
        inputs = {"shape": str(shape), "content": format_partition(content)}
    doc = {
        "kind": "coeff",
        "family": args.family,
        "inputs": inputs,
        "value": str(sc.value),
        "sign_exponent": sc.sign_exponent,
        "signed": str(sc.signed),
    }
    if args.format == "json":
        out.write(json.dumps(doc, indent=2) + "\n")
    else:
        out.write(f"value={sc.value} sign_exponent={sc.sign_exponent} "
                  f"signed={sc.signed}\n")
    return 0


def _render_report(report, fmt: str, out) -> int:
    if fmt == "json":
        out.write(json.dumps(report.to_dict(), indent=2) + "\n")
    else:
        out.write(f"suite: {report.suite}\n")
        out.write(f"passed: {str(report.passed).lower()}\n")
        if report.modulus:
            out.write("modulus: " + " ".join(
                f"{k}={v}" for k, v in report.modulus.items()) + "\n")
        findings = [c for c in report.cases
                    if c.finding and not c.finding.get("agrees", True)]
        out.write(f"cases: {len(report.cases)}  failures: "
                  f"{sum(not c.holds for c in report.cases)}  "
                  f"findings: {len(findings)}\n")
        for c in report.cases:
            if not c.holds:
                out.write(f"FAIL {json.dumps(c.inputs)} :: {c.relation} :: "
                          f"{json.dumps(c.witness)}\n")
        for c in findings:
            out.write(f"finding {json.dumps(c.inputs)} :: "
                      f"{json.dumps(c.finding)}\n")
    return 0 if report.passed else 1


def _piece_names(text: str):
    names = tuple(x.strip() for x in text.split(",") if x.strip())
    if not names:
        raise argparse.ArgumentTypeError("no piece names given")
    return names


# verify flag -> (suite keyword it sets, argparse settings).  A flag left
# out is None and is not passed, so the suite's signature default holds.
_SUITE_FLAGS = {
    "--n": ("n", {"type": int, "help": "staircase index (default 4 for "
                  "stembridge-g, lattice-rules and alpha-recurrence; 3 for "
                  "stembridge-G and hopf)"}),
    "--k": ("k", {"type": int}),
    "--k-max": ("k_max", {"type": int}),
    "--deg": ("max_degree", {"type": int, "metavar": "DEG"}),
    "--extra-degrees": ("extra_degrees", {"type": int}),
    "--max-size": ("max_size", {"type": int}),
    "--literal-only": ("refined", {
        "action": "store_false",
        "help": "alpha-recurrence: skip the stratified variant"}),
    "--include": ("include", {
        "type": _piece_names,
        "help": f"hopf: comma-separated piece names "
                f"({', '.join(vf.HOPF_PIECES)})"}),
    "--pairs": ("pairs", {"type": int}),
    "--seed": ("seed", {"type": int}),
}


def _cmd_verify(args, out) -> int:
    # looked up per call so that a suite replaced on the module is the one run
    suite = getattr(vf, vf.SUITES[args.suite].__name__)
    params = inspect.signature(suite).parameters
    kwargs = {}
    for flag, (key, _) in _SUITE_FLAGS.items():
        value = getattr(args, key, None)
        if value is None:
            continue
        if key not in params:
            raise UsageError(f"{flag}: not taken by suite {args.suite}")
        kwargs[key] = value
    try:
        report = suite(**kwargs)
    except vf.ParameterError as e:
        raise UsageError(f"--suite {args.suite}: {e}") from None
    return _render_report(report, args.format, out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="staircase-groth",
        description="Exact skew Schur / stable Grothendieck computations "
                    "and identity verification on staircase shapes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("compute", help="compute a polynomial in the m basis")
    p.add_argument("--kind", choices=(*_KINDS, "G-double"), required=True)
    p.add_argument("--shape", required=True,
                   help="outer[/inner], e.g. 3,2,1/1")
    p.add_argument("--mu", help="inner partition for kind G-double")
    p.add_argument("--deg", type=int, default=None)
    add_common(p)

    p = sub.add_parser("expand", help="expand a polynomial in another basis")
    p.add_argument("--kind", choices=tuple(_KINDS), required=True)
    p.add_argument("--shape", required=True)
    p.add_argument("--target", choices=tuple(_TARGETS), required=True)
    p.add_argument("--deg", type=int, default=None)
    add_common(p)

    p = sub.add_parser("coeff", help="signed lattice-count coefficients")
    p.add_argument("--family", choices=("c", "alpha"), required=True)
    p.add_argument("--nu")
    p.add_argument("--mu")
    p.add_argument("--target")
    p.add_argument("--shape")
    p.add_argument("--content")
    add_common(p)

    p = sub.add_parser("verify", help="run an identity suite")
    p.add_argument("--suite", required=True, choices=sorted(vf.SUITES))
    for flag, (key, opts) in _SUITE_FLAGS.items():
        p.add_argument(flag, dest=key, default=None, **opts)
    add_common(p)

    p = sub.add_parser("scan", help="converse scan over all small shapes")
    key, opts = _SUITE_FLAGS["--max-size"]
    p.add_argument("--max-size", dest=key, default=None, **opts)
    p.set_defaults(suite="converse")
    add_common(p)

    return parser


_COMMANDS = {
    "compute": _cmd_compute,
    "expand": _cmd_expand,
    "coeff": _cmd_coeff,
    "verify": _cmd_verify,
    "scan": _cmd_verify,
}


def run(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args, out)
    except UsageError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except BrokenPipeError:
        # the reader closed the output early (``verify ... | head``)
        return 1


def main() -> None:
    code = run()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # Python's SIGPIPE recipe: send the flush at exit to devnull, so
        # a closed pipe gives exit 1 and no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
