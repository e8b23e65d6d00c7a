"""Command-line surface.

Commands: ``compute`` (polynomials in the monomial basis), ``expand``
(change of basis), ``coeff`` (signed lattice counts), ``verify``
(identity suites), ``scan`` (the staircase converse scan).  Output is
text or JSON; JSON documents round-trip byte for byte (fixed field
order, partitions listed in graded lex order, coefficients carried as
decimal strings).

Exit codes: 0 on success (for ``verify``/``scan``: every gated case
holds, and there is at least one case), 1 when a verification suite
fails (the report is still emitted), 2 on usage errors.

The environment variable STAIRCASE_GROTH_THREADS caps case-level
parallelism in the verification suites.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import grothendieck as gr
from . import symfunc as sf
from . import verify as vf
from .shapes import (
    SkewShape,
    format_partition,
    graded_lex_key,
    parse_partition,
    parse_skew,
)
from .symfunc import TruncationProfile


class UsageError(Exception):
    pass


def _parse_partition_opt(text: str, option: str):
    try:
        return parse_partition(text)
    except ValueError as e:
        raise UsageError(f"{option}: {e}") from None


def _parse_skew_opt(text: str, option: str) -> SkewShape:
    try:
        return parse_skew(text)
    except ValueError as e:
        raise UsageError(f"{option}: {e}") from None


def _profile(args, default_degree: int) -> TruncationProfile:
    deg = args.deg if args.deg is not None else default_degree
    vars_ = args.vars if args.vars is not None else max(deg, 1)
    if deg < 0:
        raise UsageError("--deg: must be nonnegative")
    if vars_ < deg:
        raise UsageError(
            f"--vars: {vars_} is below --deg {deg}; equality up to degree "
            "--deg needs at least that many variables")
    try:
        return TruncationProfile(deg, vars_)
    except ValueError as e:
        raise UsageError(f"--deg/--vars: {e}") from None


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
    if "coeffs" in doc:
        basis = doc["basis"]
        terms = [f"{basis}[{','.join(map(str, c['partition']))}]={c['coeff']}"
                 for c in doc["coeffs"]]
        out.write((" ".join(terms) if terms else "0") + "\n")
        return
    for key, val in doc.items():
        out.write(f"{key}={json.dumps(val)}\n")


def _cmd_compute(args, out) -> int:
    shape = _parse_skew_opt(args.shape, "--shape")
    if args.kind == "G-double":
        if shape.inner:
            raise UsageError("--shape: G-double takes a straight outer shape; "
                             "pass the inner through --mu")
        if args.mu is None:
            raise UsageError("--mu: required for kind G-double")
        mu = _parse_partition_opt(args.mu, "--mu")
        trunc = _profile(args, sum(shape.outer))
        try:
            poly = gr.big_G_double(shape.outer, mu, trunc)
        except ValueError as e:
            raise UsageError(f"--mu: {e}") from None
    else:
        if args.mu is not None:
            raise UsageError("--mu: only meaningful for kind G-double")
        trunc = _profile(args, shape.size())
        try:
            if args.kind == "s":
                poly = gr.schur(shape, trunc)
            elif args.kind == "g":
                poly = gr.dual_g(shape, trunc)
            else:
                poly = gr.big_G(shape, trunc)
        except ValueError as e:
            raise UsageError(f"--shape/--deg: {e}") from None
    _emit(_coeff_doc(args.kind, "m", poly.coeffs, trunc), args.format, out)
    return 0


def _cmd_expand(args, out) -> int:
    shape = _parse_skew_opt(args.shape, "--shape")
    trunc = _profile(args, shape.size())
    try:
        if args.kind == "s":
            poly = gr.schur(shape, trunc)
        elif args.kind == "g":
            poly = gr.dual_g(shape, trunc)
        else:
            poly = gr.big_G(shape, trunc)
    except ValueError as e:
        raise UsageError(f"--shape/--deg: {e}") from None
    target = args.target
    if target == "s":
        exp = sf.m_to_schur(poly)
    elif target == "g":
        exp = gr.expand_in_g(poly)
    elif target == "G":
        exp = gr.expand_in_G(poly)
    elif target == "h":
        exp = sf.m_to_h(poly)
    else:
        exp = sf.m_to_e(poly)
    _emit(_coeff_doc(args.kind, target, exp.coeffs, trunc), args.format, out)
    return 0


def _cmd_coeff(args, out) -> int:
    if args.family == "c":
        if args.nu is None or args.mu is None or args.target is None:
            raise UsageError("--nu/--mu/--target: all required for family c")
        nu = _parse_partition_opt(args.nu, "--nu")
        mu = _parse_partition_opt(args.mu, "--mu")
        target = _parse_partition_opt(args.target, "--target")
        sc = gr.lr_coeff(nu, mu, target)
        inputs = {"nu": format_partition(nu), "mu": format_partition(mu),
                  "target": format_partition(target)}
    else:
        if args.shape is None or args.content is None:
            raise UsageError("--shape/--content: required for family alpha")
        shape = _parse_skew_opt(args.shape, "--shape")
        content = _parse_partition_opt(args.content, "--content")
        sc = gr.alpha(shape, content)
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


def _run_suite(args) -> vf.Report:
    suite = args.suite

    def n_or(default: int) -> int:
        return default if args.n is None else args.n

    if suite == "stembridge-g":
        return vf.verify_stembridge_g(n_or(4))
    if suite == "stembridge-G":
        return vf.verify_stembridge_G(n_or(3), args.extra_degrees)
    if suite == "lattice-rules":
        return vf.verify_lattice_rules(n_or(4))
    if suite == "alpha-recurrence":
        if args.k is None:
            raise UsageError("--k: required for suite alpha-recurrence")
        return vf.verify_alpha_recurrence(n_or(4), args.k,
                                          refined=not args.literal_only)
    if suite == "basis":
        return vf.verify_basis_identities(
            args.k_max, args.deg if args.deg is not None else 7)
    if suite == "hopf":
        include = vf.HOPF_PIECES
        if args.include:
            include = tuple(x.strip() for x in args.include.split(",") if x.strip())
        return vf.verify_hopf(n_or(3), args.deg, include)
    if suite == "converse":
        return vf.converse_scan(args.max_size)
    if suite == "multiply-oracle":
        return vf.verify_multiply_oracle(args.pairs, args.deg or 6, args.seed)
    raise UsageError(f"--suite: unknown suite {suite!r}")


def _cmd_verify(args, out) -> int:
    try:
        report = _run_suite(args)
    except vf.ParameterError as e:
        raise UsageError(f"--suite {args.suite}: {e}") from None
    return _render_report(report, args.format, out)


def _cmd_scan(args, out) -> int:
    return _render_report(vf.converse_scan(args.max_size), args.format, out)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="staircase-groth",
        description="Exact skew Schur / stable Grothendieck computations "
                    "and identity verification on staircase shapes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("compute", help="compute a polynomial in the m basis")
    p.add_argument("--kind", choices=("s", "g", "G", "G-double"), required=True)
    p.add_argument("--shape", required=True,
                   help="outer[/inner], e.g. 3,2,1/1")
    p.add_argument("--mu", help="inner partition for kind G-double")
    p.add_argument("--vars", type=int, default=None)
    p.add_argument("--deg", type=int, default=None)
    add_common(p)

    p = sub.add_parser("expand", help="expand a polynomial in another basis")
    p.add_argument("--kind", choices=("s", "g", "G"), required=True)
    p.add_argument("--shape", required=True)
    p.add_argument("--target", choices=("s", "g", "G", "e", "h"), required=True)
    p.add_argument("--vars", type=int, default=None)
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
    p.add_argument("--n", type=int, default=None,
                   help="staircase index (defaults: 4 for g suites, 3 for "
                        "G suites)")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--k-max", dest="k_max", type=int, default=4)
    p.add_argument("--deg", type=int, default=None)
    p.add_argument("--extra-degrees", dest="extra_degrees", type=int, default=3)
    p.add_argument("--max-size", dest="max_size", type=int, default=12)
    p.add_argument("--literal-only", action="store_true",
                   help="alpha-recurrence: skip the stratified variant")
    p.add_argument("--include",
                   help="hopf: comma-separated piece names "
                        f"({', '.join(vf.HOPF_PIECES)})")
    p.add_argument("--pairs", type=int, default=100)
    p.add_argument("--seed", type=int, default=vf.DEFAULT_SEED)
    add_common(p)

    p = sub.add_parser("scan", help="converse scan over all small shapes")
    p.add_argument("--max-size", dest="max_size", type=int, default=12)
    add_common(p)

    return parser


_COMMANDS = {
    "compute": _cmd_compute,
    "expand": _cmd_expand,
    "coeff": _cmd_coeff,
    "verify": _cmd_verify,
    "scan": _cmd_scan,
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


def main() -> None:
    sys.exit(run())
