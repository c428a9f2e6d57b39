"""Command-line front end.

Every subcommand wraps one library pipeline, reads polynomials in the text
grammar (variables x1..xn with x, y, z aliases) and matrices/vectors as JSON,
and prints deterministic human output or, with --json, a stable JSON object.

Exit codes: 0 success, 1 proved mathematical negative (not SOS, not psd,
unsatisfiable, ...), 2 input error, 3 unknown / numeric failure / a failed
internal check.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys
from fractions import Fraction

from . import conic, lasserre, rootcount, sos
from .arith import rat
from .poly import MPoly, PolyParseError, parse_poly, parse_upoly
from .quadforms import SymMat, diagonalize, inertia, is_psd

OK, NEGATIVE, INPUT_ERROR, UNKNOWN = 0, 1, 2, 3


def _univariate(text: str):
    try:
        return parse_upoly(text)
    except ValueError as exc:
        raise ValueError(f"expected a univariate polynomial in x: {exc}") from exc


def _matrix(text: str) -> SymMat:
    return SymMat.from_rows(sos.json_rows(json.loads(text), "--matrix"))


def _vectors(text: str) -> list[list[Fraction]]:
    return sos.json_rows(json.loads(text), "--vectors")


# --- handlers: each returns (code, human lines, json payload) ---------------

def cmd_count_roots(args):
    real, cplx = rootcount.count_roots(_univariate(args.poly))
    return OK, [f"real={real} complex_distinct={cplx}"], {"real": real, "complex_distinct": cplx}


def cmd_count_with_signs(args):
    f = _univariate(args.poly)
    gs = [_univariate(g) for g in args.condition]
    n = rootcount.count_real_with_signs(f, gs)
    return OK, [f"count={n}"], {"count": n}


def cmd_decide_strict(args):
    gs = [_univariate(g) for g in args.condition]
    sat = rootcount.decide_strict_system(gs)
    text = "satisfiable" if sat else "unsatisfiable"
    return (OK if sat else NEGATIVE), [text], {"satisfiable": sat}


def cmd_descartes(args):
    f = _univariate(args.poly)
    bound, parity = rootcount.positive_root_count_bound(f)
    parity_word = "odd" if parity else "even"
    return (
        OK,
        [f"sign_changes={bound} max_positive_roots={bound} parity={parity_word}"],
        {"sign_changes": bound, "max_positive_roots": bound, "parity": parity_word},
    )


def cmd_signature(args):
    m = _matrix(args.matrix)
    pos, neg, _ = inertia(m)
    sig, rk = pos - neg, pos + neg
    return (
        OK,
        [f"dim={m.dim} rank={rk} signature={sig}"],
        {"dim": m.dim, "rank": rk, "signature": sig},
    )


def cmd_diagonalize(args):
    m = _matrix(args.matrix)
    cong = diagonalize(m)
    d_strs = [str(x) for x in cong.d]
    p_rows = [[str(x) for x in row] for row in cong.p.rows]
    lines = ["D: " + " ".join(d_strs)] + [f"P[{k}]: " + " ".join(row) for k, row in enumerate(p_rows)]
    return OK, lines, {"d": d_strs, "p": p_rows}


def cmd_psd_check(args):
    m = _matrix(args.matrix)
    psd = is_psd(m)
    return (OK if psd else NEGATIVE), ["psd" if psd else "not-psd"], {"psd": psd}


def cmd_conic(args):
    vectors = _vectors(args.vectors)
    target = sos.json_rationals(json.loads(args.target), "--target", "--target entry")
    result = conic.conic_representation(vectors, target)
    if isinstance(result, conic.ConicCombination):
        coeffs = [str(c) for c in result.coefficients]
        return (
            OK,
            [f"combination indices={result.indices} coefficients=[{', '.join(coeffs)}]"],
            {"variant": "combination", "indices": result.indices, "coefficients": coeffs},
        )
    ell = [str(c) for c in result.functional]
    return (
        NEGATIVE,
        [f"separating-functional l=[{', '.join(ell)}] kernel={result.kernel_indices}"],
        {"variant": "separating", "functional": ell, "kernel_indices": result.kernel_indices},
    )


def cmd_lin_nns(args):
    nvars = max(
        [parse_poly(args.poly).nvars] + [parse_poly(l).nvars for l in args.constraint]
    )
    f = parse_poly(args.poly, nvars)
    ls = [parse_poly(l, nvars) for l in args.constraint]
    result = conic.linear_nns(f, ls)
    if isinstance(result, conic.LinearCertificate):
        coeffs = [str(c) for c in result.coefficients]
        return (
            OK,
            [f"certificate coefficients=[{', '.join(coeffs)}]"],
            {"variant": "certificate", "coefficients": coeffs},
        )
    if isinstance(result, conic.LinearWitness):
        pt = [str(c) for c in result.point]
        return (
            NEGATIVE,
            [f"witness point=({', '.join(pt)})"],
            {"variant": "witness", "point": pt},
        )
    farkas = [str(c) for c in result.farkas]
    return (
        OK,
        [f"empty-feasible-set farkas=[{', '.join(farkas)}]"],
        {"variant": "empty", "farkas": farkas},
    )


def cmd_newton(args):
    f = parse_poly(args.poly)
    pts = conic.newton_halved_lattice(f)
    return (
        OK,
        ["points: " + " ".join(",".join(str(e) for e in p) for p in pts)],
        {"points": [list(p) for p in pts]},
    )


def cmd_sos_find(args):
    f = parse_poly(args.poly)
    result = sos.find_gram(f)
    if result.status == "infeasible":
        return NEGATIVE, ["certified-infeasible", result.detail], {
            "status": "certified-infeasible",
            "detail": result.detail,
        }
    if result.status == "unknown":
        return UNKNOWN, ["unknown", result.detail], {"status": "unknown", "detail": result.detail}
    doc = sos.gram_to_json(result.gram, result.monomials, target=f)
    text = sos.dump_cert(doc)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        return OK, ["sos", f"certificate written to {args.output}"], {"status": "sos", "file": args.output}
    return OK, ["sos", text], {"status": "sos", "certificate": doc}


def cmd_sos_check(args):
    with open(args.cert) as fh:
        doc = json.load(fh)
    if args.poly:
        f = parse_poly(args.poly)
        cert, _ = sos.cert_from_json(doc, f.nvars)
    else:
        cert, f = sos.cert_from_json(doc)
        if f is None:
            raise ValueError("no target polynomial: pass --poly or include 'target' in the file")
    verdict = sos.verify_sos(f, cert)
    if verdict:
        return OK, ["valid"], {"valid": True}
    return NEGATIVE, [f"invalid ({verdict.reason})"], {"valid": False, "reason": verdict.reason}


def cmd_cassels(args):
    weights = [rat(w) for w in args.weights.split(",")]
    fs = [_univariate(t) for t in args.fs.split(",")]
    g = _univariate(args.g)
    cert = sos.cassels_descent(weights, fs, g)
    doc = sos.cert_to_json(cert)
    text = sos.dump_cert(doc)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        return OK, [f"certificate written to {args.output}"], {"file": args.output}
    return OK, [text], {"certificate": doc}


def _lasserre_system(args):
    nvars = args.nvars
    if nvars is None:
        texts = list(args.constraint)
        texts += [getattr(args, "poly", None) or "", getattr(args, "objective", None) or ""]
        nvars = max([parse_poly(t).nvars for t in texts if t] or [1])
    gs = [parse_poly(g, nvars) for g in args.constraint]
    return nvars, gs


def cmd_lasserre_build(args):
    nvars, gs = _lasserre_system(args)
    rel = lasserre.build_relaxation(gs, args.degree, nvars)
    objective = (
        parse_poly(args.objective, nvars) if args.objective else MPoly.zero(nvars)
    )
    text = lasserre.emit_sdpa(rel, objective)
    lines = [
        "blocks: " + " ".join(str(s) for s in rel.block_sizes),
        f"variables: {rel.num_moment_vars}",
    ]
    payload = {"block_sizes": rel.block_sizes, "variables": rel.num_moment_vars}
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        lines.append(f"sdpa written to {args.output}")
        payload["file"] = args.output
    else:
        lines.append(text.rstrip("\n"))
        payload["sdpa"] = text
    return OK, lines, payload


def cmd_lasserre_check(args):
    nvars, gs = _lasserre_system(args)
    f = parse_poly(args.poly, nvars)
    with open(args.cert) as fh:
        doc = json.load(fh)
    cert = lasserre.module_cert_from_json(doc, nvars)
    verdict = lasserre.verify_module_membership(f, gs, args.degree, cert)
    if verdict:
        return OK, ["valid"], {"valid": True}
    return NEGATIVE, [f"invalid ({verdict.reason})"], {"valid": False, "reason": verdict.reason}


def cmd_lasserre_bound(args):
    nvars, gs = _lasserre_system(args)
    f = parse_poly(args.poly, nvars)
    result = lasserre.lower_bound_bisect(f, gs, args.degree, iterations=args.iterations)
    if not result.certified:
        return UNKNOWN, ["unknown (no initial bracket found)"], {"status": "unknown"}
    lines = [f"lo={result.lo} hi={result.hi} certified=true"]
    cert_doc = lasserre.module_cert_to_json(result.cert, target=f - result.lo, degree=args.degree)
    payload = {"lo": str(result.lo), "hi": str(result.hi), "certified": True, "certificate": cert_doc}
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(sos.dump_cert(cert_doc) + "\n")
        lines.append(f"certificate written to {args.output}")
        payload["file"] = args.output
    return OK, lines, payload


def cmd_batch(args):
    with open(args.file) as fh:
        commands = [ln for ln in map(str.strip, fh) if ln and not ln.startswith("#")]
    lines, payload = [], []
    for k, line in enumerate(commands):
        try:
            argv = shlex.split(line)
        except ValueError as exc:  # an unbalanced quote fails this line only
            code, out = _input_error(False, str(exc))
        else:
            code, out = run(argv)
        lines += [f"[{k}] {ln}" for ln in out.splitlines()]
        payload.append({"index": k, "exit": code, "output": out})
    return max((r["exit"] for r in payload), default=OK), lines, {"results": payload}


class _ParseExit(Exception):
    """argparse stopped early; args are the exit code and the text it would print."""


class _ArgumentParser(argparse.ArgumentParser):
    """Raises argparse's help and error text (subparsers too) for run() to return."""

    def print_help(self, file=None):
        raise _ParseExit(OK, self.format_help().rstrip("\n"))

    def error(self, message):
        raise _ParseExit(INPUT_ERROR, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ratsos",
        description="Exact real-root counting, SOS certificates and moment relaxations over Q.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON object instead of text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count-roots", help="count distinct real/complex roots")
    p.add_argument("--poly", required=True)
    p.set_defaults(handler=cmd_count_roots)

    p = sub.add_parser("count-with-signs", help="count real roots with positivity conditions")
    p.add_argument("--poly", required=True)
    p.add_argument("-g", "--condition", action="append", default=[])
    p.set_defaults(handler=cmd_count_with_signs)

    p = sub.add_parser("decide-strict", help="decide a strict univariate inequality system")
    p.add_argument("-g", "--condition", action="append", required=True)
    p.set_defaults(handler=cmd_decide_strict)

    p = sub.add_parser("descartes", help="sign changes and positive-root bound")
    p.add_argument("--poly", required=True)
    p.set_defaults(handler=cmd_descartes)

    p = sub.add_parser("signature", help="rank and signature of a symmetric matrix")
    p.add_argument("--matrix", required=True, help='JSON rows, e.g. [[2,1],[1,5]]')
    p.set_defaults(handler=cmd_signature)

    p = sub.add_parser("diagonalize", help="congruence diagonalization M = P^T D P")
    p.add_argument("--matrix", required=True)
    p.set_defaults(handler=cmd_diagonalize)

    p = sub.add_parser("psd-check", help="exact positive semidefiniteness test")
    p.add_argument("--matrix", required=True)
    p.set_defaults(handler=cmd_psd_check)

    p = sub.add_parser("conic", help="conic combination or separating functional")
    p.add_argument("--vectors", required=True, help="JSON list of generator vectors")
    p.add_argument("--target", required=True, help="JSON target vector")
    p.set_defaults(handler=cmd_conic)

    p = sub.add_parser("lin-nns", help="linear nonnegativity certificate or witness")
    p.add_argument("--poly", required=True)
    p.add_argument("-l", "--constraint", action="append", default=[])
    p.set_defaults(handler=cmd_lin_nns)

    p = sub.add_parser("newton", help="lattice points of half the Newton polytope")
    p.add_argument("--poly", required=True)
    p.set_defaults(handler=cmd_newton)

    p_sos = sub.add_parser("sos", help="sums-of-squares pipeline")
    sos_sub = p_sos.add_subparsers(dest="sos_command", required=True)
    p = sos_sub.add_parser("find", help="search an exact Gram certificate")
    p.add_argument("--poly", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=cmd_sos_find)
    p = sos_sub.add_parser("check", help="verify a certificate file")
    p.add_argument("--poly")
    p.add_argument("--cert", required=True)
    p.set_defaults(handler=cmd_sos_check)

    p = sub.add_parser("cassels", help="remove a univariate denominator from weighted squares")
    p.add_argument("--weights", required=True, help="comma-separated rationals")
    p.add_argument("--fs", required=True, help="comma-separated univariate polynomials")
    p.add_argument("--g", required=True, help="the common denominator polynomial")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=cmd_cassels)

    p_las = sub.add_parser("lasserre", help="moment relaxations")
    las_sub = p_las.add_subparsers(dest="lasserre_command", required=True)
    p = las_sub.add_parser("build", help="build the relaxation and emit SDPA")
    p.add_argument("-g", "--constraint", action="append", default=[])
    p.add_argument("-d", "--degree", type=int, required=True)
    p.add_argument("-n", "--nvars", type=int)
    p.add_argument("--objective")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=cmd_lasserre_build)
    p = las_sub.add_parser("check", help="verify a module membership certificate")
    p.add_argument("--poly", required=True)
    p.add_argument("-g", "--constraint", action="append", default=[])
    p.add_argument("-d", "--degree", type=int, required=True)
    p.add_argument("-n", "--nvars", type=int)
    p.add_argument("--cert", required=True)
    p.set_defaults(handler=cmd_lasserre_check)
    p = las_sub.add_parser("bound", help="certified bisection lower bound")
    p.add_argument("--poly", required=True)
    p.add_argument("-g", "--constraint", action="append", default=[])
    p.add_argument("-d", "--degree", type=int, required=True)
    p.add_argument("-n", "--nvars", type=int)
    p.add_argument("--iterations", type=int, default=12)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=cmd_lasserre_bound)

    p = sub.add_parser("batch", help="run a file of command lines in order")
    p.add_argument("file")
    p.set_defaults(handler=cmd_batch)

    return parser


def _input_error(as_json: bool, message: str) -> tuple[int, str]:
    if as_json:
        return INPUT_ERROR, json.dumps({"error": message}, sort_keys=True)
    return INPUT_ERROR, f"error: {message}"


def run(argv) -> tuple[int, str]:
    """Execute one command line; returns (exit code, stdout payload)."""
    # argparse fills this namespace as it reads, so a --json given before an
    # argument error is already set when the error is raised
    args = argparse.Namespace()
    try:
        build_parser().parse_args(argv, namespace=args)
    except _ParseExit as exc:
        code, text = exc.args
        return (OK, text) if code == OK else _input_error(getattr(args, "json", False), text)
    try:
        code, lines, payload = args.handler(args)
    except (PolyParseError, ValueError, OSError, json.JSONDecodeError, ZeroDivisionError) as exc:
        return _input_error(args.json, str(exc))
    except (AssertionError, RuntimeError, ArithmeticError) as exc:  # a failed internal check
        message = "internal error: " + (" ".join(str(exc).split()) or type(exc).__name__)
        return UNKNOWN, json.dumps({"error": message}, sort_keys=True) if args.json else message
    if args.json:
        payload = dict(payload)
        payload.setdefault("exit", code)
        return code, json.dumps(payload, sort_keys=True, default=str)
    return code, "\n".join(lines)


def main(argv=None) -> int:
    code, text = run(sys.argv[1:] if argv is None else argv)
    if text:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
