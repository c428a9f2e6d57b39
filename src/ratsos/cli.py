"""Command-line front end.

Every subcommand wraps one library pipeline, reads polynomials in the text
grammar (variables x1..xn with x, y, z aliases) and matrices/vectors as JSON,
and prints deterministic human output or, with --json, a stable JSON object.

Each command is declared once, by ``@command`` on its handler: its words
("count-roots", "sos find"), help line and options (shared ones are named
specs: POLY, MATRIX, ...).  A call that names a command parses the rest of
its argv with that command's own parser alone, the one ``build_parser``
would add to its tree, and its -h/--help too; a group alone, an unknown
command and any other argv go to the full tree, which adds every command in
definition order, opening a group's subparsers (dest ``<group>_command``) at
its first.  The search layers ``conic``, ``sos`` and ``lasserre`` imported
here are the package's lazy modules, so an exact command (root counts,
signatures, psd checks) runs none of their code; JSON matrices are read by
``arith``.

Exit codes: 0 success, 1 proved mathematical negative (not SOS, not psd,
unsatisfiable, ...), 2 input error, 3 unknown / numeric failure / a failed
internal check.
"""

from __future__ import annotations

import argparse
import json
import shlex
import sys

from . import conic, lasserre, rootcount, sos
from .arith import json_rationals, json_rows, rat
from .poly import MAX_VARIABLES, MPoly, infer_nvars, parse_poly, parse_upoly
from .quadforms import SymMat, diagonalize, inertia, is_psd

OK, NEGATIVE, INPUT_ERROR, UNKNOWN = 0, 1, 2, 3


def _univariate(text: str):
    try:
        return parse_upoly(text)
    except ValueError as exc:
        raise ValueError(f"expected a univariate polynomial in x: {exc}") from exc


def _json(text: str):
    """JSON whose integers are read by ``rat``, under the parser's digit cap."""
    return json.loads(text, parse_int=lambda digits: int(rat(digits)))


def _matrix(text: str) -> SymMat:
    return SymMat.from_rows(json_rows(_json(text), "--matrix"))


def _cert_file(path: str):
    """The JSON document of a --cert file."""
    with open(path) as fh:
        return _json(fh.read())


def _verdict(verdict):
    """The answer of a certificate check."""
    if verdict:
        return OK, ["valid"], {"valid": True}
    return NEGATIVE, [f"invalid ({verdict.reason})"], {"valid": False, "reason": verdict.reason}


def _pairs(**payload):
    """The answer of a count: its text line is its payload as key=value pairs."""
    return OK, [" ".join(f"{k}={v}" for k, v in payload.items())], payload


def _save(path: str, text: str, what: str) -> str:
    """Write ``text``, ending in one newline, to the -o/--output file; returns the line saying so."""
    with open(path, "w") as fh:
        fh.write(text.rstrip("\n") + "\n")
    return f"{what} written to {path}"


def _write_or_print(args, what: str, text: str, lines: list, payload: dict, printed: dict):
    """The answer of a command whose ``text`` goes to -o/--output if given;
    else it is printed after ``lines`` and ``printed`` joins the JSON payload."""
    if args.output:
        return OK, [*lines, _save(args.output, text, what)], {**payload, "file": args.output}
    return OK, [*lines, text.rstrip("\n")], {**payload, **printed}


def _system(args, text: str):
    """The variable count (-n where the command has it, else inferred from the
    constraints and ``text``) and the parsed constraints."""
    nvars = getattr(args, "nvars", None)
    if nvars is None:
        nvars = max(map(infer_nvars, [*args.constraint, text]))
    elif not 0 <= nvars <= MAX_VARIABLES:
        problem = "is negative" if nvars < 0 else f"exceeds the cap {MAX_VARIABLES}"
        raise ValueError(f"--nvars {nvars} {problem}")
    return nvars, [parse_poly(g, nvars) for g in args.constraint]


# --- registration: a command's words, help line and options ------------------

COMMANDS = []  # (words, help line, options, handler), in definition order
GROUPS = {"sos": "sums-of-squares pipeline", "lasserre": "moment relaxations"}


def _option(*flags, **kwargs):
    """One option: the positional and keyword arguments of ``add_argument``."""
    return flags, kwargs


POLY = _option("--poly", required=True)
MATRIX = _option("--matrix", required=True)
CONSTRAINTS = _option("-g", "--constraint", action="append", default=[])
DEGREE = _option("-d", "--degree", type=int, required=True)
NVARS = _option("-n", "--nvars", type=int)
OUTPUT = _option("-o", "--output")
SYSTEM = (CONSTRAINTS, DEGREE, NVARS)


def command(words: str, help: str, *options):
    """Register the decorated handler as the command ``words``."""
    def register(handler):
        COMMANDS.append((words.split(), help, options, handler))
        return handler
    return register


# --- handlers: each returns (code, human lines, json payload) ---------------

@command("count-roots", "count distinct real/complex roots", POLY)
def cmd_count_roots(args):
    real, cplx = rootcount.count_roots(_univariate(args.poly))
    return _pairs(real=real, complex_distinct=cplx)


@command("count-with-signs", "count real roots with positivity conditions",
         POLY, _option("-g", "--condition", action="append", default=[]))
def cmd_count_with_signs(args):
    f = _univariate(args.poly)
    gs = [_univariate(g) for g in args.condition]
    return _pairs(count=rootcount.count_real_with_signs(f, gs))


@command("decide-strict", "decide a strict univariate inequality system",
         _option("-g", "--condition", action="append", required=True))
def cmd_decide_strict(args):
    gs = [_univariate(g) for g in args.condition]
    sat = rootcount.decide_strict_system(gs)
    text = "satisfiable" if sat else "unsatisfiable"
    return (OK if sat else NEGATIVE), [text], {"satisfiable": sat}


@command("descartes", "sign changes and positive-root bound", POLY)
def cmd_descartes(args):
    f = _univariate(args.poly)
    bound, parity = rootcount.positive_root_count_bound(f)
    return _pairs(sign_changes=bound, max_positive_roots=bound, parity="odd" if parity else "even")


@command("signature", "rank and signature of a symmetric matrix",
         _option("--matrix", required=True, help="JSON rows, e.g. [[2,1],[1,5]]"))
def cmd_signature(args):
    m = _matrix(args.matrix)
    pos, neg, _ = inertia(m)
    return _pairs(dim=m.dim, rank=pos + neg, signature=pos - neg)


@command("diagonalize", "congruence diagonalization M = P^T D P", MATRIX)
def cmd_diagonalize(args):
    m = _matrix(args.matrix)
    cong = diagonalize(m)
    d_strs = [str(x) for x in cong.d]
    p_rows = [[str(x) for x in row] for row in cong.p.rows]
    lines = ["D: " + " ".join(d_strs)] + [f"P[{k}]: " + " ".join(row) for k, row in enumerate(p_rows)]
    return OK, lines, {"d": d_strs, "p": p_rows}


@command("psd-check", "exact positive semidefiniteness test", MATRIX)
def cmd_psd_check(args):
    m = _matrix(args.matrix)
    psd = is_psd(m)
    return (OK if psd else NEGATIVE), ["psd" if psd else "not-psd"], {"psd": psd}


@command("conic", "conic combination or separating functional",
         _option("--vectors", required=True, help="JSON list of generator vectors"),
         _option("--target", required=True, help="JSON target vector"))
def cmd_conic(args):
    vectors = json_rows(_json(args.vectors), "--vectors")
    target = json_rationals(_json(args.target), "--target", "--target entry")
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


@command("lin-nns", "linear nonnegativity certificate or witness",
         POLY, _option("-l", "--constraint", action="append", default=[]))
def cmd_lin_nns(args):
    nvars, ls = _system(args, args.poly)
    result = conic.linear_nns(parse_poly(args.poly, nvars), ls)
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


@command("newton", "lattice points of half the Newton polytope", POLY)
def cmd_newton(args):
    f = parse_poly(args.poly)
    pts = conic.newton_halved_lattice(f)
    return (
        OK,
        ["points: " + " ".join(",".join(str(e) for e in p) for p in pts)],
        {"points": [list(p) for p in pts]},
    )


@command("sos find", "search an exact Gram certificate", POLY, OUTPUT)
def cmd_sos_find(args):
    f = parse_poly(args.poly)
    result = sos.find_gram(f)
    if result.status != "found":
        code, status = (NEGATIVE, "certified-infeasible") if result.status == "infeasible" else (UNKNOWN, "unknown")
        return code, [status, result.detail], {"status": status, "detail": result.detail}
    doc = sos.gram_to_json(*result.cert, target=f)
    return _write_or_print(args, "certificate", sos.dump_cert(doc), ["sos"], {"status": "sos"},
                           {"certificate": doc})


@command("sos check", "verify a certificate file", _option("--poly"), _option("--cert", required=True))
def cmd_sos_check(args):
    doc = _cert_file(args.cert)
    if args.poly:
        f = parse_poly(args.poly)
        cert, _ = sos.cert_from_json(doc, f.nvars)
    else:
        cert, f = sos.cert_from_json(doc)
        if f is None:
            raise ValueError("no target polynomial: pass --poly or include 'target' in the file")
    return _verdict(sos.verify_sos(f, cert))


@command("cassels", "remove a univariate denominator from weighted squares",
         _option("--weights", required=True, help="comma-separated rationals"),
         _option("--fs", required=True, help="comma-separated univariate polynomials"),
         _option("--g", required=True, help="the common denominator polynomial"),
         OUTPUT)
def cmd_cassels(args):
    weights = [rat(w) for w in args.weights.split(",")]
    fs = [_univariate(t) for t in args.fs.split(",")]
    g = _univariate(args.g)
    doc = sos.cert_to_json(sos.cassels_descent(weights, fs, g))
    return _write_or_print(args, "certificate", sos.dump_cert(doc), [], {}, {"certificate": doc})


@command("lasserre build", "build the relaxation and emit SDPA", *SYSTEM, _option("--objective"), OUTPUT)
def cmd_lasserre_build(args):
    nvars, gs = _system(args, args.objective or "")
    objective = parse_poly(args.objective, nvars) if args.objective else MPoly.zero(nvars)
    rel = lasserre.build_relaxation(gs, args.degree, nvars)
    text = lasserre.emit_sdpa(rel, objective)
    lines = [
        "blocks: " + " ".join(str(s) for s in rel.block_sizes),
        f"variables: {rel.num_moment_vars}",
    ]
    payload = {"block_sizes": rel.block_sizes, "variables": rel.num_moment_vars}
    return _write_or_print(args, "sdpa", text, lines, payload, {"sdpa": text})


@command("lasserre check", "verify a module membership certificate",
         POLY, *SYSTEM, _option("--cert", required=True))
def cmd_lasserre_check(args):
    nvars, gs = _system(args, args.poly)
    f = parse_poly(args.poly, nvars)
    cert = lasserre.module_cert_from_json(_cert_file(args.cert), nvars)
    return _verdict(lasserre.verify_module_membership(f, gs, args.degree, cert))


@command("lasserre bound", "certified bisection lower bound",
         POLY, *SYSTEM, _option("--iterations", type=int, default=12), OUTPUT)
def cmd_lasserre_bound(args):
    nvars, gs = _system(args, args.poly)
    f = parse_poly(args.poly, nvars)
    result = lasserre.lower_bound_bisect(f, gs, args.degree, iterations=args.iterations)
    if not result.certified:
        return UNKNOWN, ["unknown (no initial bracket found)"], {"status": "unknown"}
    lines = [f"lo={result.lo} certified=true"]  # the bracket's hi proves nothing and is not printed
    cert_doc = lasserre.module_cert_to_json(result.cert, target=f - result.lo, degree=args.degree)
    payload = {"lo": str(result.lo), "certified": True, "certificate": cert_doc}
    if args.output:
        lines.append(_save(args.output, sos.dump_cert(cert_doc), "certificate"))
        payload["file"] = args.output
    return OK, lines, payload


@command("batch", "run a file of command lines in order", _option("file"))
def cmd_batch(args):
    if args.in_batch:
        raise ValueError("batch files do not nest")
    with open(args.file) as fh:
        commands = [ln for ln in map(str.strip, fh) if ln and not ln.startswith("#")]
    lines, payload = [], []
    for k, line in enumerate(commands):
        try:
            argv = shlex.split(line)
        except ValueError as exc:  # an unbalanced quote fails this line only
            code, out = _input_error(False, str(exc))
        else:
            code, out = run(argv, in_batch=True)
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


def _add_options(parser, options, handler):
    """Give ``parser`` a command's options and its handler."""
    for flags, kwargs in options:
        parser.add_argument(*flags, **kwargs)
    parser.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ratsos",
        description="Exact real-root counting, SOS certificates and moment relaxations over Q.",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON object instead of text")
    top = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for words, help, options, handler in COMMANDS:
        *group, name = words
        sub = top
        if group:
            if group[0] not in groups:
                p = top.add_parser(group[0], help=GROUPS[group[0]])
                groups[group[0]] = p.add_subparsers(dest=f"{group[0]}_command", required=True)
            sub = groups[group[0]]
        _add_options(sub.add_parser(name, help=help), options, handler)
    return parser


def _input_error(as_json: bool, message: str) -> tuple[int, str]:
    if as_json:
        return INPUT_ERROR, json.dumps({"error": message}, sort_keys=True)
    return INPUT_ERROR, f"error: {message}"


def run(argv, *, in_batch: bool = False) -> tuple[int, str]:
    """Execute one command line; returns (exit code, stdout payload).

    ``in_batch`` marks a line of a batch file, where a ``batch`` command is
    an input error.
    """
    argv = list(argv)
    # argparse fills this namespace as it reads, so a --json given before an
    # argument error is already set when the error is raised; a leading one is
    # set here, as a named command's own parser reads only the argv after it
    args = argparse.Namespace(in_batch=in_batch, json=argv[:1] == ["--json"])
    rest = argv[1:] if args.json else argv
    # help before a command, a group alone, an unknown command or another
    # option before it get the full tree, whose texts list the commands
    named = next((entry for entry in COMMANDS if rest[: len(entry[0])] == entry[0]), None)
    try:
        if named:
            words, _, options, handler = named
            parser = _ArgumentParser(prog="ratsos " + " ".join(words))
            _add_options(parser, options, handler)
            parser.parse_args(rest[len(words):], namespace=args)
        else:
            build_parser().parse_args(argv, namespace=args)
    except _ParseExit as exc:
        code, text = exc.args
        return (OK, text) if code == OK else _input_error(args.json, text)
    # an exact answer may have any number of digits, and input text has caps of
    # its own (MAX_DIGITS), so the interpreter's int-string limit is lifted here
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, lines, payload = args.handler(args)
        if args.json:
            return code, json.dumps({"exit": code, **payload}, sort_keys=True, default=str)
        return code, "\n".join(lines)
    except (ValueError, OSError, ZeroDivisionError) as exc:
        return _input_error(args.json, str(exc))
    except (AssertionError, RuntimeError, ArithmeticError) as exc:  # a failed internal check
        message = "internal error: " + (" ".join(str(exc).split()) or type(exc).__name__)
        return UNKNOWN, json.dumps({"error": message}, sort_keys=True) if args.json else message
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv=None) -> int:
    code, text = run(sys.argv[1:] if argv is None else argv)
    if text:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
