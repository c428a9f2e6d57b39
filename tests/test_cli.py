import argparse
import copy
import itertools
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratsos import arith, cli, quadforms, rootcount, sos
from ratsos.cli import run
from ratsos.poly import MPoly, parse_poly


def test_count_roots_golden():
    code, out = run(["count-roots", "--poly", "x^3 - x"])
    assert code == 0
    assert out == "real=3 complex_distinct=3"


def test_count_with_signs():
    code, out = run(["count-with-signs", "--poly", "x^3 - x", "-g", "x"])
    assert code == 0 and out == "count=1"
    # a constant has no roots to count
    assert run(["count-with-signs", "--poly", "5", "-g", "x"]) == (0, "count=0")


def test_decide_strict_exit_codes():
    code, out = run(["decide-strict", "-g", "x^2 + 1"])
    assert code == 0 and out == "satisfiable"
    code, out = run(["decide-strict", "-g", "-1 - x^2"])
    assert code == 1 and out == "unsatisfiable"


def test_descartes():
    code, out = run(["descartes", "--poly", "x^4 - 5*x^3 - 21*x^2 + 115*x - 150"])
    assert code == 0
    assert out == "sign_changes=3 max_positive_roots=3 parity=odd"


def test_signature_and_diagonalize():
    matrix = "[[0,1,1,0],[1,0,1,0],[1,1,0,1],[0,0,1,0]]"
    code, out = run(["signature", "--matrix", matrix])
    assert code == 0 and out == "dim=4 rank=4 signature=0"
    code, out = run(["diagonalize", "--matrix", "[[2,1],[1,5]]"])
    assert code == 0 and out.startswith("D: ")
    code, out = run(["diagonalize", "--matrix", matrix])
    assert code == 0
    assert out == "D: 1/2 -1/2 -2 1/2\nP[0]: 1 1 2 0\nP[1]: 1 -1 0 0\nP[2]: 0 0 1 -1/2\nP[3]: 0 0 0 1"
    code, out = run(["--json", "diagonalize", "--matrix", matrix])
    assert code == 0
    assert json.loads(out) == {
        "d": ["1/2", "-1/2", "-2", "1/2"],
        "exit": 0,
        "p": [["1", "1", "2", "0"], ["1", "-1", "0", "0"], ["0", "0", "1", "-1/2"], ["0", "0", "0", "1"]],
    }


def test_psd_check_exit_codes():
    code, out = run(["psd-check", "--matrix", "[[2,1,-3],[1,5,0],[-3,0,5]]"])
    assert code == 0 and out == "psd"
    code, out = run(["psd-check", "--matrix", "[[1,0],[0,-1]]"])
    assert code == 1 and out == "not-psd"


def test_conic_variants():
    code, out = run(["conic", "--vectors", "[[1,0],[0,1]]", "--target", "[1,1]"])
    assert code == 0 and out.startswith("combination")
    code, out = run(["conic", "--vectors", "[[1,0],[0,1]]", "--target", "[-1,0]"])
    assert code == 1 and out.startswith("separating-functional")


def test_lin_nns():
    code, out = run(["lin-nns", "--poly", "x", "-l", "x"])
    assert code == 0 and out.startswith("certificate")
    code, out = run(["lin-nns", "--poly", "-1", "-l", "x"])
    assert code == 1 and out.startswith("witness")


@pytest.mark.parametrize(
    "poly, constraints, variant",
    [
        ("x", ["x"], "certificate"),
        ("x + y", ["x", "y"], "certificate"),
        ("-1", ["x"], "witness"),
        ("x - y", ["x"], "witness"),  # the constraints do not span
        ("x", ["x - 1", "-x"], "empty"),
    ],
)
def test_lin_nns_answers_recheck(poly, constraints, variant):
    """The --json answer re-checked exactly: a witness satisfies every
    constraint and makes f negative; certificate and Farkas coefficients are
    nonnegative and expand to f and to -1."""
    argv = ["lin-nns", f"--poly={poly}"] + [f"--constraint={l}" for l in constraints]
    code, out = run(argv)
    assert out.startswith({"certificate": "certificate", "witness": "witness"}.get(variant, "empty-feasible-set"))
    code, out = run(["--json"] + argv)
    doc = json.loads(out)
    assert doc["variant"] == variant and doc["exit"] == code
    nvars = max(parse_poly(p).nvars for p in [poly, *constraints])
    f = parse_poly(poly, nvars)
    ls = [parse_poly(l, nvars) for l in constraints]
    if variant == "witness":
        point = [Fraction(c) for c in doc["point"]]
        assert code == 1 and f.eval(point) < 0
        assert all(l.eval(point) >= 0 for l in ls)
        return
    coeffs = [Fraction(c) for c in doc["coefficients" if variant == "certificate" else "farkas"]]
    assert code == 0 and len(coeffs) == len(ls) + 1 and all(c >= 0 for c in coeffs)
    acc = MPoly.constant(nvars, coeffs[0])
    for c, l in zip(coeffs[1:], ls):
        acc = acc + l * c
    assert acc == (f if variant == "certificate" else MPoly.constant(nvars, -1))


def test_newton():
    code, out = run(["newton", "--poly", "x^4*y^2 + x^2*y^4 - 3*x^2*y^2 + 1"])
    assert code == 0
    assert out == "points: 0,0 1,1 2,1 1,2"


def test_sos_find_motzkin_negative():
    code, out = run(["sos", "find", "--poly", "x^4*y^2 + x^2*y^4 - 3*x^2*y^2 + 1"])
    assert code == 1
    assert out.splitlines()[0] == "certified-infeasible"


@pytest.mark.parametrize("poly", ["x*y", "x*y*z^2"])
def test_sos_find_empty_lattice_negative(poly):
    """No lattice point doubles to a support point: every monomial is unreachable."""
    code, out = run(["sos", "find", "--poly", poly])
    assert code == 1
    status, detail = out.splitlines()
    assert status == "certified-infeasible"
    assert detail.endswith("of the target is not a sum of two candidate exponents")


def test_sos_find_refuted_face():
    """x*y is reachable only through the entry (1, x*y), which the face of the
    forced-zero x^2*y^2 diagonal sets to 0: the face cut refutes the target
    with its own detail, not an unreachable-monomial one."""
    assert run(["sos", "find", "--poly", "x^4*y^2 + x^2*y^4 + 1 + x*y"]) == (
        1, "certified-infeasible\nno Gram matrix has zero rows at its diagonal entries forced to 0")


def test_sos_find_and_check(tmp_path):
    cert = tmp_path / "cert.json"
    code, out = run(["sos", "find", "--poly", "2*x^4 + 5*y^4 - x^2*y^2 + 2*x^3*y", "-o", str(cert)])
    assert code == 0 and out.splitlines()[0] == "sos"
    code, out = run(["sos", "check", "--cert", str(cert)])
    assert code == 0 and out == "valid"
    doc = json.loads(cert.read_text())
    # the psd Gram matrix of another target
    mismatched = tmp_path / "mismatched.json"
    mismatched.write_text(json.dumps({**doc, "target": doc["target"] + " + 1"}))
    assert run(["sos", "check", "--cert", str(mismatched)]) == (1, "invalid (gram-product-mismatch)")
    code, out = run(["--json", "sos", "check", "--cert", str(mismatched)])
    assert code == 1 and json.loads(out) == {"exit": 1, "reason": "gram-product-mismatch", "valid": False}
    doc["gram"][0][0] = "1"  # corrupt
    cert.write_text(json.dumps(doc))
    code, out = run(["sos", "check", "--cert", str(cert)])
    assert code == 1 and out.startswith("invalid")


def _write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_malformed_certificates_exit_2(tmp_path):
    sos_docs = {
        "monomials": {"gram": [["1"]], "target": "1"},
        "poly": {"terms": [{"weight": "1"}], "target": "x^2"},
        "weight": {"terms": [{"poly": "x"}], "target": "x^2"},
    }
    for key, doc in sos_docs.items():
        code, out = run(["sos", "check", "--cert", _write_json(tmp_path / f"{key}.json", doc)])
        assert code == 2 and out.startswith("error:") and repr(key) in out
    code, out = run(["sos", "check", "--cert", _write_json(tmp_path / "list.json", [1])])
    assert code == 2
    module_docs = {
        "sigmas": {},
        "terms": {"sigmas": [{}]},
        "weight": {"sigmas": [{"terms": [{"poly": "1"}]}]},
        "poly": {"sigmas": [{"terms": [{"weight": "1"}]}]},
    }
    for key, doc in module_docs.items():
        cert = _write_json(tmp_path / f"module-{key}.json", doc)
        code, out = run(["lasserre", "check", "--poly", "x", "-g", "x", "-d", "2", "--cert", cert])
        assert code == 2 and out.startswith("error:") and repr(key) in out


def test_batch_survives_malformed_certificate(tmp_path):
    bad = _write_json(tmp_path / "bad.json", {"gram": [["1"]], "target": "1"})
    batch = tmp_path / "cmds.txt"
    batch.write_text(
        'count-roots --poly "x^3 - x"\n'
        f"sos check --cert {bad}\n"
        'descartes --poly "x^2 - 3*x + 2"\n'
    )
    code, out = run(["batch", str(batch)])
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "[0] real=3 complex_distinct=3"
    assert lines[1].startswith("[1] error:") and "'monomials'" in lines[1]
    assert lines[2].startswith("[2] sign_changes=2")


def test_mistyped_certificates_exit_2(tmp_path):
    sos_docs = {
        "gram": {"gram": 3, "monomials": [[1]], "target": "x^2"},
        "target": {"target": 7, "gram": [["1"]], "monomials": [[1]]},
        "'gram' row": {"gram": ["1"], "monomials": [[1]], "target": "x^2"},
        "'gram' entry": {"gram": [[True]], "monomials": [[1]], "target": "x^2"},
        "monomials": {"gram": [["1"]], "monomials": "x", "target": "x^2"},
        "monomial": {"gram": [["1"]], "monomials": [[-1]], "target": "x^2"},
        "terms": {"terms": {"weight": "1", "poly": "x"}, "target": "x^2"},
        "weight": {"terms": [{"weight": [1], "poly": "x"}], "target": "x^2"},
        "poly": {"terms": [{"weight": "1", "poly": 2}], "target": "x^2"},
        "'gram' is 2x2 but 'monomials' lists 1": {"gram": [["1", "0"], ["0", "1"]], "monomials": [[1]],
                                                  "target": "x^2"},
        "'gram' is 1x1 but 'monomials' lists 2": {"gram": [["1"]], "monomials": [[1], [0]], "target": "x^2"},
    }
    for k, (key, doc) in enumerate(sos_docs.items()):
        code, out = run(["sos", "check", "--cert", _write_json(tmp_path / f"sos{k}.json", doc)])
        assert code == 2 and out.startswith("error:") and key in out, (key, out)
    module_docs = {
        "sigmas": {"sigmas": 5},
        "terms": {"sigmas": [{"terms": "1"}, {"terms": []}]},
        "weight": {"sigmas": [{"terms": []}, {"terms": [{"weight": True, "poly": "1"}]}]},
    }
    for k, (key, doc) in enumerate(module_docs.items()):
        cert = _write_json(tmp_path / f"module{k}.json", doc)
        code, out = run(["lasserre", "check", "--poly", "x", "-g", "x", "-d", "2", "--cert", cert])
        assert code == 2 and out.startswith("error:") and repr(key) in out, (key, out)
    # the well-typed documents these were made from are accepted
    good = _write_json(tmp_path / "good.json", {"gram": [["1"]], "monomials": [[1]], "target": "x^2"})
    assert run(["sos", "check", "--cert", good]) == (0, "valid")
    good = _write_json(
        tmp_path / "good-module.json", {"sigmas": [{"terms": []}, {"terms": [{"weight": 1, "poly": "1"}]}]}
    )
    assert run(["lasserre", "check", "--poly", "x", "-g", "x", "-d", "2", "--cert", good]) == (0, "valid")


def test_gram_monomials_are_checked_where_they_are_read(tmp_path):
    """Ragged monomials, and monomials of another length than the target's
    variable count, are input errors naming the monomial from the file."""
    gram = [["1", "0"], ["0", "1"]]
    cases = [  # (document, extra arguments, the monomial named), each against 2 variables
        ({"monomials": [[1, 0], [0, 1, 0]], "gram": gram, "target": "x^2 + y^2"}, [], [0, 1, 0]),
        ({"monomials": [[1, 0], [0, 1, 0]], "gram": gram}, [], [0, 1, 0]),
        ({"monomials": [[1], [0]], "gram": gram, "target": "x^2 + y^2"}, [], [1]),
        ({"monomials": [[1], [0]], "gram": gram}, ["--poly", "x^2 + y^2"], [1]),
        ({"monomials": [[1, 0, 0], [0, 1, 0]], "gram": gram}, ["--poly", "x^2 + y^2"], [1, 0, 0]),
    ]
    for k, (doc, extra, monomial) in enumerate(cases):
        cert = _write_json(tmp_path / f"cert{k}.json", doc)
        message = f"error: certificate monomial {monomial} has length {len(monomial)}, expected 2"
        assert run(["sos", "check", "--cert", cert] + extra) == (2, message), doc
    good = _write_json(tmp_path / "good.json", {"monomials": [[1, 0], [0, 1]], "gram": gram})
    assert run(["sos", "check", "--cert", good, "--poly", "x^2 + y^2"]) == (0, "valid")


def test_gram_certificate_round_trip_when_the_target_loses_its_last_variable(tmp_path):
    """x^4 + y - y is written with target "x^4" over the monomial (2, 0); read
    back without --poly, the target takes the monomials' two variables, and
    a target naming a variable past them still fails the length check."""
    cert = tmp_path / "cert.json"
    assert run(["sos", "find", "--poly", "x^4 + y - y", "-o", str(cert)])[0] == 0
    doc = json.loads(cert.read_text())
    assert (doc["target"], doc["monomials"]) == ("x^4", [[2, 0]])
    assert run(["sos", "check", "--cert", str(cert)]) == (0, "valid")
    assert run(["sos", "check", "--cert", str(cert), "--poly", "x^4 + y - y"]) == (0, "valid")
    wider = _write_json(tmp_path / "wider.json", {**doc, "target": "x^4 + z - z"})
    message = "error: certificate monomial [2, 0] has length 2, expected 3"
    assert run(["sos", "check", "--cert", wider]) == (2, message)


def test_batch_survives_mistyped_certificate(tmp_path):
    bad = _write_json(tmp_path / "bad.json", {"gram": 3, "monomials": [[1]], "target": "x^2"})
    good = _write_json(tmp_path / "good.json", {"gram": [["1"]], "monomials": [[1]], "target": "x^2"})
    batch = tmp_path / "cmds.txt"
    batch.write_text(f"sos check --cert {good}\nsos check --cert {bad}\ncount-roots --poly \"x^3 - x\"\n")
    code, out = run(["batch", str(batch)])
    assert code == 2
    assert out.splitlines() == [
        "[0] valid",
        "[1] error: certificate field 'gram' must be a list, not int",
        "[2] real=3 complex_distinct=3",
    ]


#: valid certificate documents (sos check with a target, the empty Gram
#: matrix of the zero polynomial among them, lasserre check for
#: x = 0 * 1 + 1 * x at degree 2) that the fuzz test mutates
FUZZ_DOCS = {
    "empty-gram": ({"gram": [], "monomials": [], "target": "0"}, ["sos", "check"]),
    "gram": (
        {"monomials": [[0, 0], [1, 0], [0, 1]],
         "gram": [["1", "0", "1/2"], ["0", "1", "0"], ["1/2", "0", "2"]],
         "target": "1 + y + x^2 + 2*y^2"},
        ["sos", "check"],
    ),
    "terms": (
        {"terms": [{"weight": "1", "poly": "x + y"}, {"weight": 2, "poly": "y - 1"}],
         "target": "x^2 + 2*x*y + 3*y^2 - 4*y + 2"},
        ["sos", "check"],
    ),
    "sigmas": (
        {"sigmas": [{"terms": [{"weight": "0", "poly": "1"}]}, {"terms": [{"weight": "1", "poly": "1"}]}]},
        ["lasserre", "check", "--poly", "x", "-g", "x", "-d", "2"],
    ),
}

#: wrong types, non-rational strings and out-of-place objects
JUNK = [7, -1, 0, 1.5, None, True, "", "abc", "1/0", "1.5", "x^", "x^2 + 1", "1/3",
        [], [[]], [1, 2], {}, {"weight": "1"}, {"terms": []}]


def _paths(node, path=()):
    """Every position in a JSON document, as a key/index path from the root."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _mutate(doc, data):
    """One random edit: replace a node by junk, delete it, or duplicate a list entry."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    action = data.draw(st.sampled_from(["replace", "delete", "duplicate"]))
    if not path or action == "replace":
        junk = copy.deepcopy(data.draw(st.sampled_from(JUNK)))
        if not path:
            return junk
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    last = path[-1]
    if action == "replace":
        parent[last] = junk
    elif action == "delete":
        del parent[last]
    elif isinstance(parent, list):
        parent.insert(last, copy.deepcopy(parent[last]))
    else:
        parent[last] = [parent[last], copy.deepcopy(parent[last])]
    return doc


@pytest.mark.parametrize("kind", sorted(FUZZ_DOCS))
def test_mutated_certificates_never_raise(kind, tmp_path_factory):
    doc, argv = FUZZ_DOCS[kind]
    directory = tmp_path_factory.mktemp(kind)
    assert run(argv + ["--cert", _write_json(directory / "valid.json", doc)]) == (0, "valid")
    names = itertools.count()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def check(data):
        mutated = copy.deepcopy(doc)
        for _ in range(data.draw(st.integers(1, 3))):
            mutated = _mutate(mutated, data)
        # a fresh file per example: truncating one in place can be slow
        cert = _write_json(directory / f"cert{next(names)}.json", mutated)
        code, out = run(argv + ["--cert", cert])
        assert code in (0, 1, 2, 3) and isinstance(out, str)

    check()


def test_cassels():
    code, out = run(["cassels", "--weights", "1,1", "--fs", "x^2+x,x^2-x", "--g", "x"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["terms"]) == 2


def test_cassels_keeps_a_zero_weight_through_a_general_step():
    code, out = run(["--json", "cassels", "--weights", "1,0,1", "--fs", "x^2-1,x^7,2*x", "--g", "x^2+1"])
    assert (code, out) == (0, '{"certificate": {"terms": [{"poly": "1", "weight": "1"}, {"poly": "0", "weight": "0"}, '
                              '{"poly": "0", "weight": "1"}]}, "exit": 0}')


def test_lasserre_build(tmp_path):
    out_file = tmp_path / "out.dat-s"
    code, out = run(
        ["lasserre", "build", "-n", "2", "-d", "4", "-g", "1 - x + y", "-g", "1 - x^4 - y^4", "-o", str(out_file)]
    )
    assert code == 0
    assert out.splitlines()[0] == "blocks: 6 3 1"
    assert out.splitlines()[1] == "variables: 14"
    header = out_file.read_text().splitlines()[:3]
    assert header == ["14", "3", "6 3 1"]


def test_lasserre_bound_and_check(tmp_path):
    cert = tmp_path / "module.json"
    code, out = run(
        ["lasserre", "bound", "--poly", "x", "-g", "x", "-g", "1 - x", "-d", "2",
         "--iterations", "8", "-o", str(cert)]
    )
    assert code == 0
    assert "certified=true" in out
    lo = out.split()[0].split("=")[1]
    check = ["lasserre", "check", "--poly", f"x - {lo}" if not lo.startswith("-") else f"x + {lo[1:]}",
             "-g", "x", "-g", "1 - x", "-d", "2", "--cert", str(cert)]
    code, out = run(check)
    assert code == 0 and out == "valid"
    # the same certificate with one weight negated
    doc = json.loads(cert.read_text())
    term = next(t for sigma in doc["sigmas"] for t in sigma["terms"])
    term["weight"] = f"-{term['weight']}"
    cert.write_text(json.dumps(doc))
    assert run(check) == (1, "invalid (negative-weight)")
    code, out = run(["--json"] + check)
    assert code == 1 and json.loads(out) == {"exit": 1, "reason": "negative-weight", "valid": False}


def test_lasserre_bound_cubic_on_interval(tmp_path):
    """x^3 - x on [-1, 1] at d = 4: sigma_0's x^4 diagonal is forced to 0, and
    the search on the face left without it brackets and certifies a bound
    below the minimum -2/(3*sqrt(3)) within the budget."""
    cert = tmp_path / "module.json"
    system = ["-g", "1 + x", "-g", "1 - x", "-d", "4"]
    start = time.perf_counter()
    code, out = run(["lasserre", "bound", "--poly", "x^3 - x", *system, "-o", str(cert)])
    assert time.perf_counter() - start < 5.0
    assert code == 0 and "certified=true" in out
    lo = Fraction(out.split()[0].split("=")[1])
    assert lo < 0 and 27 * lo**2 >= 4
    code, out = run(["lasserre", "check", "--poly", f"x^3 - x + {-lo}", *system, "--cert", str(cert)])
    assert code == 0 and out == "valid"


def test_lasserre_bound_rejects_negative_iterations():
    argv = ["lasserre", "bound", "--poly", "x", "-g", "x", "-g", "1 - x", "-d", "2", "--iterations", "-1"]
    assert run(argv) == (2, "error: iterations must be nonnegative, not -1")


def test_lasserre_bound_without_bracket_is_unknown():
    """x is unbounded below with no constraints: the doubling walk never
    flips, so there is no bracket to bisect and the answer is exit 3."""
    argv = ["lasserre", "bound", "--poly", "x", "-d", "1"]
    assert run(argv) == (3, "unknown (no initial bracket found)")
    code, out = run(["--json"] + argv)
    assert code == 3 and json.loads(out) == {"exit": 3, "status": "unknown"}


def test_searches_beyond_float_range_are_unknown(capsys):
    """A Gram system whose coefficients floats cannot hold has no numeric
    phase, and one whose iterates overflow stops it: either search ends
    unknown, with nothing on stderr, instead of in an internal error or a
    stall at an overflowed gap; a bisection that finds no certificate at any
    level has no bracket."""
    big = "1" + "0" * 400
    detail = "a coefficient of the Gram system exceeds the float range"
    assert run(["sos", "find", "--poly", f"x^4 + {big}*x^2*y^2 + y^4 + 1"]) == (3, f"unknown\n{detail}")
    assert run(["--json", "sos", "find", "--poly", f"x^4 + {big}*x^2*y^2 + y^4 + 1"]) == (
        3, f'{{"detail": "{detail}", "exit": 3, "status": "unknown"}}')
    large = "1" + "0" * 300  # a float, but its products are not
    assert run(["sos", "find", "--poly", f"x^4 + {large}*x^2*y^2 + y^4 + 1"]) == (3, f"unknown\n{detail}")
    assert capsys.readouterr().err == ""
    argv = ["lasserre", "bound", "--poly", f"x^2 + {big}", "-g", "1 - x^2", "-d", "2"]
    assert run(argv) == (3, "unknown (no initial bracket found)")
    assert run(["lasserre", "build", "-d", "2", "-g", f"x - {big}"])[0] == 2


def test_input_errors_exit_2():
    code, out = run(["count-roots", "--poly", "x + @"])
    assert code == 2 and out.startswith("error:")
    code, out = run(["psd-check", "--matrix", "[[1,2],[3,4]]"])
    assert code == 2
    code, out = run(["no-such-command"])
    assert code == 2


@pytest.mark.parametrize("argv,message", [
    (["sos", "find", "--poly", "x99999999 + 1"], "variable x99999999 exceeds the cap 64 (at position 0)"),
    (["newton", "--poly", "x^2 + y²"], "unexpected character '²' (at position 7)"),
    (["lasserre", "build", "-n", "100000", "-d", "1"], "--nvars 100000 exceeds the cap 64"),
    (["lasserre", "bound", "-n", "65", "-d", "2", "--poly", "x"], "--nvars 65 exceeds the cap 64"),
    (["lasserre", "check", "-n", "65", "-d", "2", "--poly", "x", "--cert", "missing.json"],
     "--nvars 65 exceeds the cap 64"),
    (["psd-check", "--matrix", '[["1e-3"]]'], "Invalid literal for Fraction: '1e-3'"),
    (["conic", "--vectors", "[]", "--target", "[0,0]"], "generating set does not span the ambient space"),
    # the objective is read before the relaxation is built, with or without -n
    (["lasserre", "build", "-d", "0", "--objective", "x +"], "expected a term (at position 3)"),
    (["lasserre", "build", "-n", "1", "-d", "0", "--objective", "x +"], "expected a term (at position 3)"),
    # the variable count comes from every text of the command
    (["lasserre", "build", "-d", "1", "-g", "x0", "-g", "y"],
     "unknown variable x0 with 2 variable(s) (at position 0)"),
    # -n is at least 0, and a digit run too long for int() is a parse error
    (["lasserre", "build", "-n", "-1", "-d", "1"], "--nvars -1 is negative"),
    (["lasserre", "bound", "-n", "-2", "-d", "2", "--poly", "1"], "--nvars -2 is negative"),
    (["lasserre", "check", "-n", "-1", "-d", "2", "--poly", "1", "--cert", "missing.json"],
     "--nvars -1 is negative"),
    (["newton", "--poly", "x^2 + " + "1" * 5000], "number longer than 600 digits (at position 6)"),
    (["cassels", "--weights", "1/0", "--fs", "x", "--g", "x"], "zero denominator in rational literal '1/0'"),
    (["lasserre", "build", "-n", "1", "-d", "0", "-g", "x"], "relaxation degree must be at least 1"),
    (["lasserre", "bound", "--poly", "x^3", "-g", "x", "-d", "2"], "target degree exceeds the relaxation degree"),
    (["sos", "find", "--poly", "0"], "the zero polynomial needs no certificate"),
    (["cassels", "--weights", "1", "--fs", "x,x", "--g", "1"], "weights and polynomials differ in length"),
])
def test_polynomial_and_literal_errors_exit_2(argv, message):
    assert run(argv) == (2, f"error: {message}")


@pytest.mark.parametrize("argv, code, out", [
    (["count-roots", "--poly", "x^3-x"], 0, "real=3 complex_distinct=3"),
    (["psd-check", "--matrix", "[[1,2],[2,1]]"], 1, "not-psd"),
    (["newton", "--poly", "x^2-2*"], 2, "error: expected a variable (at position 6)"),
])
def test_module_process_exit_codes(argv, code, out):
    """``python -m ratsos.cli`` as a process: stdout and the exit code."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "ratsos.cli", *argv], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out + "\n", "")


def test_zero_variables_stay_valid():
    code, out = run(["lasserre", "build", "-n", "0", "-d", "1"])
    assert code == 0 and out.startswith("blocks: 1\nvariables: 0\n")


#: malformed JSON matrices and vectors, with the message each must give
BAD_JSON_ARGS = [
    (["signature", "--matrix", "5"], "--matrix must be a list, not int"),
    (["signature", "--matrix", "[5]"], "--matrix row must be a list, not int"),
    (["psd-check", "--matrix", "{}"], "--matrix must be a list, not dict"),
    (["psd-check", "--matrix", "[[true]]"], "--matrix entry must be a string or an integer, not bool"),
    (["diagonalize", "--matrix", "[[1.5]]"], "--matrix entry must be a string or an integer, not float"),
    (["conic", "--vectors", "5", "--target", "[1]"], "--vectors must be a list, not int"),
    (["conic", "--vectors", "[[1], 2]", "--target", "[1]"], "--vectors row must be a list, not int"),
    (["conic", "--vectors", "[[1]]", "--target", "5"], "--target must be a list, not int"),
    (["conic", "--vectors", "[[1]]", "--target", "[null]"],
     "--target entry must be a string or an integer, not NoneType"),
    # a zero denominator names the literal
    (["psd-check", "--matrix", '[["1/0"]]'], "zero denominator in rational literal '1/0'"),
    (["psd-check", "--matrix", '[["-3/0"]]'], "zero denominator in rational literal '-3/0'"),
    (["conic", "--vectors", "[[1]]", "--target", '["2/00"]'], "zero denominator in rational literal '2/00'"),
    # a bool after an equal integer is no cached literal
    (["psd-check", "--matrix", "[[1, true]]"], "--matrix entry must be a string or an integer, not bool"),
]


@pytest.mark.parametrize("argv,message", BAD_JSON_ARGS)
def test_bad_json_matrices_and_vectors_exit_2(argv, message):
    assert run(argv) == (2, f"error: {message}")
    code, out = run(["--json"] + argv)
    assert code == 2 and json.loads(out) == {"error": message}


def test_json_rows_read_each_literal_once():
    """Equal literals of one matrix give one shared Fraction; "1", 1 and "01"
    are three literals of one value."""
    rows = arith.json_rows([["1/2", 1, "01"], [1, "1/2", "1"], ["01", "1", "2/4"]], "m")
    assert rows == [[Fraction(1, 2), 1, 1], [1, Fraction(1, 2), 1], [1, 1, Fraction(1, 2)]]
    assert rows[0][0] is rows[1][1] and rows[0][1] is rows[1][0] and rows[0][2] is rows[2][0]
    assert rows[0][1] is not rows[0][2] is not rows[1][2] and rows[2][2] is not rows[0][0]
    assert all(type(x) is Fraction for row in rows for x in row)
    assert run(["signature", "--matrix", '[["1", 1, "01"], [1, "01", "1"], ["01", "1", 1]]']) == (
        0, "dim=3 rank=1 signature=1")
    assert run(["psd-check", "--matrix", '[["1/2", "-1/2"], ["-1/2", "1/2"]]']) == (0, "psd")


def test_long_json_integers_get_the_parser_digit_cap(tmp_path):
    """A JSON integer past the parser's 600 digits (here also past Python's
    own 4,300) is an input error with the message the same digits get as a
    string, in every JSON input: matrices, vectors, targets and both kinds
    of certificate file."""
    ones = "1" * 5000
    message = "rational literal with a number longer than 600 digits"
    gram = tmp_path / "gram.json"
    gram.write_text(f'{{"gram": [[{ones}]], "monomials": [[0]], "target": "1"}}')
    module = tmp_path / "module.json"
    module.write_text(f'{{"sigmas": [{{"terms": [{{"weight": {ones}, "poly": "1"}}]}}]}}')
    for argv in (["psd-check", "--matrix", f"[[{ones}]]"],
                 ["psd-check", "--matrix", f'[["{ones}"]]'],
                 ["conic", "--vectors", f"[[{ones}]]", "--target", "[1]"],
                 ["conic", "--vectors", "[[1]]", "--target", f"[-{ones}]"],
                 ["sos", "check", "--cert", str(gram)],
                 ["lasserre", "check", "--poly", "1", "-d", "0", "--cert", str(module)]):
        assert run(argv) == (2, f"error: {message}"), argv


def test_zero_denominators_in_certificates_name_the_literal(tmp_path):
    """A Gram entry or a module weight with a zero denominator is an input
    error that names the literal, in text and in --json."""
    gram = _write_json(tmp_path / "gram.json", {"gram": [["1/0"]], "monomials": [[0]], "target": "1"})
    module = _write_json(tmp_path / "module.json", {"sigmas": [{"terms": [{"weight": "-1/0", "poly": "1"}]}]})
    for argv, literal in ((["sos", "check", "--cert", gram], "1/0"),
                          (["lasserre", "check", "--poly", "1", "-d", "0", "--cert", module], "-1/0")):
        message = f"zero denominator in rational literal '{literal}'"
        assert run(argv) == (2, f"error: {message}"), argv
        code, out = run(["--json"] + argv)
        assert code == 2 and json.loads(out) == {"error": message}, argv


def test_diagonalize_prints_numbers_past_the_int_string_limit():
    """A 9x9 matrix of 600-digit integers has a congruence diagonal with
    numbers of more than 4,300 digits: the answer is printed in full (exit 0),
    P^T diag(D) P gives the matrix back exactly, and the interpreter's
    int-string limit is the same after the call."""
    rng = random.Random(9)
    rows = [[0] * 9 for _ in range(9)]
    for i in range(9):
        for j in range(i, 9):
            rows[i][j] = rows[j][i] = rng.randrange(10**599, 10**600) * rng.choice((-1, 1))
    limit = sys.get_int_max_str_digits()
    code, out = run(["diagonalize", "--matrix", json.dumps(rows)])
    assert sys.get_int_max_str_digits() == limit
    assert code == 0
    lines = out.splitlines()
    assert max(map(len, lines[0].split())) > 4300
    sys.set_int_max_str_digits(0)  # to read the numbers back
    try:
        d = [Fraction(x) for x in lines[0].split()[1:]]
        p = [[Fraction(x) for x in line.split()[1:]] for line in lines[1:]]
    finally:
        sys.set_int_max_str_digits(limit)
    assert [[sum(p[k][i] * w * p[k][j] for k, w in enumerate(d)) for j in range(9)] for i in range(9)] == rows


def test_lasserre_bound_prints_no_uncertified_hi():
    """The bisection's hi is only the last level without a certificate: for
    x^3 - x on [-1, 1] it is -397/1024, below the minimum -2/(3*sqrt(3)),
    so neither the line nor the JSON object carries it."""
    argv = ["lasserre", "bound", "--poly", "x^3-x", "-g", "1+x", "-g", "1-x", "-d", "4"]
    assert run(argv) == (0, "lo=-1589/4096 certified=true")
    code, out = run(["--json"] + argv)
    assert code == 0 and sorted(json.loads(out)) == ["certificate", "certified", "exit", "lo"]


def test_batch_survives_bad_json_matrix(tmp_path):
    batch = tmp_path / "cmds.txt"
    batch.write_text("signature --matrix 5\npsd-check --matrix [[true]]\npsd-check --matrix [[1]]\n")
    code, out = run(["batch", str(batch)])
    assert code == 2
    assert out.splitlines() == [
        "[0] error: --matrix must be a list, not int",
        "[1] error: --matrix entry must be a string or an integer, not bool",
        "[2] psd",
    ]


def test_batch_has_no_workers_option(tmp_path):
    batch = tmp_path / "cmds.txt"
    batch.write_text("psd-check --matrix [[1]]\n")
    assert run(["batch", str(batch), "--workers", "2"])[0] == 2


#: JSON values for the matrix and vector fuzz: wrong types, non-rational
#: strings, ragged and nested lists, objects
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2, allow_nan=False)
    | st.sampled_from(["", "1/2", "-3", "1/0", "1.5", "x", "2/4"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from("ab"), children, max_size=2),
    max_leaves=10,
)


@pytest.mark.parametrize("template", [
    ["signature", "--matrix={}"],
    ["diagonalize", "--matrix={}"],
    ["psd-check", "--matrix={}"],
    ["conic", "--vectors={}", "--target=[1, 0]"],
    ["conic", "--vectors=[[1, 0], [0, 1], [-1, -1]]", "--target={}"],
])
def test_fuzzed_json_matrices_and_vectors_never_raise(template):
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.one_of(JSON_VALUES.map(json.dumps), st.text(max_size=8)))
    def check(text):
        code, out = run([arg.format(text) if "{}" in arg else arg for arg in template])
        assert code in (0, 1, 2, 3) and isinstance(out, str)

    check()


#: argument errors, with the message argparse gives for each
ARGUMENT_ERRORS = [
    (["signature", "--matrix"], "argument --matrix: expected one argument"),
    (["count-roots"], "the following arguments are required: --poly"),
    (["count-roots", "--poly", "x", "--bogus"], "unrecognized arguments: --bogus"),
    ([], "the following arguments are required: command"),
    # the required arguments of every command and group, in declaration order
    (["sos"], "the following arguments are required: sos_command"),
    (["lasserre"], "the following arguments are required: lasserre_command"),
    (["count-with-signs"], "the following arguments are required: --poly"),
    (["decide-strict"], "the following arguments are required: -g/--condition"),
    (["descartes"], "the following arguments are required: --poly"),
    (["signature"], "the following arguments are required: --matrix"),
    (["diagonalize"], "the following arguments are required: --matrix"),
    (["psd-check"], "the following arguments are required: --matrix"),
    (["conic"], "the following arguments are required: --vectors, --target"),
    (["lin-nns"], "the following arguments are required: --poly"),
    (["newton"], "the following arguments are required: --poly"),
    (["sos", "find"], "the following arguments are required: --poly"),
    (["sos", "check"], "the following arguments are required: --cert"),
    (["cassels"], "the following arguments are required: --weights, --fs, --g"),
    (["lasserre", "build"], "the following arguments are required: -d/--degree"),
    (["lasserre", "check"], "the following arguments are required: --poly, -d/--degree, --cert"),
    (["lasserre", "bound"], "the following arguments are required: --poly, -d/--degree"),
    (["batch"], "the following arguments are required: file"),
]

#: every command path with the help line the top-level help gives it
COMMANDS = {
    ("count-roots",): "count distinct real/complex roots",
    ("count-with-signs",): "count real roots with positivity conditions",
    ("decide-strict",): "decide a strict univariate inequality system",
    ("descartes",): "sign changes and positive-root bound",
    ("signature",): "rank and signature of a symmetric matrix",
    ("diagonalize",): "congruence diagonalization M = P^T D P",
    ("psd-check",): "exact positive semidefiniteness test",
    ("conic",): "conic combination or separating functional",
    ("lin-nns",): "linear nonnegativity certificate or witness",
    ("newton",): "lattice points of half the Newton polytope",
    ("sos",): "sums-of-squares pipeline",
    ("sos", "find"): "search an exact Gram certificate",
    ("sos", "check"): "verify a certificate file",
    ("cassels",): "remove a univariate denominator from weighted squares",
    ("lasserre",): "moment relaxations",
    ("lasserre", "build"): "build the relaxation and emit SDPA",
    ("lasserre", "check"): "verify a module membership certificate",
    ("lasserre", "bound"): "certified bisection lower bound",
    ("batch",): "run a file of command lines in order",
}


@pytest.mark.parametrize("argv,message", ARGUMENT_ERRORS)
def test_argument_errors_come_back_through_run(argv, message, capsys):
    assert run(argv) == (2, f"error: {message}")
    code, out = run(["--json"] + argv)
    assert code == 2 and json.loads(out) == {"error": message}
    assert capsys.readouterr() == ("", "")


def test_help_comes_back_through_run(capsys):
    code, out = run(["--help"])
    assert code == 0 and out.startswith("usage: ratsos")
    top_level = " ".join(out.split())
    for words, help_line in COMMANDS.items():
        code, out = run([*words, "-h"])
        assert code == 0 and out.startswith(f"usage: ratsos {' '.join(words)}"), words
        if len(words) == 1:
            assert f"{words[0]} {help_line}" in top_level, words
        else:
            group_help = " ".join(run([words[0], "--help"])[1].split())
            assert f"{words[1]} {help_line}" in group_help, words
    assert capsys.readouterr() == ("", "")


#: argv on either side of the choice between one command's parser and the full
#: tree, with the text the full tree gives: a misspelled command or group
#: command, an abbreviated top-level option or command option, and an option
#: inside a group
FULL_PARSER_TEXTS = [
    (["count-root", "--poly", "x"], 2,
     "error: argument command: invalid choice: 'count-root' (choose from 'count-roots', 'count-with-signs', "
     "'decide-strict', 'descartes', 'signature', 'diagonalize', 'psd-check', 'conic', 'lin-nns', 'newton', "
     "'sos', 'cassels', 'lasserre', 'batch')"),
    (["sos", "finder"], 2, "error: argument sos_command: invalid choice: 'finder' (choose from 'find', 'check')"),
    (["--js", "count-roots", "--poly", "x^2-1"], 0, '{"complex_distinct": 2, "exit": 0, "real": 2}'),
    (["count-roots", "--pol", "x^2-1"], 0, "real=2 complex_distinct=2"),
    (["sos", "--json", "find", "--poly", "x^2"], 2, "error: unrecognized arguments: --json"),
]


@pytest.mark.parametrize("argv,code,out", FULL_PARSER_TEXTS)
def test_argv_outside_one_command_keeps_the_full_parser_text(argv, code, out, capsys):
    assert run(argv) == (code, out)
    assert capsys.readouterr() == ("", "")


def _built_parsers(monkeypatch) -> list:
    """Every ``_ArgumentParser`` built from now on, in order."""
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(cli._ArgumentParser, "__init__",
                        lambda self, *a, **kw: built.append(self) or init(self, *a, **kw))
    return built


@pytest.mark.parametrize("argv,added", [
    (["count-roots", "--poly", "x"], ["ratsos count-roots"]),
    (["--json", "count-roots", "--poly", "x"], ["ratsos count-roots"]),
    (["sos", "find", "--poly", "x^2"], ["ratsos sos find"]),
    (["--help"], None),
    (["sos", "find", "-h"], ["ratsos sos find"]),
    (["sos"], None),
    (["count-root", "--poly", "x"], None),
    (["--js", "count-roots", "--poly", "x"], None),
])
def test_a_call_builds_only_the_parser_of_its_command(argv, added, monkeypatch):
    """A named command builds its own parser alone (``added`` its prog), its
    help included, and no subparser; help before any command, a group alone,
    an unknown command or a leading option other than --json add every
    subparser to the full tree."""
    names = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: names.append(name) or add_parser(self, name, **kw))
    built = _built_parsers(monkeypatch)
    run(argv)
    if added is None:
        assert len(names) == len(COMMANDS) and len(built) == len(COMMANDS) + 1
    else:
        assert names == [] and [p.prog for p in built] == added


def _subparser(parser, words):
    """The parser the full tree hands ``words`` to."""
    for word in words:
        parser = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[word]
    return parser


def _argv_tails(options):
    """argv after a command with ``options``: its flags, every abbreviation of
    its long ones and a junk flag, each with a value, joined by ``=`` or
    alone, and junk."""
    flags = [f for option_flags, _ in options for f in option_flags if f.startswith("-")] + ["--bogus"]
    flags += [f[:k] for f in flags if f.startswith("--") for k in range(3, len(f))]
    values = ["x", "x^2-1", "2", "-1", "1/0", "-x", ""]
    junk = ["--json", "--", "-", "--he", "-z", "-d2", "-gx", "junk"]
    pair = st.tuples(st.sampled_from(flags), st.sampled_from(values))
    # a flag with its value is drawn twice as often as each other piece, so
    # that some tails hold every required option
    piece = st.one_of(pair.map(list), pair.map(list), pair.map(lambda fv: ["=".join(fv)]),
                      st.sampled_from(junk + values + flags).map(lambda t: [t]))
    return st.lists(piece, max_size=4).map(lambda pieces: sum(pieces, []))


@pytest.mark.parametrize("words", [words for words, *_ in cli.COMMANDS], ids=" ".join)
def test_a_command_parser_reads_argv_as_the_full_tree_does(words, monkeypatch):
    """The one parser ``run`` builds for a named command has the prog, usage
    and help of its subparser in the full tree, and on any argv tail gives
    the full tree's namespace, less the ``command`` and ``<group>_command``
    choices, or its help or error text.  No real handler runs: each command
    gets one that only keeps its namespace."""
    seen = []
    monkeypatch.setattr(cli, "COMMANDS", [(w, h, o, lambda args: seen.append(vars(args)) or (0, [], {}))
                                          for w, h, o, _ in cli.COMMANDS])
    with monkeypatch.context() as m:
        built = _built_parsers(m)
        run(list(words))
    sub = _subparser(cli.build_parser(), words)
    assert [(p.prog, p.format_usage(), p.format_help()) for p in built] == [
        (sub.prog, sub.format_usage(), sub.format_help())]
    options = next(o for w, _, o, _ in cli.COMMANDS if w == words)

    def choices_dropped(namespace: dict) -> dict:
        return {k: v for k, v in namespace.items() if k not in {"command", f"{words[0]}_command"}}

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.booleans(), _argv_tails(options))
    def check(leading_json, tail):
        argv = ["--json"] * leading_json + [*words, *tail]
        expected = argparse.Namespace(in_batch=False)
        seen.clear()
        try:
            cli.build_parser().parse_args(argv, namespace=expected)
        except cli._ParseExit as exc:
            code, text = exc.args
            want = (code, text) if code == 0 else cli._input_error(getattr(expected, "json", False), text)
            assert run(argv) == want and seen == []
        else:
            assert run(argv) == (0, '{"exit": 0}' if expected.json else "")
            assert [choices_dropped(ns) for ns in seen] == [choices_dropped(vars(expected))]

    check()


def test_batch_survives_bad_argument_lines(tmp_path, capsys):
    batch = tmp_path / "cmds.txt"
    batch.write_text(
        'count-roots --poly "x^3 - x"\n'
        'count-roots --poly "x\n'
        "signature --matrix [[1]] --matrix\n"
        'descartes --poly "x^2 - 3*x + 2"\n'
    )
    code, out = run(["batch", str(batch)])
    assert code == 2
    assert out.splitlines() == [
        "[0] real=3 complex_distinct=3",
        "[1] error: No closing quotation",
        "[2] error: argument --matrix: expected one argument",
        "[3] sign_changes=2 max_positive_roots=2 parity=even",
    ]
    assert capsys.readouterr() == ("", "")


def test_batch_files_do_not_nest(tmp_path, capsys):
    """A batch line that runs a batch file, here the file itself, fails on its
    own line with exit 2; the other lines still run."""
    batch = tmp_path / "cmds.txt"
    batch.write_text(
        'count-roots --poly "x^3 - x"\n'
        f"batch {batch}\n"
        f"--json batch {batch}\n"
        'descartes --poly "x^2 - 3*x + 2"\n'
    )
    code, out = run(["batch", str(batch)])
    assert code == 2
    assert out.splitlines() == [
        "[0] real=3 complex_distinct=3",
        "[1] error: batch files do not nest",
        '[2] {"error": "batch files do not nest"}',
        "[3] sign_changes=2 max_positive_roots=2 parity=even",
    ]
    assert capsys.readouterr() == ("", "")


WRONG_TARGET = "internal error: family member does not reproduce the target"


def test_internal_errors_exit_3(tmp_path, monkeypatch, capsys):
    """A failed internal check ends in exit 3 with a one-line message, also
    under --json and inside batch; here find_gram's re-check of the member it
    accepted is made to fail."""
    monkeypatch.setattr(sos, "gram_product", lambda gram, monomials, nvars: MPoly.zero(1))
    argv = ["sos", "find", "--poly", "x^4+x^2+1"]
    assert run(argv) == (3, WRONG_TARGET)
    code, out = run(["--json"] + argv)
    assert code == 3 and json.loads(out) == {"error": WRONG_TARGET}
    batch = tmp_path / "cmds.txt"
    batch.write_text('sos find --poly "x^4+x^2+1"\ncount-roots --poly "x^3 - x"\n')
    assert run(["batch", str(batch)]) == (3, f"[0] {WRONG_TARGET}\n[1] real=3 complex_distinct=3")
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("exc", [AssertionError(), RuntimeError("two\nlines"), ArithmeticError("bad")])
def test_internal_error_kinds_exit_3(monkeypatch, exc):
    def fail(f):
        raise exc

    monkeypatch.setattr(rootcount, "count_roots", fail)
    code, out = run(["count-roots", "--poly", "x"])
    assert code == 3 and out == "internal error: " + (" ".join(str(exc).split()) or type(exc).__name__)
    assert "\n" not in out


def test_zero_division_stays_an_input_error():
    assert run(["cassels", "--weights", "1", "--fs", "x", "--g", "0"]) == (2, "error: zero denominator")


def test_count_roots_diagonalizes_once(monkeypatch):
    dims = []
    diagonalize = quadforms.diagonalize
    monkeypatch.setattr(quadforms, "diagonalize", lambda m: dims.append(m.dim) or diagonalize(m))
    assert run(["count-roots", "--poly", "x^3 - x"]) == (0, "real=3 complex_distinct=3")
    assert dims == [3]


#: short text in the polynomial grammar's alphabet, and any short text
POLY_TEXT = st.text(alphabet="xyz0123456789+-*/^ ", max_size=10) | st.text(max_size=6)


@pytest.mark.parametrize("template", [
    ["descartes", "--poly={}"],
    ["count-roots", "--poly={}"],
    ["count-with-signs", "--poly=x^3 - x", "-g={}"],
])
def test_fuzzed_polynomial_text_never_raises(template, capsys):
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(POLY_TEXT)
    def check(text):
        code, out = run([arg.format(text) for arg in template])
        assert code in (0, 1, 2, 3) and isinstance(out, str)

    check()
    assert capsys.readouterr().err == ""


#: valid batch lines that the batch fuzz edits, and the flags it appends
BATCH_LINES = [
    'count-roots --poly "x^3 - x"',
    'count-with-signs --poly "x^3 - x" -g x',
    "decide-strict -g 'x^2 + 1' -g \"1 - x\"",
    'descartes --poly "x^2 - 3*x + 2"',
    "signature --matrix [[2,1],[1,5]]",
    "psd-check --matrix [[1,0],[0,-1]]",
    "conic --vectors [[1,0],[0,1]] --target [1,1]",
]
JUNK_FLAGS = ["--bogus", "--poly", "-g", "--matrix", "--json", "-h", "--", "-", "'", '"x']


@st.composite
def batch_line(draw):
    kind = draw(st.sampled_from(["valid", "drop-quote", "add-quote", "truncate", "junk-flag",
                                 "comment", "blank"]))
    if kind == "comment":
        return draw(st.sampled_from(["", " ", "  ", "\t"])) + "#" + draw(st.text(alphabet="ab \"'-", max_size=6))
    if kind == "blank":
        return draw(st.sampled_from(["", "  ", "\t"]))
    line = draw(st.sampled_from(BATCH_LINES))
    if kind == "drop-quote" and any(q in line for q in "\"'"):
        quotes = [i for i, ch in enumerate(line) if ch in "\"'"]
        i = draw(st.sampled_from(quotes))
        line = line[:i] + line[i + 1:]
    elif kind == "add-quote":
        i = draw(st.integers(0, len(line)))
        line = line[:i] + draw(st.sampled_from("\"'")) + line[i:]
    elif kind == "truncate":
        line = line[: draw(st.integers(0, len(line) - 1))]
    elif kind == "junk-flag":
        line += " " + draw(st.sampled_from(JUNK_FLAGS))
    return line


def test_fuzzed_batch_files_never_raise(tmp_path_factory, capsys):
    directory = tmp_path_factory.mktemp("batch")
    names = itertools.count()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.lists(batch_line(), min_size=1, max_size=5))
    def check(file_lines):
        batch = directory / f"cmds{next(names)}.txt"
        batch.write_text("\n".join(file_lines) + "\n")
        expected = []
        for line in file_lines:
            if not line.strip() or line.strip().startswith("#"):
                continue
            try:
                expected.append(run(shlex.split(line)))
            except ValueError as exc:  # an unbalanced quote fails its own line
                expected.append((2, f"error: {exc}"))
        assert all(text for _, text in expected)
        code, out = run(["batch", str(batch)])
        # the worst exit code, and one block per command line, in order
        assert code == max((c for c, _ in expected), default=0)
        assert out.splitlines() == [
            f"[{k}] {ln}" for k, (_, text) in enumerate(expected) for ln in text.splitlines()
        ]
        assert capsys.readouterr().err == ""

    check()


def test_json_mode():
    code, out = run(["--json", "count-roots", "--poly", "x^2 + 1"])
    assert code == 0
    assert json.loads(out) == {"real": 0, "complex_distinct": 2, "exit": 0}


def test_batch(tmp_path):
    batch = tmp_path / "cmds.txt"
    batch.write_text(
        'count-roots --poly "x^3 - x"\n'
        'psd-check --matrix [[1,0],[0,-1]]\n'
        'descartes --poly "x^2 - 3*x + 2"\n'
    )
    code, out = run(["batch", str(batch)])
    assert code == 1  # worst exit code wins
    lines = out.splitlines()
    assert lines[0] == "[0] real=3 complex_distinct=3"
    assert lines[1] == "[1] not-psd"
    assert lines[2].startswith("[2] sign_changes=2")


def test_output_is_deterministic():
    a = run(["sos", "find", "--poly", "2*x^4 + 5*y^4 - x^2*y^2 + 2*x^3*y"])
    b = run(["sos", "find", "--poly", "2*x^4 + 5*y^4 - x^2*y^2 + 2*x^3*y"])
    assert a == b


def test_sos_find_scales_to_a_large_lattice(tmp_path):
    """111 lattice monomials (6,216 Gram unknowns): the float family keeps one
    row per equation, not one column per free unknown, so the search fits the
    budget, and the written certificate passes the exact check."""
    cert = tmp_path / "cert.json"
    start = time.perf_counter()
    code, out = run(["sos", "find", "--poly", "x1^10*x2^10*x3^10+x1^10+x2^10+x3^10+1", "-o", str(cert)])
    assert time.perf_counter() - start < 15.0
    assert code == 0 and out.splitlines()[0] == "sos"
    assert run(["sos", "check", "--cert", str(cert)]) == (0, "valid")


#: ``--json`` output pinned byte for byte: a Gram-product SOS, a boundary
#: instance with no interior, two bisection bounds with their module
#: certificates, a monomial dropped on the plain face, and the sextic, which
#: drops one on the face of its real zeros (where the row order of the
#: family moves the float point).  Each certificate but the face's unique
#: one is a rounding of a float point, so any move of the numeric phase or
#: the rationalization shows up here.
GOLDEN = [
    (["--json", "sos", "find", "--poly=40*x^4 + 14*x^3*y + 51*x^2*y^2 - 24*x*y^3 + 53*y^4 - 24*x^3 "
      "+ 20*x^2*y - 20*x*y^2 + 30*y^3 + 72*x^2 - 34*x*y + 50*y^2 - 2*x + 4*y + 40"],
     '{"certificate": {"gram": [["40", "-1", "2", "55/2", "-44/5", "43/2"], ["-1", "17", "-41/5", "-12", '
     '"5/3", "-39/4"], ["2", "-41/5", "7", "25/3", "-1/4", "15"], ["55/2", "-12", "25/3", "40", "7", '
     '"171/10"], ["-44/5", "5/3", "-1/4", "7", "84/5", "-12"], ["43/2", "-39/4", "15", "171/10", "-12", '
     '"53"]], "monomials": [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]], "target": "40*x^4 + '
     '14*x^3*y + 51*x^2*y^2 - 24*x*y^3 + 53*y^4 - 24*x^3 + 20*x^2*y - 20*x*y^2 + 30*y^3 + 72*x^2 - '
     '34*x*y + 50*y^2 - 2*x + 4*y + 40"}, "exit": 0, "status": "sos"}'),
    (["--json", "sos", "find", "--poly=x^4 + y^4 - 4*x + 3"],
     '{"certificate": {"gram": [["3", "-2", "0", "-1", "0", "0"], ["-2", "2", "0", "0", "0", "0"], '
     '["0", "0", "0", "0", "0", "0"], ["-1", "0", "0", "1", "0", "0"], ["0", "0", "0", "0", "0", "0"], '
     '["0", "0", "0", "0", "0", "1"]], "monomials": [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]], '
     '"target": "x^4 + y^4 - 4*x + 3"}, "exit": 0, "status": "sos"}'),
    (["--json", "lasserre", "bound", "--poly=x^2 + y^2 - x*y - x", "-d", "2", "--iterations=3",
      "--constraint=1 - x^2 - y^2"],
     '{"certificate": {"degree": 2, "sigmas": [{"terms": [{"poly": "-4/3*x + 1", "weight": "3/8"}, '
     '{"poly": "x - 3/2*y", "weight": "1/3"}, {"poly": "y", "weight": "1/4"}]}, {"terms": []}], '
     '"target": "x^2 - x*y + y^2 - x + 3/8"}, "certified": true, "exit": 0, "lo": "-3/8"}'),
    (["--json", "lasserre", "bound", "--poly=x^3 - x", "-d", "4", "--iterations=3", "--constraint=1 + x",
      "--constraint=1 - x"],
     '{"certificate": {"degree": 4, "sigmas": [{"terms": [{"poly": "-787/1550*x + 1", "weight": "31/142"}, '
     '{"poly": "x", "weight": "40931/11005000"}]}, {"terms": [{"poly": "-3763/2000*x + 1", "weight": '
     '"20/71"}, {"poly": "x", "weight": "561/200000"}]}, {"terms": []}], "target": "x^3 - x + 1/2"}, '
     '"certified": true, "exit": 0, "lo": "-1/2"}'),
    (["--json", "sos", "find", "--poly=x^4*y^2 + x^2*y^4 + 1"],
     '{"certificate": {"gram": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], "monomials": [[0, 0], '
     '[2, 1], [1, 2]], "target": "x^4*y^2 + x^2*y^4 + 1"}, "exit": 0, "status": "sos"}'),
    (["--json", "sos", "find", "--poly=x^6 + y^6 + z^6 - x^4*y^2 - y^4*z^2 - z^4*x^2"],
     '{"certificate": {"gram": [["1", "0", "0", "-637/1026", "-389/1026", "0", "0", "0", "0"], ["0", '
     '"124/513", "0", "0", "0", "-28/57", "0", "128/513", "0"], ["0", "0", "389/513", "0", "0", "0", '
     '"115/1026", "0", "-47/54"], ["-637/1026", "0", "0", "56/57", "-371/1026", "0", "0", "0", "0"], '
     '["-389/1026", "0", "0", "-371/1026", "20/27", "0", "0", "0", "0"], ["0", "-28/57", "0", "0", "0", "1", '
     '"0", "-29/57", "0"], ["0", "0", "115/1026", "0", "0", "0", "1/57", "0", "-7/54"], ["0", "128/513", "0", '
     '"0", "0", "-29/57", "0", "7/27", "0"], ["0", "0", "-47/54", "0", "0", "0", "-7/54", "0", "1"]], '
     '"monomials": [[3, 0, 0], [2, 1, 0], [2, 0, 1], [1, 2, 0], [1, 0, 2], [0, 3, 0], [0, 2, 1], [0, 1, 2], '
     '[0, 0, 3]], "target": "x^6 - x^4*y^2 - x^2*z^4 + y^6 - y^4*z^2 + z^6"}, "exit": 0, "status": "sos"}'),
]


@pytest.mark.parametrize("argv, expected", GOLDEN,
                         ids=["gram-product", "boundary", "disk", "cubic", "plain-face", "zero-face"])
def test_golden_certificates(argv, expected):
    assert run(argv) == (0, expected)


def test_sos_find_refutes_at_a_point_of_the_float_run():
    """x^4 - x + 1/4 is negative off the grid {-1, 0, 1}: the point 3/4, read
    off the moments of the separating float run, refutes it exactly."""
    assert run(["sos", "find", "--poly", "x^4 - x + 1/4"]) == (
        1, "certified-infeasible\nthe target is -47/256 at the point (3/4,)")
    assert run(["--json", "sos", "find", "--poly", "x^4 - x + 1/4"]) == (
        1, '{"detail": "the target is -47/256 at the point (3/4,)", "exit": 1, "status": "certified-infeasible"}')


def _readme_examples():
    """(command line, expected output lines, expected exit) of the README CLI block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        if line.startswith("ratsos "):
            examples.append([line, [], 0])
        elif line.startswith("# "):
            text, *code = re.split(r"\s+\(exit (\d)\)$", line[2:])
            examples[-1][1].append(text)
            if code:
                examples[-1][2] = int(code[0])
    return examples


def test_readme_examples(tmp_path, monkeypatch):
    """Each command of the README CLI block prints exactly the # lines under
    it and exits with its (exit N), 0 when none is given; the commands run in
    order in one directory, so a later one reads the files an earlier wrote."""
    monkeypatch.chdir(tmp_path)
    examples = _readme_examples()
    assert len(examples) >= 15
    for line, expected, exit_code in examples:
        assert run(shlex.split(line)[1:]) == (exit_code, "\n".join(expected)), line
