import copy
import itertools
import json
import re
import shlex
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratsos import quadforms, rootcount, sos
from ratsos.cli import run
from ratsos.poly import MPoly, parse_poly


def test_count_roots_golden():
    code, out = run(["count-roots", "--poly", "x^3 - x"])
    assert code == 0
    assert out == "real=3 complex_distinct=3"


def test_count_with_signs():
    code, out = run(["count-with-signs", "--poly", "x^3 - x", "-g", "x"])
    assert code == 0 and out == "count=1"


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


def test_sos_find_and_check(tmp_path):
    cert = tmp_path / "cert.json"
    code, out = run(["sos", "find", "--poly", "2*x^4 + 5*y^4 - x^2*y^2 + 2*x^3*y", "-o", str(cert)])
    assert code == 0 and out.splitlines()[0] == "sos"
    code, out = run(["sos", "check", "--cert", str(cert)])
    assert code == 0 and out == "valid"
    doc = json.loads(cert.read_text())
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


#: valid certificate documents (sos check with a target, lasserre check for
#: x = 0 * 1 + 1 * x at degree 2) that the fuzz test mutates
FUZZ_DOCS = {
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
    code, out = run(
        ["lasserre", "check", "--poly", f"x - {lo}" if not lo.startswith("-") else f"x + {lo[1:]}",
         "-g", "x", "-g", "1 - x", "-d", "2", "--cert", str(cert)]
    )
    assert code == 0 and out == "valid"


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
]


@pytest.mark.parametrize("argv,message", BAD_JSON_ARGS)
def test_bad_json_matrices_and_vectors_exit_2(argv, message):
    assert run(argv) == (2, f"error: {message}")
    code, out = run(["--json"] + argv)
    assert code == 2 and json.loads(out) == {"error": message}


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
]


@pytest.mark.parametrize("argv,message", ARGUMENT_ERRORS)
def test_argument_errors_come_back_through_run(argv, message, capsys):
    assert run(argv) == (2, f"error: {message}")
    code, out = run(["--json"] + argv)
    assert code == 2 and json.loads(out) == {"error": message}
    assert capsys.readouterr() == ("", "")


def test_help_comes_back_through_run(capsys):
    code, out = run(["--help"])
    assert code == 0 and out.startswith("usage: ratsos")
    code, out = run(["count-roots", "-h"])
    assert code == 0 and out.startswith("usage: ratsos count-roots")
    assert capsys.readouterr() == ("", "")


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
    monkeypatch.setattr(sos, "gram_product", lambda gram, monomials: MPoly.zero(1))
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
#: instance with no interior, and two bisection bounds with their module
#: certificates.  Each certificate is a rounding of a float point, so any
#: move of the numeric phase or the rationalization shows up here.
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
     '"target": "x^2 - x*y + y^2 - x + 3/8"}, "certified": true, "exit": 0, "hi": "-1/4", "lo": "-3/8"}'),
    (["--json", "lasserre", "bound", "--poly=x^3 - x", "-d", "4", "--iterations=3", "--constraint=1 + x",
      "--constraint=1 - x"],
     '{"certificate": {"degree": 4, "sigmas": [{"terms": [{"poly": "-787/1550*x + 1", "weight": "31/142"}, '
     '{"poly": "x", "weight": "40931/11005000"}]}, {"terms": [{"poly": "-3763/2000*x + 1", "weight": '
     '"20/71"}, {"poly": "x", "weight": "561/200000"}]}, {"terms": []}], "target": "x^3 - x + 1/2"}, '
     '"certified": true, "exit": 0, "hi": "-3/8", "lo": "-1/2"}'),
]


@pytest.mark.parametrize("argv, expected", GOLDEN, ids=["gram-product", "boundary", "disk", "cubic"])
def test_golden_certificates(argv, expected):
    assert run(argv) == (0, expected)


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
