"""numpy is loaded by the float phases only, the search layers (conic,
lasserre, numeric, sos) by the commands that run them, and dataclasses and
inspect not at all: each case runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ratsos
from ratsos.cli import run

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: the modules ``ratsos`` registers to run at their first attribute read
LAZY = ["conic", "lasserre", "numeric", "sos"]

#: runs the commands of argv[1] (a JSON list of argument lists) through cli.run
#: and prints [exit codes, outputs, whether a numpy submodule is loaded, the
#: lazy ratsos modules that have executed]; a lazy module that has not is
#: still a ``importlib.util._LazyModule``, so its type is read, not an attribute
_COMMANDS = """
import json, sys, types
from ratsos import cli
results = [cli.run(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([[c for c, _ in results], [o for _, o in results],
                  any(m.startswith("numpy.") for m in sys.modules),
                  [m for m in %r if type(sys.modules.get("ratsos." + m)) is types.ModuleType]]))
""" % LAZY

SOS_FIND = ["sos", "find", "--poly", "2*x^4 + 5*y^4 - x^2*y^2 + 2*x^3*y"]
CASSELS = ["cassels", "--weights", "1,1", "--fs", "x^2+x,x^2-x", "--g", "x"]
LASSERRE_BOUND = ["lasserre", "bound", "--poly", "x^2 - x", "-g", "x", "-g", "1 - x", "-d", "2",
                  "--iterations", "3"]


def _fresh(code, *args, cwd):
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return proc.stdout


def _commands(commands, cwd, first=""):
    return json.loads(_fresh(first + _COMMANDS, json.dumps(commands), cwd=cwd))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding the module certificate that lasserre check reads,
    and the weighted squares that sos check reads."""
    path = tmp_path_factory.mktemp("startup")
    assert run([*LASSERRE_BOUND, "-o", str(path / "module.json")])[0] == 0
    assert run([*CASSELS, "-o", str(path / "cassels.json")])[0] == 0
    return path


def test_import_loads_no_numpy_module(workdir):
    code = "import sys, ratsos.cli; print(sorted(m for m in sys.modules if m.startswith('numpy.')))"
    assert _fresh(code, cwd=workdir) == "[]\n"


def test_import_loads_neither_dataclasses_nor_inspect(workdir):
    # against a snapshot taken before the import, since a site hook may load modules first
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import ratsos.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    assert _fresh(code, cwd=workdir) == "[]\n"


@pytest.mark.parametrize("commands, codes, loaded", [
    ([["count-roots", "--poly", "x^3-x"]], [0], False),
    ([["count-with-signs", "--poly", "x^3-x", "-g", "x"]], [0], False),
    ([["psd-check", "--matrix", "[[1,2],[2,1]]"]], [1], False),
    ([["cassels", "--weights", "1,1", "--fs", "x^2+x,x^2-x", "--g", "x", "-o", "squares.json"],
      ["sos", "check", "--cert", "squares.json", "--poly", "2*x^2 + 2"]], [0, 0], False),
    ([["lasserre", "check", "--poly", "x^2 - x + 1/4", "-g", "x", "-g", "1 - x", "-d", "2",
       "--cert", "module.json"]], [0], False),
    ([["lasserre", "build", "-n", "2", "-d", "4", "-g", "1 - x + y", "-g", "1 - x^4 - y^4"]], [0], False),
    ([SOS_FIND], [0], True),
    ([LASSERRE_BOUND], [0], True),
], ids=["count-roots", "count-with-signs", "psd-check", "sos-check", "lasserre-check", "lasserre-build",
        "sos-find", "lasserre-bound"])
def test_numpy_loads_with_the_first_float_phase(commands, codes, loaded, workdir):
    """The exact commands run no numpy code; sos find and lasserre bound do."""
    assert _commands(commands, workdir)[::2] == [codes, loaded]


def test_float_phases_do_not_depend_on_who_imports_numpy(workdir):
    """The same bytes whether numpy is first loaded by the search or imported before it."""
    lazy = _commands([SOS_FIND, LASSERRE_BOUND], workdir)
    eager = _commands([SOS_FIND, LASSERRE_BOUND], workdir, first="import numpy\n")
    assert lazy[0] == [0, 0] and lazy == eager


def test_project_psd_works_as_the_first_use_of_numpy(workdir):
    # a buffer, not an array, so that numpy's first use is the one inside project_psd
    code = ("from array import array\n"
            "from ratsos.numeric import project_psd\n"
            "a = memoryview(array('d', [1, 0, 0, -2])).cast('B').cast('d', (2, 2))\n"
            "print(project_psd(a).tolist())")
    assert _fresh(code, cwd=workdir) == "[[1.0, 0.0], [0.0, 0.0]]\n"


MATRIX = ["--matrix", "[[1,2],[2,1]]"]


@pytest.mark.parametrize("argv, code, executed", [
    (None, None, []),
    (["count-roots", "--poly", "x^3-x"], 0, []),
    (["count-with-signs", "--poly", "x^3-x", "-g", "x"], 0, []),
    (["decide-strict", "-g", "x", "-g", "1-x"], 0, []),
    (["descartes", "--poly", "x^3-x"], 0, []),
    (["signature", *MATRIX], 0, []),
    (["diagonalize", *MATRIX], 0, []),
    (["psd-check", *MATRIX], 1, []),
    (["conic", "--vectors", "[[1,0],[0,1]]", "--target", "[1,1]"], 0, ["conic"]),
    (["lin-nns", "--poly", "1 - x", "-l", "x", "-l", "1 - x"], 0, ["conic"]),
    (["newton", "--poly", "x^4 + y^2"], 0, ["conic"]),
    (CASSELS, 0, ["conic", "numeric", "sos"]),
    (["sos", "check", "--cert", "cassels.json", "--poly", "2*x^2 + 2"], 0, ["conic", "numeric", "sos"]),
    (SOS_FIND, 0, ["conic", "numeric", "sos"]),
    (["lasserre", "build", "-n", "1", "-d", "2", "-g", "1 - x^2"], 0, LAZY),
    (["lasserre", "check", "--poly", "x^2 - x + 1/4", "-g", "x", "-g", "1 - x", "-d", "2", "--cert",
      "module.json"], 0, LAZY),
    (LASSERRE_BOUND, 0, LAZY),
], ids=["import", "count-roots", "count-with-signs", "decide-strict", "descartes", "signature", "diagonalize",
        "psd-check", "conic", "lin-nns", "newton", "cassels", "sos-check", "sos-find", "lasserre-build",
        "lasserre-check", "lasserre-bound"])
def test_search_layers_run_at_their_first_use(argv, code, executed, workdir):
    """``import ratsos.cli`` and the exact commands run no search layer; a
    command runs the layers it calls, sos and lasserre with what they import."""
    codes, _, _, loaded = _commands([] if argv is None else [argv], workdir)
    assert codes == ([] if argv is None else [code]) and loaded == executed


def test_import_registers_every_search_layer(workdir):
    code = ("import sys, types, ratsos\n"
            f"names = ['ratsos.' + m for m in {LAZY!r}]\n"
            "print([n in sys.modules for n in names], [type(sys.modules[n]) is types.ModuleType for n in names])")
    assert _fresh(code, cwd=workdir) == f"{[True] * 4} {[False] * 4}\n"


#: the names ``ratsos`` has always exported from its search layers
SEARCH_NAMES = {
    "conic": ["ConicCombination", "EmptyFeasibleSet", "LinearCertificate", "LinearWitness",
            "SeparatingFunctional", "cone_contains", "conic_representation", "convex_membership",
            "linear_nns", "newton_halved_lattice"],
    "lasserre": ["BisectResult", "LasserreRelaxation", "build_relaxation", "emit_sdpa",
               "lower_bound_bisect", "module_cert_search", "monomials_upto", "verify_module_membership"],
    "sos": ["GramFamily", "Search", "VerifyResult", "cassels_descent", "find_gram", "gram_family", "search",
          "verify_sos"],
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in SEARCH_NAMES.items() for n in names])
def test_a_search_name_is_its_modules_object(module, name):
    """``ratsos.name`` and ``from ratsos import name`` give the module's own object,
    and ``dir(ratsos)`` lists the name."""
    own = getattr(sys.modules["ratsos." + module], name)
    assert getattr(ratsos, name) is own and getattr(__import__("ratsos", fromlist=[name]), name) is own
    assert name in dir(ratsos)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'ratsos' has no attribute 'no_such_name'$"):
        ratsos.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from ratsos import no_such_name  # noqa: F401
