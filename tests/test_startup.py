"""numpy is loaded by the float phases only, and dataclasses and inspect not at
all: each case runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ratsos.cli import run

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: runs the commands of argv[1] (a JSON list of argument lists) through cli.run
#: and prints [exit codes, outputs, whether a numpy submodule is loaded]
_COMMANDS = """
import json, sys
from ratsos import cli
results = [cli.run(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([[c for c, _ in results], [o for _, o in results],
                  any(m.startswith("numpy.") for m in sys.modules)]))
"""

SOS_FIND = ["sos", "find", "--poly", "2*x^4 + 5*y^4 - x^2*y^2 + 2*x^3*y"]
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
    """A directory holding the module certificate that lasserre check reads."""
    path = tmp_path_factory.mktemp("startup")
    assert run([*LASSERRE_BOUND, "-o", str(path / "module.json")])[0] == 0
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
