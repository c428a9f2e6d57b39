"""Exact computations over the rationals for real-root counting,
quadratic-form signatures, sums-of-squares certificates and moment
relaxations.

The package binds its modules only; every function and class is read from
the module that defines it (``from ratsos.sos import find_gram``).  The
exact core (``arith``, ``poly``, ``quadforms``, ``rootcount``) is imported
here.  The search layers ``conic``, ``lasserre``, ``numeric`` and ``sos``
are in ``sys.modules`` from the start, but their code runs at their first
attribute read, so a command that only counts roots or checks a matrix
never compiles or runs them.
"""

import importlib.util
import sys

from . import arith, poly, quadforms, rootcount

__version__ = "0.1.0"


def _lazy_import(name: str):
    """The module ``name`` from sys.modules, or one whose code runs at its first attribute read."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


conic, lasserre, numeric, sos = (_lazy_import(f"{__name__}.{m}")
                                 for m in ("conic", "lasserre", "numeric", "sos"))
