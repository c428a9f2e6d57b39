"""Span tracing of the program's layers, installed from outside the program.

Each traced function is replaced, at every module binding and class
attribute that refers to it, by a wrapper that records one span: name,
parent span, start, end and one number read from the arguments or the
result (a size, or an outcome flag).  Spans are kept in flat arrays in
memory, written out once at the end, and per-layer metrics are computed from
them: a span's self time is its duration minus the durations of its child
spans (calls are synchronous, so children never overlap).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

_STATUS = {"found": 1.0, "infeasible": 2.0, "unknown": 3.0}


def _status(result):
    return _STATUS.get(result.status, 0.0)


#: (module, attribute path, span name, per-pass stats, value read from (args, result))
#: ``*_sum`` stats add up the value; flag values (0/1 or a status code) feed the ratios.
TARGETS = [
    ("ratsos.cli", "run", "cli.run", ("calls", "self_s"), None),
    ("ratsos.poly", "parse_poly", "poly.parse_poly", ("self_s",), None),
    ("ratsos.poly", "MPoly.__mul__", "poly.MPoly.mul", ("calls", "self_s"), None),
    ("ratsos.poly", "UPoly.__mul__", "poly.UPoly.mul", ("self_s",), None),
    ("ratsos.poly", "UPoly.__divmod__", "poly.UPoly.divmod", ("self_s",), None),
    ("ratsos.rootcount", "hermite_form", "rootcount.hermite_form",
     ("calls", "self_s", "dim_sum"), lambda a, r: r.matrix.dim),
    ("ratsos.quadforms", "diagonalize", "quadforms.diagonalize",
     ("calls", "self_s", "dim_sum"), lambda a, r: a[0].dim),
    ("ratsos.quadforms", "is_psd", "quadforms.is_psd", ("calls", "self_s"),
     lambda a, r: float(r)),
    ("ratsos.quadforms", "gram_product", "quadforms.gram_product", ("self_s",), None),
    ("ratsos.quadforms", "weighted_square_decomposition",
     "quadforms.weighted_square_decomposition", ("self_s",), None),
    ("ratsos.arith", "charpoly", "arith.charpoly", ("calls", "self_s", "dim_sum"),
     lambda a, r: a[0].nrows),
    ("ratsos.arith", "affine_solution_set", "arith.affine_solution_set",
     ("calls", "self_s", "unknowns_sum"), lambda a, r: a[0].ncols),
    ("ratsos.arith", "solve_linear", "arith.solve_linear", ("calls", "self_s"), None),
    ("ratsos.conic", "newton_halved_lattice", "conic.newton_halved_lattice",
     ("calls", "self_s"), None),
    ("ratsos.conic", "convex_membership", "conic.convex_membership", ("calls", "self_s"),
     lambda a, r: float(r)),
    ("ratsos.sos", "find_gram", "sos.find_gram", ("calls", "self_s"), lambda a, r: _status(r)),
    ("ratsos.sos", "gram_family", "sos.gram_family", ("self_s",), None),
    ("ratsos.sos", "verify_sos", "sos.verify_sos", ("self_s",), None),
    ("ratsos.numeric", "alternating_projection", "numeric.alternating_projection",
     ("calls", "self_s"), lambda a, r: float(bool(r[2]))),
    ("ratsos.numeric", "jacobi_eigh", "numeric.jacobi_eigh", ("calls", "self_s"), None),
    ("ratsos.numeric", "AffineFamily.project", "numeric.AffineFamily.project",
     ("calls", "self_s"), None),
    ("ratsos.lasserre", "lower_bound_bisect", "lasserre.lower_bound_bisect", ("self_s",),
     lambda a, r: float(r.certified)),
    ("ratsos.lasserre", "module_cert_search", "lasserre.module_cert_search",
     ("calls", "self_s"), lambda a, r: _status(r)),
    ("ratsos.lasserre", "verify_module_membership", "lasserre.verify_module_membership",
     ("self_s",), None),
]

#: (metric, span name, value counted as a hit) for the ratio stats
RATIOS = [
    ("quadforms.is_psd.accept_ratio", "quadforms.is_psd", 1.0),
    ("conic.convex_membership.true_ratio", "conic.convex_membership", 1.0),
    ("sos.find_gram.found_ratio", "sos.find_gram", _STATUS["found"]),
    ("sos.find_gram.unknown_ratio", "sos.find_gram", _STATUS["unknown"]),
    ("numeric.alternating_projection.converged_ratio", "numeric.alternating_projection", 1.0),
    ("lasserre.lower_bound_bisect.certified_ratio", "lasserre.lower_bound_bisect", 1.0),
    ("lasserre.module_cert_search.found_ratio", "lasserre.module_cert_search",
     _STATUS["found"]),
    ("lasserre.module_cert_search.unknown_ratio", "lasserre.module_cert_search",
     _STATUS["unknown"]),
]

#: Which layers each workload must call (nonzero) and must leave idle (zero),
#: written down before measuring.  A renamed or re-bound function then shows
#: up as a failed check instead of as zero cost.
INTERACTION_MAP = {
    "roots": {"busy": ["cli", "poly", "quadforms", "rootcount"],
              "idle": ["numeric", "conic", "sos", "lasserre", "quadforms.is_psd"]},
    "sos": {"busy": ["cli", "poly", "arith", "quadforms", "conic", "sos", "numeric"],
            "idle": ["rootcount", "lasserre"]},
    "bisect": {"busy": ["cli", "poly", "arith", "quadforms", "numeric", "lasserre"],
               "idle": ["rootcount", "conic"]},
    "verify": {"busy": ["cli", "poly", "arith", "quadforms", "sos", "lasserre"],
               "idle": ["numeric", "rootcount", "conic"]},
}


class Tracer:
    """Installs span-recording wrappers; remove() restores the originals."""

    def __init__(self):
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._stack = [-1]
        self._restore = []

    def _wrap(self, fn, name_id, extract):
        name_id_arr, parent, start, end, value = (
            self.name_id, self.parent, self.start, self.end, self.value)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(start)
            name_id_arr.append(name_id)
            parent.append(stack[-1])
            value.append(0.0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if extract is not None:
                value[idx] = extract(args, result)
            return result

        return span

    def install(self):
        """Wrap every target at every binding; raises if a target no longer exists."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ratsos" or n.startswith("ratsos."))]
        for name_id, (modname, path, _, _, extract) in enumerate(TARGETS):
            home = sys.modules[modname]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                wrapper = self._wrap(original, name_id, extract)
                for alias, value in list(cls.__dict__.items()):
                    if value is original:
                        self._restore.append((cls, alias, original))
                        setattr(cls, alias, wrapper)
                continue
            original = getattr(home, path)
            wrapper = self._wrap(original, name_id, extract)
            for module in modules:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, alias, original))
                        setattr(module, alias, wrapper)

    def remove(self):
        for owner, alias, original in reversed(self._restore):
            setattr(owner, alias, original)
        self._restore.clear()

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "value": np.frombuffer(self.value, dtype=np.float64).copy(),
        }

    def save(self, path: str):
        np.savez(path, names=np.array([t[2] for t in TARGETS]), **self.spans())


def layer_metrics(spans: dict[str, np.ndarray], passes: int):
    """Per-layer metrics from the spans, and the call count of every traced function.

    ``calls``, ``self_s`` and the ``*_sum`` stats are per pass of the
    workload; ratios are over all calls.
    """
    nid, parent, value = spans["name_id"], spans["parent"], spans["value"]
    dur = spans["end"] - spans["start"]
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    masks = {target[2]: nid == k for k, target in enumerate(TARGETS)}
    calls = {name: int(mask.sum()) for name, mask in masks.items()}
    m = {}
    for _, _, name, stats, _ in TARGETS:
        mask = masks[name]
        for stat in stats:
            total = {"calls": calls[name], "self_s": self_time[mask].sum()}.get(
                stat, value[mask].sum())
            m[f"{name}.{stat}"] = float(total) / passes
    for metric, name, hit in RATIOS:
        n = calls[name]
        m[metric] = float(np.count_nonzero(value[masks[name]] == hit)) / n if n else 0.0

    # the rationalization ladder: is_psd calls made directly by find_gram
    find_ids = np.flatnonzero(masks["sos.find_gram"])
    attempts = int(np.isin(parent[masks["quadforms.is_psd"]], find_ids).sum())
    found = int(np.count_nonzero(value[masks["sos.find_gram"]] == _STATUS["found"]))
    m["sos.ladder.attempts"] = attempts / passes
    m["sos.ladder.useful_ratio"] = found / attempts if attempts else 0.0
    return m, calls


def check_interaction_map(workload: str, calls: dict[str, int]) -> list[str]:
    """Violations of the interaction map: busy layers with no call, idle ones with calls."""
    def count(prefix):
        return sum(n for name, n in calls.items()
                   if name == prefix or name.startswith(prefix + "."))

    expected = INTERACTION_MAP[workload]
    problems = [f"{layer}: expected calls on {workload}, recorded none"
                for layer in expected["busy"] if count(layer) == 0]
    problems += [f"{layer}: expected idle on {workload}, recorded {count(layer)} calls"
                 for layer in expected["idle"] if count(layer) != 0]
    return problems
