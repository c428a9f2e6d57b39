"""The benchmark traces library functions by name (bench/spans.py); a renamed
or deleted one makes its tracer fail to install, and a changed result shape
makes its readings wrong.  These fast checks run the install and removal,
and one traced command, without running the benchmark."""

import importlib.util
from pathlib import Path

import ratsos
from ratsos import cli, sos
from ratsos.cli import run

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_bench_tracer_installs_and_removes():
    spans = _load_spans()
    original = sos.gram_family
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert sos.gram_family is not original and ratsos.gram_family is not original
    finally:
        tracer.remove()
    assert sos.gram_family is original and ratsos.gram_family is original


def test_bench_reads_the_numeric_phase():
    """The bench counts affine projections and reads the converged flag as the
    third item of alternating_projection's result; one traced sos find must
    show both, and no call of the traced eigensolver name, since the
    projections call LAPACK eigh directly."""
    spans = _load_spans()
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert run(["sos", "find", "--poly", "2*x^4 + 5*y^4 - x^2*y^2 + 2*x^3*y"])[0] == 0
    finally:
        tracer.remove()
    metrics, calls = spans.layer_metrics(tracer.spans(), 1)
    assert metrics["numeric.AffineFamily.project.calls"] > 0
    assert metrics["numeric.alternating_projection.converged_ratio"] == 1.0
    assert calls["numeric.jacobi_eigh"] == 0


def test_bench_bisect_keeps_its_interaction_map():
    """Every bisection level is an exact module search, so one traced
    lasserre bound calls each layer the bisect workload marks busy (exact
    psd checks included) and none it marks idle; the traced eigensolver name
    reads 0 calls, as in sos find."""
    spans = _load_spans()
    tracer = spans.Tracer()
    try:
        tracer.install()
        argv = ["lasserre", "bound", "--poly", "x^2 - x", "-g", "x", "-g", "1 - x", "-d", "2", "--iterations", "3"]
        assert cli.run(argv) == (0, "lo=-1/4 certified=true")  # the traced binding
    finally:
        tracer.remove()
    _, calls = spans.layer_metrics(tracer.spans(), 1)
    assert spans.check_interaction_map("bisect", calls) == []
    assert calls["numeric.jacobi_eigh"] == 0


def test_bench_traces_the_univariate_products_and_divisions():
    """count-with-signs multiplies the conditions and reduces them mod f
    through the UPoly class entries the bench traces, so a univariate
    product or division that bypassed them fails here instead of reading 0
    as a per-layer metric."""
    spans = _load_spans()
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert cli.run(["count-with-signs", "--poly", "x^3-x", "-g", "x", "-g", "x+1"]) == (0, "count=1")
    finally:
        tracer.remove()
    _, calls = spans.layer_metrics(tracer.spans(), 1)
    assert calls["poly.UPoly.mul"] > 0 and calls["poly.UPoly.divmod"] > 0
    assert spans.check_interaction_map("roots", calls) == []
