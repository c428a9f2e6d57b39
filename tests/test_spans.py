"""The benchmark traces library functions by name (bench/spans.py); a renamed
or deleted one makes its tracer fail to install.  This fast check runs the
install and removal without running the benchmark."""

import importlib.util
from pathlib import Path

import ratsos
from ratsos import sos

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_bench_tracer_installs_and_removes():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    original = sos.gram_family
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert sos.gram_family is not original and ratsos.gram_family is not original
    finally:
        tracer.remove()
    assert sos.gram_family is original and ratsos.gram_family is original
