"""Benchmark worker: runs one workload in-process through ``ratsos.cli.run``.

Usage: python3 bench/worker.py JOB.json RESULT.json

The job holds the instance list of one pass, a few small warm-up instances
run before any timing, the run length and the trace flag.  The worker runs
the passes in a closed loop with one client until the run length has
elapsed, timing each call into ``run()``.  Untraced, it also times a fixed
reference kernel (bench/calib.py) between the calls, so that the parent can
correct the times for the machine's speed during the run.  After the timed
region it re-checks every certificate the program printed with the
program's own exact verifiers, and writes everything to RESULT.json for the
parent to check against the oracles.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction

#: reference-kernel calls timed between two blocks: at least REF_SAMPLES, one
#: per REF_EVERY_S of the block before, at most REF_MAX
REF_SAMPLES = 3
REF_EVERY_S = 0.5
REF_MAX = 25
#: an untraced run repeats each instance until it has taken this long
MIN_BLOCK_S = 0.25


def call(cli, argv):
    """One timed call into run(); a raised exception is recorded, not propagated."""
    t0 = time.perf_counter()
    try:
        code, out = cli.run(argv)
        err = None
    except Exception:  # noqa: BLE001 - a traceback is a failed instance, not a crash
        code, out, err = None, "", traceback.format_exc(limit=8)
    return time.perf_counter() - t0, code, out, err


def closed_loop(cli, instances, seconds, calibrator=None, min_block_s=0.0):
    """Blocks of calls in pass order until ``seconds`` have elapsed and one pass is complete.

    A block repeats one instance until it has taken ``min_block_s`` (at
    least one call), so that short instances get enough samples for a
    steady median.  Returns (records, complete passes), one record per
    call.  With ``min_block_s`` 0 the run stops at the end of a pass; else
    it may stop inside one, and the parent summarises each instance by its
    own median rather than by the mix of calls that fit in the run.  With a
    calibrator, reference-kernel calls are timed before each block and after
    the last one: ``REF_SAMPLES``, or one per ``REF_EVERY_S`` of the block
    before if that is more, so that long blocks do not leave the machine's
    speed unsampled for long.
    """
    records = []
    blocks = 0
    spent = 0.0
    start = time.perf_counter()
    while (blocks < len(instances) or time.perf_counter() - start < seconds
           or (not min_block_s and blocks % len(instances))):
        k = blocks % len(instances)
        if calibrator is not None:
            calibrator.sample(ref_count(spent))
        spent = 0.0
        while True:
            latency, code, out, err = call(cli, instances[k]["argv"])
            records.append({"index": k, "block": blocks, "latency_s": latency, "exit": code,
                            "out": out, "error": err})
            spent += latency
            if spent >= min_block_s:
                break
        blocks += 1
    if calibrator is not None:
        calibrator.sample(ref_count(spent))
    return records, blocks // len(instances)


def ref_count(block_s):
    return min(REF_MAX, max(REF_SAMPLES, round(block_s / REF_EVERY_S)))


def recheck(inst, out):
    """Exact re-check of a printed certificate; returns None when it holds, else a reason."""
    from ratsos.lasserre import module_cert_from_json, verify_module_membership
    from ratsos.poly import parse_poly
    from ratsos.sos import cert_from_json, verify_sos

    spec = inst["recheck"]
    payload = json.loads(out)
    if spec["kind"] == "sos":
        f = parse_poly(spec["poly"])
        cert, _ = cert_from_json(payload["certificate"], f.nvars)
        verdict = verify_sos(f, cert)
    else:
        texts = [spec["poly"]] + spec["constraints"]
        nvars = max(parse_poly(t).nvars for t in texts)
        target = parse_poly(spec["poly"], nvars) - Fraction(payload["lo"])
        gs = [parse_poly(g, nvars) for g in spec["constraints"]]
        cert = module_cert_from_json(payload["certificate"], nvars)
        verdict = verify_module_membership(target, gs, spec["degree"], cert)
    return None if verdict else f"re-check failed: {verdict.reason}"


def main(job_path, result_path):
    with open(job_path) as fh:
        job = json.load(fh)
    import numpy
    import ratsos.cli as cli
    instances, seconds = job["instances"], job["seconds"]
    result = {"numpy": numpy.__version__}
    # warm-up outside the timing: first calls pay for lazy imports and caches
    for inst in job["warmup"]:
        call(cli, inst["argv"])

    if job["trace"]:
        from spans import Tracer, check_interaction_map, layer_metrics

        tracer = Tracer()
        tracer.install()
        try:
            records, passes = closed_loop(cli, instances, seconds)
        finally:
            tracer.remove()
        spans = tracer.spans()
        metrics, calls = layer_metrics(spans, passes)
        tracer.save(job["trace_out"])
        # untraced replay of the last traced pass, cheapest instance first,
        # within the run length: tracing priced on the same work.  The
        # cheapest instance always runs; a dearer one only if its traced time
        # fits in what is left.
        last = sorted(records[-len(instances):], key=lambda rec: rec["latency_s"])
        traced_s = untraced_s = 0.0
        start = time.perf_counter()
        for rec in last:
            if traced_s and time.perf_counter() - start + rec["latency_s"] > seconds:
                break
            untraced_s += call(cli, instances[rec["index"]]["argv"])[0]
            traced_s += rec["latency_s"]
        metrics["trace.overhead_ratio"] = traced_s / untraced_s
        result.update(layer_metrics=metrics, calls=calls, spans=int(spans["start"].size),
                      map_problems=check_interaction_map(job["workload"], calls))
    else:
        from calib import Calibrator, kernel

        calibrator = Calibrator()
        for _ in range(REF_SAMPLES):
            kernel()  # warm the kernel itself, untimed
        records, passes = closed_loop(cli, instances, seconds, calibrator, MIN_BLOCK_S)
        result["ref_busy_ratio"] = calibrator.busy_ratio()
        result["kernel"] = {"wall": calibrator.wall, "batches": calibrator.batches}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # outside the timed region: re-check each distinct printed certificate once
    verdicts = {}
    for rec in records:
        inst = instances[rec["index"]]
        if inst.get("recheck") and rec["exit"] == 0 and rec["error"] is None:
            key = (rec["index"], rec["out"])
            if key not in verdicts:
                try:
                    verdicts[key] = recheck(inst, rec["out"])
                except Exception:  # noqa: BLE001 - an unreadable certificate fails the instance
                    verdicts[key] = "re-check raised: " + traceback.format_exc(limit=4)
            rec["recheck"] = verdicts[key]
    result.update(records=records, passes=passes)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    main(sys.argv[1], sys.argv[2])
