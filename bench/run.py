"""The ratsos benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload roots --seed 1 --seconds 12 --trace 0

Run from the repository root.  The program under test is ``src/ratsos``,
driven in-process through its CLI entry point ``ratsos.cli.run(argv)`` by a
worker process (bench/worker.py), as a closed loop with one client.  This
parent process never imports the program: it draws the instances from the
seed (bench/workloads.py), measures set-up time with fresh interpreters,
checks every answer against the oracle built with the instance, and prints a
summary followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics; with ``--trace 1``
the worker records spans around the program's layers (bench/spans.py) and the
metrics are the per-layer ones.  Full results, with the machine and the
Python and numpy versions, go to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

import calib  # noqa: E402
import workloads  # noqa: E402

#: a run must end well within the 180 s every run is allowed
DEADLINE_S = 170.0
SETUP_REPEATS = 5
#: Set-up time is calibrated against fresh interpreters that import only
#: numpy, the program's one dependency, started in turn with the set-ups:
#: starting and loading slow down together when the machine does, which the
#: reference kernel of calib.py, pure computation, does not follow.  Single
#: starts vary by up to 2x with no relation to their neighbours, so the
#: ratio is taken between the two medians.  Over groups of 5 set-ups, the
#: quartile spread was 0.15 raw and 0.08 against this reference (2-core Xeon
#: VM).
SETUP_REFERENCE = "import numpy"
#: calibrated set-up times are seconds on a machine where the reference takes this long
SETUP_NOMINAL_S = 0.2
#: calibrated latencies and throughput above this share of CPU time in the
#: kernel are refused: something kept running beside it and slowed it down
MAX_BUSY_RATIO = 1.2
EXIT_CODES = range(0, 4)


def child_env() -> dict:
    """Environment of every child: the program on the path, one BLAS/OpenMP thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def time_to_ready(code: str, env) -> float:
    """Time from starting a fresh interpreter until it has run ``code``.

    The child reports readiness on a pipe; a blocking read stops the clock
    (waiting on the exit with a timeout would poll, in steps of up to 50 ms).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", f"{code}; print('ready')"],
                            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    ready = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or ready.strip() != "ready":
        raise RuntimeError(f"a fresh interpreter could not run {code!r}")
    return elapsed


def measure_setup(env) -> tuple[list[float], list[float]]:
    """Set-up times, and those of reference interpreters started in turn with them."""
    setup, reference = [], []
    for _ in range(SETUP_REPEATS):
        reference.append(time_to_ready(SETUP_REFERENCE, env))
        setup.append(time_to_ready("import ratsos.cli", env))
    return setup, reference


def run_worker(job: dict, workdir: str, env, timeout: float) -> dict:
    job_path = os.path.join(workdir, "job.json")
    result_path = os.path.join(workdir, "result.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), job_path,
                             result_path], env=env, cwd=ROOT)
    try:
        proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    with open(result_path) as fh:
        return json.load(fh)


def judge(inst: dict, rec: dict) -> tuple[str | None, bool, float | None]:
    """(why it failed or None, certified, bound slack) for one answer against its oracle."""
    if rec["error"] is not None:
        return "traceback: " + rec["error"].strip().splitlines()[-1], False, None
    if rec["exit"] not in EXIT_CODES:
        return f"exit {rec['exit']}", False, None
    try:
        payload = json.loads(rec["out"])
    except ValueError:
        return "output is not JSON", False, None
    expect = inst["expect"]
    slack = None
    if "bound" in expect:  # bisect: exit 3 is allowed; a certified lo must be a lower bound
        if rec["exit"] == 3:
            return None, False, None
        try:
            lo = Fraction(payload["lo"]) if rec["exit"] == 0 and payload["certified"] else None
        except (KeyError, TypeError, ValueError):
            lo = None
        if lo is None:
            return f"exit {rec['exit']} without a certified bound", False, None
        minimum = tuple(Fraction(x) for x in expect["bound"])
        if not workloads.lower_bound_ok(lo, minimum):
            return f"lo={lo} exceeds the known minimum", False, None
        slack = workloads.bound_slack(lo, minimum)
    else:
        for key, want in expect.items():
            got = rec["exit"] if key == "exit" else payload.get(key)
            if got != want:
                return f"{key}: expected {want!r}, got {got!r}", False, None
    if rec.get("recheck"):
        return rec["recheck"], False, None
    return None, True, slack


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, int(-(-q * len(ordered) // 100)) - 1))]


def environment(numpy_version) -> dict:
    return {"machine": platform.machine(), "platform": platform.platform(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy_version}


#: the end-to-end metrics every workload reports in the result line; the
#: others are printed in the summary only, because they can be 0 or undefined
END_TO_END_REPORTED = ("setup_s", "throughput_ips", "latency_gmean_ms", "certified_ratio",
                       "peak_rss_mb")


def layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat == "self_s":
        return "s"
    if stat.endswith("ratio"):
        return "ratio"
    if stat == "bound_slack":
        return "1"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few small instances per workload (smoke test)")
    ap.add_argument("--corrupt-oracle", action="store_true",
                    help="flip one expectation (smoke test: the run must report a failure)")
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "ratsos", "cli.py")):
        print(f"error: the program is missing: no {os.path.join('src', 'ratsos', 'cli.py')} "
              f"under {ROOT}", file=sys.stderr)
        return 2

    env = child_env()
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(RESULTS, f"work-{tag}-{os.getpid()}")
    os.makedirs(os.path.join(workdir, "warmup"))
    try:
        setup, setup_ref = ([], []) if args.trace else measure_setup(env)
        instances = workloads.instances(args.workload, args.seed, workdir, tiny=args.tiny)
        warmup = workloads.instances(args.workload, args.seed, os.path.join(workdir, "warmup"),
                                     tiny=True)
        if args.corrupt_oracle:
            expect = instances[0]["expect"]
            if "bound" in expect:
                expect["bound"] = ["-1000", "0"]
            else:
                expect["exit"] = 99
        job = {"workload": args.workload, "instances": instances, "warmup": warmup,
               "seconds": args.seconds, "trace": args.trace,
               "trace_out": os.path.join(RESULTS, f"spans-{args.workload}.npz")}
        timeout = DEADLINE_S - (time.perf_counter() - started)
        result = run_worker(job, workdir, env, timeout)
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = result["records"]
    attempted = len(records)
    failures = []
    certified = 0
    slack = []
    for rec in records:
        inst = instances[rec["index"]]
        why, cert, bound_slack = judge(inst, rec)
        if why is not None:
            failures.append(f"{inst['shape']}: {why}")
        certified += cert
        if bound_slack is not None:
            slack.append(bound_slack)

    # one latency per visit of an instance: the median of its block of calls
    blocks = {}
    for rec in records:
        blocks.setdefault(rec["block"], []).append(rec["latency_s"] * 1000.0)
    latencies_ms = [statistics.median(v) for v in blocks.values()]
    n = len(latencies_ms)
    end_to_end = {
        "latency_p50_ms": (statistics.median(latencies_ms), "ms"),
        "latency_p90_ms": (percentile(latencies_ms, 90) if n >= 100 else None, "ms"),
        "certified_ratio": (certified / attempted, "ratio"),
        "error_ratio": (len(failures) / attempted, "ratio"),
        "bound_slack": (statistics.fmean(slack) if slack else None, "1"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
    }
    notes = {
        "latency_p90_ms": f"{n} samples" if n >= 100 else f"n/a: needs >= 100 samples, run has {n}",
        "certified_ratio": f"{certified}/{attempted}",
        "error_ratio": f"{len(failures)}/{attempted}",
        "bound_slack": f"mean over {len(slack)} certified bisect instances" if slack
        else "n/a: bisect only, no certified bound in this run",
    }
    if not args.trace:
        # times corrected for the machine's speed (bench/calib.py); each instance
        # counts once, by its median, whatever share of a pass ran
        kernel = result["kernel"]
        ref_s = calib.typical(kernel["wall"])
        scope, exponent = workloads.CALIBRATION[args.workload]
        raw, cal = {}, {}
        for rec in records:
            ref = calib.around(kernel, rec["block"]) if scope == "visit" else ref_s
            raw.setdefault(rec["index"], []).append(rec["latency_s"])
            cal.setdefault(rec["index"], []).append(
                calib.calibrate(rec["latency_s"], ref, exponent))
        raw_s = [statistics.median(v) for v in raw.values()]
        cal_s = [statistics.median(v) for v in cal.values()]
        end_to_end = {
            "setup_s": (statistics.median(setup) / statistics.median(setup_ref)
                        * SETUP_NOMINAL_S, "s"),
            "throughput_ips": (len(cal_s) / sum(cal_s), "instances/s"),
            "latency_gmean_ms": (statistics.geometric_mean(cal_s) * 1000.0, "ms"),
            **end_to_end,
            "throughput_raw_ips": (len(raw_s) / sum(raw_s), "instances/s"),
            "setup_raw_s": (statistics.median(setup), "s"),
            "setup_ref_s": (statistics.median(setup_ref), "s"),
            "ref_kernel_ms": (ref_s * 1000.0, "ms"),
            "ref_busy_ratio": (result["ref_busy_ratio"], "ratio"),
        }
        notes.update({
            "setup_s": f"calibrated, median of {SETUP_REPEATS} fresh interpreters against "
                       f"the reference ({SETUP_NOMINAL_S:g} s nominal)",
            "throughput_ips": f"calibrated per {scope}, exponent {exponent:g}; a pass over "
                              f"the sum of per-instance medians",
            "latency_gmean_ms": f"calibrated, geometric mean over {len(cal_s)} instances "
                                f"of each one's median",
            "throughput_raw_ips": "raw",
            "latency_p50_ms": "raw",
            "setup_raw_s": "raw",
            "setup_ref_s": f"fresh interpreters running {SETUP_REFERENCE!r}",
            "ref_kernel_ms": f"middle half of {len(result['kernel']['wall'])} calls; "
                             f"{calib.NOMINAL_S * 1000:g} ms is nominal speed",
            "ref_busy_ratio": f"process CPU over wall time in the kernel; "
                              f"above {MAX_BUSY_RATIO} is refused",
        })
        if result["ref_busy_ratio"] > MAX_BUSY_RATIO:
            failures.append(f"calibration: the process used {result['ref_busy_ratio']:.2f} "
                            f"CPU seconds per second while the reference kernel ran; "
                            f"something kept running beside it")
    env_record = environment(result["numpy"])
    correct = not failures

    print(f"ratsos benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} instances/pass={len(instances)} "
          f"passes={result['passes']} visits={n} calls={attempted}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env_record.items()))
    for why in failures[:20]:
        print(f"FAILED {why}")
    if args.trace:
        # timings of a traced run are not end-to-end metrics; print the outcome only
        shown = {k: end_to_end[k] for k in ("certified_ratio", "error_ratio", "bound_slack")}
    else:
        shown = end_to_end
    for name, (value, unit) in shown.items():
        text = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<18} {text:>12} {unit:<12} {notes.get(name, '')}")

    if args.trace:
        problems = result["map_problems"]
        for p in problems:
            print(f"INTERACTION MAP VIOLATED {p}")
        print(f"interaction map: {'ok' if not problems else 'VIOLATED'}; "
              f"{result['spans']} spans written to {os.path.relpath(job['trace_out'], ROOT)}")
        correct = correct and not problems
        layer = dict(result["layer_metrics"])
        layer["lasserre.lower_bound_bisect.bound_slack"] = (
            statistics.fmean(slack) if slack else 0.0)
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in sorted(layer.items())}
        top = sorted((k for k in layer if k.endswith(".self_s")), key=layer.get, reverse=True)
        for name in top[:8]:
            print(f"  {name:<48} {layer[name]:>10.4f} s per pass")
        print(f"  {'trace.overhead_ratio':<48} {layer['trace.overhead_ratio']:>10.4f}")
    else:
        metrics = {name: {"value": end_to_end[name][0], "unit": end_to_end[name][1]}
                   for name in END_TO_END_REPORTED}

    with open(os.path.join(RESULTS, f"{tag}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": env_record, "setup_runs_s": setup,
                   "setup_reference_s": setup_ref,
                   "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
                   "metrics": metrics, "failures": failures, "passes": result["passes"],
                   "latencies_ms": latencies_ms,
                   "records": [{k: rec[k] for k in ("index", "block", "latency_s")}
                               for rec in records],
                   "kernel": result.get("kernel"),
                   "shapes": [inst["shape"] for inst in instances]}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
