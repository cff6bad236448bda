"""One benchmark run: repeat one workload for a fixed time and report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``ddfv`` from the
checkout's ``src/`` and fails without a result line when that is missing.
BLAS and OpenMP threads are pinned to 1 before numpy loads.

After one small untimed warm-up, repetitions run until the next one would
end past ``--seconds`` (at least three; four with tracing, alternating
untraced and traced).  Every repetition's outputs are checked against
``references.json`` and the acceptance gates.  Standard output holds an
environment record, one line per repetition and, last, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
repetitions); with ``--trace 1`` the per-layer ones, taken from the traced
repetitions, plus the tracing coverage and overhead.  The workloads have no
random input, so the seed is recorded and changes nothing.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from tracer import COUNTERS, Tracer, instrument  # noqa: E402

MIN_REPS = 3
MIN_REPS_TRACED = 4
MAX_SECONDS = 150.0    # stop starting repetitions well before the 180 s cap


def environment():
    import numpy
    import scipy

    sha = None            # the benchmark may run from a plain copy
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def repetition(fn, kwargs, traced):
    """Run the workload once; set-up entry points are always timed, the
    rest only when traced."""
    from ddfv.errors import DDFVError

    tracer = Tracer()
    error = None
    gc.collect()    # every repetition starts from the same collector state
    start = time.perf_counter()
    with instrument(tracer, full=traced):
        try:
            steps, outputs = fn(**kwargs)
        except DDFVError as exc:
            steps, outputs = 0, None
            error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    return tracer, wall, steps, outputs, error


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-references", action="store_true",
                        help="run once and store this workload's outputs "
                             "as the reference")
    args = parser.parse_args(argv)

    try:
        import ddfv
    except ImportError as exc:
        print(f"error: cannot import ddfv from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if Path(ddfv.__file__).resolve().parents[1] != ROOT / "src":
        print(f"error: ddfv imported from {ddfv.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    fn, warm_kwargs = workloads.WORKLOADS[args.workload]

    if args.record_references:
        refs = workloads.load_references()
        _, outputs = fn()
        refs[args.workload] = json.loads(json.dumps(outputs))
        workloads.REFERENCES.write_text(
            json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(json.dumps(refs[args.workload]))
        return 0

    print(json.dumps({"env": environment(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace}), flush=True)
    references = workloads.load_references()
    repetition(fn, warm_kwargs, traced=False)

    reps = []
    min_reps = MIN_REPS_TRACED if args.trace else MIN_REPS
    t0 = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        tracer, wall, steps, outputs, error = repetition(fn, {}, traced)
        problems = [error] if error else workloads.check(
            args.workload, outputs, references)
        rep = {"rep": len(reps), "traced": traced, "wall_s": wall,
               "setup_s": tracer.setup_s(), "steps": steps,
               "problems": problems}
        if traced:
            rep["layers"] = tracer.layer_metrics(wall)
            if not error and rep["layers"]["harness.steps"] != steps:
                problems.append("traced step count differs from the output")
        reps.append(rep)
        print(json.dumps(rep), flush=True)
        elapsed = time.perf_counter() - t0
        typical = statistics.median(r["wall_s"] for r in reps)
        if len(reps) >= min_reps and (elapsed + typical > args.seconds
                                      or elapsed > MAX_SECONDS):
            break

    if args.trace:
        metrics = layer_summary(reps)
    else:
        metrics = end_to_end(reps)
    failed = sum(1 for r in reps if r["problems"])
    print(json.dumps({"correct": failed == 0, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0


def end_to_end(reps):
    med = statistics.median
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": {"value": med(r["wall_s"] for r in reps), "unit": "s"},
        "setup_s": {"value": med(r["setup_s"] for r in reps), "unit": "s"},
        "steps_per_s": {
            "value": med(r["steps"] / (r["wall_s"] - r["setup_s"])
                         for r in reps),
            "unit": "1/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def layer_summary(reps):
    """Medians of the traced repetitions' layer metrics; counters that
    differ between traced repetitions mark the later one as failed."""
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    first = traced[0]["layers"]
    for r in traced[1:]:
        diff = [c for c in COUNTERS if r["layers"][c] != first[c]]
        if diff:
            r["problems"].append(f"counters differ between repetitions: {diff}")

    metrics = {}
    for name in first:
        if name in COUNTERS:
            metrics[name] = {"value": first[name], "unit": "count"}
            continue
        unit = ("ms" if "_ms_" in name else
                "ratio" if name == "trace.coverage" else "s")
        values = [r["layers"][name] for r in traced]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    overhead = (statistics.median(r["wall_s"] for r in traced)
                / statistics.median(r["wall_s"] for r in plain))
    metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
