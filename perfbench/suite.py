"""Run every workload several times, summarise, and compare two result sets.

    python3 perfbench/suite.py run --out .bench_results/A [--runs 10]
    python3 perfbench/suite.py summary .bench_results/A
    python3 perfbench/suite.py compare .bench_results/A .bench_results/B

``run`` starts ``run.py`` once per workload and seed without tracing, then
twice per workload with tracing, one process at a time, and keeps each
process's standard output under ``--out``.  It then prints the summary:
every end-to-end metric with its unit, median, quartiles and spread against
its bound, the failure fraction and whether every output matched the
references, then the per-layer medians and whether the counters of the
traced runs were identical.  ``compare`` prints, per workload and metric,
both medians and quartiles and whether the new median is within the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TRACED_RUNS = 2


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med


def worsening(metric, base, new):
    """Share by which ``new`` is worse than ``base`` (negative: better)."""
    if metric["better"] == "lower":
        return (new - base) / base
    return (base - new) / base


def load(out_dir):
    """{(workload, trace): [result, ...]} from one ``run`` directory."""
    results = {}
    for path in sorted(Path(out_dir).glob("*/trace*-seed*.out")):
        lines = path.read_text().splitlines()
        trace = int(path.name[len("trace")])
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
        if not isinstance(result, dict) or "metrics" not in result:
            result = None        # the run stopped before its result line
        results.setdefault((path.parent.name, trace), []).append(result)
    return results


def run(args):
    out = Path(args.out)
    names = [w["name"] for w in SPEC["workloads"]]
    plan = [(w, 0, s) for s in range(args.runs) for w in names]
    plan += [(w, 1, s) for s in range(TRACED_RUNS) for w in names]
    for w, trace, seed in plan:
        target = out / w / f"trace{trace}-seed{seed}.out"
        target.parent.mkdir(parents=True, exist_ok=True)
        cmd = SPEC["command"] + ["--workload", w, "--seed", str(seed),
                                 "--seconds", str(SPEC["run_seconds"]),
                                 "--trace", str(trace)]
        with open(target, "w") as stdout:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=stdout, timeout=300)
        print(f"{w} trace={trace} seed={seed}: exit {proc.returncode}",
              file=sys.stderr, flush=True)
    return summary(argparse.Namespace(dir=out))


def summary(args):
    results = load(args.dir)
    ok = True
    for w in sorted({w for w, _ in results}):
        plain = results.get((w, 0), [])
        traced = results.get((w, 1), [])
        done = [r for r in plain + traced if r is not None]
        attempted = sum(r["attempted"] for r in done)
        failed = sum(r["failed"] for r in done)
        crashed = len(plain) + len(traced) - len(done)
        correct = crashed == 0 and all(r["correct"] for r in done)
        ok &= correct
        print(f"\n{w}: {len(plain)} untraced + {len(traced)} traced runs, "
              f"repetitions {attempted}, failed {failed}, "
              f"fail_frac {failed / max(attempted, 1):.3g}, runs without "
              f"result {crashed}, outputs match references: "
              f"{'yes' if correct else 'NO'}")
        print(f"  {'metric':<28}{'unit':<7}{'median':>12}{'q1':>12}"
              f"{'q3':>12}{'spread':>9}{'bound':>7}")
        for m in SPEC["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"]
                      for r in plain if r is not None]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            flag = "" if spread(values) <= m["bound"] else "  > bound"
            print(f"  {m['name']:<28}{m['unit']:<7}{med:>12.5g}{q1:>12.5g}"
                  f"{q3:>12.5g}{spread(values):>9.3f}{m['bound']:>7}{flag}")
        layers = [r["metrics"] for r in traced if r is not None]
        if not layers:
            continue
        counters = [m["name"] for m in SPEC["per_layer"]
                    if m["unit"] == "count"]
        same = all(l[c]["value"] == layers[0][c]["value"]
                   for l in layers for c in counters)
        ok &= same
        print(f"  per layer (median of {len(layers)} traced runs), counters "
              f"identical across runs: {'yes' if same else 'NO'}")
        for m in SPEC["per_layer"]:
            med = statistics.median(l[m["name"]]["value"] for l in layers)
            print(f"  {m['name']:<28}{m['unit']:<7}{med:>12.5g}")
    return 0 if ok else 1


def fmt(q):
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def compare(args):
    base, new = load(args.base), load(args.new)
    print(f"{'workload':<20}{'metric':<14}{'unit':<6}{'base median [q1, q3]':>32}"
          f"{'new median [q1, q3]':>32}{'worse':>8}{'bound':>7}  verdict")
    ok = True
    for w in sorted({w for w, t in base if t == 0}):
        for m in SPEC["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"]
                 for r in base.get((w, 0), []) if r is not None]
            b = [r["metrics"][m["name"]]["value"]
                 for r in new.get((w, 0), []) if r is not None]
            if not a or not b:
                print(f"{w:<20}{m['name']:<14}missing runs")
                ok = False
                continue
            qa, qb = quartiles(a), quartiles(b)
            worse = worsening(m, qa[1], qb[1])
            verdict = "within bound" if worse <= m["bound"] else "WORSE"
            if spread(a) > m["bound"]:
                wins = all(worsening(m, x, y) < 0 for x in a for y in b)
                verdict = "better in every pair" if wins else "unresolved"
            ok &= verdict != "WORSE"
            print(f"{w:<20}{m['name']:<14}{m['unit']:<6}{fmt(qa):>32}"
                  f"{fmt(qb):>32}{worse:>8.1%}{m['bound']:>7}  {verdict}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run", help="run all workloads and summarise")
    p_run.add_argument("--out", required=True, help="directory for results")
    p_run.add_argument("--runs", type=int, default=10,
                       help="untraced runs per workload, one seed each")
    p_sum = sub.add_parser("summary", help="summarise a result directory")
    p_sum.add_argument("dir")
    p_cmp = sub.add_parser("compare", help="compare two result directories")
    p_cmp.add_argument("base")
    p_cmp.add_argument("new")
    args = parser.parse_args(argv)
    return {"run": run, "summary": summary, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
