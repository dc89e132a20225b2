"""Run-to-run spread of the benchmark, and agreement between two sets of runs.

    python3 perfbench/spread.py run --seeds 1-10 --save a.json [--workload paths] [--report]
    python3 perfbench/spread.py compare a.json b.json

`run` runs the benchmark command of BENCHMARK.json once per seed and
workload (every workload unless one is named), from the checkout root, and
prints, per workload and metric, the median of the runs and the distance
between the first and third quartile as a share of the median, against the
bound BENCHMARK.json fixes; `--report` also prints each run's report, so
`run --seeds 1 --report` runs and checks every workload once and prints
every metric.  `compare` checks that the medians of a second set
are no worse than the first by more than the bound or, for traced sets,
that every count in tracing.EXACT_COUNTS is identical between runs of the
same workload and seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import tracing


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _declared() -> dict:
    with open("BENCHMARK.json") as fh:
        return json.load(fh)


def run(args) -> int:
    bench = _declared()
    workloads = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    runs = []
    for workload in workloads:
        for seed in _seeds(args.seeds):
            argv = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                       "--seconds", str(bench["run_seconds"]),
                                       "--trace", str(args.trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"{workload} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            *report, last = proc.stdout.strip().splitlines()
            if args.report:
                print("\n".join(report))
            result = json.loads(last)
            runs.append({"workload": workload, "seed": seed, "trace": args.trace,
                         "result": result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(runs, fh, indent=1)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    worst = 0.0
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload]
        for name in mine[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in mine]
            med = statistics.median(values)
            if len(values) < 2 or med == 0:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            note = "" if bound is None else f" bound {bound} ({spread / bound:.2f} of it)"
            if bound is not None:
                worst = max(worst, spread / bound)
            print(f"{workload:<12} {name:<32} median {med:.6g} spread {spread:.4f}{note}")
    print(f"all correct: {all(r['result']['correct'] for r in runs)}; "
          f"largest spread/bound: {worst:.2f}")
    return 0


def compare(args) -> int:
    bench = _declared()
    with open(args.first) as fh:
        first = json.load(fh)
    with open(args.second) as fh:
        second = json.load(fh)
    ok = True
    if first[0]["trace"]:
        by_seed = {(r["workload"], r["seed"]): r["result"]["metrics"] for r in first}
        for r in second:
            other = by_seed.get((r["workload"], r["seed"]))
            for name in tracing.EXACT_COUNTS if other else []:
                a, b = other[name]["value"], r["result"]["metrics"][name]["value"]
                if a != b:
                    ok = False
                    print(f"{r['workload']} seed {r['seed']}: {name} {a} != {b}")
        print(f"exact counts identical: {ok}")
        return 0 if ok else 1
    for workload in sorted({r["workload"] for r in first}):
        for m in bench["end_to_end"]:
            med = [statistics.median(r["result"]["metrics"][m["name"]]["value"]
                                     for r in runs if r["workload"] == workload)
                   for runs in (first, second)]
            change = (med[1] - med[0]) / med[0] * (1 if m["better"] == "lower" else -1)
            within = change <= m["bound"]
            ok &= within
            print(f"{workload:<12} {m['name']:<16} {med[0]:.6g} -> {med[1]:.6g}: "
                  f"worse by {change:+.4f}, bound {m['bound']} "
                  f"{'ok' if within else 'EXCEEDED'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--workload", help="default: every workload")
    p_run.add_argument("--seeds", required=True, help="e.g. 1-10")
    p_run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_run.add_argument("--save")
    p_run.add_argument("--report", action="store_true", help="print each run's report")
    p_run.set_defaults(func=run)
    p_cmp = sub.add_parser("compare")
    p_cmp.add_argument("first")
    p_cmp.add_argument("second")
    p_cmp.set_defaults(func=compare)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
