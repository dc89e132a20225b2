"""Workload process: one client driving tempderiv.cli.main in a closed loop.

Started by run.py with the path of a JSON spec.  The first thing it does is
import the command line (numpy, scipy and the checks come after), then it
prints ``ready`` so the parent can time start-up.  It then repeats the
workload's script of commands (a cycle), each command sent only after the
previous one returned, until the next cycle would overrun the time budget.
A cycle's time is the sum of its commands' wall times around cli.main, so
reading, hashing and checking outputs is left out.  The reference
computation of speed.py runs before each command and after the last one.  Every output is checked,
and must be byte-identical to the first cycle's.  With tracing on, the
first cycle is an untraced warm-up; after it, traced cycles (recording spans
and counters) and untraced ones alternate, so the tracing overhead compares
cycles run at the same time.  The result is written as JSON to the spec's
path.
"""

import hashlib
import json
import os
import platform
import resource
import sys
import traceback
import warnings
from time import perf_counter


def run_check(op: dict, out: bytes) -> list[str]:
    import checks

    spec = op["check"]
    kind = spec["kind"]
    cfg = None
    if "config" in spec:
        with open(spec["config"]) as fh:
            cfg = json.load(fh)
    label = op["label"]
    if kind == "price":
        return checks.check_price(label, out, cfg, spec["refs"])
    if kind == "density":
        return checks.check_density(label, out)
    if kind == "simulate":
        return checks.check_simulate(label, out, cfg, spec["terminal_mean"])
    if kind == "fit":
        return checks.check_fit(label, out, spec["alpha_truth"], spec["rows"], spec["repaired"])
    if kind == "stats":
        return checks.check_stats(label, out, spec["rows"], spec["repaired"])
    raise ValueError(f"unknown check {kind!r}")


def run_op(cli, op: dict, tracer, first: dict) -> dict:
    """Run one command, time it, check its output.

    `first` maps a command's label to the digest and check verdict of its
    first output; a later output must have the same bytes.
    """
    errors = []
    if tracer is not None:
        tracer.op_id += 1
        span = tracer.begin(f"cli.{op['argv'][0]}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = perf_counter()
        try:
            rc = cli.main(op["argv"])
        except Exception:  # a crash is a failed operation, not the end of the run
            rc = None
            errors.append(f"{op['label']}: raised\n{traceback.format_exc()}")
        wall = perf_counter() - t0
    if tracer is not None:
        tracer.end(span)
    if rc not in (0, None):
        errors.append(f"{op['label']}: exit code {rc}")
    size = 0
    if not errors:
        with open(op["out"], "rb") as fh:
            out = fh.read()
        size = len(out)
        digest = hashlib.sha256(out).hexdigest()
        if op["label"] not in first:
            try:
                errors += run_check(op, out)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                errors.append(f"{op['label']}: malformed output ({exc!r})")
            first[op["label"]] = (digest, list(errors))
        elif first[op["label"]][0] == digest:
            errors += first[op["label"]][1]  # same bytes, same verdict
        else:
            errors.append(f"{op['label']}: output differs from the first identical command")
    return {"label": op["label"], "metric": op["metric"], "wall": wall, "ok": not errors,
            "errors": errors, "bytes": size, "warnings": len(caught)}


def main() -> int:
    import tempderiv.cli as cli  # the start-up being timed
    print("ready", flush=True)
    import numpy as np
    import scipy

    import speed
    import tracing

    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    src = os.path.join(spec["root"], "src")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"tempderiv was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = tracing.Tracer() if spec["trace"] else None
    missing = []
    cycles = []
    first: dict[str, tuple[str, list[str]]] = {}
    start = perf_counter()
    longest = 0.0
    while True:
        # with tracing: one untraced warm-up cycle, then traced and untraced cycles in turn
        traced = tracer is not None and len(cycles) % 2 == 1
        if traced:
            missing = tracer.install()
            tracer.counts.clear()
            span_from = len(tracer.spans)
        t0 = perf_counter()
        # the reference computation runs before each command and after the last
        refs, ops = [], []
        for op in spec["ops"]:
            refs.append(speed.reference())
            ops.append(run_op(cli, op, tracer if traced else None, first))
        refs.append(speed.reference())
        longest = max(longest, perf_counter() - t0)  # checks and hashing included
        if traced:
            tracer.uninstall()
        # a cycle's time is that of its commands alone
        cycle = {"wall": sum(o["wall"] for o in ops), "traced": traced, "ops": ops,
                 "refs": refs}
        if traced:
            cycle["layers"], cycle["self_s"] = tracing.cycle_metrics(
                tracer.spans, span_from, tracer.counts, sum(o["bytes"] for o in ops))
            cycle["counts"] = dict(tracer.counts)
        cycles.append(cycle)
        if len(cycles) >= spec["min_cycles"] and perf_counter() - start + longest > spec["seconds"]:
            break

    result = {
        "cycles": cycles,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "untraced_boundaries": missing,
        "env": {"python": platform.python_version(), "numpy": np.__version__,
                "scipy": scipy.__version__, "nproc": os.cpu_count(),
                "platform": platform.platform()},
        "spans": tracer.spans if tracer is not None else [],
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
