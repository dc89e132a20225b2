"""Benchmark of the tempderiv command line, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload price-book --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

    price-book   price CAT strangles at T = 30, 90, 365, an alpha sweep and
                 two Q-measure densities
    paths        simulate 1,000 x 365 and 4 x 3,650 paths to CSV, price --mc
                 with 100k paths
    station-fit  fit (seasonal and constant volatility) and stats of a
                 2,145-day station CSV with gaps

The program under test is the checkout's own source tree (``src/``, put on
PYTHONPATH; it is pure Python, so building is byte-compiling it).  Inputs
are generated from ``--seed`` under ``.perfbench_work/``.  One workload
process runs the script of commands in a closed loop with one client; BLAS
and OpenMP are pinned to one thread.  ``setup_s`` is the median time from a
fresh interpreter until ``tempderiv.cli`` is imported, over six starts;
``script_s`` is the mean time per pass of the script, a pass timed as the
sum of its commands' wall times around ``cli.main``.  Both are scaled to a
nominal machine speed by a fixed reference computation timed between the
starts and between the commands (see speed.py); the report lines give the
unscaled times as well.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from wrappers installed at the layer boundaries (see tracing.py),
with the tracing overhead against untraced cycles run in turn with the
traced ones.  The last line of standard output is one JSON object; the
lines before it are a readable report.  Spans and per-command timings are
written to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import inputs
import speed
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("price-book", "paths", "station-fit")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 5          # fresh interpreters besides the workload process itself
DEADLINE_S = 170.0        # the whole run, start-up probes included


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
    return path


def _op(label, metric, argv, out, check):
    return {"label": label, "metric": metric, "argv": argv + ["--out", out], "out": out,
            "check": check}


def price_book_ops(seed: int, work: str) -> list[dict]:
    ops = []
    for stream, (label, cfg) in enumerate(inputs.price_book(seed).items()):
        path = _write_json(os.path.join(work, f"{label}.json"), cfg)
        out = os.path.join(work, f"{label}.out")
        if label.startswith("density"):
            ops.append(_op(label, "density_s", ["density", "--config", path], out,
                           {"kind": "density"}))
        else:
            ops.append(_op(label, "price_s", ["price", "--config", path], out,
                           {"kind": "price", "config": path,
                            "refs": inputs.references(cfg, seed, stream)}))
    return ops


def paths_ops(seed: int, work: str) -> list[dict]:
    configs = inputs.paths(seed)
    cfgs = {label: _write_json(os.path.join(work, f"{label}.json"), cfg)
            for label, cfg in configs.items()}
    out = lambda label: os.path.join(work, f"{label}.out")
    return [
        _op("wide", "simulate_s", ["simulate", "--config", cfgs["wide"]], out("wide"),
            {"kind": "simulate", "config": cfgs["wide"], "terminal_mean": True}),
        _op("scenario", "scenario_s", ["simulate", "--config", cfgs["scenario"]],
            out("scenario"),
            {"kind": "simulate", "config": cfgs["scenario"], "terminal_mean": False}),
        _op("mc", "mc_price_s", ["price", "--mc", "--config", cfgs["mc"]], out("mc"),
            {"kind": "price", "config": cfgs["mc"],
             "refs": inputs.references(configs["mc"], seed, 0)}),
    ]


def station_ops(seed: int, work: str) -> list[dict]:
    text, missing = inputs.station_series(seed)
    csv = os.path.join(work, "station.csv")
    with open(csv, "w") as fh:
        fh.write(text)
    series = {"rows": inputs.STATION_DAYS, "repaired": missing}
    fit = dict(series, kind="fit", alpha_truth=inputs.STATION_TRUTH["alpha"])
    out = lambda label: os.path.join(work, f"{label}.out")
    return [
        _op("fit_seasonal", "fit_s", ["fit", csv], out("fit_seasonal"), fit),
        _op("fit_constant", "fit_constant_s", ["fit", csv, "--vol-shape", "constant"],
            out("fit_constant"), fit),
        _op("stats", "stats_s", ["stats", csv], out("stats"), dict(series, kind="stats")),
    ]


SCRIPTS = {"price-book": price_book_ops, "paths": paths_ops, "station-fit": station_ops}


def git_sha(root: str) -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside git."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unknown"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = os.path.join(root, ".git", ref[5:])
    if os.path.isfile(ref_file):
        with open(ref_file) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    return "unknown"


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn_until_ready(argv: list[str], env: dict, cwd: str, deadline: float):
    """Start a process and return it with the seconds until it printed 'ready'."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        _stop(proc, deadline)
        raise BenchError(f"{argv[1:]} did not start (exit code {proc.returncode})")
    return proc, ready


def _stop(proc: subprocess.Popen, deadline: float) -> None:
    try:
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


def measure(args, root: str, work: str, deadline: float) -> tuple[dict, dict]:
    """Build, time start-up, run the workload process; return its result.

    Start-up is returned as the seconds of each start and the time of the
    reference computation run just before it.
    """
    env = child_env(root)
    build = subprocess.run([sys.executable, "-m", "compileall", "-q", "src/tempderiv"],
                           cwd=root, env=env, timeout=120)
    if build.returncode != 0:
        raise BenchError("byte-compiling src/tempderiv failed")

    ops = SCRIPTS[args.workload](args.seed, work)
    setup = {"seconds": [], "refs": []}
    probe = [sys.executable, "-c", "import tempderiv.cli; print('ready', flush=True)"]
    for _ in range(SETUP_PROBES):
        setup["refs"].append(speed.reference())
        proc, ready = _spawn_until_ready(probe, env, root, deadline)
        setup["seconds"].append(ready)
        _stop(proc, deadline)

    spec = {"root": root, "seconds": args.seconds, "trace": args.trace,
            # the byte-identity check needs two cycles; with tracing, the count check
            # needs two traced cycles and the overhead an untraced one after the warm-up
            "min_cycles": 4 if args.trace else 2,
            "ops": ops, "result": os.path.join(work, "worker.json")}
    spec_path = _write_json(os.path.join(work, "spec.json"), spec)
    setup["refs"].append(speed.reference())
    proc, ready = _spawn_until_ready([sys.executable, os.path.join(HERE, "worker.py"),
                                      spec_path], env, root, deadline)
    setup["seconds"].append(ready)
    try:
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process overran the {DEADLINE_S:.0f} s limit") from None
    finally:
        if proc.poll() is None:  # overran, or this process is being stopped
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    with open(spec["result"]) as fh:
        return json.load(fh), setup


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def end_to_end(result: dict, setup: dict) -> dict:
    """Times at the reference speed of speed.py, and the peak memory.

    script_s is the mean time per pass (the loop's inverse throughput),
    scaled by the mean reference time of the same passes.  The machine's
    speed moves between regimes that last several passes; a run's median
    pass then jumps between regimes while the mean follows the share of
    time spent in each.  setup_s is the median start-up, scaled by the
    median reference time run before each start.
    """
    cycles = [c for c in result["cycles"] if not c["traced"]]
    walls = [c["wall"] for c in cycles]
    refs = [r for c in cycles for r in c["refs"]]
    return {"setup_s": speed.scaled(statistics.median(setup["seconds"]),
                                    statistics.median(setup["refs"])),
            "script_s": speed.scaled(statistics.mean(walls), statistics.mean(refs)),
            "peak_rss_mb": result["peak_rss_mb"]}


def per_layer(result: dict) -> tuple[dict, list[str]]:
    """Medians over traced cycles, the tracing overhead, and repeat-count defects.

    The overhead is the median traced cycle against the median untraced one,
    the warm-up cycle left out.
    """
    traced = [c for c in result["cycles"] if c["traced"]]
    untraced = [c["wall"] for c in result["cycles"][1:] if not c["traced"]]
    metrics = {name: statistics.median(c["layers"][name] for c in traced)
               for name in traced[0]["layers"]}
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(c["wall"] for c in traced) / statistics.median(untraced) - 1.0)
    defects = []
    for name in tracing.EXACT_COUNTS:
        values = [c["layers"][name] for c in traced]
        if len(set(values)) > 1:
            defects.append(f"count {name} differs between identical cycles: {values}")
    return metrics, defects


def report(args, result: dict, setup: dict, root: str) -> list[str]:
    env = result["env"]
    threads = " ".join(f"{v}=1" for v in THREAD_VARS)
    cycles = result["cycles"]
    lines = [
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}",
        f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"nproc {env['nproc']}, git {git_sha(root)}, {threads}",
        f"closed loop, 1 client: {len(cycles)} cycles of {len(cycles[0]['ops'])} commands",
        f"  setup_s            median {_fmt(statistics.median(setup['seconds']))} s, "
        f"max {_fmt(max(setup['seconds']))} s (n={len(setup['seconds'])}), "
        f"reference median {_fmt(statistics.median(setup['refs']))} s",
    ]
    ops = [o for c in cycles if not c["traced"] for o in c["ops"]]
    for metric in dict.fromkeys(o["metric"] for o in ops):  # script order
        walls = sorted(o["wall"] for o in ops if o["metric"] == metric)
        lines.append(f"  {metric:<18} median {_fmt(statistics.median(walls))} s, "
                     f"max {_fmt(walls[-1])} s (n={len(walls)})")
    walls = [c["wall"] for c in cycles if not c["traced"]]
    lines.append(f"  script_s           mean {_fmt(statistics.mean(walls))} s, "
                 f"median {_fmt(statistics.median(walls))} s, max {_fmt(max(walls))} s "
                 f"(n={len(walls)} passes), reference mean "
                 f"{_fmt(statistics.mean(r for c in cycles if not c['traced'] for r in c['refs']))} s")
    all_ops = [o for c in cycles for o in c["ops"]]
    failed = sum(not o["ok"] for o in all_ops)
    lines.append(f"  failed_frac        {failed}/{len(all_ops)} = {failed / len(all_ops):.4g}")
    lines.append(f"  peak_rss_mb        {_fmt(result['peak_rss_mb'])} MB")
    warned = sum(o["warnings"] for o in all_ops)
    if warned:
        lines.append(f"  warnings           {warned} from the library")
    if args.trace:
        traced = [c for c in cycles if c["traced"]]
        lines.append(f"self time per layer, median over {len(traced)} traced cycles:")
        for layer in tracing.LAYERS:
            self_s = statistics.median(c["self_s"][layer] for c in traced)
            lines.append(f"  {layer + '.self_s':<30} {_fmt(self_s)} s")
        if result["untraced_boundaries"]:
            lines.append("  not traced (absent): " + ", ".join(result["untraced_boundaries"]))
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    # SIGTERM raises SystemExit, so the workload process is stopped on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            declared = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json in {root}: {exc}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(root, "src", "tempderiv", "cli.py")):
        print(f"perfbench: no tempderiv source tree under {root}/src", file=sys.stderr)
        return 2

    work_root = os.path.join(root, ".perfbench_work")
    work = os.path.join(work_root, f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(os.path.join(work_root, "results"), exist_ok=True)
    try:
        result, setup = measure(args, root, work, deadline)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        # keep the inputs, drop the (large) command outputs
        for name in os.listdir(work):
            if name.endswith(".out"):
                os.unlink(os.path.join(work, name))

    all_ops = [o for c in result["cycles"] for o in c["ops"]]
    failed = sum(not o["ok"] for o in all_ops)
    for op in all_ops:
        for error in op["errors"]:
            print(f"FAILED {error}", file=sys.stderr)
    if args.trace:
        values, defects = per_layer(result)
        wanted = declared["per_layer"]
    else:
        values, defects = end_to_end(result, setup), []
        wanted = declared["end_to_end"]
    for defect in defects:
        print(f"BENCHMARK DEFECT: {defect}", file=sys.stderr)

    lines = report(args, result, setup, root)
    if args.trace:
        lines.append("per-layer metrics:")
        lines += [f"  {m['name']:<30} {_fmt(values[m['name']])} {m['unit']}" for m in wanted]
    print("\n".join(lines))
    result["setup_s"] = setup
    result["report"] = lines
    _write_json(os.path.join(work_root, "results",
                             f"{args.workload}-s{args.seed}-t{args.trace}.json"), result)
    print(json.dumps({
        "correct": failed == 0 and not defects,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
