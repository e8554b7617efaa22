"""prefalign benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload experiment --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` there. One process, one thread, BLAS pinned to one thread.

With ``--trace 0`` it measures set-up (the median of several fresh
processes that import the program and build the workload's inputs),
then repeats the workload's operation until ``--seconds`` would be
exceeded (at least once), checks every output outside the timed
region, and reports the end-to-end metrics. With ``--trace 1`` it repeats
the operation untraced for the same time, then builds the inputs and
runs the operation once more with every traced function wrapped (see
tracing.py), and reports the per-layer metrics of that set-up and
operation and the tracing overhead (traced operation time over the
untraced median, minus one).

The last line of stdout is the result object; the line before it and
``.perfbench_out/result-*.json`` record the environment and details.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported, here and in children

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 9


def _import_program():
    """Put the checkout's sources first on the path; refuse any other copy."""
    package = SRC / "prefalign"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no prefalign sources at {package}")
    sys.path.insert(0, str(SRC))
    import prefalign
    if Path(prefalign.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: prefalign imported from {prefalign.__file__}, not {package}")


def _declared_metrics(trace):
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    try:  # a checkout without .git, or inside another repository, has no commit of its own
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=30).stdout.split()
        if Path(top).resolve() == ROOT:
            commit = head
    except (OSError, ValueError):
        pass
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "seed": seed,
    }


def _measure_setup(workload, seed):
    """Median wall time of fresh processes that import the program and
    build the workload's inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # a pipe makes run() wait on its end-of-file, not poll in 50 ms sleeps
        subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.PIPE, timeout=120)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), times


def _timed_loop(wl, seconds):
    """Repeat the operation while the next one is expected to end in time."""
    times, outputs = [], []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outputs.append(wl.run())
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - begin + times[-1] > seconds:
            return times, outputs


def _failures(wl, outputs):
    """Per-operation failure lists; an output differing from the first
    operation's (same inputs, same process) is a failure too."""
    result = []
    for i, out in enumerate(outputs):
        failures = wl.check(out)
        if out != outputs[0]:
            failures.append(f"operation {i} output differs from operation 0")
        result.append(failures)
    return result


def _untraced(wl_cls, args):
    setup_s, setup_times = _measure_setup(args.workload, args.seed)
    wl = wl_cls(args.seed, OUT)
    times, outputs = _timed_loop(wl, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"op_s": statistics.median(times), "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    details = {"op_times_s": times, "setup_times_s": setup_times}
    return wl, outputs, metrics, details


def _traced(wl_cls, args):
    from tracing import Tracer

    wl = wl_cls(args.seed, OUT)
    untraced_times, outputs = _timed_loop(wl, args.seconds)
    untraced_s = statistics.median(untraced_times)
    tracer = Tracer()
    with tracer:
        traced_wl = wl_cls(args.seed, OUT)  # set-up is traced too, but not in the overhead
        t0 = time.perf_counter()
        traced_out = traced_wl.run()
        traced_s = time.perf_counter() - t0
    metrics = tracer.per_layer()
    metrics["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.save(spans_path)
    details = {"untraced_times_s": untraced_times, "traced_s": traced_s,
               "spans_file": spans_path.name}
    return wl, outputs + [traced_out], metrics, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    wl_cls = WORKLOADS[args.workload]
    if args.setup_only:
        wl_cls(args.seed, OUT)
        return 0

    declared = _declared_metrics(args.trace)
    OUT.mkdir(exist_ok=True)
    run = _traced if args.trace else _untraced
    wl, outputs, metrics, details = run(wl_cls, args)
    if set(metrics) != set(declared):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(declared))} "
                         "differ from BENCHMARK.json")

    failures = _failures(wl, outputs)
    n_failed = sum(1 for f in failures if f)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": _environment(args.seed),
        "workload_info": wl.info(outputs),
        "failures": [f for f in failures if f],
        **details,
    }
    result = {
        "correct": n_failed == 0,
        "attempted": len(outputs),
        "failed": n_failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": declared[name]} for name in declared},
    }
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({**record, "result": result}, fh, indent=1, sort_keys=True)
    print(json.dumps({"info": record}, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
