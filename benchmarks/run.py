"""Benchmark of the causaleffects library and CLI, end to end and per layer.

One workload per process, a closed loop with one client:

    python3 benchmarks/run.py --workload identify --seed 1 --seconds 30 --trace 0

prints a provenance line and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1``
untraced and traced passes alternate and the metrics are the per-layer ones,
and the spans are written to ``.bench_out/trace-<workload>-seed<seed>.jsonl``.

    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --repeats 2

runs every workload in its own fresh process (order alternating between
repeats, BLAS and OpenMP threads pinned to 1) and prints each metric by name
and unit.  ``--tiny`` shrinks every pool for a run of a few seconds, and
``--corrupt-expected`` alters one expected value so that the output check
must fail; both exist for ``test_benchmark.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# must precede the first numpy import: BLAS reads these when it loads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOAD_NAMES = ("identify", "estimate", "bootstrap", "simulate")
# Tail percentile per workload: the highest with at least ten samples beyond
# it at the operation count a 30 s run reaches (bootstrap's six inputs make
# p95 to p99 read the same input); min_ops() keeps that true.
TAIL_PERCENTILE = {"identify": 99, "estimate": 98, "bootstrap": 95, "simulate": 98}
TINY_POOL = {"identify": 3, "estimate": 2, "bootstrap": 2, "simulate": 2}
WARMUP_OPS = 3
SETUP_REPEATS = 7
END_TO_END_UNITS = {"ops_per_s": "1/s", "latency_ms.p50": "ms", "latency_ms.tail": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import causaleffects; "
                 "print(time.perf_counter() - t)")


def min_ops(workload: str) -> int:
    return math.ceil(10 / (1 - TAIL_PERCENTILE[workload] / 100)) + 1


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q / 100 * len(sorted_values)) - 1)]


def spin_ms() -> float:
    """A fixed pure-Python loop; its time shows how contended the host is."""
    t = time.perf_counter()
    x = 0
    for i in range(2_000_000):
        x += i
    return (time.perf_counter() - t) * 1000


def git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip())


# -- one workload in this process -------------------------------------------


def run_workload(args) -> int:
    sys.path.insert(0, SRC)
    try:
        import causaleffects
    except ImportError as e:
        print(f"cannot import the package from {SRC}: {e}", file=sys.stderr)
        return 2
    if not os.path.abspath(causaleffects.__file__).startswith(SRC + os.sep):
        print(f"causaleffects was imported from {causaleffects.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    spin = spin_ms()
    workdir = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        cls = workloads.WORKLOADS[args.workload]
        kwargs = {"pool": TINY_POOL[args.workload]} if args.tiny else {}
        setups = []

        def set_up():
            """Package import in a fresh interpreter + input generation."""
            t_import = import_seconds()
            t_gen = time.perf_counter()
            built = cls(args.seed, workdir, **kwargs)
            setups.append(t_import + time.perf_counter() - t_gen)
            return built

        wl = set_up()
        if args.corrupt_expected:
            wl.corrupt()
        result = measure(args, wl, set_up)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    q = TAIL_PERCENTILE[args.workload]
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "params": wl.params,
        "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas_info(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "host.spin_ms": spin, "setup_samples_s": setups,
        "tail_percentile": q, "ops": result["attempted"], "passes": result["passes"],
        "error_rate": result["failed"] / result["attempted"],
    }
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
        result["tracer"].write(path, provenance)
        metrics = layer_metrics(result, spin)
    else:
        provenance["raw_latency_ms"] = raw_latency_ms(result, q)
        metrics = dict(end_to_end_metrics(result, q), setup_s=statistics.median(setups),
                       peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for err in result["errors"][:5]:
        print(f"failed: {err}", file=sys.stderr)
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def measure(args, wl, set_up) -> dict:
    """Closed loop over seeded permutations of the pool, one full pass at a
    time, until ``--seconds`` have passed and, untraced, enough operations
    for the tail percentile (or four times ``--seconds``).  In a traced run
    untraced and traced passes alternate; only the traced ones record spans.
    Untraced passes move between the CPUs the process may use, because on a
    shared host a busy neighbour can slow one core for a whole run.  For the
    same reason the set-up repeats after the first are spread over the run,
    between passes and outside the measured time.
    ``times[traced][i]`` lists the latencies of pool input ``i``."""
    items = wl.items
    order_rng = np.random.default_rng([args.seed, 7])
    for item in items[:WARMUP_OPS]:
        try:
            wl.run(item)
        except Exception:  # counted when the timed loop meets the same input
            pass

    tracer = tracing.Tracer() if args.trace else None
    res = {"attempted": 0, "failed": 0, "errors": [], "passes": 0, "accept": [],
           "times": {False: [[] for _ in items], True: [[] for _ in items]},
           "tracer": tracer}
    need = 0 if args.tiny or args.trace else min_ops(args.workload)
    cpus = sorted(os.sched_getaffinity(0))
    t_begin = time.perf_counter()
    paused, repeats = 0.0, 1
    while True:
        if not tracer:
            os.sched_setaffinity(0, {cpus[res["passes"] % len(cpus)]})
        traced = bool(tracer) and res["passes"] % 2 == 1
        if traced:
            tracer.install()
        for i in order_rng.permutation(len(items)):
            item = items[i]
            op_id = res["attempted"]
            res["attempted"] += 1
            if traced:
                tracer.begin(op_id)
            t0 = time.perf_counter()
            try:
                out = wl.run(item)
                err = None
            except Exception as e:  # an unexpected exception is a failed operation
                err = f"op {op_id}: {type(e).__name__}: {e}"
            res["times"][traced][i].append(time.perf_counter() - t0)
            if traced:
                tracer.end()
            if err is None:
                try:
                    wl.check(item, out)
                    if hasattr(wl, "accept_ratio"):
                        res["accept"].append(wl.accept_ratio(out))
                except Exception as e:  # a malformed output fails its check too
                    err = f"op {op_id}: check: {type(e).__name__}: {e}"
            if err is not None:
                res["failed"] += 1
                res["errors"].append(err)
        if traced:
            tracer.uninstall()
        res["passes"] += 1
        elapsed = time.perf_counter() - t_begin - paused
        if repeats < SETUP_REPEATS and elapsed >= repeats * args.seconds / SETUP_REPEATS:
            t_pause = time.perf_counter()
            set_up()
            repeats += 1
            paused += time.perf_counter() - t_pause
        if tracer:
            done = res["passes"] >= 4
        else:
            # a slow program may never reach ``need``; stop well inside the
            # time one run is allowed to take
            done = res["attempted"] >= need or elapsed >= 4 * args.seconds
        if done and elapsed >= args.seconds:
            os.sched_setaffinity(0, cpus)
            for _ in range(repeats, SETUP_REPEATS):
                set_up()
            return res


def end_to_end_metrics(res: dict, q: float) -> dict:
    """Each operation counts at the best time its input reached in this run.

    Every input is timed once per pass; as with ``timeit``, the lowest of an
    input's repetitions is the one least inflated by other processes on the
    host, so these figures compare program versions on a shared machine.
    The plain percentiles of all timings go to the provenance line."""
    times = res["times"][False]
    best = [min(t) for t in times]
    per_op = sorted(b for b, t in zip(best, times) for _ in t)
    return {
        "ops_per_s": len(best) / sum(best),
        "latency_ms.p50": statistics.median(per_op) * 1000,
        "latency_ms.tail": percentile(per_op, q) * 1000,
    }


def raw_latency_ms(res: dict, q: float) -> dict:
    lat = sorted(x for t in res["times"][False] for x in t)
    return {"p50": statistics.median(lat) * 1000, f"p{q}": percentile(lat, q) * 1000}


def layer_metrics(res: dict, spin: float) -> dict:
    tracer = res["tracer"]
    traced = res["times"][True]
    n = sum(len(t) for t in traced)
    out = {}
    for name, (calls, self_ns) in tracer.layer_totals().items():
        out[f"{name}.calls"] = (calls / n, "calls/op")
        out[f"{name}.self_ms"] = (self_ns / 1e6 / n, "ms/op")
    top_ns = sum(t1 - t0 for _, _, parent, _, t0, t1 in tracer.spans if parent is None)
    best_traced = sum(min(t) for t in traced)
    best_untraced = sum(min(t) for t in res["times"][False])
    accept = res["accept"]
    out.update({
        "numpy.linalg.calls": (tracer.linalg_calls / n, "calls/op"),
        "estimate.bootstrap_ci.accept_ratio": (statistics.mean(accept) if accept else 1.0,
                                               "ratio"),
        "trace.overhead_frac": (best_traced / best_untraced - 1.0, "ratio"),
        "trace.coverage_frac": (top_ns / 1e9 / sum(map(sum, traced)), "ratio"),
        "host.spin_ms": (spin, "ms"),
        "error_rate": (res["failed"] / res["attempted"], "ratio"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


# -- every workload, each in a fresh process ---------------------------------


def run_all(args) -> int:
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    results = []
    for r in range(args.repeats):
        order = WORKLOAD_NAMES if r % 2 == 0 else WORKLOAD_NAMES[::-1]
        for name in order:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed + r), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            if args.tiny:
                cmd.append("--tiny")
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
                return 1
            res = json.loads(lines[-1])
            prov = next(json.loads(x[len("provenance "):]) for x in lines
                        if x.startswith("provenance "))
            res.update(workload=name, repeat=r, provenance=prov)
            results.append(res)
            print(f"{name} (repeat {r}, seed {args.seed + r}): attempted {res['attempted']}, "
                  f"failed {res['failed']}, error_rate "
                  f"{res['failed'] / res['attempted']:.4g}, host.spin_ms "
                  f"{prov['host.spin_ms']:.1f}")
            for metric, m in res["metrics"].items():
                print(f"  {metric:<62} {m['value']:>12.6g} {m['unit']}")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "results.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    print(f"results with provenance: {path}")
    return 0 if all(r["correct"] for r in results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=1,
                        help="with --workload all: rounds over every workload")
    parser.add_argument("--tiny", action="store_true", help="small pools, no minimum count")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="alter one expected value so the output check fails")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
