"""quadfield benchmark: one command, four workloads, every output checked.

Usage, from the repository root:

    python3 perfbench/run.py --workload arith --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Workloads: arith, residue, factor, cli (see perfbench/README.md).  Each
run imports quadfield from ``src/`` of the checkout the script sits in,
builds the workload's inputs from ``--seed``, then repeats whole rounds of
the workload's operations, one at a time, until ``--seconds`` have passed
and enough operations have run for the tail percentile to have ten
operations beyond it.  Every output is checked against ``oracle.py``
outside the timed regions.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reruns the same
operations with span tracing and reports the per-layer metrics.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Run outputs and trace files go to
``perfbench/out/`` (``--out`` names another directory).
"""

from __future__ import annotations

import argparse
import array
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 9     # setup_s is the median of this many fresh processes
PROBE_REPEATS = 7     # process-layer probes: median of this many spawns
KERNEL_CALLS = 20_000
LATENCY_SAMPLE = 1 << 18  # latencies kept for the percentiles (2 MiB)
ROUND_SAMPLE = 1 << 14    # round times kept for the median round

QUAD = "algebra_core.Quad"  # the span of Quad construction and validation
END_TO_END = (("setup_s", "s"), ("ops_per_s", "op/s"), ("latency_p50_us", "us"),
              ("latency_tail_us", "us"), ("peak_rss_mb", "MB"))


class Clock:
    """Times calls into quadfield; tracing (when on) covers exactly these."""

    __slots__ = ("ns", "tracer")

    def __init__(self, tracer=None):
        self.ns = 0
        self.tracer = tracer

    def __call__(self, fn, *args):
        tracer = self.tracer
        if tracer is not None:
            tracer.on = True
        t0 = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.ns += perf_counter_ns() - t0
            if tracer is not None:
                tracer.on = False


class Context:
    def __init__(self, traced):
        self.traced = traced
        self.counts = defaultdict(int)
        self.root = str(ROOT)
        self.src = str(SRC)


class Sample:
    """A uniform sample of at most ``size`` of the values added (reservoir
    sampling), kept in storage allocated and written in full up front: the
    resident set does not depend on how many values a run adds."""

    __slots__ = ("values", "size", "seen", "_rng")

    def __init__(self, size):
        self.values = array.array("q", [0]) * size
        self.size = size
        self.seen = 0
        self._rng = random.Random(0)

    def add(self, value):
        if self.seen < self.size:
            self.values[self.seen] = value
        else:
            j = self._rng.randrange(self.seen + 1)
            if j < self.size:
                self.values[j] = value
        self.seen += 1

    def __len__(self):
        return min(self.seen, self.size)

    def sorted(self):
        return sorted(self.values[:len(self)])


def setup_seconds(workload, seed):
    """Median set-up time over fresh interpreters (see setup_probe.py), so
    that every module quadfield imports is imported anew each time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        p = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload,
                            str(seed)], env=env, cwd=ROOT, check=True,
                           capture_output=True, text=True, timeout=60)
        times.append(float(p.stdout.split()[-1]))
    return statistics.median(times)


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending sequence."""
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def min_ops_for(pct):
    """Fewest operations that leave ten beyond the nearest-rank percentile."""
    n = 10
    while n - max(1, math.ceil(pct / 100.0 * n)) < 10:
        n += 1
    return n


def cli_peak_rss_kb(cases):
    """Peak resident set, in kB, of the CLI processes of one round, each read
    by the process itself (see rss_probe.py); outputs are checked again."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    peak = 0
    for argv, check in cases:
        p = subprocess.run([sys.executable, str(HERE / "rss_probe.py"), *argv],
                           env=env, cwd=ROOT, capture_output=True, text=True,
                           timeout=60)
        check(p.returncode, p.stdout)
        peak = max(peak, int(p.stderr.split()[-1]))
    return peak


def run_rounds(ops, seconds, min_ops, tracer):
    """Run whole rounds until both the time and the operation floor are met.

    Latencies and round times go into fixed-size samples, so the resident
    set does not grow with the number of operations a run manages.
    """
    clock = Clock(tracer)
    lat = Sample(LATENCY_SAMPLE)
    round_ns = Sample(ROUND_SAMPLE)
    n = 0
    failures = Counter()
    errors = []
    start = time.monotonic()
    while time.monotonic() - start < seconds or n < min_ops:
        round_sum = 0
        for op in ops:
            if tracer is not None:
                tracer.op_id = n
            clock.ns = 0
            try:
                op(clock)
            except Exception as exc:  # every failure is counted and reported
                tag = getattr(exc, "tag", None)
                failures[tag or "unexpected"] += 1
                if tag is None and len(errors) < 5:
                    errors.append("".join(traceback.format_exception_only(exc)).strip())
            lat.add(clock.ns)
            round_sum += clock.ns
            n += 1
        round_ns.add(round_sum)
    return n, lat, round_ns, failures, errors, time.monotonic() - start


def kernel_rows(qf):
    """ns per call of the kernels on fixed operands, for each importable backend."""
    rng = random.Random(20000821)
    pairs = [tuple(rng.uniform(-2.0, 2.0) for _ in range(8)) for _ in range(256)]
    backends = {"python": importlib.import_module("quadfield._kernels_py")}
    try:
        backends["compiled"] = importlib.import_module("quadfield._kernels")
    except ImportError:
        pass
    rows = {}
    for backend, mod in backends.items():
        for group, width in (("mul", 8), ("inv", 4), ("quartic", 4)):
            fns = [getattr(mod, f"{group}_{k}") for k in ("circular", "hyperbolic",
                                                          "planar", "polar")]
            args = [p[:width] for p in pairs]
            times = []
            for _ in range(5):
                t0 = perf_counter_ns()
                for fn in fns:
                    for i in range(KERNEL_CALLS // 4):
                        fn(*args[i & 255])
                times.append((perf_counter_ns() - t0) / KERNEL_CALLS)
            rows[backend, group] = statistics.median(times)
    return rows


def spawn_us(*codes):
    """Median wall time of `python -c code` for each code, spawns interleaved
    so that every code sees the same state of the host."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = {code: [] for code in codes}
    for _ in range(PROBE_REPEATS):
        for code in codes:
            t0 = perf_counter_ns()
            subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                           check=True, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL, timeout=60)
            times[code].append((perf_counter_ns() - t0) / 1e3)
    return [statistics.median(times[code]) for code in codes]


def per_layer(qf, workloads, tracer, seed, n_ops, ctx):
    """Per-layer metrics: span aggregates of the workload's operations.

    A layer the workload never enters is measured on one traced in-process
    pass of the CLI argument set instead (per CLI call), so every row is a
    measured figure; the names of those rows are returned in ``from_cli``.
    """
    cli = workloads.WORKLOADS["cli"]
    cli_ops = cli.make_round(qf, cli.setup(qf, seed), Context(traced=True))
    W = tracer.stats
    tracer.reset()
    clock = Clock(tracer)
    for op in cli_ops:
        op(clock)
    C = tracer.stats
    c_ops = len(cli_ops)
    tracer.uninstall()
    from_cli = []

    def layer(name, value_w, value_c, entered):
        if entered:
            return value_w
        from_cli.append(name)
        return value_c

    def public_calls(stats, L):
        return stats.calls[L] - (stats.fn_calls.get(QUAD, 0) if L == "algebra_core" else 0)

    def fn_mean(stats, *keys):
        calls = sum(stats.fn_calls.get(k, 0) for k in keys)
        return sum(stats.fn_ns.get(k, 0) for k in keys) / calls / 1e3 if calls else 0.0

    m = {}
    for L in ("algebra_core", "canonical", "elementary", "matrix_rep",
              "calculus", "polynomial"):
        entered = W.calls[L] > 0
        m[f"{L}.self_us"] = layer(f"{L}.self_us", W.self_ns[L] / n_ops / 1e3,
                                  C.self_ns[L] / c_ops / 1e3, entered)
        m[f"{L}.calls"] = layer(f"{L}.calls", public_calls(W, L) / n_ops,
                                public_calls(C, L) / c_ops, entered)
    m["algebra_core.quads_built"] = W.fn_calls.get(QUAD, 0) / n_ops
    for name, keys in (("calculus.loop_build_us", ("calculus.Loop.circle",
                                                   "calculus.Loop.from_points")),
                       ("calculus.prediction_us", ("calculus.residue_prediction",)),
                       ("polynomial.factor_us", ("polynomial.factor",)),
                       ("polynomial.enumerate_us",
                        ("polynomial.enumerate_factorizations",))):
        entered = any(W.fn_calls.get(k) for k in keys)
        m[name] = layer(name, fn_mean(W, *keys), fn_mean(C, *keys), entered)
    enum_calls = W.fn_calls.get("polynomial.enumerate_factorizations", 0)
    m["polynomial.factorizations_found"] = (
        ctx.counts["factorizations_found"] / enum_calls if enum_calls else 0.0)

    kernels = kernel_rows(qf)
    for group in ("mul", "inv", "quartic"):
        m[f"kernel.{group}_ns"] = kernels[qf.BACKEND, group]
    interp, imported = spawn_us("pass", "import quadfield")
    m["cli.interpreter_us"] = interp
    m["cli.import_us"] = imported - interp
    reps = []
    for _ in range(3):
        clock = Clock()
        for op in cli_ops:
            op(clock)
        reps.append(clock.ns / c_ops / 1e3)
    m["cli.main_us"] = statistics.median(reps)
    return m, from_cli, kernels


PER_LAYER_UNITS = {
    "calls": "calls/op", "quads_built": "quads/op", "factorizations_found": "count",
}


def unit_of(name):
    suffix = name.rsplit(".", 1)[1]
    if suffix in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[suffix]
    return "ns" if suffix.endswith("_ns") else "us"


def run_one(args):
    if not (SRC / "quadfield" / "__init__.py").is_file():
        print(f"error: no quadfield package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import Tracer

    wl = workloads.WORKLOADS[args.workload]
    qf = importlib.import_module("quadfield")
    inputs = wl.setup(qf, args.seed)
    if not Path(qf.__file__).resolve().is_relative_to(SRC):
        print(f"error: quadfield imported from {qf.__file__}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(qf)
    ctx = Context(traced=bool(args.trace))
    ops = wl.make_round(qf, inputs, ctx)
    min_ops = min_ops_for(wl.tail_pct)
    n, lat, round_ns, failures, errors, wall = run_rounds(ops, args.seconds,
                                                          min_ops, tracer)
    # Read before the samples are copied and sorted below.
    if args.workload == "cli":
        rss_kb = None if args.trace else cli_peak_rss_kb(inputs)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rounds = round_ns.seen

    failed = sum(failures.values())
    ordered = lat.sorted()
    e2e = {
        "setup_s": None if args.trace else setup_seconds(args.workload, args.seed),
        # Rounds are identical units of work; the median round discounts
        # rounds hit by a preemption or a slow phase of a shared host.
        "ops_per_s": len(ops) / (statistics.median(round_ns.sorted()) / 1e9),
        "latency_p50_us": percentile(ordered, 50.0) / 1e3,
        "latency_tail_us": percentile(ordered, wl.tail_pct) / 1e3,
        "peak_rss_mb": None if rss_kb is None else rss_kb / 1024.0,
    }
    nproc = len(os.sched_getaffinity(0))
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} backend={qf.BACKEND} "
          f"python={platform.python_version()} nproc={nproc}")
    print(f"# rounds={rounds} wall_s={wall:.2f} attempted={n} failed={failed} "
          + " ".join(f"{k}={v}" for k, v in sorted(failures.items())))
    for e in errors:
        print(f"# unexpected: {e}", file=sys.stderr)
    label = "traced " if args.trace else ""
    for name, unit in END_TO_END:
        if e2e[name] is None:
            continue
        print(f"{label}{name} = {e2e[name]:.6g} {unit}"
              + (f"  (p{wl.tail_pct:g})" if name == "latency_tail_us" else ""))
    if args.workload == "residue":
        print(f"{label}samples_to_tol = {ctx.counts['samples_to_tol'] // rounds} "
              "samples (per round)")
        if args.trace:
            print(f"calculus.integrand_evals = {ctx.counts['integrand_evals'] / n:.6g}"
                  " evals/op")

    if args.trace:
        metrics, from_cli, kernels = per_layer(qf, workloads, tracer, args.seed,
                                               n, ctx)
        for (backend, group), ns in sorted(kernels.items()):
            if backend != qf.BACKEND:
                print(f"kernel[{backend}].{group}_ns = {ns:.1f} ns")
        for name in sorted(metrics):
            mark = "  (from the in-process CLI pass)" if name in from_cli else ""
            print(f"{name} = {metrics[name]:.6g} {unit_of(name)}{mark}")
        result_metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    else:
        result_metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}

    result = {"correct": failures["unexpected"] == 0, "attempted": n,
              "failed": failed, "metrics": result_metrics}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "backend": qf.BACKEND, "python": platform.python_version(),
            "nproc": nproc, "rounds": rounds, "failures": dict(failures)}
    (out / f"run-{stem}.json").write_text(json.dumps(dict(result, meta=meta)) + "\n")
    if tracer is not None:
        tracer.write(out / f"trace-{stem}.json", meta)
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__)), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", args.out]
        p = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stdout.write(p.stdout)
        sys.stderr.write(p.stderr)
        if p.returncode != 0:
            return p.returncode
        res = json.loads(p.stdout.strip().splitlines()[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


WORKLOAD_NAMES = ("arith", "residue", "factor", "cli")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=str(OUT),
                   help="directory for run outputs and trace files")
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
