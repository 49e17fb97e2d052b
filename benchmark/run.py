"""Run one ccbench benchmark workload and print its metrics as a JSON line.

    python3 benchmark/run.py --workload net-cause --seed 1 --seconds 36 --trace 0

The workload runs whole rounds of ops (see workloads.py) until ``--seconds``
have passed, checks every output against the independent checkers in
oracles.py, and prints {"correct", "attempted", "failed", "metrics"} as the
last line of standard output. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` wraps the package's layers with spans (tracing.py) and reports
the per-layer metrics instead. Details of every run, and the spans of a
traced one, are written under benchmark/results/.

The package is imported from the src/ directory next to this one, never from
an installed copy, and BLAS is held at BLAS_THREADS threads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"
BLAS_THREADS = 1  # no larger than any nproc, and steady when other processes share the cores
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3  # this process plus two fresh interpreters; setup_s is their median
# Distinct rounds generated at setup, enough for a 36 s run; a longer run
# goes round the pool again.
POOL_ROUNDS = {"net-axioms": 10, "net-cause": 5, "bell-seesaw": 60, "classical-audit": 8}


def setup(workload: str, seed: int, scale: str):
    """Import ccbench and generate the inputs: what setup_s times."""
    sys.path[:0] = [str(SRC), str(HERE)]
    import ccbench

    if Path(ccbench.__file__).resolve().parent != SRC / "ccbench":
        raise SystemExit(f"ccbench was imported from {ccbench.__file__}, not from {SRC}")
    import workloads

    wl = workloads.WORKLOADS[workload](scale)
    return wl, wl.rounds(seed, POOL_ROUNDS[workload])


def setup_seconds(args) -> float:
    start = time.perf_counter()
    setup(args.workload, args.seed, args.scale)
    return time.perf_counter() - start


def setup_probe(args) -> float:
    """setup_seconds in a fresh interpreter, as a user's command pays it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def measure(wl, pool, seconds: float, tracer=None) -> dict:
    """Whole rounds of ops until ``seconds`` have passed; each output checked.

    An op fails when it raises or when its check rejects the output. Op time
    is the wall time of the call alone; the check runs after it, untimed.
    """
    times, rates, errors, tally = [], [], [], Counter()
    attempted = failed = 0
    start = time.perf_counter()
    while not rates or time.perf_counter() - start < seconds:
        busy, done = 0.0, 0
        for inp in pool[len(rates) % len(pool)]:
            if tracer is not None:
                tracer.current_op = attempted
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = wl.run(inp)
            except Exception:  # a raising op is a failed op; the run goes on
                failed += 1
                errors.append(traceback.format_exc(limit=4))
                continue
            finally:
                busy += time.perf_counter() - t0
                if tracer is not None:
                    tracer.current_op = -1
            dt = time.perf_counter() - t0
            try:
                wl.check(inp, out)
            except Exception as exc:  # a checker that cannot read the output rejects it
                failed += 1
                errors.append(f"check rejected op {attempted - 1}: {type(exc).__name__}: {exc}")
                continue
            times.append(dt)
            done += 1
            tally.update(wl.tally(out))
        rates.append(done / busy)
    return {"times": times, "round_rates": rates, "attempted": attempted, "failed": failed,
            "errors": errors, "tally": dict(tally)}


def wrapped_bindings() -> list[str]:
    """Names in ccbench bound to a tracing wrapper."""
    from tracing import MARK

    found = []
    for modname, module in list(sys.modules.items()):
        if modname != "ccbench" and not modname.startswith("ccbench."):
            continue
        for name, value in vars(module).items():
            members = vars(value).items() if isinstance(value, type) else [(None, value)]
            for member, obj in members:
                if getattr(obj, MARK, False):
                    found.append(f"{modname}.{name}" + (f".{member}" if member else ""))
    return found


def percentile_ms(times, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(times) * 1e3, q))


def end_to_end(m: dict, setup_samples) -> dict:
    import statistics

    values = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (statistics.median(m["round_rates"]), "1/s"),
        "op_p50_ms": (percentile_ms(m["times"], 50), "ms"),
        "op_p90_ms": (percentile_ms(m["times"], 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def per_layer(m: dict, tracer) -> dict:
    n = m["attempted"]
    accepted = m["tally"].get("n_causality", 0)
    tried = tracer.calls_under("geometry.spacelike_separated", "toynet.check_axioms")
    derived = {
        "toynet.weak_rccp_demo.attempts": m["tally"].get("attempts", 0) / n,
        "toynet.check_axioms.spacelike_yield": accepted / tried if tried else 0.0,
    }
    return tracer.per_op_metrics(n, derived)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "machine": platform.machine(), "processor": platform.processor(), "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(POOL_ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    for var in BLAS_VARS:  # before numpy loads, here and in every probe
        os.environ[var] = str(BLAS_THREADS)

    if args.setup_only:
        print(setup_seconds(args))
        return 0
    start = time.perf_counter()
    wl, pool = setup(args.workload, args.seed, args.scale)
    samples = [time.perf_counter() - start]
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            m = measure(wl, pool, args.seconds, tracer)
        finally:
            restore()
    else:
        m = measure(wl, pool, args.seconds)
        samples += [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
    if not m["times"]:
        print("\n".join(m["errors"][-3:]), file=sys.stderr)
        raise SystemExit(f"{args.workload}: all {m['attempted']} ops failed")
    metrics = per_layer(m, tracer) if tracer else end_to_end(m, samples)
    # Failed ops carry the rejected outputs, so what remains to prove is that
    # no wrapper is bound: none was installed, or every one was put back.
    leftover = wrapped_bindings()

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "scale": args.scale,
        "environment": environment(), "rounds": len(m["round_rates"]),
        "round_ops_per_s": m["round_rates"], "attempted": m["attempted"],
        "failed": m["failed"], "errors": m["errors"], "setup_s_samples": samples,
        "op_ms": [t * 1e3 for t in m["times"]], "op_p50_ms": percentile_ms(m["times"], 50),
        "tally": m["tally"], "metrics": metrics, "wrapped_bindings": leftover,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if tracer:
        tracer.save(RESULTS / f"{stem}.spans.npz")
    print(json.dumps({"correct": not leftover, "attempted": m["attempted"], "failed": m["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
