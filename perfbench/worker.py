"""One workload process of the benchmark; ``run.py`` starts it and reads its last line.

Modes:

* ``setup``  imports the package and builds the first batch, then exits.
  ``run.py`` starts several of these to measure ``setup_s`` in fresh processes.
* ``run``    the untraced measurement, for ``--seconds`` of op time.  It
  imports no tracing code.
* ``fixed``  untraced, the workload's fixed number of whole batches: the
  reference for the tracing overhead.
* ``trace``  installs ``tracer.Tracer``, checks the ``diag(-1, 1)`` hand
  count, and runs the same fixed batches, so that the per-op counts repeat
  exactly from run to run.  The spans go to ``traces/<workdir name>.npz``
  next to ``--workdir``.

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Module imports that count as program set-up, per workload.
PROGRAM_MODULES = {"cli": ("greensfn", "greensfn.cli")}


def import_program(workload: str):
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    for name in PROGRAM_MODULES.get(workload, ("greensfn",)):
        importlib.import_module(name)
    return sys.modules["greensfn"], time.perf_counter() - t0


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library loaded into this process."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def batch_rng(seed: int, workload: str, batch: int):
    import numpy as np

    return np.random.default_rng([seed, sum(workload.encode()), batch])


def measure(wl, gf, seed, workdir, seconds, wall_cap, fixed_batches, op_span):
    """Run batches; time every op; check every output after its batch."""
    times, digits, failures = [], [], []
    attempted = raised = 0
    op_time = check_s = 0.0
    first_build_s = None
    started = time.perf_counter()
    batch = 0
    stop = False
    while not stop:
        inputs = wl.generate(batch_rng(seed, wl.name, batch), workdir)
        t0 = time.perf_counter()
        state = wl.build(gf, inputs)
        if first_build_s is None:
            first_build_s = time.perf_counter() - t0
        ops = wl.ops(gf, inputs, state)
        done = []
        for run, check in ops:
            if op_span is not None:
                run = op_span(run)
            t0 = time.perf_counter()
            try:
                out, error = run(), None
            except Exception as exc:  # a failed op is counted, not fatal
                out, error = None, exc
                raised += 1
            dt = time.perf_counter() - t0
            times.append(dt)
            op_time += dt
            done.append((check, out, error))
            # the 90th percentile must leave at least ten samples beyond it
            if fixed_batches is None and op_time >= seconds and len(times) >= wl.min_ops:
                stop = True
            if time.perf_counter() - started >= wall_cap:
                stop = True
            if stop:
                break
        del state, ops  # releases the evaluators and their caches
        t0 = time.perf_counter()
        for check, out, error in done:
            attempted += 1
            if error is None:
                try:
                    ok, dig = check(out)
                except Exception as exc:
                    ok, dig, error = False, None, exc
            else:
                ok, dig = False, None
            if dig is not None:
                digits.append(dig)
            if not ok:
                failures.append(f"batch {batch}: {error!r}" if error else f"batch {batch}: check failed")
        done = None
        check_s += time.perf_counter() - t0
        batch += 1
        if fixed_batches is not None and batch >= fixed_batches:
            stop = True
    return {
        "first_build_s": first_build_s,
        "times": times,
        "op_time_s": op_time,
        "check_s": check_s,
        "wall_s": time.perf_counter() - started,
        "attempted": attempted,
        "raised": raised,
        "failed": len(failures),
        "failures": failures[:5],
        "digits": digits,
        "batches": batch,
        "truncated": fixed_batches is not None and batch < fixed_batches,
    }


def summarise(res: dict) -> dict:
    import numpy as np

    times = np.array(res.pop("times"))
    digits = res.pop("digits")
    completed = len(times) - res["raised"]
    p50, p90 = np.quantile(times, [0.5, 0.9])
    res.update(
        ops_per_s=completed / res["op_time_s"],
        op_p50_ms=1e3 * float(p50),
        op_p90_ms=1e3 * float(p90),
        p90_beyond=int(np.sum(times > p90)),
        digits_p50=float(np.median(digits)) if digits else None,
        digits_n=len(digits),
    )
    return res


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "run", "fixed", "trace"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, help="run mode: op time to measure")
    p.add_argument("--wall-cap", type=float, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    args = p.parse_args()
    if (args.mode == "run") != (args.seconds is not None):
        p.error("--seconds is given in run mode and only there")

    gf, import_s = import_program(args.workload)
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    if args.mode == "setup":
        inputs = wl.generate(batch_rng(args.seed, wl.name, 0), args.workdir)
        t0 = time.perf_counter()
        wl.build(gf, inputs)
        print(json.dumps({"import_s": import_s, "build_s": time.perf_counter() - t0}))
        return 0

    fixed = None if args.mode == "run" else wl.trace_batches
    tracer = None
    out = {}
    if args.mode == "trace":
        from tracer import OP, Tracer, hand_count

        tracer = Tracer()
        tracer.install()
        out["hand_count_problems"] = hand_count(tracer, gf)

    res = measure(
        wl, gf, args.seed, args.workdir, args.seconds, args.wall_cap, fixed,
        op_span=(lambda run: tracer.span(OP, run)) if tracer else None,
    )
    res = summarise(res)
    res["import_s"] = import_s
    res["build_s"] = res.pop("first_build_s")
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    res["env"] = environment()
    if tracer is not None:
        res["per_layer"] = tracer.per_op_metrics(res["attempted"])
        spans = args.workdir.parent / "traces" / f"{args.workdir.name}.npz"
        spans.parent.mkdir(parents=True, exist_ok=True)
        tracer.save(spans)
        res["spans"] = str(spans)
    out.update(res)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
