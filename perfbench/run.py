"""Benchmark of the greensfn package: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cond --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics.  One workload process runs
the workload for ``--seconds`` of op time (and for at least the workload's
``min_ops`` ops).  ``SETUP_PROBES`` fresh processes before it and as many
after it each import the package and build the first batch; ``setup_s`` is
the median over all of them and the workload process.  ``--trace 1`` runs
the workload's fixed trace batches ``TRACE_PAIRS`` times untraced and traced
in turn, and reports the per-layer metrics and the median tracing overhead.

Workload processes run single-threaded, BLAS included.  The program is
imported from ``src/`` of the checkout.  The report goes to standard output;
its last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output
passed its check.  This file uses the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("cond", "solve", "sweep", "cli")
SETUP_PROBES = 2  # before the workload process, and again after it
TRACE_PAIRS = 3
# A run of one workload must end within 180 s; keep a margin.
DEADLINE_S = 170.0
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("fail_ratio", "1"),
    ("digits_p50", "digits"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    pass


def worker(workload: str, seed: int, mode: str, deadline: float,
           seconds: float | None = None) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one thread, which is never more than nproc
    timeout = deadline - time.monotonic()
    if timeout <= 5.0:
        raise BenchError("no time left for the next workload process")
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", workload,
        "--seed", str(seed), "--workdir", str(WORK / f"{workload}-seed{seed}"),
        "--wall-cap", f"{max(5.0, timeout - 25.0):.1f}",
    ]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process for {workload} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process for {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "greensfn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16], "seed": seed}


def listed_per_layer() -> list[str] | None:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return [m["name"] for m in spec["per_layer"]]
    except (OSError, ValueError, KeyError, TypeError):
        return None


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list[str]]:
    deadline = time.monotonic() + DEADLINE_S
    # probes on both sides of the workload process, so that a slow spell of
    # the machine before or after it does not move all of them
    probes = [worker(workload, seed, "setup", deadline) for _ in range(SETUP_PROBES)]
    res = worker(workload, seed, "run", deadline, seconds)
    probes += [res] + [worker(workload, seed, "setup", deadline) for _ in range(SETUP_PROBES)]
    import_s = statistics.median(p["import_s"] for p in probes)
    build_s = statistics.median(p["build_s"] for p in probes)
    ops = res["attempted"]
    values = {
        "setup_s": statistics.median(p["import_s"] + p["build_s"] for p in probes),
        "ops_per_s": res["ops_per_s"],
        "op_p50_ms": res["op_p50_ms"],
        "op_p90_ms": res["op_p90_ms"],
        "fail_ratio": res["failed"] / ops,
        "digits_p50": res["digits_p50"] if res["digits_p50"] is not None else 0.0,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    samples = {
        "setup_s": f"median of {len(probes)} fresh processes: import {import_s:.3f} s, "
                   f"build {1e3 * build_s:.3f} ms",
        "ops_per_s": f"{ops} ops in {res['op_time_s']:.2f} s of op time",
        "op_p50_ms": f"{ops} ops",
        "op_p90_ms": f"{ops} ops, {res['p90_beyond']} beyond",
        "fail_ratio": f"{res['failed']} of {ops} ops",
        "digits_p50": f"{res['digits_n']} ops checked against a reference",
        "peak_rss_mb": "1 process",
    }
    lines = [f"env {json.dumps({**res['env'], **provenance(seed)})}"]
    lines.append(f"{'metric':<14}{'value':>16}  {'unit':<8}samples")
    for name, unit in END_TO_END:
        lines.append(f"{name:<14}{values[name]:>16.6g}  {unit:<8}{samples[name]}")
    lines.append(
        f"(wall {res['wall_s']:.1f} s: ops {res['op_time_s']:.1f} s, checks {res['check_s']:.1f} s, "
        f"{res['batches']} batches)"
    )
    for failure in res["failures"]:
        lines.append(f"failure: {failure}")
    result = {
        "correct": res["failed"] == 0,
        "attempted": ops,
        "failed": res["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END
            if name != "fail_ratio"  # 0 on a passing run; carried by "failed"/"attempted"
        },
    }
    return result, lines


def traced(workload: str, seed: int) -> tuple[dict, list[str]]:
    deadline = time.monotonic() + DEADLINE_S
    plain, runs = [], []
    # untraced and traced in turn, so that a slow spell of the machine does
    # not fall on one side of the overhead ratio only
    for _ in range(TRACE_PAIRS):
        plain.append(worker(workload, seed, "fixed", deadline))
        runs.append(worker(workload, seed, "trace", deadline))
    ratios = [r["ops_per_s"] / p["ops_per_s"] for p, r in zip(plain, runs)]
    ratio = statistics.median(ratios)
    res = runs[0]
    hand = sorted({problem for r in runs for problem in r["hand_count_problems"]})
    unequal = []
    metrics = {}
    for name, m in res["per_layer"].items():
        values = [r["per_layer"].get(name, {}).get("value") for r in runs]
        if m["unit"] == "ms/op":
            metrics[name] = {"value": statistics.median(values), "unit": m["unit"]}
        else:
            metrics[name] = m
            if any(v != m["value"] for v in values):
                unequal.append(f"{name} differs between traced runs: {values}")
    metrics["trace.ops_per_s_ratio"] = {"value": ratio, "unit": "ratio"}
    lines = [f"env {json.dumps({**res['env'], **provenance(seed)})}"]
    lines.append(
        f"traced {res['attempted']} ops in {res['batches']} batches, {len(runs)} times; "
        f"spans in {res['spans']}"
    )
    lines.append(
        "tracing overhead: traced / untraced ops_per_s "
        + ", ".join(f"{r:.4f}" for r in ratios)
        + f"; median {ratio:.4f}"
        + (" (unresolved: above 1, so below the run-to-run noise)" if ratio >= 1.0 else "")
    )
    lines.append("self_ms: median over the traced runs; counts must be equal in all of them")
    for name in sorted(metrics):
        m = metrics[name]
        lines.append(f"{name:<48}{m['value']:>16.6g}  {m['unit']}")
    lines.append("hand count on diag(-1, 1): " + ("; ".join(hand) or "ok"))
    for failure in unequal + [f for r in plain + runs for f in r["failures"]]:
        lines.append(f"failure: {failure}")
    listed = listed_per_layer()
    if listed is not None:
        absent = [name for name in listed if name not in metrics]
        if absent:
            print(f"warning: absent per-layer metrics: {', '.join(absent)}", file=sys.stderr)
        metrics = {name: metrics[name] for name in listed if name in metrics}
    failed = sum(r["failed"] for r in plain + runs)
    result = {
        "correct": failed == 0 and not hand and not unequal
        and not any(r["truncated"] for r in plain + runs),
        "attempted": sum(r["attempted"] for r in plain + runs),
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="op time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not (ROOT / "src" / "greensfn" / "__init__.py").is_file():
        print(f"error: no greensfn package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            print(f"workload {name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
            if args.trace:
                result, lines = traced(name, args.seed)
            else:
                result, lines = end_to_end(name, args.seed, args.seconds)
            print("\n".join(lines), flush=True)
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        for name in names:
            shutil.rmtree(WORK / f"{name}-seed{args.seed}", ignore_errors=True)

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
