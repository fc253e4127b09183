"""The four benchmark workloads: their inputs, their operations and their checks.

A workload is a stream of batches.  For each batch the benchmark

1. draws fresh inputs from the seed (its own work, never timed),
2. builds the program state the operations need (``build``; for the first
   batch this is the program set-up counted in ``setup_s``),
3. runs the operations one at a time, each one timed, and
4. checks every output against an independent reference from
   ``reference.py`` once the batch is over.

Batches share no program state, so the evaluators' per-t caches are dropped
between batches and peak memory does not grow with throughput.  Every
operation calls the package through a module attribute looked up at call
time, so the traced run sees the wrapped functions.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import numpy as np

import reference as ref

# Same scale-relative dichotomy tolerance as the package's default axis_tol.
AXIS_RTOL = 1e-8
# |t| range of the times that sweep and the cli greens calls ask for.
T_MIN, T_MAX = 0.1, 3.0


def draw_rectangle(
    rng: np.random.Generator, n: int, min_gap: float = 0.0, max_gap: float = np.inf
) -> np.ndarray:
    """The paper's ensemble: entries uniform on [-1, 1] + [-1, 1]i, redrawn
    until the spectral gap min |Re lam| exceeds max(axis tolerance, min_gap)
    and is at most max_gap."""
    while True:
        a = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
        floor = max(AXIS_RTOL * max(1.0, float(np.linalg.norm(a, 2))), min_gap)
        if floor < float(np.min(np.abs(np.linalg.eigvals(a).real))) <= max_gap:
            return a


def signed_times(rng: np.random.Generator, count: int):
    """Distinct nonzero times with |t| uniform on [T_MIN, T_MAX] and a random sign."""
    ts = rng.uniform(T_MIN, T_MAX, count) * rng.choice([-1.0, 1.0], count)
    if len(set(ts.tolist())) != count:
        raise RuntimeError("drew a repeated time")
    return [float(t) for t in ts]


def _rel_check(err: float, limit: float) -> tuple[bool, float]:
    return err <= limit, ref.digits(err)


class Cond:
    """condition_bound(a, t, QuadratureSpec(rel_tol=1e-6), ev) at t = +1, then t = -1."""

    name = "cond"
    n = 10
    # Peak memory is set by the batch whose evaluators cache the most G(t).
    # The cache size per matrix is heavy-tailed (median ~3,400 entries, one
    # draw in 800 above 27,000), so with one matrix per batch peak_rss_mb is
    # the run's single worst draw; eight per batch make it a sum, whose
    # tail is lighter, and make the caches half of peak_rss_mb, not a fifth.
    matrices_per_batch = 8
    trace_batches = 1
    # ops have a long tail across draws; 128 ops (eight whole batches) put
    # 13 samples beyond p90
    min_ops = 128
    times = (1.0, -1.0)
    rel_tol = 1e-6
    # The reference agrees with scipy's quad to ~1e-14; the bound is asked
    # for 1e-6, so 1e-5 leaves a factor of 10.
    max_rel_err = 1e-5

    def generate(self, rng, workdir):
        return [draw_rectangle(rng, self.n) for _ in range(self.matrices_per_batch)]

    def build(self, gf, mats):
        return [gf.GreensEvaluator(a) for a in mats]

    def ops(self, gf, mats, evs):
        spec = gf.QuadratureSpec(rel_tol=self.rel_tol)
        out = []
        for a, ev in zip(mats, evs):
            route = functools.cache(lambda a=a: ref.EigenRoute(a))
            for t in self.times:
                run = functools.partial(lambda a, t, ev: gf.condition_bound(a, t, spec, ev), a, t, ev)
                out.append((run, functools.partial(self._check, route, t)))
        return out

    def _check(self, route, t, est):
        expected = ref.condition_bound_reference(route(), t)
        ok, dig = _rel_check(abs(est.bound - expected) / abs(expected), self.max_rel_err)
        # criterion 6: the bound dominates the spectral extent
        return ok and est.bound >= est.spectrum_extent * (1.0 - 1e-6), dig


class Solve:
    """bounded_solution(a, trig_forcing(6), t, QuadratureSpec(), ev) on the grid
    -1, 0, 1, each output time followed by its t + h and t - h residual probes."""

    name = "solve"
    n = 6
    trace_batches = 2
    min_ops = 110
    grid = (-1.0, 0.0, 1.0)
    fd_step = 1e-3  # the CLI's default --fd-step
    # An op's cost grows as 1/gap (the horizon is 40/gap).  Below a gap of
    # 0.1 draws are redrawn: the default 2000-panel budget raises
    # QuadratureError near 5e-3, and one such draw would dominate a run.
    # Each batch takes one draw from each gap stratum, about equally likely
    # at N=6, so that runs do not differ by how many slow draws they met.
    gap_strata = ((0.1, 0.2), (0.2, 0.35), (0.35, np.inf))
    max_rel_err = 1e-6

    def generate(self, rng, workdir):
        return [draw_rectangle(rng, self.n, lo, hi) for lo, hi in self.gap_strata]

    def build(self, gf, mats):
        return [(gf.GreensEvaluator(a), gf.trig_forcing(self.n)) for a in mats]

    def ops(self, gf, mats, state):
        spec = gf.QuadratureSpec()
        out = []
        for a, (ev, forcing) in zip(mats, state):
            for t in self.grid:
                for s in (t, t + self.fd_step, t - self.fd_step):
                    run = functools.partial(
                        lambda a, f, s, ev: gf.bounded_solution(a, f, s, spec, ev), a, forcing, s, ev
                    )
                    out.append((run, functools.partial(self._check, a, s)))
        return out

    def _check(self, a, s, x):
        return _rel_check(ref.rel_err(x, ref.trig_forcing_solution(a, s)), self.max_rel_err)


class Sweep:
    """GreensEvaluator.green(t) at times not requested before, both signs."""

    name = "sweep"
    n = 30
    matrices_per_batch = 2
    times_per_matrix = 1000
    trace_batches = 3
    min_ops = 110
    # N=30 sits on the double-precision floor (median ~6 digits); a result
    # off by more than 1e-2 is wrong, not merely rounded.
    max_rel_err = 1e-2

    def generate(self, rng, workdir):
        return [
            (draw_rectangle(rng, self.n), signed_times(rng, self.times_per_matrix))
            for _ in range(self.matrices_per_batch)
        ]

    def build(self, gf, inputs):
        return [gf.GreensEvaluator(a) for a, _ in inputs]

    def ops(self, gf, inputs, evs):
        out = []
        for (a, ts), ev in zip(inputs, evs):
            route = functools.cache(lambda a=a: ref.EigenRoute(a))
            for t in ts:
                out.append((functools.partial(lambda ev, t: ev.green(t), ev, t),
                            functools.partial(self._check, route, t)))
        return out

    def _check(self, route, t, g):
        # one time at a time, so the references add no memory to peak_rss_mb
        return _rel_check(ref.rel_err(g, route().green([t])[0]), self.max_rel_err)


def _write_matrix(path: Path, a: np.ndarray) -> None:
    """The package's JSON matrix layout; json writes floats with round-trip repr."""
    entries = [[float(z.real), float(z.imag)] for z in a.ravel()]
    path.write_text(json.dumps({"rows": a.shape[0], "cols": a.shape[1], "entries": entries}))


def _normal_with_repeats(rng: np.random.Generator, n: int):
    """Q diag(lam) Q^H with each of n/2 off-axis eigenvalues repeated twice."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    half = n // 2
    distinct = rng.uniform(0.2, 1.5, half) * rng.choice([-1.0, 1.0], half) + 1j * rng.uniform(
        -1.0, 1.0, half
    )
    lam = np.concatenate([np.repeat(distinct, 2), distinct[: n - 2 * half]])
    return (q * lam) @ q.conj().T, lam, q


def _read_greens(path: Path, fmt: str):
    if fmt == "json":
        payload = json.loads(path.read_text())
        ts = [float(item["t"]) for item in payload]
        mats = []
        for item in payload:
            m = item["matrix"]
            e = np.array(m["entries"], dtype=float)
            mats.append((e[:, 0] + 1j * e[:, 1]).reshape(m["rows"], m["cols"]))
        return ts, np.array(mats)
    lines = path.read_text().split()
    rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    n = int(round(np.sqrt((rows.shape[1] - 1) / 2)))
    return rows[:, 0].tolist(), (rows[:, 1::2] + 1j * rows[:, 2::2]).reshape(-1, n, n)


def _read_projectors(path: Path):
    mats = {"P_plus": [], "P_minus": []}
    residual = None
    for line in path.read_text().split():
        cells = line.split(",")
        if cells[0] in mats:
            vals = np.array([float(c) for c in cells[2:]])
            mats[cells[0]].append(vals[0::2] + 1j * vals[1::2])
        elif cells[0] == "partition_residual":
            residual = float(cells[2])
    return np.array(mats["P_plus"]), np.array(mats["P_minus"]), residual


def _read_verify(path: Path) -> dict[str, float]:
    out = {}
    for line in path.read_text().splitlines():
        name, value = line.split()
        out[name] = float(value)
    return out


class Cli:
    """In-process greensfn.cli.main(argv) over a fixed rotation of subcommands."""

    name = "cli"
    n = 10
    files_per_batch = 4  # the first file of each batch is the normal one
    trace_batches = 12
    min_ops = 110
    times_per_call = 32
    # (subcommand, format, index of the time set); greens CSV takes two of
    # the five slots so that the median and the 90th percentile fall inside
    # one kind of call rather than between two.
    rotation = (
        ("greens", "csv", 0),
        ("greens", "json", 1),
        ("projectors", "csv", None),
        ("verify", "csv", None),
        ("greens", "csv", 2),
    )
    # criterion 2 (oracle agreement, N <= 20) and criterion 1 (identities)
    max_rel_err = 1e-7
    max_residual = 1e-8

    def generate(self, rng, workdir):
        files = []
        for k in range(self.files_per_batch):
            path = workdir / f"matrix{k}.json"
            if k == 0:
                a, lam, q = _normal_with_repeats(rng, self.n)
            else:
                a, lam, q = draw_rectangle(rng, self.n), None, None
            _write_matrix(path, a)
            # the reference starts from the matrix exactly as the program reads it
            a = np.array(json.loads(path.read_text())["entries"]) @ np.array([1.0, 1j])
            a = a.reshape(self.n, self.n)
            times = [signed_times(rng, self.times_per_call) for _ in range(3)]
            files.append((path, a, lam, q, times))
        return files

    def build(self, gf, files):
        return None

    def ops(self, gf, files, state):
        out = []
        workdir = files[0][0].parent
        for k, (path, a, lam, q, times) in enumerate(files):
            route = functools.cache(
                lambda a=a, lam=lam, q=q: ref.EigenRoute(a, lam, q)
            )
            for slot, (command, fmt, which) in enumerate(self.rotation):
                suffix = {"greens": fmt, "projectors": "csv", "verify": "txt"}[command]
                target = workdir / f"out{k}_{slot}.{suffix}"
                argv = ["--format", fmt, "--output", str(target), command, str(path)]
                if which is not None:
                    argv += [repr(t) for t in times[which]]
                run = functools.partial(lambda argv: gf.cli.main(argv), argv)
                check = functools.partial(self._check, command, fmt, target, route)
                out.append((run, check))
        return out

    def _check(self, command, fmt, target, route, code):
        if code != 0:
            return False, None
        if command == "greens":
            ts, mats = _read_greens(target, fmt)
            refs = route().green(ts)
            err = max(ref.rel_err(m, r) for m, r in zip(mats, refs))
            return _rel_check(err, self.max_rel_err)
        if command == "projectors":
            p_plus, p_minus, residual = _read_projectors(target)
            r_plus, r_minus = route().projectors()
            ident = np.eye(len(p_plus))
            residuals = (
                residual,
                np.linalg.norm(p_plus - p_minus - ident, 2),
                np.linalg.norm(p_plus @ p_plus - p_plus, 2),
                np.linalg.norm(p_minus @ p_minus + p_minus, 2),
            )
            ok, dig = _rel_check(
                max(ref.rel_err(p_plus, r_plus), ref.rel_err(p_minus, r_minus)), self.max_rel_err
            )
            return ok and max(residuals) <= self.max_residual, dig
        report = _read_verify(target)
        return report["max_residual"] <= self.max_residual, None


WORKLOADS = {w.name: w for w in (Cond(), Solve(), Sweep(), Cli())}
