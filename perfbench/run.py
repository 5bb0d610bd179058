"""rdito benchmark: one workload per process, end-to-end or per-layer metrics.

Run from the root of an rdito checkout:

    python3 perfbench/run.py --workload mc-annihilation --seed 1 --seconds 12 --trace 0

`--trace 0` prints the end-to-end metrics (wall_s, setup_s, peak_rss_mb;
the two times divided by the host slowdown that probe.py measures);
`--trace 1` alternates untraced and traced repetitions and prints the
per-layer metrics.  The last line of standard output is the result object;
the line before it holds the details (samples, percentiles, failures,
versions and thread settings).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import probe

SETUP_RUNS = 5
MIN_REPS = 3
THREAD_VARS = ("RD_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
HERE = Path(__file__).resolve().parent

# Runs in a fresh interpreter: what every CLI call pays before any work.
# Prints the wall time and the host slowdown measured right after it.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import rdito.cli
from rdito import models, simulate
with open(sys.argv[2]) as f:
    models.ModelSpec.from_json(f.read())
if len(sys.argv) > 3:
    with open(sys.argv[3]) as f:
        simulate.SimConfig.from_json(f.read())
wall = time.perf_counter() - t0
sys.path.insert(0, sys.argv[1])
import probe
print(wall, probe.burst_slowdown())
"""


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(inherited: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **{k: inherited.get(k) for k in THREAD_VARS},
    }


def setup_time(root: Path, wl, session) -> tuple[float, float] | None:
    """Seconds to import rdito.cli and parse the inputs, in a fresh
    interpreter, and the host slowdown measured right after."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    files = [str(p) for p in (wl.model_path, wl.sim_path) if p is not None]

    def child():
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(HERE), *files], cwd=root,
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        wall, slowdown = map(float, proc.stdout.split())
        return wall, slowdown

    return session.call("setup", child, ok=None)


def rep(session, wl, host=None) -> float:
    """One repetition: the timed section, then its checks; returns its wall
    time.  A `probe.Probe`, if given, samples the host during the section."""
    gc.collect()
    t0 = time.perf_counter()
    with host or contextlib.nullcontext():
        result = wl.timed(session)
    wall = time.perf_counter() - t0
    wl.check(session, result)
    return wall


def highest_percentile(samples: list[float]) -> dict | None:
    """The highest of p50/p90/p99 with at least ten samples beyond it."""
    n = len(samples)
    for p in (99, 90, 50):
        if n * (100 - p) / 100 >= 10:
            qs = statistics.quantiles(samples, n=100, method="inclusive")
            return {"percentile": p, "value": qs[p - 1]}
    return None


def repeat(seconds, once, minimum):
    """Call once() at least `minimum` times, and again while the next call is
    expected to end within `seconds` of the first; returns the results."""
    start = time.perf_counter()
    out = [once()]
    while len(out) < minimum or (
            time.perf_counter() - start) * (len(out) + 1) / len(out) <= seconds:
        out.append(once())
    return out


def untraced(root, wl, session, seconds):
    """wall_s and setup_s: each sample's wall time divided by the host
    slowdown (probe.py) measured during it, or right after a set-up."""
    setups = [setup_time(root, wl, session) for _ in range(SETUP_RUNS)]
    setups = [s for s in setups if s is not None]
    rep(session, wl)  # warm-up: imports, FFT plans, page cache
    host = probe.Probe()

    def once():
        wall = rep(session, wl, host)
        return wall, host.slowdown()

    reps = repeat(seconds, once, MIN_REPS)
    walls = [w / k for w, k in reps]
    setup_s = [w / k for w, k in setups]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup_s) if setups else None, "s"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }
    detail = {"wall_s_count": len(walls), "wall_s_samples": walls,
              "wall_s_highest_percentile": highest_percentile(walls),
              "raw_wall_s_samples": [w for w, _ in reps],
              "raw_wall_s_median": statistics.median(w for w, _ in reps),
              "slowdown_samples": [k for _, k in reps],
              "setup_s_samples": setup_s,
              "raw_setup_s_samples": [w for w, _ in setups],
              "setup_slowdown_samples": [k for _, k in setups]}
    return metrics, detail


def traced(wl, session, seconds):
    import spans

    tracer = spans.Tracer()
    rep(session, wl)  # warm-up
    plain, walls, per_rep = [], [], []

    def pair():
        plain.append(rep(session, wl))
        with tracer.installed():
            session.tracer = tracer
            try:
                wall = rep(session, wl)
            finally:
                session.tracer = None
        walls.append(wall)
        per_rep.append(spans.layer_metrics(tracer.take(), wall, wl.threads))

    repeat(seconds, pair, 1)
    metrics = {k: (statistics.median(m[k] for m in per_rep), spans.unit(k))
               for k in per_rep[0]}
    metrics["trace.overhead_ratio"] = (statistics.median(walls) / statistics.median(plain),
                                       "ratio")
    detail = {"wall_s_samples": plain, "traced_wall_s_samples": walls}
    return metrics, detail


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "rdito" / "cli.py").is_file():
        print("perfbench: run from the root of an rdito checkout (no src/rdito/cli.py)",
              file=sys.stderr)
        return 2
    inherited = dict(os.environ)
    # cli --threads writes RD_THREADS into os.environ; every simulate call
    # here passes --threads, and nothing inherited may leak into the runs.
    os.environ.pop("RD_THREADS", None)
    sys.path.insert(0, str(root / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    session = workloads.Session()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        wl.prepare(session, Path(tmp), args.seed)
        if args.trace:
            metrics, detail = traced(wl, session, args.seconds)
        else:
            metrics, detail = untraced(root, wl, session, args.seconds)
    detail.update({
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "attempted": session.attempted, "failed": session.failed,
        "fail_ratio": session.failed / session.attempted,
        "failures": session.failures, "environment": environment(inherited),
    })
    print(json.dumps(detail))
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
