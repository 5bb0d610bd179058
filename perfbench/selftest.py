"""Self-tests of the benchmark's tracing; run from the root of the checkout:

    python3 perfbench/selftest.py

Checks that a traced run puts every wrapped attribute back (also when a
command fails), that an untraced run never enters a wrapper, that the host
probe puts the signal handler and timer back, and that two traced runs with
the same seed give identical work counts on every workload.
Takes about a minute.
"""

from __future__ import annotations

import signal
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import probe  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import rep  # noqa: E402

# Counts a later change may cite; they must repeat exactly for a fixed seed.
EXACT_COUNTS = ("simulate.step_calls", "simulate.particle_steps",
                "simulate.particles_removed", "grid.fft_calls",
                "perturb.simplex_calls", "cli.bytes_written")


def _originals():
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in spans.TARGETS]


def _assert_originals(before, when):
    for owner, attr, orig in before:
        assert owner.__dict__[attr] is orig, f"{attr} still wrapped {when}"


def _traced_rep(wl, seed):
    """Prepare `wl` in a fresh directory and run one traced repetition."""
    session = workloads.Session()
    tracer = spans.Tracer()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        wl.prepare(session, Path(tmp), seed)
        with tracer.installed():
            session.tracer = tracer
            wall = rep(session, wl)
        metrics = spans.layer_metrics(tracer.take(), wall, wl.threads)
    assert session.failed == 0, session.failures
    return metrics


def test_traced_run_restores_attributes():
    before = _originals()
    wl = workloads.McDeathDiffusion()
    wl.replicas = 8192
    _traced_rep(wl, seed=3)
    _assert_originals(before, "after a traced run")
    step = spans.simulate.step
    tracer = spans.Tracer()
    try:
        with tracer.installed():
            assert spans.simulate.step is not step
            raise RuntimeError("command failed")
    except RuntimeError:
        pass
    _assert_originals(before, "after a traced command raised")


def test_untraced_run_installs_no_wrapper():
    before = _originals()
    entered = []
    wrapper_code = spans.Tracer.call.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is wrapper_code:
            entered.append(frame)

    wl = workloads.McDeathDiffusion()
    wl.replicas = 8192
    session = workloads.Session()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        wl.prepare(session, Path(tmp), 3)
        sys.setprofile(profile)
        threading.setprofile(profile)
        try:
            rep(session, wl)
        finally:
            threading.setprofile(None)
            sys.setprofile(None)
    assert session.failed == 0, session.failures
    assert not entered, f"{len(entered)} wrapper calls in an untraced run"
    _assert_originals(before, "after an untraced run")


def test_probe_restores_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    with probe.Probe() as host:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(host.samples) >= 3, f"{len(host.samples)} probe samples in 0.3 s"
    assert signal.getsignal(signal.SIGALRM) is before, "SIGALRM handler not restored"
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0), "probe timer still running"


def test_counts_repeat_exactly():
    for cls in workloads.WORKLOADS.values():
        first = _traced_rep(cls(), seed=7)
        second = _traced_rep(cls(), seed=7)
        for key in EXACT_COUNTS:
            assert first[key] == second[key], f"{cls.name} {key}: {first[key]} != {second[key]}"


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as e:
                failed += 1
                print(f"FAIL {name}: {e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
