"""The four benchmark workloads: inputs, the timed section, and its checks.

Each workload writes its inputs into a work directory from the benchmark
seed, runs its timed section through `rdito.cli.main(argv)` in this process
(or through the library where the CLI has no command), and checks the
outputs.  Why each workload exists is written up in perfbench/README.md.
"""

from __future__ import annotations

import json
import math
import traceback
from pathlib import Path

import numpy as np

from rdito import cli, models, perturb


class Session:
    """Counts the commands and checks of one benchmark process.

    A command that raises or exits with a code outside `ok`, and a check that
    does not hold, each count as one failure; the workload goes on either way.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.tracer = None

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def call(self, label: str, fn, *args, ok=(0,)):
        """Run fn(*args) as one command; returns its result, None if it raised."""
        self.attempted += 1
        try:
            if self.tracer is not None:
                result = self.tracer.call(label, fn, args)
            else:
                result = fn(*args)
        except (Exception, SystemExit):
            self._fail(f"{label} raised: {traceback.format_exc(limit=3)}")
            return None
        if ok is not None and result not in ok:
            self._fail(f"{label} exited {result}")
        return result

    def cli(self, *argv, ok=(0,)):
        """`rdito <argv>` in this process."""
        argv = [str(a) for a in argv]
        return self.call(f"cli.{argv[0]}", cli.main, argv, ok=ok)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self._fail(f"check failed: {what}")


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj))
    return path


def _wrapped_gaussian(box, shape, mass, width, center) -> np.ndarray:
    """Periodic Gaussian bump of total mass `mass` sampled at i * L / n."""
    out = np.array(mass, float)
    for L, n, c in zip(box, shape, center):
        x = np.arange(n) * (L / n)
        images = np.arange(-10, 11) * L
        prof = np.exp(-((x[:, None] - c + images) ** 2) / (2 * width ** 2)).sum(axis=1)
        out = np.multiply.outer(out, prof / (math.sqrt(2 * math.pi) * width))
    return out


def _final_rows(path: Path, count: int) -> np.ndarray:
    """Values of the last `count` rows of a `t,...,value` table."""
    lines = path.read_text().splitlines()[-count:]
    return np.array([float(ln.rsplit(",", 1)[1]) for ln in lines])


def _grid_csv(path: Path) -> dict[str, np.ndarray]:
    """`name,index,value` rows of a simulate grid CSV, by name in index order."""
    out: dict[str, list[float]] = {}
    for ln in path.read_text().splitlines()[1:]:
        name, _, value = ln.split(",")
        out.setdefault(name, []).append(float(value))
    return {k: np.array(v) for k, v in out.items()}


class Workload:
    """One set of inputs; subclasses fill in the three phases."""

    name = ""
    threads = 1  # worker threads the timed section asks for
    sim_path: Path | None = None

    def prepare(self, session: Session, work: Path, seed: int) -> None:
        """Write the inputs (and any fixed reference) into `work`."""
        raise NotImplementedError

    def timed(self, session: Session):
        """The timed section; returns what `check` needs."""
        raise NotImplementedError

    def check(self, session: Session, result) -> None:
        raise NotImplementedError


class McAnnihilation(Workload):
    """A+A -> 0 particle Monte Carlo on acceptance criterion 11's early-time
    inputs; nearly all of its time is the cell-list pair search in `step`."""

    name = "mc-annihilation"
    L, n, v0, replicas, t_end = 10.0, 32, 2.0, 3000, 0.2

    def prepare(self, session, work, seed):
        sigma, cutoff = 0.5, 1.5
        xs = np.linspace(0.0, cutoff, 31)
        c = 0.5 / (sigma * math.sqrt(2 * math.pi) * math.erf(cutoff / (sigma * math.sqrt(2))))
        samples = c * np.exp(-xs ** 2 / (2 * sigma ** 2))
        x = np.arange(self.n) * (self.L / self.n)
        r = np.minimum(x, self.L - x)
        table = np.where(r <= cutoff, np.interp(r, xs, samples), 0.0)
        self.model_path = _write_json(work / "model.json", {
            "kind": "Annihilation", "box": [self.L], "shape": [self.n], "D": 1.0,
            "rates": {"R": {"table": table.tolist()}},
            "v": {"expr": "uniform", "const": self.v0},
        })
        self.sim_path = _write_json(work / "sim.json", {
            "dt": 0.02, "replicas": self.replicas, "seed": seed, "chunk": 256,
            "kernel": {"cutoff": cutoff, "samples": samples.tolist()},
        })
        self.seed = seed
        self.out = work / "mc"
        mf = work / "meanfield.csv"
        session.cli("perturb", self.model_path, "--t-end", self.t_end, "--steps", 200,
                    "--method", "meanfield", "--seed", seed, "--out", mf)
        self.meanfield = _final_rows(mf, self.n) if mf.exists() else None

    def timed(self, session):
        return session.cli("simulate", self.model_path, self.sim_path, "--t-end", self.t_end,
                           "--threads", self.threads, "--seed", self.seed, "--out", self.out)

    def check(self, session, code):
        mfv = self.meanfield
        if code != 0 or mfv is None:
            session.check(False, "no simulate or mean-field output to compare")
            return
        grid = _grid_csv(Path(f"{self.out}_grid.csv"))
        dV = self.L / self.n
        pred = np.sqrt(np.maximum(mfv, 0.0) * dV / self.replicas) / dV
        z = (grid["density"] - mfv) / np.maximum(grid["density_se"], pred)
        beyond = int(np.sum(np.abs(z) > 3))
        session.check(beyond <= 2, f"{beyond}/{self.n} cells beyond 3 SE of mean field")
        session.check(float(np.mean(mfv)) < 0.9 * self.v0, "mean-field decay is material")


class McDeathDiffusion(Workload):
    """The README pipeline density -> gf -> simulate -> compare on a
    death-diffusion model: RNG, thinning and the GF estimator, two threads."""

    name = "mc-death-diffusion"
    threads = 2
    L, n, replicas, t_end, u = 10.0, 128, 100_000, 0.5, "0.5"

    def prepare(self, session, work, seed):
        self.model_path = _write_json(work / "model.json", {
            "kind": "DeathDiffusion", "box": [self.L], "shape": [self.n], "D": 1.0,
            "rates": {"mu": 1.0},
            "v": {"expr": "gaussian", "mass": 20.0, "width": 1.0, "center": [5.0]},
        })
        self.sim_path = _write_json(work / "sim.json", {
            "dt": 0.01, "replicas": self.replicas, "seed": seed, "chunk": 4096,
        })
        self.seed = seed
        self.work = work

    def timed(self, session):
        w, t, seed = self.work, self.t_end, self.seed
        session.cli("density", self.model_path, "--t", t, "--cell-average",
                    "--seed", seed, "--out", w / "cells.csv")
        session.cli("gf", self.model_path, "--t", t, "--u", self.u,
                    "--seed", seed, "--out", w / "gf.csv")
        session.cli("simulate", self.model_path, self.sim_path, "--t-end", t,
                    "--threads", self.threads, "--u", self.u, "--seed", seed,
                    "--out", w / "mc")
        se_scale = 1.0 / ((self.L / self.n) * self.replicas)
        return session.cli("compare", w / "cells.csv", w / "mc_grid.csv", "--sigma", 3,
                           "--se-scale", se_scale, "--seed", seed, "--out", w / "cmp.json",
                           ok=(0, 1))

    def check(self, session, compare_code):
        session.check(compare_code == 0, "compare --sigma 3 within its binomial bound")
        try:
            log_gf = _final_rows(self.work / "gf.csv", 1)[0]
            scalars = json.loads((self.work / "mc_scalars.json").read_text())["scalars"]
            mean, se = scalars["gf"]
        except (OSError, KeyError, ValueError) as e:
            session.check(False, f"gf outputs unreadable: {e}")
            return
        dev = abs(mean - math.exp(log_gf))
        session.check(dev <= 4 * se, f"MC gf {mean:.6g} vs exp(gf) {math.exp(log_gf):.6g}, "
                                     f"se {se:.3g}")


class TreeLevel(Workload):
    """Dyson recursion and mean-field PDE on criterion 11's smooth-kernel
    model, both written as CSV: FFTs, the O(steps^2) history sum, the writer."""

    name = "tree-level"
    L, n, t_end, steps = 10.0, 64, 0.4, 3000

    def prepare(self, session, work, seed):
        R = _wrapped_gaussian((self.L,), (self.n,), 0.8, 0.6, (0.0,))
        self.model_path = _write_json(work / "model.json", {
            "kind": "Annihilation", "box": [self.L], "shape": [self.n], "D": 0.7,
            "rates": {"R": {"table": R.tolist()}},
            "v": {"expr": "gaussian", "mass": 8.0, "width": 1.0, "center": [5.0]},
        })
        self.seed = seed
        self.work = work

    def timed(self, session):
        codes = []
        for method in ("dyson", "meanfield"):
            codes.append(session.cli(
                "perturb", self.model_path, "--t-end", self.t_end, "--steps", self.steps,
                "--method", method, "--seed", self.seed, "--out", self.work / f"{method}.csv"))
        return codes

    def check(self, session, codes):
        if codes != [0, 0]:
            session.check(False, "no perturb output to compare")
            return
        dyson = _final_rows(self.work / "dyson.csv", self.n)
        mf = _final_rows(self.work / "meanfield.csv", self.n)
        sup = float(np.max(np.abs(np.fft.fft(mf).real * (self.L / self.n) - dyson)))
        session.check(sup < 1e-6, f"sup |Re FFT(meanfield) dV - dyson| = {sup:.3e}")


class ThirdOrder(Workload):
    """The third-order diagram on a 2-D 6x6 grid: 46,656 simplex factors in a
    Python loop, through the library (the CLI has no command for it)."""

    name = "third-order"
    expected = -1.3550284178e-04

    def prepare(self, session, work, seed):
        box = (2 * math.pi, 2 * math.pi)
        R = _wrapped_gaussian(box, (6, 6), 0.7, 2.0, (0.0, 0.0))
        self.model_path = _write_json(work / "model.json", {
            "kind": "Annihilation", "box": list(box), "shape": [6, 6], "D": 0.6,
            "rates": {"R": {"table": R.tolist()}},
            "v": {"expr": "gaussian", "mass": 2.0, "width": 2.0, "center": [0.0, 0.0]},
        })
        self.spec = models.ModelSpec.from_json(self.model_path.read_text())

    def timed(self, session):
        return session.call("library.third_order_term", lambda: perturb.third_order_term(
            perturb.momentum_grid(self.spec), (1, 0), 0.5), ok=None)

    def check(self, session, value):
        ok = value is not None and abs(value - self.expected) <= 1e-9 * abs(self.expected)
        session.check(ok, f"third-order term {value!r} vs {self.expected!r}")


WORKLOADS = {w.name: w for w in (McAnnihilation, McDeathDiffusion, TreeLevel, ThirdOrder)}
