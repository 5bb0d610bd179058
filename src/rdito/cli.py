"""Command-line entry point tying the toolkit together.

Subcommands: derive-table, density, gf, fn, simulate, perturb, compare.
Exit codes, set by `main` alone: 0 success, 1 comparison failure, 2 usage error
or a model that cannot answer the command, 3 runtime model error, 4 any other
exception (an internal error, reported on one line).
With --out, every output is written atomically (temp file + rename) and
accompanied by a run manifest with the resolved configuration, seed, tool
version, wall-clock time and output digests; without it, the output goes to
stdout.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile
from datetime import datetime, timezone
from typing import Iterable, Iterator

import numpy as np

from . import __version__, algebra, models, perturb, simulate

EXIT_OK = 0
EXIT_COMPARE = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Plumbing: atomic writes and manifests
# ---------------------------------------------------------------------------


def atomic_write(path: str, text: str, chunks: Iterable[str] = ()) -> str:
    """Write text, then each of chunks as it comes, UTF-8 encoded, to path
    via a temp file in the same directory + rename.  Returns the SHA-256
    of the bytes written, as "sha256:<hex>", hashed as they are written."""
    path = os.path.abspath(path)
    h = hashlib.sha256()

    def encoded(part: str) -> bytes:
        data = part.encode()
        h.update(data)
        return data

    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".rdito-tmp-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(encoded(text))
            f.writelines(map(encoded, chunks))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return "sha256:" + h.hexdigest()


def _digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(65536), b""):
            h.update(block)
    return "sha256:" + h.hexdigest()


def write_manifest(base: str, command: str, config: dict, seed, outputs: dict) -> str:
    """Emit `<base>.manifest.json` describing a completed run whose outputs
    are {path: digest}."""
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "wall_clock": datetime.now(timezone.utc).isoformat(),
        "outputs": {os.path.basename(p): d for p, d in outputs.items()},
    }
    path = base + ".manifest.json"
    atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _load(path: str, label: str, parse=models.ModelSpec.from_json):
    """A JSON input file's text and what `parse` makes of it; UsageError if either fails."""
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise UsageError(f"cannot read {label} {path}: {e}")
    try:
        json.loads(text)
    except json.JSONDecodeError as e:
        raise UsageError(
            f"malformed JSON in {label} {path}: line {e.lineno} column {e.colno}: {e.msg}"
        )
    try:
        return text, parse(text)
    except (models.ModelError, simulate.SimError, KeyError, TypeError, ValueError) as e:
        raise UsageError(f"invalid {label} {path}: {e}")


def _check_times(flag: str, times, positive: bool = False) -> None:
    """Usage error unless every time is finite and >= 0 (> 0 if positive)."""
    for t in times:
        if not math.isfinite(t) or t < 0 or (positive and t == 0):
            raise UsageError(f"{flag} must be finite and {'>' if positive else '>='} 0, got {t}")


def _chunks(body: str | Iterable[str]) -> Iterator[str]:
    return iter([body] if isinstance(body, str) else body)


def _emit(args, command: str, config: dict, outputs: dict, seed=None) -> None:
    """Write outputs ({path suffix: text, or an iterable of text chunks})
    next to --out, atomically, plus the run manifest; without --out, print
    the first output instead.  Chunks are written as they come."""
    if not args.out:
        sys.stdout.writelines(_chunks(next(iter(outputs.values()))))
        return
    digests = {}
    for suffix, body in outputs.items():
        chunks = _chunks(body)
        digests[args.out + suffix] = atomic_write(args.out + suffix, next(chunks, ""), chunks)
    write_manifest(args.out, command, config, seed, digests)


# ---------------------------------------------------------------------------
# derive-table
# ---------------------------------------------------------------------------


# every table holds B(m)·B(m), which has 2m + 2 operators
_MAX_B = (algebra.MAX_OPS - 2) // 2


def _parse_family(name: str) -> algebra.NoiseFamily:
    base = name
    param = None
    if name.startswith("B") and name[1:].isdecimal():
        # checked before B(m) is built with its m operators, and on the digit
        # count first, so that no m is too long for int()
        digits = name[1:].lstrip("0") or "0"
        if len(digits) > len(str(_MAX_B)) or int(digits) > _MAX_B:
            raise UsageError(f"family B<m> takes m <= {_MAX_B}: B(m)*B(m) has 2m + 2 "
                             f"operators and the cap is {algebra.MAX_OPS}")
        base, param = "B", int(digits)
    try:
        return algebra.make_family(base, param)
    except algebra.AlgebraError as e:
        raise UsageError(str(e))


def cmd_derive_table(args) -> int:
    fams = [_parse_family(n) for n in args.families]
    table = algebra.derive_table(fams)
    _emit(args, "derive-table",
          {"families": list(args.families), "allow_unrecognized": args.allow_unrecognized},
          {".txt": table.render_text(), ".json": table.render_json()})
    if not table.all_recognized() and not args.allow_unrecognized:
        print("error: table contains unrecognized products", file=sys.stderr)
        return EXIT_COMPARE
    return EXIT_OK


# ---------------------------------------------------------------------------
# density / gf / fn
# ---------------------------------------------------------------------------


_MAX_REFINED_POINTS = 2 ** 24  # most grid points on the refined grid of --cell-average


def _cell_averaged_csv(model_text: str, spec: models.ModelSpec, times, refine: int) -> str:
    """Density CSV with cell averages over [i h, (i + 1) h) instead of the
    values at the grid points i h.

    The model is re-instantiated on a refine-times finer grid (so v must be
    given analytically, not as a table) and block-averaged back down; this is
    the quantity a histogram estimator converges to.
    """
    if refine < 1:
        raise UsageError(f"--refine must be >= 1, got {refine}")
    obj = json.loads(model_text)
    if "shape" not in obj or not isinstance(obj.get("v"), dict) or "table" in obj["v"]:
        raise UsageError("--cell-average needs a grid model with an analytic v field")
    coarse = spec.grid()
    samples = coarse.values.size * refine ** spec.d
    if samples > _MAX_REFINED_POINTS:
        raise UsageError(f"--refine {refine} gives {samples} grid points, more than the "
                         f"{_MAX_REFINED_POINTS} (2^24) allowed")
    if any(isinstance(r, dict) and "table" in r for r in obj.get("rates", {}).values()):
        raise UsageError("--cell-average cannot refine a tabulated rate")
    obj["shape"] = [int(n) * refine for n in obj["shape"]]
    fine = models.ModelSpec.from_json(json.dumps(obj))

    def cell_average(fg):
        vals = fg.values
        for ax, n in enumerate(coarse.shape):
            # composite trapezoid over each cell (periodic wrap)
            vals = 0.5 * (vals + np.roll(vals, -1, axis=ax))
            vals = vals.reshape(
                vals.shape[:ax] + (n, refine) + vals.shape[ax + 1:]
            ).mean(axis=ax + 1)
        return coarse.with_values(vals)

    def evaluate(t):
        res = models.density(fine, t)
        return tuple(cell_average(fg) for fg in (res if isinstance(res, tuple) else (res,)))

    return models.density_table(spec, times, evaluate, "cell-averaged")


def cmd_density(args) -> int:
    _check_times("--t", args.t)
    model_text, spec = _load(args.model, "model config")
    if args.cell_average:
        text = _cell_averaged_csv(model_text, spec, args.t, args.refine)
    else:
        text = models.density_csv(spec, args.t)
    config = {"model": json.loads(model_text), "t": args.t, "cell_average": args.cell_average}
    if args.cell_average:
        config["refine"] = args.refine
    _emit(args, "density", config, {"": text})
    return EXIT_OK


def _test_function(spec: models.ModelSpec, text: str | None):
    if not isinstance(spec.v, models.FieldGrid):
        try:
            u = float(text) if text is not None else 1.0
        except ValueError:
            raise UsageError(f"--u for {spec.kind} must be a number, got {text!r}")
        if not math.isfinite(u):
            raise UsageError(f"--u for {spec.kind} must be finite, got {text!r}")
        return u
    g = spec.grid()
    if text is None:
        return g.with_values(np.ones(g.shape))
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise UsageError(f"malformed --u JSON: line {e.lineno} column {e.colno}: {e.msg}")
    try:
        u = models._field_from_json(obj, g.box, g.shape)
    except (models.ModelError, TypeError, ValueError) as e:
        raise UsageError(f"invalid --u field: {e}")
    if not np.all(np.isfinite(u.values)):
        raise UsageError("invalid --u field: values must be finite")
    return u


def cmd_gf(args) -> int:
    _check_times("--t", args.t)
    model_text, spec = _load(args.model, "model config")
    log_gf = models.closed_form(spec, "log_gf")
    u = _test_function(spec, args.u)
    rows = [f"{float(t)!r},{float(log_gf(spec, u, t))!r}" for t in args.t]
    _emit(args, "gf", {"model": json.loads(model_text), "t": args.t, "u": args.u},
          {"": "\n".join(["t,log_gf"] + rows) + "\n"})
    return EXIT_OK


def _parse_points(text: str, d: int) -> list[list[float]]:
    points = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            p = [float(x) for x in chunk.split(",")]
        except ValueError:
            raise UsageError(f"--points: {chunk!r} is not a comma-separated list of numbers")
        if not all(map(math.isfinite, p)):
            raise UsageError(f"--points: {chunk!r} has a coordinate that is not finite")
        if len(p) != d:
            raise UsageError(f"--points: {chunk!r} has {len(p)} coordinates, the model has {d}")
        points.append(p)
    return points


def cmd_fn(args) -> int:
    _check_times("--t", args.t)
    model_text, spec = _load(args.model, "model config")
    fn = models.closed_form(spec, "fn")
    points = _parse_points(args.points, spec.d)
    lines = ["t,value"] + [f"{float(t)!r},{float(fn(spec, points, t))!r}" for t in args.t]
    _emit(args, "fn", {"model": json.loads(model_text), "t": args.t, "points": args.points},
          {"": "\n".join(lines) + "\n"})
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate / perturb
# ---------------------------------------------------------------------------


def cmd_simulate(args) -> int:
    if args.out is None:
        raise UsageError("simulate requires --out")
    if args.threads < 1:
        raise UsageError(f"--threads must be >= 1, got {args.threads}")
    model_text, spec = _load(args.model, "model config")

    def parse_sim(text):
        sim = simulate.SimConfig.from_json(text)
        return sim if args.seed is None else dataclasses.replace(sim, seed=args.seed)

    sim_text, sim = _load(args.sim, "simulation config", parse_sim)
    u = _test_function(spec, args.u) if args.u else None
    report = simulate.run(spec, sim, args.t_end, u=u, threads=args.threads)
    _emit(
        args,
        "simulate",
        {"model": json.loads(model_text), "sim": json.loads(sim_text),
         "t_end": args.t_end, "u": args.u},
        {"_grid.csv": report.grid_csv(), "_scalars.json": report.scalars_json() + "\n"},
        sim.seed,
    )
    return EXIT_OK


def cmd_perturb(args) -> int:
    _check_times("--t-end", [args.t_end], positive=True)
    if args.steps < 1:
        raise UsageError(f"--steps must be >= 1, got {args.steps}")
    model_text, spec = _load(args.model, "model config")
    if not models.KINDS[spec.kind].pairs:
        kinds = ", ".join(k for k, c in models.KINDS.items() if c.pairs)
        raise UsageError(f"perturb needs a model with a pair reaction ({kinds}), got {spec.kind}")
    # looked up here, not at import, so a wrapper set on the attribute sees the call
    solve = perturb.dyson_tree_density if args.method == "dyson" else perturb.mean_field_pde
    series = solve(spec, args.t_end, args.steps)
    _emit(args, "perturb",
          {"model": json.loads(model_text), "t_end": args.t_end, "steps": args.steps,
           "method": args.method},
          {"": series.csv_chunks()})
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def _load_values(path: str):
    """Read a value table: (values, ses).

    Accepts either field CSVs with a `t,...,value` header (se = 0) or
    simulate grid CSVs (`name,index,value` rows; pairs density rows with
    density_se rows).
    """
    try:
        with open(path) as f:
            lines = [ln.strip() for ln in f if ln.strip() and not ln.startswith("#")]
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}")
    if not lines:
        raise UsageError(f"{path} is empty")
    header = lines[0].split(",")
    if header[0] != "name" and header[-1] != "value":
        raise UsageError(f"{path}: unrecognized table header {lines[0]!r}")
    try:
        if header[0] != "name":
            values = [float(ln.split(",")[-1]) for ln in lines[1:]]
            return np.array(values), np.zeros(len(values))
        vals: dict[str, list[float]] = {}
        for ln in lines[1:]:
            name, _, value = ln.split(",")
            vals.setdefault(name, []).append(float(value))
    except ValueError as e:
        raise UsageError(f"{path}: malformed row: {e}")
    means, ses = [], []
    for key in sorted(k for k in vals if not k.endswith("_se")):
        se = vals.get(key + "_se", [0.0] * len(vals[key]))
        if len(se) != len(vals[key]):
            raise UsageError(f"{path}: {len(se)} {key}_se rows for {len(vals[key])} {key} rows")
        means.extend(vals[key])
        ses.extend(se)
    return np.array(means), np.array(ses)


_LOG_NEGLIGIBLE = math.log(1e-17)


def binom_quantile(q: float, n: int, p: float) -> int:
    """Smallest k with P(Binomial(n, p) <= k) >= q.

    The pmf is built in log space outward from its mode by the term ratio
    (n - k) p / ((k + 1)(1 - p)), until terms fall below 1e-17 of the peak,
    and normalized by its own sum.  A sum started at k = 0 fails where
    (1 - p)^n underflows, and lgamma(n + 1) alone carries a rounding error
    of 2e-10 at n = 2e5; the ratios keep the error near k ulps.
    """
    if n == 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    mode = min(n, int((n + 1) * p))
    log_odds = math.log(p) - math.log1p(-p)
    below, above = [], []  # pmf(k) / pmf(mode), walking away from the mode
    lw, k = 0.0, mode
    while k > 0 and lw > _LOG_NEGLIGIBLE:
        lw += math.log(k / (n - k + 1)) - log_odds
        k -= 1
        below.append(math.exp(lw))
    lw, k = 0.0, mode
    while k < n and lw > _LOG_NEGLIGIBLE:
        lw += math.log((n - k) / (k + 1)) + log_odds
        k += 1
        above.append(math.exp(lw))
    weights = below[::-1] + [1.0] + above
    target = q * math.fsum(weights)
    cdf = 0.0
    for k, w in enumerate(weights, mode - len(below)):
        cdf += w
        if cdf >= target:
            return k
    return mode + len(above)


def cmd_compare(args) -> int:
    if not (math.isfinite(args.sigma) and args.sigma > 0):
        raise UsageError(f"--sigma must be finite and > 0, got {args.sigma}")
    if not (math.isfinite(args.se_scale) and args.se_scale >= 0):
        raise UsageError(f"--se-scale must be finite and >= 0, got {args.se_scale}")
    ref, _ = _load_values(args.analytic)
    mc, se = _load_values(args.mc)
    if len(ref) != len(mc):
        raise UsageError(
            f"point counts differ: {len(ref)} in {args.analytic}, {len(mc)} in {args.mc}"
        )
    floor = np.sqrt(np.maximum(ref, 0.0) * args.se_scale)
    se_eff = np.maximum(se, floor)
    diff = mc - ref
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(diff == 0.0, 0.0, diff / se_eff)
    z = np.where(np.isnan(z), np.inf, z)
    n = len(z)
    outliers = int(np.sum(np.abs(z) > args.sigma))
    # outliers allowed among n normal z-scores at 99%: P(|Z| > sigma) = erfc(sigma / sqrt 2)
    allowed = binom_quantile(0.99, n, math.erfc(args.sigma / math.sqrt(2)))
    ok = outliers <= allowed
    summary = {
        "points": n,
        "sigma": args.sigma,
        "outliers": outliers,
        "allowed_outliers": allowed,
        "max_abs_z": float(np.max(np.abs(z))) if n else 0.0,
        "pass": bool(ok),
    }
    _emit(args, "compare",
          {"analytic": _digest(args.analytic), "mc": _digest(args.mc), "sigma": args.sigma,
           "se_scale": args.se_scale},
          {"": json.dumps(summary, indent=2, sort_keys=True) + "\n"})
    return EXIT_OK if ok else EXIT_COMPARE


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="override the rng seed from the simulation config; "
                             "commands other than simulate draw no random numbers "
                             "and ignore it")
    common.add_argument("--out", default=None, help="output path or prefix")

    p = argparse.ArgumentParser(prog="rdito", description=__doc__)
    p.add_argument("--version", action="version", version=f"rdito {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    dt = sub.add_parser("derive-table", parents=[common],
                        help="derive an Ito product table for noise families")
    dt.add_argument("families", nargs="+",
                    help="family names (" + ", ".join(
                        "B<m>" if n == "B" else n for n in algebra._FAMILIES) + ")")
    dt.add_argument("--allow-unrecognized", action="store_true")
    dt.set_defaults(fn=cmd_derive_table)

    de = sub.add_parser("density", parents=[common],
                        help="closed-form density of a model on its grid")
    de.add_argument("model", help="model spec JSON file")
    de.add_argument("--t", type=float, nargs="+", required=True)
    de.add_argument("--cell-average", action="store_true",
                    help="emit the average over each cell [i h, (i + 1) h) (the "
                         "histogram estimator's target) instead of the value at "
                         "its left edge, the grid point i h")
    de.add_argument("--refine", type=int, default=8,
                    help="sub-sampling factor for --cell-average")
    de.set_defaults(fn=cmd_density)

    gf = sub.add_parser("gf", parents=[common],
                        help="log generating functional at a test function")
    gf.add_argument("model")
    gf.add_argument("--t", type=float, nargs="+", required=True)
    gf.add_argument("--u", default=None,
                    help="test function JSON (field spec), default u == 1")
    gf.set_defaults(fn=cmd_gf)

    fn = sub.add_parser("fn", parents=[common],
                        help="n-point weighted probability density")
    fn.add_argument("model")
    fn.add_argument("--t", type=float, nargs="+", required=True)
    fn.add_argument("--points", default="",
                    help="positions: comma-separated coords, ';' between points")
    fn.set_defaults(fn=cmd_fn)

    si = sub.add_parser("simulate", parents=[common],
                        help="particle Monte Carlo run with estimator report")
    si.add_argument("model")
    si.add_argument("sim", help="simulation config JSON file")
    si.add_argument("--t-end", type=float, required=True)
    si.add_argument("--u", default=None, help="test function for the GF estimator")
    si.add_argument("--threads", type=int, default=1,
                    help="worker threads for the replica chunks")
    si.set_defaults(fn=cmd_simulate)

    pe = sub.add_parser("perturb", parents=[common],
                        help="tree-level density of the annihilation model")
    pe.add_argument("model")
    pe.add_argument("--t-end", type=float, required=True)
    pe.add_argument("--steps", type=int, required=True)
    pe.add_argument("--method", choices=("dyson", "meanfield"), default="dyson")
    pe.set_defaults(fn=cmd_perturb)

    co = sub.add_parser("compare", parents=[common],
                        help="z-score comparison of two value tables")
    co.add_argument("analytic")
    co.add_argument("mc")
    co.add_argument("--sigma", type=float, default=3.0)
    co.add_argument("--se-scale", type=float, default=0.0,
                    help="Poisson SE floor scale: 1/(cell volume * replicas) "
                         "for histogram densities")
    co.set_defaults(fn=cmd_compare)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, models.Unsupported) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (models.ModelError, simulate.SimError, perturb.PerturbError) as e:
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as e:
        msg = " ".join(str(e).split())
        print(f"internal error: {type(e).__name__}: {msg}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
