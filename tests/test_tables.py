"""What every CSV table writer must keep: one row per grid point and time, C
order, coordinates equal to the grid's axes, values that round-trip exactly,
and the bytes of the per-row reference writer in oracles.table_rows."""

import argparse
import contextlib
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from rdito import cli, floatrepr, grid, perturb
from rdito.grid import SPLIT_CELLS, FieldGrid, point_labels
from rdito.models import ModelSpec, convert_ab_densities, density, density_csv, density_table
from rdito.perturb import MOMENTUM, POSITION, TimeSeries, dyson_tree_density, mean_field_pde
from rdito.simulate import EstimatorReport
from oracles import full_values, table_rows

BOX, SHAPE = (10.0, 6.0), (5, 3)
SRC = Path(__file__).resolve().parent.parent / "src"


def spec_2d(kind, **extra):
    obj = {"kind": kind, "box": list(BOX), "shape": list(SHAPE), "D": 0.7,
           "v": {"expr": "gaussian", "mass": 7.0, "width": 1.3, "center": [4.0, 2.5]}}
    obj.update(extra)
    return ModelSpec.from_json(json.dumps(obj))


def body(text, header_lines):
    lines = text.strip("\n").split("\n")
    return lines[:header_lines], [ln.split(",") for ln in lines[header_lines:]]


def check_block(rows, t, axes, values):
    """rows are `t,coordinate...,value` for every point of values, in C order."""
    assert len(rows) == values.size
    for row, idx in zip(rows, np.ndindex(values.shape)):
        assert float(row[0]) == t
        assert [float(c) for c in row[1:-1]] == [float(ax[i]) for ax, i in zip(axes, idx)]
        assert float(row[-1]) == values[idx]


def test_density_csv_2d_rows():
    spec = spec_2d("DeathDiffusion", rates={"mu": 0.5})
    times = [0.0, 0.4]
    head, rows = body(density_csv(spec, times), 2)
    assert head == ["# model,DeathDiffusion,t=0.0,0.4", "t,x0,x1,value"]
    n = math.prod(SHAPE)
    assert len(rows) == len(times) * n
    for k, t in enumerate(times):
        fg = density(spec, t)
        check_block(rows[k * n:(k + 1) * n], t, fg.axes(), fg.values)


def test_density_csv_convert_ab_writes_both_species():
    rates = {"mu": {"const": 2.0, "table": np.linspace(0.1, 1.0, 15).reshape(SHAPE).tolist()}}
    spec = spec_2d("ConvertAB", D=0.0, rates=rates, vb={"expr": "uniform", "const": 0.5})
    _, rows = body(density_csv(spec, [0.3]), 2)
    xa, xb = convert_ab_densities(spec, 0.3)
    n = math.prod(SHAPE)
    assert len(rows) == 2 * n
    check_block(rows[:n], 0.3, xa.axes(), xa.values)
    check_block(rows[n:], 0.3, xb.axes(), xb.values)


def test_density_csv_discrete_death_rows():
    spec = ModelSpec.from_json('{"kind": "DiscreteDeath", "rates": {"mu": 2.0}, "v": 3.0}')
    head, rows = body(density_csv(spec, [0.0, 0.7]), 2)
    assert head[1] == "t,x0,value"
    assert [r[:2] for r in rows] == [["0.0", "0"], ["0.7", "0"]]
    assert [float(r[2]) for r in rows] == [3.0, 3.0 * math.exp(-1.4)]


def annihilation_2d():
    x = np.arange(SHAPE[0]) * (BOX[0] / SHAPE[0])
    y = np.arange(SHAPE[1]) * (BOX[1] / SHAPE[1])
    r2 = np.minimum(x, BOX[0] - x)[:, None] ** 2 + np.minimum(y, BOX[1] - y)[None, :] ** 2
    table = 0.3 * np.exp(-r2 / 2.0)
    return spec_2d("Annihilation", rates={"R": {"table": table.tolist()}})


def test_time_series_csv_position_and_momentum():
    spec = annihilation_2d()
    n = math.prod(SHAPE)
    for solve, cols, axes_of in (
        (mean_field_pde, "t,x0,x1,value", FieldGrid.axes),
        (dyson_tree_density, "t,k0,k1,value", FieldGrid.kaxes),
    ):
        head, rows = body(solve(spec, 0.1, 3).csv(), 1)
        assert head == [cols]
        series = solve(spec, 0.1, 3)  # a series is drawn once
        times = list(series.times)
        assert len(rows) == len(times) * n
        for k, (t, values) in enumerate(zip(times, written_values(series))):
            fg = FieldGrid(series.box, values.reshape(SHAPE))
            check_block(rows[k * n:(k + 1) * n], t, axes_of(fg), fg.values)


def test_grid_csv_2d_rows():
    rng = np.random.default_rng(0)
    fields = {name: FieldGrid(BOX, rng.random(SHAPE) * 1e3)
              for name in ("density_se", "density", "density_b")}
    report = EstimatorReport(fields=fields, scalars={}, replicas=10)
    head, rows = body(report.grid_csv(), 1)
    assert head == ["name,index,value"]
    n = math.prod(SHAPE)
    assert len(rows) == 3 * n
    for k, name in enumerate(sorted(fields)):
        block = rows[k * n:(k + 1) * n]
        for row, idx in zip(block, np.ndindex(SHAPE)):
            assert row[0] == name
            assert tuple(int(i) for i in row[1].split(":")) == idx
            assert float(row[2]) == fields[name].values[idx]


# ---------------------------------------------------------------------------
# Byte identity with the per-row reference writer
# ---------------------------------------------------------------------------

SPECIAL = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-308, 1e300, 0.1, -1.0)
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))
SHAPES = [(1,), (2,), (3,), (6,), (7,), (1, 1), (2, 2), (3, 4), (4, 5), (1, 1, 1), (2, 3, 4),
          (3, 1, 5), (2, 2, 2)]
MATCH = settings(derandomize=True, database=None, deadline=None, max_examples=6)


def written_values(series) -> np.ndarray:
    """The values a TimeSeries table writes, one row of the grid's cells
    per time, drawn from the series: a momentum row completed to the full
    spectrum and written exactly Hermitian, taking at k and -k the real part
    of whichever comes first in C order (the two differ only where the half
    spectrum holds both)."""
    values = np.real(full_values(series)).reshape(-1, math.prod(series.shape))
    if series.rep == POSITION:
        return values
    idx = np.indices(series.shape).reshape(len(series.shape), -1)
    mirror = np.ravel_multi_index(tuple(-i % n for i, n in zip(idx, series.shape)), series.shape)
    return values[:, np.minimum(np.arange(values.shape[1]), mirror)]


def series_csv_reference(series):
    """TimeSeries.csv as the per-row writer wrote it: one f-string per row
    of written_values."""
    g = FieldGrid(series.box, np.zeros(series.shape))
    pos = series.rep == POSITION
    cols = ",".join(f"x{i}" if pos else f"k{i}" for i in range(g.dim))
    labels = point_labels(g.axes() if pos else g.kaxes())
    return f"t,{cols},value\n" + "".join(
        "\n".join(table_rows(repr(float(t)), labels, v)) + "\n"
        for t, v in zip(series.times, written_values(series)))


def grid_csv_reference(report):
    lines = ["name,index,value"]
    for name in sorted(report.fields):
        fg = report.fields[name]
        lines += table_rows(name, point_labels([np.arange(n) for n in fg.shape], ":"), fg.values)
    return "\n".join(lines) + "\n"


def density_table_reference(spec, times, evaluate, tag=""):
    tag = f"{tag}," if tag else ""
    lines = [f"# model,{spec.kind},{tag}t={','.join(repr(float(t)) for t in times)}",
             f"t,{','.join(f'x{i}' for i in range(max(spec.d, 1)))},value"]
    for t in times:
        res = evaluate(t)
        for fg in res if isinstance(res, tuple) else (res,):
            if not isinstance(fg, FieldGrid):
                lines.append(f"{float(t)!r},0,{float(fg)!r}")
                continue
            lines += table_rows(repr(float(t)), point_labels(fg.axes()), fg.values)
    return "\n".join(lines) + "\n"


def box_of(shape):
    return tuple(1.5 * n + 0.25 for n in shape)


def field(data, shape):
    return data.draw(arrays(np.float64, shape, elements=VALUES))


def complex_field(data, shape):
    out = np.empty(shape, complex)
    out.real, out.imag = field(data, shape), field(data, shape)
    return out


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@MATCH
@given(data=st.data())
def test_time_series_bytes_match_the_per_row_writer(shape, data):
    times = tuple(data.draw(st.lists(VALUES, min_size=1, max_size=4)))
    half = (*shape[:-1], shape[-1] // 2 + 1)
    pos = np.stack([field(data, shape) for _ in times])
    mom = np.stack([complex_field(data, half) for _ in times])
    for series in (TimeSeries(times, box_of(shape), shape, POSITION, pos),
                   TimeSeries(times, box_of(shape), shape, MOMENTUM, mom)):
        assert series.csv() == series_csv_reference(series)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@MATCH
@given(data=st.data())
def test_grid_and_density_tables_match_the_per_row_writer(shape, data):
    names = data.draw(st.lists(st.sampled_from(["density", "density_b", "density_se", "%s"]),
                               min_size=1, max_size=3, unique=True))
    fields = {n: FieldGrid(box_of(shape), field(data, shape)) for n in names}
    report = EstimatorReport(fields=fields, scalars={}, replicas=1)
    assert report.grid_csv() == grid_csv_reference(report)

    spec = ModelSpec.from_json(json.dumps({"kind": "DeathDiffusion", "box": list(box_of(shape)),
                                           "shape": list(shape), "rates": {"mu": 1.0}, "v": 1.0}))
    times = data.draw(st.lists(VALUES, min_size=1, max_size=3))
    results = []
    for _ in times:  # a grid, a pair of grids (ConvertAB) or a scalar (DiscreteDeath)
        grids = tuple(spec.grid().with_values(field(data, shape)) for _ in range(2))
        results.append(data.draw(st.sampled_from([grids[0], grids, float(data.draw(VALUES))])))

    def replay():
        it = iter(results)
        return lambda t: next(it)

    assert (density_table(spec, times, replay(), "tag")
            == density_table_reference(spec, times, replay(), "tag"))


def test_dyson_rows_write_each_real_part_as_its_mirror():
    """Every Dyson row, t = 0 included, writes Re X(-k) as the same string
    as Re X(k) at every cell.  Where the Hermitian completion of the stored
    half spectrum fills the cell (last-axis index above n // 2), the string
    is spread from the mirror.  The t = 0 row was once the fftn of the
    initial intensity, whose mirrored real parts differ in the last bits on
    these grids.  Where k and -k both lie in the half spectrum (last-axis
    index 0, and n / 2 on an even last axis, in 2-D), both are solved and
    differ in the last bits, so both take the string of the first in C
    order.  Even and odd last axes."""
    for shape in ((16,), (9, 7), (6, 8)):
        d = len(shape)
        spec = ModelSpec.from_json(json.dumps({
            "kind": "Annihilation", "box": list(BOX[:d]), "shape": list(shape), "D": 0.7,
            "rates": {"R": 0.3},
            "v": {"expr": "gaussian", "mass": 7.0, "width": 1.3, "center": [4.0, 2.5][:d]}}))
        _, rows = body(dyson_tree_density(spec, 0.1, 4).csv(), 1)
        idx = np.indices(shape).reshape(d, -1)
        mirror = np.ravel_multi_index(tuple(-i % m for i, m in zip(idx, shape)), shape)
        n = math.prod(shape)
        assert len(rows) == 5 * n
        for k in range(5):
            values = [row[-1] for row in rows[k * n:(k + 1) * n]]
            assert values == [values[j] for j in mirror], k
        if d > 1:  # the solved pairs do differ, or the test shows nothing
            fields = full_values(dyson_tree_density(spec, 0.1, 4))
            re = np.real(fields).reshape(5, n)
            assert np.any(re != re[:, mirror]), shape


def test_time_series_refuses_fields_of_another_layout():
    """A momentum series holds half spectra, a position series whole grids,
    and it has one field per time."""
    times, shape = (0.0, 1.0), (4, 6)
    with pytest.raises(ValueError, match="shape"):
        TimeSeries(times, box_of(shape), shape, MOMENTUM, np.zeros((2, 4, 6), complex)).csv()
    with pytest.raises(ValueError, match="shape"):
        TimeSeries(times, box_of(shape), shape, POSITION, np.zeros((2, 4, 4))).csv()
    with pytest.raises(ValueError, match="shorter"):
        TimeSeries(times, box_of(shape), shape, POSITION, np.zeros((1, 4, 6))).csv()


@pytest.mark.parametrize("rep", ["Position", "MOMENTUM", "", None])
def test_time_series_refuses_an_unknown_representation(rep):
    """A rep other than POSITION or MOMENTUM is refused when the series is
    made, not written as a momentum table."""
    shape = (4, 6)
    with pytest.raises(ValueError, match="unknown representation"):
        TimeSeries((0.0,), box_of(shape), shape, rep, np.zeros((1, *shape)))


# ---------------------------------------------------------------------------
# Tables streamed through forked formatters (grid.stream_rows)
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def counted_forks():
    """os.fork, recording each child's pid in the yielded list."""
    real, forks = os.fork, []

    def fork():
        pid = real()
        if pid:
            forks.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", fork)
        yield forks


@contextlib.contextmanager
def live_children():
    """os.fork and os.waitpid, tracking the children forked and not yet
    reaped; yields a dict whose "most" is the largest number alive at once
    and "forks" the number forked."""
    real_fork, real_wait, live = os.fork, os.waitpid, set()
    seen = {"most": 0, "forks": 0}

    def fork():
        pid = real_fork()
        if pid:
            live.add(pid)
            seen["forks"] += 1
            seen["most"] = max(seen["most"], len(live))
        return pid

    def waitpid(pid, options):
        got = real_wait(pid, options)
        live.discard(got[0])
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", fork)
        mp.setattr(os, "waitpid", waitpid)
        yield seen


def assert_no_children():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds():
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0


def assert_same_text(got, want):
    """got == want, else the first line that differs (pytest's own diff of
    tables this size takes minutes)."""
    if got != want:
        lines = enumerate(zip_longest(got.split("\n"), want.split("\n")))
        i, (a, b) = next((i, pair) for i, pair in lines if pair[0] != pair[1])
        pytest.fail(f"line {i}: {a!r} != {b!r}")


def drawn_series(rep, shape, times, seed):
    """A series of len(times) fields on `shape` whose values mix SPECIAL with
    normal draws scaled by powers of two from 2^-64 to 2^63."""
    rng = np.random.default_rng(seed)
    held = shape if rep == POSITION else (*shape[:-1], shape[-1] // 2 + 1)

    def draw(dtype=float):
        size = (len(times), *held)
        v = np.empty(size, dtype)
        for part in (v.real, v.imag) if dtype == complex else (v,):
            part[...] = rng.standard_normal(size) * np.exp2(rng.integers(-64, 64, size))
            part.flat[rng.integers(0, v.size, 16)] = rng.choice(SPECIAL, 16)
        return v

    values = draw(float if rep == POSITION else complex)
    return TimeSeries(times, box_of(shape), shape, rep, values)


def large_series(rep=MOMENTUM, shape=(64,), rows=1001):
    return drawn_series(rep, shape, tuple(i * 1e-3 for i in range(rows)), 7)


def streamed(series, spin=0.0, fail_after=None, exc=ValueError):
    """`series` with its fields drawn from a generator, as a solver hands
    them over: each after `spin` seconds of work, and `exc` in place of
    field number `fail_after`."""

    def fields():
        for i, x in enumerate(series.fields):
            if i == fail_after:
                raise exc("the solve failed")
            stop = time.perf_counter() + spin
            while time.perf_counter() < stop:
                pass
            yield x

    return dataclasses.replace(series, fields=fields())


@pytest.mark.parametrize("rows, side, dim", [(1, -1, 1), (1, 0, 2), (1, 1, 1), (2, -1, 2),
                                             (2, 0, 1), (2, 1, 2), (3, -1, 1), (5, 1, 2)])
@settings(derandomize=True, database=None, deadline=None, max_examples=2)
@given(seed=st.integers(0, 2 ** 32 - 1), data=st.data())
def test_split_tables_match_the_per_row_writer(rows, side, dim, seed, data):
    """Tables just under (side -1), at (0) and just over (+1) SPLIT_CELLS
    cells, with 1, 2 and odd row counts, position and momentum series, on
    1-D and 2 x m grids with odd and even last axes: the bytes of the
    per-row writer, formatted by a forked child from SPLIT_CELLS cells on
    and in this process below.  An odd row count cannot hit SPLIT_CELLS exactly."""
    width = (SPLIT_CELLS + side) // rows if side <= 0 else SPLIT_CELLS // rows + 1
    shape = (width,) if dim == 1 else (2, width // 2 if side <= 0 else -(-width // 2))
    times = tuple(data.draw(st.lists(VALUES, min_size=rows, max_size=rows)))
    for rep in (POSITION, MOMENTUM):
        series = drawn_series(rep, shape, times, seed)
        with counted_forks() as forks:
            text = series.csv()
        assert len(forks) == (rows * math.prod(shape) >= SPLIT_CELLS)
        assert_same_text(text, series_csv_reference(series))
    assert_no_children()


BLOCK = SPLIT_CELLS // 64  # rows of 64 cells from which on the writer forks a child


@pytest.mark.parametrize("rows, forks", [(BLOCK - 1, 0), (BLOCK, 1), (BLOCK + 1, 1),
                                         (BLOCK + 2, 1), (6 * BLOCK + 5, None)])
def test_streamed_tables_match_the_per_row_writer(rows, forks):
    """Rows of 64 cells drawn from a generator, at one block of SPLIT_CELLS
    cells, one block and one row either side of it, just past it, and over
    several blocks (a child that falls behind and holds the rows back):
    the bytes of the per-row writer.  Below one block, this process formats
    the table; from one block on, one child is forked before the first row
    and formats every piece."""
    for rep in (POSITION, MOMENTUM):
        series = large_series(rep, rows=rows)
        with counted_forks() as got:
            text = streamed(series).csv()
        assert forks is None or len(got) == forks
        assert_same_text(text, series_csv_reference(series))
    assert_no_children()


def test_streamed_table_yields_nothing_before_the_last_field(tmp_path, capsysbinary):
    """No byte reaches the destination or stdout before every field has
    been drawn and formatted, so a solve that fails part-way publishes no
    byte: with --out, the formatter writes a temp file that is renamed into
    place once whole; without it, an anonymous temp file that is copied to
    stdout once whole."""
    series = large_series(rows=BLOCK + 100)
    dest = tmp_path / "x.csv"
    seen = []

    def fields():
        for x in series.fields:
            seen.append((dest.exists(), capsysbinary.readouterr().out))
            yield x

    printed = b""
    for out in (None, str(dest)):
        observed = dataclasses.replace(series, fields=fields())
        cli._emit(argparse.Namespace(out=out), "perturb", {}, {"": observed.write})
        assert seen == [(False, b"")] * (BLOCK + 100)
        seen.clear()
        printed += capsysbinary.readouterr().out
        assert_no_children()
    assert printed.startswith(b"t,k0,value\n") and printed.count(b"\n") == 1 + (BLOCK + 100) * 64
    assert printed == dest.read_bytes()


@pytest.mark.parametrize("spin", [0.0, 20e-6])
def test_streamed_table_keeps_one_child(spin):
    """One formatter child is forked for a table, and it is the only child
    alive (forked and not reaped) at any moment, whether the fields come at
    once (the child falls behind and its full pipe holds the solve back) or
    after some work each (the child keeps up)."""
    series = large_series(rows=4000)
    with live_children() as seen:
        text = streamed(series, spin).csv()
    assert seen["most"] == seen["forks"] == 1
    assert_same_text(text, series_csv_reference(series))
    assert_no_children()


@pytest.mark.parametrize("fork", [True, False], ids=["fork", "no-fork"])
def test_split_table_rows_are_formatted_in_one_process(monkeypatch, fork):
    """A 3,001 x 64 momentum table whose fields come at once: with a
    formatter child, this process formats no row, however far the child
    falls behind; without os.fork, it formats every row.  reprs formats a
    piece of rows per call, so the rows of the pieces it gets are counted."""
    parent, real, here = os.getpid(), perturb.reprs, []

    def reprs(values):
        if os.getpid() == parent:
            here.append(len(values))
        return real(values)

    series = large_series(rows=3001)
    want = series_csv_reference(series)
    monkeypatch.setattr(perturb, "reprs", reprs)
    if not fork:
        monkeypatch.delattr(os, "fork")
    assert_same_text(streamed(series).csv(), want)
    assert sum(here) == (0 if fork else 3001)
    assert_no_children()


def test_split_table_leaves_no_process():
    """The formatter child is reaped, and both its pipes and every temp file
    closed, after a full write, after an exception from the fields with the
    child busy (KeyboardInterrupt too), and when the first call after fork
    returns in this process raises."""
    series = large_series(rows=3000)
    fds = open_fds()
    with counted_forks() as forks:
        whole = series.csv()
        assert_no_children()
        for exc in (ValueError, KeyboardInterrupt):
            with pytest.raises(exc, match="the solve failed"):
                streamed(series, fail_after=2 * BLOCK, exc=exc).csv()
            assert_no_children()
    assert len(forks) == 3
    assert open_fds() == fds

    real_close, parent = os.close, os.getpid()
    calls = []

    def close(fd):
        calls.append(fd)
        if os.getpid() == parent and len(calls) == 1:
            raise OSError("close failed")
        real_close(fd)

    with counted_forks() as forks, pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "close", close)
        with pytest.raises(OSError, match="close failed"):
            series.csv()
    assert len(forks) == 1
    assert_no_children()
    assert open_fds() == fds + 1  # the pipe end whose close failed
    real_close(calls[0])
    assert_same_text(series.csv(), whole)


def test_split_table_raises_when_its_child_fails(monkeypatch):
    """A child that fails exits 1, and the writer raises RuntimeError
    instead of returning a digest, so the table is never published: when
    the child's writes fail, and when its pipe reader fails before it reads
    anything, so the pieces this process sends hit a closed pipe."""
    parent, real = os.getpid(), os.write

    def write(fd, data):
        if os.getpid() != parent:
            raise MemoryError
        return real(fd, data)

    def received(r):
        raise MemoryError

    fds = open_fds()
    for module, name, fake, series in (
            (os, "write", write, large_series()),
            (os, "write", write, streamed(large_series(rows=3000), 20e-6)),
            (grid, "_received", received, large_series(rows=3001))):
        with monkeypatch.context() as mp:
            mp.setattr(module, name, fake)
            with pytest.raises(RuntimeError, match="exit code 1"):
                series.csv()
        assert_no_children()
    assert open_fds() == fds


def test_split_table_without_fork_has_the_same_bytes(monkeypatch):
    """Where os.fork does not exist, the table is formatted in this
    process, one piece at a time as each fills."""
    for series in (large_series(), large_series(POSITION, (6, 9), 700),
                   large_series(rows=3000)):
        whole = series.csv()
        with monkeypatch.context() as mp:
            mp.delattr(os, "fork")
            assert_same_text(streamed(series).csv(), whole)
        assert_same_text(whole, series_csv_reference(series))


@pytest.mark.parametrize("fork", [True, False], ids=["fork", "no-fork"])
def test_streamed_table_memory_does_not_grow_with_the_table(monkeypatch, tmp_path, fork):
    """Writing a 3,001 x 64 position table (192,064 cells) whose fields come
    from a generator into a file peaks under 320 KiB of traced memory, with
    a formatter child and without one: the writer holds a piece of rows at a
    time, not the rows a busy child has not taken."""
    import tracemalloc

    series = streamed(large_series(POSITION, rows=3001))
    if not fork:
        monkeypatch.delattr(os, "fork")
    with open(tmp_path / "x.csv", "wb") as f:
        tracemalloc.start()
        try:
            series.write(f.fileno())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 320 * 1024, peak
    assert_no_children()


# The numpy formatter behind grid.reprs: repr's bytes, from Ryu's digits.

SUBNORMAL_TOP = float(np.nextafter(2.2250738585072014e-308, 0))  # the largest subnormal
FIXED_CASES = (0.0, math.inf, math.nan, 5e-324, SUBNORMAL_TOP, 2.2250738585072014e-308,
               1.7976931348623157e308, 1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05)


def formatted_as_repr(values) -> None:
    """grid.reprs of `values`, at least floatrepr._FEWEST of them so numpy
    formats them, is the bytes of the per-row reference writer."""
    values = np.asarray(values, dtype=float)
    assert values.size >= floatrepr._FEWEST
    labels = [str(i) for i in range(values.size)]
    got = grid.table_block(labels)("t", grid.reprs(values))
    assert_same_text(got, "\n".join(table_rows("t", labels, values)) + "\n")


def test_formatter_writes_the_fixed_cases_as_repr():
    """+-0.0, +-inf, nan, the smallest subnormal, the largest subnormal and
    the smallest normal, the largest double, every power of 2 and of 10 in
    range, and the thresholds of fixed notation (1e-4 <= |x| < 1e16), with
    both signs."""
    powers = [2.0 ** k for k in range(-1074, 1024)] + [float(f"1e{k}") for k in range(-323, 309)]
    values = np.array(FIXED_CASES + tuple(powers))
    formatted_as_repr(np.concatenate([values, -values]))


def test_formatter_matches_repr_on_a_million_random_doubles():
    """2^20 seeded random doubles with random signs and significands,
    compared with repr in pieces of 2^16: 16 at each of the 2,048 binary
    exponents (subnormals, inf and nan payloads too), the rest with
    exponents in -128..127, where repr is quick."""
    rng = np.random.default_rng(20181)
    n = 2 ** 20
    exponent = np.concatenate([np.repeat(np.arange(2048), 16),
                               rng.integers(1023 - 128, 1023 + 128, n - 16 * 2048)])
    bits = rng.integers(0, 2 ** 52, n, dtype=np.uint64)
    bits |= exponent.astype(np.uint64) << 52
    bits |= rng.integers(0, 2, n, dtype=np.uint64) << 63
    for piece in np.split(bits.view(np.float64), 16):
        wrong = [(got, want) for got, want in zip(grid.reprs(piece), map(repr, piece.tolist()))
                 if got != want]
        assert not wrong, wrong[:5]


def test_formatter_leaves_short_decimals_to_repr():
    """floatrepr._shortest flags no ordinary double, so numpy writes them, and
    flags every short decimal, where a bound can be exact, so repr writes
    those: integers below 2^53, k * 2^j for k < 2^10 and j in -20..64, and
    values in 1e15..1e22.  It takes finite nonzero bits only."""
    rng = np.random.default_rng(36)
    ordinary = np.abs(rng.standard_normal(2 ** 16))
    assert not floatrepr._shortest(ordinary.view(np.uint64))[2].any()
    k, j = np.meshgrid(np.arange(1, 2 ** 10), np.arange(-20, 65))
    short = np.concatenate([rng.integers(1, 2 ** 53, 2 ** 12).astype(float),
                            np.ldexp(k.astype(float), j).ravel(),
                            10 ** rng.uniform(15, 22, 2 ** 12)])
    assert floatrepr._shortest(short.view(np.uint64))[2].all()


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.lists(st.floats(width=64), min_size=1, max_size=40))
def test_formatter_matches_repr_on_any_floats(values):
    formatted_as_repr(np.resize(np.array(values), floatrepr._FEWEST))


def test_small_tables_cost_no_setup():
    """Importing the CLI builds no formatter table, and neither does
    formatting a 128-value table (mc-death-diffusion writes three), which
    repr writes."""
    code = ("import numpy as np, rdito.cli\n"
            "from rdito import floatrepr, grid\n"
            "assert floatrepr._tables.cache_info().currsize == 0\n"
            "x = np.random.default_rng(1).standard_normal(128) * 1e-3\n"
            "assert grid.reprs(x) == tuple(map(repr, x.tolist()))\n"
            "assert floatrepr._tables.cache_info().currsize == 0\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    assert res.returncode == 0, res.stderr
