"""What every CSV table writer must keep: one row per grid point and time, C
order, coordinates equal to the grid's axes, values that round-trip exactly,
and the bytes of the per-row reference writer in oracles.table_rows."""

import contextlib
import dataclasses
import json
import math
import os
import time
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from rdito.grid import MOMENTUM, SPLIT_CELLS, FieldGrid, POSITION, point_labels
from rdito.models import ModelSpec, convert_ab_densities, density, density_csv, density_table
from rdito.perturb import TimeSeries, dyson_tree_density, mean_field_pde
from rdito.simulate import EstimatorReport
from oracles import full_values, table_rows

BOX, SHAPE = (10.0, 6.0), (5, 3)


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
            fg = FieldGrid(series.box, values.reshape(SHAPE), series.rep)
            check_block(rows[k * n:(k + 1) * n], t, axes_of(fg), fg.values)


def test_grid_csv_2d_rows():
    rng = np.random.default_rng(0)
    fields = {name: FieldGrid(BOX, rng.random(SHAPE) * 1e3, POSITION)
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
    g = FieldGrid(series.box, np.zeros(series.shape), series.rep)
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
    fields = {n: FieldGrid(box_of(shape), field(data, shape), POSITION) for n in names}
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


def streamed(series, spin=0.0, fail_after=None):
    """`series` with its fields drawn from a generator, as a solver hands
    them over: each after `spin` seconds of work, and ValueError in place
    of field number `fail_after`."""

    def fields():
        for i, x in enumerate(series.fields):
            if i == fail_after:
                raise ValueError("the solve failed")
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
    per-row writer, formatted in two processes from SPLIT_CELLS cells on
    and in this one below.  An odd row count cannot hit SPLIT_CELLS exactly."""
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


BLOCK = SPLIT_CELLS // 64  # rows of 64 cells in which the writer forks its first child


@pytest.mark.parametrize("rows, forks", [(BLOCK - 1, 0), (BLOCK, 1), (BLOCK + 1, 1),
                                         (BLOCK + 2, 1), (6 * BLOCK + 5, None)])
def test_streamed_tables_match_the_per_row_writer(rows, forks):
    """Rows of 64 cells drawn from a generator, at one block of SPLIT_CELLS
    cells, one block and one row either side of it, just past it, and over
    several blocks (a first child, and pieces formatted here while the
    child has two waiting): the bytes of the per-row writer.  Below one
    block, one process formats the table; from one block on, one child is
    forked when the first piece fills and takes each piece it has room for."""
    for rep in (POSITION, MOMENTUM):
        series = large_series(rep, rows=rows)
        with counted_forks() as got:
            text = streamed(series).csv()
        assert forks is None or len(got) == forks
        assert_same_text(text, series_csv_reference(series))
    assert_no_children()


def test_streamed_table_yields_nothing_before_the_last_field():
    """The header comes only once every field has been drawn and formatted,
    so a solve that fails part-way writes no byte."""
    series = large_series(rows=BLOCK + 100)
    drawn = []

    def fields():
        for x in series.fields:
            drawn.append(x)
            yield x

    chunks = dataclasses.replace(series, fields=fields()).csv_chunks()
    assert next(chunks).startswith("t,k0,value") and len(drawn) == BLOCK + 100
    chunks.close()
    assert_no_children()


@pytest.mark.parametrize("spin", [0.0, 20e-6])
def test_streamed_table_keeps_one_child(spin):
    """One formatter child is forked for a table, and it is the only child
    alive (forked and not reaped) at any moment, whether the fields come at
    once (the child falls behind and this process formats pieces too) or
    after some work each (the child keeps up)."""
    series = large_series(rows=4000)
    with live_children() as seen:
        text = streamed(series, spin).csv()
    assert seen["most"] == seen["forks"] == 1
    assert_same_text(text, series_csv_reference(series))
    assert_no_children()


def test_split_table_leaves_no_process():
    """The formatter child is reaped, and every temp file closed, after a
    full write, after the consumer closes the stream after its header or
    mid-way, after an exception thrown into the stream mid-way
    (KeyboardInterrupt too), when the solve fails with the child busy, and
    when the first call after fork returns in this process raises."""
    series = large_series(rows=3000)
    fds = open_fds()
    with counted_forks() as forks:
        whole = series.csv()
        assert_no_children()
        for reads in (1, 2):
            chunks = series.csv_chunks()
            for _ in range(reads):
                next(chunks)
            chunks.close()
            assert_no_children()
        for exc in (ValueError, KeyboardInterrupt):
            chunks = series.csv_chunks()
            next(chunks), next(chunks)
            with pytest.raises(exc):
                chunks.throw(exc)
            assert_no_children()
        with pytest.raises(ValueError, match="the solve failed"):
            streamed(series, fail_after=2 * BLOCK).csv()
        assert_no_children()
    assert len(forks) == 6
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
    """A child that fails exits 1; the stream raises RuntimeError before
    it yields anything, instead of ending short."""
    parent, real = os.getpid(), os.write

    def write(fd, data):
        if os.getpid() != parent:
            raise MemoryError
        return real(fd, data)

    monkeypatch.setattr(os, "write", write)
    for series in (large_series(), streamed(large_series(rows=3000), 20e-6)):
        got = []
        with pytest.raises(RuntimeError, match="exit code 1"):
            got.extend(series.csv_chunks())
        assert got == []
        assert_no_children()


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
def test_streamed_table_memory_does_not_grow_with_the_table(monkeypatch, fork):
    """Draining the chunks of a 3,001 x 64 position table (192,064 cells)
    whose fields come from a generator, without joining them, peaks under
    320 KiB of traced memory, with a formatter child and without one: the
    writer holds a piece of rows at a time, not the rows a busy child has
    not taken."""
    import tracemalloc

    series = streamed(large_series(POSITION, rows=3001))
    if not fork:
        monkeypatch.delattr(os, "fork")
    tracemalloc.start()
    try:
        for _ in series.csv_chunks():
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 320 * 1024, peak
    assert_no_children()
