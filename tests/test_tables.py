"""What every CSV table writer must keep: one row per grid point and time, C
order, coordinates equal to the grid's axes, values that round-trip exactly."""

import json
import math

import numpy as np

from rdito.grid import FieldGrid, POSITION
from rdito.models import ModelSpec, convert_ab_densities, density, density_csv
from rdito.perturb import dyson_tree_density, mean_field_pde
from rdito.simulate import EstimatorReport

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
    for series, cols, axes_of in (
        (mean_field_pde(spec, 0.1, 3), "t,x0,x1,value", FieldGrid.axes),
        (dyson_tree_density(spec, 0.1, 3), "t,k0,k1,value", FieldGrid.kaxes),
    ):
        head, rows = body(series.csv(), 1)
        assert head == [cols]
        assert len(rows) == len(series.times) * n
        for k, (t, values) in enumerate(zip(series.times, series.values)):
            fg = FieldGrid(series.box, values, series.rep)
            check_block(rows[k * n:(k + 1) * n], t, axes_of(fg), np.real(values))


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
