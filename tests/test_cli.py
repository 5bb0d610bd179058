"""Tests for the command-line interface: exit codes, artifacts, manifests."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rdito import algebra
from rdito.cli import main

L, N = 10.0, 32
SRC = Path(__file__).resolve().parents[1] / "src"


def model_obj(kind="DeathDiffusion", **kw):
    obj = {
        "kind": kind,
        "box": [L],
        "shape": [N],
        "D": kw.get("D", 1.0),
        "rates": kw.get("rates", {"mu": 1.0}),
        "v": kw.get("v", {"expr": "gaussian", "mass": 20.0, "width": 1.0, "center": [L / 2]}),
    }
    return obj


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def one_line_error(capsys):
    """The captured stderr, checked to be a single `error: ...` line, with
    absolute paths cut out: tmp_path holds the test's name and parameters."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return " ".join(w for w in err.split() if not w.startswith(os.sep))


def fresh_python(code, cwd, timeout=120):
    """Run `code` in a new interpreter with src/ on the path; a hang fails
    the test instead of stalling the suite."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=timeout)


def read_rows(path):
    rows = []
    for line in path.read_text().strip().split("\n"):
        if line.startswith("#") or line.split(",")[0] in ("t", "name"):
            continue
        rows.append(line.split(","))
    return rows


class TestDeriveTable:
    def test_table1_matches_engine(self, tmp_path, capsys):
        out = tmp_path / "tab"
        assert main(["derive-table", "A", "Adag", "Lambda", "dt", "--out", str(out)]) == 0
        data = json.loads((tmp_path / "tab.json").read_text())
        assert len(data["entries"]) == 16
        fams = [algebra.make_family(n) for n in ("A", "Adag", "Lambda", "dt")]
        assert (tmp_path / "tab.json").read_text() == algebra.derive_table(fams).render_json()
        assert (tmp_path / "tab.txt").read_text() == algebra.derive_table(fams).render_text()

    def test_table2_and_table3(self, tmp_path):
        out2 = tmp_path / "t2"
        assert main(["derive-table", "M", "Lambda", "--out", str(out2)]) == 0
        assert len(json.loads((tmp_path / "t2.json").read_text())["entries"]) == 4
        out3 = tmp_path / "t3"
        assert main(["derive-table", "X", "Y", "--out", str(out3)]) == 0
        assert len(json.loads((tmp_path / "t3.json").read_text())["entries"]) == 4

    def test_unknown_family_usage_error(self, capsys):
        assert main(["derive-table", "Qux"]) == 2
        assert "unknown noise family" in capsys.readouterr().err

    def test_stdout_when_no_out(self, capsys):
        assert main(["derive-table", "A", "Adag"]) == 0
        assert "dAdag" in capsys.readouterr().out


class TestDensity:
    def test_t0_equals_initial_samples(self, tmp_path):
        model = write_json(tmp_path / "m.json", model_obj())
        out = tmp_path / "d.csv"
        assert main(["density", model, "--t", "0.0", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == N
        from rdito.models import ModelSpec

        spec = ModelSpec.from_json((tmp_path / "m.json").read_text())
        assert np.allclose([float(r[2]) for r in rows], spec.grid().values)

    def test_brownian_tree_static_growth(self, tmp_path):
        model = write_json(tmp_path / "m.json", model_obj("BrownianTree", D=0.0,
                                                          rates={"mu": 0.5}))
        out = tmp_path / "d.csv"
        assert main(["density", model, "--t", "0.0", "2.0", "--out", str(out)]) == 0
        rows = read_rows(out)
        v0 = np.array([float(r[2]) for r in rows[:N]])
        v2 = np.array([float(r[2]) for r in rows[N:]])
        assert np.allclose(v2, v0 * math.exp(0.5 * 2.0), rtol=1e-12)

    def test_malformed_json_diagnostics(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "DeathDiffusion",\n  broken}')
        assert main(["density", str(bad), "--t", "0.1"]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_missing_args_usage_exit(self, tmp_path):
        model = write_json(tmp_path / "m.json", model_obj())
        with pytest.raises(SystemExit) as e:
            main(["density", model])
        assert e.value.code == 2

    @pytest.mark.parametrize("v", [[1, 2], "gaussian"])
    def test_non_object_field_spec_usage_exit(self, tmp_path, capsys, v):
        model = write_json(tmp_path / "m.json", model_obj(v=v))
        assert main(["density", model, "--t", "0.1"]) == 2
        assert one_line_error(capsys)

    @pytest.mark.parametrize("v", [
        {"width": -1.0}, {"mass": math.nan}, {"mass": math.inf}, {"mass": 0.0},
        {"center": [1.0, 2.0]}, {"center": []},
    ])
    def test_bad_gaussian_usage_exit(self, tmp_path, capsys, v):
        model = write_json(tmp_path / "m.json", model_obj(v={"expr": "gaussian", **v}))
        assert main(["density", model, "--t", "0.1"]) == 2
        assert "gaussian" in one_line_error(capsys)

    @pytest.mark.parametrize("change, flag", [
        ({"v": {"expr": "gaussian", "width": 0.0}}, "width"),
        ({"v": {"expr": "gaussian", "width": math.nan}}, "width"),
        ({"v": {"expr": "gaussian", "center": [math.nan]}}, "center"),
        ({"box": [math.nan]}, "box"), ({"box": [math.inf]}, "box"),
    ])
    def test_degenerate_gaussian_does_not_hang(self, tmp_path, change, flag):
        """wrapped_gaussian's image sum never converges on a NaN profile, so
        the command runs in its own process under a timeout."""
        model = write_json(tmp_path / "m.json", {**model_obj(), **change})
        res = fresh_python("import sys; from rdito.cli import main; "
                           f"sys.exit(main(['density', {model!r}, '--t', '0.1']))",
                           tmp_path, timeout=30)
        assert res.returncode == 2
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1, res.stderr
        assert flag in res.stderr.split("m.json: ")[-1]

    @pytest.mark.parametrize("box, shape", [
        ([L], [0]), ([L], [2.5]), ([L], [True]), ([0.0], [N]), ([-L], [N]),
    ])
    def test_bad_geometry_usage_exit(self, tmp_path, capsys, box, shape):
        obj = {**model_obj(v={"expr": "uniform", "const": 1.0}), "box": box, "shape": shape}
        model = write_json(tmp_path / "m.json", obj)
        assert main(["density", model, "--t", "0.1"]) == 2
        err = one_line_error(capsys)
        assert "box" in err or "shape" in err

    @pytest.mark.parametrize("mu", ["fast", [2.0]])
    def test_non_numeric_rate_usage_exit(self, tmp_path, capsys, mu):
        model = write_json(tmp_path / "m.json", model_obj(rates={"mu": mu}))
        assert main(["density", model, "--t", "0.1"]) == 2
        assert "rate" in one_line_error(capsys)

    @pytest.mark.parametrize("change, flag", [
        ({"v": {"table": [1.0, math.nan] + [1.0] * (N - 2)}}, "intensity v"),
        ({"v": {"table": [1.0, math.inf] + [1.0] * (N - 2)}}, "intensity v"),
        ({"kind": "ConvertAB", "vb": {"table": [1.0, -1.0] + [1.0] * (N - 2)}}, "intensity vb"),
        ({"kind": "ConvertAB", "vb": {"table": [math.nan] * N}}, "intensity vb"),
        ({"rates": {"mu": {"table": [1.0, math.nan] + [1.0] * (N - 2)}}}, "rate samples"),
        ({"rates": {"mu": math.nan}}, "rate constant"),
        ({"rates": {"mu": {"const": math.inf}}}, "rate constant"),
    ])
    def test_non_finite_or_negative_table_usage_exit(self, tmp_path, capsys, change, flag):
        model = write_json(tmp_path / "m.json", {**model_obj(), **change})
        assert main(["density", model, "--t", "0.1"]) == 2
        assert flag in one_line_error(capsys)

    @pytest.mark.parametrize("change, flag", [
        ({"D": math.nan}, "D must be finite"), ({"D": math.inf}, "D must be finite"),
        ({"vb": {"expr": "uniform", "const": 1.0}}, "vb is for ConvertAB only"),
    ])
    def test_bad_model_usage_exit(self, tmp_path, change, flag):
        """A NaN D wrote nan rows, and fn took its D = 0 branch, with exit 0;
        on an infinite D simulate cast NaN positions to cells and fn never
        returned (so the commands run in their own process under a timeout);
        a vb outside ConvertAB was ignored."""
        model = write_json(tmp_path / "m.json", {**model_obj(), **change})
        sim = write_json(tmp_path / "s.json", {"dt": 0.01, "replicas": 10, "seed": 1})
        runs = [["density", model, "--t", "0.1"], ["gf", model, "--t", "0.1"],
                ["fn", model, "--t", "0.1", "--points", "5.0"],
                ["simulate", model, sim, "--t-end", "0.1", "--out", str(tmp_path / "x")]]
        res = fresh_python(f"from rdito.cli import main; print([main(a) for a in {runs!r}])",
                           tmp_path, timeout=60)
        assert res.stdout.splitlines()[-1:] == ["[2, 2, 2, 2]"], res.stderr
        errors = res.stderr.splitlines()
        assert len(errors) == 4 and all(e.startswith("error: ") and flag in e for e in errors)
        assert not list(tmp_path.glob("x*"))

    def test_cell_average_of_tabulated_rate_usage_exit(self, tmp_path, capsys):
        """--cell-average refines the grid, which a rate table cannot follow."""
        model = write_json(tmp_path / "m.json", model_obj(
            "BirthDeathTimeDep", v={"expr": "uniform", "const": 1.0},
            rates={"mu": {"const": 2.0, "expr": "sin2", "table": [1.0 + (i % 3) for i in range(N)]}}))
        assert main(["density", model, "--t", "0.8", "--cell-average", "--refine", "2"]) == 2
        assert "tabulated rate" in one_line_error(capsys)
        assert main(["density", model, "--t", "0.8"]) == 0

    @pytest.mark.parametrize("refine", ["0", "-2"])
    def test_bad_refine_usage_exit(self, tmp_path, capsys, refine):
        model = write_json(tmp_path / "m.json", model_obj())
        assert main(["density", model, "--t", "0.1", "--cell-average",
                     "--refine", refine]) == 2
        assert "--refine" in one_line_error(capsys)


class TestGfFn:
    def test_gf_conservation_at_unit_u(self, tmp_path, capsys):
        model = write_json(tmp_path / "m.json", model_obj())
        assert main(["gf", model, "--t", "0.3", "0.9"]) == 0
        rows = [l.split(",") for l in capsys.readouterr().out.strip().split("\n")[1:]]
        assert all(abs(float(v)) <= 1e-9 for _, v in rows)

    def test_gf_discrete_death(self, tmp_path, capsys):
        model = write_json(tmp_path / "m.json",
                           {"kind": "DiscreteDeath", "rates": {"mu": 2.0}, "v": 3.0})
        assert main(["gf", model, "--t", "0.5", "--u", "0.7"]) == 0
        out = capsys.readouterr().out.strip().split("\n")[1]
        expect = (0.7 - 1.0) * 3.0 * math.exp(-1.0)
        assert float(out.split(",")[1]) == pytest.approx(expect, rel=1e-12)

    def test_fn_void_probability(self, tmp_path, capsys):
        model = write_json(tmp_path / "m.json", model_obj())
        assert main(["fn", model, "--t", "0.4"]) == 0
        val = float(capsys.readouterr().out.strip().split("\n")[1].split(",")[1])
        assert val == pytest.approx(math.exp(-20.0 * math.exp(-0.4)), rel=1e-6)

    def test_gf_unsupported_kind(self, tmp_path, capsys):
        model = write_json(tmp_path / "m.json", model_obj("SpontBirth"))
        assert main(["gf", model, "--t", "0.5"]) == 2

    @pytest.mark.parametrize("kind, u", [
        ("DeathDiffusion", "[1, 2]"), ("DiscreteDeath", "abc"),
        ("DeathDiffusion", '{"expr": "gaussian", "width": -1}'),
        ("DeathDiffusion", '{"expr": "gaussian", "mass": "x"}'),
        ("DeathDiffusion", "NaN"), ("DeathDiffusion", '{"expr": "uniform", "const": Infinity}'),
        ("DiscreteDeath", "nan"), ("DiscreteDeath", "inf"),
    ])
    def test_gf_bad_u_usage_exit(self, tmp_path, capsys, kind, u):
        obj = model_obj() if kind == "DeathDiffusion" else {
            "kind": kind, "rates": {"mu": 2.0}, "v": 3.0}
        model = write_json(tmp_path / "m.json", obj)
        assert main(["gf", model, "--t", "0.5", "--u", u]) == 2
        assert "--u" in one_line_error(capsys)

    def test_closed_forms_called_through_module_attributes(self, tmp_path, monkeypatch):
        """KINDS looks each closed form up when it is called, so a wrapper set
        on the module attribute (perfbench times calls that way) sees it."""
        from rdito import models

        calls = []
        for name in ("density", "death_diffusion_density", "death_diffusion_log_gf"):
            def counted(*args, _name=name, _fn=getattr(models, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(models, name, counted)
        model = write_json(tmp_path / "m.json", model_obj())
        assert main(["gf", model, "--t", "0.3", "0.9", "--u", "0.5"]) == 0
        assert main(["density", model, "--t", "0.3"]) == 0
        assert calls == ["death_diffusion_log_gf"] * 2 + ["density", "death_diffusion_density"]

    @pytest.mark.parametrize("t", ["1e-7", "1e-4"])
    def test_fn_below_grid_resolution_runtime_exit(self, tmp_path, t):
        """On a 10-cell unit box the heat kernel of t = 1e-7 is far narrower
        than a cell: fn never returned there, and at t = 1e-4 it gave 0.004
        where the answer is 0.368.  Runs in its own process under a timeout."""
        model = write_json(tmp_path / "m.json", {
            "kind": "DeathDiffusion", "box": [1.0], "shape": [10], "D": 1.0,
            "rates": {"mu": 1.0}, "v": {"expr": "uniform", "const": 1.0}})
        res = fresh_python("import sys; from rdito.cli import main; "
                           f"sys.exit(main(['fn', {model!r}, '--t', {t!r}, '--points', '0.05']))",
                           tmp_path, timeout=30)
        assert res.returncode == 3, res.stderr
        assert "grid spacing" in res.stderr and res.stderr.count("\n") == 1, res.stderr

    def test_fn_resolved_kernel_on_a_coarse_grid(self, tmp_path, capsys):
        """sqrt(2 D t) = 0.2 on spacing 0.1: uniform v gives exp(-e^-t) e^-t."""
        model = write_json(tmp_path / "m.json", {
            "kind": "DeathDiffusion", "box": [1.0], "shape": [10], "D": 1.0,
            "rates": {"mu": 1.0}, "v": {"expr": "uniform", "const": 1.0}})
        assert main(["fn", model, "--t", "0.02", "--points", "0.05"]) == 0
        val = float(capsys.readouterr().out.strip().split("\n")[1].split(",")[1])
        assert val == pytest.approx(math.exp(-math.exp(-0.02)) * math.exp(-0.02), rel=1e-12)

    @pytest.mark.parametrize("points", ["a,b", "1,2", "1;2,3"])
    def test_fn_bad_points_usage_exit(self, tmp_path, capsys, points):
        model = write_json(tmp_path / "m.json", model_obj())
        assert main(["fn", model, "--t", "0.4", "--points", points]) == 2
        assert "--points" in one_line_error(capsys)

    @pytest.mark.parametrize("cmd, t", [
        ("gf", "nan"), ("gf", "-1"), ("gf", "inf"), ("fn", "nan"), ("fn", "-1"),
        ("density", "-1"),
    ])
    def test_bad_time_usage_exit(self, tmp_path, capsys, cmd, t):
        model = write_json(tmp_path / "m.json", model_obj())
        assert main([cmd, model, "--t", "0.3", t]) == 2
        assert "--t" in one_line_error(capsys)


class TestSimulate:
    def test_deterministic_rerun_and_manifest(self, tmp_path):
        model = write_json(tmp_path / "m.json", model_obj())
        sim = write_json(tmp_path / "s.json", {"dt": 0.01, "replicas": 100, "seed": 7})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", model, sim, "--t-end", "0.1", "--out", str(out1)]) == 0
        assert main(["simulate", model, sim, "--t-end", "0.1", "--out", str(out2)]) == 0
        assert (tmp_path / "a_grid.csv").read_bytes() == (tmp_path / "b_grid.csv").read_bytes()
        m1 = json.loads((tmp_path / "a.manifest.json").read_text())
        m2 = json.loads((tmp_path / "b.manifest.json").read_text())
        assert m1["command"] == "simulate" and m1["seed"] == 7
        assert set(m1["outputs"]) == {"a_grid.csv", "a_scalars.json"}
        assert sorted(m1["outputs"].values()) == sorted(m2["outputs"].values())
        assert m1["config"] == m2["config"]

    def test_seed_flag_changes_output(self, tmp_path):
        model = write_json(tmp_path / "m.json", model_obj())
        sim = write_json(tmp_path / "s.json", {"dt": 0.01, "replicas": 100, "seed": 7})
        out = tmp_path / "c"
        assert main(["simulate", model, sim, "--t-end", "0.1", "--seed", "8",
                     "--out", str(out)]) == 0
        assert json.loads((tmp_path / "c.manifest.json").read_text())["seed"] == 8

    def test_step_too_large_runtime_exit(self, tmp_path, capsys):
        model = write_json(tmp_path / "m.json", model_obj(rates={"mu": 50.0}))
        sim = write_json(tmp_path / "s.json", {"dt": 0.01, "replicas": 10, "seed": 1})
        out = tmp_path / "x"
        assert main(["simulate", model, sim, "--t-end", "0.05", "--out", str(out)]) == 3
        assert "runtime error" in capsys.readouterr().err

    def test_requires_out(self, tmp_path, capsys):
        model = write_json(tmp_path / "m.json", model_obj())
        sim = write_json(tmp_path / "s.json", {"dt": 0.01, "replicas": 10, "seed": 1})
        assert main(["simulate", model, sim, "--t-end", "0.05"]) == 2

    def test_no_temp_files_left(self, tmp_path):
        model = write_json(tmp_path / "m.json", model_obj())
        sim = write_json(tmp_path / "s.json", {"dt": 0.01, "replicas": 20, "seed": 2})
        out = tmp_path / "t"
        assert main(["simulate", model, sim, "--t-end", "0.05", "--out", str(out)]) == 0
        assert not [p for p in os.listdir(tmp_path) if p.startswith(".rdito-tmp-")]

    @pytest.mark.parametrize("t_end, threads, sim_keys, flag", [
        ("nan", "1", {}, "--t-end"), ("-1", "1", {}, "--t-end"),
        ("inf", "1", {}, "--t-end"), ("0.05", "0", {}, "--threads"),
        ("0.05", "-2", {}, "--threads"), ("0.05", "1", {"chunk": 0}, "chunk"),
        ("0.05", "1", {"dt": math.nan}, "dt"), ("0.05", "1", {"dt": math.inf}, "dt"),
        ("0.05", "1", {"replicas": 10.7}, "replicas"), ("0.05", "1", {"chunk": 2.5}, "chunk"),
        ("0.05", "1", {"seed": 1.5}, "seed"), ("0.05", "1", {"seed": -1}, "seed"),
        ("0.05", "1", {"replicas": "10"}, "replicas"), ("0.05", "1", {"dtt": 3}, "dtt"),
        ("0.05", "1", {"kernel": {"cutoff": 6.0, "samples": [1.0, 0.0]}}, "cutoff"),
        ("0.05", "1", {"kernel": {"cutoff": 0.0, "samples": [1.0, 0.0]}}, "cutoff"),
        ("0.015", "1", {}, "--t-end"), ("0.0500001", "1", {}, "--t-end"),
    ])
    def test_bad_input_usage_exit(self, tmp_path, capsys, t_end, threads, sim_keys, flag):
        model = write_json(tmp_path / "m.json", model_obj())
        sim = write_json(tmp_path / "s.json",
                         {"dt": 0.01, "replicas": 10, "seed": 1, **sim_keys})
        out = tmp_path / "x"
        assert main(["simulate", model, sim, "--t-end", t_end, "--threads", threads,
                     "--out", str(out)]) == 2
        assert flag in one_line_error(capsys)
        assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize("t_end, dt", [("0.3", 0.1), ("0.5", 0.01), ("0.2", 0.02)])
    def test_t_end_a_whole_number_of_steps_in_floating_point(self, tmp_path, t_end, dt):
        """0.3 / 0.1 is 2.9999999999999996: still three steps, not an error."""
        model = write_json(tmp_path / "m.json", model_obj())
        sim = write_json(tmp_path / "s.json", {"dt": dt, "replicas": 10, "seed": 1})
        assert main(["simulate", model, sim, "--t-end", t_end,
                     "--out", str(tmp_path / "x")]) == 0

    @pytest.mark.parametrize("change, flag", [
        ({"rates": {"mu": {"table": [1.0, math.nan] + [1.0] * (N - 2)}}}, "rate samples"),
        ({"kind": "ConvertAB", "vb": {"table": [1.0, -1.0] + [1.0] * (N - 2)}}, "intensity vb"),
    ])
    def test_bad_table_usage_exit(self, tmp_path, capsys, change, flag):
        """A NaN rate emptied its cell with exit 0; a negative vb ended in
        a traceback from the sampler."""
        model = write_json(tmp_path / "m.json", {**model_obj(), **change})
        sim = write_json(tmp_path / "s.json", {"dt": 0.01, "replicas": 10, "seed": 1})
        assert main(["simulate", model, sim, "--t-end", "0.1",
                     "--out", str(tmp_path / "x")]) == 2
        assert flag in one_line_error(capsys)
        assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize("u", [
        "NaN", json.dumps({"table": [1.0] * 16 + [math.nan] + [1.0] * (N - 17)}),
    ])
    def test_non_finite_u_usage_exit(self, tmp_path, capsys, u):
        """A NaN in --u wrote `"gf": [NaN, NaN]`, which is not JSON, with exit 0."""
        model = write_json(tmp_path / "m.json", model_obj())
        sim = write_json(tmp_path / "s.json", {"dt": 0.01, "replicas": 10, "seed": 1})
        assert main(["simulate", model, sim, "--t-end", "0.1", "--u", u,
                     "--out", str(tmp_path / "x")]) == 2
        assert "--u" in one_line_error(capsys)
        assert not list(tmp_path.glob("x*"))

    def test_non_spatial_model_usage_exit(self, tmp_path, capsys):
        model = write_json(tmp_path / "m.json",
                           {"kind": "DiscreteDeath", "rates": {"mu": 2.0}, "v": 3.0})
        sim = write_json(tmp_path / "s.json", {"dt": 0.01, "replicas": 10, "seed": 1})
        assert main(["simulate", model, sim, "--t-end", "0.1",
                     "--out", str(tmp_path / "x")]) == 2
        assert "DiscreteDeath" in one_line_error(capsys)


class TestPerturb:
    def annih_model(self, tmp_path):
        g = np.zeros(N)
        x = np.arange(N) * (L / N)
        dist = np.minimum(x, L - x)
        tab = np.where(dist <= 1.5, 0.4 * np.exp(-dist ** 2 / 0.5), 0.0)
        return write_json(
            tmp_path / "a.json",
            model_obj("Annihilation", rates={"R": {"const": 1.0, "table": list(tab)}},
                      v={"expr": "uniform", "const": 1.5}),
        )

    def test_methods_agree(self, tmp_path):
        model = self.annih_model(tmp_path)
        outd, outm = tmp_path / "dy.csv", tmp_path / "mf.csv"
        assert main(["perturb", model, "--t-end", "0.2", "--steps", "200",
                     "--method", "dyson", "--out", str(outd)]) == 0
        assert main(["perturb", model, "--t-end", "0.2", "--steps", "200",
                     "--method", "meanfield", "--out", str(outm)]) == 0
        rows = read_rows(outm)
        finals = np.array([float(r[2]) for r in rows[-N:]])
        # uniform initial data: logistic decay of the uniform density
        from rdito.models import ModelSpec
        from rdito.perturb import kernel_field

        spec = ModelSpec.from_json(open(model).read())
        Rbar = kernel_field(spec).integral()
        exact = 1.5 / (1.0 + Rbar * 1.5 * 0.2)
        assert np.allclose(finals, exact, atol=1e-6)
        # dyson momentum series: k = 0 mode carries the total mass
        drows = read_rows(outd)
        mass = float(drows[-N][2])
        assert mass == pytest.approx(exact * L, abs=1e-5 * L)

    def test_wrong_kind_usage_error(self, tmp_path):
        model = write_json(tmp_path / "m.json", model_obj())
        assert main(["perturb", model, "--t-end", "0.1", "--steps", "10"]) == 2

    @pytest.mark.parametrize("method, t_end, steps, flag", [
        ("meanfield", "-1", "10", "--t-end"), ("meanfield", "nan", "10", "--t-end"),
        ("dyson", "nan", "10", "--t-end"), ("dyson", "inf", "10", "--t-end"),
        ("dyson", "0", "10", "--t-end"), ("dyson", "0.1", "0", "--steps"),
    ])
    def test_bad_time_grid_usage_exit(self, tmp_path, capsys, method, t_end, steps, flag):
        model = self.annih_model(tmp_path)
        assert main(["perturb", model, "--t-end", t_end, "--steps", steps,
                     "--method", method]) == 2
        assert flag in one_line_error(capsys)

    def test_manifests_independent_of_paths(self, tmp_path):
        """perturb and compare on the same inputs in two directories whose
        path lengths differ write equal manifests, wall_clock aside."""
        manifests = []
        for name in ("a", "a_much_longer_directory_name"):
            work = tmp_path / name
            work.mkdir()
            model = self.annih_model(work)
            out = str(work / "dy.csv")
            assert main(["perturb", model, "--t-end", "0.1", "--steps", "10",
                         "--out", out]) == 0
            assert main(["compare", out, out, "--out", str(work / "cmp.json")]) == 0
            for base in ("dy.csv", "cmp.json"):
                m = json.loads((work / f"{base}.manifest.json").read_text())
                del m["wall_clock"]
                manifests.append(m)
        assert manifests[:2] == manifests[2:]

    def test_nonconvergence_runtime_exit(self, tmp_path, capsys):
        model = write_json(
            tmp_path / "m.json",
            model_obj("Annihilation", D=0.0,
                      rates={"R": {"const": 1.0, "table": [1.0] * N}},
                      v={"expr": "uniform", "const": 50.0}),
        )
        with np.errstate(all="ignore"):
            code = main(["perturb", model, "--t-end", "2.0", "--steps", "2",
                         "--out", str(tmp_path / "x.csv")])
        assert code == 3


class TestCompare:
    def test_identical_files(self, tmp_path, capsys):
        model = write_json(tmp_path / "m.json", model_obj())
        out = tmp_path / "d.csv"
        assert main(["density", model, "--t", "0.5", "--out", str(out)]) == 0
        assert main(["compare", str(out), str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["outliers"] == 0

    def test_shifted_file_fails(self, tmp_path):
        ref = tmp_path / "ref.csv"
        mc = tmp_path / "mc.csv"
        lines = ["name,index,value"]
        se_lines = []
        for i in range(50):
            lines.append(f"density,{i},{1.0 + 10.0 * 0.1}")
            se_lines.append(f"density_se,{i},0.1")
        mc.write_text("\n".join(lines + se_lines) + "\n")
        ref.write_text("t,x0,value\n" + "\n".join(f"0.5,{i},1.0" for i in range(50)) + "\n")
        out = tmp_path / "sum.json"
        assert main(["compare", str(ref), str(mc), "--out", str(out)]) == 1
        summary = json.loads(out.read_text())
        assert summary["outliers"] == 50 and not summary["pass"]

    def test_full_death_diffusion_pipeline(self, tmp_path):
        model = write_json(tmp_path / "m.json", model_obj())
        sim = write_json(tmp_path / "s.json",
                         {"dt": 0.005, "replicas": 2000, "seed": 11})
        t = 0.5
        assert main(["simulate", model, sim, "--t-end", str(t),
                     "--out", str(tmp_path / "mc")]) == 0
        assert main(["density", model, "--t", str(t), "--cell-average",
                     "--out", str(tmp_path / "ref.csv")]) == 0
        dV = L / N
        se_scale = 1.0 / (dV * 2000)  # var scale of a histogram density estimate
        assert main(["compare", str(tmp_path / "ref.csv"), str(tmp_path / "mc_grid.csv"),
                     "--se-scale", str(se_scale),
                     "--out", str(tmp_path / "sum.json")]) == 0
        assert json.loads((tmp_path / "sum.json").read_text())["pass"]

    def test_count_mismatch_usage_error(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("t,x0,value\n0.1,0.0,1.0\n")
        b.write_text("t,x0,value\n0.1,0.0,1.0\n0.1,0.5,2.0\n")
        assert main(["compare", str(a), str(b)]) == 2


def test_image_sum_returns_on_kernels_far_narrower_or_wider_than_the_box(tmp_path):
    """Every image of a kernel 1e-3 boxes wide underflows to 0, and the sum
    waited for an image below 1e-14 of a zero total; one 1e9 boxes wide
    needed some 1e10 image pairs.  Both ran for good."""
    res = fresh_python(
        "import numpy as np\n"
        "from rdito.models import heat_kernel, image_sum\n"
        "print(heat_kernel(1, 1.0, [0.5], 1e-7, box=(1.0,)))\n"
        "print(image_sum(np.array([0.5, 0.3]), 1.0, 4e-7).tolist())\n"
        "print(heat_kernel(1, 1.0, [0.5], 1e18, box=(1.0,)))\n",
        tmp_path, timeout=30,
    )
    assert res.returncode == 0, res.stderr
    narrow, narrow_sum, wide = res.stdout.split("\n")[:3]
    assert (narrow, narrow_sum) == ("0.0", "[0.0, 0.0]")
    assert float(wide) == pytest.approx(1.0, rel=1e-15)


def test_no_scipy_on_the_startup_path(tmp_path):
    """density, gf, simulate and perturb never import scipy: in a fresh
    interpreter that import costs most of the start-up time of a CLI call."""
    model = write_json(tmp_path / "m.json", model_obj())
    sim = write_json(tmp_path / "s.json", {"dt": 0.01, "replicas": 10, "seed": 1})
    annih = TestPerturb().annih_model(tmp_path)
    runs = [
        ["density", model, "--t", "0.1", "--out", "d.csv"],
        ["density", model, "--t", "0.1", "--cell-average", "--out", "c.csv"],
        ["gf", model, "--t", "0.1", "--u", "0.5", "--out", "g.csv"],
        ["simulate", model, sim, "--t-end", "0.05", "--u", "0.5", "--out", "mc"],
        ["perturb", annih, "--t-end", "0.1", "--steps", "10", "--out", "p.csv"],
    ]
    res = fresh_python(
        "import sys\n"
        "from rdito.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])\n",
        tmp_path,
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"
