"""Tests for the command-line interface: exit codes, artifacts, manifests."""

import json
import math
import os

import numpy as np
import pytest

from rdito import algebra
from rdito.cli import main

L, N = 10.0, 32


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
    """The captured stderr, checked to be a single `error: ...` line."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


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

    @pytest.mark.parametrize("mu", ["fast", [2.0]])
    def test_non_numeric_rate_usage_exit(self, tmp_path, capsys, mu):
        model = write_json(tmp_path / "m.json", model_obj(rates={"mu": mu}))
        assert main(["density", model, "--t", "0.1"]) == 2
        assert "rate" in one_line_error(capsys)

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

    @pytest.mark.parametrize("kind, u", [("DeathDiffusion", "[1, 2]"),
                                         ("DiscreteDeath", "abc")])
    def test_gf_bad_u_usage_exit(self, tmp_path, capsys, kind, u):
        obj = model_obj() if kind == "DeathDiffusion" else {
            "kind": kind, "rates": {"mu": 2.0}, "v": 3.0}
        model = write_json(tmp_path / "m.json", obj)
        assert main(["gf", model, "--t", "0.5", "--u", u]) == 2
        assert "--u" in one_line_error(capsys)

    @pytest.mark.parametrize("points", ["a,b", "1,2", "1;2,3"])
    def test_fn_bad_points_usage_exit(self, tmp_path, capsys, points):
        model = write_json(tmp_path / "m.json", model_obj())
        assert main(["fn", model, "--t", "0.4", "--points", points]) == 2
        assert "--points" in one_line_error(capsys)


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
