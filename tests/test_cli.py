"""Tests for the command-line interface: exit codes, artifacts, manifests."""

import ast
import errno
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rdito import algebra
from rdito.cli import binom_quantile, main

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


# A DiscreteDeath model file, with model_obj's grid keys dropped (None).
DISCRETE = {"kind": "DiscreteDeath", "v": 3.0, "box": None, "shape": None, "D": None}


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

    def test_all_families_output_is_pinned(self, tmp_path):
        """SHA-256 of both tables for every family, as recorded from the
        per-family builders that the template table replaced."""
        out = tmp_path / "all"
        names = ["A", "Adag", "Lambda", "dt", "B1", "B2", "B3", "Xi", "Omega", "M", "X", "Y"]
        assert main(["derive-table", *names, "--allow-unrecognized", "--out", str(out)]) == 0
        digests = {sfx: hashlib.sha256((tmp_path / f"all{sfx}").read_bytes()).hexdigest()
                   for sfx in (".txt", ".json")}
        assert digests == {
            ".txt": "51d68c31ab39741eae98e8ae092926816d85fc83e40434d098b4ab36bf10345a",
            ".json": "a23bb14be1b938bd4d8d01ba401272b524fa25dda87eeda80086e5fedb837ca7",
        }

    @pytest.mark.parametrize("name", ["B8", "B1000", "B99999999", "B" + "9" * 5000],
                             ids=["B8", "B1000", "B99999999", "B-5000-digits"])
    def test_b_past_the_operator_cap_usage_exit(self, capsys, name):
        # B(m)·B(m) has 2m + 2 operators: m = 8 is past the cap of 16
        assert main(["derive-table", name]) == 2
        assert f"the cap is {algebra.MAX_OPS}" in one_line_error(capsys)

    def test_b_with_a_digit_that_is_not_decimal_usage_exit(self, capsys):
        # "²".isdigit() holds, but int("²") raises
        assert main(["derive-table", "B²"]) == 2
        assert "unknown noise family" in one_line_error(capsys)

    def test_largest_b_under_the_cap(self, capsys):
        assert main(["derive-table", "B7"]) == 0
        # B(m)·B(n) = n dB(m+n-1): each creator of the right B may take the
        # annihilator of the left one
        assert "7*dB(13)[FG]" in capsys.readouterr().out


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

    def test_manifest_records_the_cell_average(self, tmp_path):
        """The plain and the cell-averaged table both wrote the config
        {model, t}, though they hold different values."""
        model = write_json(tmp_path / "m.json", model_obj())
        configs = {}
        for name, flags in (("a", []), ("b", ["--cell-average", "--refine", "4"])):
            assert main(["density", model, "--t", "0.5", *flags,
                         "--out", str(tmp_path / f"{name}.csv")]) == 0
            config = json.loads((tmp_path / f"{name}.csv.manifest.json").read_text())["config"]
            configs[name] = {k: v for k, v in config.items() if k != "model"}
        assert configs == {"a": {"t": [0.5], "cell_average": False},
                           "b": {"t": [0.5], "cell_average": True, "refine": 4}}
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()

    def test_brownian_tree_static_growth(self, tmp_path):
        model = write_json(tmp_path / "m.json", model_obj("BrownianTree", D=0.0,
                                                          rates={"mu": 0.5}))
        out = tmp_path / "d.csv"
        assert main(["density", model, "--t", "0.0", "2.0", "--out", str(out)]) == 0
        rows = read_rows(out)
        v0 = np.array([float(r[2]) for r in rows[:N]])
        v2 = np.array([float(r[2]) for r in rows[N:]])
        assert np.allclose(v2, v0 * math.exp(0.5 * 2.0), rtol=1e-12)

    @pytest.mark.parametrize("t", ["3.0", "5.0", "10.0"])
    def test_brownian_tree_density_is_growth_times_diffusion(self, tmp_path, t):
        """X = e^{mu t} e^{t D Lap} v.  At mu t = 3, 5 and 10 the 500-term
        series summed for it did not converge, with exit 3."""
        from rdito.models import ModelSpec, diffuse

        model = write_json(tmp_path / "m.json", model_obj("BrownianTree", rates={"mu": 1.0}))
        out = tmp_path / "d.csv"
        assert main(["density", model, "--t", t, "--out", str(out)]) == 0
        got = np.array([float(r[2]) for r in read_rows(out)])
        spec = ModelSpec.from_json((tmp_path / "m.json").read_text())
        ref = math.exp(float(t)) * diffuse(spec.grid(), 1.0, float(t)).values
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_spont_birth_is_birth_death_without_nu(self, tmp_path, capsys):
        """A SpontBirth model writes, value for value, what BirthDeathTimeDep
        writes for the same model with nu absent."""
        rates = {"mu": {"const": 0.7, "expr": "sin2", "table": [1.0 + (i % 3) for i in range(N)]}}
        bodies = []
        for kind in ("SpontBirth", "BirthDeathTimeDep"):
            model = write_json(tmp_path / f"{kind}.json", model_obj(kind, D=0.0, rates=rates))
            assert main(["density", model, "--t", "0.0", "0.8", "4.0"]) == 0
            header, body = capsys.readouterr().out.split("\n", 1)
            assert header == f"# model,{kind},t=0.0,0.8,4.0"
            bodies.append(body)
        assert bodies[0] == bodies[1] and len(bodies[0].splitlines()) == 1 + 3 * N

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

    @pytest.mark.parametrize("change, key", [
        ({"D": None, "Diffusion": 1.0}, "Diffusion"),
        ({"v": {"expr": "gaussian", "mas": 20.0, "width": 1.0, "center": [L / 2]}}, "mas"),
        ({"v": {"table": [1.0] * N, "expr": "uniform"}}, "expr"),
        ({"rates": {"mu": {"const": 1.0, "expression": "sin2"}}}, "expression"),
        ({**DISCRETE, "D": 5.0}, "D"), ({**DISCRETE, "box": [1.0]}, "box"),
        ({**DISCRETE, "shape": [8]}, "shape"), ({**DISCRETE, "d": 1}, "d"),
        ({**DISCRETE, "vb": 1.0}, "vb"),
    ], ids=["model", "gaussian", "table", "rate", "DiscreteDeath-D", "DiscreteDeath-box",
            "DiscreteDeath-shape", "DiscreteDeath-d", "DiscreteDeath-vb"])
    def test_unknown_key_usage_exit(self, tmp_path, capsys, change, key):
        """A key the format does not have read as an absent one: "Diffusion"
        for "D" ran density at D = 0, and a gaussian's "mas" gave mass 1,
        both with exit 0.  A DiscreteDeath model has no grid, and ignored the
        grid keys with exit 0."""
        obj = {k: v for k, v in {**model_obj(), **change}.items() if v is not None}
        model = write_json(tmp_path / "m.json", obj)
        assert main(["density", model, "--t", "0.1"]) == 2
        assert f"unknown keys ['{key}']" in one_line_error(capsys)

    @pytest.mark.parametrize("change, what", [
        ({"d": 1.7}, "d must be an integer"),
        ({"v": True}, "field spec other than an object must be a number"),
        ({"D": "1.0"}, "D must be a number"), ({"box": ["10"]}, "box entry must be a number"),
        ({"rates": {"mu": {"const": "2"}}}, "rate const must be a number"),
        ({"rates": {"mu": {"table": ["1"] * N}}}, "rate table entry must be a number"),
        ({"v": {"expr": "uniform", "const": "2"}}, "uniform const must be a number"),
        ({"v": {"table": [False] * N}}, "field table entry must be a number"),
        ({"v": {"expr": "gaussian", "mass": "20"}}, "gaussian mass must be a number"),
        ({"v": {"expr": "gaussian", "center": ["5"]}}, "gaussian center must be a number"),
        ({**DISCRETE, "v": True}, "v must be a number"),
    ])
    def test_non_number_usage_exit(self, tmp_path, capsys, change, what):
        """float() read true as 1.0 and "1.0" as 1.0, and int() cut d = 1.7
        to 1: each of these ran with exit 0."""
        obj = {k: v for k, v in {**model_obj(), **change}.items() if v is not None}
        model = write_json(tmp_path / "m.json", obj)
        assert main(["density", model, "--t", "0.1"]) == 2
        assert what in one_line_error(capsys)

    @pytest.mark.parametrize("box, shape", [
        ([L], [0]), ([L], [2.5]), ([L], [True]), ([0.0], [N]), ([-L], [N]),
    ])
    def test_bad_geometry_usage_exit(self, tmp_path, capsys, box, shape):
        obj = {**model_obj(v={"expr": "uniform", "const": 1.0}), "box": box, "shape": shape}
        model = write_json(tmp_path / "m.json", obj)
        assert main(["density", model, "--t", "0.1"]) == 2
        err = one_line_error(capsys)
        assert "box" in err or "shape" in err

    @pytest.mark.parametrize("cmd", ["density", "gf", "simulate"])
    def test_empty_box_usage_exit(self, tmp_path, capsys, cmd):
        """A model with no box axis loaded, and density, gf and simulate
        ended in `internal error: IndexError` or `ValueError` (exit 4)."""
        model = write_json(tmp_path / "m.json", {**model_obj(v={"expr": "uniform", "const": 1.0}),
                                                 "box": [], "shape": []})
        sim = write_json(tmp_path / "s.json", {"dt": 0.01, "replicas": 10, "seed": 1})
        assert main(command_argv(cmd, model, sim, str(tmp_path / "x"))) == 2
        assert "box must hold lengths" in one_line_error(capsys)

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

    @pytest.mark.parametrize("kind, rates", [
        ("BirthDeathTimeDep", {"mu": 1.0, "Nu": 5.0}), ("DeathDiffusion", {}),
        ("DeathDiffusion", {"mu": 1.0, "nu": 1.0}), ("SpontBirth", {}), ("ConvertAB", {}),
    ])
    def test_rates_the_kind_does_not_take_usage_exit(self, tmp_path, capsys, kind, rates):
        """A BirthDeathTimeDep "Nu" was dropped without a word, so density read
        v + mu t and simulate ran without deaths, both with exit 0; simulate on
        a DeathDiffusion without rates exited 4 (`internal error: ModelError`)."""
        model = write_json(tmp_path / "m.json",
                           model_obj(kind, rates=rates, v={"expr": "uniform", "const": 1.0}))
        sim = write_json(tmp_path / "s.json", {"dt": 0.01, "replicas": 10, "seed": 1})
        for argv in (["density", model, "--t", "1.0"],
                     ["simulate", model, sim, "--t-end", "0.1", "--out", str(tmp_path / "x")]):
            assert main(argv) == 2
            assert f"model {kind} takes rates" in one_line_error(capsys)
        assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize("rates", [[1.0], None], ids=["list", "null"])
    def test_rates_not_an_object_usage_exit(self, tmp_path, capsys, rates):
        """A list or null "rates" ended in `internal error: AttributeError`."""
        model = write_json(tmp_path / "m.json", model_obj(rates=rates))
        assert main(["density", model, "--t", "0.1"]) == 2
        assert f"rates must be an object of named rates, got {json.dumps(rates)}" in \
            one_line_error(capsys)

    @pytest.mark.parametrize("kind, cmd, cells", [
        ("DeathDiffusion", "simulate", 16), ("DeathDiffusion", "simulate", 4),
        ("ConvertAB", "density", 4),
    ])
    def test_rate_table_of_the_wrong_shape_usage_exit(self, tmp_path, capsys, kind, cmd, cells):
        """On an 8-cell grid a 16-entry mu table ran on its first 8 entries with
        exit 0, a 4-entry one ended in an IndexError from the step and, for
        ConvertAB density, a broadcast ValueError (both exit 4)."""
        obj = {**model_obj(kind, rates={"mu": {"table": [1.0] * cells}},
                           v={"expr": "uniform", "const": 1.0}), "shape": [8]}
        model = write_json(tmp_path / "m.json", obj)
        sim = write_json(tmp_path / "s.json", {"dt": 0.01, "replicas": 10, "seed": 1})
        argv = {"density": ["density", model, "--t", "0.1"],
                "simulate": ["simulate", model, sim, "--t-end", "0.1",
                             "--out", str(tmp_path / "x")]}[cmd]
        assert main(argv) == 2
        assert f"rate 'mu' table shape ({cells},) != grid (8,)" in one_line_error(capsys)
        assert not list(tmp_path.glob("x*"))

    def test_rate_table_on_discrete_death_usage_exit(self, tmp_path, capsys):
        model = write_json(tmp_path / "m.json", {
            "kind": "DiscreteDeath", "rates": {"mu": {"const": 2.0, "table": [1.0]}}, "v": 3.0})
        assert main(["density", model, "--t", "0.1"]) == 2
        assert "rate 'mu' has a table, but a DiscreteDeath model has no grid" in \
            one_line_error(capsys)

    def test_cell_average_of_tabulated_rate_usage_exit(self, tmp_path, capsys):
        """--cell-average refines the grid, which a rate table cannot follow."""
        model = write_json(tmp_path / "m.json", model_obj(
            "BirthDeathTimeDep", D=0.0, v={"expr": "uniform", "const": 1.0},
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

    def test_refine_past_the_sample_bound_usage_exit(self, tmp_path, capsys):
        """32 cells x 1e15 exited 4 with a MemoryError (114 PiB); past 2^24
        fine grid points it is refused before the fine model is built."""
        model = write_json(tmp_path / "m.json", model_obj())
        assert main(["density", model, "--t", "0.1", "--cell-average",
                     "--refine", "1000000000000000", "--out", str(tmp_path / "x")]) == 2
        assert "--refine" in one_line_error(capsys)
        assert not list(tmp_path.glob("x*"))

    def test_births_integrated_once_per_distinct_death_rate(self, tmp_path):
        """256 cells whose death rate takes 4 values (1, 10, 100, 1000 in
        turn, 64 cells each), mu = 2 and t = 65: 65,000 Gauss-Legendre
        panels a row.  One row per cell took about 3 s; one row per distinct
        rate takes about 0.1 s.  Every cell is v e^(-nu t) + mu / nu
        (1 - e^(-nu t)).  Runs and is timed in its own process."""
        nu = [(1.0, 10.0, 100.0, 1000.0)[i % 4] for i in range(256)]
        model = write_json(tmp_path / "m.json", {
            "kind": "BirthDeathTimeDep", "box": [L], "shape": [256], "D": 0.0,
            "rates": {"mu": 2.0, "nu": {"table": nu}}, "v": {"expr": "uniform", "const": 1.0}})
        res = fresh_python("import sys, time; from rdito.cli import main; "
                           "start = time.perf_counter(); "
                           f"code = main(['density', {model!r}, '--t', '65', '--out', 'd.csv']); "
                           "print(time.perf_counter() - start); sys.exit(code)",
                           tmp_path, timeout=60)
        assert res.returncode == 0, res.stderr
        assert float(res.stdout) < 1.0
        got = np.array([float(r[2]) for r in read_rows(tmp_path / "d.csv")])
        decay = np.exp(-65.0 * np.array(nu))
        assert got == pytest.approx(decay + 2.0 / np.array(nu) * (1 - decay), rel=1e-11)


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

    def test_gf_discrete_death_where_the_gf_underflows(self, tmp_path, capsys):
        """G = exp(-1000) underflows to 0; its log, the output, does not."""
        model = write_json(tmp_path / "m.json",
                           {"kind": "DiscreteDeath", "rates": {"mu": 0.0}, "v": 1000})
        assert main(["gf", model, "--t", "0", "--u", "0"]) == 0
        assert capsys.readouterr().out == "t,log_gf\n0.0,-1000.0\n"

    def test_fn_void_probability(self, tmp_path, capsys):
        model = write_json(tmp_path / "m.json", model_obj())
        assert main(["fn", model, "--t", "0.4"]) == 0
        val = float(capsys.readouterr().out.strip().split("\n")[1].split(",")[1])
        assert val == pytest.approx(math.exp(-20.0 * math.exp(-0.4)), rel=1e-6)

    def test_gf_past_the_step_cap_runtime_exit(self, tmp_path):
        """BrownianTree gf takes max(200, 4000 t) Strang steps: t = 1000 ran
        past a 20-s timeout.  Past 2^18 steps it refuses before the first."""
        model = write_json(tmp_path / "m.json", model_obj("BrownianTree", rates={"mu": 1.0}))
        res = fresh_python("import sys, time; from rdito.cli import main; "
                           "start = time.perf_counter(); "
                           f"code = main(['gf', {model!r}, '--t', '10000']); "
                           "print(time.perf_counter() - start); sys.exit(code)",
                           tmp_path, timeout=30)
        assert res.returncode == 3
        assert res.stderr.startswith("runtime error: ") and res.stderr.count("\n") == 1
        assert "2^18" in res.stderr
        assert float(res.stdout) < 2.0

    def test_gf_unsupported_kind(self, tmp_path, capsys):
        model = write_json(tmp_path / "m.json", model_obj("SpontBirth"))
        assert main(["gf", model, "--t", "0.5"]) == 2

    @pytest.mark.parametrize("kind, u", [
        ("DeathDiffusion", "[1, 2]"), ("DiscreteDeath", "abc"),
        ("DeathDiffusion", '{"expr": "gaussian", "width": -1}'),
        ("DeathDiffusion", '{"expr": "gaussian", "mass": "x"}'),
        ("DeathDiffusion", "NaN"), ("DeathDiffusion", '{"expr": "uniform", "const": Infinity}'),
        ("DiscreteDeath", "nan"), ("DiscreteDeath", "inf"),
        ("DeathDiffusion", '{"expr": "uniform", "cosnt": 0.5}'),
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

    @pytest.mark.parametrize("D, t, box", [
        (1.0, "1e308", [10.0]), (1.0, "2e307", [10.0]), (1e308, "10", [10.0, 6.0]),
    ], ids=["4Dt", "4piDt", "D-2d"])
    def test_fn_where_the_kernel_width_overflows(self, tmp_path, capsys, D, t, box):
        """At t = 1e308, or t = 2e307 where only 4 pi D t overflows, fn printed
        nan with exit 0 (image_sum read inf and was divided by
        sqrt(4 pi D t) = inf).  The kernel is then flat, so uniform v = 0.1
        with mu = 0 gives exp(-0.1 V) 0.1, V the box volume."""
        model = write_json(tmp_path / "m.json", {
            "kind": "DeathDiffusion", "box": box, "shape": [8, 4][:len(box)], "D": D,
            "rates": {"mu": 0.0}, "v": {"expr": "uniform", "const": 0.1}})
        assert main(["fn", model, "--t", t, "--points", "1" if len(box) == 1 else "1,2"]) == 0
        val = float(capsys.readouterr().out.strip().split("\n")[1].split(",")[1])
        assert val == pytest.approx(math.exp(-0.1 * math.prod(box)) * 0.1, rel=1e-15)

    @pytest.mark.parametrize("points", ["a,b", "1,2", "1;2,3"])
    def test_fn_bad_points_usage_exit(self, tmp_path, capsys, points):
        model = write_json(tmp_path / "m.json", model_obj())
        assert main(["fn", model, "--t", "0.4", "--points", points]) == 2
        assert "--points" in one_line_error(capsys)

    @pytest.mark.parametrize("points", ["nan", "inf", "2.5;-inf", "2.5;nan"])
    def test_fn_non_finite_points_usage_exit(self, tmp_path, points):
        """--points inf gave 0.0 with exit 0 and nan ran past a 20-s timeout.
        Runs in its own process under a timeout."""
        model = write_json(tmp_path / "m.json", model_obj())
        argv = ["fn", model, "--t", "0.5", "--points", points]
        res = fresh_python(f"import sys; from rdito.cli import main; sys.exit(main({argv!r}))",
                           tmp_path, timeout=30)
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error: --points") and res.stderr.count("\n") == 1

    @pytest.mark.parametrize("p", [5.0, 2.3])
    def test_fn_is_periodic(self, tmp_path, capsys, p):
        """On 16 cells (L = 10, D = 1, mu = 1) at t = 0.5, --points 105 and
        1005 gave 0.0 where 5, 15 and -5 gave 0.0412."""
        model = write_json(tmp_path / "m.json", {**model_obj(), "shape": [16]})
        vals = []
        for q in (p, p + 10 * L, p - 100 * L):
            assert main(["fn", model, "--t", "0.5", "--points", repr(q)]) == 0
            vals.append(float(capsys.readouterr().out.strip().split("\n")[1].split(",")[1]))
        assert vals[0] > 0
        assert vals[1:] == pytest.approx([vals[0]] * 2, rel=1e-12, abs=0)

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
        ("0.05", "1", {"dt": "0.01"}, "dt must be a number"),
        ("0.05", "1", {"kernel": {"cutoff": "1.0", "samples": [1.0]}}, "kernel cutoff must be"),
        ("0.05", "1", {"kernel": {"cutoff": 1.0, "samples": [True]}}, "kernel sample must be"),
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

    @pytest.mark.parametrize("kernel", [
        {"cutoff": 1.0, "samples": []}, {"cutoff": 1.0, "samples": [-1.0, -1.0]},
        {"cutoff": 1.0, "samples": [math.nan, 1.0]}, {"cutoff": math.nan, "samples": [1.0, 0.0]},
        {"cutoff": math.inf, "samples": [1.0, 0.0]}, {"cutoff": 0.0, "samples": [1.0, 0.0]},
        {"cutoff": 1.0, "samples": [1.0, 0.0], "peak": 2.0},
    ])
    def test_malformed_kernel_usage_exit(self, tmp_path, capsys, kernel):
        """An empty kernel ended in a traceback with exit 1, a negative one
        never annihilated with exit 0, and a NaN sample asked to reduce dt."""
        model = write_json(tmp_path / "m.json",
                           model_obj("Annihilation", rates={}, v={"expr": "uniform", "const": 2.0}))
        sim = write_json(tmp_path / "s.json",
                         {"dt": 0.01, "replicas": 10, "seed": 1, "kernel": kernel})
        assert main(["simulate", model, sim, "--t-end", "0.1",
                     "--out", str(tmp_path / "x")]) == 2
        assert "kernel" in one_line_error(capsys)
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

    @pytest.mark.parametrize("v, sim_keys, t_end, cap", [
        (1e9, {"replicas": 10}, "0.5", "particle-steps"),
        (1.0, {"replicas": 1e11}, "0.5", "particle-steps"),
        (1.0, {"replicas": 10}, "1e9", "particle-steps"),
        (1e5, {"replicas": 1000, "chunk": 1000}, "0.01", "one chunk"),
    ], ids=["v-1e9", "replicas-1e11", "t-end-1e9", "chunk"])
    def test_too_much_work_runtime_exit(self, tmp_path, v, sim_keys, t_end, cap):
        """On a 16-cell model, v = 1e9 ended in a MemoryError (exit 4) and
        1e11 replicas or t_end = 1e9 ran for good; past either work cap
        simulate refuses before any step."""
        model = write_json(tmp_path / "m.json", {
            **model_obj(), "shape": [16], "v": {"expr": "uniform", "const": v}})
        sim = write_json(tmp_path / "s.json", {"dt": 0.01, "seed": 1, **sim_keys})
        res = fresh_python("import sys, time; from rdito.cli import main; "
                           "start = time.perf_counter(); "
                           f"code = main(['simulate', {str(model)!r}, {str(sim)!r}, "
                           f"'--t-end', {t_end!r}, '--out', 'x']); "
                           "print(time.perf_counter() - start); sys.exit(code)",
                           tmp_path, timeout=30)
        assert res.returncode == 3, res.stderr
        assert res.stderr.startswith("runtime error: ") and res.stderr.count("\n") == 1
        assert cap in res.stderr
        assert float(res.stdout) < 1.0
        assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize("kind, v, sim_keys, t_end, cap", [
        ("SpontBirth", 0.0, {"replicas": 10}, "100", "particle-steps"),
        ("BrownianTree", 1.0, {"replicas": 100}, "1", "one chunk"),
        ("BrownianTree", 1.0, {"replicas": 10}, "100", "particle-steps"),
    ], ids=["births", "branching", "branching-overflow"])
    def test_growth_past_the_work_cap_runtime_exit(self, tmp_path, kind, v, sim_keys, t_end,
                                                   cap):
        """The work caps counted the initial particles only.  On 16 cells,
        SpontBirth at mu = 1000 from v = 0 ran --t-end 4 for seconds and
        --t-end 100 would hold 10^6 particles per replica after 10^4 steps;
        BrownianTree at mu = 10 grows e^(10 t): 2.2e5 particles per replica by
        t = 1, and e^1000 by t = 100, which overflows a float.  The caps now
        bound a replica's expected particles by n0 e^L + B and refuse all
        three before any step, with exit 3 and one line."""
        model = write_json(tmp_path / "m.json", {
            **model_obj(kind, rates={"mu": 1000.0 if kind == "SpontBirth" else 10.0},
                        v={"expr": "uniform", "const": v}), "shape": [16]})
        sim = write_json(tmp_path / "s.json", {"dt": 0.01, "seed": 1, **sim_keys})
        res = fresh_python("import sys, time; from rdito.cli import main; "
                           "start = time.perf_counter(); "
                           f"code = main(['simulate', {str(model)!r}, {str(sim)!r}, "
                           f"'--t-end', {t_end!r}, '--out', 'x']); "
                           "print(time.perf_counter() - start); sys.exit(code)",
                           tmp_path, timeout=30)
        assert res.returncode == 3, res.stderr
        assert res.stderr.startswith("runtime error: ") and res.stderr.count("\n") == 1
        assert cap in res.stderr
        assert float(res.stdout) < 1.0
        assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize("mu", [1e300, 1e12])
    def test_too_many_births_runtime_exit(self, tmp_path, mu):
        """From v = 0 the work cap saw no particles, and the first step's
        births ended in `lam value too large` (mu = 1e300) or a 7.28 TiB
        MemoryError (mu = 1e12), both exit 4; a step's expected births in
        one chunk are now capped like its initial particles."""
        model = write_json(tmp_path / "m.json", {
            **model_obj("SpontBirth", rates={"mu": mu}, v={"expr": "uniform", "const": 0.0}),
            "shape": [16]})
        sim = write_json(tmp_path / "s.json", {"dt": 0.01, "replicas": 10, "seed": 1})
        res = fresh_python("import sys, time; from rdito.cli import main; "
                           "start = time.perf_counter(); "
                           f"code = main(['simulate', {str(model)!r}, {str(sim)!r}, "
                           "'--t-end', '0.05', '--out', 'x']); "
                           "print(time.perf_counter() - start); sys.exit(code)",
                           tmp_path, timeout=30)
        assert res.returncode == 3, res.stderr
        assert res.stderr.startswith("runtime error: ") and res.stderr.count("\n") == 1
        assert "births" in res.stderr and "reduce the rate, dt or chunk" in res.stderr
        assert float(res.stdout) < 1.0
        assert not list(tmp_path.glob("x*"))

    def test_non_spatial_model_usage_exit(self, tmp_path, capsys):
        model = write_json(tmp_path / "m.json",
                           {"kind": "DiscreteDeath", "rates": {"mu": 2.0}, "v": 3.0})
        sim = write_json(tmp_path / "s.json", {"dt": 0.01, "replicas": 10, "seed": 1})
        assert main(["simulate", model, sim, "--t-end", "0.1",
                     "--out", str(tmp_path / "x")]) == 2
        assert "DiscreteDeath" in one_line_error(capsys)


# sha256 of the tree-level benchmark's two perturb tables
TREE_LEVEL_DIGESTS = {
    "dyson": "ccf5b378795a79f45e2196eb323570d633d095e991bb2956684817df74ae7019",
    "meanfield": "a2f9f2db7c5b22e25794136830a87d040e1d7f80d31bd9cd937b65f401b443c4"}


def gaussian_annihilation_model(path, box=(10.0,), shape=(64,), center=(5.0,)):
    """The tree-level benchmark's model (by default) on any grid: a Gaussian
    kernel of mass 0.8 and width 0.6, an intensity of mass 8 and width 1 at
    `center`, D = 0.7."""
    from rdito.grid import FieldGrid
    from rdito.models import wrapped_gaussian

    R = wrapped_gaussian(FieldGrid(box, np.zeros(shape)), 0.8, 0.6, [0.0] * len(box))
    return write_json(path, {
        "kind": "Annihilation", "box": list(box), "shape": list(shape), "D": 0.7,
        "rates": {"R": {"table": R.tolist()}},
        "v": {"expr": "gaussian", "mass": 8.0, "width": 1.0, "center": list(center)}})


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

        spec = ModelSpec.from_json(Path(model).read_text())
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

    @pytest.mark.parametrize("method", ["dyson", "meanfield"])
    def test_stdout_is_the_out_file(self, tmp_path, capsysbinary, method):
        """Without --out, perturb streams exactly the bytes --out writes."""
        model = self.annih_model(tmp_path)
        argv = ["perturb", model, "--t-end", "0.1", "--steps", "10", "--method", method]
        assert main(argv + ["--out", str(tmp_path / "p.csv")]) == 0
        capsysbinary.readouterr()
        assert main(argv) == 0
        assert capsysbinary.readouterr().out == (tmp_path / "p.csv").read_bytes()

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

    @pytest.mark.parametrize("method", ["dyson", "meanfield"])
    def test_missing_kernel_usage_exit(self, tmp_path, capsys, method):
        """An Annihilation model may leave R out, since its Monte Carlo takes
        the kernel from the sim config; perturb then exited 4 on a ModelError."""
        model = write_json(tmp_path / "m.json", model_obj(
            "Annihilation", rates={}, v={"expr": "uniform", "const": 1.5}))
        assert main(["perturb", model, "--t-end", "0.1", "--steps", "10",
                     "--method", method]) == 2
        assert "rate 'R'" in one_line_error(capsys)

    @pytest.mark.parametrize("method", ["dyson", "meanfield"])
    def test_odd_kernel_runtime_exit(self, tmp_path, capsys, method):
        """R is 1 at offset +h only, so R(x) != R(-x): dyson refused it (its
        transform is not real) and the mean field ran it, with exit 0."""
        tab = [0.0] * 16
        tab[1] = 1.0
        model = write_json(tmp_path / "m.json", {**model_obj(
            "Annihilation", rates={"R": {"table": tab}}, v={"expr": "uniform", "const": 1.0}),
            "shape": [16]})
        assert main(["perturb", model, "--t-end", "0.1", "--steps", "10",
                     "--method", method]) == 3
        assert capsys.readouterr().err == "runtime error: kernel R must be even, R(x) = R(-x)\n"

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

    def test_unstable_meanfield_runtime_exit(self, tmp_path):
        """The same input as the Dyson case above: an RK4 step of R v dt = 50
        overflows, and the mean field wrote `2.0,9.6875,nan` rows with exit 0
        (and numpy overflow warnings on stderr) where the answer is about 0.05."""
        model = write_json(
            tmp_path / "m.json",
            model_obj("Annihilation", D=0.0,
                      rates={"R": {"const": 1.0, "table": [1.0] * N}},
                      v={"expr": "uniform", "const": 50.0}),
        )
        res = fresh_python("import sys; from rdito.cli import main; "
                           f"sys.exit(main(['perturb', {model!r}, '--t-end', '2.0', "
                           "'--steps', '2', '--method', 'meanfield', '--out', 'x.csv']))",
                           tmp_path)
        assert res.returncode == 3, res.stderr
        assert res.stderr.startswith("runtime error: ") and res.stderr.count("\n") == 1, res.stderr
        assert "not finite" in res.stderr
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("box, shape, center, steps, digests", [
        ((10.0,), (64,), (5.0,), 300,
         {"dyson": "78a2ac4515081daa34c802d81be28cfb48c68c8495ac64727dcf8220c979912c",
          "meanfield": "07736fca0f926a5db16aa453e2d525de1aaa2073f82897f602c8b3c8b2b5d796"}),
        ((6.0, 5.5), (12, 11), (2.2, 3.9), 200,
         {"dyson": "a0044176693026adfe33a2cdc78fb2c3f234506ac7ba0000f74fba4b124fb9d3",
          "meanfield": "7fe89b6e177d2fe20a2b1cf3178528061774cff6b29fa02a1af140ecfff50138"}),
        ((10.0,), (64,), (5.0,), 3000, TREE_LEVEL_DIGESTS),
    ], ids=["1d-64", "2d-12x11", "tree-level"])
    def test_outputs_are_pinned(self, tmp_path, box, shape, center, steps, digests):
        """SHA-256 of the CSV of both methods.  The mean-field digests were
        recorded at d1cf296, before Dyson took the model and both solvers
        returned one array.  The Dyson digests were recorded again when the
        Dyson series came to hold half spectra: its t = 0 row is the half of
        the initial intensity's fftn, completed by X(-k) = conj X(k) like
        every later row, and only the t = 0 cells at mirrored k changed (22
        of 64 in 1-D, 30 of 132 in 2-D; each now repeats its mirror's
        string, where the full fftn differed in the last bits).  The 1-D
        model has the tree-level benchmark's inputs (a Gaussian kernel of
        mass 0.8 and width 0.6, an intensity of mass 8 and width 1, D = 0.7,
        t_end 0.4); its 64 cells take dense_map's matrix path.  The 2-D grid has 132
        cells, past DENSE_CELLS, so it takes the FFT path, and an odd last
        axis, which the mirror X(-k) = conj X(k) completes.  The 2-D Dyson
        digest was recorded again when momentum tables came to be written
        exactly Hermitian: where the half spectrum holds both k and -k (the
        last-axis-0 column of this grid), each pair now takes the string of
        the first in C order, and 776 cells changed, by at most 8.9e-16
        (one rounding unit of the values near 8); no other byte changed.
        The tree-level id is the benchmark's run of 3,000 steps: its tables
        of 192,064 cells are past grid.SPLIT_CELLS, so a forked child formats
        them (the other ids are below it); its digests were recorded at
        fc18455, where this process did."""
        model = gaussian_annihilation_model(tmp_path / "m.json", box, shape, center)
        for method, digest in digests.items():
            out = tmp_path / f"{method}.csv"
            assert main(["perturb", model, "--t-end", "0.4", "--steps", str(steps),
                         "--method", method, "--out", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, method

    def test_tree_level_stdout_in_a_fresh_interpreter(self, tmp_path):
        """Without --out, the tree-level table goes to stdout with the bytes
        of the --out file, and with every warning an error the run exits 0
        with nothing on stderr: the formatter child writes only to its temp
        file."""
        argv = ["perturb", gaussian_annihilation_model(tmp_path / "m.json"),
                "--t-end", "0.4", "--steps", "3000"]
        out = tmp_path / "dyson.csv"
        assert main([*argv, "--out", str(out)]) == 0
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        res = subprocess.run([sys.executable, "-W", "error", "-c",
                              f"import sys; from rdito.cli import main; sys.exit(main({argv!r}))"],
                             cwd=tmp_path, env=env, capture_output=True, timeout=120)
        assert res.returncode == 0 and res.stderr == b"", res.stderr
        assert res.stdout == out.read_bytes()
        assert hashlib.sha256(res.stdout).hexdigest() == TREE_LEVEL_DIGESTS["dyson"]

    @pytest.mark.parametrize("side", ["child", "parent", "consumer"])
    def test_failed_split_table_exits_4_and_writes_nothing(self, tmp_path, capsys, monkeypatch,
                                                          side):
        """A table past grid.SPLIT_CELLS fails as one command: when the
        formatter child fails, when this process formats the table (without
        os.fork) and fails mid-way, at the piece of rows that reaches the
        middle row of the 3,001, or when the file write fails mid-way,
        perturb exits 4 with one stderr line and leaves neither the output,
        nor a temp file, nor a child process."""
        from rdito import perturb

        parent, real_reprs, real_fdopen, rows = os.getpid(), perturb.reprs, os.fdopen, []

        def reprs(values):
            rows.append(len(values))
            if (side == "child" and os.getpid() != parent
                    or side == "parent" and sum(rows) > 1500):
                raise MemoryError("formatting failed")
            return real_reprs(values)

        class FullDisk:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, text):
                self.f.write(text)

            def writelines(self, chunks):
                for i, chunk in enumerate(chunks):
                    if i == 100:
                        raise OSError(errno.ENOSPC, "No space left on device")
                    self.f.write(chunk)

        monkeypatch.setattr(perturb, "reprs", reprs)
        if side == "parent":
            monkeypatch.delattr(os, "fork")
        if side == "consumer":
            monkeypatch.setattr(os, "fdopen", lambda fd, mode: FullDisk(real_fdopen(fd, mode)))
        model = gaussian_annihilation_model(tmp_path / "m.json")
        code = main(["perturb", model, "--t-end", "0.4", "--steps", "3000",
                     "--method", "meanfield", "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("internal error: ") and err.count("\n") == 1, err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("case", ["nonconvergence", "unstable", "closed", "child"])
    def test_streamed_failures_write_nothing(self, tmp_path, capfd, monkeypatch, case, out):
        """A perturb table is streamed to its writer while the solve runs,
        and a failure at any point leaves nothing behind: NonConvergence mid-
        way through a Dyson solve, with the formatter child busy; the mean
        field's Unstable, raised after its last field; the stream closed
        early by a writer that fails on its first chunk; and a formatter
        child that fails.  Each exits 3 (4 for the writer and the child)
        with one stderr line, writes no byte to stdout, and leaves no output,
        no temp file and no child process."""
        import dataclasses

        from rdito import perturb

        model = gaussian_annihilation_model(tmp_path / "m.json")
        argv = ["perturb", model, "--t-end", "0.4", "--steps", "3000", "--method", "meanfield"]
        code = 3
        if case == "nonconvergence":
            real = perturb.dyson_tree_density

            def dyson(*args):
                series = real(*args)

                def fields():
                    for i, x in enumerate(series.fields):
                        if i == 1500:  # a fixed point that never reaches its tolerance
                            monkeypatch.setattr(perturb, "FIXED_POINT_TOL", 0.0)
                        yield x

                return dataclasses.replace(series, fields=fields())

            monkeypatch.setattr(perturb, "dyson_tree_density", dyson)
            argv[-1] = "dyson"
        elif case == "unstable":
            argv[3] = "4000"  # a step of 1.33, too long for RK4: the field overflows
        elif case == "closed":
            code = 4

            class Closing:
                def __init__(self, f):
                    self.f = f

                def __enter__(self):
                    return self

                def __exit__(self, *exc):
                    self.f.close()

                def write(self, text):
                    self.f.write(text)

                def writelines(self, chunks):
                    for i, chunk in enumerate(chunks):
                        if i == 0:
                            raise OSError(errno.EPIPE, "Broken pipe")
                        self.f.write(chunk)

            real_fdopen = os.fdopen
            monkeypatch.setattr(os, "fdopen", lambda fd, mode: Closing(real_fdopen(fd, mode)))
            monkeypatch.setattr(sys, "stdout", Closing(sys.stdout))
        else:
            code, parent, real_write = 4, os.getpid(), os.write

            def write(fd, data):
                if os.getpid() != parent:
                    raise MemoryError("formatting failed")
                return real_write(fd, data)

            monkeypatch.setattr(os, "write", write)
        if out:
            argv += ["--out", str(tmp_path / "x.csv")]
        assert main(argv) == code
        monkeypatch.undo()
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1, captured.err
        assert captured.err.startswith("runtime error: " if code == 3 else "internal error: ")
        assert {"nonconvergence": "fixed point stalled", "unstable": "not finite",
                "closed": "Broken pipe", "child": "exit code 1"}[case] in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["m.json"]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_meanfield_memory_does_not_grow_with_steps(self, tmp_path):
        """The fields stream into the table writer, which holds one piece
        of rows unformatted, so the traced peak of a mean-field run on 8
        cells grows by less than 256 KiB from 2,000 steps (16,008 cells,
        formatted in this process) to 20,000.  When the solvers kept every
        step, the peak grew by about 2.6 MiB: the (steps + 1) x cells array
        and the tuple of times."""
        import tracemalloc

        model = write_json(tmp_path / "m.json", {
            "kind": "Annihilation", "box": [10.0], "shape": [8], "D": 0.5, "rates": {"R": 0.3},
            "v": {"expr": "gaussian", "mass": 4.0, "width": 1.5, "center": [5.0]}})
        peaks = []
        for steps in (2000, 20000):
            tracemalloc.start()
            try:
                assert main(["perturb", model, "--t-end", "1", "--steps", str(steps),
                             "--method", "meanfield", "--out", str(tmp_path / "x.csv")]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 256 * 1024, peaks

    def test_solvers_called_through_module_attributes(self, tmp_path, monkeypatch):
        """perturb looks each solver up on the perturb module when it is
        called, so a wrapper set on the attribute (perfbench times calls that
        way) sees it."""
        from rdito import perturb

        calls = []
        for name in ("dyson_tree_density", "mean_field_pde"):
            def counted(*args, _name=name, _fn=getattr(perturb, name)):
                calls.append(_name)
                return _fn(*args)
            monkeypatch.setattr(perturb, name, counted)
        model = self.annih_model(tmp_path)
        for method in ("dyson", "meanfield"):
            assert main(["perturb", model, "--t-end", "0.1", "--steps", "5",
                         "--method", method, "--out", str(tmp_path / f"{method}.csv")]) == 0
        assert calls == ["dyson_tree_density", "mean_field_pde"]

    @pytest.mark.parametrize("method", ["dyson", "meanfield"])
    def test_too_many_samples_runtime_exit(self, tmp_path, method):
        """10^9 steps on 32 cells made dyson exit 4 on a MemoryError when
        the solvers kept every step's field, and would run the mean field
        for hours.  The fields now stream, but the cap on the table's cells,
        (steps + 1) x cells, bounds the output's size and the run time:
        past it both refuse before any step."""
        model = self.annih_model(tmp_path)
        res = fresh_python("import sys, time; from rdito.cli import main; "
                           "start = time.perf_counter(); "
                           f"code = main(['perturb', {model!r}, '--t-end', '0.4', "
                           f"'--steps', '1000000000', '--method', {method!r}, "
                           "'--out', 'x.csv']); "
                           "print(time.perf_counter() - start); sys.exit(code)",
                           tmp_path, timeout=30)
        assert res.returncode == 3
        assert res.stderr.startswith("runtime error: ") and res.stderr.count("\n") == 1
        assert "2^24" in res.stderr
        assert float(res.stdout) < 2.0
        assert not (tmp_path / "x.csv").exists()


# (argv, the files its manifest names, forks) for every command that writes
# a file; a perturb table of 101 x 64 cells is below grid.SPLIT_CELLS and one
# of 601 x 64 above it, so one forked child formats it
MANIFEST_RUNS = {
    "derive-table": (["derive-table", "A", "Adag"], {"o.txt", "o.json"}, 0),
    "density": (["density", "{model}", "--t", "0.5"], {"o"}, 0),
    "simulate": (["simulate", "{model}", "{sim}", "--t-end", "0.1"],
                 {"o_grid.csv", "o_scalars.json"}, 0),
    **{f"perturb-{method}-{steps}": (["perturb", "{annih}", "--t-end", "0.4", "--steps",
                                      str(steps), "--method", method], {"o"}, int(steps > 100))
       for method in ("dyson", "meanfield") for steps in (100, 600)},
}


@pytest.mark.parametrize("run", MANIFEST_RUNS)
def test_manifest_digests_are_the_bytes_written(tmp_path, monkeypatch, run):
    """Each output's digest in the manifest is "sha256:" and the SHA-256 of
    the file's bytes, for every command that writes files, and for perturb
    tables formatted in this process and by a forked child."""
    real_fork, forks = os.fork, []

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    files = {"model": write_json(tmp_path / "m.json", model_obj()),
             "sim": write_json(tmp_path / "s.json", {"dt": 0.01, "replicas": 100, "seed": 7}),
             "annih": gaussian_annihilation_model(tmp_path / "a.json")}
    argv, names, fork_count = MANIFEST_RUNS[run]
    assert main([*(a.format(**files) for a in argv), "--out", str(tmp_path / "o")]) == 0
    outputs = json.loads((tmp_path / "o.manifest.json").read_text())["outputs"]
    assert set(outputs) == names
    for name, digest in outputs.items():
        assert digest == "sha256:" + hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert len(forks) == fork_count


# The rates of one small valid model per kind, all at D = 0; None for the
# grid-less DiscreteDeath.
KIND_MODELS = {
    "DeathDiffusion": {"mu": 1.0}, "BrownianTree": {"mu": 0.5}, "ConvertAB": {"mu": 1.0},
    "SpontBirth": {"mu": 1.0}, "BirthDeathTimeDep": {"mu": 1.0, "nu": 1.0},
    "DiscreteDeath": None, "Annihilation": {"R": 0.1},
}
COMMANDS = ("density", "gf", "fn", "simulate", "perturb")


def kind_model(kind):
    if KIND_MODELS[kind] is None:
        return {"kind": kind, "rates": {"mu": 1.0}, "v": 3.0}
    obj = {**model_obj(kind, D=0.0, rates=KIND_MODELS[kind],
                       v={"expr": "uniform", "const": 1.0}), "shape": [8]}
    if kind == "ConvertAB":
        obj["vb"] = {"expr": "uniform", "const": 0.5}
    return obj


def served(kind):
    """The commands a kind answers, read from models.KINDS; simulate needs a grid."""
    from rdito.models import KINDS, ModelSpec

    entry = KINDS[kind]
    has_grid = ModelSpec.from_json(json.dumps(kind_model(kind))).d > 0
    return {cmd for cmd, ok in [("density", entry.density), ("gf", entry.log_gf),
                                ("fn", entry.fn), ("simulate", has_grid),
                                ("perturb", entry.pairs)] if ok}


def command_argv(cmd, model, sim, out):
    return {"density": ["density", model, "--t", "0.1"],
            "gf": ["gf", model, "--t", "0.1"],
            "fn": ["fn", model, "--t", "0.1", "--points", "5.0"],
            "simulate": ["simulate", model, sim, "--t-end", "0.1"],
            "perturb": ["perturb", model, "--t-end", "0.1", "--steps", "5"]}[cmd] + ["--out", out]


class TestRefusals:
    """A model that cannot answer a command exits 2 with one line, and
    writes nothing, whatever the command and whatever the reason."""

    @pytest.mark.parametrize("kind", sorted(KIND_MODELS))
    @pytest.mark.parametrize("cmd", COMMANDS)
    def test_every_command_on_every_kind(self, tmp_path, capsys, cmd, kind):
        model = write_json(tmp_path / "m.json", kind_model(kind))
        kernel = {"kernel": {"cutoff": 1.0, "samples": [1.0, 0.0]}} if kind == "Annihilation" else {}
        sim = write_json(tmp_path / "s.json", {"dt": 0.01, "replicas": 10, "seed": 1, **kernel})
        code = main(command_argv(cmd, model, sim, str(tmp_path / "x")))
        if cmd in served(kind):
            assert code == 0, capsys.readouterr().err
        else:
            assert code == 2
            assert one_line_error(capsys)
            assert not list(tmp_path.glob("x*"))

    def test_every_kind_serves_a_command(self):
        assert all(served(kind) for kind in KIND_MODELS)
        assert set().union(*map(served, KIND_MODELS)) == set(COMMANDS)

    @pytest.mark.parametrize("kind", ["ConvertAB", "SpontBirth", "BirthDeathTimeDep"])
    def test_static_closed_form_with_diffusion_usage_exit(self, tmp_path, capsys, kind):
        """These closed forms leave diffusion out: at D = 1 they gave about
        twice the Monte Carlo peak with exit 0.  simulate still runs them."""
        model = write_json(tmp_path / "m.json", {**kind_model(kind), "D": 1.0})
        sim = write_json(tmp_path / "s.json", {"dt": 0.01, "replicas": 10, "seed": 1})
        for cell_average in ([], ["--cell-average"]):
            assert main(["density", model, "--t", "0.5", "--out", str(tmp_path / "x"),
                         *cell_average]) == 2
            assert "D = 0 only" in one_line_error(capsys)
        assert not list(tmp_path.glob("x*"))
        assert main(command_argv("simulate", model, sim, str(tmp_path / "mc"))) == 0

    @pytest.mark.parametrize("cmd", ["density", "gf", "fn"])
    @pytest.mark.parametrize("mu", [{"const": 1.0, "expr": "sin2"},
                                    {"table": [1.0] * 8}], ids=["sin2", "table"])
    def test_rate_the_closed_form_needs_constant_usage_exit(self, tmp_path, capsys, cmd, mu):
        """A NonconstantRate exited 3, as if the computation had failed."""
        model = write_json(tmp_path / "m.json",
                           {**kind_model("DeathDiffusion"), "rates": {"mu": mu}, "D": 1.0})
        assert main(command_argv(cmd, model, None, str(tmp_path / "x"))) == 2
        assert "constant mu" in one_line_error(capsys)
        assert not list(tmp_path.glob("x*"))

    def test_kernel_on_a_kind_that_does_not_pair_usage_exit(self, tmp_path, capsys):
        """The kernel was ignored with exit 0."""
        model = write_json(tmp_path / "m.json", kind_model("DeathDiffusion"))
        sim = write_json(tmp_path / "s.json", {"dt": 0.01, "replicas": 10, "seed": 1,
                                               "kernel": {"cutoff": 1.0, "samples": [1.0]}})
        assert main(command_argv("simulate", model, sim, str(tmp_path / "x"))) == 2
        assert "DeathDiffusion model takes no kernel" in one_line_error(capsys)
        assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize("t_end", ["0", "0.1"])
    def test_annihilation_without_a_kernel_usage_exit(self, tmp_path, capsys, t_end):
        """Exit 0 at --t-end 0, where no step ran to notice, and 3 otherwise."""
        model = write_json(tmp_path / "m.json", kind_model("Annihilation"))
        sim = write_json(tmp_path / "s.json", {"dt": 0.01, "replicas": 10, "seed": 1})
        assert main(["simulate", model, sim, "--t-end", t_end,
                     "--out", str(tmp_path / "x")]) == 2
        assert "Annihilation model needs a kernel" in one_line_error(capsys)
        assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize("kind, rates, argv, message", [
        ("BrownianTree", {"mu": 1.0}, ["gf", "--t", "1.0", "--u", "2.0"], "geometric factor"),
        ("BirthDeathTimeDep", {"mu": 1.0, "nu": 1e5}, ["density", "--t", "1.0"],
         "birth integral"),
        ("BrownianTree", {"mu": 800.0}, ["density", "--t", "1.0"], "v e^(mu t) overflows"),
    ])
    def test_runtime_failure_exit(self, tmp_path, capsys, kind, rates, argv, message):
        """A model that can answer, but whose computation fails, still exits 3."""
        model = write_json(tmp_path / "m.json", {**kind_model(kind), "rates": rates})
        assert main([argv[0], model, *argv[1:], "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("runtime error: ") and message in err and err.count("\n") == 1
        assert not list(tmp_path.glob("x*"))


def test_unexpected_exception_exits_4_without_traceback(tmp_path, capsys, monkeypatch):
    """A crash is not a failed comparison: it exits 4 with one line."""
    def boom(*args, **kwargs):
        raise ZeroDivisionError("injected\nfault")

    monkeypatch.setattr("rdito.simulate.run", boom)
    model = write_json(tmp_path / "m.json", model_obj())
    sim = write_json(tmp_path / "s.json", {"dt": 0.01, "replicas": 10, "seed": 1})
    assert main(["simulate", model, sim, "--t-end", "0.1", "--out", str(tmp_path / "x")]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: ZeroDivisionError: injected fault\n"


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

    @pytest.mark.parametrize("table, message", [
        ("t,x0,value\n0.1,0.0,np.float64(1.0)\n", "malformed row"),
        ("name,index,value\ndensity,0,1.0,2.0\n", "malformed row"),
        ("name,index,value\ndensity,0,1.0\ndensity,1,1.0\ndensity_se,0,0.1\n",
         "1 density_se rows for 2 density rows"),
    ])
    def test_malformed_table_usage_exit(self, tmp_path, capsys, table, message):
        a = tmp_path / "a.csv"
        a.write_text(table)
        assert main(["compare", str(a), str(a)]) == 2
        assert message in one_line_error(capsys)

    @pytest.mark.parametrize("flag, value", [
        ("--sigma", "nan"), ("--sigma", "-1"), ("--sigma", "inf"), ("--sigma", "0"),
        ("--se-scale", "nan"), ("--se-scale", "-1"), ("--se-scale", "inf"),
    ])
    def test_bad_sigma_or_se_scale_usage_exit(self, tmp_path, capsys, flag, value):
        """Checked before any table is read: the paths here do not exist."""
        missing = str(tmp_path / "missing.csv")
        assert main(["compare", missing, missing, f"{flag}={value}"]) == 2
        assert one_line_error(capsys) == f"error: {flag} must be finite and " + (
            "> 0" if flag == "--sigma" else ">= 0") + f", got {float(value)}"


@pytest.mark.parametrize("sigma", [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 5.0, 9.0])
def test_allowed_outliers_equal_scipy_binomial_quantile(sigma):
    """compare's outlier allowance is scipy's binom.ppf(0.99, n, p), p the
    two-sided normal tail, exactly: at every n <= 400 and at counts where
    n p is in the hundreds and (1 - p)^n underflows."""
    from scipy import stats

    p = 2.0 * (1.0 - stats.norm.cdf(sigma))
    for n in [*range(401), 1000, 5000, 20000, 192000]:
        expect = int(stats.binom.ppf(0.99, n, p))
        assert binom_quantile(0.99, n, math.erfc(sigma / math.sqrt(2))) == expect, n


@pytest.mark.parametrize("q", [0.01, 0.5, 0.9, 0.999])
def test_binom_quantile_equals_scipy_at_other_levels(q):
    from scipy import stats

    for n in (1, 7, 50, 300, 4000):
        for p in (1e-4, 0.02, 0.3, 0.5, 0.77, 0.99):
            assert binom_quantile(q, n, p) == int(stats.binom.ppf(q, n, p)), (n, p)


def test_image_sum_returns_on_kernels_far_narrower_or_wider_than_the_box(tmp_path):
    """Every image of a kernel 1e-3 boxes wide underflows to 0, and the sum
    waited for an image below 1e-14 of a zero total; one 1e9 boxes wide
    needed some 1e10 image pairs.  Both ran for good."""
    res = fresh_python(
        "import numpy as np\n"
        f"import sys; sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from oracles import heat_kernel\n"
        "from rdito.models import image_sum\n"
        "print(heat_kernel(1, 1.0, [0.5], 1e-7, box=(1.0,)))\n"
        "print(image_sum(np.array([0.5, 0.3]), 1.0, 4e-7).tolist())\n"
        "print(heat_kernel(1, 1.0, [0.5], 1e18, box=(1.0,)))\n",
        tmp_path, timeout=30,
    )
    assert res.returncode == 0, res.stderr
    narrow, narrow_sum, wide = res.stdout.split("\n")[:3]
    assert (narrow, narrow_sum) == ("0.0", "[0.0, 0.0]")
    assert float(wide) == pytest.approx(1.0, rel=1e-15)


def test_readme_model_example_is_a_valid_model(tmp_path, capsys):
    """The README's model file example once had a field spec `density`
    refused with exit 2; its t = 0 density holds the stated mass."""
    blocks = re.findall(r"```json\n(.*?)```", (SRC.parent / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    obj = json.loads(blocks[0])
    model = tmp_path / "m.json"
    model.write_text(blocks[0])
    assert main(["density", str(model), "--t", "0.0", "0.5"]) == 0
    values = [float(ln.split(",")[-1]) for ln in capsys.readouterr().out.splitlines()
              if ln.startswith("0.0,")]
    dx = obj["box"][0] / obj["shape"][0]
    assert len(values) == obj["shape"][0]
    assert sum(values) * dx == pytest.approx(obj["v"]["mass"], rel=1e-10)


def test_readme_kinds_table_names_the_commands_each_kind_serves():
    """The README's kinds table has a column of the commands each kind
    answers, which must be what models.KINDS says."""
    text = (SRC.parent / "README.md").read_text()
    rows = [[c.strip() for c in ln.strip("|").split("|")] for ln in text.splitlines()
            if ln.startswith("| `")]
    header = next(ln for ln in text.splitlines() if ln.startswith("| kind |"))
    col = [c.strip() for c in header.strip("|").split("|")].index("commands")
    table = {row[0].strip("`"): {c.strip("` ") for c in row[col].split(",")} for row in rows}
    assert table == {kind: served(kind) for kind in KIND_MODELS}


def test_no_scipy_on_the_startup_path(tmp_path):
    """No command imports scipy: in a fresh interpreter that import costs
    most of the start-up time of a CLI call and doubles its memory."""
    model = write_json(tmp_path / "m.json", model_obj())
    sim = write_json(tmp_path / "s.json", {"dt": 0.01, "replicas": 10, "seed": 1})
    annih = TestPerturb().annih_model(tmp_path)
    prof = [1.0 + 0.5 * math.sin(2 * math.pi * i / N) for i in range(N)]
    timedep = write_json(tmp_path / "bd.json", model_obj(
        "BirthDeathTimeDep", D=0.0, rates={"mu": {"table": prof, "expr": "sin2"},
                                           "nu": {"const": 0.5, "table": prof, "expr": "cos2"}}))
    discrete = write_json(tmp_path / "dd.json",
                          {"kind": "DiscreteDeath", "rates": {"mu": 2.0}, "v": 3.0})
    runs = [
        ["density", model, "--t", "0.1", "--out", "d.csv"],
        ["density", model, "--t", "0.1", "--cell-average", "--out", "c.csv"],
        ["density", timedep, "--t", "0.1", "1.5", "--out", "bd.csv"],
        ["gf", model, "--t", "0.1", "--u", "0.5", "--out", "g.csv"],
        ["gf", discrete, "--t", "0.1", "--u", "0.5", "--out", "dd.csv"],
        ["simulate", model, sim, "--t-end", "0.05", "--u", "0.5", "--out", "mc"],
        ["perturb", annih, "--t-end", "0.1", "--steps", "10", "--out", "p.csv"],
        ["compare", "d.csv", "c.csv", "--se-scale", "0.1", "--out", "cmp.json"],
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
    assert json.loads((tmp_path / "cmp.json").read_text())["points"] == N


def test_no_module_imports_scipy():
    """scipy is a test dependency: no module of the package imports it, at
    the top or inside a function."""
    found = []
    for path in sorted((SRC / "rdito").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names
                      if n == "scipy" or n.startswith("scipy.")]
    assert found == []


def test_every_public_name_is_named_by_the_package_or_the_benchmark():
    """A public function, class, method or property of grid, models, perturb,
    simulate or cli that no code in src/rdito/ or perfbench/ names serves the
    tests only, and belongs with them (tests/oracles.py).  Identifiers and
    string constants both count, since perfbench/spans.py names the
    attributes it wraps as strings.  algebra is exempt: its public API is the
    symbolic library that the README documents."""
    paths = sorted((SRC / "rdito").glob("*.py")) + sorted((SRC.parent / "perfbench").glob("*.py"))
    named = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    public = []
    for module in ("grid", "models", "perturb", "simulate", "cli"):
        for node in ast.parse((SRC / "rdito" / f"{module}.py").read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                public.append(f"{module}.{node.name}")
                if isinstance(node, ast.ClassDef):
                    public += [f"{module}.{node.name}.{m.name}" for m in node.body
                               if isinstance(m, ast.FunctionDef) and m.name[0] != "_"]
    unnamed = [p for p in public if p.rsplit(".", 1)[1] not in named]
    assert not unnamed, f"named only by the tests: {unnamed}"


def test_every_traced_benchmark_target_is_an_attribute_of_its_owner(monkeypatch):
    """perfbench/spans.py wraps the attributes its TARGETS name, reading each
    from its owner's __dict__; a change to src/ that renames or moves one
    breaks the traced benchmark, which no other test runs.  The import
    writes no bytecode into perfbench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(SRC.parent / "perfbench"))
    import spans

    missing = [f"{owner.__name__}.{attr}" for owner, attr, *_ in spans.TARGETS
               if attr not in vars(owner)]
    assert spans.TARGETS and not missing, f"not in its owner's __dict__: {missing}"


def test_every_benchmark_workload_runs_clean(monkeypatch, tmp_path):
    """Each perfbench workload's prepare, timed section and checks, once, at
    seed 1, as perfbench/run.py calls them: no command raises or exits with
    a code it does not allow, and every check holds.  The import writes no
    bytecode into perfbench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(SRC.parent / "perfbench"))
    import workloads

    assert "third-order" in workloads.WORKLOADS  # the one caller of perturb.momentum_grid
    for name, cls in workloads.WORKLOADS.items():
        work = tmp_path / name
        work.mkdir()
        wl, session = cls(), workloads.Session()
        wl.prepare(session, work, 1)
        wl.check(session, wl.timed(session))
        assert session.attempted and session.failed == 0, (name, session.failures)


def test_scipy_is_only_a_test_dependency():
    import tomllib

    with open(SRC.parent / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]

    def names(reqs):
        return {re.split(r"[<>=!~ \[;]", r, maxsplit=1)[0].lower() for r in reqs}

    assert "scipy" not in names(project["dependencies"])
    extras = {k: names(v) for k, v in project["optional-dependencies"].items()}
    assert [k for k, v in extras.items() if "scipy" in v] == ["test"]


def test_sources_parse_at_the_declared_python_floor():
    """Every module of the package and of the tests parses with the grammar
    of the oldest Python that pyproject.toml declares."""
    import tomllib

    with open(SRC.parent / "pyproject.toml", "rb") as f:
        floor = tomllib.load(f)["project"]["requires-python"]
    version = tuple(int(p) for p in floor.removeprefix(">=").split("."))
    assert version == (3, 10)
    paths = sorted([*(SRC / "rdito").glob("*.py"), *(SRC.parent / "tests").glob("*.py")])
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(), str(path), feature_version=version)


def test_cli_import_leaves_numpy_polynomial_unloaded(tmp_path):
    """The Gauss-Legendre nodes of the birth integral are made on first
    use, so a command that integrates no births never loads numpy.polynomial."""
    res = fresh_python("import sys, rdito.cli; print('numpy.polynomial' in sys.modules)",
                       tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_perturb_run_leaves_numpy_ma_unloaded(tmp_path):
    """Neither tree-level solver nor the table writer loads numpy.ma.  numpy
    imports it on the first call of some functions, np.unique among them:
    one np.unique call in the writer raised the tree-level benchmark's peak
    RSS by about 0.8 MiB (78.6 to 79.35 MiB)."""
    x = np.arange(N) * (L / N)
    tab = 0.4 * np.exp(-np.minimum(x, L - x) ** 2 / 0.5)
    model = write_json(tmp_path / "a.json",
                       model_obj("Annihilation", rates={"R": {"table": list(tab)}}))
    code = ("import sys\nfrom rdito.cli import main\n"
            "for m in ('dyson', 'meanfield'):\n"
            f"    assert main(['perturb', {model!r}, '--t-end', '0.1', '--steps', '20',\n"
            "                 '--method', m, '--out', m + '.csv']) == 0\n"
            "print('numpy.ma' in sys.modules)")
    res = fresh_python(code, tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"
    assert (tmp_path / "dyson.csv").stat().st_size > 0
