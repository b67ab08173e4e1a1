import json

import pytest

from lpgreedy import ExperimentConfig, harness
from lpgreedy.cli import main


def write_config(tmp_path, **overrides):
    data = {
        "space": {"p": 2.0, "dim": 4},
        "dictionary": {"kind": "canonical", "count": 4, "seed": 0},
        "target": {"membership": "a1", "sparsity": 2, "eps": 0.0, "seed": 1},
        "algorithm": {"id": "wgafr", "iters": 8, "t": 1.0},
    }
    for key, section in overrides.items():
        data.setdefault(key, {}).update(section)
    config = ExperimentConfig.from_dict(data)
    path = tmp_path / "config.txt"
    path.write_text(config.to_text())
    return path, config


class TestRunCommand:
    def test_successful_run(self, tmp_path, capsys):
        config_path, config = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "wgafr" in captured
        assert (out / "trace.csv").exists()
        assert (out / "report.json").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "overrides",
        [{"space": {"p": 1.001}}, {"space": {"p": 1.0000000000000002}},
         {"target": {"eps": 1e300}}, {"algorithm": {"id": "gawr", "t": 1e-300}},
         {"algorithm": {"id": "gawr", "t": 5e-324}}],
        ids=["wgafr_p_1.001", "wgafr_p_1_plus_ulp", "wgafr_eps_1e300", "gawr_t_1e-300",
             "gawr_t_5e-324"],
    )
    def test_values_at_the_ends_of_their_range_run_and_write_both_files(self, tmp_path, overrides):
        # A bound past float range is +inf (or, for mt2's constant, formed without overflow).
        shape = {"space": {"p": 1.5, "dim": 8}, "dictionary": {"kind": "gaussian", "count": 16},
                 "algorithm": {"iters": 20}}
        for key, section in overrides.items():
            shape[key] = {**shape.get(key, {}), **section}
        config_path, _ = write_config(tmp_path, **shape)
        out = tmp_path / "out"
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        assert (out / "trace.csv").exists() and (out / "report.json").exists()

    def test_json_config_accepted(self, tmp_path):
        _, config = write_config(tmp_path)
        json_path = tmp_path / "config.json"
        json_path.write_text(config.to_json())
        out = tmp_path / "out"
        assert main(["run", "--config", str(json_path), "--out", str(out)]) == 0

    @pytest.mark.parametrize(
        "text, message",
        [("space.p = 1.0\n", "space.p: "),
         ('{"space": 5}', "space: must be an object of fields; got 5"),
         ('{"algorithm": [1]}', "algorithm: must be an object of fields; got [1]")],
        ids=["p_out_of_range", "section_is_number", "section_is_list"],
    )
    def test_invalid_config_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    @pytest.mark.parametrize(
        "line, message",
        [
            ("output.trace_csv = 5", "output.trace_csv: must be a file name in --out; got 5"),
            ("output.report_json = ", "output.report_json: must be a file name in --out; got ''"),
            ("output.trace_csv = sub/t.csv",
             "output.trace_csv: must be a file name in --out; got 'sub/t.csv'"),
            ("output.report_json = .", "output.report_json: must be a file name in --out; got '.'"),
            ("output.trace_csv = ..", "output.trace_csv: must be a file name in --out; got '..'"),
            ('output.trace_csv = "t\\u0000.csv"',
             "output.trace_csv: must be a file name in --out; got 't\\x00.csv'"),
            ("output.report_json = trace.csv",
             "output.report_json: must differ from trace_csv 'trace.csv'"),
        ],
        ids=["not_a_string", "empty", "subdirectory", "dot", "dot_dot", "nul_byte", "same_as_trace"],
    )
    def test_bad_output_name_exits_2_before_step_1(
        self, tmp_path, capsys, monkeypatch, line, message
    ):
        def no_build(config):
            raise AssertionError("the run was built")

        monkeypatch.setattr(harness, "_build", no_build)
        path = tmp_path / "bad.txt"
        path.write_text(f"space.p = 1.5\n{line}\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "line",
        ["solver.grad_tol = Infinity", "solver.max_iters = Infinity", "space.dim = Infinity",
         "algorithm.iters = NaN", "target.sparsity = NaN"],
    )
    def test_non_finite_value_refused_by_field(self, tmp_path, capsys, line):
        path = tmp_path / "bad.txt"
        path.write_text(f"space.p = 1.5\n{line}\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert line.split(" = ")[0] in err

    @pytest.mark.parametrize(
        "line",
        ["space.p = none", "space.p = [2]", "space.p = abc", "algorithm.t = [1]",
         "algorithm.tau = 5", "target.eps = none", "checks.slack = none"],
    )
    def test_non_numeric_value_refused_by_field(self, tmp_path, capsys, line):
        path = tmp_path / "bad.txt"
        path.write_text(f"{line}\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {line.split(' = ')[0]}: ")

    def test_boolean_integer_fields_exit_2_before_step_1(self, tmp_path, capsys, monkeypatch):
        def no_build(config):
            raise AssertionError("the run was built")

        monkeypatch.setattr(harness, "_build", no_build)
        path = tmp_path / "bad.txt"
        path.write_text("space.p = 1.5\nspace.dim = true\nalgorithm.iters = true\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "config error: space.dim: must be an integer; got True\n"
        assert not (tmp_path / "o").exists()
        for line in ("dictionary.seed = true", "algorithm.iters = false"):
            path.write_text(f"{line}\n")
            assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
            field = line.split(" = ")[0]
            assert capsys.readouterr().err.startswith(f"config error: {field}: must be an integer")

    def test_fractional_dim_refused(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("space.p = 1.5\nspace.dim = 16.5\ndictionary.count = 32\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "space.dim: must be an integer; got 16.5" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("path", ["dictionary.seed", "target.seed"])
    @pytest.mark.parametrize("value", ["3.5", "-1", "NaN", "Infinity"])
    def test_bad_seed_refused_by_field(self, tmp_path, capsys, path, value):
        config = tmp_path / "bad.txt"
        config.write_text(f"{path} = {value}\nalgorithm.iters = 3\n")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {path}: must be ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "case", ["missing_config", "config_is_dir", "out_is_file", "sweep_out_is_file"]
    )
    def test_missing_config_exits_2(self, tmp_path, capsys, monkeypatch, case):
        # An unusable path is refused with exit 2 before any run starts.
        config_path, config = write_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("")
        cells = []
        if case == "missing_config":
            argv = ["run", "--config", str(tmp_path / "nope.txt"), "--out", str(tmp_path)]
        elif case == "config_is_dir":
            argv = ["run", "--config", str(tmp_path), "--out", str(tmp_path / "o")]
        elif case == "out_is_file":
            argv = ["run", "--config", str(config_path), "--out", str(taken)]
        else:
            spec_path = tmp_path / "sweep.json"
            spec_path.write_text(json.dumps({"base": config.to_dict(), "axes": []}))
            argv = ["sweep", "--spec", str(spec_path), "--out", str(taken)]
            monkeypatch.setattr(harness, "run_experiment", lambda *a, **k: cells.append(a))
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert cells == []  # the sweep refuses its --out before its first cell

    def test_run_twice_byte_identical(self, tmp_path):
        config_path, _ = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(config_path), "--out", str(out_a)])
        main(["run", "--config", str(config_path), "--out", str(out_b)])
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()


class TestSweepCommand:
    def test_sweep(self, tmp_path, capsys):
        _, config = write_config(tmp_path, dictionary={"kind": "gaussian", "count": 8})
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(
            json.dumps(
                {
                    "base": config.to_dict(),
                    "axes": [["space.p", [1.5, 2.0]]],
                    "replicate_seeds": 2,
                }
            )
        )
        out = tmp_path / "out"
        assert main(["sweep", "--spec", str(spec_path), "--out", str(out)]) == 0
        lines = (out / "sweep_summary.csv").read_text().splitlines()
        assert len(lines) == 1 + 4

    @pytest.mark.parametrize(
        "spec, message",
        [({"axes": []}, "base: "),
         ({"base": 5}, "base: "),
         ({"base": {}, "axes": 5}, "axes: "),
         ({"base": {}, "axes": [["space.p", 1.5]]}, "axes: "),
         ({"base": {}, "axes": [["space.p"]]}, "axes: "),
         ({"base": {}, "axes": [["space.p", "abc"]]}, "axes: ")],
        ids=["no_base", "base_is_number", "axes_is_number", "values_is_number", "no_values",
             "values_is_string"],
    )
    def test_invalid_spec_exits_2(self, tmp_path, capsys, spec, message):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")
        assert not (tmp_path / "o").exists()

    def test_bad_base_seed_exits_2(self, tmp_path, capsys):
        _, config = write_config(tmp_path)
        base = config.to_dict()
        base["dictionary"]["seed"] = -1
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps({"base": base, "axes": [["space.p", [1.5, 2.0]]]}))
        assert main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        assert "config error: dictionary.seed: must be >= 0; got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_numeric_base_p_exits_2(self, tmp_path, capsys):
        _, config = write_config(tmp_path)
        base = config.to_dict()
        base["space"]["p"] = None
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps({"base": base, "axes": [["algorithm.iters", [2]]]}))
        assert main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        assert "config error: space.p: must be a number; got None" in capsys.readouterr().err

    @pytest.mark.parametrize("path", ["dictionary.seed", "target.seed"])
    def test_seed_axis_exits_2(self, tmp_path, capsys, path):
        _, config = write_config(tmp_path)
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps({"base": config.to_dict(), "axes": [[path, [1, 2]]]}))
        assert main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "o")]) == 2
        assert f"config error: axes.{path}: every cell derives its seeds" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


# The printed output of ``verify --profile quick --seed 0``. A change to any
# criterion margin, sample count or verdict shows up here as an edit of this copy.
QUICK_SEED_0_LINES = [
    "PASS  criterion  1 duality_identities: worst_margin=1.000e-09 samples=400",
    "PASS  criterion  2 ll0_sandwich: worst_margin=1.229e-09 samples=4000",
    "PASS  criterion  3 ll1_certificate: worst_margin=9.976e-08 samples=40",
    "PASS  criterion  4 ll2_ll3_sampling: worst_margin=1.000e-09 samples=808",
    "PASS  criterion  5 wgafr_monotonicity: worst_margin=1.457e-07 samples=150",
    "PASS  criterion  6 ml1_per_step: worst_margin=1.779e-04 samples=150",
    "PASS  criterion  7 ml3_per_step: worst_margin=1.280e-01 samples=180",
    "PASS  criterion  8 mt2_explicit_bound: worst_margin=2.649e+00 samples=600",
    "PASS  criterion  9 orthonormal_exactness: worst_margin=1.000e-08 samples=4",
    "PASS  criterion 10 iac_rate: worst_margin=1.563e-02 samples=8",
    "PASS  criterion 11 iacc_barycentric: worst_margin=9.997e-13 samples=320",
    "PASS  criterion 12 gawr_rate_proxy: worst_margin=2.000e+00 samples=8",
    "PASS  criterion 13 sequence_bounds: worst_margin=1.000e-12 samples=40",
    "PASS  criterion 14 determinism: worst_margin=0.000e+00 samples=4",
    "14/14 criteria passed",
]


class TestVerifyCommand:
    def test_quick_seed_0_output_pinned(self, capsys):
        assert main(["verify", "--profile", "quick", "--seed", "0"]) == 0
        assert capsys.readouterr().out.splitlines() == QUICK_SEED_0_LINES

    def test_quick_profile_passes(self, capsys):
        assert main(["verify", "--profile", "quick", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 14
        assert "14/14 criteria passed" in out

    def test_negative_seed_passes(self, capsys):
        # Criterion 14 derives its config seeds from the verify seed, which may be negative.
        assert main(["verify", "--profile", "quick", "--seed", "-4"]) == 0
        assert "14/14 criteria passed" in capsys.readouterr().out

    def test_seed_variation(self, capsys):
        assert main(["verify", "--profile", "quick", "--seed", "3"]) == 0
