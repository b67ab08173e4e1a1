import json

import pytest

from lpgreedy import ExperimentConfig
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

    def test_json_config_accepted(self, tmp_path):
        _, config = write_config(tmp_path)
        json_path = tmp_path / "config.json"
        json_path.write_text(config.to_json())
        out = tmp_path / "out"
        assert main(["run", "--config", str(json_path), "--out", str(out)]) == 0

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("space.p = 1.0\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "space.p" in capsys.readouterr().err

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

    def test_fractional_dim_refused(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("space.p = 1.5\nspace.dim = 16.5\ndictionary.count = 32\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert "space.dim: must be an integer; got 16.5" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_config_exits_2(self, tmp_path):
        missing = tmp_path / "nope.txt"
        assert main(["run", "--config", str(missing), "--out", str(tmp_path)]) == 2

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

    def test_invalid_spec_exits_2(self, tmp_path):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text("{\"axes\": []}")
        assert main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path)]) == 2


class TestVerifyCommand:
    def test_quick_profile_passes(self, capsys):
        assert main(["verify", "--profile", "quick", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 14
        assert "14/14 criteria passed" in out

    def test_seed_variation(self, capsys):
        assert main(["verify", "--profile", "quick", "--seed", "3"]) == 0
