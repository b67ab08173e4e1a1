import dataclasses
import json

import pytest

from lpgreedy import ConfigError, ExperimentConfig
from lpgreedy.config import SweepSpec, stable_seed
from lpgreedy.harness import run_experiment


def sample_config(**overrides):
    data = {
        "space": {"p": 2.0, "dim": 8},
        "dictionary": {"kind": "gaussian", "count": 16, "seed": 3},
        "target": {"membership": "a1", "sparsity": 3, "eps": 0.0, "seed": 4},
        "algorithm": {"id": "wgafr", "iters": 12, "t": 1.0},
    }
    for key, section in overrides.items():
        data.setdefault(key, {}).update(section)
    return ExperimentConfig.from_dict(data)


class TestValidation:
    def test_defaults_validate(self):
        ExperimentConfig().validate()

    def test_p_one_names_field(self):
        config = sample_config(space={"p": 1.0})
        with pytest.raises(ConfigError, match="space.p"):
            config.validate()

    def test_canonical_count_mismatch(self):
        config = sample_config(dictionary={"kind": "canonical", "count": 16})
        with pytest.raises(ConfigError, match="dictionary.count"):
            config.validate()

    def test_sparsity_beyond_count(self):
        config = sample_config(target={"sparsity": 99})
        with pytest.raises(ConfigError, match="target.sparsity"):
            config.validate()

    def test_iac_membership_cross_rule(self):
        config = sample_config(algorithm={"id": "iac"})
        config.target.membership = "conv"
        with pytest.raises(ConfigError, match="iac requires"):
            config.validate()

    def test_iacc_eps_cross_rule(self):
        config = sample_config(
            algorithm={"id": "iacc"}, target={"membership": "conv", "eps": 0.1}
        )
        with pytest.raises(ConfigError, match="iacc requires"):
            config.validate()

    def test_tau_shorter_than_iters(self):
        config = sample_config(algorithm={"tau": [1.0, 0.5]})
        with pytest.raises(ConfigError, match="algorithm.tau"):
            config.validate()

    def test_custom_r_requires_values(self):
        config = sample_config(algorithm={"id": "gawr", "r_kind": "custom"})
        with pytest.raises(ConfigError, match="algorithm.r_values"):
            config.validate()

    def test_solver_ranges_surface_as_config_errors(self):
        with pytest.raises(ConfigError, match="grad_tol"):
            sample_config(solver={"grad_tol": -1.0})
        with pytest.raises(ConfigError, match="solver.grad_tol must be finite"):
            sample_config(solver={"grad_tol": float("inf")})
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="solver.max_iters must be an integer"):
                sample_config(solver={"max_iters": value})

    @pytest.mark.parametrize(
        "section,name", [("target", "eps"), ("algorithm", "k1"), ("checks", "slack")]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_float_names_field(self, section, name, value):
        config = sample_config(**{section: {name: value}})
        with pytest.raises(ConfigError, match=f"{section}.{name}: must be finite"):
            config.validate()

    @pytest.mark.parametrize(
        "section,name",
        [("space", "dim"), ("dictionary", "count"), ("target", "sparsity"),
         ("algorithm", "iters"), ("checks", "lambda_points")],
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_integer_names_field(self, section, name, value):
        config = sample_config(**{section: {name: value}})
        with pytest.raises(ConfigError, match=f"{section}.{name}: must be an integer"):
            config.validate()

    @pytest.mark.parametrize(
        "path",
        ["space.dim", "dictionary.count", "target.sparsity", "algorithm.iters",
         "checks.lambda_points", "solver.max_iters"],
    )
    def test_fractional_integer_names_field(self, path):
        section, name = path.split(".")
        with pytest.raises(ConfigError, match=f"{path}:? must be an integer.*; got 16.5"):
            sample_config(**{section: {name: 16.5}}).validate()

    @pytest.mark.parametrize("path", ["dictionary.seed", "target.seed"])
    @pytest.mark.parametrize(
        "value,message",
        [(3.5, "must be an integer; got 3.5"), (-1, "must be >= 0; got -1"),
         (float("nan"), "must be an integer; got nan"),
         (float("inf"), "must be an integer; got inf")],
    )
    def test_bad_seed_names_field(self, path, value, message):
        section, name = path.split(".")
        config = sample_config(**{section: {name: value}})
        with pytest.raises(ConfigError, match=f"{path}: {message}"):
            config.validate()
        with pytest.raises(ConfigError, match=f"{path}: {message}"):
            run_experiment(config)

    def test_sweep_with_bad_base_seed_refused(self):
        spec = SweepSpec(base=sample_config(target={"seed": 2.5}), axes=[("space.p", [1.5])])
        with pytest.raises(ConfigError, match="target.seed: must be an integer; got 2.5"):
            spec.validate()

    def test_fractional_replicate_seeds_refused(self):
        spec = {"base": sample_config().to_dict(), "replicate_seeds": 16.5}
        with pytest.raises(ConfigError, match="replicate_seeds: must be an integer; got 16.5"):
            SweepSpec.from_json_obj(spec)

    def test_integral_floats_accepted(self):
        config = sample_config(
            space={"dim": 8.0}, target={"sparsity": 3.0}, solver={"max_iters": 50.0}
        )
        config.validate()
        trace, _ = run_experiment(config)
        assert trace.approximants[0].shape == (8,)

    @pytest.mark.parametrize(
        "path",
        ["space.dim", "dictionary.count", "dictionary.seed", "target.sparsity",
         "target.seed", "algorithm.iters", "solver.max_iters", "checks.lambda_points"],
    )
    def test_integral_float_is_the_int(self, path):
        section, name = path.split(".")
        whole = sample_config().to_dict()[section][name]
        config = sample_config(**{section: {name: float(whole)}})
        assert type(getattr(getattr(config, section), name)) is int
        assert config.to_text() == sample_config().to_text()
        assert config.hash() == sample_config().hash()
        text = sample_config().to_text().replace(f"{path} = {whole}\n", f"{path} = {whole}.0\n")
        assert f"{path} = {whole}.0" in text
        assert ExperimentConfig.from_text(text).hash() == sample_config().hash()
        assert sample_config().with_fields({path: float(whole)}).hash() == sample_config().hash()

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration section"):
            ExperimentConfig.from_dict({"spce": {"p": 2.0}})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="space.q"):
            ExperimentConfig.from_dict({"space": {"q": 2.0}})


class TestRoundTrips:
    def test_text_round_trip_lossless(self):
        config = sample_config(
            algorithm={"id": "gawr", "r_kind": "custom", "r_values": [0.5, 0.25] * 6},
            solver={"grad_tol": 1e-11},
        )
        text = config.to_text()
        assert ExperimentConfig.from_text(text) == config

    def test_json_round_trip_lossless(self):
        config = sample_config(algorithm={"tau": [1.0] * 12})
        assert ExperimentConfig.from_json(config.to_json()) == config

    def test_text_format_is_flat_key_value(self):
        text = sample_config().to_text()
        assert "space.p = 2.0" in text
        assert "dictionary.kind = gaussian" in text

    def test_load_sniffs_format(self, tmp_path):
        config = sample_config()
        text_path = tmp_path / "config.txt"
        text_path.write_text(config.to_text())
        json_path = tmp_path / "config.json"
        json_path.write_text(config.to_json())
        assert ExperimentConfig.load(text_path) == config
        assert ExperimentConfig.load(json_path) == config

    def test_text_parse_errors_carry_line_numbers(self):
        with pytest.raises(ConfigError, match="line 2"):
            ExperimentConfig.from_text("# ok\nspace.p 2.0\n")
        with pytest.raises(ConfigError, match="line 1"):
            ExperimentConfig.from_text("p = 2.0\n")

    def test_comments_and_blanks_ignored(self):
        config = sample_config()
        text = "\n# leading comment\n\n" + config.to_text() + "\n# trailing\n"
        assert ExperimentConfig.from_text(text) == config


class TestHash:
    def test_stable_across_instances(self):
        assert sample_config().hash() == sample_config().hash()

    def test_sensitive_to_any_field(self):
        a = sample_config()
        b = sample_config(target={"seed": 5})
        assert a.hash() != b.hash()

    def test_default_hash_pinned(self):
        assert ExperimentConfig().hash() == (
            "698a59336950d5564c0d9345c2470dc400e6fa093051d085eab4e40cc3299c50"
        )

    @pytest.mark.parametrize(
        "config",
        [
            ExperimentConfig(),
            sample_config(
                algorithm={"tau": [0.5] * 12, "r_kind": "custom", "r_values": [0.25] * 12}
            ),
        ],
    )
    def test_to_dict_is_asdict(self, config):
        data = config.to_dict()
        assert data == dataclasses.asdict(config)
        assert [list(v) for v in data.values()] == [
            list(v) for v in dataclasses.asdict(config).values()
        ]
        assert list(data) == [f.name for f in dataclasses.fields(config)]

    def test_stable_seed_deterministic(self):
        assert stable_seed(1, "x", 2) == stable_seed(1, "x", 2)
        assert stable_seed(1, "x", 2) != stable_seed(1, "x", 3)
        assert stable_seed(0) < 2**63


class TestWithField:
    def test_sets_nested_field(self):
        config = sample_config().with_fields({"space.p": 3.0})
        assert config.space.p == 3.0

    def test_unknown_path_rejected(self):
        with pytest.raises(ConfigError, match="space.zzz"):
            sample_config().with_fields({"space.zzz": 1})
        with pytest.raises(ConfigError, match="no such"):
            sample_config().with_fields({"p": 1})

    def test_two_paths_equal_two_edits(self):
        both = sample_config().with_fields({"space.p": 3.0, "solver.max_iters": 7})
        one = sample_config().with_fields({"space.p": 3.0})
        assert both == one.with_fields({"solver.max_iters": 7})
        assert (both.space.p, both.solver.max_iters) == (3.0, 7)

    def test_result_lists_are_copies(self):
        base = sample_config(algorithm={"tau": [0.5] * 12})
        edited = base.with_fields({"space.p": 3.0})
        edited.algorithm.tau[0] = 1.0
        edited.algorithm.tau.append(1.0)
        base.to_dict()["algorithm"]["tau"].append(1.0)
        assert base.algorithm.tau == [0.5] * 12

    def test_unknown_path_named_among_several(self):
        with pytest.raises(ConfigError, match="algorithm.zzz"):
            sample_config().with_fields({"space.p": 3.0, "algorithm.zzz": 1})


class TestSweepSpec:
    def test_from_json_obj(self):
        spec = SweepSpec.from_json_obj(
            {
                "base": sample_config().to_dict(),
                "axes": [["space.p", [1.5, 2.0]], ["algorithm.iters", [5, 8]]],
                "replicate_seeds": 2,
            }
        )
        spec.validate()
        assert spec.replicate_seeds == 2
        assert spec.axes[0] == ("space.p", [1.5, 2.0])

    def test_missing_base_rejected(self):
        with pytest.raises(ConfigError, match="base"):
            SweepSpec.from_json_obj({"axes": []})

    def test_empty_axis_values_rejected(self):
        spec = SweepSpec.from_json_obj(
            {"base": sample_config().to_dict(), "axes": [["space.p", []]]}
        )
        with pytest.raises(ConfigError, match="axes.space.p"):
            spec.validate()

    def test_unknown_axis_path_rejected(self):
        spec = SweepSpec.from_json_obj(
            {"base": sample_config().to_dict(), "axes": [["space.zzz", [1]]]}
        )
        with pytest.raises(ConfigError, match="space.zzz"):
            spec.validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_replicate_seeds_names_field(self, value):
        obj = {"base": sample_config().to_dict(), "replicate_seeds": value}
        with pytest.raises(ConfigError, match="replicate_seeds: must be an integer"):
            SweepSpec.from_json_obj(obj)
        spec = SweepSpec(base=sample_config(), replicate_seeds=value)
        with pytest.raises(ConfigError, match="replicate_seeds: must be an integer"):
            spec.validate()

    @pytest.mark.parametrize("path", ["dictionary.seed", "target.seed"])
    def test_seed_axis_rejected(self, path):
        # every cell derives its own seeds, so the axis values would never run
        spec = SweepSpec(base=sample_config(), axes=[("space.p", [1.5]), (path, [1, -5, 3.5])])
        with pytest.raises(ConfigError, match=f"axes.{path}: every cell derives its seeds"):
            spec.validate()

    def test_load(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(
            json.dumps({"base": sample_config().to_dict(), "axes": [], "replicate_seeds": 1})
        )
        spec = SweepSpec.load(path)
        spec.validate()
