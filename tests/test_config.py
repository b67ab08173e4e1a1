import dataclasses
import json
import math
import re
import sys

import pytest

from lpgreedy import ConfigError, ExperimentConfig, harness
from lpgreedy.config import SweepSpec, stable_seed
from lpgreedy.harness import run_experiment, run_sweep


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

    @pytest.mark.parametrize(
        "path",
        ["space.p", "target.eps", "algorithm.t", "algorithm.r_constant", "algorithm.k1",
         "checks.slack"],
    )
    @pytest.mark.parametrize("value", [None, [2], "2", "abc", True])
    def test_non_numeric_float_names_field(self, path, value):
        section, name = path.split(".")
        config = sample_config(**{section: {name: value}})
        with pytest.raises(ConfigError, match=f"^{path}: must be a number; got "):
            config.validate()

    @pytest.mark.parametrize("path", ["algorithm.tau", "algorithm.r_values"])
    @pytest.mark.parametrize(
        "value,message",
        [(5, "must be a list of numbers; got 5"), ("0.5", "must be a list of numbers; got '0.5'"),
         ([0.5] * 11 + [None], "must be a number; got None")],
    )
    def test_non_numeric_list_names_field(self, path, value, message):
        config = sample_config(algorithm={"id": "gawr", "r_kind": "custom", "r_values": [0.5] * 12})
        section, name = path.split(".")
        config = sample_config(**{section: {**config.to_dict()[section], name: value}})
        with pytest.raises(ConfigError, match=f"^{path}: {message}$"):
            config.validate()

    def test_numeric_range_messages_unchanged(self):
        with pytest.raises(ConfigError, match=r"^space.p: must satisfy 1 < p <= 64; got 0.5$"):
            sample_config(space={"p": 0.5}).validate()
        with pytest.raises(ConfigError, match=r"^algorithm.tau: entries must lie in \[0, 1\]$"):
            sample_config(algorithm={"tau": [2.0] * 12}).validate()

    @pytest.mark.parametrize(
        "algorithm",
        [{"id": "gawr", "r_kind": "harmonic"}, {"id": "gawr", "r_kind": "constant"},
         {"id": "wgafr", "r_kind": "custom"}, {"id": "wgafr", "r_kind": "harmonic"}],
    )
    def test_r_values_refused_where_unused(self, algorithm):
        config = sample_config(algorithm={**algorithm, "r_values": [0.9] * 12})
        with pytest.raises(ConfigError, match="^algorithm.r_values: used only by gawr with r_kind = custom"):
            config.validate()
        with pytest.raises(ConfigError, match="^algorithm.r_values: used only by gawr"):
            run_experiment(config)

    @pytest.mark.parametrize("algorithm", ["iac", "iacc"])
    def test_tau_refused_by_incremental_loops(self, algorithm):
        membership = "conv" if algorithm == "iacc" else "a1"
        config = sample_config(
            algorithm={"id": algorithm, "tau": [1.0] * 12}, target={"membership": membership}
        )
        with pytest.raises(ConfigError, match=f"^algorithm.tau: {algorithm} has no weakness sequence"):
            config.validate()

    def test_sweep_with_non_numeric_base_p_refused(self):
        base = sample_config().to_dict()
        base["space"]["p"] = None
        spec = SweepSpec.from_json_obj({"base": base, "axes": [["space.p", [1.5]]]})
        with pytest.raises(ConfigError, match="^space.p: must be a number; got None$"):
            spec.validate()

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

    @pytest.mark.parametrize("data", [5, [{"space": {}}], None])
    def test_non_object_config_rejected(self, data):
        with pytest.raises(ConfigError, match="^config: must be an object of sections; got "):
            ExperimentConfig.from_dict(data)


_ALL = ("wgafr", "gawr", "iac", "iacc")
_RELAXED = ("wgafr", "gawr")
_TINY = 5e-324  # the least positive float
_MAX = sys.float_info.max


def _up(x):
    return math.nextafter(x, math.inf)


def _down(x):
    return math.nextafter(x, -math.inf)


# field: (the algorithms it applies to, values inside its domain, values outside it).
# Inside: each closed end, one ulp (or 1) inside each end, and a large value where the
# domain is unbounded. Outside: each open end, and one ulp (or 1) outside each end.
_DOMAIN_EDGES = {
    "space.p": (_ALL, [_up(1.0), 64.0, _down(64.0)], [1.0, _down(1.0), _up(64.0)]),
    "space.dim": (_ALL, [1, 2, 1024], [0]),
    "dictionary.count": (_ALL, [1, 2, 4096], [0]),
    "dictionary.seed": (_ALL, [0, 1, 2**64], [-1]),
    "target.sparsity": (_ALL, [1, 2, 16, 15], [0, 17]),
    "target.eps": (_RELAXED, [0.0, _TINY, 1e300, _MAX], [-_TINY, math.inf]),
    "target.seed": (_ALL, [0, 1, 2**64], [-1]),
    "algorithm.iters": (_ALL, [1, 2, 1000], [0]),
    "algorithm.t": (_RELAXED, [_TINY, 1.0, _down(1.0)], [0.0, -_TINY, _up(1.0)]),
    "algorithm.r_constant": (("gawr",), [0.0, _TINY, _down(1.0)], [-_TINY, 1.0, _up(1.0)]),
    "algorithm.k1": (("iac", "iacc"), [_TINY, 1e300, _MAX], [0.0, -_TINY, math.inf]),
    "checks.slack": (_RELAXED, [0.0, _TINY, 1e300, _MAX], [-_TINY, math.inf]),
    "checks.lambda_points": (("wgafr",), [2, 3, 10_000], [1]),
    "solver.grad_tol": (_RELAXED, [_TINY, 1e300, _MAX], [0.0, -_TINY, math.inf]),
    "solver.max_iters": (_RELAXED, [1, 2, 10**9], [0]),
    "solver.armijo_c": (_RELAXED, [_TINY, _down(1.0)], [0.0, -_TINY, 1.0, _up(1.0)]),
    "solver.backtrack_factor": (_RELAXED, [_TINY, _down(1.0)], [0.0, -_TINY, 1.0, _up(1.0)]),
}
# The fields that reach more than validation only where p != 2: there the inner
# solve runs Newton iterations and the ml1 and ml3 bounds take powers of the norms.
# They also run at p = 3 with 5 steps, since armijo_c one ulp below 1 runs every
# solve to max_iters (about 0.1 s per step).
_P3_FIELDS = ("target.eps", "solver.grad_tol", "solver.max_iters", "solver.armijo_c",
              "solver.backtrack_factor")


def _edge_config(algorithm, field, value, p=2.0, steps=20):
    """A dim-8, count-16 run of ``algorithm`` with ``field`` set to ``value``."""
    changes = {
        "space.p": p,
        "space.dim": 8,
        "dictionary.count": 16,
        "algorithm.iters": steps,
        "algorithm.id": algorithm,
        "target.membership": "conv" if algorithm == "iacc" else "a1",
    }
    if field == "algorithm.r_constant":
        changes["algorithm.r_kind"] = "constant"
    if field == "dictionary.count":
        changes["target.sparsity"] = min(4, max(1, value))
    return ExperimentConfig().with_fields({**changes, field: value})


def _domain_cases():
    runs = [(field, 2.0, 20, "") for field in _DOMAIN_EDGES]
    runs += [(field, 3.0, 5, "-p3") for field in _P3_FIELDS]
    for field, p, steps, suffix in runs:
        algorithms, inside, outside = _DOMAIN_EDGES[field]
        for value in inside:
            yield pytest.param(field, value, algorithms, True, p, steps,
                               id=f"{field}={value!r}{suffix}-inside")
        for value in outside:
            yield pytest.param(field, value, algorithms, False, p, steps,
                               id=f"{field}={value!r}{suffix}-outside")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field, value, algorithms, inside, p, steps", _domain_cases())
def test_domain_edges(monkeypatch, field, value, algorithms, inside, p, steps):
    """Inside a field's domain every run completes with every applicable check passing;
    outside it a ConfigError names the field before anything is built."""
    if inside:
        for algorithm in algorithms:
            _, reports = run_experiment(_edge_config(algorithm, field, value, p, steps))
            failed = [r.name for r in reports if r.applicable and not r.passed]
            assert not failed, f"{algorithm}: {failed}"
        return

    def built(configs):
        raise AssertionError(f"{field}={value!r} reached the build")

    monkeypatch.setattr(harness, "_build", built)
    for algorithm in algorithms:
        with pytest.raises(ConfigError, match=re.escape(field)):
            run_experiment(_edge_config(algorithm, field, value, p, steps))


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

    def test_boolean_replicate_seeds_names_field(self):
        obj = {"base": sample_config().to_dict(), "replicate_seeds": True}
        with pytest.raises(ConfigError, match="replicate_seeds: must be an integer; got True"):
            SweepSpec.from_json_obj(obj)
        spec = SweepSpec(base=sample_config(), replicate_seeds=True)
        with pytest.raises(ConfigError, match="replicate_seeds: must be an integer; got True"):
            spec.validate()

    def test_repeated_axis_path_rejected(self, monkeypatch):
        # the later axis would override the earlier one: 1.5 and 3.0 would never run
        spec = SweepSpec(base=sample_config(), axes=[("space.p", [1.5, 3.0]), ("space.p", [2.0])])
        monkeypatch.setattr(harness, "_run_batch", None)  # refused before any run
        with pytest.raises(ConfigError, match="axes.space.p: listed 2 times"):
            run_sweep(spec)

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
