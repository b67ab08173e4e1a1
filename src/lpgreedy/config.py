"""Experiment configuration: a flat key-value text format plus JSON ingest.

A config fully determines one run (space, dictionary, target, algorithm,
schedules, tolerances, output names) and round-trips losslessly through
its text form. The sha256 hash of the canonical JSON form is embedded in
every output file so trace/report pairs can be matched.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field

from .algorithms import RelaxationSchedule, WeaknessSequence
from .analysis import DEFAULT_SLACK, LAMBDA_POINTS
from .dictionaries import DICTIONARY_KINDS, MEMBERSHIPS, POLICIES
from .solvers import SolverConfig
from .spaces import P_MAX, _whole

__all__ = ["ConfigError", "ExperimentConfig", "SweepSpec", "ALGORITHM_IDS", "stable_seed"]

ALGORITHM_IDS = ("wgafr", "gawr", "iac", "iacc")

# json.dumps(data, sort_keys=True, separators=(",", ":")) without a new encoder per
# call; a to_dict() form holds no cycles to check for.
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def stable_seed(*parts) -> int:
    """Platform-independent RNG seed derived by hashing the given parts."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


@dataclass
class SpaceSection:
    p: float = 2.0
    dim: int = 16


@dataclass
class DictionarySection:
    kind: str = "gaussian"
    count: int = 32
    seed: int = 7


@dataclass
class TargetSection:
    membership: str = "a1"
    sparsity: int = 4
    eps: float = 0.0
    seed: int = 11


@dataclass
class AlgorithmSection:
    id: str = "wgafr"
    iters: int = 100
    policy: str = "argmax"
    t: float = 1.0
    tau: list[float] | None = None
    r_kind: str = "harmonic"
    r_constant: float = 0.0
    r_values: list[float] | None = None
    k1: float = 1.0


@dataclass
class ChecksSection:
    slack: float = DEFAULT_SLACK
    lambda_points: int = LAMBDA_POINTS


@dataclass
class OutputSection:
    trace_csv: str = "trace.csv"
    report_json: str = "report.json"


# Section name -> (class, field names in order as dict keys, names of the integer fields).
_SECTIONS = {
    key: (
        section_cls,
        dict.fromkeys(f.name for f in dataclasses.fields(section_cls)),
        frozenset(f.name for f in dataclasses.fields(section_cls) if f.type in ("int", int)),
    )
    for key, section_cls in (
        ("space", SpaceSection),
        ("dictionary", DictionarySection),
        ("target", TargetSection),
        ("algorithm", AlgorithmSection),
        ("solver", SolverConfig),
        ("checks", ChecksSection),
        ("output", OutputSection),
    )
}


@dataclass
class ExperimentConfig:
    space: SpaceSection = field(default_factory=SpaceSection)
    dictionary: DictionarySection = field(default_factory=DictionarySection)
    target: TargetSection = field(default_factory=TargetSection)
    algorithm: AlgorithmSection = field(default_factory=AlgorithmSection)
    solver: SolverConfig = field(default_factory=SolverConfig)
    checks: ChecksSection = field(default_factory=ChecksSection)
    output: OutputSection = field(default_factory=OutputSection)

    # -- validation ----------------------------------------------------

    def validate(self) -> None:
        s, d, t, a = self.space, self.dictionary, self.target, self.algorithm
        if not 1.0 < _real("space.p", s.p) <= P_MAX:
            raise ConfigError(f"space.p: must satisfy 1 < p <= {P_MAX:g}; got {s.p!r}")
        if _integer("space.dim", s.dim) < 1:
            raise ConfigError(f"space.dim: must be >= 1; got {s.dim!r}")
        if d.kind not in DICTIONARY_KINDS:
            raise ConfigError(f"dictionary.kind: must be one of {DICTIONARY_KINDS}; got {d.kind!r}")
        if _integer("dictionary.count", d.count) < 1:
            raise ConfigError(f"dictionary.count: must be >= 1; got {d.count!r}")
        if d.kind == "canonical" and int(d.count) != int(s.dim):
            raise ConfigError(
                f"dictionary.count: canonical kind requires count == space.dim; "
                f"got {d.count!r} != {s.dim!r}"
            )
        if d.kind == "fourier_frame" and int(d.count) < int(s.dim):
            raise ConfigError(
                f"dictionary.count: fourier_frame requires count >= space.dim; got {d.count!r}"
            )
        for path, seed in (("dictionary.seed", d.seed), ("target.seed", t.seed)):
            if _integer(path, seed) < 0:
                raise ConfigError(f"{path}: must be >= 0; got {seed!r}")
        if t.membership not in MEMBERSHIPS:
            raise ConfigError(f"target.membership: must be one of {MEMBERSHIPS}; got {t.membership!r}")
        if not 1 <= _integer("target.sparsity", t.sparsity) <= int(d.count):
            raise ConfigError(
                f"target.sparsity: must lie in [1, dictionary.count={d.count}]; got {t.sparsity!r}"
            )
        if not 0.0 <= _real("target.eps", t.eps) < math.inf:
            raise ConfigError(f"target.eps: must be finite and >= 0; got {t.eps!r}")
        if a.id not in ALGORITHM_IDS:
            raise ConfigError(f"algorithm.id: must be one of {ALGORITHM_IDS}; got {a.id!r}")
        if _integer("algorithm.iters", a.iters) < 1:
            raise ConfigError(f"algorithm.iters: must be >= 1; got {a.iters!r}")
        if a.policy not in POLICIES:
            raise ConfigError(f"algorithm.policy: must be one of {POLICIES}; got {a.policy!r}")
        if not 0.0 < _real("algorithm.t", a.t) <= 1.0:
            raise ConfigError(f"algorithm.t: must lie in (0, 1]; got {a.t!r}")
        if a.tau is not None:
            if a.id in ("iac", "iacc"):
                raise ConfigError(f"algorithm.tau: {a.id} has no weakness sequence; got {a.tau!r}")
            if len(_reals("algorithm.tau", a.tau)) < int(a.iters):
                raise ConfigError(
                    f"algorithm.tau: has {len(a.tau)} entries, fewer than iters={a.iters}"
                )
            if any(not 0.0 <= float(v) <= 1.0 for v in a.tau):
                raise ConfigError("algorithm.tau: entries must lie in [0, 1]")
        if a.r_kind not in ("harmonic", "constant", "custom"):
            raise ConfigError(f"algorithm.r_kind: unknown kind {a.r_kind!r}")
        if not 0.0 <= _real("algorithm.r_constant", a.r_constant) < 1.0:
            raise ConfigError(f"algorithm.r_constant: must lie in [0, 1); got {a.r_constant!r}")
        if a.r_values is not None and (a.r_kind != "custom" or a.id != "gawr"):
            raise ConfigError(
                "algorithm.r_values: used only by gawr with r_kind = custom; "
                f"got algorithm.id = {a.id!r}, r_kind = {a.r_kind!r}"
            )
        if a.r_kind == "custom":
            if a.r_values is None or not _reals("algorithm.r_values", a.r_values):
                raise ConfigError("algorithm.r_values: required when r_kind = custom")
            if len(a.r_values) < int(a.iters):
                raise ConfigError(
                    f"algorithm.r_values: has {len(a.r_values)} entries, fewer than iters={a.iters}"
                )
            if any(not 0.0 <= float(v) < 1.0 for v in a.r_values):
                raise ConfigError("algorithm.r_values: entries must lie in [0, 1)")
        if not 0.0 < _real("algorithm.k1", a.k1) < math.inf:
            raise ConfigError(f"algorithm.k1: must be finite and > 0; got {a.k1!r}")
        if a.id == "iac" and (t.membership != "a1" or float(t.eps) != 0.0):
            raise ConfigError(
                "algorithm.id: iac requires target.membership = a1 and target.eps = 0"
            )
        if a.id == "iacc" and (t.membership != "conv" or float(t.eps) != 0.0):
            raise ConfigError(
                "algorithm.id: iacc requires target.membership = conv and target.eps = 0"
            )
        if not 0.0 <= _real("checks.slack", self.checks.slack) < math.inf:
            raise ConfigError(f"checks.slack: must be finite and >= 0; got {self.checks.slack!r}")
        if _integer("checks.lambda_points", self.checks.lambda_points) < 2:
            raise ConfigError(f"checks.lambda_points: must be >= 2; got {self.checks.lambda_points!r}")
        o = self.output
        for name, value in (("trace_csv", o.trace_csv), ("report_json", o.report_json)):
            if (not isinstance(value, str) or value in ("", ".", "..")
                    or "/" in value or "\0" in value):
                raise ConfigError(f"output.{name}: must be a file name in --out; got {value!r}")
        if o.trace_csv == o.report_json:
            raise ConfigError(f"output.report_json: must differ from trace_csv {o.trace_csv!r}")

    # -- schedules -----------------------------------------------------

    def weakness(self) -> WeaknessSequence:
        if self.algorithm.tau is not None:
            return WeaknessSequence.general(self.algorithm.tau)
        return WeaknessSequence.constant(self.algorithm.t)

    def relaxation(self) -> RelaxationSchedule:
        kind = self.algorithm.r_kind
        if kind == "harmonic":
            return RelaxationSchedule.harmonic()
        if kind == "constant":
            return RelaxationSchedule.constant(self.algorithm.r_constant)
        return RelaxationSchedule.custom(self.algorithm.r_values)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        """``dataclasses.asdict(self)`` (same keys, same order), copied field by field."""
        data = {}
        for key, (_, names, _) in _SECTIONS.items():
            fields = vars(getattr(self, key))
            data[key] = {
                name: list(v) if isinstance(v := fields[name], list) else v for name in names
            }
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The config of ``to_dict`` form; a whole float in an integer field becomes an int."""
        if not isinstance(data, dict):
            raise ConfigError(f"config: must be an object of sections; got {data!r}")
        kwargs = {}
        for key, value in data.items():
            if key not in _SECTIONS:
                raise ConfigError(f"{key}: unknown configuration section")
            if not isinstance(value, dict):
                raise ConfigError(f"{key}: must be an object of fields; got {value!r}")
            section_cls, names, integers = _SECTIONS[key]
            if not names.keys() >= value.keys():
                raise ConfigError(f"{key}.{sorted(value.keys() - names.keys())[0]}: unknown field")
            whole = {n: int(v) for n in integers.intersection(value)
                     if isinstance(v := value[n], float) and v.is_integer()}
            value = {**value, **whole} if whole else value
            try:
                kwargs[key] = section_cls(**value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{key}: {exc}") from None
        return cls(**kwargs)

    def to_text(self) -> str:
        lines = ["# lpgreedy experiment config"]
        for section, values in self.to_dict().items():
            for name, value in values.items():
                lines.append(f"{section}.{name} = {_format_value(value)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        data: dict = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'section.field = value'; got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key.count(".") != 1:
                raise ConfigError(f"line {lineno}: key must be 'section.field'; got {key!r}")
            section, name = key.split(".")
            data.setdefault(section, {})[name] = _parse_value(value.strip(), lineno)
        return cls.from_dict(data)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from None
        return cls.from_dict(data)

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        """Read a config file; JSON if it starts with '{', key-value otherwise."""
        with open(path) as fh:
            text = fh.read()
        if text.lstrip().startswith("{"):
            return cls.from_json(text)
        return cls.from_text(text)

    def hash(self) -> str:
        canonical = _CANONICAL_JSON.encode(self.to_dict())
        return hashlib.sha256(canonical.encode()).hexdigest()

    # -- field paths (used by sweeps) -----------------------------------

    def with_fields(self, changes: dict) -> "ExperimentConfig":
        """A copy with each dotted path in ``changes`` (e.g. 'space.p') set to its value."""
        return _edited(self.to_dict(), changes)


def _edited(data: dict, changes: dict) -> ExperimentConfig:
    """The config of ``data``, a ``to_dict()`` form left as it is, with ``changes`` applied.

    Only the sections that ``changes`` edits are copied, so one ``data``
    serves every cell of a sweep.
    """
    data = dict(data)
    for path, value in changes.items():
        section, name = _field_path(data, path)
        data[section] = {**data[section], name: value}
    return ExperimentConfig.from_dict(data)


def _field_path(data: dict, path: str) -> tuple[str, str]:
    """(section, field) of a dotted path into ``data``, a config's ``to_dict()``."""
    parts = path.split(".")
    if len(parts) != 2 or parts[0] not in data or parts[1] not in data[parts[0]]:
        raise ConfigError(f"{path}: no such configuration field")
    return parts[0], parts[1]


def _integer(path: str, value) -> int:
    """The whole number ``value``; a ConfigError naming ``path`` for 16.5, NaN, inf or True."""
    number = _whole(value)
    if number is None:
        raise ConfigError(f"{path}: must be an integer; got {value!r}")
    return number


def _real(path: str, value) -> float:
    """float(value) for an int or a float; a ConfigError naming ``path`` for "2", None or True."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{path}: must be a number; got {value!r}")
    return float(value)


def _reals(path: str, values) -> list[float]:
    """The numbers of the list ``values``; a ConfigError naming ``path`` for 5 or ["a"]."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{path}: must be a list of numbers; got {values!r}")
    return [_real(path, value) for value in values]


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return json.dumps(list(value))
    if value is None:
        return "none"
    return str(value)


def _parse_value(text: str, lineno: int):
    if text == "none":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        if any(ch in text for ch in "[]{}\""):
            raise ConfigError(f"line {lineno}: malformed value {text!r}") from None
        return text


# Config fields that each sweep cell sets itself, from stable_seed.
_DERIVED_SEEDS = ("dictionary.seed", "target.seed")


@dataclass
class SweepSpec:
    """Cartesian sweep: a base config, axis value lists, replicate count.

    Axis paths are dotted config fields; every (cell, replicate) derives
    its own dictionary/target seeds from the base seeds and the cell
    coordinates, so cells are reproducible and independent.
    """

    base: ExperimentConfig
    axes: list[tuple[str, list]] = field(default_factory=list)
    replicate_seeds: int = 1

    def validate(self) -> None:
        """Check the base config, the replicate count and the axis paths.

        Axis values are not checked here: a bad value fails its own cells,
        wherever it is listed, and the sweep records the error in their rows.
        An axis over a seed is refused, since every cell derives its seeds,
        and so is a path listed twice, whose later values would override
        the earlier ones in every cell.
        """
        self.base.validate()
        if _integer("replicate_seeds", self.replicate_seeds) < 1:
            raise ConfigError(f"replicate_seeds: must be >= 1; got {self.replicate_seeds!r}")
        fields = self.base.to_dict()
        paths = [path for path, _ in self.axes]
        for path, values in self.axes:
            if not values:
                raise ConfigError(f"axes.{path}: empty value list")
            _field_path(fields, path)
            if paths.count(path) > 1:
                raise ConfigError(f"axes.{path}: listed {paths.count(path)} times; give it one axis")
            if path in _DERIVED_SEEDS:
                raise ConfigError(
                    f"axes.{path}: every cell derives its seeds from the base config's "
                    "seeds; vary replicate_seeds or the base seed instead"
                )

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SweepSpec":
        if not isinstance(obj, dict) or not isinstance(obj.get("base"), dict):
            raise ConfigError("base: sweep spec requires a base config object")
        base = ExperimentConfig.from_dict(obj["base"])
        axes = obj.get("axes", [])
        if not isinstance(axes, list) or not all(
            isinstance(axis, list) and len(axis) == 2 and isinstance(axis[1], list) for axis in axes
        ):
            raise ConfigError(f"axes: must be a list of [path, values] pairs; got {axes!r}")
        axes = [(str(path), list(values)) for path, values in axes]
        replicate_seeds = _integer("replicate_seeds", obj.get("replicate_seeds", 1))
        return cls(base=base, axes=axes, replicate_seeds=replicate_seeds)

    @classmethod
    def load(cls, path) -> "SweepSpec":
        with open(path) as fh:
            try:
                obj = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid JSON sweep spec: {exc}") from None
        return cls.from_json_obj(obj)
