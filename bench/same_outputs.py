"""Byte-identity check: do two source trees write the same outputs?

    python bench/same_outputs.py --baseline OTHER/src
    python bench/same_outputs.py --write-manifest

Loads the lpgreedy of ``OTHER/src`` (e.g. a ``git clone`` of the parent
commit) and then the one in ``src/`` next to this script, and has each
write the same fixed set of outputs into its own temporary directory:

* the trace CSV and report JSON of 98 seeded runs: the four algorithms x
  p in {1.5, 2, 3, 8} x 3 seeds x both selection policies, plus
  ``wgafr``/``gawr`` on a canonical dictionary;
* for each ``wgafr`` and ``gawr`` run, every step's recursion margin:
  for ``wgafr`` the worst margin of ``check_ml1_trace`` on a one-record
  trace that starts at the step's previous residual, for ``gawr``
  ``analysis._ml3_margin`` of the step (null where the recursion does
  not apply);
* the CheckReport JSON of ``check_orthogonality`` on 40 random
  subspace instances per p in {1.5, 2, 3, 4} (dim 6, 3 basis vectors,
  100 competitors, as in ``verify`` criterion 3), whose details give the
  worst functional and the worst competitor margin;
* ``verify --profile quick`` and ``--profile full`` output at seed 0, and
  the CheckReport JSON of each criterion, whose margins keep every digit
  that the 4-digit printed line drops;
* the ``sweep_summary.csv`` of sweeps over each algorithm, including
  cells with invalid values, a sweep without axes, sweeps over
  ``space.dim`` given as 8.0 and 6, and, for ``wgafr`` and ``gawr``,
  sweeps over the list-valued ``algorithm.tau``, and, for ``iac`` and
  ``iacc``, a sweep of one-atom targets at ``K1 = 1e-300`` whose four
  replicates per cell stop early or end in ``InfeasibleSelectionError``
  at different steps; all but the ``solver`` sweeps with replicates;
* the outcome of 54,000 seeded ``weak_select``/``eps_select`` calls (3,000
  random dictionaries and functionals with zero atoms, duplicate atoms
  and functionals that vanish on every atom): index, phase, value and
  dual norm, or the type of the exception raised. Signed zeros are
  normalized, so two selections agree when they compare equal.

With ``--baseline``, lists every file that differs or exists on one side
only, and exits 1 if there is any. For a differing file it also prints the
largest relative and absolute differences over the numbers in it, or that its text around
the numbers changed, and every change of a discrete field: a trace's
``selected_index``, ``solver_converged`` or ``stop_reason``, a report's
``passed``, a selection's index, or a ``verify`` verdict. The trees run one after the other, never interleaved, so
imports made inside a function resolve to the tree being run. Takes about
20 s on a 2-vCPU host, most of it in the two ``--profile full`` batteries.

With ``--write-manifest``, has the ``src/`` next to this script write the
same outputs, and writes the sha256 and path of every file of the quick
corpus (the outputs without the full battery) to MANIFEST, and of each
full-profile criterion report ``verify_full/NN_name.json`` to
FULL_MANIFEST, each under a header that names the Python, numpy and scipy
versions. ``tests/test_outputs.py`` writes the quick corpus again and
compares it with MANIFEST file by file; ``tests/test_acceptance.py``
compares each full report it computes with its line of FULL_MANIFEST, so
the full battery (about 7 s) runs once in Tier-1.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from run_bench import HERE_SRC, ROOT, load_package

ALGORITHMS = ("wgafr", "gawr", "iac", "iacc")
RUN_PS = (1.5, 2.0, 3.0, 8.0)
RUN_SEEDS = (0, 1, 2)
POLICIES = ("argmax", "first_qualifying")
SELECT_TRIALS = 3000
ORTHO_PS = (1.5, 2.0, 3.0, 4.0)
ORTHO_INSTANCES = 40
MANIFEST = ROOT / "tests" / "golden" / "outputs.sha256"
FULL_MANIFEST = ROOT / "tests" / "golden" / "verify_full.sha256"


def run_configs():
    """(name, config dict) of the fixed run set."""
    for algo in ALGORITHMS:
        membership = "conv" if algo == "iacc" else "a1"
        eps = 0.05 if algo in ("wgafr", "gawr") else 0.0
        for p in RUN_PS:
            for seed in RUN_SEEDS:
                for policy in POLICIES:
                    yield f"{algo}-p{p}-s{seed}-{policy}", {
                        "space": {"p": p, "dim": 12},
                        "dictionary": {"kind": "gaussian", "count": 24, "seed": seed},
                        "target": {"membership": membership, "sparsity": 5, "eps": eps,
                                   "seed": 100 + seed},
                        "algorithm": {"id": algo, "iters": 20, "policy": policy,
                                      "t": 1.0 if policy == "argmax" else 0.5},
                    }
    for algo in ("wgafr", "gawr"):
        yield f"{algo}-canonical", {
            "space": {"p": 1.5, "dim": 12},
            "dictionary": {"kind": "canonical", "count": 12, "seed": 0},
            "target": {"membership": "a1", "sparsity": 4, "eps": 0.0, "seed": 3},
            "algorithm": {"id": algo, "iters": 20},
        }


def sweep_specs():
    """(name, sweep spec object) over every algorithm, bad cells included."""
    for algo in ALGORITHMS:
        base = {
            "space": {"p": 2.0, "dim": 8},
            "dictionary": {"kind": "gaussian", "count": 16, "seed": 5},
            "target": {"membership": "conv" if algo == "iacc" else "a1", "sparsity": 4},
            "algorithm": {"id": algo, "iters": 6},
        }
        yield f"{algo}-p", {"base": base, "axes": [["space.p", [1.5, 3.0, 0.5]]],
                            "replicate_seeds": 2}
        yield f"{algo}-solver", {
            "base": base,
            "axes": [["solver.grad_tol", [1e-10, -1.0]], ["space.p", [1.5, 3.0]]],
        }
        yield f"{algo}-no-axes", {"base": base, "axes": [], "replicate_seeds": 3}
        # An integer field given as a whole float in one cell and as an int in the other.
        yield f"{algo}-dim", {"base": base, "axes": [["space.dim", [8.0, 6]]], "replicate_seeds": 2}
        if algo in ("wgafr", "gawr"):  # a list-valued field, one list too short for iters
            taus = [[1.0] * 6, [0.5, 1.0, 0.25, 1.0, 0.5, 0.75], [0.5] * 3]
            yield f"{algo}-tau", {"base": base, "axes": [["algorithm.tau", taus]], "replicate_seeds": 2}
        else:  # one-atom targets and a vanishing K1: replicates stop or fail at different steps
            mixed = {**base, "target": {**base["target"], "sparsity": 1},
                     "algorithm": {**base["algorithm"], "k1": 1e-300}}
            yield f"{algo}-mixed", {"base": mixed, "axes": [["space.p", [1.5, 2.0, 3.0]]],
                                    "replicate_seeds": 4}


def _selection_line(call) -> str:
    try:
        sel = call()
    except Exception as exc:  # the raised type is part of the outcome
        return f"raise {type(exc).__name__}"
    return f"{sel.index} {sel.phase + 0j!r} {sel.value + 0j!r} {sel.dual_norm!r}"


def selection_lines(pkg) -> list[str]:
    rng = np.random.default_rng(20240)
    lines = []
    for trial in range(SELECT_TRIALS):
        p = (1.5, 2.0, 3.0)[int(rng.integers(3))]
        dim = int(rng.integers(1, 6))
        count = int(rng.integers(1, 9))
        atoms = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
        atoms /= ((np.abs(atoms) ** p).sum(axis=1) ** (1.0 / p))[:, None]
        atoms[rng.random(count) < 0.2] = 0.0
        duplicate = rng.random(count) < 0.3
        atoms[duplicate] = atoms[int(rng.integers(count))]
        coeffs = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        kind = trial % 5
        if kind == 0:
            coeffs[:] = 0.0
        elif kind == 1 and dim > 1:  # no atom reaches the last coordinate
            atoms[:, -1] = 0.0
            coeffs[:-1] = 0.0
        weights = rng.random(count)
        weights /= weights.sum()
        target = int(rng.integers(3))
        if target == 0:
            f = weights @ atoms  # in conv(D)
        elif target == 1:
            f = (weights * np.exp(2j * np.pi * rng.random(count))) @ atoms  # in A_1(D)
        else:
            f = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        space = pkg.LpSpace(p, dim)
        d = pkg.Dictionary(space, atoms)
        F = pkg.DualFunctional(coeffs)
        for t in (1.0, 0.5, 0.1):
            for policy in POLICIES:
                lines.append(_selection_line(lambda: pkg.weak_select(F, d, t, policy)))
        for eps in (0.0, 0.05, 1.0):
            for mode in ("circle", "plain"):
                for policy in POLICIES:
                    lines.append(_selection_line(
                        lambda: pkg.eps_select(F, d, f, eps, mode=mode, policy=policy)
                    ))
    return lines


def step_margins(pkg, config, trace) -> list:
    """The recursion margin of a wgafr/gawr run at every step."""
    space = pkg.LpSpace(config.space.p, config.space.dim)
    d, t = config.dictionary, config.target
    dictionary = pkg.generate_dictionary(space, d.count, d.kind, d.seed)
    target = pkg.make_target(dictionary, t.membership, t.sparsity, t.eps, t.seed)
    tau = config.weakness()
    norms = trace.residual_norms()
    margins = []
    for r in trace.records:
        if config.algorithm.id == "wgafr":
            step = pkg.GreedyTrace(trace.algorithm, float(norms[r.m - 1]), records=[r])
            report = pkg.check_ml1_trace(space, step, tau, target.A_eps, target.eps,
                                         grid_points=config.checks.lambda_points)
            margins.append(report.worst_margin)
        else:
            margins.append(pkg.analysis._ml3_margin(
                space, norms[r.m - 1], norms[r.m], r.w_or_r.real, trace.initial_residual_norm,
                target.A_eps, target.eps, tau.t,
            ))
    return margins


def orthogonality_reports(pkg) -> list[dict]:
    reports = []
    for p in ORTHO_PS:
        space = pkg.LpSpace(p, 6)
        for i in range(ORTHO_INSTANCES):
            rng = np.random.default_rng([ORTHO_PS.index(p), i])
            f = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            basis = list(rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6)))
            report = pkg.check_orthogonality(space, f, basis, n_competitors=100, seed=i)
            reports.append(report.to_json_obj())
    return reports


def write_outputs(pkg, out: Path, profiles=("quick", "full")) -> None:
    for name, data in run_configs():
        config = pkg.ExperimentConfig.from_dict(data)
        trace, _ = pkg.run_experiment(config, out_dir=str(out / "runs" / name))
        if config.algorithm.id in ("wgafr", "gawr"):
            (out / "runs" / name / "step_margins.json").write_text(
                json.dumps(step_margins(pkg, config, trace), indent=1) + "\n"
            )
    (out / "orthogonality.json").write_text(
        json.dumps(orthogonality_reports(pkg), indent=1) + "\n"
    )
    for profile in profiles:
        with open(out / f"verify_{profile}.txt", "w") as fh, contextlib.redirect_stdout(fh):
            _, reports = pkg.verify_suite(seed=0, profile=profile)
        (out / f"verify_{profile}").mkdir()
        for (number, name, _), report in zip(pkg.acceptance.ALL_CRITERIA, reports):
            (out / f"verify_{profile}" / f"{number:02d}_{name}.json").write_text(
                report_text(report))
    for name, obj in sweep_specs():
        pkg.run_sweep(pkg.SweepSpec.from_json_obj(obj), out_dir=str(out / "sweeps" / name))
    (out / "selections.txt").write_text("\n".join(selection_lines(pkg)) + "\n")


def report_text(report) -> str:
    """A criterion's CheckReport as the corpus writes it."""
    return json.dumps(report.to_json_obj(), indent=1) + "\n"


def files(root: Path) -> set[str]:
    """The paths of the files under ``root``, relative to it, with ``/`` between parts."""
    return {Path(dirpath, name).relative_to(root).as_posix()
            for dirpath, _, names in os.walk(root) for name in names}


def versions() -> str:
    """The header line of MANIFEST: the versions that made the outputs."""
    return f"# python {platform.python_version()} numpy {np.__version__} scipy {scipy.__version__}"


def digests(root: Path) -> dict[str, str]:
    """The sha256 of every file under ``root``, by relative path."""
    return {name: hashlib.sha256((root / name).read_bytes()).hexdigest() for name in files(root)}


def read_manifest(path: Path = MANIFEST) -> tuple[str, dict[str, str]]:
    """The header line of a manifest and its digests, by path."""
    header, *lines = path.read_text().splitlines()
    return header, {name: digest for digest, name in (line.split("  ", 1) for line in lines)}


def differing_files(a: Path, b: Path) -> tuple[int, list[str]]:
    """(files compared, relative paths that differ or exist on one side only)."""
    names = sorted(files(a) | files(b))
    differ = [
        name for name in names
        if not ((a / name).is_file() and (b / name).is_file()
                and (a / name).read_bytes() == (b / name).read_bytes())
    ]
    return len(names), differ


# A number as the outputs print one: repr of a float or an int, inf or nan.
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)")
DISCRETE = ("selected_index", "stop_reason", "solver_converged", "passed")


def max_differences(text_a: str, text_b: str) -> tuple[float, float] | None:
    """Largest |a - b| / max(|a|, |b|) and largest |a - b| over the paired numbers of two texts.

    None when the texts differ outside their numbers (or in how many they
    hold). The absolute difference tells a change at round-off level (say
    1e-20 -> 1e-17, relative difference 1) from one in a value of order one.
    """
    if NUMBER.split(text_a) != NUMBER.split(text_b):
        return None
    worst_rel = worst_abs = 0.0
    for a, b in zip(NUMBER.findall(text_a), NUMBER.findall(text_b)):
        if a != b:
            x, y = float(a), float(b)
            scale = max(abs(x), abs(y))  # 0 for 0.0 against -0.0
            worst_rel = max(worst_rel, abs(x - y) / scale if scale > 0.0 else 0.0)
            worst_abs = max(worst_abs, abs(x - y))
    return worst_rel, worst_abs


def discrete_fields(name: str, text: str) -> list[tuple[str, str]]:
    """(field at location, value) of every discrete field in one output file."""
    fields = []
    if name.endswith(".csv"):
        lines = text.splitlines()
        for line in lines:
            if line.startswith("#"):
                fields += [(f"{key} (header)", value) for key, _, value in
                           (item.partition("=") for item in line.split()) if key in DISCRETE]
        rows = csv.DictReader(line for line in lines if not line.startswith("#"))
        for i, row in enumerate(rows):
            fields += [(f"{key} row {i}", row[key]) for key in DISCRETE if key in row]
    elif name.endswith(".json"):
        def walk(obj, where):
            if isinstance(obj, dict):
                for key, value in obj.items():
                    if key in DISCRETE:
                        fields.append((f"{key} at {where or '/'}", repr(value)))
                    walk(value, f"{where}/{key}")
            elif isinstance(obj, list):
                for i, value in enumerate(obj):
                    walk(value, f"{where}/{i}")
        walk(json.loads(text), "")
    elif name == "selections.txt":
        fields = [(f"selected_index line {i}", line.split()[0])
                  for i, line in enumerate(text.splitlines()) if not line.startswith("raise")]
    elif name.startswith("verify_"):
        fields = [(f"passed line {i}", line.split()[0])
                  for i, line in enumerate(text.splitlines()) if line.startswith(("PASS", "FAIL"))]
    return fields


def describe_difference(name: str, a: Path, b: Path) -> str:
    """How one output file differs between two trees, in one line."""
    if not (a.is_file() and b.is_file()):
        return "only on one side"
    text_a, text_b = a.read_text(), b.read_text()
    worst = max_differences(text_a, text_b)
    parts = ["text around the numbers differs" if worst is None
             else "max relative difference {:.3g}, max absolute difference {:.3g}".format(*worst)]
    fields_a, fields_b = discrete_fields(name, text_a), discrete_fields(name, text_b)
    if len(fields_a) != len(fields_b):
        parts.append(f"{len(fields_a)} vs {len(fields_b)} discrete fields")
    parts += [f"{where}: {x} -> {y}" for (where, x), (_, y) in zip(fields_a, fields_b) if x != y]
    return "; ".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--baseline", type=Path, help="src/ directory of the tree to compare against")
    mode.add_argument("--write-manifest", action="store_true",
                      help=f"write the quick corpus's digests to {MANIFEST.relative_to(ROOT)} and "
                           f"the full reports' to {FULL_MANIFEST.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    if args.write_manifest:
        with tempfile.TemporaryDirectory() as tmp:
            write_outputs(load_package(HERE_SRC), Path(tmp))
            corpus = digests(Path(tmp))
        del corpus["verify_full.txt"]
        full = {name: corpus.pop(name) for name in list(corpus) if name.startswith("verify_full/")}
        for path, pins in ((MANIFEST, corpus), (FULL_MANIFEST, full)):
            path.parent.mkdir(exist_ok=True)
            path.write_text("\n".join([versions(), *(f"{pins[name]}  {name}"
                                                     for name in sorted(pins))]) + "\n")
            print(f"{len(pins)} files written to {path}")
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        sides = {"baseline": args.baseline.resolve(), "change": HERE_SRC}
        for label, src in sides.items():
            out = Path(tmp, label)
            out.mkdir()
            write_outputs(load_package(src), out)
        compared, differ = differing_files(Path(tmp, "baseline"), Path(tmp, "change"))
        for name in differ:
            detail = describe_difference(name, Path(tmp, "baseline", name), Path(tmp, "change", name))
            print(f"differs: {name} ({detail})")
    print(f"{compared} files compared, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
