"""The three seeded workloads: inputs are built from the benchmark seed only.

Each workload object is its own set-up: the constructor builds every
space, dictionary, target and sweep spec its ops use. ``op(i)`` returns
the i-th op of a fixed cyclic list, ``run`` performs it through the
package's public entry points, and ``check`` judges the result with the
package's own checkers. Functions are looked up on the package at call
time, so the traced run sees the wrappers the tracer installs.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import dataclass, field

from calibrate import CpuKernel, MemoryKernel


def derive_seed(seed: int, *parts) -> int:
    """A 31-bit seed that depends only on the benchmark seed and ``parts``."""
    digest = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


@dataclass
class Outcome:
    """What one op produced, as the correctness gate saw it."""

    kind: str
    steps: int = 0
    cells: int = 0
    residuals: list[float] = field(default_factory=list)
    failure: str = ""


def _report_failure(reports) -> str:
    bad = [f"{r.name} worst_margin={r.worst_margin!r}" for r in reports if not r.passed]
    return "; ".join(bad)


class RelaxSmall:
    """One op is one run_wgafr or run_gawr run at dim 16, count 32.

    The ops cycle over (algorithm, p). Every op has its own seeded
    dictionary and A_1 target of sparsity 8: how well the inner solve
    converges depends on the dictionary, so a few shared dictionaries
    would make a run's cost hinge on the seed.
    """

    name = "relax_small"
    DIM, COUNT, SPARSITY, ITERS = 16, 32, 8, 10
    KINDS = tuple((algo, p) for p in (1.5, 2.0, 3.0) for algo in ("wgafr", "gawr"))
    INPUTS_PER_KIND = 150

    @staticmethod
    def reference_kernel():
        return CpuKernel()

    def __init__(self, lg, seed: int, workdir: str):
        self.lg = lg
        self.tau = lg.WeaknessSequence.constant(1.0)
        self.relaxation = lg.RelaxationSchedule.harmonic()
        self.cases = []
        for k, (algo, p) in enumerate(self.KINDS):
            space = lg.LpSpace(p, self.DIM)
            inputs = []
            for j in range(self.INPUTS_PER_KIND):
                dictionary = lg.generate_dictionary(
                    space, self.COUNT, "gaussian", derive_seed(seed, self.name, "dict", k, j)
                )
                target = lg.make_target(
                    dictionary, "a1", self.SPARSITY, 0.0, derive_seed(seed, self.name, "target", k, j)
                )
                inputs.append((dictionary, target))
            self.cases.append((algo, space, inputs))

    def op(self, i: int):
        algo, space, inputs = self.cases[i % len(self.KINDS)]
        return (algo, space) + inputs[(i // len(self.KINDS)) % len(inputs)]

    def run(self, op):
        algo, space, dictionary, target = op
        if algo == "wgafr":
            return self.lg.run_wgafr(space, dictionary, target, self.tau, self.ITERS)
        return self.lg.run_gawr(space, dictionary, target, self.tau, self.relaxation, self.ITERS)

    def check(self, op, trace) -> Outcome:
        algo, space, _, target = op
        out = Outcome(kind=f"{algo}@p={space.p:g}", steps=len(trace.records), cells=1)
        if algo == "wgafr":
            report = self.lg.check_monotone(trace)
        else:
            report = self.lg.check_ml3_trace(space, trace, target.A_eps, target.eps, self.tau.t)
        out.failure = _report_failure([report])
        out.residuals.append(float(trace.residual_norms()[-1]) / trace.initial_residual_norm)
        return out


class IncrementalLarge:
    """One op is one run_iac (A_1 target) or run_iacc (conv target) run.

    dim 2048 and count 4096 make each dictionary a 128 MiB array, larger
    than the last-level cache, so every scan streams it from memory.
    """

    name = "incremental_large"
    DIM, COUNT, SPARSITY, ITERS, K1 = 2048, 4096, 8, 4, 1.0
    KINDS = tuple((algo, p) for p in (1.5, 3.0) for algo in ("iac", "iacc"))
    TARGETS_PER_KIND = 40

    @classmethod
    def reference_kernel(cls):
        return MemoryKernel((cls.COUNT, cls.DIM))

    def __init__(self, lg, seed: int, workdir: str):
        self.lg = lg
        dictionaries = {}
        for p in sorted({p for _, p in self.KINDS}):
            space = lg.LpSpace(p, self.DIM)
            dictionaries[p] = lg.generate_dictionary(
                space, self.COUNT, "gaussian", derive_seed(seed, self.name, "dict", p)
            )
        self.cases = []
        for k, (algo, p) in enumerate(self.KINDS):
            dictionary = dictionaries[p]
            membership = "a1" if algo == "iac" else "conv"
            targets = [
                lg.make_target(dictionary, membership, self.SPARSITY, 0.0, derive_seed(seed, self.name, k, j))
                for j in range(self.TARGETS_PER_KIND)
            ]
            self.cases.append((algo, dictionary, targets))

    def op(self, i: int):
        algo, dictionary, targets = self.cases[i % len(self.KINDS)]
        return algo, dictionary, targets[(i // len(self.KINDS)) % len(targets)]

    def run(self, op):
        algo, dictionary, target = op
        runner = self.lg.run_iac if algo == "iac" else self.lg.run_iacc
        return runner(dictionary.space, dictionary, target, self.K1, self.ITERS)

    def check(self, op, trace) -> Outcome:
        algo, dictionary, _ = op
        out = Outcome(kind=f"{algo}@p={dictionary.space.p:g}", steps=len(trace.records), cells=1)
        reports = [self.lg.check_trivial_step(trace), self.lg.check_barycentric(trace, dictionary)]
        out.failure = _report_failure(reports)
        out.residuals.append(float(trace.residual_norms()[-1]) / trace.initial_residual_norm)
        return out


class SweepGrid:
    """One op is one run_sweep(spec, out_dir) call over space.p x replicates.

    The cycle has five kinds: the four algorithms, plus wgafr once more
    with weakness t = 0.5 and the first_qualifying policy, which covers
    weak selection. An iac/iacc cell costs a tenth of a wgafr/gawr cell,
    so their sweeps carry four replicates where the others carry one:
    every kind then costs about the same, and the median op is not read
    from the seam between a cheap and an expensive kind.
    """

    name = "sweep_grid"
    DIM, COUNT, SPARSITY, ITERS = 12, 24, 6, 6
    PS = (1.5, 2.0, 3.0)
    # (algorithm, weakness t, policy, replicates)
    KINDS = (
        ("iac", 1.0, "argmax", 4),
        ("wgafr", 1.0, "argmax", 1),
        ("iacc", 1.0, "argmax", 4),
        ("gawr", 1.0, "argmax", 1),
        ("wgafr", 0.5, "first_qualifying", 1),
    )
    SPECS_PER_KIND = 60

    @staticmethod
    def reference_kernel():
        return CpuKernel()

    def __init__(self, lg, seed: int, workdir: str):
        self.lg = lg
        self.out_dir = os.path.join(workdir, "sweep")
        self.cases = []
        for k, (algo, t, policy, replicates) in enumerate(self.KINDS):
            specs = []
            for j in range(self.SPECS_PER_KIND):
                base = lg.ExperimentConfig.from_dict(
                    {
                        "space": {"p": self.PS[0], "dim": self.DIM},
                        "dictionary": {
                            "kind": "gaussian",
                            "count": self.COUNT,
                            "seed": derive_seed(seed, self.name, "dict", k, j),
                        },
                        "target": {
                            "membership": "conv" if algo == "iacc" else "a1",
                            "sparsity": self.SPARSITY,
                            "seed": derive_seed(seed, self.name, "target", k, j),
                        },
                        "algorithm": {"id": algo, "iters": self.ITERS, "t": t, "policy": policy},
                    }
                )
                specs.append(
                    lg.SweepSpec(base=base, axes=[("space.p", list(self.PS))], replicate_seeds=replicates)
                )
            self.cases.append((f"{algo}/t={t:g}", specs))

    def op(self, i: int):
        kind, specs = self.cases[i % len(self.KINDS)]
        return kind, specs[(i // len(self.KINDS)) % len(specs)]

    def run(self, op):
        return self.lg.run_sweep(op[1], self.out_dir)

    def check(self, op, rows) -> Outcome:
        kind, spec = op
        expected = len(self.PS) * spec.replicate_seeds
        out = Outcome(kind=kind, cells=len(rows))
        problems = []
        if len(rows) != expected:
            problems.append(f"{len(rows)} rows, expected {expected}")
        with open(os.path.join(self.out_dir, "sweep_summary.csv"), newline="") as fh:
            written = list(csv.DictReader(fh))
        if [{k: str(v) for k, v in row.items()} for row in rows] != written:
            problems.append("sweep_summary.csv does not match the returned rows")
        for row in rows:
            if row["error"]:
                problems.append(f"cell {row['cell']}.{row['replicate']}: {row['error']}")
            elif row["pass_rate"] == "" or float(row["pass_rate"]) < 1.0:
                problems.append(f"cell {row['cell']}.{row['replicate']}: pass_rate={row['pass_rate']!r}")
            else:
                out.residuals.append(float(row["final_residual"]))
        # Rows carry no step count; every cell is configured for ITERS steps.
        out.steps = len(rows) * spec.base.algorithm.iters
        out.failure = "; ".join(problems)
        return out


WORKLOADS = {w.name: w for w in (RelaxSmall, IncrementalLarge, SweepGrid)}


def geometric_mean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))
