"""Inner-solver micro-benchmark: time per solve and per iteration.

    python bench/run_bench.py --out BENCH.json [--baseline OTHER/src]

Times ``minimize_over_line`` and ``minimize_free_relax`` of the lpgreedy in
``src/`` next to this script ("change") and, with ``--baseline``, of a
second source tree ("parent", e.g. a ``git clone`` of the parent commit)
on the same seeded random instances at p in {1.5, 2, 3} and dim in
{16, 2048}. Both packages are imported into this one process and their
``REPEATS`` repeats alternate, so drifts in host speed hit both alike.
Each repeat times one pass over the instances with ``time.perf_counter``;
a case reports the median over repeats of the mean time per call, that
time divided by the mean iterations per solve, the iteration counts, the
number of unconverged solves and, where the result carries one, the
largest relative duality gap. The JSON also records the ``src/`` line
count and commit of each tree (and whether its ``src/`` has edits not yet
committed), the machine and the package versions.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

HERE_SRC = Path(__file__).resolve().parents[1] / "src"
ENTRIES = ("minimize_over_line", "minimize_free_relax")
PS = (1.5, 2.0, 3.0)
INSTANCES = {16: 40, 2048: 8}
REPEATS = 7


def load_package(src: Path):
    """Import lpgreedy from ``src``, leaving any earlier import intact."""
    for name in [m for m in sys.modules if m == "lpgreedy" or m.startswith("lpgreedy.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        return importlib.import_module("lpgreedy")
    finally:
        sys.path.remove(str(src))


def instances(entry: str, p: float, dim: int):
    rng = np.random.default_rng([ENTRIES.index(entry), int(10 * p), dim])
    count = 2 if entry == "minimize_over_line" else 3
    return [
        [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(count)]
        for _ in range(INSTANCES[dim])
    ]


def solve_all(pkg, entry, p, dim, cases):
    space = pkg.LpSpace(p, dim)
    fn = getattr(pkg, entry)
    return [fn(space, *args) for args in cases]


def timed_pass(pkg, entry, p, dim, cases) -> float:
    start = time.perf_counter()
    solve_all(pkg, entry, p, dim, cases)
    return (time.perf_counter() - start) / len(cases)


def outcome(results) -> dict:
    iters = [r.iterations for r in results]
    gaps = [r.gap / r.value for r in results if getattr(r, "gap", None) is not None and r.value > 0]
    return {
        "iters_mean": statistics.fmean(iters),
        "iters_max": max(iters),
        "unconverged": sum(not r.converged for r in results),
        "max_rel_gap": max(gaps) if gaps else None,
    }


def tree_info(src: Path) -> dict:
    lines = sum(len(f.read_text().splitlines()) for f in sorted(src.rglob("*.py")))
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(src), *args], capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        commit = git("rev-parse", "HEAD")
        edited = bool(git("status", "--porcelain", "--", "."))
    except (OSError, subprocess.CalledProcessError):
        commit = edited = None
    return {"commit": commit, "uncommitted_src_edits": edited, "src_lines": lines}


def machine_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--baseline", type=Path, help="src/ directory of the tree to compare against")
    args = parser.parse_args(argv)

    trees = {"change": HERE_SRC}
    if args.baseline is not None:
        trees = {"parent": args.baseline.resolve(), "change": HERE_SRC}
    pkgs = {label: load_package(src) for label, src in trees.items()}
    cases = {
        (entry, p, dim): instances(entry, p, dim)
        for entry in ENTRIES for p in PS for dim in INSTANCES
    }
    # Untimed warm-up pass, which also records iterations and convergence.
    outcomes = {
        (label, key): outcome(solve_all(pkg, *key, data))
        for label, pkg in pkgs.items() for key, data in cases.items()
    }
    times = {(label, key): [] for label in pkgs for key in cases}
    labels = list(pkgs)
    for rep in range(REPEATS):
        for label in labels if rep % 2 == 0 else labels[::-1]:
            for key, data in cases.items():
                times[label, key].append(timed_pass(pkgs[label], *key, data))

    results = []
    for key in cases:
        entry, p, dim = key
        row = {"entry": entry, "p": p, "dim": dim, "instances": len(cases[key])}
        for label in pkgs:
            call_s = statistics.median(times[label, key])
            stats = outcomes[label, key]
            row[label] = {
                "call_us": 1e6 * call_s,
                "iter_us": 1e6 * call_s / stats["iters_mean"] if stats["iters_mean"] else None,
                **stats,
            }
        if "parent" in pkgs:
            row["call_speedup"] = row["parent"]["call_us"] / row["change"]["call_us"]
        results.append(row)
        print(json.dumps(row))

    report = {
        "bench": "inner solve per call and per iteration (bench/run_bench.py)",
        "repeats": REPEATS,
        "statistic": "median over repeats of the mean wall time per call",
        "machine": machine_info(),
        "trees": {label: tree_info(src) for label, src in trees.items()},
        "results": results,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
