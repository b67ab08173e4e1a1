import collections
import json
import sys

import pytest

from lpgreedy import ExperimentConfig, analysis, dictionaries, fit_log_slope, harness, solvers
from lpgreedy.algorithms import read_trace_csv
from lpgreedy.config import SweepSpec
from lpgreedy.harness import load_run, read_report_json, run_experiment, run_sweep


def minimal_config(**overrides):
    data = {
        "space": {"p": 2.0, "dim": 4},
        "dictionary": {"kind": "canonical", "count": 4, "seed": 0},
        "target": {"membership": "a1", "sparsity": 2, "eps": 0.0, "seed": 1},
        "algorithm": {"id": "wgafr", "iters": 10, "t": 1.0},
    }
    for key, section in overrides.items():
        data.setdefault(key, {}).update(section)
    return ExperimentConfig.from_dict(data)


class TestRunExperiment:
    def test_minimal_wgafr(self, tmp_path):
        trace, reports = run_experiment(minimal_config(), out_dir=str(tmp_path))
        norms = trace.residual_norms()
        assert norms[2] <= 1e-8  # orthonormal exactness at sparsity 2
        assert all(r.passed for r in reports if r.applicable)
        assert (tmp_path / "trace.csv").exists()
        assert (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("policy", ["argmax", "first_qualifying"])
    @pytest.mark.parametrize("algorithm", ["wgafr", "gawr"])
    def test_zero_weakness_entry_runs_to_the_end(self, algorithm, policy):
        # t_m = 0 lies in the weakness range validate() accepts; the run
        # once stopped at that step with "t must lie in (0, 1]"
        config = minimal_config(
            space={"p": 1.5, "dim": 8},
            dictionary={"kind": "gaussian", "count": 16},
            target={"sparsity": 4},
            algorithm={"id": algorithm, "iters": 3, "tau": [1.0, 0.0, 1.0], "policy": policy},
        )
        trace, reports = run_experiment(config)
        assert len(trace.records) == 3 and trace.stop_reason == "completed"
        assert all(r.passed for r in reports if r.applicable)
        assert any(r.applicable for r in reports) == (algorithm == "wgafr")

    def test_outputs_embed_config_hash(self, tmp_path):
        config = minimal_config()
        trace, _ = run_experiment(config, out_dir=str(tmp_path))
        assert trace.config_hash == config.hash()
        meta, _, report = load_run(tmp_path / "trace.csv", tmp_path / "report.json")
        assert meta["config_hash"] == config.hash()
        assert report["config_hash"] == config.hash()

    def test_mismatched_pair_refused(self, tmp_path):
        run_experiment(minimal_config(), out_dir=str(tmp_path / "a"))
        run_experiment(
            minimal_config(target={"seed": 9}), out_dir=str(tmp_path / "b")
        )
        with pytest.raises(ValueError, match="mismatch"):
            load_run(tmp_path / "a" / "trace.csv", tmp_path / "b" / "report.json")

    def test_checker_suite_matches_algorithm(self):
        _, wgafr_reports = run_experiment(minimal_config())
        assert {r.name for r in wgafr_reports} == {
            "residual_monotone",
            "ml1_per_step",
            "mt2_bound",
        }
        _, gawr_reports = run_experiment(minimal_config(algorithm={"id": "gawr"}))
        assert {r.name for r in gawr_reports} == {"ml3_per_step"}
        _, iac_reports = run_experiment(
            minimal_config(algorithm={"id": "iac", "iters": 12})
        )
        assert {r.name for r in iac_reports} == {
            "trivial_step_bound",
            "barycentric_reconstruction",
            "rate_slope",
        }

    def test_invalid_config_rejected(self):
        config = minimal_config()
        config.space.p = 1.0
        with pytest.raises(Exception, match="space.p"):
            run_experiment(config)

    def test_byte_identical_reruns(self, tmp_path):
        config = minimal_config(algorithm={"id": "iacc", "iters": 8})
        config.target.membership = "conv"
        run_experiment(config, out_dir=str(tmp_path / "x"))
        run_experiment(config, out_dir=str(tmp_path / "y"))
        for name in ("trace.csv", "report.json"):
            a = (tmp_path / "x" / name).read_bytes()
            b = (tmp_path / "y" / name).read_bytes()
            assert a == b

    def test_report_json_schema(self, tmp_path):
        run_experiment(minimal_config(), out_dir=str(tmp_path))
        report = read_report_json(tmp_path / "report.json")
        assert report["schema"] == "lpgreedy.report.v1"
        assert report["algorithm"] == "wgafr"
        for entry in report["reports"]:
            assert set(entry) == {
                "name",
                "passed",
                "worst_margin",
                "samples",
                "tolerance",
                "applicable",
                "details",
            }

    @pytest.mark.parametrize("algorithm", ["wgafr", "gawr"])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_unconverged_trace_serializes(self, algorithm, p, tmp_path):
        config = minimal_config(
            space={"p": p, "dim": 12},
            dictionary={"kind": "gaussian", "count": 24},
            target={"sparsity": 5},
            algorithm={"id": algorithm, "iters": 15},
            solver={"max_iters": 2},
        )
        trace, _ = run_experiment(config)
        converged = [r.solver_converged for r in trace.records]
        assert not all(converged)  # the run does have unconverged steps
        assert all(type(c) is bool for c in converged)
        path = tmp_path / "trace.csv"
        path.write_text(trace.to_csv_string())
        _, records = read_trace_csv(path)
        assert [r.solver_converged for r in records] == converged

    def test_infeasible_membership_surfaces(self):
        # CONV target fed to IAC via a hand-built config is caught upstream
        # by validation; a lying target is surfaced by the selector instead.
        config = minimal_config(
            algorithm={"id": "iac", "iters": 5},
            target={"membership": "conv"},
        )
        with pytest.raises(Exception, match="iac requires"):
            run_experiment(config)


class TestRunSweep:
    def base_spec(self, replicate_seeds=2):
        return SweepSpec(
            base=minimal_config(
                dictionary={"kind": "gaussian", "count": 8},
                algorithm={"iters": 6},
            ),
            axes=[("space.p", [1.5, 2.0]), ("algorithm.iters", [4, 6])],
            replicate_seeds=replicate_seeds,
        )

    def test_cell_count(self, tmp_path):
        rows = run_sweep(self.base_spec(), out_dir=str(tmp_path))
        assert len(rows) == 2 * 2 * 2
        assert (tmp_path / "sweep_summary.csv").exists()
        header = (tmp_path / "sweep_summary.csv").read_text().splitlines()[0]
        assert header.startswith("cell,replicate,axes,")

    def test_rewrite_leaves_only_new_rows(self, tmp_path):
        # the summary is written over the old file and cut to length after
        run_sweep(self.base_spec(replicate_seeds=2), out_dir=str(tmp_path))
        first = (tmp_path / "sweep_summary.csv").read_text()
        rows = run_sweep(self.base_spec(replicate_seeds=1), out_dir=str(tmp_path))
        text = (tmp_path / "sweep_summary.csv").read_text()
        lines = text.splitlines()
        assert len(lines) == 1 + len(rows) == 1 + 4
        assert len(text) < len(first) and text.endswith("\n")
        assert [line.split(",")[-1] for line in lines[1:]] == [row["config_hash"] for row in rows]

    def test_deterministic_rows(self):
        spec = self.base_spec()
        a = run_sweep(spec)
        b = run_sweep(spec)
        assert a == b

    def test_replicates_get_distinct_seeds(self):
        rows = run_sweep(self.base_spec())
        by_cell: dict[int, list] = {}
        for row in rows:
            by_cell.setdefault(row["cell"], []).append(row)
        for cell_rows in by_cell.values():
            seeds = {r["target_seed"] for r in cell_rows}
            assert len(seeds) == len(cell_rows)

    def test_empty_axes_single_run(self):
        spec = SweepSpec(base=minimal_config(), axes=[], replicate_seeds=1)
        rows = run_sweep(spec)
        assert len(rows) == 1
        assert rows[0]["error"] == ""

    def test_bad_cell_tallied_not_fatal(self):
        spec = SweepSpec(
            base=minimal_config(dictionary={"kind": "gaussian", "count": 8}),
            axes=[("space.p", [1.0, 2.0])],  # p = 1 is invalid
            replicate_seeds=1,
        )
        rows = run_sweep(spec)
        assert len(rows) == 2
        assert "space.p" in rows[0]["error"]
        assert rows[1]["error"] == ""

    def test_bad_solver_cell_leaves_seeds_empty(self):
        spec = SweepSpec(
            base=minimal_config(dictionary={"kind": "gaussian", "count": 8}),
            axes=[("solver.grad_tol", [1e-10, -1.0])],
            replicate_seeds=1,
        )
        good, bad = run_sweep(spec)
        assert bad["error"].startswith("ConfigError: solver: ")
        assert "grad_tol" in bad["error"]
        assert (bad["dictionary_seed"], bad["target_seed"]) == ("", "")
        assert good["error"] == "" and good["dictionary_seed"] != ""

    @pytest.mark.parametrize("values", [[-1.0, 1e-10], [1e-10, -1.0]])
    def test_bad_value_fails_its_own_row_in_either_order(self, values):
        spec = SweepSpec(
            base=minimal_config(dictionary={"kind": "gaussian", "count": 8}),
            axes=[("solver.grad_tol", values)],
            replicate_seeds=1,
        )
        rows = run_sweep(spec)
        bad = values.index(-1.0)
        assert rows[bad]["error"] == (
            "ConfigError: solver: solver.grad_tol must be > 0; got -1.0"
        )
        assert rows[1 - bad]["error"] == "" and rows[1 - bad]["checks_total"] > 0

    def test_bad_p_cell_keeps_seeds(self):
        spec = SweepSpec(
            base=minimal_config(dictionary={"kind": "gaussian", "count": 8}),
            axes=[("space.p", [0.5])],
            replicate_seeds=1,
        )
        (row,) = run_sweep(spec)
        assert row["error"].startswith("ConfigError: space.p: ")
        assert isinstance(row["dictionary_seed"], int)
        assert isinstance(row["target_seed"], int)

    def test_axis_less_sweep_replicates_cell_zero(self):
        spec = SweepSpec(base=minimal_config(), axes=[], replicate_seeds=3)
        rows = run_sweep(spec)
        assert [(r["cell"], r["replicate"], r["axes"]) for r in rows] == [
            (0, 0, "{}"), (0, 1, "{}"), (0, 2, "{}")
        ]
        assert all(r["error"] == "" for r in rows)
        assert len({r["dictionary_seed"] for r in rows}) == 3

    def test_iac_sweep_slopes_track_dual_exponent(self):
        # fitted slope should be at or below the -1/p_dual prediction
        spec = SweepSpec(
            base=minimal_config(
                dictionary={"kind": "gaussian", "count": 24},
                space={"dim": 12},
                target={"sparsity": 4},
                algorithm={"id": "iac", "iters": 150},
            ),
            axes=[("space.p", [1.5, 2.0])],
            replicate_seeds=1,
        )
        rows = run_sweep(spec)
        slopes = {json.loads(r["axes"])["space.p"]: float(r["slope"]) for r in rows}
        assert slopes[2.0] <= -0.4  # p_dual = 2 -> -0.5 predicted
        assert slopes[1.5] <= -0.23  # p_dual = 3 -> -1/3 predicted

    @pytest.mark.parametrize("algorithm", ["wgafr", "iac", "iacc"])
    @pytest.mark.parametrize("iters", [2, 12])
    def test_row_slope_is_the_cell_fit(self, algorithm, iters):
        base = minimal_config(
            dictionary={"kind": "gaussian", "count": 16},
            space={"dim": 8},
            target={"membership": "conv" if algorithm == "iacc" else "a1", "sparsity": 4},
            algorithm={"id": algorithm, "iters": iters},
        )
        rows = run_sweep(SweepSpec(base=base, axes=[("space.p", [1.5, 3.0])], replicate_seeds=2))
        for row in rows:
            config = base.with_fields(
                {
                    **json.loads(row["axes"]),
                    "dictionary.seed": row["dictionary_seed"],
                    "target.seed": row["target_seed"],
                }
            )
            trace, reports = run_experiment(config)
            n = len(trace.records)
            try:
                fit = repr(fit_log_slope(trace, (max(2, n // 10), n)).slope)
            except ValueError:
                fit = ""
            assert row["error"] == "" and row["slope"] == fit
            assert (fit == "") == (iters == 2)
            if algorithm != "wgafr":
                (rate,) = [r for r in reports if r.name == "rate_slope"]
                if fit:
                    assert rate.details[0] == f"slope={fit}"
                else:
                    assert rate.details[0].startswith("slope unavailable: ")


class TestTracedSurface:
    """A sweep reaches the loops through the public names a span tracer wraps,
    each loop step makes one selection and one call of the solver core
    ``_descend``, and each cell's rate slope is fitted once.

    Each name is replaced wherever an lpgreedy module holds it, as a tracer
    rebinds it, so a call that bypasses the public name is not counted.
    """

    NAMES = (
        (harness, "run_experiment"),
        (dictionaries, "weak_select"),
        (dictionaries, "eps_select"),
        (solvers, "minimize_free_relax"),
        (solvers, "minimize_over_line"),
        (solvers, "_descend"),
        (analysis, "fit_log_slope"),
    )

    def count_calls(self, monkeypatch):
        calls = collections.Counter()
        steps = []

        def counted(name, original):
            def call(*args, **kwargs):
                calls[name] += 1
                result = original(*args, **kwargs)
                if name == "run_experiment":
                    steps.append(len(result[0].records))
                return result

            return call

        for module, name in self.NAMES:
            original = getattr(module, name)
            wrapper = counted(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "lpgreedy":
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            monkeypatch.setattr(mod, attr, wrapper)
        return calls, steps

    @pytest.mark.parametrize("algorithm", ["wgafr", "gawr", "iac", "iacc"])
    def test_one_run_experiment_and_fit_per_cell_one_selection_per_step(
        self, monkeypatch, algorithm
    ):
        base = minimal_config(
            dictionary={"kind": "gaussian", "count": 16},
            space={"dim": 8},
            target={"membership": "conv" if algorithm == "iacc" else "a1", "sparsity": 4},
            algorithm={"id": algorithm, "iters": 6},
        )
        spec = SweepSpec(base=base, axes=[("space.p", [1.5, 2.0, 3.0])], replicate_seeds=2)
        calls, steps = self.count_calls(monkeypatch)
        rows = run_sweep(spec)
        assert [row["error"] for row in rows] == [""] * 6
        assert calls["run_experiment"] == len(rows) == len(steps)
        assert sum(steps) == 6 * 6
        select = "eps_select" if algorithm in ("iac", "iacc") else "weak_select"
        expected = {"run_experiment": len(rows), "fit_log_slope": len(rows), select: sum(steps)}
        if algorithm in ("wgafr", "gawr"):  # the loop calls the core, not the public solvers
            expected["_descend"] = sum(steps)
        assert dict(calls) == expected
