"""Greedy sparse approximation in complex l_p spaces over finite dictionaries.

Four greedy loops (free relaxation, prescribed relaxation, and two
incremental averaging variants), the l_p duality map they are built on,
and numerical checkers for the residual recursions and convergence rates.
"""

from .spaces import (
    LpSpace,
    DualFunctional,
    SmoothnessParams,
    lp_norm,
    complex_sign,
    norming_functional,
    apply_functional,
    rho_bound,
    smoothness_params,
)
from .dictionaries import (
    Dictionary,
    Selection,
    TargetSpec,
    InfeasibleSelectionError,
    generate_dictionary,
    dict_dual_norm,
    weak_select,
    eps_select,
    make_target,
)
from .solvers import (
    SolverConfig,
    SolveResult,
    DependentBasisError,
    minimize_over_line,
    minimize_free_relax,
    best_approx_subspace,
)
from .algorithms import (
    WeaknessSequence,
    RelaxationSchedule,
    epsilon_schedule,
    TraceRecord,
    GreedyTrace,
    run_wgafr,
    run_gawr,
    run_iac,
    run_iacc,
    read_trace_csv,
)
from .analysis import (
    CheckReport,
    RateFit,
    check_ll0,
    check_ml1_trace,
    check_ml3_trace,
    check_mt2_bound,
    check_hl1,
    check_ml4,
    fit_log_slope,
    check_orthogonality,
    check_dual_norm_supremum,
    check_monotone,
    check_trivial_step,
    check_barycentric,
)
from .config import (
    ExperimentConfig,
    SweepSpec,
    ConfigError,
)
from .harness import run_experiment, run_sweep
from .acceptance import verify_suite

__version__ = "0.1.0"
