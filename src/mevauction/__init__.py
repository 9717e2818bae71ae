"""Sealed-bid MEV auctions with an imperfectly committed builder.

Solve the piecewise bidding equilibrium, evaluate and optimize builder
revenue, verify by Monte Carlo simulation, and run the bundle-record
estimation pipeline on real or synthetic data.
"""

from types import ModuleType as _ModuleType

from .profiles import MevType, TypeProfile
from .values import (
    rival_max_cdf,
    rival_max_hazard_ratio,
    top_value_density,
    top_value_cdf,
    top_value_sf,
    top_value_quantile,
    top_value_tail_mean,
    top_value_mean,
)
from .equilibrium import (
    BidCurve,
    GridSpec,
    PiecewiseStrategy,
    default_grid,
    indifference_epsilon,
    ipv_bid,
    ode_residual,
    solve_bid_ode,
    solve_cutoff,
    solve_strategy,
    truncation_mass,
)
from .revenue import (
    DEFAULT_EPSILON_GRID,
    OptimalEpsilon,
    RevenueProfile,
    expected_revenue,
    first_price_revenue,
    optimal_epsilon,
    revenue_derivative,
    revenue_sweep,
)
from .simulate import (
    DeviationScan,
    SimReport,
    deviation_payoff_grid,
    payoff_of_deviation,
    run_many,
)
from .empirics import (
    BribeSchedule,
    BundleRecord,
    BundleTable,
    DecompositionReport,
    GammaEstimate,
    IngestReport,
    bergemann_threshold,
    bribe_schedule,
    decompose,
    estimate_gamma,
    ingest,
    iter_bundles,
    validate_bergemann_rule,
    write_bundles,
)
from .diagnostics import (
    affiliation_diagnostic,
    affiliation_pairs,
    board_diagnostic,
    builder_table,
    concentration,
    effective_bidder_counts,
    gini_coefficient,
)
from .synthetic import SyntheticSpec, generate_synthetic

__version__ = "0.1.0"

# the names imported above; the submodules that the imports bind are not exported
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
