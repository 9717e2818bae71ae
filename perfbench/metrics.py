"""Metric tables of the benchmark and the per-layer numbers taken from spans.

``END_TO_END`` and ``PER_LAYER`` are the source of ``BENCHMARK.json``'s metric
lists (``record.py benchmark-json`` writes them).  Every ``<layer>.*_s``
per-layer metric is a self time: the layer function's busy time minus the
busy time of the traced layer calls it made.  Counts and seconds are per
pass of the workload's commands.
"""

from __future__ import annotations

from collections import defaultdict

from tracing import BUSY, COUNT, NAME, ancestor, root, self_times

WORKLOAD_WHY = {
    "theory": "solve and the default 21-point sweep on four profiles covering all "
              "three revenue regimes and n=50: solver and quadrature, no simulation or CSV",
    "montecarlo": "simulate 4M flagship and 250k n=50 blocks: the game engine "
                  "(draw, bid, argmax, reduce) and its memory, one ODE solve each",
    "pipeline": "generate 20k blocks of three planted types, then estimate and report on a "
                "copy with seeded bad rows: the CSV write path and the read path",
}

# (name, unit, better, bound)
END_TO_END = [
    ("work_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

# per-command throughput, measured with tracing off in the traced run
COMMAND_RATES = {
    "solve": ("cli.solve_per_s", "1/s"),
    "sweep": ("cli.sweep_eps_per_s", "1/s"),
    "simulate": ("cli.simulate_blocks_per_s", "blocks/s"),
    "generate": ("cli.generate_records_per_s", "records/s"),
    "estimate": ("cli.estimate_records_per_s", "records/s"),
    "report": ("cli.report_records_per_s", "records/s"),
}

IMPORTS = ("mevauction.values", "mevauction.equilibrium", "scipy.stats",
           "scipy.optimize", "scipy.integrate", "scipy.interpolate")

# (name, unit, better)
PER_LAYER = [
    ("values.density_points", "count", "lower"),
    ("values.density_calls", "count", "lower"),
    ("values.density_s", "s", "lower"),
    ("values.hazard_points", "count", "lower"),
    ("values.hazard_s", "s", "lower"),
    ("equilibrium.solve_bid_ode_s", "s", "lower"),
    ("equilibrium.ode_nodes", "count", "lower"),
    ("equilibrium.solve_cutoff_s", "s", "lower"),
    ("equilibrium.bid_values", "count", "lower"),
    ("equilibrium.bid_s", "s", "lower"),
    ("revenue.expected_revenue_s", "s", "lower"),
    ("revenue.revenue_derivative_s", "s", "lower"),
    ("revenue.density_points_per_eps", "count", "lower"),
    ("simulate.run_many_s", "s", "lower"),
    ("simulate.bid_values_per_block", "count", "lower"),
    ("simulate.bid_share", "ratio", "lower"),
    ("simulate.run_many_workers1_s", "s", "lower"),
    ("simulate.run_many_workers2_s", "s", "lower"),
    ("synthetic.generate_s", "s", "lower"),
    ("synthetic.records", "count", "higher"),
    ("empirics.rows_parsed", "count", "lower"),
    ("empirics.parse_passes_estimate", "ratio", "lower"),
    ("empirics.parse_passes_report", "ratio", "lower"),
    ("empirics.iter_bundles_s", "s", "lower"),
    ("empirics.write_bundles_s", "s", "lower"),
    ("empirics.bribe_schedule_s", "s", "lower"),
    ("empirics.estimate_gamma_s", "s", "lower"),
    ("empirics.decompose_s", "s", "lower"),
    ("diagnostics.affiliation_pairs_s", "s", "lower"),
    ("diagnostics.affiliation_pairs_calls", "count", "lower"),
    ("diagnostics.effective_bidder_counts_s", "s", "lower"),
    ("diagnostics.effective_bidder_counts_calls", "count", "lower"),
    ("diagnostics.concentration_s", "s", "lower"),
    ("diagnostics.builder_table_s", "s", "lower"),
    ("diagnostics.board_diagnostic_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    *[(name, unit, "higher") for name, unit in COMMAND_RATES.values()],
    *[(f"setup.import_{module}_s", "s", "lower") for module in IMPORTS],
    ("trace.overhead", "ratio", "lower"),
]

# counts that must repeat exactly between runs of the same seed
EXACT = [name for name, unit, _ in PER_LAYER
         if unit == "count" or name.startswith("empirics.parse_passes")
         or name == "cli.output_bytes"]

# layer function -> per-layer time metric (self time)
SELF_TIMES = {
    "values.top_value_density": "values.density_s",
    "values.rival_max_hazard_ratio": "values.hazard_s",
    "equilibrium.solve_bid_ode": "equilibrium.solve_bid_ode_s",
    "equilibrium.solve_cutoff": "equilibrium.solve_cutoff_s",
    "equilibrium.PiecewiseStrategy.bid": "equilibrium.bid_s",
    "revenue.expected_revenue": "revenue.expected_revenue_s",
    "revenue.revenue_derivative": "revenue.revenue_derivative_s",
    "simulate.run_many": "simulate.run_many_s",
    "synthetic.generate_synthetic": "synthetic.generate_s",
    "empirics.iter_bundles": "empirics.iter_bundles_s",
    "empirics.write_bundles": "empirics.write_bundles_s",
    "empirics.bribe_schedule": "empirics.bribe_schedule_s",
    "empirics.estimate_gamma": "empirics.estimate_gamma_s",
    "empirics.decompose": "empirics.decompose_s",
    "diagnostics.affiliation_pairs": "diagnostics.affiliation_pairs_s",
    "diagnostics.effective_bidder_counts": "diagnostics.effective_bidder_counts_s",
    "diagnostics.concentration": "diagnostics.concentration_s",
    "diagnostics.builder_table": "diagnostics.builder_table_s",
    "diagnostics.board_diagnostic": "diagnostics.board_diagnostic_s",
}
# layer function -> per-layer work count (sum of span counts)
COUNTS = {
    "values.top_value_density": "values.density_points",
    "values.rival_max_hazard_ratio": "values.hazard_points",
    "equilibrium.solve_bid_ode": "equilibrium.ode_nodes",
    "equilibrium.PiecewiseStrategy.bid": "equilibrium.bid_values",
    "synthetic.generate_synthetic": "synthetic.records",
    "empirics.iter_bundles": "empirics.rows_parsed",
}
# layer function -> number of calls
CALLS = {
    "values.top_value_density": "values.density_calls",
    "diagnostics.affiliation_pairs": "diagnostics.affiliation_pairs_calls",
    "diagnostics.effective_bidder_counts": "diagnostics.effective_bidder_counts_calls",
}
REVENUE_CALLS = {"revenue.expected_revenue", "revenue.revenue_derivative"}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(spans, lo: int, hi: int, parse_rows: int = 0) -> dict:
    """Per-layer metrics of one traced pass, the spans ``spans[lo:hi]``.

    The roots are the CLI commands (``cli.<command>``); ``parse_rows`` is the
    number of parseable rows in the CSV that ``estimate`` and ``report`` read.
    """
    out = {name: 0.0 for name in SELF_TIMES.values()}
    out.update({name: 0 for name in (*COUNTS.values(), *CALLS.values())})
    out["cli.self_s"] = 0.0
    density_in_revenue = bid_in_sim = 0
    bid_s_in_sim = sim_busy = sim_blocks = revenue_eps = 0.0
    rows_by_command = defaultdict(int)
    selfs = self_times(spans, lo, hi)
    for i in range(lo, hi):
        span = spans[i]
        name = span[NAME]
        if name in SELF_TIMES:
            out[SELF_TIMES[name]] += selfs[i - lo]
        if name in COUNTS:
            out[COUNTS[name]] += span[COUNT]
        if name in CALLS:
            out[CALLS[name]] += 1
        if name.startswith("cli."):
            out["cli.self_s"] += selfs[i - lo]
        elif name == "values.top_value_density":
            if ancestor(spans, i, REVENUE_CALLS, lo) >= 0:
                density_in_revenue += span[COUNT]
        elif name == "revenue.expected_revenue":
            revenue_eps += 1
        elif name == "simulate.run_many":
            sim_busy += span[BUSY]
            sim_blocks += span[COUNT]
        elif name == "equilibrium.PiecewiseStrategy.bid":
            if ancestor(spans, i, {"simulate.run_many"}, lo) >= 0:
                bid_in_sim += span[COUNT]
                bid_s_in_sim += span[BUSY]
        elif name == "empirics.iter_bundles":
            rows_by_command[spans[root(spans, i, lo)][NAME]] += span[COUNT]
    out["revenue.density_points_per_eps"] = _ratio(density_in_revenue, revenue_eps)
    out["simulate.bid_values_per_block"] = _ratio(bid_in_sim, sim_blocks)
    out["simulate.bid_share"] = _ratio(bid_s_in_sim, sim_busy)
    out["empirics.parse_passes_estimate"] = _ratio(rows_by_command["cli.estimate"], parse_rows)
    out["empirics.parse_passes_report"] = _ratio(rows_by_command["cli.report"], parse_rows)
    return out
