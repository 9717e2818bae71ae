"""Command-line surface.

Commands: solve, sweep, simulate, generate, estimate, report.  Every run
resolves its parameters from an optional INI config file plus flags (flags
win), writes the outputs plus a deterministic ``manifest.json`` capturing
the resolved configuration, seed, and package version, and a separate
``timing.json`` with the wall clock so the data files stay byte-identical
across reruns.  Exit codes: 0 success, 1 domain error (JSON on stderr),
2 usage error.

Config grammar (INI): one section per command, keys equal to the long flag
names with dashes replaced by underscores, each value read with its flag's
type (a value that does not convert, or a file that is not INI, is a usage
error)::

    [solve]
    n = 5
    rho = 0.3
    gamma = 0.74
    epsilon = 0.2
    mu = 1.102
    sigma = 2.524

``generate`` additionally accepts one section per type, named
``[generate.type.<label>]`` with the same profile keys plus ``epsilon``.
The only environment variable honored is MEVAUCTION_OUT (default output
directory).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .empirics import (
    MEV_TYPES,
    BundleTable,
    IngestReport,
    _types_present,
    bergemann_threshold,
    bribe_schedule,
    decompose,
    estimate_gamma,
    iter_bundles,  # noqa: F401  perfbench's tracer test reads cli.iter_bundles
    write_bundles,
    DEFAULT_BERGEMANN_RULE,
)
from .diagnostics import (
    affiliation_diagnostic,
    affiliation_pairs,
    board_diagnostic,
    builder_table,
    builder_table_csv,
    concentration,
    effective_bidder_counts,
)
from .equilibrium import GridSpec, default_grid, solve_bid_ode, solve_strategy
from .errors import MevAuctionError, ParameterError, ThinSampleError
from .profiles import MevType, TypeProfile
from .revenue import optimal_epsilon, revenue_sweep
from .simulate import _check_run_args, run_many
from .synthetic import SyntheticSpec, generate_chunks

PROFILE_KEYS = ("type", "n", "rho", "gamma", "mu", "sigma")
# the type of each numeric flag, by config key; other keys are strings
CONFIG_TYPES = {"n": int, "rho": float, "gamma": float, "mu": float, "sigma": float,
                "epsilon": float, "blocks": int, "seed": int, "nodes": int,
                "opportunities_per_block": int, "window": int}


def _read_ini(path, parser) -> configparser.ConfigParser:
    config = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        try:
            config.read_file(fh)
        except configparser.Error as exc:
            parser.error(f"config file {path}: {exc}")
    return config


def _load_config(path, command, parser):
    if not path:
        return {}
    config = _read_ini(path, parser)
    section = dict(config[command]) if config.has_section(command) else {}
    section["_type_sections"] = [
        (name.split(".", 2)[2], dict(config[name]))
        for name in config.sections()
        if name.startswith(f"{command}.type.")
    ]
    return section


def _resolve(args, config, keys, parser):
    """Merge config defaults with flag overrides; missing keys are usage errors."""
    out = {}
    for key in keys:
        val = _flag_or_config(getattr(args, key, None), config, key, parser)
        if val is None:
            parser.error(f"missing required parameter --{key.replace('_', '-')}")
        out[key] = val
    return out


def _flag_or_config(flag, config, key, parser, default=None):
    """A flag that was given (zero included) wins over the config value.  That
    value is kept as written, but must convert with the flag's type."""
    if flag is not None:
        return flag
    text = config.get(key)
    if text is None:
        return default
    kind = CONFIG_TYPES.get(key, str)
    try:
        kind(text)
    except ValueError:
        parser.error(f"config value {key} = {text!r} is not {kind.__name__}")
    return text


def _profile_from(params) -> TypeProfile:
    return TypeProfile(MevType.parse(str(params["type"])),
                       **{k: CONFIG_TYPES[k](params[k]) for k in PROFILE_KEYS[1:]})


def _out_dir(args) -> Path:
    out = args.out_dir or os.environ.get("MEVAUCTION_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write(path: Path, text: str):
    path.write_text(text, encoding="utf-8")


def _finite_or_none(x):
    """JSON has no inf or NaN: a ratio over a zero total is written as null
    (as is a statistic already None, such as the correlation of a constant
    series)."""
    return x if x is not None and math.isfinite(x) else None


def _manifest(out: Path, command: str, resolved: dict, started: float):
    clean = {k: (v if not isinstance(v, float) or math.isfinite(v) else str(v))
             for k, v in resolved.items()}
    _write(out / "manifest.json", json.dumps(
        {"command": command, "config": clean, "version": __version__,
         "package": "mevauction"}, indent=1, sort_keys=True))
    _write(out / "timing.json", json.dumps(
        {"started_unix": started, "wall_seconds": time.time() - started}, indent=1))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_solve(args, parser):
    started = time.time()
    config = _load_config(args.config, "solve", parser)
    params = _resolve(args, config, PROFILE_KEYS + ("epsilon",), parser)
    profile = _profile_from(params)
    epsilon = float(params["epsilon"])
    nodes = int(_flag_or_config(args.nodes, config, "nodes", parser, 2000))
    out = _out_dir(args)

    grid = default_grid(profile, nodes=nodes)
    if args.v_min is not None or args.v_max is not None:
        grid = GridSpec(
            v_min=float(args.v_min if args.v_min is not None else grid.v_min),
            v_max=float(args.v_max if args.v_max is not None else grid.v_max),
            nodes=grid.nodes,
        )
    curve = solve_bid_ode(profile, grid)
    strategy = solve_strategy(profile, epsilon, curve=curve)
    _write(out / "curve.csv", curve.to_csv())
    _write(out / "strategy.json", strategy.to_json())
    _manifest(out, "solve", {**params, "nodes": grid.nodes,
                             "v_min": grid.v_min, "v_max": grid.v_max}, started)
    cutoff = "inf" if math.isinf(strategy.cutoff) else f"{strategy.cutoff:.6g}"
    print(f"solved curve ({curve.grid.size} nodes), cutoff = {cutoff}")
    return 0


def cmd_sweep(args, parser):
    started = time.time()
    config = _load_config(args.config, "sweep", parser)
    params = _resolve(args, config, PROFILE_KEYS, parser)
    profile = _profile_from(params)
    eps_text = _flag_or_config(args.epsilons, config, "epsilons", parser)
    if eps_text is not None:
        # explicit grids of any size are honored; argmax is over that grid
        try:
            grid = [float(x) for x in str(eps_text).split(",")]
        except ValueError:
            raise ParameterError(
                f"epsilons must be comma-separated numbers, got {eps_text!r}") from None
        rp = revenue_sweep(profile, grid)
        star = float(rp.epsilons[int(np.argmax(rp.revenues))])
        regime = rp.regime
    else:
        result = optimal_epsilon(profile)
        rp, star, regime = result.profile, result.epsilon_star, result.regime
    out = _out_dir(args)
    _write(out / "revenue_profile.csv", rp.to_csv())
    _write(out / "revenue_profile.json", json.dumps(
        {"epsilon_star": star, "regime": regime,
         "profile": json.loads(rp.to_json())}, indent=1))
    _manifest(out, "sweep", {**params, "epsilons": eps_text or "default"}, started)
    print(f"regime = {regime}, epsilon_star = {star}")
    return 0


def cmd_simulate(args, parser):
    started = time.time()
    config = _load_config(args.config, "simulate", parser)
    params = _resolve(args, config, PROFILE_KEYS + ("epsilon", "blocks", "seed"), parser)
    profile = _profile_from(params)
    blocks = int(params["blocks"])
    _check_run_args(blocks, args.threads, args.antithetic, args.trace_cap)
    out = _out_dir(args)
    strategy = solve_strategy(profile, float(params["epsilon"]))
    trace_path = out / "trace.csv" if args.trace else None
    report = run_many(strategy, profile, blocks, int(params["seed"]),
                      workers=args.threads, antithetic=args.antithetic,
                      trace_path=trace_path, trace_cap=args.trace_cap)
    _write(out / "sim_report.json", report.to_json())
    _manifest(out, "simulate", {**params, "antithetic": args.antithetic}, started)
    print(f"blocks={report.blocks} revenue={report.mean_builder_revenue:.6g}"
          f" +-{report.stderr_builder_revenue:.2g}")
    return 0


def _specs_from_config(config, args, parser):
    rows = config.get("_type_sections") or []
    if rows:
        specs = []
        for label, row in rows:
            params = {k: _flag_or_config(None, row, k, parser)
                      for k in PROFILE_KEYS[1:] + ("epsilon",)}
            params["type"] = row.get("type", label)
            if any(v is None for v in params.values()):
                parser.error(f"[generate.type.{label}] missing keys")
            specs.append(SyntheticSpec(profile=_profile_from(params),
                                       epsilon=float(params["epsilon"])))
        return specs
    params = _resolve(args, config, PROFILE_KEYS + ("epsilon",), parser)
    return [SyntheticSpec(profile=_profile_from(params),
                          epsilon=float(params["epsilon"]))]


def cmd_generate(args, parser):
    started = time.time()
    config = _load_config(args.config, "generate", parser)
    specs = _specs_from_config(config, args, parser)
    params = _resolve(args, config, ("blocks", "seed"), parser)
    blocks, seed = int(params["blocks"]), int(params["seed"])
    opb = int(_flag_or_config(args.opportunities, config, "opportunities_per_block",
                              parser, 1))
    chunks = generate_chunks(specs, blocks, seed, opportunities_per_block=opb)
    out = _out_dir(args)
    count = write_bundles(out / "bundles.csv", chunks)
    _manifest(out, "generate", {
        "blocks": blocks, "seed": seed,
        "opportunities_per_block": opb,
        "types": [s.profile.tau.value for s in specs]}, started)
    print(f"wrote {count} records to {out / 'bundles.csv'}")
    return 0


def _write_estimates(table, out):
    """Write the bribe schedule of every type with enough positive-value
    records; return their gamma estimates."""
    estimates = {}
    for c in _types_present(table.mev_type):
        try:
            schedule = bribe_schedule(table, MEV_TYPES[c])
        except ThinSampleError:
            continue
        _write(out / f"fig2_{MEV_TYPES[c].value}.csv", schedule.to_csv())
        estimates[MEV_TYPES[c]] = estimate_gamma(schedule)
    return estimates


def cmd_estimate(args, parser):
    started = time.time()
    config = _load_config(args.config, "estimate", parser)
    path = args.input or config.get("input")
    if not path:
        parser.error("missing required parameter --input")
    out = _out_dir(args)
    estimates = _write_estimates(BundleTable.read(path), out)
    _write(out / "gamma_estimates.json", json.dumps(
        {t.value: e.to_dict() for t, e in estimates.items()}, indent=1, sort_keys=True))
    _manifest(out, "estimate", {"input": str(path)}, started)
    print(f"estimated gamma for {len(estimates)} types")
    return 0


def cmd_report(args, parser):
    started = time.time()
    config = _load_config(args.config, "report", parser)
    path = args.input or config.get("input")
    if not path:
        parser.error("missing required parameter --input")
    rule = args.bergemann_rule or config.get("bergemann_rule", DEFAULT_BERGEMANN_RULE)
    window = int(_flag_or_config(args.window, config, "window", parser, 50))
    out = _out_dir(args)
    ingest_report = IngestReport()
    table = BundleTable.read(path, ingest_report)
    # before any output is written, so a bad window leaves no partial report
    counted = effective_bidder_counts(table, window=window)

    # summary statistics and data quality
    positive = ~(table.value <= 0)
    nonpositive = len(table) - int(np.count_nonzero(positive))
    codes = table.mev_type[positive]
    values = table.value[positive]
    type_tips = np.bincount(codes, weights=table.tip[positive], minlength=len(MEV_TYPES))
    summarized = _types_present(codes)

    lines = ["mev_type,count,total_extracted,mean,median,std,mean_bribe_share\n"]
    all_vals, all_tips = [], 0.0
    for c in summarized:
        vals = values[codes == c]
        all_vals.append(vals)
        all_tips += type_tips[c]
        lines.append(
            f"{MEV_TYPES[c].value},{vals.size},{vals.sum():.12g},{vals.mean():.12g},"
            f"{np.median(vals):.12g},{vals.std():.12g},"
            f"{type_tips[c] / vals.sum():.12g}\n")
    if all_vals:
        vals = np.concatenate(all_vals)
        lines.append(f"all,{vals.size},{vals.sum():.12g},{vals.mean():.12g},"
                     f"{np.median(vals):.12g},{vals.std():.12g},"
                     f"{all_tips / vals.sum():.12g}\n")
    _write(out / "tab1_summary.csv", "".join(lines))

    # schedules, estimates, decomposition
    estimates = _write_estimates(table, out)
    skipped_thin = sorted(MEV_TYPES[c].value for c in summarized
                          if MEV_TYPES[c] not in estimates)
    decomposition = None
    if estimates:
        estimated = np.isin(table.mev_type, [MEV_TYPES.index(t) for t in estimates])
        decomposition = decompose(table.select(estimated), estimates)
        _write(out / "fig3_decomposition.csv", decomposition.to_csv())

    # diagnostics
    pairs = affiliation_pairs(table)
    _write(out / "figA1_pairs.csv",
           "mev_type,log_value_top,log_value_second\n" + "".join(
               f"{t.value},{x:.12g},{y:.12g}\n" for t, x, y in pairs))
    affiliation = affiliation_diagnostic(pairs)
    conc = concentration(table, by="searcher")
    lorenz_lines = ["mev_type,population_share,value_share\n"]
    for mev_type, stat in sorted(conc.items(), key=lambda kv: kv[0].value):
        for p, v in zip(stat.lorenz_population, stat.lorenz_value):
            lorenz_lines.append(f"{mev_type.value},{p:.12g},{v:.12g}\n")
    _write(out / "figA2_lorenz.csv", "".join(lorenz_lines))
    _write(out / "tabA1_builders.csv", builder_table_csv(builder_table(table)))
    board = board_diagnostic(counted)
    _write(out / "figA3_board.csv",
           "mev_type,count_lo,count_hi,records,mean_revenue,mean_bribe_share\n"
           + "".join(f"{r.mev_type.value},{r.count_lo},{r.count_hi},{r.records},"
                     f"{r.mean_revenue:.12g},{r.mean_bribe_share:.12g}\n"
                     for r in board))

    # disclosure benchmark per type from the median bidder-count proxy
    proxy_types = counted.table.mev_type[counted.order]
    berg_lines = ["mev_type,n_effective,threshold\n"]
    berg = {}
    for c in _types_present(proxy_types):
        mev_type = MEV_TYPES[c]
        n_eff = max(2, int(round(float(np.median(counted.proxy[proxy_types == c])))))
        thr = bergemann_threshold(n_eff, rule=rule)
        berg[mev_type.value] = {"n_effective": n_eff, "threshold": thr}
        berg_lines.append(f"{mev_type.value},{n_eff},{thr:.12g}\n")
    _write(out / "fig4_bergemann.csv", "".join(berg_lines))

    _write(out / "report.json", json.dumps({
        "data_quality": {
            "rows_read": ingest_report.rows_read,
            "records": ingest_report.records,
            "malformed": ingest_report.malformed,
            "nonpositive_extracted_value": nonpositive,
            "types_too_thin_to_estimate": skipped_thin,
        },
        "gamma_estimates": {t.value: e.to_dict() for t, e in estimates.items()},
        "decomposition": None if decomposition is None else {
            "total_tips": decomposition.total_tips,
            "total_foregone": decomposition.total_foregone,
            "ratio": _finite_or_none(decomposition.total_ratio),
        },
        "affiliation": {t.value: {"pairs": a.pairs,
                                  "slope": _finite_or_none(a.slope),
                                  "correlation": _finite_or_none(a.correlation)}
                        for t, a in affiliation.items()},
        "concentration": {t.value: {"groups": c.groups, "gini": c.gini,
                                    "top_k_shares": c.top_k_shares}
                          for t, c in conc.items()},
        "bergemann": {"rule": rule, "proxy_window_blocks": window,
                      "per_type": berg},
        "bin_weighting": "record-weighted within bins; bin-uniform dispersion "
                         "reported by estimate_gamma",
    }, indent=1, sort_keys=True, allow_nan=False))
    _manifest(out, "report", {"input": str(path), "bergemann_rule": rule,
                              "window": window}, started)
    print(f"report written to {out} ({ingest_report.records} records)")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_profile_flags(p):
    p.add_argument("--type", help="MEV type label (sandwich, naked_arb, liquidation, backrun)")
    p.add_argument("--n", type=int, help="number of entrants")
    p.add_argument("--rho", type=float, help="signal affiliation in [0, 1)")
    p.add_argument("--gamma", type=float, help="replicable share in [0, 1]")
    p.add_argument("--mu", type=float, help="log-scale location")
    p.add_argument("--sigma", type=float, help="log-scale dispersion")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mevauction",
        description="MEV auctions under imperfect builder commitment",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file")
        p.add_argument("--out-dir", help="output directory (or MEVAUCTION_OUT)")

    p = sub.add_parser("solve", help="solve the bid curve and cutoff")
    common(p)
    _add_profile_flags(p)
    p.add_argument("--epsilon", type=float, help="builder defection rate")
    p.add_argument("--v-min", type=float)
    p.add_argument("--v-max", type=float)
    p.add_argument("--nodes", type=int)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="revenue profile over defection rates")
    common(p)
    _add_profile_flags(p)
    p.add_argument("--epsilons", help="comma-separated grid (default 0,0.05,...,0.99)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo the full game")
    common(p)
    _add_profile_flags(p)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--blocks", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--antithetic", action="store_true")
    p.add_argument("--trace", action="store_true", help="write a capped per-block trace")
    p.add_argument("--trace-cap", type=int, default=10_000)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("generate", help="synthetic bundle records")
    common(p)
    _add_profile_flags(p)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--blocks", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--opportunities", type=int, help="auctions per block and type")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("estimate", help="bribe schedules and gamma estimates")
    common(p)
    p.add_argument("--input", help="bundle CSV")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("report", help="full estimation pipeline and figure data")
    common(p)
    p.add_argument("--input", help="bundle CSV")
    p.add_argument("--bergemann-rule", help="named disclosure rule")
    p.add_argument("--window", type=int, help="bidder-count proxy window (blocks)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (MevAuctionError, OSError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
