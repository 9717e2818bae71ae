"""Command-line surface.

Commands: solve, sweep, simulate, generate, estimate, report.  Every run
resolves its parameters from an optional INI config file plus flags (flags
win), writes the outputs plus a deterministic ``manifest.json`` capturing
the resolved configuration, seed, and package version, and a separate
``timing.json`` with the wall clock so the data files stay byte-identical
across reruns.  Exit codes: 0 success, 1 domain error (JSON on stderr),
2 usage error.

Each parameter is declared once, as a row (config key, type, default or
REQUIRED, help) of its command in ``PARAMS``.  The row gives the flag, the
key with dashes for underscores (``--opportunities`` is the one alias, of
``opportunities_per_block``; bool keys are store-true flags), and the config
key.  A flag that is given wins, zero and the empty string included; else
the config value; else the default.

Config grammar (INI): one section per command, keyed by its rows' keys.
Each value is read with its row's type, booleans as INI booleans (true/false,
yes/no, on/off, 1/0), and recorded in ``manifest.json`` as written.  A key
the section does not list, a value that does not convert, a missing required
parameter or a file that is not INI is a usage error::

    [solve]
    type = naked_arb
    n = 5
    rho = 0.3
    gamma = 0.74
    epsilon = 0.2
    mu = 1.102
    sigma = 2.524

``generate`` additionally accepts one section per type, named
``[generate.type.<label>]``, with the profile keys plus ``epsilon`` (``type``
defaults to the label); these replace the profile flags and keys of
``[generate]``.  The only environment variable honored is MEVAUCTION_OUT
(default output directory).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import time
from dataclasses import replace
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
from .equilibrium import DEFAULT_NODES, default_grid, solve_bid_ode, solve_strategy
from .errors import MevAuctionError, ParameterError, ThinSampleError
from .profiles import MevType, TypeProfile
from .revenue import optimal_epsilon, revenue_sweep
from .simulate import _check_run_args, run_many
from .synthetic import SyntheticSpec, generate_chunks

REQUIRED = object()  # the default of a parameter that has none

# one row per parameter: (config key, type, default or REQUIRED, help)
PROFILE = (
    ("type", str, REQUIRED, "MEV type label (sandwich, naked_arb, liquidation, backrun)"),
    ("n", int, REQUIRED, "number of entrants"),
    ("rho", float, REQUIRED, "signal affiliation in [0, 1)"),
    ("gamma", float, REQUIRED, "replicable share in [0, 1]"),
    ("mu", float, REQUIRED, "log-scale location"),
    ("sigma", float, REQUIRED, "log-scale dispersion"),
)
# a profile and its defection rate: also the keys of [generate.type.<label>]
SPEC = PROFILE + (("epsilon", float, REQUIRED, "builder defection rate"),)
RUN = (("blocks", int, REQUIRED, "blocks to play"), ("seed", int, REQUIRED, "random seed"))
INPUT = ("input", str, REQUIRED, "bundle CSV")
PARAMS = {
    "solve": SPEC + (("v_min", float, None, "grid lower bound (default from the profile)"),
                     ("v_max", float, None, "grid upper bound (default from the profile)"),
                     ("nodes", int, DEFAULT_NODES, "RK4 nodes before stability refinement")),
    "sweep": PROFILE + (
        ("epsilons", str, None, "comma-separated grid (default 0,0.05,...,0.99)"),),
    "simulate": SPEC + RUN + (("threads", int, 1, "worker threads"),
                              ("antithetic", bool, False, "antithetic signal pairs"),
                              ("trace", bool, False, "write a capped per-block trace"),
                              ("trace_cap", int, 10_000, "most blocks in the trace")),
    "generate": SPEC + RUN + (
        ("opportunities_per_block", int, 1, "auctions per block and type"),),
    "estimate": (INPUT,),
    "report": (INPUT, ("bergemann_rule", str, DEFAULT_BERGEMANN_RULE, "named disclosure rule"),
               ("window", int, 50, "bidder-count proxy window (blocks)")),
}


def _flag(key: str) -> str:
    return "--opportunities" if key == "opportunities_per_block" else "--" + key.replace("_", "-")


def _lookup(rows, flags, section, parser, name):
    """(values, written) of ``rows``, from ``flags`` (empty for a type
    section) and the config ``section`` called ``name``; config values are
    written as they stand in the file, booleans as parsed."""
    values, written = {}, {}
    for key, kind, default, _ in rows:
        text = section.get(key)
        if flags.get(key) is not None:
            values[key] = written[key] = flags[key]
        elif text is not None:
            try:
                values[key] = (configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
                               if kind is bool else kind(text))
            except (KeyError, ValueError):
                parser.error(f"config value {key} = {text!r} in [{name}] "
                             f"is not {kind.__name__}")
            written[key] = values[key] if kind is bool else text
        elif default is not REQUIRED:
            values[key] = written[key] = default
        elif flags:
            parser.error(f"missing required parameter {_flag(key)}")
        else:
            parser.error(f"config section [{name}] misses key {key}")
    return values, written


def _params(args, parser):
    """Every parameter of ``args.command``, typed (``values``) and as given
    (``written``, for the manifest).  generate's type sections, when there
    are any, replace its profile flags and keys: ``values["types"]`` then
    holds one typed SPEC per section."""
    config = configparser.ConfigParser()
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                config.read_file(fh)
            except configparser.Error as exc:
                parser.error(f"config file {args.config}: {exc}")
    declared = {args.command: PARAMS[args.command]}
    if args.command == "generate":
        declared.update((name, SPEC) for name in config.sections()
                        if name.startswith("generate.type."))
    sections = {name: dict(config[name]) if config.has_section(name) else {}
                for name in declared}
    for name, body in sections.items():
        unknown = sorted(set(body) - {key for key, *_ in declared[name]})
        if unknown:
            parser.error(f"config section [{name}] has unknown keys: {', '.join(unknown)}")
    section = sections.pop(args.command)
    rows = [row for row in PARAMS[args.command] if not sections or row not in SPEC]
    values, written = _lookup(rows, vars(args), section, parser, args.command)
    if sections:
        values["types"] = [
            _lookup(SPEC, {}, {"type": name.split(".", 2)[2], **body}, parser, name)[0]
            for name, body in sections.items()]
    return values, written


def _profile_from(values) -> TypeProfile:
    return TypeProfile(MevType.parse(values["type"]),
                       **{key: values[key] for key, *_ in PROFILE[1:]})


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
    p, written = _params(args, parser)
    profile = _profile_from(p)
    out = _out_dir(args)

    grid = replace(default_grid(profile, nodes=p["nodes"]),
                   **{k: p[k] for k in ("v_min", "v_max") if p[k] is not None})
    curve = solve_bid_ode(profile, grid)
    strategy = solve_strategy(profile, p["epsilon"], curve=curve)
    _write(out / "curve.csv", curve.to_csv())
    _write(out / "strategy.json", strategy.to_json())
    _manifest(out, "solve", {**written, "nodes": grid.nodes,
                             "v_min": grid.v_min, "v_max": grid.v_max}, started)
    cutoff = "inf" if math.isinf(strategy.cutoff) else f"{strategy.cutoff:.6g}"
    print(f"solved curve ({curve.grid.size} nodes), cutoff = {cutoff}")
    return 0


def cmd_sweep(args, parser):
    started = time.time()
    p, written = _params(args, parser)
    profile = _profile_from(p)
    eps_text = p["epsilons"]
    if eps_text is not None:
        # explicit grids of any size are honored; argmax is over that grid
        try:
            grid = [float(x) for x in eps_text.split(",")]
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
    _manifest(out, "sweep", {**written, "epsilons": eps_text or "default"}, started)
    print(f"regime = {regime}, epsilon_star = {star}")
    return 0


def cmd_simulate(args, parser):
    started = time.time()
    p, written = _params(args, parser)
    profile = _profile_from(p)
    _check_run_args(p["blocks"], p["threads"], p["antithetic"], p["trace_cap"])
    out = _out_dir(args)
    strategy = solve_strategy(profile, p["epsilon"])
    report = run_many(strategy, profile, p["blocks"], p["seed"],
                      workers=p["threads"], antithetic=p["antithetic"],
                      trace_path=out / "trace.csv" if p["trace"] else None,
                      trace_cap=p["trace_cap"])
    _write(out / "sim_report.json", report.to_json())
    # the report is the same for every thread count, and the trace has its own file
    _manifest(out, "simulate", {k: v for k, v in written.items()
                                if k not in ("threads", "trace", "trace_cap")}, started)
    print(f"blocks={report.blocks} revenue={report.mean_builder_revenue:.6g}"
          f" +-{report.stderr_builder_revenue:.2g}")
    return 0


def cmd_generate(args, parser):
    started = time.time()
    p, _ = _params(args, parser)
    specs = [SyntheticSpec(profile=_profile_from(t), epsilon=t["epsilon"])
             for t in p.get("types", [p])]
    chunks = generate_chunks(specs, p["blocks"], p["seed"],
                             opportunities_per_block=p["opportunities_per_block"])
    out = _out_dir(args)
    count = write_bundles(out / "bundles.csv", chunks)
    _manifest(out, "generate", {
        "blocks": p["blocks"], "seed": p["seed"],
        "opportunities_per_block": p["opportunities_per_block"],
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
    p, _ = _params(args, parser)
    out = _out_dir(args)
    estimates = _write_estimates(BundleTable.read(p["input"]), out)
    _write(out / "gamma_estimates.json", json.dumps(
        {t.value: e.to_dict() for t, e in estimates.items()}, indent=1, sort_keys=True))
    _manifest(out, "estimate", p, started)
    print(f"estimated gamma for {len(estimates)} types")
    return 0


def cmd_report(args, parser):
    started = time.time()
    params, _ = _params(args, parser)
    rule, window = params["bergemann_rule"], params["window"]
    out = _out_dir(args)
    ingest_report = IngestReport()
    table = BundleTable.read(params["input"], ingest_report)
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
    _manifest(out, "report", params, started)
    print(f"report written to {out} ({ingest_report.records} records)")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="mevauction",
        description="MEV auctions under imperfect builder commitment",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, func, about in (
            ("solve", cmd_solve, "solve the bid curve and cutoff"),
            ("sweep", cmd_sweep, "revenue profile over defection rates"),
            ("simulate", cmd_simulate, "Monte Carlo the full game"),
            ("generate", cmd_generate, "synthetic bundle records"),
            ("estimate", cmd_estimate, "bribe schedules and gamma estimates"),
            ("report", cmd_report, "full estimation pipeline and figure data")):
        p = sub.add_parser(command, help=about)
        p.add_argument("--config", help="INI config file")
        p.add_argument("--out-dir", help="output directory (or MEVAUCTION_OUT)")
        for key, kind, _, text in PARAMS[command]:
            # None when not given, so that a given flag wins even at zero
            how = dict(action="store_true", default=None) if kind is bool else dict(type=kind)
            p.add_argument(_flag(key), dest=key, help=text, **how)
        p.set_defaults(func=func)
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
