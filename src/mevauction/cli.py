"""Command-line surface.

Commands: solve, sweep, simulate, generate, estimate, report.  ``main``
runs every command's lifecycle: it starts the clock, resolves the parameters
from an optional INI config file plus flags (flags win), picks the out dir
(``--out-dir``, else MEVAUCTION_OUT, else ``.``) and calls the command, which
only computes and writes its files and returns its manifest config and a
message.  ``main`` then writes a deterministic ``manifest.json`` capturing
the resolved configuration, seed, and package version, and a separate
``timing.json`` with the wall clock so the data files stay byte-identical
across reruns, and prints the message.  Exit codes: 0 success, 1 domain
error (JSON on stderr), 2 usage error.

The out dir is made when the first file is written into it, and every
command checks its inputs and computes before it writes.  So a run that
fails a check writes nothing, not even its out dir.

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
parameter or a file that is not UTF-8 INI is a usage error::

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
``[generate]``, and giving any of those beside them is a usage error.
``generate``'s manifest records the profile and rate of each type as
written.  The only environment variable honored is MEVAUCTION_OUT (default
output directory).

This module alone formats output files, from result objects that hold
numbers: tables through ``_write_csv`` (rows) or ``_write_columns``
(columns, as the affiliation pairs are held), documents (strict JSON)
through ``_write_json``, each making its parent dir.  Only the bundle CSV
(``write_bundles``) and the simulation trace (``run_many``) are written
elsewhere, as they stream, so ``generate`` and ``simulate --trace`` make the
out dir themselves, after every check and the strategy solve.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import time
from dataclasses import asdict, astuple, replace
from pathlib import Path

import numpy as np

from . import __version__
from .empirics import (
    MEV_TYPES,
    BundleTable,
    IngestReport,
    _csv_field,
    _types_present,
    bergemann_threshold,
    bribe_schedule,
    decompose,
    estimate_gamma,
    iter_bundles,  # noqa: F401  perfbench's tracer test reads cli.iter_bundles
    write_bundles,
)
from .diagnostics import (
    DEFAULT_PROXY_WINDOW,
    affiliation_diagnostic,
    affiliation_pairs,
    board_diagnostic,
    builder_table,
    concentration,
    effective_bidder_counts,
)
from .equilibrium import DEFAULT_NODES, default_grid, solve_bid_ode, solve_strategy
from .errors import MevAuctionError, ParameterError, ThinSampleError
from .profiles import MevType, TypeProfile
from .revenue import DEFAULT_EPSILON_GRID, revenue_sweep
from .simulate import DEFAULT_TRACE_CAP, _check_run_args, run_many
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
    "simulate": SPEC + RUN + (("threads", int, None,
                               "worker threads (default: the usable CPUs); each chunk is "
                               "reduced in its worker, drawing only each auction's top "
                               "signal, so memory is O(threads x chunk)"),
                              ("antithetic", bool, False, "antithetic signal pairs; standard "
                               "errors are those of the pair means"),
                              ("trace", bool, False, "write a capped per-block trace"),
                              ("trace_cap", int, DEFAULT_TRACE_CAP, "most blocks in the trace")),
    "generate": SPEC + RUN + (
        ("opportunities_per_block", int, 1, "auctions per block and type"),),
    "estimate": (INPUT,),
    "report": (INPUT, ("window", int, DEFAULT_PROXY_WINDOW, "bidder-count proxy window (blocks)")),
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
    are any, replace its profile flags and keys, which must then not be
    given: ``values["types"]`` holds one typed SPEC per section."""
    config = configparser.ConfigParser()
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                config.read_file(fh)
            except (configparser.Error, UnicodeDecodeError) as exc:
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
    given = [key for key, *_ in SPEC if key in section or vars(args).get(key) is not None]
    if sections and given:
        parser.error(f"[generate.type.*] sections replace the profile parameters; "
                     f"drop {', '.join(given)} from the flags and from [generate]")
    rows = [row for row in PARAMS[args.command] if not sections or row not in SPEC]
    values, written = _lookup(rows, vars(args), section, parser, args.command)
    if sections:
        values["types"], written["types"] = zip(*(
            _lookup(SPEC, {}, {"type": name.split(".", 2)[2], **body}, parser, name)
            for name, body in sections.items()))
    return values, written


def _profile_from(values) -> TypeProfile:
    return TypeProfile(MevType.parse(values["type"]),
                       **{key: values[key] for key, *_ in PROFILE[1:]})


def _write_csv(path: Path, header, rows):
    """Write ``rows`` under the header line ``header`` (see ``_write_columns``)."""
    _write_columns(path, header, list(zip(*rows)))


def _write_columns(path: Path, header, columns):
    """Write the rows of ``columns``, equal-length sequences, under the header
    line ``header``: floats to 12 significant digits (inf and nan spelled out),
    integers in full, MEV types by label and text quoted as ``csv.writer``
    quotes it.  The first cell of each column fixes its kind, and every row is
    formatted by one ``%``-format."""
    lines = [header + "\n"]
    if columns and len(columns[0]):
        kinds = [type(column[0]) for column in columns]
        line = ",".join("%s" if issubclass(kind, str) else "%.12g" if issubclass(kind, float)
                        else "%d" for kind in kinds) + "\n"
        # each distinct text cell is labelled and quoted once
        columns = [map({cell: _csv_field(getattr(cell, "value", cell))
                        for cell in set(column)}.__getitem__, column)
                   if issubclass(kind, str) else column
                   for kind, column in zip(kinds, columns)]
        lines += map(line.__mod__, zip(*columns))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(lines), encoding="utf-8")


def _write_json(path: Path, doc, sort_keys=False):
    """Write ``doc`` as strict JSON (a bare inf or NaN is an error)."""
    text = json.dumps(doc, indent=1, sort_keys=sort_keys, allow_nan=False)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _finite_or_none(x):
    """JSON has no inf or NaN: a ratio over a zero total is written as null
    (as is a statistic already None, such as the correlation of a constant
    series)."""
    return x if x is not None and math.isfinite(x) else None


def _manifest(out: Path, command: str, resolved: dict, started: float):
    clean = {k: (v if not isinstance(v, float) or math.isfinite(v) else str(v))
             for k, v in resolved.items()}
    _write_json(out / "manifest.json", {"command": command, "config": clean, "package":
                                        "mevauction", "version": __version__}, sort_keys=True)
    _write_json(out / "timing.json",
                {"started_unix": started, "wall_seconds": time.time() - started})


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_solve(p, written, out):
    profile = _profile_from(p)
    grid = replace(default_grid(profile, nodes=p["nodes"]),
                   **{k: p[k] for k in ("v_min", "v_max") if p[k] is not None})
    curve = solve_bid_ode(profile, grid)
    strategy = solve_strategy(profile, p["epsilon"], curve=curve)
    _write_csv(out / "curve.csv", "v,beta", zip(curve.grid.tolist(), curve.bids.tolist()))
    # the curve and the cutoff as text of 12 significant digits
    _write_json(out / "strategy.json", {
        "gamma": strategy.gamma, "epsilon": strategy.epsilon,
        "cutoff": "%.12g" % strategy.cutoff,
        "curve": {"v_min": "%.12g" % curve.v_min, "v_max": "%.12g" % curve.v_max,
                  "nodes": curve.grid.size, "interpolation": "pchip",
                  "grid": ["%.12g" % v for v in curve.grid.tolist()],
                  "bids": ["%.12g" % b for b in curve.bids.tolist()]}})
    return ({**written, "nodes": grid.nodes, "v_min": grid.v_min, "v_max": grid.v_max},
            f"solved curve ({curve.grid.size} nodes), cutoff = {strategy.cutoff:.6g}")


def cmd_sweep(p, written, out):
    profile = _profile_from(p)
    eps_text = p["epsilons"]
    grid = DEFAULT_EPSILON_GRID
    if eps_text is not None:  # explicit grids of any size are honored
        try:
            grid = [float(x) for x in eps_text.split(",")]
        except ValueError:
            raise ParameterError(
                f"epsilons must be comma-separated numbers, got {eps_text!r}") from None
    rp = revenue_sweep(profile, grid)
    star = rp.epsilon_star
    eps, rev, der, cut = (a.tolist() for a in (rp.epsilons, rp.revenues, rp.derivatives,
                                               rp.cutoffs))
    _write_csv(out / "revenue_profile.csv", "epsilon,revenue,derivative,cutoff",
               zip(eps, rev, der, cut))
    _write_json(out / "revenue_profile.json", {
        "epsilon_star": star, "regime": rp.regime,
        "profile": {"regime": rp.regime, "epsilons": eps, "revenues": rev, "derivatives": der,
                    "cutoffs": ["inf" if math.isinf(c) else c for c in cut]}})
    return ({**written, "epsilons": eps_text or "default"},
            f"regime = {rp.regime}, epsilon_star = {star}")


def cmd_simulate(p, written, out):
    profile = _profile_from(p)
    _check_run_args(p["blocks"], p["seed"], p["threads"], p["antithetic"], p["trace_cap"])
    strategy = solve_strategy(profile, p["epsilon"])
    if p["trace"]:  # the trace streams into the out dir
        out.mkdir(parents=True, exist_ok=True)
    report = run_many(strategy, profile, p["blocks"], p["seed"],
                      workers=p["threads"], antithetic=p["antithetic"],
                      trace_path=out / "trace.csv" if p["trace"] else None,
                      trace_cap=p["trace_cap"])
    _write_json(out / "sim_report.json", asdict(report))
    # the report is the same for every thread count, and the trace has its own file
    return ({k: v for k, v in written.items() if k not in ("threads", "trace", "trace_cap")},
            f"blocks={report.blocks} revenue={report.mean_builder_revenue:.6g}"
            f" +-{report.stderr_builder_revenue:.2g}")


def cmd_generate(p, written, out):
    specs = [SyntheticSpec(profile=_profile_from(t), epsilon=t["epsilon"])
             for t in p.get("types", [p])]
    # checks the arguments and solves every strategy before the first draw
    chunks = generate_chunks(specs, p["blocks"], p["seed"],
                             opportunities_per_block=p["opportunities_per_block"])
    out.mkdir(parents=True, exist_ok=True)  # the bundles stream into the out dir
    count = write_bundles(out / "bundles.csv", chunks)
    return written, f"wrote {count} records to {out / 'bundles.csv'}"


def _write_estimates(table, out):
    """Write the bribe schedule of every type with enough positive-value
    records; return their gamma estimates."""
    estimates = {}
    for c in _types_present(table.mev_type):
        try:
            schedule = bribe_schedule(table, MEV_TYPES[c])
        except ThinSampleError:
            continue
        _write_csv(out / f"fig2_{MEV_TYPES[c].value}.csv",
                   "bin,value_lo,value_hi,mean_bribe_share,std_bribe_share,count",
                   ((i, *astuple(b)) for i, b in enumerate(schedule.bins)))
        estimates[MEV_TYPES[c]] = estimate_gamma(schedule)
    return estimates


def _estimates_doc(estimates):
    return {t.value: {"mev_type": t.value, "gamma_hat": e.gamma_hat,
                      "plateau_bin_count": len(e.plateau_bins),
                      "dispersion": e.dispersion, "flagged": e.flagged}
            for t, e in estimates.items()}


def cmd_estimate(p, written, out):
    # no estimate output reads a free-text column
    table = BundleTable.read(p["input"], text_columns=())
    estimates = _write_estimates(table, out)
    _write_json(out / "gamma_estimates.json", _estimates_doc(estimates), sort_keys=True)
    return written, f"estimated gamma for {len(estimates)} types"


def cmd_report(params, written, out):
    # the input and the window are checked before the first write
    ingest_report = IngestReport()
    # the diagnostics read the builders and searchers; no output reads a tx hash
    table = BundleTable.read(params["input"], ingest_report,
                             text_columns=("builder", "searcher"))
    counted = effective_bidder_counts(table, window=params["window"])

    # summary statistics and data quality
    positive = ~(table.value <= 0)
    nonpositive = len(table) - int(np.count_nonzero(positive))
    codes = table.mev_type[positive]
    values = table.value[positive]
    type_tips = np.bincount(codes, weights=table.tip[positive], minlength=len(MEV_TYPES))
    summarized = _types_present(codes)
    summary = [(MEV_TYPES[c], values[codes == c], type_tips[c]) for c in summarized]
    if summary:
        summary.append(("all", np.concatenate([v for _, v, _ in summary]),
                        sum(tips for *_, tips in summary)))
    _write_csv(out / "tab1_summary.csv",
               "mev_type,count,total_extracted,mean,median,std,mean_bribe_share",
               ((label, v.size, v.sum(), v.mean(), np.median(v), v.std(), tips / v.sum())
                for label, v, tips in summary))

    # schedules, estimates, decomposition
    estimates = _write_estimates(table, out)
    skipped_thin = sorted(MEV_TYPES[c].value for c in _types_present(table.mev_type)
                          if MEV_TYPES[c] not in estimates)
    decomposition = None
    if estimates:
        estimated = np.isin(table.mev_type, [MEV_TYPES.index(t) for t in estimates])
        # a type without an estimate is left out; when none is, no copy is made
        decomposition = decompose(table if estimated.all() else table.select(estimated),
                                  estimates)
        rows = [(t.mev_type, t.observed_tips, t.foregone_surplus, t.ratio, t.records)
                for t in decomposition.per_type]
        rows.append(("all", decomposition.total_tips, decomposition.total_foregone,
                     decomposition.total_ratio, sum(t.records for t in decomposition.per_type)))
        _write_csv(out / "fig3_decomposition.csv",
                   "mev_type,observed_tips,foregone_surplus,ratio,records", rows)

    # diagnostics
    pairs = affiliation_pairs(table)
    labels = [t.value for t in MEV_TYPES]
    _write_columns(out / "figA1_pairs.csv", "mev_type,log_value_top,log_value_second",
                   (list(map(labels.__getitem__, pairs.mev_type.tolist())),
                    pairs.log_top.tolist(), pairs.log_second.tolist()))
    affiliation = affiliation_diagnostic(pairs)
    conc = concentration(table)
    _write_csv(out / "figA2_lorenz.csv", "mev_type,population_share,value_share",
               ((t, p, v) for t, stat in sorted(conc.items(), key=lambda kv: kv[0].value)
                for p, v in zip(stat.lorenz_population.tolist(), stat.lorenz_value.tolist())))
    # one row per BuilderRow and per BoardBin, in field order
    _write_csv(out / "tabA1_builders.csv",
               "builder,count,total_extracted,mean_bribe_share,bribe_share_std,searchers",
               map(astuple, builder_table(table)))
    _write_csv(out / "figA3_board.csv",
               "mev_type,count_lo,count_hi,records,mean_revenue,mean_bribe_share",
               map(astuple, board_diagnostic(counted)))

    # disclosure benchmark per type from the median bidder-count proxy
    proxy_types = counted.table.mev_type[counted.order]
    berg = {}
    for c in _types_present(proxy_types):
        n_eff = max(2, int(round(float(np.median(counted.proxy[proxy_types == c])))))
        berg[MEV_TYPES[c].value] = {"n_effective": n_eff,
                                    "threshold": bergemann_threshold(n_eff)}
    _write_csv(out / "fig4_bergemann.csv", "mev_type,n_effective,threshold",
               ((t, b["n_effective"], b["threshold"]) for t, b in berg.items()))

    _write_json(out / "report.json", {
        "data_quality": {
            "rows_read": ingest_report.rows_read,
            "records": ingest_report.records,
            "malformed": ingest_report.malformed,
            "nonpositive_extracted_value": nonpositive,
            "types_too_thin_to_estimate": skipped_thin,
        },
        "gamma_estimates": _estimates_doc(estimates),
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
        "bergemann": {"rule": "one_minus_inverse_n", "proxy_window_blocks": params["window"],
                      "per_type": berg},
        "bin_weighting": "record-weighted within bins; bin-uniform dispersion "
                         "reported by estimate_gamma",
    }, sort_keys=True)
    return written, f"report written to {out} ({ingest_report.records} records)"


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
    started = time.time()
    out = Path(args.out_dir or os.environ.get("MEVAUCTION_OUT") or ".")
    try:
        params, written = _params(args, parser)
        config, message = args.func(params, written, out)
        _manifest(out, args.command, config, started)
    except (MevAuctionError, OSError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    print(message)
    return 0


if __name__ == "__main__":
    sys.exit(main())
