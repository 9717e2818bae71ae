#!/usr/bin/env python3
"""Compare the output files of two trees, byte for byte.

    python3 scripts/compare_outputs.py <base-rev> [<tree>]

Checks out ``<base-rev>`` with ``git worktree add`` in a temp dir and runs
one fixed list of CLI commands there and then in ``<tree>`` (default: this
working tree), each with that tree's ``src/`` on PYTHONPATH.  Both trees
write to the same absolute paths, one tree at a time, with the first results
moved aside, so ``manifest.json`` is compared too.  Prints every file whose
sha256 differs and every file that only one tree wrote (``timing.json``
aside).  Exit 0 when nothing differs, 1 on a difference, 2 when a command
fails.  Floating-point output depends on the numpy and scipy build, so no
digests are stored: the two trees are always run on one machine.

The command list: the benchmark's three workloads at seed 1; acceptance
criteria 8 and 9; ``simulate --trace`` with ``--threads 2``, with
``--antithetic`` and with the default threads tracing every block;
``generate --opportunities 3``, and ``generate --opportunities 300`` on 40
blocks, whose auction indices from 256 on are too wide for the tx hash's two
digits, each followed by estimate and report on its bundles; README's
``ini`` example and its generate, estimate and report sequence, each in its
own out dir; estimate and report on a copy of README's bundles with LF line
endings, malformed rows at data rows 511-513 and 1023-1025 (the ends of the
reader's 512-row blocks), a quoted line break in a searcher label and a
blank line; estimate and report
on a copy of README's bundles in which only three rows in the middle hold a
quoted field (a comma; a line break on the last line of the reader's second
512-line block, which runs into the third; a comma and a quote), with CRLF
and LF line endings in turn, so quote-free blocks go to ``np.loadtxt`` beside
the blocks ``csv.reader`` reads; estimate and report on a copy of README's
bundles with six rows, each in its own 512-row block, spelled at the edge of
``np.loadtxt``: a tip with digit groups and a block number in full-width
digits (valid rows that it rejects), a tip padded with ``\\x1c`` (malformed,
though it would parse it), a blank line, a profit of ``1e400`` and a tip of
``-0``; estimate and report on a builder label holding a comma and a quote,
and a config-driven report;
solve (eps 0.2 and 0), sweep, ``sweep --epsilons 0,0.2,0.5`` and
``sweep --epsilons 0,0.2,0.5,0.97`` on six profiles: the four theory
profiles, rho = 0, and gamma = 0.32, where gamma*v crosses the bid in the
bulk of the grid; and ``sweep --epsilons`` with the default grid's 21 rates
spelled out on a near-flat profile (gamma = 0.05, sigma = 0.5), whose
revenues vary by less than 1e-6 relative; and ``solve --nodes 257`` on the
flagship profile, whose 513 hazard points end in a one-row block.
"""

from __future__ import annotations

import csv
import hashlib
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  the benchmark's workload definitions

SEED = 1
CRITERION_FLAGS = ["--type", "naked_arb", "--n", "4", "--rho", "0.2", "--gamma", "0.74",
                   "--mu", "1.102", "--sigma", "1.5"]
PROFILES = {label: profile for label, (profile, _) in workloads.THEORY_PROFILES.items()}
PROFILES.update(rho0=dict(workloads.FLAGSHIP, rho=0.0),
                gamma032=dict(workloads.FLAGSHIP, gamma=0.32))
# revenues within 1e-6 relative whose raw argmax is the last rate
NEAR_FLAT = dict(workloads.FLAGSHIP, gamma=0.05, sigma=0.5)
DEFAULT_RATES = ",".join(f"{0.05 * k:.2f}" for k in range(20)) + ",0.99"
COMMA_LABEL = 'Titan, "the" builder'
BREAK_LABEL = "searcher\nwith a line break"
# data rows (1-based) at the ends of the reader's 512-row blocks, each made
# malformed in its own way
EDGE_ROWS = {511: "short", 512: "tip", 513: "type", 1023: "block", 1024: "profit",
             1025: "long"}
# the only data rows (1-based) given a quoted field: row 1024 starts on file
# line 1025, the last of the reader's second 512-line block
QUOTED_ROWS = {600: ("searcher", "searcher, with a comma"), 1024: ("searcher", BREAK_LABEL),
               1500: ("builder", COMMA_LABEL)}
# data rows (1-based), each in its own 512-row block, respelled at the edge
# of np.loadtxt; the blank line goes before its row
SPELLINGS = {300: "tip_groups", 900: "block_full_width", 1500: "tip_padded",
             2100: "blank", 2700: "profit_1e400", 3300: "tip_minus_zero"}


def _flags(profile: dict) -> list:
    return [item for key, value in profile.items() for item in (f"--{key}", str(value))]


def _write_ini(path: Path, sections: dict):
    path.write_text(workloads._ini(sections), encoding="utf-8")


def _relabel_builder(src: Path, dst: Path):
    """Copy a bundle CSV with the first row's builder renamed to COMMA_LABEL."""
    with open(src, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    col = header.index("builder")
    old = rows[0][col]
    for row in rows:
        if row[col] == old:
            row[col] = COMMA_LABEL
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])


def _block_edge_copy(src: Path, dst: Path):
    """Copy a bundle CSV with LF line endings, the rows of EDGE_ROWS made
    malformed, the first row's searcher renamed to BREAK_LABEL and a blank
    line after data row 1500."""
    with open(src, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    col = header.index("searcher")
    old = rows[0][col]
    for row in rows:
        if row[col] == old:
            row[col] = BREAK_LABEL
    for number, kind in EDGE_ROWS.items():
        row = rows[number - 1]
        if kind == "short":
            row.pop()
        elif kind == "long":
            row.append("extra")
        else:
            column, text = {"tip": ("tip_usdc", "abc"), "type": ("mev_type", "flashloan"),
                            "block": ("block_number", str(1 << 63)),
                            "profit": ("profit_usdc", "inf")}[kind]
            row[header.index(column)] = text
    rows.insert(1500, [])
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def _quoted_middle_copy(src: Path, dst: Path):
    """Copy a bundle CSV with the fields of QUOTED_ROWS relabelled, so that
    only those rows are quoted, and line endings CRLF and LF in turn."""
    with open(src, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    for number, (column, label) in QUOTED_ROWS.items():
        rows[number - 1][header.index(column)] = label
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        writers = [csv.writer(fh, lineterminator=end) for end in ("\r\n", "\n")]
        for i, row in enumerate([header, *rows]):
            writers[i % 2].writerow(row)


def _digit_groups(number: str) -> str:
    """``number``, a %.12g float, with ``_`` between its first two fraction
    digits (a zero added where it has fewer): the same float to ``float()``."""
    mantissa, e, exponent = number.partition("e")
    whole, _, fraction = mantissa.partition(".")
    fraction = fraction.ljust(2, "0")
    return f"{whole}.{fraction[0]}_{fraction[1:]}{e}{exponent}"


def _loadtxt_spellings_copy(src: Path, dst: Path):
    """Copy a bundle CSV with the rows of SPELLINGS respelled: a tip with
    digit groups and a block number in full-width digits (valid), a tip
    padded with \\x1c and a profit of 1e400 (malformed), a tip of -0 (valid)
    and a blank line."""
    with open(src, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    tip, profit, block = (header.index(c) for c in ("tip_usdc", "profit_usdc", "block_number"))
    for number, kind in sorted(SPELLINGS.items(), reverse=True):
        row = rows[number - 1]
        if kind == "tip_groups":
            row[tip] = _digit_groups(row[tip])
        elif kind == "block_full_width":
            row[block] = "".join(chr(ord(d) + 0xFEE0) for d in row[block])
        elif kind == "tip_padded":
            row[tip] += "\x1c"
        elif kind == "blank":
            rows.insert(number - 1, [])
        else:
            column, text = {"profit_1e400": (profit, "1e400"), "tip_minus_zero": (tip, "-0")}[kind]
            row[column] = text
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])


def steps(run: Path) -> list:
    """The fixed command list, writing under ``run``: each step is a CLI
    argv or a callable that prepares an input from earlier outputs."""
    out = []
    for name, workload in (("theory", workloads.Theory(SEED)),
                           ("pipeline", workloads.Pipeline(SEED))):
        (run / name).mkdir(parents=True)
        for command in workload.prepare(run / name):
            out.append(command.argv)
            if command.after is not None:
                out.append(command.after)
    mc = run / "montecarlo"
    mc.mkdir()
    for label, blocks in workloads.MONTECARLO_BLOCKS.items():
        profile = workloads.N50 if label == "n50" else workloads.FLAGSHIP
        _write_ini(mc / f"{label}.ini", {"simulate": dict(
            profile, epsilon=workloads.MONTECARLO_EPSILON, blocks=blocks, seed=SEED)})
        out.append(["simulate", "--config", str(mc / f"{label}.ini"),
                    "--out-dir", str(mc / label)])

    # acceptance criteria 8 and 9
    bundles = run / "criterion8" / "gen" / "bundles.csv"
    out += [["generate", *CRITERION_FLAGS, "--epsilon", "0.3", "--blocks", "3000", "--seed", "99",
             "--out-dir", str(bundles.parent)],
            ["report", "--input", str(bundles), "--out-dir", str(run / "criterion8" / "report")]]
    crit9 = [*CRITERION_FLAGS, "--epsilon", "0.25"]
    out += [["solve", *crit9, "--out-dir", str(run / "criterion9" / "solve")],
            ["simulate", *crit9, "--blocks", "20000", "--seed", "5",
             "--out-dir", str(run / "criterion9" / "simulate")],
            ["generate", *crit9, "--blocks", "2000", "--seed", "5",
             "--out-dir", str(run / "criterion9" / "generate")]]

    # the engine's trace, across threads and with antithetic pairs
    for label in ("flagship", "n50"):
        flags = [*_flags(PROFILES[label]), "--epsilon", "0.2", "--blocks", "300000",
                 "--seed", str(SEED), "--trace"]
        out += [["simulate", *flags, "--threads", "2",
                 "--out-dir", str(run / "trace" / label / "threads2")],
                ["simulate", *flags, "--antithetic",
                 "--out-dir", str(run / "trace" / label / "antithetic")],
                ["simulate", *flags, "--trace-cap", "300000",
                 "--out-dir", str(run / "trace" / label / "default_threads")]]

    # several auctions per block, then estimate and report on them
    opp = run / "opportunities3"
    out += [["generate", *CRITERION_FLAGS, "--epsilon", "0.3", "--blocks", "100000",
             "--seed", str(SEED), "--opportunities", "3", "--out-dir", str(opp / "gen")]]
    out += [[cmd, "--input", str(opp / "gen" / "bundles.csv"), "--out-dir", str(opp / cmd)]
            for cmd in ("estimate", "report")]
    # auction indices 256-299 overflow the tx hash's two digits
    wide = run / "opportunities300"
    out += [["generate", *CRITERION_FLAGS, "--epsilon", "0.3", "--blocks", "40",
             "--seed", str(SEED), "--opportunities", "300", "--out-dir", str(wide / "gen")]]
    out += [[cmd, "--input", str(wide / "gen" / "bundles.csv"), "--out-dir", str(wide / cmd)]
            for cmd in ("estimate", "report")]

    # README's config example and its command sequence, each command in its
    # own out dir as README runs them, so every manifest is compared
    readme = run / "readme"
    readme.mkdir()
    ini = re.search(r"^```ini\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"),
                    re.S | re.M).group(1)
    (readme / "run.ini").write_text(ini, encoding="utf-8")
    out += [["generate", "--config", str(readme / "run.ini"), "--blocks", "20000",
             "--out-dir", str(readme / "generate")]]
    out += [[cmd, "--input", str(readme / "generate" / "bundles.csv"),
             "--out-dir", str(readme / cmd)]
            for cmd in ("estimate", "report")]

    # the reader's block edges: README's bundles with malformed rows at the
    # ends of the 512-row blocks, a line break in a searcher label, a blank
    # line and LF line endings
    edges = run / "block_edges"
    out.append(lambda: (edges.mkdir(), _block_edge_copy(readme / "generate" / "bundles.csv",
                                                        edges / "bundles.csv")))
    out += [[cmd, "--input", str(edges / "bundles.csv"), "--out-dir", str(edges / cmd)]
            for cmd in ("estimate", "report")]

    # both of the reader's tokenizers in one file: blocks for np.loadtxt
    # beside the blocks that hold README's three quoted rows
    quoted = run / "quoted_middle"
    out.append(lambda: (quoted.mkdir(), _quoted_middle_copy(readme / "generate" / "bundles.csv",
                                                            quoted / "bundles.csv")))
    out += [[cmd, "--input", str(quoted / "bundles.csv"), "--out-dir", str(quoted / cmd)]
            for cmd in ("estimate", "report")]

    # rows at the edge of np.loadtxt, each in its own block: valid spellings
    # it rejects, a padding it accepts and float() does not, a blank line,
    # an overflowing profit and a negative zero
    spellings = run / "loadtxt_spellings"
    out.append(lambda: (spellings.mkdir(), _loadtxt_spellings_copy(
        readme / "generate" / "bundles.csv", spellings / "bundles.csv")))
    out += [[cmd, "--input", str(spellings / "bundles.csv"), "--out-dir", str(spellings / cmd)]
            for cmd in ("estimate", "report")]

    # a builder label holding a comma and a quote; a config-driven report
    labelled = run / "comma_label"
    out.append(lambda: (labelled.mkdir(), _relabel_builder(bundles, labelled / "bundles.csv")))
    out += [[cmd, "--input", str(labelled / "bundles.csv"), "--out-dir", str(labelled / cmd)]
            for cmd in ("estimate", "report")]
    config = run / "config_report"
    config.mkdir()
    _write_ini(config / "report.ini", {"report": {"input": bundles, "window": 3}})
    out.append(["report", "--config", str(config / "report.ini"),
                "--out-dir", str(config / "out")])

    # the threat's cases: solve, the default sweep and a short grid on six profiles
    for label, profile in PROFILES.items():
        base, flags = run / "profiles" / label, _flags(profile)
        out += [["solve", *flags, "--epsilon", "0.2", "--out-dir", str(base / "solve")],
                ["solve", *flags, "--epsilon", "0", "--out-dir", str(base / "solve_eps0")],
                ["sweep", *flags, "--out-dir", str(base / "sweep")]]
        out += [["sweep", *flags, "--epsilons", grid, "--out-dir", str(base / name)]
                for name, grid in (("sweep_eps3", "0,0.2,0.5"), ("sweep_eps4", "0,0.2,0.5,0.97"))]
    out.append(["sweep", *_flags(NEAR_FLAT), "--epsilons", DEFAULT_RATES,
                "--out-dir", str(run / "near_flat" / "sweep_spelled")])
    # 257 nodes and 256 midpoints: hazard blocks of 256, 256 and 1 rows
    out.append(["solve", *_flags(PROFILES["flagship"]), "--epsilon", "0.2", "--nodes", "257",
                "--out-dir", str(run / "nodes257" / "solve")])
    return out


def run_tree(tree: Path, run: Path) -> bool:
    """Run every step with ``tree``'s src/ on PYTHONPATH; False on a failure."""
    env = {k: v for k, v in os.environ.items() if k != "MEVAUCTION_OUT"}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    run.mkdir()
    for step in steps(run):
        if callable(step):
            step()
            continue
        done = subprocess.run([sys.executable, "-m", "mevauction", *step], env=env,
                              capture_output=True, text=True)
        if done.returncode != 0:
            print(f"command failed in {tree} (exit {done.returncode}): mevauction "
                  + " ".join(step), file=sys.stderr)
            print(done.stderr.strip()[-2000:], file=sys.stderr)
            return False
    return True


def digests(results: Path) -> dict:
    return {str(path.relative_to(results)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(results.rglob("*"))
            if path.is_file() and path.name != "timing.json"}


def main(argv: list) -> int:
    if len(argv) not in (1, 2):
        print("usage: python3 scripts/compare_outputs.py <base-rev> [<tree>]", file=sys.stderr)
        return 2
    rev, tree = argv[0], Path(argv[1] if len(argv) == 2 else ROOT).resolve()
    tmp = Path(tempfile.mkdtemp(prefix="compare_outputs_"))
    checkout, run = tmp / "checkout", tmp / "run"
    try:
        added = subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach",
                                "--quiet", str(checkout), rev])
        if added.returncode != 0:
            return 2
        results = {}
        for name, source in (("base", checkout), ("tree", tree)):
            if not run_tree(source, run):
                return 2
            results[name] = digests(run.rename(tmp / name))
    finally:
        if checkout.exists():
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(checkout)])
        shutil.rmtree(tmp, ignore_errors=True)

    base, new = results["base"], results["tree"]
    differs = sorted(p for p in base.keys() & new.keys() if base[p] != new[p])
    for path in differs:
        print(f"differs    {path}")
    for path in sorted(base.keys() - new.keys()):
        print(f"only base  {path}")
    for path in sorted(new.keys() - base.keys()):
        print(f"only tree  {path}")
    changed = len(differs) + len(base.keys() ^ new.keys())
    print(f"{len(base.keys() | new.keys())} files compared: {changed} differ")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
