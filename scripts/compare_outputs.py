#!/usr/bin/env python3
"""Compare the output files of two trees, byte for byte.

    python3 scripts/compare_outputs.py <base-rev> [<tree>]

Checks out ``<base-rev>`` with ``git worktree add`` in a temp dir and runs
the command list of ``steps()`` there and then in ``<tree>`` (default: this
working tree), each with that tree's ``src/`` on PYTHONPATH.  Both trees
write to the same absolute paths, one tree at a time, with the first results
moved aside, so ``manifest.json`` is compared too.  Prints every file whose
sha256 differs and every file that only one tree wrote (``digests`` sets
``timing.json``, the wall clock, aside).  Exit 0 when nothing differs, 1 on
a difference, 2 when a command fails.  Floating-point output depends on the
numpy and scipy build, so no digests are stored: the two trees are always
run on one machine.

``check_invariance.py`` runs its variants of one tree with the same runner,
``run_steps``, and compares them with the same ``digests``.
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
from typing import NamedTuple

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
# 100 rates, 0 to 0.99: a sweep over many distinct cutoffs
DENSE_RATES = ",".join(f"{0.01 * k:.2f}" for k in range(100))
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
# data rows (1-based), each in its own 512-row block, given this many fields
FIELD_COUNTS = {300: 8, 900: 6}
# every line of the long-searcher copy is longer than this
LONG_LINE = 256


def _flags(profile: dict) -> list:
    return [item for key, value in profile.items() for item in (f"--{key}", str(value))]


def _write_ini(path: Path, sections: dict):
    path.write_text(workloads._ini(sections), encoding="utf-8")


def _rewrite(src: Path, dst: Path, edit=None, dialect=None):
    """Copy a bundle CSV, its rows after ``edit(header, rows)`` where given,
    each file line (from 1) written by a csv.writer in ``dialect(line)``."""
    with open(src, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    if edit is not None:
        edit(header, rows)
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        for line, row in enumerate([header, *rows], start=1):
            csv.writer(fh, **(dialect(line) if dialect else {})).writerow(row)


def _relabel(header: list, rows: list, column: str, label: str):
    """Rename the first row's label in ``column`` to ``label`` in every row."""
    col = header.index(column)
    old = rows[0][col]
    for row in rows:
        if row[col] == old:
            row[col] = label


def _block_edges(header: list, rows: list):
    """Make the rows of EDGE_ROWS malformed, rename the first row's searcher
    to BREAK_LABEL and add a blank line after data row 1500."""
    _relabel(header, rows, "searcher", BREAK_LABEL)
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


def _quoted_middle(header: list, rows: list):
    """Relabel the fields of QUOTED_ROWS, so that only those rows are quoted."""
    for number, (column, label) in QUOTED_ROWS.items():
        rows[number - 1][header.index(column)] = label


def _digit_groups(number: str) -> str:
    """``number``, a %.12g float, with ``_`` between its first two fraction
    digits (a zero added where it has fewer): the same float to ``float()``."""
    mantissa, e, exponent = number.partition("e")
    whole, _, fraction = mantissa.partition(".")
    fraction = fraction.ljust(2, "0")
    return f"{whole}.{fraction[0]}_{fraction[1:]}{e}{exponent}"


def _loadtxt_spellings(header: list, rows: list):
    """Respell the rows of SPELLINGS: a tip with digit groups and a block
    number in full-width digits (valid), a tip padded with \\x1c and a profit
    of 1e400 (malformed), a tip of -0 (valid) and a blank line."""
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


def _field_counts(header: list, rows: list):
    """Cut or pad the rows of FIELD_COUNTS to their field counts."""
    for number, count in FIELD_COUNTS.items():
        row = rows[number - 1]
        rows[number - 1] = row[:count] + ["extra"] * (count - len(row))


def _long_searchers(header: list, rows: list):
    """Add one suffix to every searcher label, long enough that every line
    (of a file that quotes no field) is longer than LONG_LINE characters."""
    col = header.index("searcher")
    suffix = "x" * (LONG_LINE + 1 - min(len(",".join(row)) for row in rows))
    for row in rows:
        row[col] += suffix


def readme_block(language: str, after: str = "") -> str:
    """The first ```language block of README.md after the line ``after``;
    ValueError where there is none."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    found = re.compile(rf"^```{language}\n(.*?)^```$", re.S | re.M).search(
        text, text.index(after + "\n") if after else 0)
    if found is None:
        raise ValueError(f"README.md holds no {language} block after {after!r}")
    return found.group(1)


def estimate_report(src: Path, base: Path) -> list:
    """estimate and report on the bundle CSV ``src``, into ``base``/<command>."""
    return [[cmd, "--input", str(src), "--out-dir", str(base / cmd)]
            for cmd in ("estimate", "report")]


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

    # several auctions per block, then estimate and report on them; auction
    # indices 256-299 overflow the tx hash's two digits
    for opportunities, blocks in ((3, 100000), (300, 40)):
        base = run / f"opportunities{opportunities}"
        out += [["generate", *CRITERION_FLAGS, "--epsilon", "0.3", "--blocks", str(blocks),
                 "--seed", str(SEED), "--opportunities", str(opportunities),
                 "--out-dir", str(base / "gen")],
                *estimate_report(base / "gen" / "bundles.csv", base)]

    # README's config example and its command sequence, each command in its
    # own out dir as README runs them, so every manifest is compared
    readme = run / "readme"
    readme.mkdir()
    (readme / "run.ini").write_text(readme_block("ini"), encoding="utf-8")
    generated = readme / "generate" / "bundles.csv"
    out += [["generate", "--config", str(readme / "run.ini"), "--blocks", "20000",
             "--out-dir", str(generated.parent)], *estimate_report(generated, readme)]

    # estimate and report on copies of README's bundles, and on one of
    # criterion 8's with a builder label holding a comma and a quote.  Both
    # of the reader's tokenizers in one file: quoted_middle holds blocks for
    # np.loadtxt beside the blocks of its quoted rows, with CRLF and LF line
    # endings in turn; long_searchers' lines are too long for a whole block
    # to stay under csv.field_size_limit()
    for name, src, edit, dialect in (
            ("block_edges", generated, _block_edges, lambda line: {"lineterminator": "\n"}),
            ("quoted_middle", generated, _quoted_middle,
             lambda line: {"lineterminator": "\r\n" if line % 2 else "\n"}),
            ("loadtxt_spellings", generated, _loadtxt_spellings, None),
            ("field_counts", generated, _field_counts, None),
            ("long_searchers", generated, _long_searchers, None),
            ("comma_label", bundles,
             lambda header, rows: _relabel(header, rows, "builder", COMMA_LABEL), None)):
        base = run / name
        out.append(lambda base=base, src=src, edit=edit, dialect=dialect: (
            base.mkdir(), _rewrite(src, base / "bundles.csv", edit, dialect)))
        out += estimate_report(base / "bundles.csv", base)

    # a config-driven report
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
    # the dense grid where the cutoff moves with the rate
    out += [["sweep", *_flags(PROFILES[label]), "--epsilons", DENSE_RATES,
             "--out-dir", str(run / "profiles" / label / "sweep_eps100")]
            for label in ("flagship", "n50")]
    # 257 nodes and 256 midpoints: hazard blocks of 256, 256 and 1 rows
    out.append(["solve", *_flags(PROFILES["flagship"]), "--epsilon", "0.2", "--nodes", "257",
                "--out-dir", str(run / "nodes257" / "solve")])
    return out


class Command(NamedTuple):
    """A CLI argv run after ``prefix`` (say ``taskset -c 0``), in ``cwd``."""

    argv: list
    prefix: tuple = ()
    cwd: Path | None = None


def run_steps(tree: Path, steps: list) -> bool:
    """Run each step with ``tree``'s src/ on PYTHONPATH: a callable is
    called, and a CLI argv or Command runs as ``python -m mevauction``.
    False on the first failure, whose stderr is printed."""
    env = {k: v for k, v in os.environ.items() if k != "MEVAUCTION_OUT"}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    for step in steps:
        if callable(step):
            step()
            continue
        command = step if isinstance(step, Command) else Command(step)
        argv = [*command.prefix, sys.executable, "-m", "mevauction", *command.argv]
        try:
            done = subprocess.run(argv, env=env, cwd=command.cwd, capture_output=True, text=True)
        except OSError as error:  # a prefix that is not installed
            done = subprocess.CompletedProcess(argv, 127, stderr=str(error))
        if done.returncode != 0:
            print(f"command failed in {tree} (exit {done.returncode}): "
                  + " ".join([*command.prefix, "mevauction", *command.argv]), file=sys.stderr)
            print(done.stderr.strip()[-2000:], file=sys.stderr)
            return False
    return True


def digests(results: Path, aside: tuple = ()) -> dict:
    """The sha256 of each file under ``results`` by its relative path, with
    ``timing.json`` (the wall clock) and the file names ``aside`` set aside."""
    return {str(path.relative_to(results)): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(results.rglob("*"))
            if path.is_file() and path.name not in ("timing.json", *aside)}


def compare(base: dict, new: dict, where: str = "", sides: tuple = ("base", "tree")) -> int:
    """Print each path (after ``where``) whose digest differs between two
    ``digests``, and each that only one side holds; the number printed."""
    differs = sorted(p for p in base.keys() & new.keys() if base[p] != new[p])
    for path in differs:
        print(f"differs    {where}{path}")
    for side, only in zip(sides, (base.keys() - new.keys(), new.keys() - base.keys())):
        for path in sorted(only):
            print(f"only {side}  {where}{path}")
    return len(differs) + len(base.keys() ^ new.keys())


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
            run.mkdir()
            if not run_steps(source, steps(run)):
                return 2
            results[name] = digests(run.rename(tmp / name))
    finally:
        if checkout.exists():
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force",
                            str(checkout)])
        shutil.rmtree(tmp, ignore_errors=True)

    base, new = results["base"], results["tree"]
    changed = compare(base, new)
    print(f"{len(base.keys() | new.keys())} files compared: {changed} differ")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
