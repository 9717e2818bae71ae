#!/usr/bin/env python3
"""Check that the CLI's outputs do not depend on how it is run, byte for byte.

    python3 scripts/check_invariance.py

Runs each variant of ``VARIANTS`` in this tree with ``compare_outputs.py``'s
runner, two at a time (they share no file), and compares the out dirs of each
pair it names with that script's ``digests``.  Prints each variant's
compared-file count and every file that differs or that only one side wrote.
Exit 0 when nothing differs, 1 on a difference, 2 when a command fails (a
missing ``taskset`` too) or a variant compares no file.
"""

from __future__ import annotations

import csv
import shlex
import shutil
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import compare_outputs as co
from compare_outputs import Command, workloads

ONE_CPU = ("taskset", "-c", "0")  # sets the affinity of the child process only


def simulate_threads(run: Path):
    """The game engine is invariant to --threads: 200k n = 50 blocks (four
    chunks) with one thread, two and the default (the usable CPUs), plain and
    antithetic (which draws the common factors in two halves and reduces
    each chunk over its pair means, so the merge order of the pair moments is
    checked too), every block traced and none (an untraced chunk is reduced
    in the arrays it was played in)."""
    flags = [*co._flags(workloads.N50), "--epsilon", "0.2", "--blocks", "200000",
             "--seed", "1"]
    traced = ["--trace", "--trace-cap", "200000"]
    steps, pairs = [], []
    for sampling, extra in (("plain", traced), ("antithetic", [*traced, "--antithetic"]),
                            ("plain_untraced", []), ("antithetic_untraced", ["--antithetic"])):
        for threads in ("1", "2", "default"):
            steps.append(["simulate", *flags, *extra, "--out-dir", str(run / sampling / threads),
                          *([] if threads == "default" else ["--threads", threads])])
        pairs += [(run / sampling / "1", run / sampling / threads) for threads in ("2", "default")]
    return steps, pairs


def factor_cpus(run: Path):
    """The factor integrals split each block of rows over the usable CPUs:
    solve (eps 0.2) and the default sweep on the flagship and n = 50
    profiles, pinned to one CPU and on all of them."""
    steps, pairs = [], []
    for profile in (workloads.FLAGSHIP, workloads.N50):
        base = run / f"n{profile['n']}"
        for cpus, prefix in (("one", ONE_CPU), ("all", ())):
            steps += [Command([cmd, *co._flags(profile), *extra, "--out-dir",
                               str(base / cpus / cmd)], prefix)
                      for cmd, extra in (("solve", ["--epsilon", "0.2"]), ("sweep", []))]
        pairs += [(base / "one" / cmd, base / "all" / cmd) for cmd in ("solve", "sweep")]
    return steps, pairs


def _grouped_tips(header: list, rows: list):
    """Write every tip with digit groups."""
    tip = header.index("tip_usdc")
    for row in rows:
        row[tip] = co._digit_groups(row[tip])


def _marked_header(header: list, rows: list):
    """Prefix the header's first cell with a UTF-8 byte-order mark."""
    header[0] = "\ufeff" + header[0]


def _shifted_blocks(header: list, rows: list):
    """Shift every block number so that the lowest is -2**63."""
    block = header.index("block_number")
    shift = -2**63 - min(int(row[block]) for row in rows)
    for row in rows:
        row[block] = str(int(row[block]) + shift)


# name -> (edit, dialect) of compare_outputs._rewrite.  The reader sends
# quote-free 512-line blocks to np.loadtxt and reads any other block, or one
# np.loadtxt rejects, with csv.reader.  digit_groups writes every tip with
# "_" between two fraction digits (the same float to float(), which
# np.loadtxt rejects, so every block falls back); long_searchers makes every
# line longer than 256 characters, so a block is longer than
# csv.field_size_limit() though no line is (no output prints a searcher);
# bom starts the file with a byte-order mark, as spreadsheet exports do;
# block_shift moves the blocks to the bottom of the int64 range, where the
# bidder-count window must not wrap around (no output prints a block)
READER_COPIES = {
    "quote_all": (None, lambda line: {"quoting": csv.QUOTE_ALL}),
    "lf": (None, lambda line: {"lineterminator": "\n"}),
    "cr": (None, lambda line: {"lineterminator": "\r"}),
    "quoted_700": (None, lambda line: {"quoting": csv.QUOTE_ALL} if line == 700 else {}),
    "digit_groups": (_grouped_tips, None),
    "long_searchers": (co._long_searchers, None),
    "bom": (_marked_header, None),
    "block_shift": (_shifted_blocks, None),
}


def reader_copies(run: Path):
    """estimate and report on 2000 generated blocks write the same files as
    on each of READER_COPIES of them (manifest.json, which names the input,
    aside)."""
    original = run / "original" / "bundles.csv"
    steps = [["generate", *co.CRITERION_FLAGS, "--epsilon", "0.3", "--blocks", "2000",
              "--seed", "1", "--out-dir", str(original.parent)],
             *co.estimate_report(original, original.parent)]
    pairs = []
    for name, (edit, dialect) in READER_COPIES.items():
        base = run / name
        steps += [lambda base=base, edit=edit, dialect=dialect: (
                      base.mkdir(), co._rewrite(original, base / "bundles.csv", edit, dialect)),
                  *co.estimate_report(base / "bundles.csv", base)]
        pairs += [(original.parent / cmd, base / cmd) for cmd in ("estimate", "report")]
    return steps, pairs


def readme_run(run: Path):
    """README's "## Command line" block, each command with its backslash
    continuations, run as written in a dir that holds README's ini example as
    run.ini, so a flag that README documents but the CLI lost, or a required
    flag that README leaves out, fails here; then run again pinned to one
    CPU, every manifest compared.  ValueError unless the block holds the six
    mevauction commands."""
    block = co.readme_block("bash", "## Command line").replace("\\\n", " ")
    argvs = [shlex.split(line) for line in block.splitlines() if line.strip()]
    if len(argvs) != 6 or any(argv[0] != "mevauction" for argv in argvs):
        raise ValueError(f"README's command-line block is not six mevauction commands:\n{block}")
    steps = []
    for side, prefix in (("written", ()), ("one_cpu", ONE_CPU)):
        (run / side).mkdir()
        (run / side / "run.ini").write_text(co.readme_block("ini"), encoding="utf-8")
        steps += [Command(argv[1:], prefix, run / side) for argv in argvs]
    return steps, [(run / "written" / "run", run / "one_cpu" / "run")]


# name -> (the variant's steps and out-dir pairs under a run dir, the file
# names set aside besides timing.json)
VARIANTS = {
    "simulate --threads": (simulate_threads, ()),
    "factor integrals on one CPU": (factor_cpus, ()),
    "reader copies": (reader_copies, ("manifest.json",)),
    "README command line": (readme_run, ()),
}


def main(argv: list) -> int:
    if argv:
        print("usage: python3 scripts/check_invariance.py", file=sys.stderr)
        return 2
    status = 0
    tmp = Path(tempfile.mkdtemp(prefix="check_invariance_"))
    try:
        runs = [tmp / name.replace(" ", "_") for name in VARIANTS]
        for run in runs:
            run.mkdir()
        try:
            built = [build(run) for run, (build, _) in zip(runs, VARIANTS.values())]
        except ValueError as error:
            print(error, file=sys.stderr)
            return 2
        # each variant's steps in order; two variants at once about halve the
        # wall time, which is mostly the commands' imports
        with ThreadPoolExecutor(2) as pool:
            ran = list(pool.map(lambda steps: co.run_steps(co.ROOT, steps),
                                [steps for steps, _ in built]))
        for run, ok, (_, pairs), (name, (_, aside)) in zip(runs, ran, built, VARIANTS.items()):
            compared = changed = 0
            for base, other in pairs if ok else ():
                want, got = co.digests(base, aside), co.digests(other, aside)
                compared += len(want.keys() | got.keys())
                changed += co.compare(want, got, f"{other.relative_to(run)}/",
                                      (str(base.relative_to(run)), "variant"))
            print(f"{name}: {compared} files compared: {changed} differ"
                  + ("" if ok else " (a command failed)"))
            status = max(status, 2 if compared == 0 else 1 if changed else 0)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
