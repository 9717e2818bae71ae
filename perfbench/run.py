"""Benchmark of the mevauction command line, end to end and layer by layer.

Run from the root of a checkout of the repository::

    python3 perfbench/run.py --workload theory --seed 1 --seconds 20 --trace 0

The workload (``theory``, ``montecarlo`` or ``pipeline``, see ``workloads.py``)
writes its seeded inputs into ``.perfbench_work/`` and calls
``mevauction.cli.main`` in this process, one command after the other (a
closed loop with one client), until ``--seconds`` have passed and every
command has run at least once.  Each command's output is checked outside
the timed region; a nonzero exit code or a failed check fails the command.

With ``--trace 0`` the run reports the end-to-end metrics: ``work_per_s``
(the geometric mean, over the commands of one pass, of each command's work
units over its mean time, so every command weighs the same however long it
takes), ``setup_s`` (fresh interpreter until ``import mevauction`` returns,
median of ``SETUP_REPEATS``) and ``peak_rss_mb``.  With ``--trace 1`` it alternates untraced
and traced passes and reports the per-layer metrics of ``metrics.py``; the
spans go to ``.perfbench_work/spans-<workload>-seed<seed>.csv``.

The speed of a shared machine drifts by 10-20% over tens of seconds, more
than one run can average out.  So a fixed reference kernel, independent of
mevauction, is timed right before and right after every command and every
set-up sample, and each time is scaled by ``REFERENCE_SECONDS`` over the
kernel's mean time: the times are those of a machine that runs the kernel
in ``REFERENCE_SECONDS``.  The printed table shows the measured times too.
Span times (the per-layer ``_s`` metrics) are not scaled.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run exits with
code 2, printing no result, when ``src/mevauction`` is not in the working
directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from metrics import COMMAND_RATES, END_TO_END, EXACT, IMPORTS, PER_LAYER, layer_metrics
from tracing import Tracer
from workloads import WORKLOADS

SETUP_REPEATS = 9  # fresh interpreters per set-up figure (and per import-time figure)
WORK_ROOT = Path(".perfbench_work")
REFERENCE_SECONDS = 0.05
# 1 MiB in all, so the kernel adds next to nothing to the run's peak RSS
_REFERENCE_IN = np.linspace(0.0, 1.0, 65_536)
_REFERENCE_OUT = np.empty_like(_REFERENCE_IN)


def reference_kernel() -> float:
    """Seconds for a fixed mix of interpreter and array work (about 0.05 s)."""
    start = time.perf_counter()
    table = {}
    for i in range(130_000):
        key = (i % 997, i & 7)
        table[key] = table.get(key, 0.0) + i * 0.5
    for _ in range(144):
        np.sqrt(_REFERENCE_IN, out=_REFERENCE_OUT)
        np.exp(_REFERENCE_OUT, out=_REFERENCE_OUT)
    return time.perf_counter() - start


def speed(before: float, after: float) -> float:
    """Factor that scales a time measured between two reference kernel runs."""
    return REFERENCE_SECONDS / (0.5 * (before + after))


def scaled(run):
    """``(scaled seconds, measured seconds, result)`` of ``run()``, timed
    between two runs of the reference kernel."""
    before = reference_kernel()
    start = time.perf_counter()
    result = run()
    elapsed = time.perf_counter() - start
    return elapsed * speed(before, reference_kernel()), elapsed, result


def _child_env(src: str) -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def measure_setup(src: str) -> float:
    """Median seconds, at the reference speed, from starting a fresh
    interpreter until ``import mevauction`` returns."""
    code = ("import mevauction, sys; sys.stdout.write(mevauction.__file__ + '\\n'); "
            "sys.stdout.flush()")

    samples = []
    for _ in range(SETUP_REPEATS):
        before = reference_kernel()
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              env=_child_env(src), text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
        # the second kernel run waits for the child's exit: both CPUs may share a core
        samples.append(elapsed * speed(before, reference_kernel()))
        if proc.returncode != 0 or not line.startswith(src):
            raise RuntimeError(f"import mevauction failed or came from elsewhere: {line!r}")
    print("# setup_s samples " + " ".join(f"{t:.4f}" for t in samples))
    return statistics.median(samples)


def measure_imports(src: str) -> dict:
    """Median cumulative import seconds of ``IMPORTS`` from ``-X importtime``."""
    samples = defaultdict(list)
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mevauction"],
                              env=_child_env(src), capture_output=True, text=True, check=True)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in IMPORTS:
                samples[parts[2].strip()].append(int(parts[1]) * 1e-6)
    return {f"setup.import_{m}_s": statistics.median(samples[m]) if samples[m] else 0.0
            for m in IMPORTS}


def _out_bytes(argv) -> int:
    """Bytes a command wrote, leaving out the wall-clock ``timing.json``."""
    out = Path(argv[argv.index("--out-dir") + 1])
    return sum(p.stat().st_size for p in out.rglob("*")
               if p.is_file() and p.name != "timing.json")


class Tally:
    """Attempts, failures and per-command samples of one run.

    ``times`` are at the reference speed; ``raw_times`` as measured.
    """

    def __init__(self):
        self.attempted = self.failed = 0
        self.times = defaultdict(list)
        self.raw_times = defaultdict(list)
        self.units = {}
        self.kinds = {}
        self.output_bytes = 0

    def run(self, cmd, main, tracer=None) -> float:
        buf = io.StringIO()
        self.attempted += 1

        def command():
            try:
                with contextlib.redirect_stdout(buf):
                    return (tracer.call(f"cli.{cmd.kind}", main, cmd.argv) if tracer
                            else main(cmd.argv))
            except SystemExit as exc:  # usage error
                return exc.code
            except Exception:
                traceback.print_exc()
                return None

        elapsed, raw, rc = scaled(command)
        errors = [f"exit code {rc}"] if rc != 0 else []
        if not errors:
            try:
                errors = cmd.check(buf.getvalue())
                if not errors and cmd.after:
                    cmd.after()
                self.units[cmd.key] = cmd.units(buf.getvalue())
            except Exception as exc:  # a broken output is a failed check
                errors = [f"check raised {exc!r}"]
        if errors:
            self.failed += 1
            print(f"FAILED {cmd.key}: " + "; ".join(errors), file=sys.stderr)
        self.times[cmd.key].append(elapsed)
        self.raw_times[cmd.key].append(raw)
        self.kinds[cmd.key] = cmd.kind
        self.output_bytes += _out_bytes(cmd.argv)
        return elapsed

    def means(self) -> dict:
        return {key: statistics.fmean(ts) for key, ts in self.times.items()}

    def work_per_s(self) -> float:
        """Geometric mean of the commands' rates (units over mean seconds)."""
        rates = [self.units.get(k, 0) / t for k, t in self.means().items()]
        return statistics.geometric_mean(rates) if all(rates) else 0.0

    def command_rates(self) -> dict:
        mean = self.means()
        out = {name: 0.0 for name, _ in COMMAND_RATES.values()}
        for kind, (name, _) in COMMAND_RATES.items():
            keys = [k for k in mean if self.kinds[k] == kind]
            if keys:
                out[name] = (sum(self.units.get(k, 0) for k in keys)
                             / sum(mean[k] for k in keys))
        return out


def run_pass(commands, main, tally, tracer=None) -> float:
    return sum(tally.run(cmd, main, tracer) for cmd in commands)


def timed_run(commands, main, seconds: float, tally: Tally):
    """Closed loop over the commands: at least one full pass, then on until
    ``seconds`` have passed."""
    start = time.perf_counter()
    run_pass(commands, main, tally)
    while True:
        for cmd in commands:
            if time.perf_counter() - start >= seconds:
                return
            tally.run(cmd, main)


def traced_run(workload, commands, main, seconds: float, tally: Tally, spans_path):
    """Alternate untraced and traced passes until ``seconds`` have passed.

    The first pass is untraced and warms up; the overhead compares the traced
    passes with the untraced passes that follow one.
    """
    tracer = Tracer()
    traced_tally = Tally()
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    try:
        run_pass(commands, main, tally)
        while not traced or time.perf_counter() - start < seconds:
            lo = len(tracer.spans)
            tracer.install()
            try:
                traced.append(run_pass(commands, main, traced_tally, tracer))
            finally:
                tracer.uninstall()
            layers.append(layer_metrics(tracer.spans, lo, len(tracer.spans),
                                        getattr(workload, "parse_rows", 0)))
            plain.append(run_pass(commands, main, tally))
    finally:
        tracer.write_spans(spans_path)
        tally.attempted += traced_tally.attempted
        tally.failed += traced_tally.failed
    out = {name: statistics.median(layer[name] for layer in layers)
           for name in layers[0]}
    for name in out:
        if name in EXACT:
            out[name] = layers[0][name]
            if any(layer[name] != out[name] for layer in layers):
                print(f"WARNING {name} differs between traced passes: "
                      f"{[layer[name] for layer in layers]}", file=sys.stderr)
    out["cli.output_bytes"] = tally.output_bytes // (len(plain) + 1)
    out["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
    out.update(tally.command_rates())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "mevauction", "__init__.py")):
        print("perfbench: run from a checkout root that holds src/mevauction",
              file=sys.stderr)
        return 2

    reference_kernel()  # the first run pays for page faults
    setup_s = None if args.trace else measure_setup(src)
    imports = measure_imports(src) if args.trace else {}
    sys.path.insert(0, src)
    from mevauction.cli import main as cli_main

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(os.path.relpath(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)))
    workload = WORKLOADS[args.workload](args.seed)
    tally = Tally()
    try:
        commands = workload.prepare(work)
        if args.trace:
            spans = WORK_ROOT / f"spans-{args.workload}-seed{args.seed}.csv"
            values = traced_run(workload, commands, cli_main, args.seconds, tally, spans)
            values.update(imports)
            values.update(getattr(workload, "workers_pair", dict)())
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            timed_run(commands, cli_main, args.seconds, tally)
            values = {
                "work_per_s": tally.work_per_s(),
                "setup_s": setup_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = {name: unit for name, unit, _, _ in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for key, mean in tally.means().items():
        print(f"# {key:<24} {tally.units.get(key, 0) / mean:14.2f} units/s  mean {mean:.4f} s "
              f"of " + " ".join(f"{t:.4f}" for t in tally.times[key])
              + "; as measured " + " ".join(f"{t:.4f}" for t in tally.raw_times[key]))
    metrics = {}
    for name, unit in units.items():
        value = values.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
        print(f"# {name:<44} {value:>16.6g} {unit}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
