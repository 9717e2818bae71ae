"""Recording tools of the benchmark; run them from the root of a checkout.

    python3 perfbench/record.py reference
        Runs the theory commands once and writes the regimes, optimal rates,
        revenues and cutoffs the theory checks compare against to
        perfbench/reference.json.
    python3 perfbench/record.py baseline [--out FILE]
        Runs every workload on seeds 1..RUNS with tracing off, then twice with
        tracing on (seed 1), and writes each metric's median, quartiles and
        spread, the per-layer numbers and the machine to FILE
        (default perfbench/baseline.json).
    python3 perfbench/record.py compare FIRST SECOND
        Compares the end-to-end medians of two baseline files against the
        bounds in BENCHMARK.json.
    python3 perfbench/record.py benchmark-json
        Writes BENCHMARK.json from the tables in metrics.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from metrics import END_TO_END, EXACT, PER_LAYER, WORKLOAD_WHY

HERE = Path(__file__).resolve().parent
RUN_SECONDS = 20
RUNS = 10


def record_reference(path: Path):
    from workloads import THEORY_EPSILON, THEORY_PROFILES, _ini, _load

    sys.path.insert(0, os.path.abspath("src"))
    from mevauction.cli import main

    os.makedirs(".perfbench_work", exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=".perfbench_work"))
    reference = {}
    try:
        for label, (profile, _) in THEORY_PROFILES.items():
            ini = work / f"{label}.ini"
            ini.write_text(_ini({"solve": dict(profile, epsilon=THEORY_EPSILON),
                                 "sweep": profile}), encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()):
                for command in ("solve", "sweep"):
                    rc = main([command, "--config", str(ini), "--out-dir", str(work / command)])
                    if rc != 0:
                        raise SystemExit(f"{command} {label} exited with {rc}")
            strategy = _load(work / "solve" / "strategy.json")
            sweep = _load(work / "sweep" / "revenue_profile.json")
            reference[label] = {
                "solve": {"cutoff": strategy["cutoff"]},
                "sweep": {"regime": sweep["regime"], "epsilon_star": sweep["epsilon_star"],
                          "revenues": sweep["profile"]["revenues"]},
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")


def run_once(workload: str, seed: int, trace: int) -> dict:
    """The result line of one run, plus the run's wall time as ``wall_s``."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    return dict(json.loads(proc.stdout.strip().splitlines()[-1]),
                wall_s=time.perf_counter() - start)


def summarize(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def machine() -> dict:
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        caches[f"L{level}_{kind.lower()}"] = (index / "size").read_text().strip()
    model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": model, "caches": caches,
            "python": platform.python_version(), "system": platform.platform()}


def record_baseline(out: Path):
    result = {"run_seconds": RUN_SECONDS, "runs": RUNS, "machine": machine(),
              "recorded": time.strftime("%Y-%m-%d"), "workloads": {}}
    for workload in WORKLOAD_WHY:
        samples = [run_once(workload, seed, 0) for seed in range(1, RUNS + 1)]
        failed = sum(s["failed"] for s in samples)
        attempted = sum(s["attempted"] for s in samples)
        end_to_end = {name: summarize([s["metrics"][name]["value"] for s in samples])
                      for name, *_ in END_TO_END}
        traced = [run_once(workload, 1, 1) for _ in range(2)]
        layers = {name: traced[0]["metrics"][name]["value"] for name, *_ in PER_LAYER}
        repeats = {name: traced[0]["metrics"][name]["value"]
                   == traced[1]["metrics"][name]["value"] for name in EXACT}
        result["workloads"][workload] = {
            "attempted": attempted, "failed": failed,
            "failed_share": failed / attempted,
            "end_to_end": end_to_end, "per_layer": layers,
            "exact_counts_repeat": repeats,
            "trace_overhead": layers["trace.overhead"],
            "run_wall_s": {"untraced": [s["wall_s"] for s in samples],
                           "traced": [s["wall_s"] for s in traced]},
        }
        print(f"{workload}: failed {failed}/{attempted}; " + ", ".join(
            f"{k} {v['median']:.4g} spread {v['spread']:.3f}" for k, v in end_to_end.items()),
            flush=True)
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")


def compare(first: Path, second: Path):
    bounds = {m["name"]: m for m in json.loads(Path("BENCHMARK.json").read_text())["end_to_end"]}
    a, b = (json.loads(p.read_text())["workloads"] for p in (first, second))
    ok = True
    for workload in a:
        for name, metric in bounds.items():
            m1, m2 = a[workload]["end_to_end"][name], b[workload]["end_to_end"][name]
            change = m2["median"] / m1["median"] - 1.0
            worse = -change if metric["better"] == "higher" else change
            good = worse <= metric["bound"] and max(m1["spread"], m2["spread"]) <= metric["bound"]
            ok &= good
            print(f"{workload:<11} {name:<12} {m1['median']:>12.5g} {m2['median']:>12.5g} "
                  f"change {change:+.3%}  spreads {m1['spread']:.3f}/{m2['spread']:.3f}  "
                  f"bound {metric['bound']}  {'ok' if good else 'FAIL'}")
    return 0 if ok else 1


def write_benchmark_json(path: Path):
    doc = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOAD_WHY.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def main():
    parser = argparse.ArgumentParser(description="benchmark recording tools")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("reference")
    p = sub.add_parser("baseline")
    p.add_argument("--out", type=Path, default=HERE / "baseline.json")
    p = sub.add_parser("compare")
    p.add_argument("first", type=Path)
    p.add_argument("second", type=Path)
    sub.add_parser("benchmark-json")
    args = parser.parse_args()
    if args.command == "reference":
        record_reference(HERE / "reference.json")
    elif args.command == "baseline":
        record_baseline(args.out)
    elif args.command == "compare":
        return compare(args.first, args.second)
    else:
        write_benchmark_json(Path("BENCHMARK.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
