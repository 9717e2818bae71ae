"""The benchmark's workloads: seeded inputs, one pass of CLI commands, checks.

A workload writes its INI and CSV inputs into a work directory and returns
the commands of one pass.  Every command runs through ``mevauction.cli.main``
and is checked afterwards, outside the timed region.  ``units`` is the work a
command completes (defection-rate points, blocks, records), so a command's
throughput is units over seconds.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

FLAGSHIP = {"type": "naked_arb", "n": 5, "rho": 0.3, "gamma": 0.74,
            "mu": 1.102, "sigma": 2.524}
N50 = dict(FLAGSHIP, n=50)

# label -> (profile, what the sweep must show beyond the reference values)
THEORY_PROFILES = {
    "flagship": (FLAGSHIP, {}),
    "all_binding": (dict(FLAGSHIP, type="sandwich", n=3, rho=0.2, gamma=0.998),
                    {"regime": "high_extractability", "epsilon_star": 0.99}),
    "never_binding": (dict(FLAGSHIP, type="liquidation", n=10, rho=0.4, gamma=0.05,
                           sigma=0.5),
                      {"regime": "low_extractability", "flat": True}),
    "n50": (N50, {}),
}
THEORY_EPSILON = 0.2
SWEEP_POINTS = 21  # the CLI's default defection-rate grid

MONTECARLO_EPSILON = 0.2
MONTECARLO_BLOCKS = {"flagship": 4_000_000, "n50": 250_000}

PIPELINE_GAMMAS = {"naked_arb": 0.74, "liquidation": 0.88, "backrun": 0.60}
PIPELINE_BLOCKS = 20_000
PIPELINE_EPSILON = 0.3
MALFORMED_SHARE = 0.0005      # half the 0.1% abort threshold
NONPOSITIVE_SHARE = 0.002

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass
class Command:
    kind: str                                # CLI command name
    label: str                               # what it runs on
    argv: list
    units: Callable[[str], int]              # stdout -> work completed
    check: Callable[[str], list]             # stdout -> failure messages
    after: Callable[[], None] | None = None  # untimed step after a clean run

    @property
    def key(self) -> str:
        return f"{self.kind}/{self.label}"


def _ini(sections: dict) -> str:
    return "".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in body.items()) + "\n"
        for name, body in sections.items())


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _type_profile(params: dict):
    from mevauction import MevType, TypeProfile

    return TypeProfile(tau=MevType.parse(params["type"]),
                       **{k: v for k, v in params.items() if k != "type"})


def _constant(n: int):
    return lambda stdout: n


class Theory:
    """``solve`` at epsilon 0.2 and the default ``sweep`` on four profiles.

    The seed only rotates the profile order: the profiles are fixed so their
    revenues can be checked against values recorded at the seed commit.
    """

    name = "theory"

    def __init__(self, seed: int, profiles=None, reference=None):
        labels = list(profiles or THEORY_PROFILES)
        shift = seed % len(labels)
        self.labels = labels[shift:] + labels[:shift]
        self.reference = reference if reference is not None else _load(REFERENCE_PATH)

    def prepare(self, work: Path) -> list:
        commands = []
        for label in self.labels:
            profile, expect = THEORY_PROFILES[label]
            ini = work / f"{label}.ini"
            ini.write_text(_ini({"solve": dict(profile, epsilon=THEORY_EPSILON),
                                 "sweep": profile}), encoding="utf-8")
            ref = self.reference[label]
            solve_out, sweep_out = work / label / "solve", work / label / "sweep"
            commands.append(Command(
                "solve", label, ["solve", "--config", str(ini), "--out-dir", str(solve_out)],
                _constant(1),
                lambda _, out=solve_out, ref=ref: checks.check_solve(
                    _load(out / "strategy.json"), ref["solve"])))
            commands.append(Command(
                "sweep", label, ["sweep", "--config", str(ini), "--out-dir", str(sweep_out)],
                _constant(SWEEP_POINTS),
                lambda _, out=sweep_out, ref=ref, expect=expect: checks.check_sweep(
                    _load(out / "revenue_profile.json"), ref["sweep"], expect)))
        return commands


class MonteCarlo:
    """``simulate`` with default flags on the flagship and n=50 profiles."""

    name = "montecarlo"

    def __init__(self, seed: int, blocks=None):
        self.seed = seed
        self.blocks = dict(blocks or MONTECARLO_BLOCKS)

    def prepare(self, work: Path) -> list:
        from mevauction import expected_revenue, solve_strategy

        commands = []
        for label, blocks in self.blocks.items():
            profile = N50 if label == "n50" else FLAGSHIP
            ini = work / f"{label}.ini"
            ini.write_text(_ini({"simulate": dict(
                profile, epsilon=MONTECARLO_EPSILON, blocks=blocks, seed=self.seed)}),
                encoding="utf-8")
            # the quadrature revenue of the same strategy, outside the timed region
            parsed = _type_profile(profile)
            quadrature = expected_revenue(
                MONTECARLO_EPSILON, solve_strategy(parsed, MONTECARLO_EPSILON), parsed)
            out = work / label
            commands.append(Command(
                "simulate", label, ["simulate", "--config", str(ini), "--out-dir", str(out)],
                _constant(blocks),
                lambda _, out=out, blocks=blocks, q=quadrature: checks.check_simulate(
                    _load(out / "sim_report.json"), blocks, q)))
        return commands

    def workers_pair(self) -> dict:
        """Seconds of one flagship ``run_many`` with one and with two workers."""
        from mevauction import run_many, solve_strategy

        profile = _type_profile(FLAGSHIP)
        strategy = solve_strategy(profile, MONTECARLO_EPSILON)
        out = {}
        for workers in (1, 2):
            start = time.perf_counter()
            run_many(strategy, profile, self.blocks["flagship"], self.seed, workers=workers)
            out[f"simulate.run_many_workers{workers}_s"] = time.perf_counter() - start
        return out


def inject_bad_rows(src: Path, dst: Path, seed: int):
    """Copy a bundle CSV, inserting seeded malformed and non-positive rows.

    Returns (rows, malformed, nonpositive): data rows in the copy and how many
    of each kind were inserted.
    """
    header, *rows = src.read_text(encoding="utf-8").splitlines(keepends=True)
    rng = random.Random(seed)
    n_bad = max(1, int(MALFORMED_SHARE * len(rows)))
    n_nonpos = max(1, int(NONPOSITIVE_SHARE * len(rows)))
    bad = []
    for i in range(n_bad):
        fields = rng.choice(rows).rstrip("\n").split(",")
        kind = i % 5
        if kind == 0:
            fields = fields[:-1]                 # missing a column
        elif kind == 1:
            fields[5] = "not-a-number"
        elif kind == 2:
            fields[5] = "-1.5"                   # negative tip
        elif kind == 3:
            fields[2] = "unknown_type"
        else:
            fields[6] = "nan"
        bad.append(",".join(fields) + "\n")
    for i in range(n_nonpos):
        fields = rng.choice(rows).rstrip("\n").split(",")
        fields[0] = f"0xbench{seed & 0xffff:04x}{i:08x}"
        fields[5] = "0"
        fields[6] = f"-{rng.uniform(0.0, 10.0):.6g}" if i % 2 else "0"
        bad.append(",".join(fields) + "\n")
    for row in bad:
        rows.insert(rng.randrange(len(rows) + 1), row)
    dst.write_text(header + "".join(rows), encoding="utf-8")
    return len(rows), n_bad, n_nonpos


def _csv_rows(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


class Pipeline:
    """``generate`` three planted types, then ``estimate`` and ``report`` on a
    copy of the CSV with seeded malformed and non-positive rows."""

    name = "pipeline"

    def __init__(self, seed: int, blocks: int = PIPELINE_BLOCKS):
        self.seed = seed
        self.blocks = blocks
        self.injected = None  # (rows, malformed, nonpositive) once generated

    @property
    def parse_rows(self) -> int:
        """Parseable rows in the CSV that ``estimate`` and ``report`` read."""
        return self.injected[0] - self.injected[1] if self.injected else 0

    def prepare(self, work: Path) -> list:
        sections = {"generate": {"blocks": self.blocks, "seed": self.seed,
                                 "opportunities_per_block": 2}}
        for label, gamma in PIPELINE_GAMMAS.items():
            sections[f"generate.type.{label}"] = {
                k: v for k, v in dict(FLAGSHIP, gamma=gamma, epsilon=PIPELINE_EPSILON).items()
                if k != "type"}
        ini = work / "pipeline.ini"
        ini.write_text(_ini(sections), encoding="utf-8")
        gen, est, rep = work / "generate", work / "estimate", work / "report"
        generated, dirty = gen / "bundles.csv", work / "input.csv"

        def written(stdout):
            return int(stdout.split()[1])  # "wrote N records to ..."

        def inject():
            if self.injected is None:  # the generated file is the same every pass
                self.injected = inject_bad_rows(generated, dirty, self.seed)

        def rows(_):
            return self.injected[0]

        def check_report(_):
            n, bad, nonpos = self.injected
            return checks.check_report(_load(rep / "report.json"), PIPELINE_GAMMAS,
                                       n, bad, nonpos)

        return [
            Command("generate", "pipeline",
                    ["generate", "--config", str(ini), "--out-dir", str(gen)],
                    written,
                    lambda stdout: checks.check_generate(written(stdout), _csv_rows(generated)),
                    after=inject),
            Command("estimate", "pipeline",
                    ["estimate", "--input", str(dirty), "--out-dir", str(est)],
                    rows,
                    lambda _: checks.check_gammas(_load(est / "gamma_estimates.json"),
                                                  PIPELINE_GAMMAS, "estimate")),
            Command("report", "pipeline",
                    ["report", "--input", str(dirty), "--out-dir", str(rep)],
                    rows, check_report),
        ]


WORKLOADS = {w.name: w for w in (Theory, MonteCarlo, Pipeline)}
