# %% [markdown]
# # From bundle records to replicable-share estimates
#
# The estimation pipeline consumes bundle records (tx, block, type, builder,
# searcher, tip, profit), builds quantile-binned bribe schedules, reads the
# replicable share off the right-tail plateau, and prices the surplus a
# defecting builder left on the table.  Here the records are synthetic, so
# the planted parameters are known and the estimators can be checked
# end to end.

# %%
import tempfile
from pathlib import Path

from mevauction import solve_strategy
from mevauction.diagnostics import builder_table, concentration
from mevauction.empirics import (
    BundleTable,
    bribe_schedule,
    decompose,
    estimate_gamma,
    write_bundles,
)
from mevauction.profiles import MevType, TypeProfile
from mevauction.synthetic import SyntheticSpec, generate_synthetic

MU, SIGMA = 1.102, 2.524
planted = {
    MevType.NAKED_ARB: (5, 0.3, 0.74),
    MevType.LIQUIDATION: (3, 0.2, 0.88),
    MevType.BACKRUN: (7, 0.4, 0.60),
}
specs = []
for tau, (n, rho, gamma) in planted.items():
    profile = TypeProfile(tau, n=n, rho=rho, gamma=gamma, mu=MU, sigma=SIGMA)
    specs.append(SyntheticSpec(profile=profile, epsilon=0.3,
                               strategy=solve_strategy(profile, 0.3)))

records = list(generate_synthetic(specs, blocks=40_000, seed=99,
                                  opportunities_per_block=2))
print(f"{len(records)} records (frontrun blocks emit none: they revert unpaid)")

# %% [markdown]
# ## Plateau estimates against the planted shares

# %%
estimates = {}
for tau, (_, _, gamma) in planted.items():
    schedule = bribe_schedule(records, tau)
    est = estimate_gamma(schedule)
    estimates[tau] = est
    lo = schedule.bins[0].mean_bribe_share
    print(f"{tau.value:<12} planted {gamma:.2f}  estimated {est.gamma_hat:.4f}  "
          f"(schedule runs {lo:.2f} -> {est.gamma_hat:.2f}, "
          f"plateau dispersion {est.dispersion:.1e})")

# %% [markdown]
# ## What a defecting builder could still take

# %%
report = decompose(records, estimates)
for row in report.per_type:
    print(f"{row.mev_type.value:<12} tips {row.observed_tips:12.0f}   "
          f"foregone {row.foregone_surplus:12.0f}   ratio {row.ratio:.3f}")
print(f"{'all':<12} tips {report.total_tips:12.0f}   "
      f"foregone {report.total_foregone:12.0f}   ratio {report.total_ratio:.3f}")

# %% [markdown]
# ## Concentration and per-builder views

# %%
conc = concentration(records, by="searcher")
for tau, stat in conc.items():
    print(f"{tau.value:<12} searchers {stat.groups:3d}  gini {stat.gini:.3f}  "
          f"top-1 share {stat.top_k_shares[1]:.3f}")

print()
for row in builder_table(records)[:4]:
    print(f"{row.builder:<16} count {row.count:6d}  total {row.total_extracted:12.0f}  "
          f"mean bribe {row.mean_bribe_share:.3f}")

# %% [markdown]
# ## The same pipeline through the command line
#
# Writing the records to the documented CSV schema and running the report
# command produces every figure-data file in one pass.

# %%
with tempfile.TemporaryDirectory() as tmp:
    bundles = Path(tmp) / "bundles.csv"
    write_bundles(bundles, BundleTable.from_records(records))
    from mevauction.cli import main

    main(["report", "--input", str(bundles), "--out-dir", str(Path(tmp) / "out")])
    for produced in sorted((Path(tmp) / "out").iterdir()):
        print("wrote", produced.name)
