# %% [markdown]
# # From bundle records to replicable-share estimates
#
# The estimation pipeline consumes bundle records (tx, block, type, builder,
# searcher, tip, profit), builds quantile-binned bribe schedules, reads the
# replicable share off the right-tail plateau, and prices the surplus a
# defecting builder left on the table.  Here the records are synthetic, so
# the planted parameters are known and the estimators can be checked
# end to end.  They are written to the documented CSV schema chunk by chunk
# and read back into one columnar table, as the command line does.

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
from mevauction.synthetic import SyntheticSpec, generate_chunks

MU, SIGMA = 1.102, 2.524
# (n, rho, gamma, epsilon) per type.  A plateau needs a finite cutoff: the
# liquidation type's indifference level stays above 0.49 on the whole grid,
# so at epsilon = 0.3 it would never deter, and it is planted at 0.8, where
# its cutoff sits near the median value
planted = {
    MevType.NAKED_ARB: (5, 0.3, 0.74, 0.3),
    MevType.LIQUIDATION: (3, 0.2, 0.88, 0.8),
    MevType.BACKRUN: (7, 0.4, 0.60, 0.3),
}
specs = []
for tau, (n, rho, gamma, epsilon) in planted.items():
    profile = TypeProfile(tau, n=n, rho=rho, gamma=gamma, mu=MU, sigma=SIGMA)
    specs.append(SyntheticSpec(profile=profile, epsilon=epsilon,
                               strategy=solve_strategy(profile, epsilon)))
cutoffs = {spec.profile.tau: spec.strategy.cutoff for spec in specs}

tmp = tempfile.TemporaryDirectory()
bundles = Path(tmp.name) / "bundles.csv"
write_bundles(bundles, generate_chunks(specs, blocks=40_000, seed=99,
                                       opportunities_per_block=2))
table = BundleTable.read(bundles)
print(f"{len(table)} records (frontrun blocks emit none: they revert unpaid)")

# %% [markdown]
# ## Plateau estimates against the planted shares
#
# Searchers above a type's cutoff bid gamma * v, so its bribe share levels
# off at gamma in the right tail; the cutoff says where that plateau starts.

# %%
estimates = {}
for tau, (_, _, gamma, _) in planted.items():
    schedule = bribe_schedule(table, tau)
    est = estimate_gamma(schedule)
    estimates[tau] = est
    lo = schedule.bins[0].mean_bribe_share
    print(f"{tau.value:<12} planted {gamma:.2f}  estimated {est.gamma_hat:.4f}  "
          f"cutoff {cutoffs[tau]:.3g}  (schedule runs {lo:.2f} -> {est.gamma_hat:.2f}, "
          f"plateau dispersion {est.dispersion:.1e})")

# %% [markdown]
# ## What a defecting builder could still take

# %%
report = decompose(table, estimates)
for row in report.per_type:
    print(f"{row.mev_type.value:<12} tips {row.observed_tips:12.0f}   "
          f"foregone {row.foregone_surplus:12.0f}   ratio {row.ratio:.3f}")
print(f"{'all':<12} tips {report.total_tips:12.0f}   "
      f"foregone {report.total_foregone:12.0f}   ratio {report.total_ratio:.3f}")

# %% [markdown]
# ## Concentration and per-builder views

# %%
conc = concentration(table, by="searcher")
for tau, stat in conc.items():
    print(f"{tau.value:<12} searchers {stat.groups:3d}  gini {stat.gini:.3f}  "
          f"top-1 share {stat.top_k_shares[1]:.3f}")

print()
for row in builder_table(table)[:4]:
    print(f"{row.builder:<16} count {row.count:6d}  total {row.total_extracted:12.0f}  "
          f"mean bribe {row.mean_bribe_share:.3f}")

# %% [markdown]
# ## The same pipeline through the command line
#
# Running the report command on the CSV written above produces every
# figure-data file in one pass.

# %%
from mevauction.cli import main

out = Path(tmp.name) / "out"
main(["report", "--input", str(bundles), "--out-dir", str(out)])
for produced in sorted(out.iterdir()):
    print("wrote", produced.name)
tmp.cleanup()
