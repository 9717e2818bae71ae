# %% [markdown]
# # Builder revenue as a function of the defection rate
#
# The builder's ex-ante revenue integrates the collected payment against the
# density of the highest valuation.  Whether defecting more often pays
# depends on the sign of gamma * v - b(v) over the support:
#
# * binding everywhere (replication captures more than any competitive bid):
#   revenue rises with every extra unit of defection;
# * binding nowhere: defection never triggers a frontrun and revenue is flat;
# * binding on part of the support: anything can happen, and the sweep
#   reports it honestly.

# %%
import numpy as np

from mevauction import DEFAULT_EPSILON_GRID, revenue_sweep, solve_bid_ode
from mevauction.profiles import MevType, TypeProfile

MU, SIGMA = 1.102, 2.524

cases = {
    "high extractability": TypeProfile(MevType.SANDWICH, n=3, rho=0.2,
                                       gamma=0.998, mu=MU, sigma=SIGMA),
    "low extractability": TypeProfile(MevType.LIQUIDATION, n=10, rho=0.4,
                                      gamma=0.05, mu=MU, sigma=0.5),
    "mixed": TypeProfile(MevType.NAKED_ARB, n=5, rho=0.3,
                         gamma=0.74, mu=MU, sigma=SIGMA),
}

# %%
for label, profile in cases.items():
    rp = revenue_sweep(profile, DEFAULT_EPSILON_GRID)
    print(f"\n{label}: regime = {rp.regime}, best rate = {rp.epsilon_star}")
    for i in range(0, len(rp.epsilons), 4):
        cut = "inf" if np.isinf(rp.cutoffs[i]) else f"{rp.cutoffs[i]:.3g}"
        print(f"  eps={rp.epsilons[i]:.2f}  revenue={rp.revenues[i]:12.4f}  "
              f"dR/deps={rp.derivatives[i]:+10.4f}  cutoff={cut}")

# %% [markdown]
# In the binding-everywhere case the revenue is exactly linear: each extra
# point of defection swaps the competitive bid for gamma * v on the whole
# support.  In the never-binding case the sweep is flat to quadrature
# precision, so the honest builder loses nothing by committing fully.  The
# mixed case is where the commitment problem has real structure: revenue is
# dominated by whether high-value searchers are already deterring.

# %%
fine = revenue_sweep(cases["mixed"], np.round(np.linspace(0.0, 0.7, 15), 4),
                     curve=solve_bid_ode(cases["mixed"]))
peak = fine.epsilons[int(np.argmax(fine.revenues))]
print(f"mixed-case fine sweep: revenue peaks near eps = {peak:.2f} "
      f"(interior maxima are reported, not assumed away)")
