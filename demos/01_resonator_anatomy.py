"""
Anatomy of the resonator
========================

Builds the two prime bands, prints the coefficient values, and verifies
the elementary trig inequality that makes every low-band prime pull the
resonated average in the same direction.
"""

import math

from reslab import analytic, charsums, resonator

# the desk exhibit schedule: family of discriminants 8d with d up to 10^6,
# explicit bands from L = 2 and a truncation length x = 200
params = resonator.build_params(
    10**6, mode="explicit", L=2.0, x=200.0, B=200.0, Z=200.0**1.5)
print(f"low band  [{params.pminus_lo:.2f}, {params.pminus_hi:.2f})  "
      f"= [L^(5 pi/3), L^(7 pi/3))")
print(f"high band [{params.B / 4:.2f}, {params.B:.2f}]")

table = resonator.build_table(params)
print(f"{len(table.pminus)} low-band primes, {len(table.pplus)} high-band")

# every low-band coefficient is negative: the cosine argument
# log p / (2 log L) covers exactly [5 pi/6, 7 pi/6)
print("\nfirst few low-band coefficients r(p):")
for p in table.pminus[:5]:
    theta = math.log(p) / (2 * math.log(params.L))
    print(f"  p = {p:4d}   theta = {theta:.4f}   r(p) = {table.r(p):+.6f}")

# the high-band signs are chosen against the partial sum S(x/p), so each
# high-band term can only push Sigma_1 downward
kernel = charsums.PartialSumKernel(table)
signs = resonator.assign_signs(table, kernel.S)
table = table.with_signs(signs).with_support()
print(f"\nhigh-band signs: {[signs.epsilon[p] for p in table.pplus]}")
print(f"support size after squarefree enumeration: {len(table.support)}")

# (2 cos t + 1) cos t >= (3 - sqrt 3)/2 on the band: the identity behind
# the resonance lower bound
rep = analytic.resonance_bound(table)
print(f"\ntrig minimum over the band: {rep.trig_min_observed:.6f} "
      f">= {analytic.TRIG_MIN:.6f}")
print(f"resonance ratio |F|^2 / prod(1 + 2|r~|/sqrt p) = {rep.ratio:.4f} > 1")
