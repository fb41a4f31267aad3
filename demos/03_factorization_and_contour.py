"""
Two routes to the partial-sum generating function
=================================================

The Dirichlet series F(s) behind the smoothed partial sums factors as
zeta(2s + 1) G(s) H(s).  This demo evaluates both sides independently,
then recovers S(y) a third way as a vertical-line contour integral of
y^s phi~(s) F(s).
"""

import math

from reslab import analytic, charsums, checks, resonator

params = resonator.build_params(
    10**6, mode="explicit", L=math.e, x=30.0, B=30.0, Z=150.0,
    pminus_lo=10.0, pminus_hi=18.0)
table = resonator.build_table(params)
print(f"low band: {table.pminus}")

# route one: the truncated double sum with an algebraic tail bound;
# route two: the Euler-product factorization with certified truncations
print("\n   s        F_direct           zeta G H           gap")
for row in checks.factorization((0.3, 0.5, 0.75 + 1.0j, 1.0), table):
    print(f"  {row['s']!s:10}  {row['direct'].real:+.8f}  "
          f"{row['factored'].real:+.8f}  {row['gap']:.2e} "
          f"(cert {row['bound']:.2e})")

# route three: Mellin inversion along Re(s) = 1/4 reproduces the lattice
# sum S(y) that the character-sum pipeline computes directly; one call
# evaluates F on the line once for all three y
kernel = charsums.PartialSumKernel(table)
ys = (2.0, 5.0, 10.0)
right = analytic.S_via_contour(ys, table)
print("\n   y     S(y) direct      S(y) contour       gap")
for row in checks.contour(ys, right, kernel):
    print(f"  {row['y']:4.0f}   {row['direct']:+.8f}   {row['contour']:+.8f}   "
          f"{row['gap']:.2e} (cert {row['bound']:.2e})")

# shifting the line to Re(s) = -1/(log log D)^2 picks up the pole on a
# small circle; circle + shifted line must equal the right-line values
# just computed, which the check reads instead of building them again
print("\n   y     circle + shifted   right line         gap")
for row in checks.contour_shift(ys, right, table):
    print(f"  {row['y']:4.0f}   {row['shifted']:+.8f}        "
          f"{row['contour']:+.8f}   {row['gap']:.2e} (cert {row['bound']:.2e})")
