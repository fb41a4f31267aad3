"""
Central values and the family average
=====================================

Computes L(1/2, chi_8d) two independent ways -- the approximate
functional equation and a partial-summation Dirichlet series -- and
checks the orthogonality relation that underlies the family averages.
"""

import math

from reslab import arith, charsums, checks

# the AFE folds the series at sqrt(conductor), weighting with the
# incomplete-gamma kernel V; the oracle sums the plain series by residue
# classes with Euler-Maclaurin tails
rows = checks.central_values(
    [d for d in range(1, 200, 2) if arith.is_squarefree(d)])
print("  d     L(1/2, chi_8d)    oracle gap")
for row in rows[:9]:
    print(f"  {row['d']:3d}   {row['value']:.12f}   {row['gap']:.2e}")

# none of the computed central values is negative -- consistent with the
# conjecture that L(1/2, chi_8d) >= 0 throughout the family
low = min(rows, key=lambda row: row["value"])
print(f"\nmin over d < 200: {low['value']:.6f} at d = {low['d']}  "
      "(all nonnegative)")

# orthogonality: averaged over squarefree 2d, chi_8d(n) survives only on
# odd square n, with density (3/pi^2) prod_{p | 2n} p/(p+1)
print("\n  n     exact sum      main term      rel err")
for row in checks.orthogonality((1, 9, 25, 225), 1e6):
    print(f"  {row['n']:3d}   {row['exact']:12.1f}   {row['main']:12.1f}   "
          f"{row['gap']:.1e}")
exact, main, _ = charsums.orthogonality_check(15, 1e6)
print(f"   15   {exact:12.1f}   {main:12.1f}   "
      "(nonsquare: fluctuation only, |sum| ~ sqrt D)")
