"""Every check of the package, one definition each; no other module
decides one or raises CheckFailed, and each bound is a constant here.

Each check runs both routes at every point its caller passes and returns a
row per point: the point, the routes' values, their ``gap``, the ``bound``
the gap must keep and ``margin = gap / bound`` (0 or inf on a 0 bound).  A
check raises CheckFailed, naming the worst point, its gap and its bound,
unless every gap <= bound; a NaN gap fails.  Kronecker multiplicativity is
exact and has no rows.  The routes are called as module attributes, so a
wrapper or a stub put on ``analytic.F_direct`` is what a check calls.
"""

import math
import random

import numpy as np

from . import analytic, arith, charsums, resonator, sieve
from .smoothing import AccuracyError

AFE_GAP = 1e-6     # |AFE - oracle|
TRIG_GAP = 1e-12   # |(2 cos t + 1) cos t - TRIG_MIN| at the minimum and ends
ORTHO_GAP = 0.02   # |exact - main| / main of the family sum of chi_8d(n)
SHIFT_SLACK = 1e-6  # added to the certificates of the shifted contour
RANKIN_GAP = 1e-14  # relative gap of each Rankin mass and square identity
SIEVE_SLACK = 1e-9  # relative slack on Gallagher's C * rhs
KRONECKER_TRIALS = 2000  # random (m, n1, n2) of the multiplicativity check


class CheckFailed(AssertionError):
    """A failed check; ``rows`` holds its rows, if it has any."""

    def __init__(self, message: str, rows: list[dict] = ()):
        super().__init__(message)
        self.rows = list(rows)


def worst(rows: list[dict]) -> dict:
    """The row of largest margin; a NaN margin counts as the largest."""
    return max(rows, key=lambda row: (math.isnan(row["margin"]), row["margin"]))


def _verdict(rows: list[dict], key: str) -> list[dict]:
    for row in rows:
        gap, bound = row["gap"], row["bound"]
        row["margin"] = gap / bound if bound else (0.0 if gap == 0 else math.inf)
    failed = [row for row in rows if not row["gap"] <= row["bound"]]
    if failed:
        row = worst(failed)
        raise CheckFailed(f"{key} = {row[key]}: gap {row['gap']} "
                          f"not <= bound {row['bound']}", rows)
    return rows


def factorization(points, table) -> list[dict]:
    """F(s) as the double sum against zeta(2s+1) G(s) H(s), within both
    certificates; the product takes every point in one call."""
    factored, cert = analytic.F_factored_bounded(
        np.array(points, dtype=complex), table)
    rows = []
    for s, value, c in zip(points, factored.tolist(), cert.tolist()):
        direct, tail = analytic.F_direct(complex(s), table)
        rows.append({"s": s, "direct": direct, "factored": value,
                     "gap": abs(direct - value), "bound": tail + c})
    return _verdict(rows, "s")


def contour(ys, cv: analytic.ContourValue, kernel) -> list[dict]:
    """S(y) by the contour, cv = S_via_contour(ys) as already evaluated for
    a sequence ys, against the lattice sum kernel.S(y), within cv's error
    estimate."""
    rows = []
    for y, value, err in zip(ys, cv.value.tolist(), cv.err_estimate.tolist()):
        direct = kernel.S(y)
        rows.append({"y": y, "contour": value, "direct": direct,
                     "gap": abs(value - direct), "bound": err})
    return _verdict(rows, "y")


def contour_shift(ys, cv: analytic.ContourValue, table) -> list[dict]:
    """The pole's circle plus the shifted line against the right line, cv =
    S_via_contour(ys) as already evaluated for a sequence ys, within cv's
    error estimate, both certificates of the shifted contour and
    SHIFT_SLACK."""
    circle, line = analytic.shifted_contour(ys, table)
    total = circle.value + line.value
    bound = (cv.err_estimate + line.err_estimate + circle.err_estimate
             + SHIFT_SLACK)
    rows = [{"y": y, "shifted": shifted, "contour": right,
             "gap": abs(shifted - right), "bound": b}
            for y, shifted, right, b in zip(ys, total.tolist(),
                                            cv.value.tolist(), bound.tolist())]
    return _verdict(rows, "y")


def central_values(ds) -> list[dict]:
    """L(1/2, chi_8d) by the AFE against the oracle, within AFE_GAP; the
    oracle runs first, so that its guard refuses d > MAX_D_EXACT before any
    AFE work."""
    rows = []
    for d in ds:
        oracle = charsums.dirichlet_l_half(d)
        afe = charsums.afe_central_value(d)
        rows.append({"d": d, "value": afe.value, "oracle": oracle,
                     "tail_bound": afe.tail_bound, "terms": afe.terms,
                     "gap": abs(afe.value - oracle), "bound": AFE_GAP})
    return _verdict(rows, "d")


def orthogonality(ns, D: float) -> list[dict]:
    """The family sum of chi_8d(n), d in (D/2, D], against its main term, for
    odd square n; the gap is the relative error, within ORTHO_GAP."""
    rows = []
    for n in ns:
        exact, main, err = charsums.orthogonality_check(n, D)
        rows.append({"n": n, "exact": exact, "main": main,
                     "gap": abs(err) / main, "bound": ORTHO_GAP})
    return _verdict(rows, "n")


def trig_minimum(npoints: int) -> list[dict]:
    """(2 cos t + 1) cos t on npoints evenly spaced t in [5 pi/6, 7 pi/6]
    against TRIG_MIN, at the grid's ends and minimum, within TRIG_GAP."""
    theta = np.linspace(5 * math.pi / 6, 7 * math.pi / 6, npoints)
    values = analytic.trig_product(theta)
    rows = []
    for i in (0, int(np.argmin(values)), npoints - 1):
        value = float(values[i])
        rows.append({"theta": float(theta[i]), "value": value,
                     "gap": abs(value - analytic.TRIG_MIN), "bound": TRIG_GAP})
    return _verdict(rows, "theta")


def rankin(table) -> list[dict]:
    """Over every band-smooth squarefree n (resonator.band_products), each
    within RANKIN_GAP relative: "mass", sum |r(n)| d(n)/sqrt(n) = prod_p
    (1 + 2|r(p)|/sqrt(p)), and "square_flat" and "square_weighted", sum
    r(n)^2 g(n) = prod_p (1 + r(p)^2 g(p)) for g = 1 and g(p) = p/(p+1);
    then "tail", the mass beyond M1 = sqrt(max n), nonempty and within the
    Rankin bound M1^-alpha prod_p (1 + 2|r(p)| p^(alpha - 1/2)), alpha =
    1/(log log D)^2.  The table must be signed, with at most 20 primes."""
    primes = sorted(set(table.pminus) | set(table.pplus))
    if len(primes) > 20:
        raise AccuracyError(f"{len(primes)} primes; exhaustive check capped at 20")
    if any(p not in table.r_at_prime for p in table.pplus):
        raise resonator.ParamsError("assign signs before the Rankin checks")
    band = [(p, table.r(p)) for p in primes]
    items = list(resonator.band_products(band, math.inf))
    # n is squarefree, so d(n) = 2^(number of its primes)
    mass = [abs(v) * 2 ** len(ps) / math.sqrt(n) for n, v, ps in items]
    rows = []
    for name, terms, factors in (
            ("mass", mass, [1.0 + 2.0 * abs(r) / math.sqrt(p) for p, r in band]),
            ("square_flat", [v * v for _, v, _ in items],
             [1.0 + r ** 2 for _, r in band]),
            ("square_weighted",
             [v * v * math.prod(q / (q + 1.0) for q in ps) for _, v, ps in items],
             [1.0 + r ** 2 * (p / (p + 1.0)) for p, r in band])):
        total, product = math.fsum(terms), math.prod(factors)
        rows.append({"identity": name, "sum": total, "product": product,
                     "gap": abs(total - product) / product, "bound": RANKIN_GAP})
    M1 = math.sqrt(max(n for n, _, _ in items))
    alpha = 1.0 / math.log(math.log(table.params.D)) ** 2
    tail = math.fsum(m for (n, _, _), m in zip(items, mass) if n > M1)
    rank = math.prod(1.0 + 2.0 * abs(r) * p ** (alpha - 0.5) for p, r in band)
    rows.append({"identity": "tail", "gap": tail, "bound": M1 ** -alpha * rank})
    _verdict(rows, "identity")
    if not tail > 0.0:
        raise CheckFailed(f"identity = tail: empty beyond M1 = {M1}, so its "
                          "Rankin bound is vacuous", rows)
    return rows


def gallagher(trials: int, seed: int, sigma: float) -> sieve.SieveReport:
    """Gallagher's sieve inequality lhs <= C * rhs on sieve's seeded random
    Dirichlet polynomials, a row per trial, each lhs within C * rhs * (1 +
    SIEVE_SLACK); returns sieve.sieve_inequality_check's report."""
    report = sieve.sieve_inequality_check(trials, seed, sigma)
    _verdict([{"trial": i, "gap": lhs, "bound": bound * (1.0 + SIEVE_SLACK)}
              for i, (lhs, bound) in enumerate(report.sides)], "trial")
    return report


def kronecker_multiplicativity(seed: int) -> int:
    """kronecker(m, n1 n2) = kronecker(m, n1) kronecker(m, n2), exactly, on
    KRONECKER_TRIALS draws of |m| <= 10^6 and odd n1, n2 < 2 * 10^4 from
    random.Random(seed); returns the number of trials."""
    rng = random.Random(seed)
    for _ in range(KRONECKER_TRIALS):
        m = rng.randrange(-10**6, 10**6)
        n1 = rng.randrange(1, 10**4) * 2 + 1
        n2 = rng.randrange(1, 10**4) * 2 + 1
        whole = arith.kronecker(m, n1 * n2)
        split = arith.kronecker(m, n1) * arith.kronecker(m, n2)
        if whole != split:
            raise CheckFailed(f"m = {m}, n = {n1} * {n2}: "
                              f"kronecker(m, n) = {whole} != {split}")
    return KRONECKER_TRIALS
