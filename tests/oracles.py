"""Reference routes that only tests call: slow or fitted second routes to
package values, kept out of the package that the commands run."""

import math
from dataclasses import dataclass

import numpy as np

from reslab import analytic, arith, charsums, sieve, smoothing
from reslab.resonator import CoefficientTable, WorkEstimateError
from reslab.sieve import DirichletPolynomial


def numerator_exact_triple(table: CoefficientTable) -> float:
    """Tiny-instance oracle: the numerator as the support-outer triple sum

        sum_{l1, l2} r(l1) r(l2) sum_n phi(n/x)/sqrt(n)
            sum_d mu^2(2d) chi_{8d}(l1 l2 n).

    Exponentially slower than the d-outer loop; guarded accordingly.
    """
    if table.support is None:
        raise ValueError("support not enumerated")
    D, x = table.params.D, table.params.x
    if D > 500 or len(table.support) > 16 or x > 50:
        raise WorkEstimateError("triple-sum oracle is for tiny instances only")
    lo, hi = int(D // 2) + 1, int(D)
    ds = [d for d in range(lo | 1, hi + 1, 2) if arith.is_squarefree(d)]
    total = []
    for l1, r1 in table.support:
        for l2, r2 in table.support:
            for n in range(1, int(2 * x) + 1):
                w = smoothing.phi(n / x)
                if w == 0.0:
                    continue
                csum = sum(arith.kronecker(8 * d, l1 * l2 * n) for d in ds)
                if csum:
                    total.append(r1 * r2 * w / math.sqrt(n) * csum)
    return math.fsum(total)


def derivative_bound_check(y: float, kernel: charsums.PartialSumKernel
                           ) -> tuple[float, float]:
    """(lhs, rhs) with lhs = |y dS/dy| and rhs = C_phi * S*(y)."""
    lhs = abs(kernel.y_dS(y))
    rhs = smoothing.c_phi() * kernel.S_star(y)
    return lhs, rhs


@dataclass(frozen=True)
class Sigma2BoundReport:
    circle_sup_H: float
    circle_sup_relog_H: float
    line_sup_H: float
    C: float


def sigma2_bound_check(table: CoefficientTable, y_grid,
                       kernel_S) -> Sigma2BoundReport:
    """Both terms of the contour-shift bound for S(y):

        |S(y)| <= C * log(max(x, y)) * sup_{|s| = 1/log max(x,y)} |H|
                + C * (llD)^2 exp(-log y / (llD)^2) * sup_line |H|,

    llD = log log D.  Fits the smallest C making the bound hold on the
    grid and reports it with the sups.
    """
    params = table.params
    lld2 = math.log(math.log(params.D)) ** 2
    sigma_left = -1.0 / lld2
    th = np.linspace(0, 2 * math.pi, 257)
    rho = np.array([1.0 / math.log(max(params.x, y, 3.0)) for y in y_grid])
    circle = np.abs(analytic.H_of_s(rho[:, None] * np.exp(1j * th), table))
    sup_c = float(np.max(circle))
    relog = float(np.max(np.log(circle)))
    ts = np.linspace(-50, 50, 501)
    sup_l = float(np.max(np.abs(analytic.H_of_s(sigma_left + 1j * ts, table))))

    def bound(y):
        t1 = math.log(max(params.x, y)) * sup_c
        t2 = lld2 * math.exp(-math.log(y) / lld2) * sup_l
        return t1 + t2

    c = max(abs(kernel_S(y)) / bound(y) for y in y_grid)
    return Sigma2BoundReport(sup_c, relog, sup_l, c)


# The Gallagher trials' former stream: numpy's default_rng(seed).  The
# package now draws them from random.Random(seed); the values this stream
# froze stay checked through the package's public integrals.
_MAX_LEN = 50  # terms of a random trial polynomial, at most


def random_polynomial(rng: np.random.Generator) -> DirichletPolynomial:
    """1 to _MAX_LEN terms; coefficients uniform on the unit disk;
    2 <= n <= 10^4 without replacement (n = 1 sits below the y-integral's
    support at dyadic scale, so trials stay inside the lemma's regime)."""
    length = int(rng.integers(1, _MAX_LEN + 1))
    ns = rng.choice(np.arange(2, 10_001), size=length, replace=False)
    r = np.sqrt(rng.uniform(0.0, 1.0, size=length))
    th = rng.uniform(0.0, 2.0 * math.pi, size=length)
    return DirichletPolynomial.from_pairs(
        zip(ns.tolist(), (r * np.exp(1j * th)).tolist()))


def numpy_stream_ratios(trials: int, seed: int, sigma: float) -> list[float]:
    """lhs / (constant * rhs) for each of the trials that
    sieve.sieve_inequality_check drew from np.random.default_rng(seed)."""
    report = sieve.admissible_alpha()
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(trials):
        P = random_polynomial(rng)
        ratios.append(sieve.lhs_integral(P, report.alpha)
                      / (report.constant * sieve.rhs_integral(P, sigma)))
    return ratios
