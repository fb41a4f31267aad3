"""Dirichlet-series side of the construction.

The double sum behind the diagonal remainder has the Euler product

    F(s) = zeta(2s+1) G(s) H(s),
    H(s) = prod over the low band of (1 + 2 r~(p) p^{-1/2-s}),

with G a tame product (band factors times generic odd-prime factors) whose
logarithm stays bounded to the right of Re(s) = -1/4.  This module carries
both routes to F — the truncated double sum F_direct and the factored
product F_factored_bounded — plus the inverse-Mellin contour evaluation of
S(y) on the right line and on the line shifted past the pole, and the
resonance-gain report.

F_factored_bounded is the one evaluator of zeta(2s+1) G(s) H(s): it takes a
scalar or an array of s, builds zeta as hurwitz_em(2s+1, 1) and H from
H_of_s, and returns a certificate per node.  The contour, the shifted
contour and the resonance report all call it, each with the truncation
point its own accuracy needs; both contours take their lines from one
vertical-line integral, which evaluates phi~ and F once per line for any
number of y.
hurwitz_em is the package's one Euler-Maclaurin routine; the central-value
oracle in charsums takes its Hurwitz values at 1/2 from it too.

Every truncated quantity comes with an explicit tail certificate; agreement
tests compare gaps against combined certificates, never against wishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import arith, resonator, smoothing
from .resonator import CoefficientTable, ResonatorParams
from .smoothing import AccuracyError


class VanishingFactor(ZeroDivisionError):
    def __init__(self, p: int):
        super().__init__(f"Euler factor vanishes at p = {p}")
        self.p = p


# --------------------------------------------------------------------------
# Hurwitz zeta by Euler-Maclaurin
# --------------------------------------------------------------------------

# B_2, B_4, ..., B_24 as exact rationals
_BERNOULLI_2K = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
                 -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
                 -236364091 / 2730)


def hurwitz_em(s, x, N: int, K: int):
    """(zeta(s, x), remainder bound) by Euler-Maclaurin: the direct terms
    (k + x)^(-s), k < N, then K Bernoulli terms at w = N + x.  s and x
    broadcast against each other; a scalar s and x give a scalar pair.
    zeta(s) is zeta(s, 1) with N - 1 direct terms.

    The direct part adds one term per k, each computed in one scratch array
    the size of the result, so a call holds a few such arrays, and every
    element goes through the same operations in the same order whatever
    the shape it comes in.  So for a scalar s, or for complex s, a node's
    value does not depend on its neighbours.  An element of a real array s
    can differ by an ulp from the scalar call: numpy takes a power with a
    scalar exponent such as 1/2 by a shortcut (sqrt) that may round
    otherwise than its general power.  The remainder is at most

        |first omitted term| * |s + 2K + 1| / (sigma + 2K + 1),

    valid for sigma = Re(s) > -2K (H. Cohen, Number Theory Vol. II, ch. 9;
    F. Johansson, Numer. Algorithms 69 (2015)).  Raises ZeroDivisionError
    at the pole s = 1, AccuracyError for sigma <= -2K + 1 and ValueError
    for x <= 0.
    """
    scalar = np.ndim(s) == 0 and np.ndim(x) == 0
    s, x = np.asarray(s), np.atleast_1d(x)
    if np.any(s == 1):
        raise ZeroDivisionError("pole of zeta at s = 1")
    if np.any(s.real <= -2 * K + 1):
        raise AccuracyError(f"Re(s) = {s.real.min()} too far left for K = {K}")
    if np.any(x <= 0):
        raise ValueError(f"need x > 0, got x = {x.min()}")
    base = x ** (-s)
    t = np.empty_like(base)
    for k in range(1, N):
        np.add(k, x, out=t)
        np.power(t, -s, out=t)
        base += t
    w = N + x
    out = base + w ** (1 - s) / (s - 1) + 0.5 * w ** (-s)
    # an array even for a scalar s: numpy's scalar arithmetic rounds
    # complex products otherwise than its array loops do
    poch = np.atleast_1d(s)
    fact = 1.0
    for j in range(1, K + 1):
        fact *= (2 * j - 1) * (2 * j)
        out += _BERNOULLI_2K[j - 1] / fact * poch * w ** (-s - 2 * j + 1)
        poch = poch * (s + 2 * j - 1) * (s + 2 * j)
    fact *= (2 * K + 1) * (2 * K + 2)
    bound = (np.abs(_BERNOULLI_2K[K] / fact * poch) * w ** (-s.real - 2 * K - 1)
             * np.abs(s + 2 * K + 1) / (s.real + 2 * K + 1))
    if scalar:
        return out.item(), bound.item()
    return out, bound


# --------------------------------------------------------------------------
# the factored series
# --------------------------------------------------------------------------

def H_of_s(s, table: CoefficientTable):
    """Finite low-band product prod (1 + 2 r~(p) p^{-1/2-s}), for a scalar s
    or elementwise over an array of s."""
    s = np.asarray(s, dtype=complex)
    out = np.ones(s.shape, dtype=complex)
    for p in table.pminus:
        f = 1.0 + 2.0 * resonator.r_tilde(p, table) * p ** (-0.5 - s)
        if np.any(f == 0):
            raise VanishingFactor(p)
        out = out * f
    return complex(out) if s.ndim == 0 else out


@lru_cache(maxsize=8)
def _odd_primes_to(pmax: int) -> np.ndarray:
    return arith.primes_up_to(pmax)[1:].astype(np.int64)


def _g_tail_pmax(sigma: float, accuracy: float) -> int:
    """Smallest truncation point with tail sum of |log factor| <= accuracy.

    Each omitted log factor is at most 2 p^{-2 sigma - 2} in modulus, and
    summing that over all integers beyond P gives P^{-2 sigma - 1} * 2 /
    (2 sigma + 1).
    """
    e = 2.0 * sigma + 1.0
    if e <= 0:
        raise AccuracyError(f"Re(s) = {sigma} at or left of the -1/4 line")
    pmax = (2.0 / (e * accuracy)) ** (1.0 / e)
    if pmax > 2_000_000:
        raise AccuracyError(
            f"G tail needs primes to {pmax:.3e} > cap 2000000 for accuracy "
            f"{accuracy:.1e} at Re(s) = {sigma}")
    return max(int(pmax) + 1, 100)


# complex elements per block of the generic-prime sum: each temporary of a
# block is 4 MiB, whatever the number of nodes
_BLOCK = 1 << 18


def F_factored_bounded(s, table: CoefficientTable, pmax: int = 200_000):
    """zeta(2s+1) G(s) H(s) for a scalar s or elementwise over an array of
    s, with G the compensating product

        prod_{band p} (1 - p^{-2s-2} / (((p+1)/p + r(p)^2)(1 + 2 r~(p) p^{-1/2-s})))
        * prod_{odd p <= pmax outside the band} (1 - 1/((p+1) p^{2s+1})).

    Returns the value and an absolute certificate per node.  Truncating the
    generic product at pmax moves log G by at most tail = 2 pmax^{-2 sigma
    - 1} / (2 sigma + 1) (the bound _g_tail_pmax inverts), and zeta, taken
    from hurwitz_em with 49 direct terms and 10 Bernoulli terms, carries
    its remainder zb, so the certificate is

        |zeta G H| (e^tail - 1) + zb |G H| e^tail.

    Raises AccuracyError for Re(s) <= -1/4 + 0.01, where log G is no longer
    bounded.
    """
    s = np.asarray(s, dtype=complex)
    if np.any(s.real <= -0.25 + 0.01):
        raise AccuracyError(f"Re(s) = {s.real.min()} too close to the -1/4 line")
    w = 2 * s + 1
    zv, zb = hurwitz_em(w, 1.0, 49, 10)
    # H_of_s raises VanishingFactor where 1 + 2 r~(p) p^{-1/2-s} is zero,
    # the only way a band factor's denominator can vanish
    h = H_of_s(s, table)
    logg = np.zeros(s.shape, dtype=complex)
    for p in table.pminus:
        rt = resonator.r_tilde(p, table)
        rp = table.r(p)
        denom = ((p + 1.0) / p + rp * rp) * (1.0 + 2.0 * rt * p ** (-0.5 - s))
        logg += np.log(1.0 - p ** (-2 * s - 2) / denom)
    primes = _odd_primes_to(pmax)
    primes = primes[~np.isin(primes, table.pminus)].astype(float)
    step = max(1, _BLOCK // max(w.size, 1))
    generic = np.zeros(w.size, dtype=complex)
    for i in range(0, primes.size, step):
        q = primes[i:i + step, None]
        generic += np.sum(
            np.log(1.0 - 1.0 / ((q + 1.0) * np.exp(w.ravel() * np.log(q)))),
            axis=0)
    gh = np.exp(logg + generic.reshape(s.shape)) * h
    tail = 2.0 * float(pmax) ** -w.real / w.real
    value = zv * gh
    cert = np.abs(value) * (np.exp(tail) - 1.0) + zb * np.abs(gh) * np.exp(tail)
    if s.ndim == 0:
        return complex(value), float(cert)
    return value, cert


@lru_cache(maxsize=8)
def _divisor_lattice(params: ResonatorParams, band: tuple, ell_max: float,
                     m_max: int):
    """The s-independent data of F_direct, keyed on all that fixes it: the
    schedule (every beta_p), the band primes with r~(p), and both cutoffs.

    Returns log l and r~(l) d(l)/sqrt(l) for the kept l; b(m, 1) for
    m <= m_max; the distinct divisors e <= m_max of the kept l; the
    (l, e) pairs with g(e); and prod(1 + 2|r~(p)|/sqrt(p)).
    """
    bfull = resonator.b_sieve(params, m_max)
    ells = list(resonator.band_products(
        tuple((p, 2.0 * rt) for p, rt in band), ell_max))
    # g(e) = prod_{p | e} (1/beta_p - 1) over the odd squarefree e | l
    ginv = {p: 1.0 / resonator.b_prime_factor(p, params) - 1.0
            for p, _ in band if p != 2}
    index: dict[int, int] = {}
    pair_ell, pair_e, pair_g = [], [], []
    for i, (_, _, ps) in enumerate(ells):
        divs = [(1, 1.0)]
        for p in ps:
            if p in ginv:
                divs += [(e * p, g * ginv[p]) for e, g in divs if e * p <= m_max]
        for e, g in divs:
            pair_ell.append(i)
            pair_e.append(index.setdefault(e, len(index)))
            pair_g.append(g)
    big = math.prod(1.0 + 2.0 * abs(rt) / math.sqrt(p) for p, rt in band)
    return (np.log([e for e, _, _ in ells]),
            np.array([w / math.sqrt(e) for e, w, _ in ells]),
            bfull, tuple(index), np.array(pair_ell), np.array(pair_e),
            np.array(pair_g), big)


# F_direct's cutoffs: band products l <= _ELL_MAX, inner m <= _M_MAX
_ELL_MAX = 1e6
_M_MAX = 20_000


def F_direct(s: complex, table: CoefficientTable):
    """(value, tail) of the double sum

        F(s) = sum_l c_l l^{-s} sum_{m <= m_max} b(m, l) m^{-1-2s},
        c_l = r~(l) d(l) / sqrt(l),

    over squarefree band products l <= ell_max, with ell_max = _ELL_MAX
    and m_max = _M_MAX, and with an honest tail certificate:

        tail <= (sum_l kept |c_l| l^{-sigma}) * m_max^{-2 sigma} / (2 sigma)
              + ell_max^{-sigma} * prod(1 + 2 |r~(p)| / sqrt(p)).

    The inner sums come from one divisor lattice.  With beta_p =
    b_prime_factor(p), b(m, l) = b(m, 1) prod_{odd p | (m, l)} 1/beta_p, and
    expanding that product over the divisors e of l gives

        sum_m b(m, l) m^{-1-2s} = sum_{e | l} g(e) A(e),
        g(e) = prod_{p | e} (1/beta_p - 1),
        A(e) = sum_{e | m <= m_max} b(m, 1) m^{-1-2s}.

    Every beta_p lies in (0, 1): its numerator (p/(p+1))(1 + r_-(p)^2) is
    below its denominator 1 + r_-(p)^2 p/(p+1).  So g(e) > 0, and the
    expansion adds positive multiples of the A(e), with no cancellation.
    Only e <= m_max contribute.  The l list, the (l, e) pairs, g and
    b(m, 1) do not depend on s and are built once per table and cutoffs;
    each s then costs one strided sum per distinct e and one sum over the
    (l, e) pairs.

    Usable only to the right of Re(s) = 0.05; the m-tail decays like
    m_max^{-2 sigma}, so do not expect miracles near the boundary.
    """
    s = complex(s)
    sigma = s.real
    if sigma < 0.05:
        raise AccuracyError(f"direct sum needs Re(s) >= 0.05, got {sigma}")
    band = tuple((p, resonator.r_tilde(p, table)) for p in sorted(table.pminus))
    (log_ell, weight, bfull, divisors, pair_ell, pair_e, pair_g,
     big) = _divisor_lattice(table.params, band, _ELL_MAX, _M_MAX)
    mpow = np.zeros(bfull.size, dtype=complex)
    mpow[1:] = np.arange(1, bfull.size, dtype=float) ** (-(1.0 + 2.0 * s))
    bm = bfull * mpow
    A = np.array([np.sum(bm[e::e]) for e in divisors])
    c = weight * np.exp(-s * log_ell)
    # np.sum, not np.dot: BLAS reduces a dot in an order that depends on
    # its thread count, and the value must not
    total = complex(np.sum(c[pair_ell] * pair_g * A[pair_e]))

    abs_c = np.abs(weight) * np.exp(-sigma * log_ell)
    m_tail = math.fsum(abs_c.tolist()) * _M_MAX ** (-2 * sigma) / (2 * sigma)
    ell_tail = _ELL_MAX ** (-sigma) * big
    return total, m_tail + ell_tail


# --------------------------------------------------------------------------
# contour evaluation of S(y)
# --------------------------------------------------------------------------

_SIGMA_LINE = 0.25     # the right line Re(s) = 1/4
_LINE_ACCURACY = 1e-7  # the log tail of G on the right line
_TMAX = 200.0          # both lines end at |t| = 200
_N_CIRCLE = 512        # trapezoid points on the circle around the pole


def _vertical_line(ys, sigma: float, table: CoefficientTable, g_acc: float):
    """int_0^200 of Re and of |.| of y^s phi~(s) F(s), s = sigma + it, as
    arrays over ys, and F on the nodes.  phi~ and F (G's log tail g_acc) are
    evaluated once; each y keeps its own dot, as a matrix product would
    reassociate the sums."""
    nodes, weights = smoothing.vertical_line_nodes(_TMAX)
    s = sigma + 1j * nodes
    mell = smoothing.mellin_phi(s)
    fv, _ = F_factored_bounded(s, table, _g_tail_pmax(sigma, g_acc))
    re_int, abs_int = [], []
    for y in ys:
        integ = np.exp(s * math.log(y)) * mell * fv
        re_int.append(np.dot(weights, np.real(integ)))
        abs_int.append(np.dot(weights, np.abs(integ)))
    return np.array(re_int), np.array(abs_int), fv


@dataclass(frozen=True)
class ContourValue:
    value: float | np.ndarray
    err_estimate: float | np.ndarray


def S_via_contour(y, table: CoefficientTable) -> ContourValue:
    """S(y) as (1/2 pi i) int y^s phi~(s) F(s) ds on Re(s) = 1/4, with F
    evaluated through the factorization.  Dual route to the direct
    lattice sum; the error estimate combines the quadrature tail (decay of
    phi~ beyond |t| = 200) with the G truncation certificate.

    y is a scalar, giving float fields, or an array of y, giving arrays;
    phi~ and F are evaluated once per call, whatever the number of y.
    """
    ys = [float(v) for v in np.atleast_1d(y)]
    re_int, _, fv = _vertical_line(ys, _SIGMA_LINE, table, _LINE_ACCURACY)
    tail_phi = abs(smoothing.mellin_phi(complex(_SIGMA_LINE, _TMAX)))
    supf = float(np.max(np.abs(fv)))
    bound = tail_phi * supf * 10.0 + 2 * _TMAX * _LINE_ACCURACY * supf
    # even in t by Schwarz reflection: double the t > 0 half-line
    value = re_int / math.pi
    err = np.array([v ** _SIGMA_LINE for v in ys]) * bound / math.pi
    if np.ndim(y) == 0:
        return ContourValue(float(value[0]), float(err[0]))
    return ContourValue(value, err)


def shifted_contour(ys, table: CoefficientTable
                    ) -> tuple[ContourValue, ContourValue]:
    """The right line moved to Re(s) = -1/(log log D)^2, as arrays over ys:
    a small circle around the pole at s = 0 and the shifted line, each with
    its certificate.  Their sum is S(y), the value S_via_contour takes on
    Re(s) = 1/4.  F is evaluated once on the circle, 512 trapezoid points
    of radius min(1/log max(x, max ys, 3), 0.15), and once on the shifted
    line, where G is cut at a log tail of 1e-3."""
    params = table.params
    ys = [float(v) for v in ys]
    lld2 = math.log(math.log(params.D)) ** 2
    sigma_left = -1.0 / lld2
    if sigma_left <= -0.24:
        raise AccuracyError("shifted line is left of the G domain")
    # any circle around the pole works; clamp to stay inside the G domain
    rho = min(1.0 / math.log(max(params.x, *ys, 3.0)), 0.15)

    # closed circle, trapezoid (spectrally accurate for a contour integral)
    th = np.arange(_N_CIRCLE) * (2 * math.pi / _N_CIRCLE)
    s = rho * np.exp(1j * th)
    mell = smoothing.mellin_phi(s)
    fv, fcert = F_factored_bounded(s, table)
    circ_cert = rho * float(np.max(fcert)) * float(np.max(np.abs(mell)))
    circ = [np.mean(np.exp(s * math.log(y)) * mell * fv * s).real for y in ys]

    g_acc = 1e-3  # the shifted line sits near the domain edge; tail is costly
    re_int, abs_int, _ = _vertical_line(ys, sigma_left, table, g_acc)
    # truncating log G at accuracy g_acc perturbs each node relatively;
    # weight that by the decaying integrand rather than its sup
    line_cert = (math.exp(g_acc) - 1.0) * abs_int / math.pi
    return (ContourValue(np.array(circ), np.full(len(ys), circ_cert)),
            ContourValue(re_int / math.pi, line_cert))


# --------------------------------------------------------------------------
# resonance gain
# --------------------------------------------------------------------------

def trig_product(theta):
    """(2 cos t + 1) cos t for a scalar or elementwise over an array of t;
    equals 1 + cos t + cos 2t pointwise."""
    c = np.cos(theta)
    return (2.0 * c + 1.0) * c


TRIG_MIN = (3.0 - math.sqrt(3.0)) / 2.0  # min over [5 pi/6, 7 pi/6], at the endpoints


@dataclass(frozen=True)
class ResonanceReport:
    t_center: float
    t_best: float
    ratio: float
    log_ratio: float
    band_sum: float
    trig_min_observed: float


def resonance_bound(table: CoefficientTable) -> ResonanceReport:
    """Evaluate |F(sigma + it)|^2 / prod(1 + 2|r~(p)|/sqrt(p)) on 41 points
    of t within 1/(log log D)^2 of the resonance point t = 1/(2 log L),
    sigma = 1/(log x)^2, and the band sum
    sum_p (1 + cos theta_p + cos 2 theta_p)/(p log p), with
    theta_p = log p / (2 log L) in [5 pi/6, 7 pi/6).
    The trig identity makes every band summand at least (3 - sqrt(3))/2
    divided by p log p.
    """
    params = table.params
    t0 = 1.0 / (2.0 * math.log(params.L))
    t_window = 1.0 / math.log(math.log(params.D)) ** 2
    sigma = 1.0 / math.log(params.x) ** 2
    denom = 1.0
    for p in table.pminus:
        denom *= 1.0 + 2.0 * abs(resonator.r_tilde(p, table)) / math.sqrt(p)
    ts = np.linspace(t0 - t_window, t0 + t_window, 41)
    fv, _ = F_factored_bounded(sigma + 1j * ts, table, _g_tail_pmax(sigma, 1e-6))
    ratios = np.abs(fv) ** 2 / denom
    i = int(np.argmax(ratios))
    theta = {p: math.log(p) / (2.0 * math.log(params.L)) for p in table.pminus}
    band_sum = math.fsum(
        trig_product(theta[p]) / (p * math.log(p)) for p in table.pminus)
    tmin = min(trig_product(theta[p]) for p in table.pminus)
    return ResonanceReport(t0, float(ts[i]), float(ratios[i]),
                           math.log(float(ratios[i])), band_sum, tmin)
