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
scalar or an array of s and returns a certificate per node.  With w = 2s +
2 it takes G's generic primes p <= _P0 = 400 directly, the brackets
log(1 - y_p) + p^{-w} - p^{-w-1} directly up to _P1 = 1000, and P(z) =
sum_{p > _P0} p^{-z} at z = w and w + 1 as sum_{m <= _M} mu(m)/m log
zeta_{>_P0}(m z), _M = 3, with zeta(2s+1) and every zeta(m z) from one
hurwitz_em call at N = "auto".  The certificate bounds the Euler-Maclaurin
remainders, the bracket tail beyond _P1 and the omitted m-terms.  The
contour, the shifted contour and the resonance report all call it; both
contours take their lines from one vertical-line integral, which evaluates
phi~ and F once per line for any number of y and weights F's certificate
node by node.
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


def hurwitz_em(s, x, N: int | str, K: int):
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
    F. Johansson, Numer. Algorithms 69 (2015)).

    N = "auto" takes per element the least N >= 1 whose bound is at most
    _EM_TARGET: the bound is an N-free factor times w^(-sigma - 2K - 1),
    so it falls as N grows.  The elements are sorted by N, and the k-th
    direct term goes to those whose N exceeds k, so max N passes serve
    every N; each element's value and bound are those of the call with its
    own N, for complex s.  Raises ZeroDivisionError at the pole s = 1,
    AccuracyError for sigma <= -2K + 1 and ValueError for x <= 0.
    """
    scalar = np.ndim(s) == 0 and np.ndim(x) == 0
    s, x = np.asarray(s), np.atleast_1d(x)
    if np.any(s == 1):
        raise ZeroDivisionError("pole of zeta at s = 1")
    if np.any(s.real <= -2 * K + 1):
        raise AccuracyError(f"Re(s) = {s.real.min()} too far left for K = {K}")
    if np.any(x <= 0):
        raise ValueError(f"need x > 0, got x = {x.min()}")
    if N == "auto":
        s, x = np.broadcast_arrays(s, x)
        N = _least_n(s, x, K)
        base = _direct_by_n(s, x, N)
    else:
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


# hurwitz_em's remainder target under N = "auto"
_EM_TARGET = 1e-16


def _least_n(s, x, K: int) -> np.ndarray:
    """Per element the least N >= 1 whose hurwitz_em bound, formed as
    hurwitz_em forms it, is at most _EM_TARGET: the closed-form inverse of
    the bound, then moved by one while the bound disagrees."""
    poch = np.atleast_1d(s)
    fact = 1.0
    for j in range(1, K + 1):
        fact *= (2 * j - 1) * (2 * j)
        poch = poch * (s + 2 * j - 1) * (s + 2 * j)
    fact *= (2 * K + 1) * (2 * K + 2)
    lead = np.abs(_BERNOULLI_2K[K] / fact * poch)
    edge = np.abs(s + 2 * K + 1)
    e = s.real + 2 * K + 1

    def bound(n):
        return lead * (n + x) ** (-s.real - 2 * K - 1) * edge / e

    guess = (lead * edge / e / _EM_TARGET) ** (1.0 / e) - x
    n = np.maximum(1, np.ceil(guess)).astype(np.int64)
    while np.any(up := bound(n) > _EM_TARGET):
        n += up
    while np.any(down := (n > 1) & (bound(n - 1) <= _EM_TARGET)):
        n -= down
    return n


def _direct_by_n(s, x, N):
    """sum_{k < N} (k + x)^(-s) per element, in one pass per k over the
    elements, sorted by N, whose N exceeds k."""
    order = np.argsort(-N.ravel(), kind="stable")
    ss, xs, ns = s.ravel()[order], x.ravel()[order], N.ravel()[order]
    part = xs ** (-ss)
    t = np.empty_like(part)
    for k in range(1, int(ns[0]) if ns.size else 0):
        c = int(np.searchsorted(-ns, -k, side="left"))
        np.add(k, xs[:c], out=t[:c])
        np.power(t[:c], -ss[:c], out=t[:c])
        part[:c] += t[:c]
    base = np.empty_like(part)
    base[order] = part
    return base.reshape(s.shape)


# --------------------------------------------------------------------------
# the factored series
# --------------------------------------------------------------------------

def H_of_s(s, table: CoefficientTable):
    """Finite low-band product prod (1 + 2 r~(p) p^{-1/2-s}), for a scalar s
    or elementwise over an array of s.  A scalar s is a one-element array
    here, as numpy's scalar power rounds otherwise than its array loop, so
    a node's value does not depend on its neighbours."""
    scalar = np.ndim(s) == 0
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    out = np.ones(s.shape, dtype=complex)
    for p in table.pminus:
        f = 1.0 + 2.0 * resonator.r_tilde(p, table) * p ** (-0.5 - s)
        if np.any(f == 0):
            raise VanishingFactor(p)
        out = out * f
    return complex(out[0]) if scalar else out


# the generic primes of G: p <= _P0 directly, the bracket log(1 - y_p) +
# p^-w - p^{-w-1} directly for _P0 < p <= _P1, and sum_{p > _P0} p^-z at
# z = w and w + 1 through the prime zeta function with the m-terms m <= _M
_P0 = 400
_P1 = 1000
_M = 3


@lru_cache(maxsize=8)
def _euler_primes(band: tuple, p0: int, p1: int, m_max: int) -> tuple:
    """log p and 1/p over the primes p <= p1 and the band primes beyond
    them; which of them are <= p0, and which are generic (odd, outside the
    band), with p/(p+1) for those; mu(m) for m <= m_max."""
    primes = np.array(sorted(set(arith.primes_up_to(p1).tolist()) | set(band)))
    generic = (primes != 2) & ~np.isin(primes, band)
    factors = [arith.factorize(m) for m in range(1, m_max + 1)]
    mu = tuple(0 if any(e > 1 for _, e in f) else (-1) ** len(f)
               for f in factors)
    p = primes.astype(float)
    return (np.log(p), 1.0 / p, primes <= p0, generic,
            p[generic] / (p[generic] + 1.0), mu)


# complex elements per block of the (node, prime) passes: each temporary of
# a block is 1 MiB, whatever the number of nodes
_BLOCK = 1 << 16


def _prime_passes(w, band: tuple):
    """Over the nodes w, for the primes _euler_primes lists: prod_{p <= _P0}
    (1 - p^{-m z}) for z = w, w + 1 and m <= _M; sum_{p > _P0} (p^{-w} -
    p^{-w-1}); prod (1 - p^{-w} p/(p+1)) over the generic primes; and
    mu(m).  A block holds whole rows, one node each, and every row is
    reduced in prime order by a running sum or product (np.sum and np.prod
    may reduce a lone row in another order than many rows), so a node's
    values do not depend on the other nodes."""
    lp, inv, low, generic, ratio, mu = _euler_primes(band, _P0, _P1, _M)
    flat = w.ravel()
    removed = np.empty((2, _M, flat.size), dtype=complex)
    beyond = np.empty(flat.size, dtype=complex)
    direct = np.empty(flat.size, dtype=complex)
    step = max(1, _BLOCK // lp.size)
    for i in range(0, flat.size, step):
        u = np.exp(-flat[i:i + step, None] * lp)
        for shift in (0, 1):  # z = w + shift
            power = small = u[:, low] * inv[low] ** shift
            for m in range(_M):
                removed[shift, m, i:i + step] = np.cumprod(1.0 - power,
                                                           axis=1)[:, -1]
                power = power * small
        beyond[i:i + step] = np.cumsum(u[:, ~low] * (1.0 - inv[~low]),
                                       axis=1)[:, -1]
        direct[i:i + step] = np.cumprod(1.0 - u[:, generic] * ratio,
                                        axis=1)[:, -1]
    return (removed.reshape((2, _M) + w.shape), beyond.reshape(w.shape),
            direct.reshape(w.shape), mu)


def F_factored_bounded(s, table: CoefficientTable):
    """zeta(2s+1) G(s) H(s) for a scalar s or elementwise over an array of
    s, with G the compensating product

        prod_{band p} (1 - p^{-2s-2} / (((p+1)/p + r(p)^2)(1 + 2 r~(p) p^{-1/2-s})))
        * prod_{odd p outside the band} (1 - y_p),  y_p = p^{-w} p / (p + 1),

    w = 2s + 2.  Returns the value and an absolute certificate per node.
    Over the primes outside the band, y_p = p^{-w} - p^{-w-1} + O(p^{-w-2}),
    and the generic product is taken as

        prod_{p <= _P1} (1 - y_p)
        * exp(sum_{_P0 < p <= _P1} (p^{-w} - p^{-w-1}) - P(w) + P(w + 1)),

    P(z) = sum_{p > _P0} p^{-z}, which leaves out only the brackets
    log(1 - y_p) + p^{-w} - p^{-w-1} of the primes p > _P1.  P is the prime
    zeta tail (H. Cohen 1998; S. Ettahri, O. Ramare, L. Surel, Math. Comp.
    90 (2021))

        P(z) = sum_{m >= 1} mu(m)/m log zeta_{>_P0}(m z),
        zeta_{>_P0}(z) = zeta(z) prod_{p <= _P0} (1 - p^{-z}),

    kept for m <= _M, with the band primes beyond _P0 put back; zeta(2s+1)
    and zeta(m z) come from one hurwitz_em call with N = "auto" and 10
    Bernoulli terms.  With x = Re w, log G carries three errors, each
    bounded per node:

    - the Euler-Maclaurin remainders: bound b of zeta(m z) moves
      log zeta_{>_P0}(m z) by at most b E / (|zeta E| - b), E the finite
      product, weighted by 1/m;
    - the bracket tail: |log(1 - y) + p^{-w} - p^{-w-1}| <= p^{-x-2} +
      |y|^2 / (2 (1 - |y|)), |y| <= p^{-x}, summed over the integers beyond
      _P1, is at most _P1^{-x-1}/(x+1) + _P1^{1-2x} / (2 (2x - 1)(1 -
      _P1^{-x}));
    - the omitted m-terms: |log zeta_{>_P0}(m z)| <= _P0^{1-mX} / ((mX -
      1)(1 - _P0^{-mX})), X = Re z, and each next term is at most _P0^{-X}
      times the last.

    With eps their sum and zb the remainder of zeta(2s+1), the certificate
    is |zeta G H| (e^eps - 1) + zb |G H| e^eps; like hurwitz_em's bound, it
    bounds truncation, not rounding.  Each prime takes one complex exp per
    node, in the same order whatever the number of nodes, so a node's value
    does not depend on its neighbours.  Raises AccuracyError for Re(s) <=
    -1/4 + 0.01, where log G is no longer bounded.
    """
    scalar = np.ndim(s) == 0
    s = np.atleast_1d(np.asarray(s, dtype=complex))
    if np.any(s.real <= -0.25 + 0.01):
        raise AccuracyError(f"Re(s) = {s.real.min()} too close to the -1/4 line")
    w = 2 * s + 2
    zv, zb = hurwitz_em(np.stack([w - 1] + [m * (w + shift) for shift in (0, 1)
                                            for m in range(1, _M + 1)]),
                        1.0, "auto", 10)
    # H_of_s raises VanishingFactor where 1 + 2 r~(p) p^{-1/2-s} is zero,
    # the only way a band factor's denominator can vanish
    h = H_of_s(s, table)
    logg = np.zeros(s.shape, dtype=complex)
    for p in table.pminus:
        rt = resonator.r_tilde(p, table)
        rp = table.r(p)
        denom = ((p + 1.0) / p + rp * rp) * (1.0 + 2.0 * rt * p ** (-0.5 - s))
        logg += np.log(1.0 - p ** (-2 * s - 2) / denom)
    removed, beyond, direct, mu = _prime_passes(w, tuple(sorted(table.pminus)))
    logg += beyond
    x = w.real
    em = omitted = 0.0
    for shift in (0, 1):  # P(w) and P(w + 1)
        X = x + shift
        for m in range(_M):
            row = 1 + shift * _M + m
            tail = zv[row] * removed[shift, m]
            logg -= (-1) ** shift * mu[m] / (m + 1) * np.log(tail)
            moved = zb[row] * np.abs(removed[shift, m])
            em = em + moved / (np.abs(tail) - moved) / (m + 1)
        mx = (_M + 1) * X
        omitted = omitted + (_P0 ** (1 - mx) / ((mx - 1) * (1 - _P0 ** -mx))
                             / (_M + 1) / (1 - _P0 ** -X))
    bracket = (_P1 ** (-x - 1) / (x + 1)
               + _P1 ** (1 - 2 * x) / (2 * (2 * x - 1) * (1 - _P1 ** -x)))
    eps = em + bracket + omitted
    gh = np.exp(logg) * direct * h
    value = zv[0] * gh
    cert = np.abs(value) * np.expm1(eps) + zb[0] * np.abs(gh) * np.exp(eps)
    if scalar:
        return complex(value[0]), float(cert[0])
    return value, cert


@lru_cache(maxsize=8)
def _divisor_lattice(params: ResonatorParams, band: tuple, ell_max: float,
                     m_max: int):
    """The s-independent data of F_direct, keyed on all that fixes it: the
    schedule (every beta_p), the band primes with r~(p), and both cutoffs.

    Returns log l and r~(l) d(l)/sqrt(l) for the kept l; log m and
    b(m, 1) for 1 <= m <= m_max; the multiples m <= m_max of each distinct
    divisor e <= m_max of the kept l, one run per e, as indices m - 1,
    with where each run starts; the (l, e) pairs with g(e); and
    prod(1 + 2|r~(p)|/sqrt(p)).
    """
    bfull = resonator.b_sieve(params, m_max)
    ells = list(resonator.band_products(
        tuple((p, 2.0 * rt) for p, rt in band), ell_max))
    values = np.array([e for e, _, _ in ells], dtype=np.int64)
    # the candidate divisors: the squarefree e <= m_max of the odd band
    # primes, with g(e) = prod_{p | e} (1/beta_p - 1); each pairs with the
    # kept l it divides, and one that divides none is dropped
    candidates = resonator.band_products(
        tuple((p, 1.0 / resonator.b_prime_factor(p, params) - 1.0)
              for p, _ in band if p != 2), m_max)
    divisors, pair_ell, pair_g = [], [], []
    for e, g, _ in candidates:
        hits = np.flatnonzero(values % e == 0).astype(np.int32)
        if hits.size:
            divisors.append(e)
            pair_ell.append(hits)
            pair_g.append(np.full(hits.size, g))
    pair_e = [np.full(h.size, j, dtype=np.int32) for j, h in enumerate(pair_ell)]
    big = math.prod(1.0 + 2.0 * abs(rt) / math.sqrt(p) for p, rt in band)
    runs = [np.arange(e - 1, m_max, e, dtype=np.int32) for e in divisors]
    starts = np.cumsum([0] + [r.size for r in runs[:-1]])
    return (np.log(values),
            np.array([w / math.sqrt(e) for e, w, _ in ells]),
            np.log(np.arange(1, m_max + 1, dtype=float)), bfull[1:],
            np.concatenate(runs), starts, np.concatenate(pair_ell),
            np.concatenate(pair_e), np.concatenate(pair_g), big)


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
    b(m, 1) do not depend on s and are built once per table and cutoffs,
    with log m and the multiples of every e; each s then costs one exp per
    m, one gather and one segmented sum over the multiples, and one sum
    over the (l, e) pairs.

    Usable only to the right of Re(s) = 0.05; the m-tail decays like
    m_max^{-2 sigma}, so do not expect miracles near the boundary.
    """
    s = complex(s)
    sigma = s.real
    if sigma < 0.05:
        raise AccuracyError(f"direct sum needs Re(s) >= 0.05, got {sigma}")
    band = tuple((p, resonator.r_tilde(p, table)) for p in sorted(table.pminus))
    (log_ell, weight, log_m, b1, multiples, starts, pair_ell, pair_e,
     pair_g, big) = _divisor_lattice(table.params, band, _ELL_MAX, _M_MAX)
    # b(m, 1) m^{-1-2s} in one array, computed in place
    bm = np.multiply(log_m, -(1.0 + 2.0 * s))
    np.exp(bm, out=bm)
    bm *= b1
    A = np.add.reduceat(bm[multiples], starts)
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
_TMAX = 200.0          # both lines end at |t| = 200
_N_CIRCLE = 512        # trapezoid points on the circle around the pole


def _vertical_line(ys, sigma: float, table: CoefficientTable):
    """The quadrature of int_0^200 Re y^s phi~(s) F(s) dt, s = sigma + it,
    and the same weights times |y^s phi~(s)| times F's certificate, which
    bounds what F's error moves that sum, as arrays over ys, and F on the
    nodes.  phi~ and F are evaluated once; each y keeps its own dot, as a
    matrix product would reassociate the sums."""
    nodes, weights = smoothing.vertical_line_nodes(_TMAX)
    s = sigma + 1j * nodes
    mell = smoothing.mellin_phi(s)
    fv, fcert = F_factored_bounded(s, table)
    re_int, cert_int = [], []
    for y in ys:
        ym = np.exp(s * math.log(y)) * mell
        re_int.append(np.dot(weights, np.real(ym * fv)))
        cert_int.append(np.dot(weights, np.abs(ym) * fcert))
    return np.array(re_int), np.array(cert_int), fv


@dataclass(frozen=True)
class ContourValue:
    value: float | np.ndarray
    err_estimate: float | np.ndarray


def S_via_contour(y, table: CoefficientTable) -> ContourValue:
    """S(y) as (1/2 pi i) int y^s phi~(s) F(s) ds on Re(s) = 1/4, with F
    evaluated through the factorization.  Dual route to the direct
    lattice sum; the error estimate combines the quadrature tail (decay of
    phi~ beyond |t| = 200) with F's certificate on every node.

    y is a scalar, giving float fields, or an array of y, giving arrays;
    phi~ and F are evaluated once per call, whatever the number of y.
    """
    ys = [float(v) for v in np.atleast_1d(y)]
    re_int, cert_int, fv = _vertical_line(ys, _SIGMA_LINE, table)
    tail_phi = abs(smoothing.mellin_phi(complex(_SIGMA_LINE, _TMAX)))
    bound = tail_phi * float(np.max(np.abs(fv))) * 10.0
    # even in t by Schwarz reflection: double the t > 0 half-line
    value = re_int / math.pi
    err = (np.array([v ** _SIGMA_LINE for v in ys]) * bound + cert_int) / math.pi
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
    line; on both, F's certificate enters node by node, weighted as the
    node's value is."""
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
    circ, circ_cert = [], []
    for y in ys:
        ym = np.exp(s * math.log(y)) * mell * s
        circ.append(np.mean(ym * fv).real)
        circ_cert.append(np.mean(np.abs(ym) * fcert))

    re_int, cert_int, _ = _vertical_line(ys, sigma_left, table)
    return (ContourValue(np.array(circ), np.array(circ_cert)),
            ContourValue(re_int / math.pi, cert_int / math.pi))


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
    fv, _ = F_factored_bounded(sigma + 1j * ts, table)
    ratios = np.abs(fv) ** 2 / denom
    i = int(np.argmax(ratios))
    theta = {p: math.log(p) / (2.0 * math.log(params.L)) for p in table.pminus}
    band_sum = math.fsum(
        trig_product(theta[p]) / (p * math.log(p)) for p in table.pminus)
    tmin = min(trig_product(theta[p]) for p in table.pminus)
    return ResonanceReport(t0, float(ts[i]), float(ratios[i]),
                           math.log(float(ratios[i])), band_sum, tmin)
