"""Smooth cutoffs and their transforms.

The canonical cutoff is the exp-glue bump

    phi(x) = 1                                   x <= 1
           = f(2-x) / (f(2-x) + f(x-1))          1 < x < 2,  f(t) = exp(-1/t)
           = 0                                   x >= 2

which is C-infinity, equals 1 on [0, 1] and 0 on [2, inf), and is monotone
nonincreasing in between.  psi(x) = phi(x) - phi(x/2) is supported on [1, 4]
and is nonpositive.  The Mellin transform of phi has a single simple pole at
s = 0 with residue 1 and decays faster than any power of |Im s| on vertical
lines; it is evaluated through the integrated-by-parts form

    phi~(s) = -(1/s) * int_1^2 phi'(u) u^s du.

phi is the one cutoff of the package: every partial sum calls phi and
phi_prime here directly, and c_phi() is its smoothness certificate.
gauss_panels is the one composite Gauss-Legendre rule; the Mellin
transform, the vertical-line nodes of the contour and every quadrature of
the sieve harness take their nodes from it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


def _as_out(x, out):
    return float(out) if np.ndim(x) == 0 else out


def phi(x):
    """The canonical smooth cutoff; accepts scalars or arrays."""
    xa = np.asarray(x, dtype=float)
    out = np.zeros(xa.shape)
    out[xa <= 1.0] = 1.0
    mid = (xa > 1.0) & (xa < 2.0)
    if np.any(mid):
        xm = xa[mid]
        a = np.exp(-1.0 / (2.0 - xm))
        b = np.exp(-1.0 / (xm - 1.0))
        out[mid] = a / (a + b)
    return _as_out(x, out)


def phi_prime(x):
    """Derivative of phi; vanishes outside (1, 2).

    On (1, 2), phi = 1/(1 + e^g) with g = 1/(2-x) - 1/(x-1), so
    phi' = -phi (1 - phi) g'.
    """
    xa = np.asarray(x, dtype=float)
    out = np.zeros(xa.shape)
    mid = (xa > 1.0) & (xa < 2.0)
    if np.any(mid):
        xm = xa[mid]
        g = 1.0 / (2.0 - xm) - 1.0 / (xm - 1.0)
        gp = 1.0 / (2.0 - xm) ** 2 + 1.0 / (xm - 1.0) ** 2
        g = np.clip(g, -700.0, 700.0)
        s = 1.0 / (1.0 + np.exp(g))
        out[mid] = -s * (1.0 - s) * gp
    return _as_out(x, out)


def psi(x):
    """psi(x) = phi(x) - phi(x/2); compactly supported in [1, 4], <= 0."""
    xa = np.asarray(x, dtype=float)
    return _as_out(x, phi(xa) - phi(xa / 2.0))


def psi_sigma(x, sigma):
    """x^sigma * psi(x) for x > 0, |sigma| <= 1/2."""
    xa = np.asarray(x, dtype=float)
    if np.any(xa <= 0):
        raise ValueError("psi_sigma needs x > 0")
    return _as_out(x, xa**sigma * psi(xa))


@lru_cache(maxsize=32)
def gauss_panels(a: float, b: float, npan: int, order: int):
    """Nodes and weights of the composite Gauss-Legendre rule: `order`
    Legendre nodes on each of `npan` equal panels of [a, b].

    The rule integrates polynomials of degree up to 2 order - 1 exactly, and
    its weights sum to b - a.  Results are cached, so the arrays are
    read-only.
    """
    z, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, npan + 1)
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    nodes = (0.5 * (hi - lo) * z[None, :] + 0.5 * (lo + hi)).ravel()
    weights = (0.5 * (hi - lo) * np.broadcast_to(w, (npan, order))).ravel()
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


class AccuracyError(RuntimeError):
    """Requested quadrature accuracy could not be certified."""


def _mellin_raw(s, npanels):
    """int_1^2 phi'(u) u^s du on a fixed composite Gauss rule.

    Vectorized over an array of s values.
    """
    u, w = gauss_panels(1.0, 2.0, npanels, 32)
    sa = np.atleast_1d(np.asarray(s, dtype=complex))
    # (nodes, s) matrix of u^s
    mat = np.exp(np.log(u)[:, None] * sa[None, :])
    vals = (phi_prime(u) * w) @ mat
    return vals


_MELLIN_ACCURACY = 1e-10


def mellin_phi(s):
    """Mellin transform phi~(s) = int_0^inf phi(u) u^{s-1} du, continued
    across the strip via integration by parts; s = 0 is the simple pole.

    The panel count is doubled until two successive composite rules agree
    within _MELLIN_ACCURACY = 1e-10, else AccuracyError; the value alone is
    returned, with no certificate.
    """
    sa = np.atleast_1d(np.asarray(s, dtype=complex))
    if np.any(sa == 0):
        raise ValueError("phi~ has a pole at s = 0")
    if np.any(sa.real <= -10):
        raise ValueError("mellin_phi supported for Re(s) > -10")
    raw = _mellin_final(sa)
    out = -raw / sa
    return complex(out[0]) if np.ndim(s) == 0 else out


def _mellin_final(sa):
    npanels = _panels_for(sa)
    prev = _mellin_raw(sa, npanels)
    for _ in range(6):
        npanels *= 2
        cur = _mellin_raw(sa, npanels)
        if np.max(np.abs(cur - prev)) <= _MELLIN_ACCURACY:
            return cur
        prev = cur
        if npanels > 2048:
            break
    raise AccuracyError(f"Mellin quadrature did not reach {_MELLIN_ACCURACY}")


def _panels_for(sa):
    # resolve the oscillation u^{it} = e^{it log u}; log 2 radians per unit t
    tmax = float(np.max(np.abs(sa.imag))) if sa.size else 0.0
    return max(4, int(tmax * math.log(2.0) / 40) + 4)


# V(x) = Q(1/4, x^2): the shape a, Gamma(a), the switch point z0 between the
# two branches, and their fixed term counts (see afe_weight_V)
_V_A = 0.25
_GAMMA_A = math.gamma(_V_A)
_GAMMA_A1 = math.gamma(_V_A + 1.0)
_V_SWITCH = 1.5
_V_SERIES_TERMS = 24
_V_FRACTION_STEPS = 60


def afe_weight_V(x):
    """Central-point weight V(x) = Gamma(1/4, x^2) / Gamma(1/4).

    Regularized upper incomplete gamma Q(a, z) at a = 1/4, z = x^2:
    V(0) = 1, 0 <= V <= 1, and V decays like exp(-x^2) up to powers.
    Accepts scalars or arrays; both branches run vectorized.

    - z < z0 = 1.5: V = 1 - P(a, z) with the series (DLMF 8.7.1)
      P = z^a e^{-z} / Gamma(a + 1) * sum_k z^k / ((a + 1) ... (a + k)).
      Its 24 terms leave a geometric remainder: at z0 the term k = 24 is
      1.1e-20 and each next one shrinks by z0 / (a + k) < 1/16, so the rest
      is below 1.2e-20, far under half an ulp of the sum (>= 1).
    - z >= z0: V = z^a e^{-z} h / Gamma(a), with h the even contraction of
      the Legendre continued fraction (DLMF 8.9.2), 60 steps of modified
      Lentz.  The partial denominators z + 2k + 1 - a are positive, and
      both Lentz ratios stay above 3.9 for every z >= z0 (no zero-divisor
      guard).  The fraction converges slowest just above z0, where 60
      steps leave 1.4e-15 relative against a 40-digit reference;
      tests/test_smoothing.py checks V to 1e-12 relative against an
      independent Q(1/4, z) on 0 <= x <= 36.4.

    The AFE calls V on x <= sqrt(pi) log(8 MAX_D_EXACT), about 36.3.  V
    falls below 1e-300 at x = 26.2 and underflows to 0 from x = 27.19 on.
    """
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0):
        raise ValueError("afe_weight_V needs x >= 0")
    # V is 0 in doubles past x = 27.19; the cap keeps inf out of the
    # fraction, so V(inf) = 0
    xa = np.minimum(xa, 45.0)
    z = xa * xa
    out = np.empty(z.shape)
    low = z < _V_SWITCH
    out[low] = _v_series(z[low])
    out[~low] = _v_fraction(z[~low])
    return _as_out(x, out)


def _v_series(z):
    term = np.ones_like(z)
    total = np.ones_like(z)
    for k in range(1, _V_SERIES_TERMS + 1):
        term = term * z / (_V_A + k)
        total = total + term
    return 1.0 - np.exp(-z) * z**_V_A / _GAMMA_A1 * total


def _v_fraction(z):
    b = z + 1.0 - _V_A
    c = np.full_like(z, 1e300)
    d = 1.0 / b
    h = d
    for i in range(1, _V_FRACTION_STEPS + 1):
        an = -i * (i - _V_A)
        b = b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        h = h * d * c
    return np.exp(-z) * z**_V_A * h / _GAMMA_A


@lru_cache(maxsize=1)
def c_phi() -> float:
    """sup over u of |u phi'(u)|, the smoothness certificate for phi."""
    u = np.linspace(1.0, 2.0, 200001)[1:-1]
    vals = np.abs(u * phi_prime(u))
    i = int(np.argmax(vals))
    # golden-section polish around the grid maximum
    lo, hi = u[max(i - 2, 0)], u[min(i + 2, len(u) - 1)]
    g = (math.sqrt(5) - 1) / 2

    def f(t):
        return -abs(t * phi_prime(t))

    c, d = hi - g * (hi - lo), lo + g * (hi - lo)
    for _ in range(80):
        if f(c) < f(d):
            hi = d
        else:
            lo = c
        c, d = hi - g * (hi - lo), lo + g * (hi - lo)
    best = -f((lo + hi) / 2)
    return max(best, float(vals[i]))


def vertical_line_nodes(tmax: float):
    """Gauss-Legendre nodes/weights covering t in [0, tmax]: 16 nodes on
    each panel of width at most 1/2."""
    return gauss_panels(0.0, tmax, max(1, int(math.ceil(tmax / 0.5))), 16)
