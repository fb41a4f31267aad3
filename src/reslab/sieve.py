"""Large-sieve harness for short Dirichlet polynomials.

The inequality under test bounds the mean square of P(t) = sum a_n n^{-it}
over a short t-interval [-alpha, alpha] by the smoothed dyadic energy

    int | sum_n a_n psi_sigma(n/y) |^2  dy/y,

with psi the dyadic difference of the smooth cutoff (supported in [1, 4],
nonpositive).  Substituting y = n e^u turns the right side into an
autocorrelation of f_sigma(u) = psi_sigma(e^{-u}), whose Fourier transform
is |f_hat|^2 >= 0; the inequality then holds with the fully explicit
constant 2 pi / inf |f_hat_sigma(xi)|^2 over the frequency window, provided
alpha <= 1/(10 pi C) where [-C, C] contains the support of f.

Fourier transforms use the e^{-2 pi i xi u} convention throughout.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import smoothing
from .smoothing import AccuracyError

SUPPORT_C = math.log(4.0)  # f_sigma lives on [-log 4, 0]
SIGMA_GRID = (0.0, 0.25, -0.25, 0.45, -0.45)


@dataclass(frozen=True)
class DirichletPolynomial:
    """Finite polynomial sum a_n n^{-it}; n strictly increasing."""

    terms: tuple[tuple[int, complex], ...]

    def __post_init__(self):
        ns = [n for n, _ in self.terms]
        if any(n < 1 for n in ns):
            raise ValueError("need n >= 1")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("n must be strictly increasing")

    @classmethod
    def from_pairs(cls, pairs) -> "DirichletPolynomial":
        return cls(tuple(sorted((int(n), complex(a)) for n, a in pairs)))

    def __call__(self, t: float) -> complex:
        return sum(a * n ** (-1j * t) for n, a in self.terms)


_GAUSS_MAX_NODES = 64


def _gauss_order(c: float, target: float) -> int:
    """Fewest Gauss-Legendre nodes k on [-1, 1] whose remainder bound
    K_k c^{2k} is <= target, K_k = 2^{2k+1} (k!)^4 / ((2k+1) ((2k)!)^3)."""
    if c == 0.0:
        return 1
    for k in range(1, _GAUSS_MAX_NODES + 1):
        log_bound = ((2 * k + 1) * math.log(2.0) + 4.0 * math.lgamma(k + 1)
                     - math.log(2 * k + 1) - 3.0 * math.lgamma(2 * k + 1)
                     + 2 * k * math.log(c))
        if log_bound <= math.log(target):
            return k
    raise AccuracyError(
        f"{_GAUSS_MAX_NODES} Gauss nodes do not cover alpha * log(n_max/n_min)"
        f" = {c:.3g} at target {target:.1e}")


def lhs_integral(P: DirichletPolynomial, alpha: float) -> float:
    """int_{-alpha}^{alpha} |P(t)|^2 dt, twice over.

    Closed form: sum a_m conj(a_n) 2 sin(alpha log(m/n))/log(m/n), with the
    diagonal reading 2 alpha |a_n|^2.  The second route is a k-node
    Gauss-Legendre rule on |P(t)|^2, with P summed directly at the nodes;
    the two must agree within 1e-9 (relative to the diagonal mass) or we
    refuse.

    Node count: with t = alpha x, |P|^2 = sum a_m conj(a_n) e^{-i alpha x
    log(m/n)} has 2k-th x-derivative at most (sum |a_n|)^2 c^{2k}, where
    c = alpha log(n_max/n_min) is alpha times P's exponential type.  The
    Gauss remainder is therefore at most

        alpha (sum |a_n|)^2 K_k c^{2k},
        K_k = 2^{2k+1} (k!)^4 / ((2k+1) ((2k)!)^3),

    and k is the smallest count that puts this under half the allowed
    disagreement.  When no k <= 64 does, the rule cannot certify the
    integral and AccuracyError is raised.
    """
    if alpha <= 0:
        raise ValueError("need alpha > 0")
    if not P.terms:
        return 0.0
    ns = np.array([n for n, _ in P.terms], dtype=float)
    a = np.array([c for _, c in P.terms], dtype=complex)
    lg = np.log(ns)[:, None] - np.log(ns)[None, :]
    kern = np.where(lg == 0.0, 2.0 * alpha, 2.0 * np.sin(alpha * lg) / np.where(lg == 0, 1.0, lg))
    closed = float(np.real(a[None, :].conj() @ kern @ a[:, None])[0, 0])

    scale = 2.0 * alpha * float(np.sum(np.abs(a) ** 2))
    allowed = 1e-9 * max(scale, 1.0)
    mass = float(np.sum(np.abs(a))) ** 2
    k = _gauss_order(alpha * math.log(ns[-1] / ns[0]),
                     0.5 * allowed / (alpha * mass) if mass else math.inf)
    z, w = smoothing.gauss_panels(-1.0, 1.0, 1, k)
    pt = np.exp(-1j * alpha * z[:, None] * np.log(ns)[None, :]) @ a
    gauss = alpha * float(np.dot(w, np.abs(pt) ** 2))
    if not abs(closed - gauss) <= allowed:
        raise AccuracyError(
            f"lhs routes disagree: closed {closed} vs Gauss rule {gauss}")
    return closed


def rhs_integral(P: DirichletPolynomial, sigma: float) -> float:
    """int over the full integrand support of |sum a_n psi_sigma(n/y)|^2 dy/y.

    psi_sigma(n/y) lives on y in [n/4, n], and term n is evaluated only at
    those nodes, where 1 <= n/y <= 4 after rounding too.  Integration runs
    in v = log y over [n_min/4, n_max] with composite Gauss panels.
    """
    if not (abs(sigma) < 0.5):
        raise ValueError("need |sigma| < 1/2")
    if not P.terms:
        return 0.0
    ns = np.array([n for n, _ in P.terms], dtype=float)
    a = np.array([c for _, c in P.terms], dtype=complex)
    # 24 panels of 8 nodes per unit of log y, and at least 4 panels
    lo, hi = math.log(float(ns.min()) / 4.0), math.log(float(ns.max()))
    npan = max(4, int(math.ceil((hi - lo) * 24)))
    v, w = smoothing.gauss_panels(lo, hi, npan, 8)
    y = np.exp(v)
    first = np.searchsorted(y, ns / 4.0)
    count = np.searchsorted(y, ns, side="right") - first
    term = np.repeat(np.arange(ns.size), count)
    node = first[term] + np.arange(term.size) - (np.cumsum(count) - count)[term]
    psis = smoothing.psi_sigma(ns[term] / y[node], sigma)
    re = np.bincount(node, a.real[term] * psis, minlength=y.size)
    im = np.bincount(node, a.imag[term] * psis, minlength=y.size)
    return float(np.dot(w, np.abs(re + 1j * im) ** 2))


def f_sigma(u, sigma: float):
    """f_sigma(u) = psi_sigma(e^{-u}); supported on [-log 4, 0]."""
    return smoothing.psi_sigma(np.exp(-np.asarray(u, dtype=float)), sigma)


@lru_cache(maxsize=16)
def _f_nodes(sigma: float):
    """Composite Gauss nodes over [-C, 0] with f_sigma pre-evaluated."""
    u, wt = smoothing.gauss_panels(-SUPPORT_C, 0.0, 48, 12)
    return u, wt, f_sigma(u, sigma)


_FOURIER_ROWS = 1024  # frequencies per block: 1024 x 1152 nodes is 19 MB


def _fourier_sum(xi: np.ndarray, u: np.ndarray, wv: np.ndarray) -> np.ndarray:
    """sum_k wv_k e^{-2 pi i xi u_k} for each frequency in xi.

    The frequencies go in near-equal blocks of at most _FOURIER_ROWS, so
    memory does not grow with their number.  No block of a longer xi has a
    single row, which BLAS would reduce in another order: each value is the
    one the whole matrix-vector product gives.
    """
    blocks = np.array_split(xi, max(1, -(-xi.size // _FOURIER_ROWS)))
    return np.concatenate([np.exp(-2j * math.pi * b[:, None] * u[None, :]) @ wv
                           for b in blocks])


def fhat_sigma(xi, sigma: float):
    """Fourier transform int f_sigma(u) e^{-2 pi i xi u} du over [-C, 0];
    accepts a scalar or an array of frequencies."""
    u, wt, fv = _f_nodes(float(sigma))
    out = _fourier_sum(np.atleast_1d(np.asarray(xi, dtype=float)), u, wt * fv)
    return complex(out[0]) if np.isscalar(xi) or np.ndim(xi) == 0 else out


@dataclass(frozen=True)
class AlphaReport:
    alpha: float
    constant: float
    support_C: float
    inf_fhat_sq: float
    sigma_grid: tuple[float, ...]


@lru_cache(maxsize=1)
def admissible_alpha() -> AlphaReport:
    """alpha = 1/(10 pi C) with C = log 4, plus the explicit constant
    2 pi / inf |f_hat_sigma(xi)|^2, the inf taken over 33 points of
    |xi| <= 2 pi alpha and sigma on the sampling grid."""
    alpha = 1.0 / (10.0 * math.pi * SUPPORT_C)
    xis = np.linspace(-2.0 * math.pi * alpha, 2.0 * math.pi * alpha, 33)
    inf_sq = min(float(np.min(np.abs(fhat_sigma(xis, sigma)) ** 2))
                 for sigma in SIGMA_GRID)
    if not 1e-12 <= inf_sq:
        raise AccuracyError(f"inf |f_hat|^2 = {inf_sq} is numerically zero")
    return AlphaReport(alpha, 2.0 * math.pi / inf_sq, SUPPORT_C, inf_sq,
                       SIGMA_GRID)


@dataclass(frozen=True)
class AutocorrReport:
    max_gap: float
    parseval_gap: float
    h_at_zero: float


def autocorrelation_sigma(x, sigma: float):
    """H_sigma(x) = int f_sigma(u) f_sigma(u + x) du (real f, no conjugate),
    at one lag x or at an array of lags.

    The integrand lives on [max(-C, -C - x), min(0, -x)].  One composite
    Gauss rule (48 panels of 12 nodes) is mapped onto each lag's interval,
    so all lags are evaluated in one array operation.
    """
    xa = np.asarray(x, dtype=float)
    lo = np.maximum(-SUPPORT_C, -SUPPORT_C - xa)
    width = np.maximum(np.minimum(0.0, -xa) - lo, 0.0)
    z, w = smoothing.gauss_panels(0.0, 1.0, 48, 12)
    u = lo[..., None] + width[..., None] * z
    vals = f_sigma(u, sigma) * f_sigma(u + xa[..., None], sigma)
    out = (vals @ w) * width
    return float(out) if out.ndim == 0 else out


@lru_cache(maxsize=16)
def _h_nodes(sigma: float):
    """Gauss nodes over [-C, C] with the autocorrelation pre-evaluated."""
    x, wt = smoothing.gauss_panels(-SUPPORT_C, SUPPORT_C, 96, 12)
    return x, wt, autocorrelation_sigma(x, sigma)


def autocorrelation_identity_check(sigma: float) -> AutocorrReport:
    """Numerical check of H_hat = |f_hat|^2 plus Parseval at x = 0.

    H is built by direct quadrature of each lag integral; its transform and
    |f_hat|^2 come from separate node sets, so agreement is meaningful.
    """
    x, wt, h = _h_nodes(float(sigma))
    xia = np.linspace(-2.0, 2.0, 21)
    hhat = _fourier_sum(xia, x, wt * h)
    fh = fhat_sigma(xia, sigma)
    gaps = np.abs(hhat - np.abs(fh) ** 2)
    h0 = autocorrelation_sigma(0.0, sigma)
    xi_par = np.linspace(-40.0, 40.0, 16001)
    dens = np.abs(fhat_sigma(xi_par, sigma)) ** 2
    pars = float(np.trapezoid(dens, xi_par))
    return AutocorrReport(float(np.max(gaps)), abs(h0 - pars), h0)


@dataclass(frozen=True)
class SieveReport:
    alpha: float
    inf_fhat_sq: float
    worst_ratio: float
    trials: int
    seed: int
    sides: tuple[tuple[float, float], ...]  # (lhs, constant * rhs) per trial


_MAX_LEN = 50  # terms of a random trial polynomial, at most


def random_polynomial(rng: random.Random) -> DirichletPolynomial:
    """1 to _MAX_LEN terms; coefficients uniform on the unit disk;
    2 <= n <= 10^4 without replacement (n = 1 sits below the y-integral's
    support at dyadic scale, so trials stay inside the lemma's regime)."""
    length = rng.randint(1, _MAX_LEN)
    ns = rng.sample(range(2, 10_001), length)
    r = [math.sqrt(rng.random()) for _ in range(length)]
    th = [2.0 * math.pi * rng.random() for _ in range(length)]
    return DirichletPolynomial.from_pairs(
        (n, rn * complex(math.cos(t), math.sin(t)))
        for n, rn, t in zip(ns, r, th))


def sieve_inequality_check(trials: int, seed: int,
                           sigma: float) -> SieveReport:
    """Seeded random trials of the two sides of lhs <= (2 pi / inf
    |f_hat|^2) * rhs, a theorem once alpha is admissible, which
    checks.gallagher decides.  The worst ratio lhs / (constant * rhs) over
    the trials with constant * rhs > 0 is kept for regression freezing (it
    should sit well below 1).  The trials come from the stdlib's
    random.Random(seed), which the process has already loaded; numpy.random
    would bring OpenSSL in through secrets and hashlib.
    """
    report = admissible_alpha()
    rng = random.Random(seed)
    sides = []
    for _ in range(trials):
        P = random_polynomial(rng)
        sides.append((lhs_integral(P, report.alpha),
                      report.constant * rhs_integral(P, sigma)))
    worst = max((lhs / bound for lhs, bound in sides if bound > 0), default=0.0)
    return SieveReport(report.alpha, report.inf_fhat_sq, worst, trials, seed,
                       tuple(sides))
