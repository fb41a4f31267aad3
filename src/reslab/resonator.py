"""Parameter schedule, resonator coefficients, and the large-prime signs.

The resonator is the real multiplicative function r supported on odd
squarefree integers whose prime values live on two bands: a low band P- of
primes in [L^(5 pi/3), L^(7 pi/3)) carrying the oscillating weight

    r(p) = cos(log p / log L^2) * L / (sqrt(p) log p),

and a high band P+ of primes in [B/4, B] carrying tiny signed weights

    r(p) = eps_p / (sqrt(p) (log x)^2),

with eps_p chosen against the sign of a partial-sum functional.  Two modes
are supported: `asymptotic` derives every quantity from (a, D) alone, which
only produces a nonempty low band for astronomically large D (the band
first contains a prime once L^(5 pi/3) >= 2, i.e. roughly D >= 10^140);
`explicit` mode pins L, the bands, B, x, Z directly and is what every
desk-scale computation uses.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from . import arith

TWO_NINTHS = 2.0 / 9.0
E_E = math.exp(math.e)
BAND_LO_EXP = 5.0 * math.pi / 3.0
BAND_HI_EXP = 7.0 * math.pi / 3.0
# most support entries any run enumerates; the family scan's guard too
MAX_SUPPORT = 10**5
# largest band edge build_table sieves up to: 10 MB of sieve flags
MAX_SIEVE = 10**7


class ParamsError(ValueError):
    """Invalid or infeasible parameter schedule."""


class WorkEstimateError(RuntimeError):
    """A brute-force path was asked to do more work than its guard allows."""


@dataclass(frozen=True)
class ResonatorParams:
    a: float | None
    D: float
    delta: float | None
    x: float
    Z: float
    Y: float
    L: float
    B: float
    pminus_lo: float
    pminus_hi: float
    mode: str

    def __post_init__(self):
        # r lives on odd squarefree integers: neither band may admit 2
        if not (2.0 < self.pminus_lo < self.pminus_hi):
            raise ParamsError(f"need 2 < pminus_lo < pminus_hi, got "
                              f"[{self.pminus_lo}, {self.pminus_hi})")
        if not self.B / 4.0 > 2.0:
            raise ParamsError(f"B = {self.B}: need B/4 > 2")
        if self.B > self.x * (1 + 1e-12):
            raise ParamsError(f"B = {self.B} exceeds x = {self.x}")
        if abs(self.Y - math.sqrt(self.Z / self.x)) > 1e-12 * max(1.0, self.Y):
            raise ParamsError("Y is inconsistent with sqrt(Z/x)")


def _minimal_asymptotic_D(a: float) -> float:
    # smallest D with Y = min(D^(delta/2), D^(a/4)) > e^e; inf if no float
    log_D = math.e / min((TWO_NINTHS - a) / 2.0, a / 4.0)
    return math.exp(log_D) if log_D <= math.log(sys.float_info.max) else math.inf


def _power(base: float, expo: float) -> float:
    """base**expo; ParamsError where it overflows a float."""
    try:
        return base**expo
    except OverflowError:
        raise ParamsError(f"{base}**{expo:.6g} overflows a float") from None


def build_params(D: float, a: float | None = None, mode: str = "asymptotic",
                 **overrides) -> ResonatorParams:
    """Derive the full schedule.

    Asymptotic mode needs 0 < a < 2/9 and produces L = sqrt(log Y loglog Y);
    explicit mode needs an L override and accepts pminus_lo, pminus_hi, B,
    x, Z overrides (x defaults to D^a when a is given, Z to min(x D^delta,
    x^(3/2)) when a is given, else x^(3/2); B defaults to x).  D, a and
    every override must be finite, and L, x - 1 and Z positive.
    """
    if D < 2:
        raise ParamsError(f"need D >= 2, got {D}")
    if mode not in ("asymptotic", "explicit"):
        raise ParamsError(f"unknown mode {mode!r}")
    unknown = set(overrides) - {"L", "pminus_lo", "pminus_hi", "B", "x", "Z"}
    if unknown:
        raise ParamsError(f"unknown overrides: {sorted(unknown)}")
    # abs(v) <= max float is False for NaN, inf and an int past the floats
    bad = {k: v for k, v in {"D": D, "a": a, **overrides}.items()
           if v is not None and not abs(v) <= sys.float_info.max}
    if bad:
        raise ParamsError(f"need finite float values, got {bad}")

    delta = None
    if a is not None:
        if not (0.0 < a < TWO_NINTHS):
            raise ParamsError(f"need 0 < a < 2/9, got a = {a}")
        delta = TWO_NINTHS - a

    if mode == "asymptotic":
        if a is None:
            raise ParamsError("asymptotic mode requires a")
        if overrides:
            raise ParamsError("asymptotic mode takes no overrides")
        x = D**a
        Z = min(x * D**delta, x**1.5)
        Y = math.sqrt(Z / x)
        if Y <= E_E:
            raise ParamsError(
                f"infeasible: Y = {Y:.6g} <= e^e; asymptotic mode needs "
                f"D >= {_minimal_asymptotic_D(a):.4g} at a = {a}"
            )
        L = math.sqrt(math.log(Y) * math.log(math.log(Y)))
        B = x
        return ResonatorParams(a, D, delta, x, Z, Y, L, B,
                               L**BAND_LO_EXP, L**BAND_HI_EXP, mode)

    if "L" not in overrides:
        raise ParamsError("explicit mode requires an L override")
    L = float(overrides["L"])
    if L <= 0:
        raise ParamsError(f"explicit mode requires L > 0, got L = {L}")
    x = float(overrides.get("x", D**a if a is not None else 0.0))
    if x <= 1:
        raise ParamsError("explicit mode requires x > 1 (override or via a)")
    if "Z" in overrides:
        Z = float(overrides["Z"])
    elif a is not None:
        Z = min(x * D**delta, _power(x, 1.5))
    else:
        Z = _power(x, 1.5)
    if Z <= 0:
        raise ParamsError(f"explicit mode requires Z > 0, got Z = {Z}")
    Y = math.sqrt(Z / x)
    B = float(overrides.get("B", x))
    plo = float(overrides.get("pminus_lo", _power(L, BAND_LO_EXP)))
    phi_ = float(overrides.get("pminus_hi", _power(L, BAND_HI_EXP)))
    return ResonatorParams(a, D, delta, x, Z, Y, L, B, plo, phi_, mode)


# --- prime coefficient formulas ------------------------------------------

def r_minus(p: int, params: ResonatorParams) -> float:
    """Low-band coefficient; 0 outside [pminus_lo, pminus_hi)."""
    if not (params.pminus_lo <= p < params.pminus_hi):
        return 0.0
    lp = math.log(p)
    return math.cos(lp / math.log(params.L**2)) * params.L / (math.sqrt(p) * lp)


def r_plus(p: int, epsilon_p: int, params: ResonatorParams) -> float:
    """High-band coefficient eps_p / (sqrt(p) (log x)^2)."""
    if not (params.B / 4.0 <= p <= params.B):
        raise ParamsError(f"p = {p} outside the high band [{params.B/4}, {params.B}]")
    if epsilon_p not in (-1, 1):
        raise ParamsError(f"epsilon must be +-1, got {epsilon_p}")
    return epsilon_p / (math.sqrt(p) * math.log(params.x) ** 2)


@dataclass(frozen=True)
class SignState:
    """eps_p assignments together with the partial-sum values behind them."""

    epsilon: MappingProxyType
    s_values: MappingProxyType

    def __post_init__(self):
        for p, e in self.epsilon.items():
            if e * self.s_values[p] > 0:
                raise ParamsError(f"sign rule violated at p = {p}")


@dataclass(frozen=True)
class CoefficientTable:
    """Sparse resonator data: band primes, per-prime values (on the high
    band once signs are assigned), and (after enumeration) the squarefree
    support up to Z."""

    params: ResonatorParams
    pminus: tuple[int, ...]
    pplus: tuple[int, ...]
    r_at_prime: MappingProxyType
    support: tuple[tuple[int, float], ...] | None = None

    def r(self, p: int) -> float:
        return self.r_at_prime.get(p, 0.0)

    def with_signs(self, signs: SignState) -> "CoefficientTable":
        vals = dict(self.r_at_prime)
        for p in self.pplus:
            vals[p] = r_plus(p, signs.epsilon[p], self.params)
        return replace(self, r_at_prime=MappingProxyType(vals))

    def with_support(self) -> "CoefficientTable":
        return replace(self, support=enumerate_support(self))


def build_table(params: ResonatorParams) -> CoefficientTable:
    """Sieve both bands and fill in the low-band values.

    When the bands overlap at desk scale, the low band wins: high-band
    primes already in P- are dropped from P+ so that r stays well defined.
    Raises WorkEstimateError, before sieving, when B or pminus_hi is above
    MAX_SIEVE.
    """
    if max(params.B, params.pminus_hi) > MAX_SIEVE:
        raise WorkEstimateError(
            f"sieve guard: need B and pminus_hi <= {MAX_SIEVE}, got "
            f"B = {params.B}, pminus_hi = {params.pminus_hi}")
    pminus = tuple(int(p) for p in arith.primes_in(params.pminus_lo, params.pminus_hi))
    hi = math.nextafter(params.B, math.inf)
    pplus_all = arith.primes_in(params.B / 4.0, hi)
    pm = set(pminus)
    pplus = tuple(int(p) for p in pplus_all if int(p) not in pm)
    vals = {p: r_minus(p, params) for p in pminus}
    return CoefficientTable(params, pminus, pplus, MappingProxyType(vals))


def r_prime(p: int, table: CoefficientTable) -> float:
    """Denominator-side twist r'(p) = r(p) sqrt(p/(p+1))."""
    return table.r(p) * math.sqrt(p / (p + 1.0))


def r_tilde(p: int, table: CoefficientTable) -> float:
    """Numerator-side twist r~(p) = r(p) / ((1 + 1/p)(1 + r'(p)^2))."""
    rp = r_prime(p, table)
    return table.r(p) / ((1.0 + 1.0 / p) * (1.0 + rp * rp))


def b_weight(m: int, l: int, table: CoefficientTable) -> float:
    """Product over odd primes p | m with p not dividing l of

        (p/(p+1)) (1 + r_-(p)^2) / (1 + r_-(p)^2 p/(p+1));

    equals 1 on an empty index set.  Only the low band contributes a
    nontrivial numerator since r_- vanishes elsewhere.
    """
    out = 1.0
    for p, _ in arith.factorize(m):
        if p != 2 and l % p:
            out *= b_prime_factor(p, table.params)
    return out


def b_prime_factor(p: int, params: ResonatorParams) -> float:
    rm = r_minus(p, params)
    r2 = rm * rm
    return (p / (p + 1.0)) * (1.0 + r2) / (1.0 + r2 * p / (p + 1.0))


def band_products(band, limit: float):
    """The squarefree products l <= limit of the band primes.

    `band` holds (p, w(p)) in ascending p.  Yields (l, w(l), primes of l),
    l = 1 first, with w(l) the product of w(p) over p | l, taken in
    ascending prime order, depth first.
    """
    stack = [(0, 1, 1.0, ())]
    while stack:
        idx, ell, weight, ps = stack.pop()
        yield ell, weight, ps
        for i in range(idx, len(band)):
            p, w = band[i]
            if ell * p > limit:
                break
            stack.append((i + 1, ell * p, weight * w, ps + (p,)))


def b_sieve(params: ResonatorParams, m_max: int, ell_primes=()) -> np.ndarray:
    """b(m, l) for 0 <= m <= m_max (entry 0 is unused), l given by its
    primes: the product of b_prime_factor(p) over the odd primes p | m with
    p not dividing l, multiplied in ascending p."""
    out = np.ones(m_max + 1)
    for p in arith.primes_up_to(m_max)[1:].tolist():
        if p not in ell_primes:
            out[p::p] *= b_prime_factor(p, params)
    return out


def assign_signs(table: CoefficientTable, s_evaluator) -> SignState:
    """eps_p = -sign(S(x/p)) for every high-band prime; ties go to +1.

    `s_evaluator` must compute the low-band partial-sum functional S(y)
    (it never touches high-band coefficients, so there is no circularity).
    """
    x = table.params.x
    eps = {}
    svals = {}
    for p in table.pplus:
        s = float(s_evaluator(x / p))
        svals[p] = s
        eps[p] = -1 if s > 0 else 1
    return SignState(MappingProxyType(eps), MappingProxyType(svals))


def enumerate_support(table: CoefficientTable) -> tuple[tuple[int, float], ...]:
    """All n <= params.Z that are products of distinct band primes, with
    r(n) != 0, sorted by n.  High-band primes require signs to have been
    assigned.  Raises WorkEstimateError, and stops the walk, as soon as
    more than MAX_SUPPORT entries are found.
    """
    for p in table.pplus:
        if p not in table.r_at_prime:
            raise ParamsError("high-band values missing: assign signs first")
    band = [(p, table.r_at_prime[p])
            for p in sorted(set(table.pminus) | set(table.pplus))]
    out = []
    for n, v, _ in band_products(band, table.params.Z):
        if v != 0.0:
            out.append((n, v))
            if len(out) > MAX_SUPPORT:
                raise WorkEstimateError(
                    f"support exceeds {MAX_SUPPORT} entries; shrink Z or the bands")
    out.sort()
    return tuple(out)


def sum_rplus_squared(table: CoefficientTable) -> float:
    """sum over the high band of r(p)^2; small at any feasible schedule."""
    lx2 = math.log(table.params.x) ** 2
    return math.fsum(1.0 / (p * lx2 * lx2) for p in table.pplus)
