"""Quadratic forms over the discriminant family and the partial sums that
drive the sign choices.

The family is d in (D/2, D] with 2d squarefree, character chi_{8d}.  The
two forms are

    Den = sum_d mu^2(2d) R(d)^2,
    Num = sum_d mu^2(2d) R(d)^2 * T(d),      T(d) = sum_n chi_{8d}(n) phi(n/x)/sqrt(n),

evaluated with the d-outer loop (mathematically identical to expanding
R(d)^2 and summing characters first, but exponentially cheaper).  A
weighted-average pigeonhole then exhibits a single discriminant whose
truncated smoothed sum is at most Num/Den.

scan_family is the one pass over the family.  It runs over fixed,
contiguous d-chunks, serially or in a process pool.  Within a chunk,
chi_{8d}(n) is gathered from a residue table only at primes p and built
for composite n from int8 products chi(p) chi(n/p), since the character
is completely multiplicative.  Each chunk reduces its weights to floats
whose exact sum is the chunk's exact sum (repeated math.fsum); one fsum
over every chunk's parts then gives the correctly rounded Den and Num, so
results are bit-identical for any worker count and any chunk size.  When
asked for the rows (d, T(d), R(d)^2), the process that scans a chunk also
formats and writes them, as CSV lines, to the chunk's own part file; only
the chunk's small summary goes back to the caller, which appends the
parts to its row file in chunk order.  That is how the CLI writes the
family CSV from the same pass.  A chunk of 2^15 d bounds the scan's
working set, in the caller as in each worker: a chunk's arrays, not the
family's size, set its memory.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from . import arith, resonator, smoothing
from .analytic import hurwitz_em
from .resonator import (CoefficientTable, ResonatorParams, SignState,
                        WorkEstimateError)


class EmptyFamilyError(RuntimeError):
    """No admissible discriminant carries positive weight."""


# guards for the brute-force paths; the support guard is
# resonator.MAX_SUPPORT, which support enumeration enforces too
MAX_D_EXACT = 10**8
MAX_X = 10**6
# entries of the scan's residue tables, sum p over odd primes p <= 2x;
# about 10 ns each on a 2-CPU Xeon VM, so 10^9 (x near 7.5e4) is ~10 s
MAX_TABLE_ENTRIES = 10**9


# --------------------------------------------------------------------------
# partial-sum kernel
# --------------------------------------------------------------------------

class PartialSumKernel:
    """Evaluates S, S*, the dyadic difference S~ and y S' for a coefficient
    table.

    Only the low band enters: the outer sum runs over squarefree integers
    composed of low-band primes (the coprimality condition against the high
    band), with coefficient c_l = r~(l) d(l)/sqrt(l), and the inner sum
    over m carries the multiplicative weight b(m, l)/m under a cutoff at
    u = l m^2 / y.

    All four sums run over one (l, m) lattice: the arrays l, m,
    base = c_l b(m, l)/m and l m^2.  It is built from resonator's
    band_products walk and b_sieve, the same two helpers behind
    analytic.F_direct, and grown only when a larger y is asked for.  A sum
    at y takes the window l <= lim, m <= isqrt(int(lim / l)) with lim = 2y
    (4y for S~), weights base by phi(u), 1 (in absolute value), psi(u) or
    -u phi'(u), and adds the terms with math.fsum, so its value depends on
    neither the term order nor how far the lattice has grown.  Any y above
    MAX_X raises WorkEstimateError before the lattice is touched.
    """

    def __init__(self, table: CoefficientTable):
        self.params = table.params
        self._band = tuple((p, 2.0 * resonator.r_tilde(p, table))
                           for p in sorted(table.pminus))
        self._lim = 0.0
        self._lattice = None

    def _window(self, y: float, lim: float) -> tuple[np.ndarray, np.ndarray]:
        """base and u = l m^2 / y over the lattice window of cutoff lim."""
        if y > MAX_X:
            raise WorkEstimateError(
                f"partial-sum guard: need y <= {MAX_X}, got {y}")
        if lim > self._lim:
            cols = []
            for ell, w, ps in resonator.band_products(self._band, lim):
                mmax = math.isqrt(int(lim / ell))
                m = np.arange(1.0, mmax + 1)
                b = resonator.b_sieve(self.params, mmax, ps)[1:]
                coef = w / math.sqrt(ell)
                cols.append((np.full(mmax, float(ell)), m, coef * b / m,
                             ell * m * m))
            self._lattice = tuple(np.concatenate(c) for c in zip(*cols))
            self._lim = lim
        ell, m, base, lm2 = self._lattice
        keep = m * m <= lim / ell
        return base[keep], lm2[keep] / y

    def _sum(self, y: float, lim: float, weight) -> float:
        """fsum of weight(base, u) over the window of cutoff lim; 0.0 when
        lim < 1, below the lattice's first point l m^2 = 1."""
        if lim < 1:
            return 0.0
        base, u = self._window(y, lim)
        return math.fsum(weight(base, u).tolist())

    def S(self, y: float) -> float:
        """S(y) = sum_l c_l sum_m b(m,l)/m phi(l m^2 / y)."""
        return self._sum(y, 2.0 * y, lambda base, u: base * smoothing.phi(u))

    def S_star(self, y: float) -> float:
        """Absolute-value companion: all cutoffs replaced by the window
        m^2 <= 2y/l, coefficients in absolute value.  Nonnegative and
        nondecreasing in y."""
        return self._sum(y, 2.0 * y, lambda base, u: np.abs(base))

    def S_tilde(self, y: float) -> float:
        """Dyadic difference S(y) - S(2y), summed through psi directly."""
        return self._sum(y, 4.0 * y, lambda base, u: base * smoothing.psi(u))

    def y_dS(self, y: float) -> float:
        """y * dS/dy, by exact termwise differentiation of the cutoff."""
        return self._sum(y, 2.0 * y,
                         lambda base, u: -base * u * smoothing.phi_prime(u))


# --------------------------------------------------------------------------
# sigma_1 and sigma_2
# --------------------------------------------------------------------------

def sigma1(params: ResonatorParams, signs: SignState) -> float:
    """(2/(log x)^2) sum over high-band p of (eps_p / p) S(x/p), with the
    values S(x/p) that assign_signs stored in signs.s_values.

    With the sign rule in force every term is -|S(x/p)|/p, so the total is
    nonpositive (ties S = 0 contribute zero either way).
    """
    pref = 2.0 / math.log(params.x) ** 2
    return pref * math.fsum(
        e / p * signs.s_values[p] for p, e in signs.epsilon.items())


def sigma2(kernel: PartialSumKernel) -> float:
    """The diagonal remainder; identically S(x)."""
    return kernel.S(kernel.params.x)


def sigma2_display(table: CoefficientTable) -> float:
    """Independent plain-loop evaluation of the sigma_2 double sum, used as
    a cross-check on the kernel: iterates candidate l directly and factors
    by trial division instead of using the kernel's caches."""
    x = table.params.x
    lim = int(2.0 * x)
    pm = sorted(table.pminus)
    total = 0.0
    for ell in range(1, lim + 1, 2):
        m_ = ell
        coef = 1.0
        nfac = 0
        for p in pm:
            if m_ % p == 0:
                m_ //= p
                if m_ % p == 0:
                    coef = 0.0
                    break
                coef *= resonator.r_tilde(p, table)
                nfac += 1
        if m_ != 1 or coef == 0.0:
            continue
        coef *= 2.0**nfac / math.sqrt(ell)
        m = 1
        while ell * m * m <= lim:
            w = smoothing.phi(ell * m * m / x)
            if w != 0.0:
                b = 1.0
                mm = m
                q = 3
                while q * q <= mm:
                    if mm % q == 0:
                        while mm % q == 0:
                            mm //= q
                        if ell % q != 0:
                            b *= resonator.b_prime_factor(q, table.params)
                    q += 2
                if mm % 2 == 0:
                    while mm % 2 == 0:
                        mm //= 2
                if mm > 1 and ell % mm != 0:
                    b *= resonator.b_prime_factor(mm, table.params)
                total += coef * b / m * w
            m += 1
    return total


# --------------------------------------------------------------------------
# single-discriminant sums
# --------------------------------------------------------------------------

def truncated_sum(d: int, x: float) -> float:
    """T(d) = sum_{n <= 2x} chi_{8d}(n) phi(n/x)/sqrt(n); even n drop out."""
    arith.check_2d_squarefree(d)
    if x < 1:
        raise ValueError(f"need x >= 1, got {x}")
    m = 8 * d
    terms = []
    for n in range(1, int(2 * x) + 1, 2):
        w = smoothing.phi(n / x)
        if w != 0.0:
            c = arith.kronecker(m, n)
            if c:
                terms.append(c * w / math.sqrt(n))
    return math.fsum(terms)


def big_R(d: int, table: CoefficientTable) -> float:
    """R(d) = sum over the enumerated support of r(n) chi_{8d}(n)."""
    arith.check_2d_squarefree(d)
    if table.support is None:
        raise ValueError("support not enumerated; call table.with_support()")
    m = 8 * d
    return math.fsum(
        r * arith.kronecker(m, n) for n, r in table.support
    )


# --------------------------------------------------------------------------
# chunked family scan
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyScan:
    denom: float
    numer: float
    min_value: float
    min_d: int
    admissible: int
    chunk_count: int


def _scan_state(table):
    """What every chunk of one scan shares: the support with r(n), the
    truncation weights phi(n/x)/sqrt(n), and the prime basis.

    Every support element and every odd n <= 2x factors over primes no
    larger than max(2x, B).  The basis lists those primes with their
    residue tables, and each composite n as (n, p) with p its least prime
    factor; sorted by n, so the cofactor n/p, which is in the list or is 1,
    always comes first.
    """
    x = table.params.x
    support = [(int(n), float(r)) for n, r in table.support]
    truncation = []
    for n in range(1, int(2 * x) + 1, 2):
        c = smoothing.phi(n / x) / math.sqrt(n)
        if c != 0.0:
            truncation.append((n, c))
    spf = arith.smallest_prime_factor(int(2 * x))
    band = sorted(set(table.pminus) | set(table.pplus))
    least = {}
    todo = [n for n, _ in support + truncation if n > 1]
    while todo:
        n = todo.pop()
        if n in least:
            continue
        # past the spf table only support elements remain: band products
        p = int(spf[n]) if n < len(spf) else next(q for q in band if n % q == 0)
        least[n] = p
        if p != n:
            todo += [p, n // p]
    return {
        "support": support,
        "truncation": truncation,
        "primes": [(p, arith.jacobi_table(p))
                   for p in sorted(n for n, p in least.items() if n == p)],
        "composites": sorted((n, p) for n, p in least.items() if n != p),
    }


def _admissible(lo: int, hi: int) -> np.ndarray:
    """The d in [lo, hi] with 2d squarefree: odd d that pass the
    squarefree sieve, increasing."""
    d = np.arange(lo | 1, hi + 1, 2, dtype=np.int64)
    if d.size:
        d = d[arith.squarefree_sieve(lo, hi)[d - lo].astype(bool)]
    return d


def _chunk_arrays(lo: int, hi: int, state: dict):
    """Admissible d in [lo, hi] with weights R(d)^2 and truncated sums.

    chi_{8d} is completely multiplicative, so a residue table is gathered
    once per prime and chi(n) = chi(p) chi(n/p) is formed as an int8
    product.  R and T then accumulate over n in the order of the support
    and of the truncation, so their floats do not depend on how chi was
    obtained.
    """
    d = _admissible(lo, hi)
    if d.size == 0:
        return d, np.zeros(0), np.zeros(0)
    m8 = 8 * d
    chi = {1: np.ones(d.size, dtype=np.int8)}
    for p, tab in state["primes"]:
        chi[p] = tab[m8 % p]
    for n, p in state["composites"]:
        chi[n] = chi[p] * chi[n // p]
    R = np.zeros(d.size)
    for n, r in state["support"]:
        R += r * chi[n]
    t = np.zeros(d.size)
    for n, c in state["truncation"]:
        t += c * chi[n]
    return d, R * R, t


def _exact_parts(xs: list) -> list:
    """Floats, largest first, whose exact sum is the exact sum of xs.

    fsum rounds correctly, so each pass appends the rounded remainder
    until none is left.  One fsum over the parts of every chunk is then
    the correctly rounded sum of the whole family, however it is chunked.
    """
    parts = []
    while True:
        rest = math.fsum(xs + [-p for p in parts])
        if rest == 0.0:
            return parts
        parts.append(rest)
        if not math.isfinite(rest):
            return parts


_CSV_HEADER = b"d,truncated_sum,weight\r\n"


def _csv_lines(d, t, w) -> bytes:
    """The rows as CSV lines "d,repr(T),repr(R^2)\r\n" under
    _CSV_HEADER, what csv.writer would write (ints and repr floats
    never need quoting)."""
    return "".join([f"{di},{ti!r},{wi!r}\r\n" for di, ti, wi
                    in zip(d.tolist(), t.tolist(), w.tolist())]).encode()


def _scan_chunk(bounds: tuple[int, int], state: dict, part: str | None):
    """Summary [Den parts, Num parts, min T over positive weight, its d,
    admissible count] of the chunk [lo, hi]; when part is a path, the
    chunk's rows also go to that file as CSV lines.  Deterministic for
    fixed bounds."""
    d, w, t = _chunk_arrays(*bounds, state)
    if part is not None:
        with open(part, "wb") as fh:
            fh.write(_csv_lines(d, t, w))
    if d.size == 0:
        return [[], [], math.inf, -1, 0]
    denom = _exact_parts(w.tolist())
    numer = _exact_parts((w * t).tolist())
    pos = w > 0
    if np.any(pos):
        tp = np.where(pos, t, math.inf)
        i = int(np.argmin(tp))
        mval, md = float(t[i]), int(d[i])
    else:
        mval, md = math.inf, -1
    return [denom, numer, mval, md, int(d.size)]


def default_workers() -> int:
    """RESLAB_WORKERS, else the number of CPUs this process may run on."""
    env = os.environ.get("RESLAB_WORKERS")
    if not env:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        w = int(env)
    except ValueError:
        w = 0
    if w < 1:
        raise ValueError(f"RESLAB_WORKERS must be a positive integer, got {env!r}")
    return w


# d per chunk: a chunk traces 3.3 MiB (12.9 at 2^17) and costs ~1.3 ms fixed
_CHUNK = 1 << 15


def scan_family(table: CoefficientTable, workers: int, rows=None) -> FamilyScan:
    """Denominator, numerator and weighted minimum over the family of
    table.params.

    The family is cut into chunks of _CHUNK consecutive d, so memory is
    bounded by one chunk's arrays (and, with a pool, one per worker).  Each
    chunk reduces to the exact parts of its sums, and one fsum over all
    parts gives the correctly rounded totals, so the result does not
    depend on the worker count or the chunk size.  With more than one
    worker and more than one chunk, the chunks run in a process pool of
    that many workers, but no more than there are chunks; otherwise in
    this process.

    An optional binary file ``rows`` receives the family's CSV: its header,
    then ``d,repr(T(d)),repr(R(d)^2)\r\n`` per admissible d in increasing
    order.  The process that scans a chunk, a pool worker or the caller,
    writes the chunk's lines to a part file in a private temporary
    directory, which outlives the pool; the caller appends each part to
    ``rows`` in chunk order and deletes it, so no row bytes cross the pool
    and only a few parts exist at once.  The directory is removed whether
    or not the scan completes.
    """
    if table.support is None:
        raise ValueError("support not enumerated; call table.with_support()")
    D, x = table.params.D, table.params.x
    if (D > MAX_D_EXACT or len(table.support) > resonator.MAX_SUPPORT
            or x > MAX_X):
        raise WorkEstimateError(
            f"exact scan guard: need D <= {MAX_D_EXACT}, support <= "
            f"{resonator.MAX_SUPPORT}, x <= {MAX_X}; got D = {D}, "
            f"support = {len(table.support)}, x = {x}")
    entries = int(arith.primes_up_to(2 * x)[1:].sum())
    if entries > MAX_TABLE_ENTRIES:
        raise WorkEstimateError(
            f"residue table guard: need sum of odd primes p <= 2x at most "
            f"{MAX_TABLE_ENTRIES}; got {entries} at x = {x}")
    lo = int(D // 2) + 1
    hi = int(D)
    if lo > hi:
        raise EmptyFamilyError(f"empty range ({D/2}, {D}]")
    bounds = [(a, min(a + _CHUNK - 1, hi)) for a in range(lo, hi + 1, _CHUNK)]

    state = _scan_state(table)
    if rows is not None:
        rows.write(_CSV_HEADER)
    with (contextlib.nullcontext() if rows is None
          else tempfile.TemporaryDirectory(prefix="reslab-rows-")) as tmp:
        parts = [None if tmp is None else os.path.join(tmp, f"{i}.csv")
                 for i in range(len(bounds))]

        def record(summary, part):
            if part is not None:
                with open(part, "rb") as fh:
                    shutil.copyfileobj(fh, rows)
                os.remove(part)
            return summary

        jobs = (bounds, itertools.repeat(state), parts)
        if workers > 1 and len(bounds) > 1:
            # here, not at the top: the pool brings multiprocessing (2 MB)
            from concurrent.futures import ProcessPoolExecutor
            # a fork pool starts every worker at its first submit
            with ProcessPoolExecutor(min(workers, len(bounds))) as ex:
                done = list(map(record, ex.map(_scan_chunk, *jobs), parts))
        else:
            done = list(map(record, map(_scan_chunk, *jobs), parts))

    denom = math.fsum(p for chunk in done for p in chunk[0])
    numer = math.fsum(p for chunk in done for p in chunk[1])
    best = min((chunk[2], chunk[3]) for chunk in done)
    count = sum(chunk[4] for chunk in done)
    return FamilyScan(denom, numer, best[0], best[1], count, len(bounds))


def denominator_asymptotic(table: CoefficientTable) -> float:
    """(2/pi^2) D * prod over the low band of (1 + r'(p)^2)."""
    prod = 1.0
    for p in table.pminus:
        prod *= 1.0 + resonator.r_prime(p, table) ** 2
    return 2.0 / math.pi**2 * table.params.D * prod


@dataclass(frozen=True)
class RatioReport:
    """ratio_report.json's values: its results, then its diagnostics."""

    den_exact: float
    den_asymptotic: float
    sigma1: float
    sigma2: float
    N: float
    ratio: float
    extremal_d: int
    extremal_value: float
    offdiag_bound_observed: float
    admissible: int
    sum_rplus_sq: float
    support_size: int
    pigeonhole_holds: bool


def pigeonhole_extract(table: CoefficientTable, signs: SignState,
                       kernel: PartialSumKernel, workers: int,
                       rows=None) -> RatioReport:
    """Full ratio pipeline: every value of ratio_report.json, including
    whether the minimum keeps the exact weighted-average pigeonhole
    min <= Num/Den.  sigma_1 reads the S(x/p) in ``signs``, sigma_2 reuses
    ``kernel``, the kernel behind the signs; ``rows`` is as in scan_family."""
    params = table.params
    scan = scan_family(table, workers=workers, rows=rows)
    if scan.denom <= 0.0 or scan.min_d < 0:
        raise EmptyFamilyError("denominator vanishes: no admissible d")
    ratio = scan.numer / scan.denom
    dasym = denominator_asymptotic(table)
    return RatioReport(
        den_exact=scan.denom, den_asymptotic=dasym,
        sigma1=sigma1(params, signs), sigma2=sigma2(kernel),
        N=scan.numer, ratio=ratio, extremal_d=scan.min_d,
        extremal_value=scan.min_value,
        offdiag_bound_observed=abs(scan.denom - dasym) / params.D ** (5 / 6),
        admissible=scan.admissible,
        sum_rplus_sq=resonator.sum_rplus_squared(table),
        support_size=len(table.support),
        pigeonhole_holds=scan.min_value <= ratio + 1e-9 * abs(ratio),
    )


# --------------------------------------------------------------------------
# orthogonality and the central-value cross-check
# --------------------------------------------------------------------------

def orthogonality_check(n: int, D: float) -> tuple[float, float, float]:
    """(exact, main, exact - main) for sum_{D/2 < d <= D} mu^2(2d) chi_{8d}(n).

    For odd square n the main term is (3/pi^2) D prod_{p | 2n} p/(p+1);
    for nonsquare n the main term is 0 and the exact value is the measured
    fluctuation.  Even n give 0 identically (the character kills them).
    """
    n = int(n)
    if n < 1:
        raise ValueError("need n >= 1")
    lo, hi = int(D // 2) + 1, int(D)
    exact = 0.0
    if n % 2 == 1:
        tab = arith.jacobi_table(n)
        parts = []
        for a in range(lo, hi + 1, arith.SEGMENT):
            d = _admissible(a, min(a + arith.SEGMENT - 1, hi))
            parts.append(float(np.sum(tab[(8 * d) % n], dtype=np.int64)))
        exact = math.fsum(parts)
    main = 0.0
    root = math.isqrt(n)
    if n % 2 == 1 and root * root == n:
        main = 3.0 / math.pi**2 * D
        for p, _ in arith.factorize(2 * n):
            main *= p / (p + 1.0)
    return exact, main, exact - main


@dataclass(frozen=True)
class AfeValue:
    value: float
    tail_bound: float
    terms: int


def _chi8d_values(d: int, nmax: int) -> np.ndarray:
    """chi_{8d}(n) for n = 0..nmax: kronecker at each prime p <= nmax, then
    complete multiplicativity, peeling one least prime factor per pass."""
    m = 8 * d
    spf = arith.smallest_prime_factor(nmax)
    at = np.zeros(nmax + 1, dtype=np.int8)  # chi at primes, and 1 at n = 1
    at[1] = 1
    for p in arith.primes_up_to(nmax).tolist():
        at[p] = arith.kronecker(m, p)
    chi = np.ones(nmax + 1, dtype=np.int8)
    chi[0] = 0
    rest = np.arange(1, nmax + 1)
    while np.any(rest > 1):
        p = spf[rest]
        chi[1:] *= at[p]
        rest //= p
    return chi


def afe_central_value(d: int) -> AfeValue:
    """Smoothed central value for conductor q = 8d:

        2 sum_{n <= N} chi_{8d}(n) / sqrt(n) * V(c n),   N = sqrt(q) log q,
                                                         c = sqrt(pi / q).

    chi comes from one kronecker call per prime up to the cutoff, a route
    independent of the oracle's residue tables.  V = smoothing.afe_weight_V
    (series below x^2 = 1.5, Legendre continued fraction above) is called
    once on the array of odd n with chi(n) != 0, and the terms are summed
    by math.fsum.

    The tail bound majorizes the discarded terms, n > N to infinity.  DLMF
    8.10.1 (x^{1-a} e^x Gamma(a, x) <= 1 for a <= 1) gives
    V(x) <= x^{-3/2} e^{-x^2} / Gamma(1/4); the integrand t^{-2} e^{-c^2 t^2}
    decreases, so with t^{-2} <= N^{-2} and e^{-c^2 t^2} <= (t/N) e^{-c^2 t^2}

        2 sum_{n > N} V(c n) / sqrt(n)
            <= 2 c^{-3/2} N^{-2} e^{-c^2 N^2} / (2 c^2 N Gamma(1/4)).

    It is evaluated in logs, and a bound below the smallest double reads
    math.ulp(0.0), never 0.  Raises WorkEstimateError for d > MAX_D_EXACT
    before any allocation: the character table holds sqrt(8d) log(8d)
    entries, 641 MiB per int64 array at d = 10^12.
    """
    if d > MAX_D_EXACT:
        raise WorkEstimateError(
            f"AFE guard: need d <= {MAX_D_EXACT}, got d = {d}")
    arith.check_2d_squarefree(d)
    q = 8 * d
    nmax = int(math.sqrt(q) * math.log(q))
    chi = _chi8d_values(d, max(nmax, 1))
    scale = math.sqrt(math.pi / q)
    n = np.arange(1, nmax + 1, 2)
    n = n[chi[n] != 0]
    terms = chi[n] / np.sqrt(n) * smoothing.afe_weight_V(scale * n)
    value = 2.0 * math.fsum(terms.tolist())
    # the bound above is c^{-7/2} N^{-3} e^{-c^2 N^2} / Gamma(1/4)
    log_tail = (-3.5 * math.log(scale) - 3.0 * math.log(nmax)
                - (scale * nmax) ** 2 - math.lgamma(0.25))
    return AfeValue(value, max(math.exp(log_tail), math.ulp(0.0)), nmax)


# Odd residues mod q per block of dirichlet_l_half: small enough that the
# block's temporaries stay in L2 and their heap stays small, large enough
# that the per-block numpy calls cost little.  The sieves keep the larger
# arith.SEGMENT.
_ORACLE_BLOCK = 1 << 13

# chi_{8d}(a) / (a|d) as a function of a mod 8, for d = 1 and d = 3 mod 4:
# (2|a), times (-1|a) when d = 3 mod 4; zero at even a
_CHI8D_MOD8 = {
    1: np.array([0, 1, 0, -1, 0, -1, 0, 1], dtype=np.int8),
    3: np.array([0, 1, 0, 1, 0, -1, 0, -1], dtype=np.int8),
}


def _chi8d_residues(d: int, a: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """chi_{8d}(a) for an integer array a >= 0, with jac = jacobi_table(d).

    For odd a, (8d|a) = (2|a)(d|a) = (2|a)(a|d)(-1)^{((d-1)/2)((a-1)/2)}
    by quadratic reciprocity for the Jacobi symbol; even a give 0.
    """
    return _CHI8D_MOD8[d % 4][a % 8] * jac[a % d]


def dirichlet_l_half(d: int) -> float:
    """Independent oracle for L(1/2, chi_{8d}): the Dirichlet series summed
    by residue classes mod q = 8d, with each class's tail handled by
    partial summation in Euler-Maclaurin form: Hurwitz values at 1/2 from
    analytic.hurwitz_em with 24 direct terms and 6 Bernoulli terms, whose
    remainder bound is dropped.

    chi_{8d} comes from the Jacobi table of d (arith.jacobi_table) by
    reciprocity, not from the kronecker routine the AFE uses.  The odd
    residues are walked in blocks of _ORACLE_BLOCK = 2^13, so that the
    float64 temporaries of hurwitz_em's power passes (64 KiB each) fit
    together in a 2 MiB L2 cache; the traced peak, about 1.3 MiB, is the
    Jacobi table's build.  Each residue's term goes through the same
    operations whatever the block, and one math.fsum, which rounds exactly
    in any order, takes every class's term, so the result is bit-identical
    for any block size.
    Memory beyond the Jacobi table is bounded by one block.  Raises
    WorkEstimateError for d > MAX_D_EXACT, before any work of size d.
    """
    if d > MAX_D_EXACT:
        raise WorkEstimateError(
            f"oracle guard: need d <= {MAX_D_EXACT}, got d = {d}")
    arith.check_2d_squarefree(d)
    q = 8 * d
    jac = arith.jacobi_table(d)
    span = 2 * _ORACLE_BLOCK

    def blocks():
        for lo in range(1, q, span):
            a = np.arange(lo, min(lo + span, q), 2)
            chi = _chi8d_residues(d, a, jac)
            live = chi != 0
            yield (chi[live] * hurwitz_em(0.5, a[live] / q, 24, 6)[0]).tolist()

    return q**-0.5 * math.fsum(itertools.chain.from_iterable(blocks()))
