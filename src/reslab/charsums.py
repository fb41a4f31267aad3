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
results are bit-identical for any worker count and any chunk size.  An
optional sink receives every chunk's rows (d, T(d), R(d)^2) as CSV line
bytes, formatted in the process that computed the chunk and handed over in
chunk order, which is how the CLI writes the family CSV from the same
pass.  Checkpoints are keyed on everything that determines a chunk.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import __version__, arith, resonator, smoothing
from .analytic import BERNOULLI_2K
from .resonator import CoefficientTable, ResonatorParams, SignState


class WorkEstimateError(RuntimeError):
    """A brute-force path was asked to do more work than its guard allows."""


class EmptyFamilyError(RuntimeError):
    """No admissible discriminant carries positive weight."""


# guards for the brute-force paths; the support guard is
# resonator.MAX_SUPPORT, which support enumeration enforces too
MAX_D_EXACT = 10**8
MAX_X = 10**6


@lru_cache(maxsize=100_000)
def _char_table(n: int) -> np.ndarray:
    """(m|n) for m = 0..n-1, n odd positive; the symbol is periodic mod n."""
    return arith.jacobi_table(n)


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
        self.table = table
        self.params = table.params
        self._band = tuple((p, resonator.r_tilde(p, table))
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
            for ell, coef, ps in resonator.band_products(self._band, lim):
                mmax = math.isqrt(int(lim / ell))
                m = np.arange(1.0, mmax + 1)
                b = resonator.b_sieve(self.params, mmax, ps)[1:]
                cols.append((np.full(mmax, float(ell)), m, coef * b / m,
                             ell * m * m))
            self._lattice = tuple(np.concatenate(c) for c in zip(*cols))
            self._lim = lim
        ell, m, base, lm2 = self._lattice
        keep = m * m <= lim / ell
        return base[keep], lm2[keep] / y

    def S(self, y: float) -> float:
        """S(y) = sum_l c_l sum_m b(m,l)/m phi(l m^2 / y)."""
        if y < 0.5:
            return 0.0
        base, u = self._window(y, 2.0 * y)
        return math.fsum((base * smoothing.phi(u)).tolist())

    def S_star(self, y: float) -> float:
        """Absolute-value companion: all cutoffs replaced by the window
        m^2 <= 2y/l, coefficients in absolute value.  Nonnegative and
        nondecreasing in y."""
        if y < 0.5:
            return 0.0
        base, _ = self._window(y, 2.0 * y)
        return math.fsum(np.abs(base).tolist())

    def S_tilde(self, y: float) -> float:
        """Dyadic difference S(y) - S(2y), summed through psi directly."""
        if y < 0.25:
            return 0.0
        base, u = self._window(y, 4.0 * y)
        return math.fsum((base * smoothing.psi(u)).tolist())

    def y_dS(self, y: float) -> float:
        """y * dS/dy, by exact termwise differentiation of the cutoff."""
        if y < 0.5:
            return 0.0
        base, u = self._window(y, 2.0 * y)
        return math.fsum((-base * u * smoothing.phi_prime(u)).tolist())


def derivative_bound_check(y: float, kernel: PartialSumKernel) -> tuple[float, float]:
    """(lhs, rhs) with lhs = |y dS/dy| and rhs = C_phi * S*(y)."""
    lhs = abs(kernel.y_dS(y))
    rhs = smoothing.c_phi() * kernel.S_star(y)
    return lhs, rhs


# --------------------------------------------------------------------------
# sigma_1 and sigma_2
# --------------------------------------------------------------------------

def sigma1(params: ResonatorParams, table: CoefficientTable, signs: SignState,
           kernel: PartialSumKernel | None = None) -> float:
    """(2/(log x)^2) sum over high-band p of (eps_p / p) S(x/p).

    With the sign rule in force every term is -|S(x/p)|/p, so the total is
    nonpositive (ties S = 0 contribute zero either way).
    """
    kernel = kernel or PartialSumKernel(table)
    x = params.x
    pref = 2.0 / math.log(x) ** 2
    return pref * math.fsum(
        signs.epsilon[p] / p * kernel.S(x / p) for p in table.pplus
    )


def sigma2(params: ResonatorParams, kernel: PartialSumKernel) -> float:
    """The diagonal remainder; identically S(x)."""
    return kernel.S(params.x)


def sigma2_display(params: ResonatorParams, table: CoefficientTable) -> float:
    """Independent plain-loop evaluation of the sigma_2 double sum, used as
    a cross-check on the kernel: iterates candidate l directly and factors
    by trial division instead of using the kernel's caches."""
    x = params.x
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
                            b *= resonator.b_prime_factor(q, params)
                    q += 2
                if mm % 2 == 0:
                    while mm % 2 == 0:
                        mm //= 2
                if mm > 1 and ell % mm != 0:
                    b *= resonator.b_prime_factor(mm, params)
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


class CheckpointError(ValueError):
    """A scan checkpoint is unreadable, belongs to a different run,
    disagrees with the chunks it claims to hold, or would be written to a
    directory that does not exist."""


def _scan_state(params, table):
    """What every chunk of one scan shares: the support with r(n), the
    truncation weights phi(n/x)/sqrt(n), and the prime basis.

    Every support element and every odd n <= 2x factors over primes no
    larger than max(2x, B).  The basis lists those primes with their
    residue tables, and each composite n as (n, p) with p its least prime
    factor; sorted by n, so the cofactor n/p, which is in the list or is 1,
    always comes first.
    """
    x = params.x
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
        "primes": [(p, _char_table(p))
                   for p in sorted(n for n, p in least.items() if n == p)],
        "composites": sorted((n, p) for n, p in least.items() if n != p),
    }


def _chunk_arrays(lo: int, hi: int, state: dict):
    """Admissible d in [lo, hi] with weights R(d)^2 and truncated sums.

    chi_{8d} is completely multiplicative, so a residue table is gathered
    once per prime and chi(n) = chi(p) chi(n/p) is formed as an int8
    product.  R and T then accumulate over n in the order of the support
    and of the truncation, so their floats do not depend on how chi was
    obtained.
    """
    d = np.arange(lo | 1, hi + 1, 2, dtype=np.int64)
    if d.size:
        sf = arith.squarefree_sieve(lo, hi)[d - lo].astype(bool)
        d = d[sf]
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


FAMILY_CSV_HEADER = b"d,truncated_sum,weight\r\n"


def _csv_lines(d, t, w) -> bytes:
    """The rows as CSV lines "d,repr(T),repr(R^2)\r\n" under
    FAMILY_CSV_HEADER, what csv.writer would write (ints and repr floats
    never need quoting)."""
    return "".join([f"{di},{ti!r},{wi!r}\r\n" for di, ti, wi
                    in zip(d.tolist(), t.tolist(), w.tolist())]).encode()


def _scan_chunk(bounds: tuple[int, int], state: dict, keep_rows: bool):
    """Summary [Den parts, Num parts, min T over positive weight, its d,
    admissible count] of the chunk [lo, hi], and its rows as CSV line bytes
    when keep_rows; deterministic for fixed bounds."""
    d, w, t = _chunk_arrays(*bounds, state)
    lines = _csv_lines(d, t, w) if keep_rows else None
    if d.size == 0:
        return [[], [], math.inf, -1, 0], lines
    denom = _exact_parts(w.tolist())
    numer = _exact_parts((w * t).tolist())
    pos = w > 0
    if np.any(pos):
        tp = np.where(pos, t, math.inf)
        i = int(np.argmin(tp))
        mval, md = float(t[i]), int(d[i])
    else:
        mval, md = math.inf, -1
    return [denom, numer, mval, md, int(d.size)], lines


_WORKER_STATE = None


def _init_worker(state):
    global _WORKER_STATE
    _WORKER_STATE = state


def _worker_chunk(args):
    bounds, keep_rows = args
    return _scan_chunk(bounds, _WORKER_STATE, keep_rows)


def default_workers() -> int:
    env = os.environ.get("RESLAB_WORKERS")
    if not env:
        return os.cpu_count() or 1
    try:
        w = int(env)
    except ValueError:
        w = 0
    if w < 1:
        raise ValueError(f"RESLAB_WORKERS must be a positive integer, got {env!r}")
    return w


def _scan_digest(params: ResonatorParams, table: CoefficientTable,
                 state: dict, chunk_size: int) -> str:
    """Identity of a scan: everything that determines a chunk's summary.

    The cutoff enters the chunks only through the truncation weights
    phi(n/x)/sqrt(n), so those weights stand for it: a change to phi's code
    changes the digest.
    """
    payload = {
        "version": __version__,
        "D": params.D, "x": params.x, "Z": params.Z, "L": params.L, "B": params.B,
        "pminus": [params.pminus_lo, params.pminus_hi],
        "chunk_size": chunk_size,
        "support": state["support"],
        "truncation": state["truncation"],
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def _load_checkpoint(path: str, digest: str) -> dict[int, list]:
    try:
        with open(path, encoding="utf-8") as fh:
            ck = json.load(fh)
    except (OSError, ValueError) as e:
        raise CheckpointError(f"cannot read checkpoint {path}: {e}") from e
    if not isinstance(ck, dict) or ck.get("digest") != digest:
        raise CheckpointError(f"checkpoint {path} belongs to a different run")
    return {int(k): v for k, v in ck["chunks"].items()}


def scan_family(params: ResonatorParams, table: CoefficientTable,
                workers: int | None = None, chunk_size: int = 1 << 17,
                checkpoint: str | None = None, sink=None) -> FamilyScan:
    """Denominator, numerator, and weighted minimum over the whole family.

    Each chunk reduces to the exact parts of its sums, and one fsum over
    all parts gives the correctly rounded totals, so the result does not
    depend on the worker count or the chunk size.  An optional
    checkpoint file (JSON, keyed on the run's digest) lets an interrupted
    run resume; its directory must exist before the scan starts.

    An optional ``sink(lines)`` receives every chunk's rows as one bytes
    object of CSV lines ``d,repr(T(d)),repr(R(d)^2)\r\n``, one line per
    admissible d in increasing order (empty for a chunk without one).  The
    process that computes a chunk, a pool worker or the caller, formats
    its lines; the sink is called in chunk-index order, from the calling
    process.  Because it needs every row, chunks restored from a
    checkpoint are computed again, and each must reproduce its stored
    summary exactly or CheckpointError is raised.
    """
    if table.support is None:
        raise ValueError("support not enumerated; call table.with_support()")
    D = params.D
    if (D > MAX_D_EXACT or len(table.support) > resonator.MAX_SUPPORT
            or params.x > MAX_X):
        raise WorkEstimateError(
            f"exact scan guard: need D <= {MAX_D_EXACT}, support <= "
            f"{resonator.MAX_SUPPORT}, x <= {MAX_X}; got D = {D}, "
            f"support = {len(table.support)}, x = {params.x}")
    lo = int(D // 2) + 1
    hi = int(D)
    if lo > hi:
        raise EmptyFamilyError(f"empty range ({D/2}, {D}]")
    bounds = [(a, min(a + chunk_size - 1, hi)) for a in range(lo, hi + 1, chunk_size)]

    if checkpoint and not os.path.isdir(os.path.dirname(checkpoint) or "."):
        raise CheckpointError(
            f"checkpoint {checkpoint}: directory does not exist")

    state = _scan_state(params, table)
    digest = _scan_digest(params, table, state, chunk_size)
    done: dict[int, list] = {}
    if checkpoint and os.path.exists(checkpoint):
        done = _load_checkpoint(checkpoint, digest)
    keep_rows = sink is not None
    todo = [i for i in range(len(bounds)) if keep_rows or i not in done]

    def record(i, summary, lines):
        if i in done:
            if done[i] != summary:
                raise CheckpointError(
                    f"checkpoint {checkpoint}: chunk {i} does not match its "
                    f"recomputation")
        else:
            done[i] = summary
            if checkpoint:
                tmp = checkpoint + ".tmp"
                with open(tmp, "w", encoding="utf-8") as fh:
                    json.dump({"digest": digest, "chunks": done}, fh)
                os.replace(tmp, checkpoint)
        if keep_rows:
            sink(lines)

    workers = workers if workers is not None else default_workers()
    if workers > 1 and len(todo) > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(state,)) as ex:
            jobs = [(bounds[i], keep_rows) for i in todo]
            for i, res in zip(todo, ex.map(_worker_chunk, jobs)):
                record(i, *res)
    else:
        for i in todo:
            record(i, *_scan_chunk(bounds[i], state, keep_rows))

    denom = math.fsum(p for i in range(len(bounds)) for p in done[i][0])
    numer = math.fsum(p for i in range(len(bounds)) for p in done[i][1])
    best = min((done[i][2], done[i][3]) for i in range(len(bounds)))
    count = sum(done[i][4] for i in range(len(bounds)))
    return FamilyScan(denom, numer, best[0], best[1], count, len(bounds))


def denominator_asymptotic(params: ResonatorParams, table: CoefficientTable) -> float:
    """(2/pi^2) D * prod over the low band of (1 + r'(p)^2)."""
    prod = 1.0
    for p in table.pminus:
        prod *= 1.0 + resonator.r_prime(p, table) ** 2
    return 2.0 / math.pi**2 * params.D * prod


def numerator_exact_triple(params: ResonatorParams,
                           table: CoefficientTable) -> float:
    """Tiny-instance oracle: the numerator as the support-outer triple sum

        sum_{l1, l2} r(l1) r(l2) sum_n phi(n/x)/sqrt(n)
            sum_d mu^2(2d) chi_{8d}(l1 l2 n).

    Exponentially slower than the d-outer loop; guarded accordingly.
    """
    if table.support is None:
        raise ValueError("support not enumerated")
    D, x = params.D, params.x
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


@dataclass(frozen=True)
class RatioReport:
    N: float
    Den: float
    ratio: float
    sigma1: float
    sigma2: float
    offdiag_bound_observed: float
    extremal_d: int
    extremal_value: float
    admissible: int = 0
    sum_rplus_sq: float = 0.0

    def to_dict(self) -> dict:
        return {
            "N": self.N, "Den": self.Den, "ratio": self.ratio,
            "sigma1": self.sigma1, "sigma2": self.sigma2,
            "offdiag_bound_observed": self.offdiag_bound_observed,
            "extremal_d": self.extremal_d,
            "extremal_value": self.extremal_value,
            "admissible": self.admissible,
            "sum_rplus_sq": self.sum_rplus_sq,
        }


def pigeonhole_extract(params: ResonatorParams, table: CoefficientTable,
                       signs: SignState,
                       kernel: PartialSumKernel | None = None,
                       workers: int | None = None,
                       checkpoint: str | None = None, sink=None) -> RatioReport:
    """Full ratio pipeline: exact Num and Den, the minimizing discriminant,
    and the sigma diagnostics.  The returned extremal value satisfies the
    exact weighted-average pigeonhole  min <= Num/Den.  ``kernel``, when
    given, is the partial-sum kernel behind the signs, reused for sigma_1
    and sigma_2; ``sink`` receives the family's CSV lines as in
    scan_family."""
    scan = scan_family(params, table, workers=workers,
                       checkpoint=checkpoint, sink=sink)
    if scan.denom <= 0.0 or scan.min_d < 0:
        raise EmptyFamilyError("denominator vanishes: no admissible d")
    ratio = scan.numer / scan.denom
    kernel = kernel or PartialSumKernel(table)
    s1 = sigma1(params, table, signs, kernel)
    s2 = sigma2(params, kernel)
    dasym = denominator_asymptotic(params, table)
    offdiag = abs(scan.denom - dasym) / params.D ** (5.0 / 6.0)
    return RatioReport(
        N=scan.numer, Den=scan.denom, ratio=ratio, sigma1=s1, sigma2=s2,
        offdiag_bound_observed=offdiag, extremal_d=scan.min_d,
        extremal_value=scan.min_value, admissible=scan.admissible,
        sum_rplus_sq=resonator.sum_rplus_squared(table),
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
        tab = _char_table(n)
        parts = []
        for a in range(lo, hi + 1, arith.SEGMENT):
            b = min(a + arith.SEGMENT - 1, hi)
            d = np.arange(a | 1, b + 1, 2, dtype=np.int64)
            if d.size == 0:
                continue
            sf = arith.squarefree_sieve(a, b)[d - a].astype(bool)
            d = d[sf]
            parts.append(float(np.sum(tab[(8 * d) % n], dtype=np.int64)))
        exact = math.fsum(parts)
    main = 0.0
    root = math.isqrt(n)
    if n % 2 == 1 and root * root == n:
        main = 3.0 / math.pi**2 * D
        for p, _ in arith.factorize(2 * n).factors:
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


def _hurwitz_half(x: np.ndarray, N: int = 24, K: int = 6) -> np.ndarray:
    """zeta(1/2, x) by Euler-Maclaurin, vectorized over 0 < x <= 1.

    The direct part adds the terms (k + x)^(-1/2), k < N, one k at a time,
    each computed in one scratch array the size of x, so a call holds a few
    arrays of len(x) doubles (dirichlet_l_half passes one residue block).
    Every element goes through the same operations in the same order
    whatever the length of x, so the value at x does not depend on its
    neighbours."""
    s = 0.5
    base = x ** (-s)
    t = np.empty_like(base)
    for k in range(1, N):
        np.add(k, x, out=t)
        np.power(t, -s, out=t)
        base += t
    w = N + x
    out = base + w ** (1 - s) / (s - 1) + 0.5 * w ** (-s)
    poch = s
    fact = 1.0
    for j in range(1, K + 1):
        fact *= (2 * j - 1) * (2 * j)
        out += BERNOULLI_2K[j - 1] / fact * poch * w ** (-s - 2 * j + 1)
        poch *= (s + 2 * j - 1) * (s + 2 * j)
    return out


# Odd residues mod q per block of dirichlet_l_half: small enough that the
# block's temporaries stay in L2, large enough that the per-block numpy
# calls cost little.  The sieves keep the larger arith.SEGMENT.
_ORACLE_BLOCK = 1 << 15

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
    partial summation in Euler-Maclaurin form (Hurwitz values at 1/2).

    chi_{8d} comes from the Jacobi table of d (arith.jacobi_table) by
    reciprocity, not from the kronecker routine the AFE uses.  The odd
    residues are walked in blocks of _ORACLE_BLOCK = 2^15, so that the
    float64 temporaries of the 32 power passes in _hurwitz_half (256 KiB
    each) fit together in a 2 MiB L2 cache.  Each residue's term goes
    through the same operations whatever the block, and one math.fsum,
    which rounds exactly in any order, takes every class's term, so the
    result is bit-identical for any block size.  Memory beyond the Jacobi
    table is bounded by one block.  Raises WorkEstimateError for
    d > MAX_D_EXACT, before any work of size d.
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
            yield (chi[live] * _hurwitz_half(a[live] / q)).tolist()

    return q**-0.5 * math.fsum(itertools.chain.from_iterable(blocks()))
