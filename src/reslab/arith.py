"""Exact integer kernels: Kronecker symbol, Jacobi residue tables, prime
and squarefree sieves, and factorization by trial division into
(p, e) pairs.

Everything here is pure integer arithmetic (no floating point inside the
symbol computation) and safe to call concurrently.
"""

from __future__ import annotations

import math

import numpy as np

# Working window for segmented sieves, in integers.
SEGMENT = 1 << 22


def kronecker(m: int, n: int) -> int:
    """Kronecker symbol (m|n), extended to all integer pairs.

    Completely multiplicative in n for fixed m; zero iff gcd(m, n) > 1.
    Computed by binary reciprocity in O(log m * log n) word operations.
    """
    a, b = int(m), int(n)
    if b == 0:
        return 1 if a in (1, -1) else 0
    res = 1
    if b < 0:
        b = -b
        if a < 0:
            res = -1
    # factor the even part of the modulus
    e = 0
    while b % 2 == 0:
        b //= 2
        e += 1
    if e:
        if a % 2 == 0:
            return 0
        if e % 2 == 1 and a % 8 in (3, 5):
            res = -res
    # Jacobi symbol (a|b) with b odd positive
    a %= b
    while a:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                res = -res
        a, b = b, a
        if a % 4 == 3 and b % 4 == 3:
            res = -res
        a %= b
    return res if b == 1 else 0


def jacobi_table(n: int) -> np.ndarray:
    """(m|n) for m = 0..n-1, n odd positive, as int8; the symbol is periodic
    mod n.

    Each prime's Legendre table marks the squares k^2 mod p, k <= (p-1)/2,
    and the tables combine over the factorization of n with multiplicity
    (Cohen, A Course in Computational Algebraic Number Theory, 1.4).
    """
    n = int(n)
    if n < 1 or n % 2 == 0:
        raise ValueError(f"need odd n >= 1, got {n}")
    out = np.ones(n, dtype=np.int8)
    for p, e in factorize(n):
        leg = np.full(p, -1, dtype=np.int8)
        leg[0] = 0
        half = (p - 1) // 2
        # squares in blocks, so a prime near 10^8 needs no 400 MB of k
        for lo in range(1, half + 1, SEGMENT):
            k = np.arange(lo, min(lo + SEGMENT, half + 1), dtype=np.int64)
            leg[k * k % p] = 1
        # (m|p) depends on m mod p: multiply every row of p residues in place
        rows = out.reshape(-1, p)
        rows *= leg**e
    return out


class InvalidDiscriminant(ValueError):
    """d does not give a valid even fundamental discriminant 8d."""


def check_2d_squarefree(d: int) -> None:
    """Reject d unless d is a positive integer with 2d squarefree (i.e. d
    odd and squarefree)."""
    if d <= 0 or d % 2 == 0 or not is_squarefree(d):
        raise InvalidDiscriminant(
            f"d must be a positive odd squarefree integer, got d = {d}")


def is_squarefree(n: int) -> bool:
    n = abs(int(n))
    return n != 0 and all(e == 1 for _, e in factorize(n))


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n, by Eratosthenes on a numpy byte array."""
    n = int(n)
    if n < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(n + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.nonzero(flags)[0].astype(np.int64)


def primes_in(lo: float, hi: float) -> np.ndarray:
    """Increasing primes p with lo <= p < hi.  Endpoints may be irrational;
    the comparison is done on the integer lattice (ceil below, open above)."""
    if not (2 <= lo <= hi):
        raise ValueError(f"need 2 <= lo <= hi, got ({lo}, {hi})")
    ps = primes_up_to(math.ceil(hi))
    return ps[(ps >= lo) & (ps < hi)]


def squarefree_sieve(lo: int, hi: int) -> np.ndarray:
    """Indicator array for mu^2(n), n in [lo, hi] inclusive."""
    lo, hi = int(lo), int(hi)
    if not (1 <= lo <= hi):
        raise ValueError(f"need 1 <= lo <= hi, got ({lo}, {hi})")
    out = np.ones(hi - lo + 1, dtype=np.uint8)
    for p in primes_up_to(math.isqrt(hi)).tolist():
        # the first multiple of p^2 at or above lo sits at index -lo % p^2
        out[-lo % (p * p) :: p * p] = 0
    return out


def smallest_prime_factor(n: int) -> np.ndarray:
    """spf[k] = least prime factor of k for 2 <= k <= n (spf[0] = spf[1] = 0)."""
    n = int(n)
    spf = np.zeros(n + 1, dtype=np.int64)
    if n >= 2:
        spf[2::2] = 2
        for p in range(3, math.isqrt(n) + 1, 2):
            if spf[p] == 0:
                tail = spf[p * p :: 2 * p]
                tail[tail == 0] = p
                spf[p] = p
        rest = np.nonzero(spf == 0)[0]
        spf[rest] = rest
    spf[1] = 1
    if n >= 0:
        spf[0] = 0
    return spf


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (p, e) with n = prod p^e, primes increasing, by trial
    division; intended for n below ~10^12."""
    n = int(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    facts = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            facts.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        facts.append((n, 1))
    return tuple(facts)

