import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from reslab import arith


def kronecker_euler_oracle(m, p):
    """(m|p) for odd prime p via Euler's criterion."""
    r = pow(m % p, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


class TestKronecker:
    @pytest.mark.parametrize("m, n, want", [
        (8, 1, 1), (8, 3, -1), (24, 5, 1), (8, 2, 0),
        (0, 1, 1), (0, 5, 0), (1, 1, 1), (-1, 5, 1), (-1, 3, -1),
    ])
    def test_reference_values(self, m, n, want):
        assert arith.kronecker(m, n) == want

    def test_euler_criterion_spot(self):
        for p in (3, 5, 7, 11, 97, 193):
            for m in range(-30, 30):
                assert arith.kronecker(m, p) == kronecker_euler_oracle(m, p)

    @given(st.integers(-10**9, 10**9),
           st.integers(0, 10**4), st.integers(0, 10**4))
    def test_multiplicative_in_n(self, m, i, j):
        n1, n2 = 2 * i + 1, 2 * j + 1
        assert (arith.kronecker(m, n1 * n2)
                == arith.kronecker(m, n1) * arith.kronecker(m, n2))

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
           st.integers(0, 10**4))
    def test_multiplicative_in_m(self, m1, m2, j):
        n = 2 * j + 1
        assert (arith.kronecker(m1 * m2, n)
                == arith.kronecker(m1, n) * arith.kronecker(m2, n))

    def test_reciprocity_exhaustive(self):
        primes = [int(p) for p in arith.primes_up_to(200)[1:]]
        for p in primes:
            for q in primes:
                if p == q:
                    continue
                sign = -1 if (p % 4 == 3 and q % 4 == 3) else 1
                assert arith.kronecker(p, q) * arith.kronecker(q, p) == sign

    def test_periodicity_mod_n(self):
        for n in (3, 9, 15, 35):
            for m in range(-50, 50):
                assert arith.kronecker(m, n) == arith.kronecker(m + 8 * n, n)


_ODD_PRIMES = [int(p) for p in arith.primes_up_to(400)[1:]]


class TestJacobiTable:
    @given(st.one_of(
        st.sampled_from(_ODD_PRIMES),
        st.builds(pow, st.sampled_from(_ODD_PRIMES[:6]), st.integers(2, 4)),
        st.builds(lambda i: 2 * i + 1, st.integers(0, 1500)),
    ))
    @example(1)
    @example(9)  # (m|3)^2: the prime's table enters with multiplicity
    @example(3 * 3 * 5 * 7)
    @settings(max_examples=120, deadline=None)
    def test_matches_kronecker(self, n):
        tab = arith.jacobi_table(n)
        assert tab.dtype == np.int8
        assert tab.tolist() == [arith.kronecker(m, n) for m in range(n)]

    @pytest.mark.parametrize("n", [0, -3, 4])
    def test_rejects_even_or_nonpositive(self, n):
        with pytest.raises(ValueError):
            arith.jacobi_table(n)


class TestChi8d:
    def test_even_n_vanishes(self):
        assert arith.kronecker(8 * 3, 2) == 0
        assert arith.kronecker(8 * 3, 10) == 0

    def test_rejects_bad_discriminant(self):
        with pytest.raises(arith.InvalidDiscriminant):
            arith.check_2d_squarefree(2)  # even d
        with pytest.raises(arith.InvalidDiscriminant):
            arith.check_2d_squarefree(9)  # 2*9 not squarefree

    @given(st.integers(1, 500), st.integers(1, 500))
    @settings(max_examples=300)
    def test_vanishes_iff_not_coprime(self, d, n):
        if d % 2 == 0 or not arith.is_squarefree(d):
            return
        arith.check_2d_squarefree(d)
        chi = arith.kronecker(8 * d, n)
        if math.gcd(8 * d, n) > 1:
            assert chi == 0
        else:
            assert chi in (-1, 1)


class TestSieves:
    def test_primes_up_to(self):
        assert arith.primes_up_to(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_primes_in_real_endpoints(self):
        got = arith.primes_in(10.5, 30.0).tolist()
        assert got == [11, 13, 17, 19, 23, 29]

    @given(st.integers(1, 10**6), st.integers(0, 300))
    @settings(max_examples=60)
    def test_squarefree_sieve_matches_trial_division(self, lo, width):
        hi = lo + width
        marks = arith.squarefree_sieve(lo, hi)
        for n in range(lo, hi + 1):
            assert bool(marks[n - lo]) == arith.is_squarefree(n)

    def test_smallest_prime_factor(self):
        spf = arith.smallest_prime_factor(1000)
        for n in range(2, 1001):
            assert n % spf[n] == 0
            assert spf[n] == arith.factorize(n)[0][0]


_SPF = arith.smallest_prime_factor(10**6)


class TestFactoredInteger:
    def test_roundtrip(self):
        assert arith.factorize(360) == ((2, 3), (3, 2), (5, 1))
        assert not arith.is_squarefree(360)

    def test_squarefree_odd_flags(self):
        pairs = arith.factorize(105)
        assert pairs == ((3, 1), (5, 1), (7, 1))
        assert arith.is_squarefree(105)
        assert all(p != 2 for p, _ in pairs)
        assert tuple(p for p, _ in pairs) == (3, 5, 7)

    @given(st.integers(1, 10**6))
    @settings(max_examples=300)
    def test_pairs_multiply_back(self, n):
        pairs = arith.factorize(n)
        assert math.prod(p**e for p, e in pairs) == n
        primes = [p for p, _ in pairs]
        assert primes == sorted(set(primes))
        assert all(_SPF[p] == p for p in primes)
        assert all(e >= 1 for _, e in pairs)
        assert arith.is_squarefree(n) == all(e == 1 for _, e in pairs)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            arith.factorize(0)
