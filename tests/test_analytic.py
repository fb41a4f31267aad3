"""Analytic layer: certified Hurwitz zeta, the Euler-product factorization,
contour evaluation, truncation checks, and the resonance lower bound."""

import cmath
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from reslab import analytic, arith, checks, resonator, smoothing

import oracles

SRC = os.path.dirname(os.path.dirname(analytic.__file__))


@pytest.fixture(scope="module")
def empty_band_table():
    """No low-band primes at all: G and F reduce to their generic parts."""
    params = resonator.build_params(
        10**6, mode="explicit", L=math.e, x=30.0, B=30.0, Z=150.0,
        pminus_lo=10.0, pminus_hi=10.5)
    return resonator.build_table(params)


@pytest.fixture(scope="module")
def three_prime_l3_table():
    """The three-prime band {11, 13, 17} at L = 3: same primes, other r~ and
    beta, so a cache keyed on the band primes alone would mix it up."""
    params = resonator.build_params(
        10**6, mode="explicit", L=3.0, x=30.0, B=30.0, Z=150.0,
        pminus_lo=10.0, pminus_hi=18.0)
    return resonator.build_table(params)


def _literal_F(s, table, ell_max, m_max):
    """F_direct's truncated double sum term by term, with b(m, l) from
    resonator.b_weight and c_l = r~(l) d(l) l^{-1/2-s}; returns the value
    and the certificate of F_direct's docstring."""
    sigma = s.real
    rt = {p: resonator.r_tilde(p, table) for p in table.pminus}
    ells = [1]
    for p in sorted(table.pminus):
        ells += [ell * p for ell in ells if ell * p <= ell_max]
    total = 0j
    abs_c = []
    for ell in ells:
        primes = [p for p, _ in arith.factorize(ell)]
        # ell is squarefree, so d(ell) = 2^(number of primes)
        c = (math.prod(rt[p] for p in primes) * 2 ** len(primes)
             * ell ** (-0.5 - s))
        abs_c.append(abs(c))
        total += c * sum(resonator.b_weight(m, ell, table) * m ** (-1 - 2 * s)
                         for m in range(1, m_max + 1))
    big = math.prod(1.0 + 2.0 * abs(r) / math.sqrt(p) for p, r in rt.items())
    tail = (math.fsum(abs_c) * m_max ** (-2 * sigma) / (2 * sigma)
            + ell_max ** -sigma * big)
    return total, tail


def _zeta(s):
    """zeta(s) = zeta(s, 1) from hurwitz_em as F_factored_bounded takes it
    (N = "auto", K = 10), held to a 1e-10 remainder certificate."""
    value, bound = analytic.hurwitz_em(s, 1.0, "auto", 10)
    assert bound <= 1e-10
    return value


def _rounding(s, x, N):
    """A rounding allowance for hurwitz_em(s, x, N, K), K <= 12: its value
    is a running sum of the N direct terms and K + 2 Euler-Maclaurin terms,
    each a complex power off by at most about (1 + |s| log w) ulps of its
    modulus, and each of the N + K + 2 steps of the sum adds at most one
    ulp of the partial sum.  So 2^-52 (N + 16 + |s| log w) times the sum of
    the moduli of the direct terms and of the leading terms w^(1-s)/(s-1)
    and w^(-s)/2 covers it, w = N + x."""
    s = complex(s)
    w = N + x
    mags = (math.fsum((k + x) ** -s.real for k in range(N))
            + w ** (1.0 - s.real) / abs(s - 1.0) + w ** -s.real)
    return 2.0**-52 * (N + 16 + abs(s) * math.log(w)) * mags


def _g(s, table):
    """G(s) = F(s) / (zeta(2s+1) H(s)), with zeta(2s+1) as F takes it."""
    f, _ = analytic.F_factored_bounded(s, table)
    return f / (analytic.hurwitz_em(2 * np.asarray(s) + 1, 1.0, "auto", 10)[0]
                * analytic.H_of_s(s, table))


class TestZeta:
    def test_even_integer_values(self):
        assert _zeta(2.0) == pytest.approx(math.pi**2 / 6, rel=1e-13)
        assert _zeta(4.0) == pytest.approx(math.pi**4 / 90, rel=1e-13)

    def test_direct_sum_oracle_at_three(self):
        # sum n^-3 with an integral tail bracket, independent of the
        # Euler-Maclaurin machinery
        N = 2000
        partial = math.fsum(n**-3.0 for n in range(1, N + 1))
        lo, hi = partial + (N + 1) ** -2.0 / 2, partial + N**-2.0 / 2
        z3 = _zeta(3.0).real
        assert lo <= z3 <= hi
        assert z3 == pytest.approx(1.2020569031595945, rel=1e-14)

    def test_certificate_honest(self):
        for s in (0.6 + 3.0j, 1.5 - 7.0j, 0.5 + 20.0j):
            v50, b50 = analytic.hurwitz_em(s, 1.0, 49, 10)
            v2000, _ = analytic.hurwitz_em(s, 1.0, 1999, 10)
            # the certificate covers truncation; the long reference sum
            # carries its own float roundoff, allowed for separately
            assert abs(v50 - v2000) <= b50 + 2000 * 1e-16

    def test_schwarz_reflection(self):
        s = 0.7 + 5.0j
        assert _zeta(s.conjugate()) == pytest.approx(
            _zeta(s).conjugate(), rel=1e-12)

    def test_pole_residue(self):
        for eps in (1e-3, 1e-5):
            assert (_zeta(1.0 + eps) * eps).real == pytest.approx(
                1.0, abs=5e-3)

    def test_vectorized_matches_scalar(self):
        # every node goes through the same operations whatever the shape it
        # comes in, so the array result equals the scalar calls exactly
        s = np.array([[0.75 + 2.0j, 1.25 - 4.0j, 2.0 + 0.0j],
                      [0.5 + 30.0j, 1.5 + 0.0j, 3.0 - 1.0j]])
        vec, bounds = analytic.hurwitz_em(s, 1.0, 49, 10)
        assert vec.shape == bounds.shape == s.shape
        for sv, vv, bv in zip(s.ravel(), vec.ravel(), bounds.ravel()):
            value, bound = analytic.hurwitz_em(complex(sv), 1.0, 49, 10)
            assert complex(vv) == value
            assert float(bv) == bound


class TestHurwitz:
    POINTS = (2.0, 0.25, 0.5 + 3.0j, 1.5 - 7.0j, -1.5 + 10.0j, 3.0 - 20.0j,
              -6.0 + 0.5j)

    # a short cutoff, so the remainders are far above the rounding and the
    # identities check the bounds: the gaps below reach 20-98 % of them
    N, K = 6, 4

    @pytest.mark.parametrize("s", POINTS)
    def test_duplication_at_half(self, s):
        # zeta(s, 1/2) = (2^s - 1) zeta(s, 1)
        half, bh = analytic.hurwitz_em(s, 0.5, self.N, self.K)
        one, bo = analytic.hurwitz_em(s, 1.0, self.N, self.K)
        factor = 2.0**s - 1.0
        allowed = (bh + abs(factor) * bo + _rounding(s, 0.5, self.N)
                   + abs(factor) * _rounding(s, 1.0, self.N))
        assert abs(half - factor * one) <= allowed

    @pytest.mark.parametrize("s", POINTS)
    @pytest.mark.parametrize("x", (0.125, 0.5, 1.0))
    def test_shift_by_one(self, s, x):
        # zeta(s, x) = x^(-s) + zeta(s, x + 1): the two sides stop their
        # direct parts at different w, so the remainders differ
        left, bl = analytic.hurwitz_em(s, x, self.N, self.K)
        right, br = analytic.hurwitz_em(s, x + 1.0, self.N, self.K)
        allowed = (bl + br + _rounding(s, x, self.N)
                   + _rounding(s, x + 1.0, self.N) + 2.0**-52 * abs(x ** -s))
        assert abs(left - (x ** -s + right)) <= allowed

    # x stays above 2^-30 because x^(-s) overflows doubles for subnormal x,
    # and s stays off a 1e-6 disc around the pole, where w^(1-s)/(s-1) does
    @given(x=st.floats(2.0**-30, 1.0),
           sigma=st.floats(-9.0, 4.0, exclude_min=True),
           t=st.floats(-50.0, 50.0))
    @example(x=1.0, sigma=0.5, t=0.0)
    @example(x=2.0**-30, sigma=4.0, t=50.0)
    @example(x=0.5, sigma=1.0, t=1e-6)
    @settings(max_examples=60, deadline=None)
    def test_bound_covers_truncation(self, x, sigma, t):
        s = complex(sigma, t)
        assume(abs(s - 1.0) >= 1e-6)
        v24, b24 = analytic.hurwitz_em(s, x, 24, 6)
        v2000, _ = analytic.hurwitz_em(s, x, 2000, 6)
        allowed = b24 + _rounding(s, x, 24) + _rounding(s, x, 2000)
        assert abs(v24 - v2000) <= allowed

    def test_array_matches_scalar(self):
        s = np.array([[0.5 + 3.0j], [-2.5 - 40.0j], [2.0 + 0.0j]])
        x = np.array([0.1, 0.5, 1.0, 0.999])
        vec, bounds = analytic.hurwitz_em(s, x, 24, 6)
        assert vec.shape == bounds.shape == (3, 4)
        for i, j in np.ndindex(vec.shape):
            value, bound = analytic.hurwitz_em(complex(s[i, 0]), float(x[j]),
                                               24, 6)
            assert complex(vec[i, j]) == value
            assert float(bounds[i, j]) == bound
        # real s over an array of x, as the central-value oracle calls it
        vec, bounds = analytic.hurwitz_em(0.5, x, 24, 6)
        assert vec.dtype == float
        for xv, vv, bv in zip(x, vec, bounds):
            assert (float(vv), float(bv)) == analytic.hurwitz_em(
                0.5, float(xv), 24, 6)

    def test_integer_n_bits_fixed(self):
        # the central-value oracle's call, and zeta at the old fixed cutoff
        # of F: N = "auto" leaves the integer-N path bit for bit
        x = np.array([0.0625, 0.125, 0.3, 0.5, 0.7, 0.9999, 1.0])
        values, _ = analytic.hurwitz_em(0.5, x, 24, 6)
        assert [float(v).hex() for v in values] == [
            "0x1.3addbe0d1c998p+1", "0x1.3647f0b1bc28ap+0",
            "0x1.6d744d586b751p-7", "-0x1.35b54665c8042p-1",
            "-0x1.02b28624556dfp+0", "-0x1.75d13b86f6161p+0",
            "-0x1.75d9cb07e73fdp+0"]
        z, bound = analytic.hurwitz_em(1.5 + 40j, 1.0, 49, 10)
        assert (z.real.hex(), z.imag.hex(), bound.hex()) == (
            "0x1.c0fa27db71696p-1", "-0x1.07e5b9e8e1041p-2",
            "0x1.eb911bad05c1bp-71")

    @given(sigma=st.floats(-8.0, 6.0), t=st.floats(-60.0, 60.0),
           x=st.floats(2.0**-10, 1.0),
           others=st.lists(st.complex_numbers(max_magnitude=80.0),
                           max_size=5))
    @example(sigma=0.5, t=0.0, x=1.0, others=[])
    @example(sigma=6.0, t=0.0, x=1.0, others=[40j, -3.0])
    @settings(max_examples=40, deadline=None)
    def test_auto_n_is_least_meeting_target(self, sigma, t, x, others):
        # N = "auto" gives the integer-N call at the least N whose bound
        # meets the target, whatever other nodes share the call
        s = complex(sigma, t)
        others = [z for z in others if abs(z - 1.0) >= 1e-3 and z.real > -9.0]
        assume(abs(s - 1.0) >= 1e-3)
        value, bound = analytic.hurwitz_em(s, x, "auto", 10)
        assert bound <= analytic._EM_TARGET
        lo, hi = 1, 1024  # the least N at which the bound meets the target
        while lo < hi:
            mid = (lo + hi) // 2
            if analytic.hurwitz_em(s, x, mid, 10)[1] <= analytic._EM_TARGET:
                hi = mid
            else:
                lo = mid + 1
        assert analytic.hurwitz_em(s, x, lo, 10) == (value, bound)
        if lo > 1:
            assert analytic.hurwitz_em(s, x, lo - 1, 10)[1] > analytic._EM_TARGET
        values, bounds = analytic.hurwitz_em(np.array([*others, s]), x,
                                             "auto", 10)
        assert (complex(values[-1]), float(bounds[-1])) == (value, bound)

    def test_guards(self):
        with pytest.raises(ZeroDivisionError):
            analytic.hurwitz_em(np.array([2.0, 1.0]), 0.5, 24, 6)
        with pytest.raises(smoothing.AccuracyError):
            analytic.hurwitz_em(-11.0 + 3.0j, 0.5, 24, 6)
        analytic.hurwitz_em(-10.5, 0.5, 24, 6)  # just right of the guard
        with pytest.raises(ValueError):
            analytic.hurwitz_em(0.5, np.array([0.5, 0.0]), 24, 6)
        with pytest.raises(ValueError):
            analytic.hurwitz_em(0.5, -0.25, 24, 6)


class TestH:
    def test_empty_band_is_one(self, empty_band_table):
        assert analytic.H_of_s(0.3 + 1.0j, empty_band_table) == 1.0

    def test_finite_product(self, three_prime_table):
        s = 0.4 + 0.7j
        prod = 1.0 + 0.0j
        for p in three_prime_table.pminus:
            rt = resonator.r_tilde(p, three_prime_table)
            prod *= 1.0 + 2.0 * rt * p ** (-0.5 - s)
        assert analytic.H_of_s(s, three_prime_table) == pytest.approx(
            prod, rel=1e-14)

    def test_schwarz_reflection(self, desk_table):
        s = 0.2 + 3.0j
        assert analytic.H_of_s(s.conjugate(), desk_table) == pytest.approx(
            analytic.H_of_s(s, desk_table).conjugate(), rel=1e-13)


class TestG:
    def test_empty_band_value_frozen(self, empty_band_table):
        g = _g(1.0, empty_band_table)
        assert g.imag == 0.0
        assert g.real == pytest.approx(0.9889390562188791, abs=5e-9)

    def test_empty_band_series_route(self, empty_band_table):
        # with no band primes F = zeta(2s+1) G, so the truncated double
        # sum provides an independent route to G(1)
        fd, tail = analytic.F_direct(1.0, empty_band_table)
        g = fd / _zeta(3.0)
        assert abs(g - 0.9889390562188791) <= tail + 1e-9

    def test_domain_guard(self, desk_table):
        with pytest.raises(smoothing.AccuracyError):
            analytic.F_factored_bounded(-0.3, desk_table)
        with pytest.raises(smoothing.AccuracyError):
            analytic.F_factored_bounded(np.array([0.5, -0.3 + 1.0j]),
                                        desk_table)

    def test_log_bounded_on_grid(self, desk_table):
        grid = np.array([0.05, 0.3 + 2.0j, 1.0 - 5.0j, -0.1 + 1.0j])
        for g in _g(grid, desk_table):
            assert abs(cmath.log(g)) < 10.0


class TestFactorization:
    GRID = (0.05, 0.1 + 0.5j, 0.3, 0.3 - 2.0j, 0.5, 0.5 + 1.0j,
            0.75 + 4.0j, 1.0, 1.0 + 1.0j, 1.5 - 3.0j, 2.0, 0.2 + 10.0j)

    @pytest.mark.parametrize("s", GRID)
    def test_direct_equals_factored(self, desk_table, s):
        checks.factorization([s], desk_table)

    @given(which=st.sampled_from(("small", "three", "three_l3")),
           sigma=st.floats(0.05, 2.0), t=st.floats(-30.0, 30.0),
           ell_max=st.floats(1.0, 5e4), m_max=st.integers(1, 300))
    # cutoffs that land exactly on l = 143 = 11 * 13 and on e = 143
    @example(which="small", sigma=0.5, t=1.0, ell_max=143.0, m_max=143)
    @example(which="three_l3", sigma=0.05, t=0.0, ell_max=5e4, m_max=1)
    @settings(max_examples=60, deadline=None)
    def test_direct_equals_literal_double_sum(
            self, small_table, three_prime_table, three_prime_l3_table,
            which, sigma, t, ell_max, m_max):
        table = {"small": small_table, "three": three_prime_table,
                 "three_l3": three_prime_l3_table}[which]
        s = complex(sigma, t)
        with mock.patch.object(analytic, "_ELL_MAX", ell_max), \
                mock.patch.object(analytic, "_M_MAX", m_max):
            fd, fd_tail = analytic.F_direct(s, table)
        value, tail = _literal_F(s, table, ell_max, m_max)
        assert abs(fd - value) <= 1e-12 * abs(value)
        assert fd_tail == pytest.approx(tail, rel=1e-12)

    def test_direct_independent_of_blas_threads(self):
        # the desk lattice has 12 355 (l, e) pairs, enough for OpenBLAS to
        # split a dot product over its threads; F_direct's sum must not
        code = (
            "from reslab import analytic, charsums, resonator\n"
            "p = resonator.build_params(10**6, mode='explicit', L=2.0,"
            " x=200.0, B=200.0, Z=200.0**1.5)\n"
            "t = resonator.build_table(p)\n"
            "k = charsums.PartialSumKernel(t)\n"
            "t = t.with_signs(resonator.assign_signs(t, k.S)).with_support()\n"
            "for s in (0.3 + 0.2j, 0.05, 1.0 + 5.0j):\n"
            "    v = analytic.F_direct(s, t)[0]\n"
            "    print(v.real.hex(), v.imag.hex())\n")
        outs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=SRC,
                       OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert len(outs[0].splitlines()) == 3

    def test_schwarz_reflection(self, desk_table):
        s = 0.6 + 2.5j
        a, _ = analytic.F_direct(s, desk_table)
        b, _ = analytic.F_direct(s.conjugate(), desk_table)
        assert b == pytest.approx(a.conjugate(), rel=1e-12)

    def test_empty_band_structure(self, empty_band_table):
        # F = zeta(2s+1) G when the band is empty (H == 1), with G the
        # product over every odd prime, here written out term by term to
        # 200 000, where its log tail is below 2e-14
        s = 0.8
        f, _ = analytic.F_factored_bounded(s, empty_band_table)
        g = math.prod(1.0 - 1.0 / ((p + 1) * p ** (2 * s + 1))
                      for p in arith.primes_up_to(200_000)[1:].tolist())
        assert f == pytest.approx(_zeta(2 * s + 1) * g, rel=1e-10)

    @pytest.mark.parametrize("s", (0.25, 0.25 + 5.0j, 0.25 + 60.0j,
                                   0.5 - 3.0j, 0.4 + 0.3j))
    def test_generic_product_against_literal(self, empty_band_table, s):
        # with no band F = zeta(2s+1) G, G the product over every odd
        # prime, here summed as logarithms up to 10^6, by no part of F's
        # route: each omitted logarithm is at most 2 p^-x, x = 2 sigma + 2,
        # so the tail is at most 2 P^(1-x) / (x - 1)
        value, cert = analytic.F_factored_bounded(s, empty_band_table)
        p = arith.primes_up_to(10**6)[1:].astype(float)
        w = 2 * s + 2
        logg = np.sum(np.log1p(-np.exp(-w * np.log(p)) * p / (p + 1.0)))
        x = w.real
        tail = 2.0 * 1e6 ** (1.0 - x) / (x - 1.0)
        literal = _zeta(2 * s + 1) * cmath.exp(logg)
        assert abs(value - literal) <= cert + abs(literal) * math.expm1(tail)

    def test_vectorized_matches_scalar(self, desk_table):
        # 400 nodes against the 168 primes up to _P1 take two blocks of the
        # (node, prime) passes; a single node takes one, and a node's
        # operations do not depend on its neighbours
        t = np.linspace(-30.0, 30.0, 200)
        s = np.stack([0.05 + 1j * t, -0.1 + 1j * t[::-1]])
        assert s.size * arith.primes_up_to(analytic._P1).size > analytic._BLOCK
        vec, certs = analytic.F_factored_bounded(s, desk_table)
        assert vec.shape == certs.shape == s.shape
        for idx in ((0, 0), (0, 117), (1, 3), (1, 199)):
            value, cert = analytic.F_factored_bounded(complex(s[idx]),
                                                      desk_table)
            assert complex(vec[idx]) == value
            assert float(certs[idx]) == cert

    def test_certificate_covers_zeta_remainder(self, three_prime_table,
                                               monkeypatch):
        # at the package's target the Euler-Maclaurin remainders sit at
        # rounding level, so here one kind of row of F's hurwitz_em call,
        # zeta(2s+1) or the zeta(m z) of the prime zeta tail, takes N =
        # "auto" at a target of 1e-9, and the other rows N = 400.  F with
        # every row at N = 400 is the reference: the gap is that kind's
        # remainder, the certificate must cover it, and with the
        # remainders zeroed it would not
        monkeypatch.setattr(analytic, "_EM_TARGET", 1e-9)
        hurwitz = analytic.hurwitz_em
        s = np.array([1.5 + 100.0j, 2.0 + 30.0j, 1.0 - 60.0j])

        def at(route):
            with monkeypatch.context() as patch:
                patch.setattr(analytic, "hurwitz_em", route)
                return analytic.F_factored_bounded(s, three_prime_table)

        ref, ref_cert = at(lambda z, x, N, K: hurwitz(z, x, 400, K))
        for first, rest in (("auto", 400), (400, "auto")):
            def mixed(z, x, N, K, zeroed=False):
                v0, b0 = hurwitz(z[:1], x, first, K)
                v1, b1 = hurwitz(z[1:], x, rest, K)
                bounds = np.concatenate([b0, b1])
                return np.concatenate([v0, v1]), bounds * (not zeroed)

            value, cert = at(mixed)
            same, bare_cert = at(lambda z, x, N, K: mixed(z, x, N, K, True))
            assert np.array_equal(same, value)
            gap = np.abs(value - ref)
            assert np.all(bare_cert < gap) and np.all(gap <= cert + ref_cert)

    @pytest.mark.parametrize("s", (-0.145, 0.05))
    def test_certificate_covers_omitted_m_terms(self, three_prime_table,
                                                monkeypatch, s):
        # with P0 = 100 and only m = 1 kept, the omitted m-terms of the
        # prime zeta tail outweigh the bracket tail; the same engine with
        # M = 3 is the reference, and the certificate is within ten times
        # the gap, so it needs the omitted terms' bound
        monkeypatch.setattr(analytic, "_P0", 100)
        ref, ref_cert = analytic.F_factored_bounded(s, three_prime_table)
        monkeypatch.setattr(analytic, "_M", 1)
        value, cert = analytic.F_factored_bounded(s, three_prime_table)
        gap = abs(value - ref)
        assert cert / 10 < gap <= cert + ref_cert


_REFERENCE = {"_P0": 2000, "_P1": 20_000, "_M": 6}


def _reference_F(s, table):
    """F_factored_bounded with P0, P1 and M raised and every zeta at
    N = 400: the same engine, far sharper."""
    hurwitz = analytic.hurwitz_em
    with mock.patch.multiple(
            analytic, **_REFERENCE,
            hurwitz_em=lambda z, x, N, K: hurwitz(
                z, x, 400 if N == "auto" else N, K)):
        return analytic.F_factored_bounded(s, table)


def _steps(table, P0, P1, M):
    """The floating steps that form one node of F_factored_bounded, to
    first order: per prime of its passes the exp, 2M factors of the
    products over p <= P0 or one term of the sum over p > P0, and one
    factor of the generic product; four per band prime; and 1024 for the
    zeta sums (N <= 400 terms at every node tested here), the logarithms
    and the products that join them."""
    primes = set(arith.primes_up_to(P1).tolist()) | set(table.pminus)
    low = sum(1 for p in primes if p <= P0)
    return (2 * len(primes) + 2 * M * low + (len(primes) - low)
            + 4 * len(table.pminus) + 1024)


class TestCertificate:
    """F's certificate covers its real error on the nodes every caller
    uses: the two contour lines and the circle of the three-prime
    table, and the twelve points of `reslab verify factorization`."""

    def _nodes(self, where, table):
        nodes, _ = smoothing.vertical_line_nodes(analytic._TMAX)
        if where == "right":
            return analytic._SIGMA_LINE + 1j * nodes[::97]
        if where == "shifted":
            sigma = -1.0 / math.log(math.log(table.params.D)) ** 2
            return sigma + 1j * nodes[::97]
        theta = np.arange(0, analytic._N_CIRCLE, 16) * (2 * math.pi
                                                       / analytic._N_CIRCLE)
        return 0.15 * np.exp(1j * theta)

    @pytest.mark.parametrize("where", ("right", "shifted", "circle",
                                       "factorization"))
    def test_covers_reference(self, where, three_prime_table, desk_table):
        if where == "factorization":
            table = desk_table
            s = np.array((0.05, 0.1, 0.3, 0.6, 1.0, 0.3 + 0.2j, 0.1 + 1j,
                          0.6 - 0.5j, 1.0 + 2j, 0.05 + 0.3j, 0.8 + 0.1j,
                          0.4 - 1.5j))
        else:
            table = three_prime_table
            s = self._nodes(where, table)
        value, cert = analytic.F_factored_bounded(s, table)
        ref, ref_cert = _reference_F(s, table)
        assert np.all(ref_cert < cert)
        # the certificates bound truncation; rounding is allowed for apart,
        # 2^-52 of |F| per step of either route
        steps = (_steps(table, analytic._P0, analytic._P1, analytic._M)
                 + _steps(table, *_REFERENCE.values()))
        rounding = 2.0**-52 * steps * np.abs(ref)
        assert np.all(np.abs(value - ref) <= cert + ref_cert + rounding)


class TestContour:
    def test_one_F_per_call(self, three_prime_table, monkeypatch):
        # F stubbed to 1: the call count is the point, not the values
        calls = []

        def unit_f(s, table):
            calls.append(np.shape(s))
            return np.ones(np.shape(s), dtype=complex), np.zeros(np.shape(s))

        monkeypatch.setattr(analytic, "F_factored_bounded", unit_f)
        many = analytic.S_via_contour((2.0, 5.0, 10.0), three_prime_table)
        assert len(calls) == 1
        assert many.value.shape == many.err_estimate.shape == (3,)
        one = analytic.S_via_contour(5.0, three_prime_table)
        assert len(calls) == 2
        assert type(one.value) is float and type(one.err_estimate) is float
        assert one.value == many.value[1]
        assert one.err_estimate == many.err_estimate[1]

    def test_certificate_weights_F_per_node(self, three_prime_table,
                                            monkeypatch):
        # F stubbed to 1 with a certificate c on every node: each contour's
        # error estimate grows by c times its quadrature of |y^s phi~ ds|
        table, ys = three_prime_table, (2.0, 5.0)
        estimates = {}
        for c in (0.0, 1.0):
            monkeypatch.setattr(analytic, "F_factored_bounded", lambda s, _: (
                np.ones(np.shape(s), dtype=complex), np.full(np.shape(s), c)))
            circle, line = analytic.shifted_contour(ys, table)
            estimates[c] = (analytic.S_via_contour(ys, table).err_estimate,
                            line.err_estimate, circle.err_estimate)
        nodes, weights = smoothing.vertical_line_nodes(analytic._TMAX)
        sigma = -1.0 / math.log(math.log(table.params.D)) ** 2
        rho = min(1.0 / math.log(max(table.params.x, *ys, 3.0)), 0.15)
        ring = rho * np.exp(2j * math.pi * np.arange(analytic._N_CIRCLE)
                            / analytic._N_CIRCLE)
        for i, y in enumerate(ys):
            def mass(s):
                return np.abs(np.exp(s * math.log(y)) * smoothing.mellin_phi(s))
            want = (np.dot(weights, mass(analytic._SIGMA_LINE + 1j * nodes)),
                    np.dot(weights, mass(sigma + 1j * nodes)),
                    math.pi * np.mean(mass(ring) * rho))
            for got_1, got_0, area in zip(estimates[1.0], estimates[0.0], want):
                assert got_1[i] - got_0[i] == pytest.approx(area / math.pi,
                                                            rel=1e-12)

    @pytest.mark.parametrize("y", (2.0, 5.0, 10.0))
    def test_matches_direct_sum(self, three_prime_contour, three_prime_kernel,
                                y):
        # the fixture holds S_via_contour at y = 2, 5, 10, in that order
        cv = three_prime_contour
        i = (2.0, 5.0, 10.0).index(y)
        [row] = checks.contour([y], analytic.ContourValue(
            cv.value[i:i + 1], cv.err_estimate[i:i + 1]), three_prime_kernel)
        assert row["contour"] == pytest.approx(row["direct"], abs=1e-6)

    def test_shifted_contour_agrees(self, three_prime_table,
                                    three_prime_contour):
        # the fixture holds S_via_contour at y = 2, 5, 10, in that order
        rows = checks.contour_shift((2.0, 5.0, 10.0), three_prime_contour,
                                    three_prime_table)
        assert [row["y"] for row in rows] == [2.0, 5.0, 10.0]
        assert rows[1]["contour"] == pytest.approx(1.5057442856798051,
                                                   abs=1e-6)
        assert rows[1]["shifted"] == pytest.approx(1.5057442939426176,
                                                   rel=1e-12)

    def test_shift_reads_the_given_line(self, three_prime_table, monkeypatch):
        # F stubbed to 1 and an infinite bound: the call count is the point
        calls = []

        def unit_f(s, table):
            calls.append(np.shape(s))
            return np.ones(np.shape(s), dtype=complex), np.zeros(np.shape(s))

        def no_line(y, table):
            raise AssertionError("the check evaluated the right line")

        monkeypatch.setattr(analytic, "F_factored_bounded", unit_f)
        monkeypatch.setattr(analytic, "S_via_contour", no_line)
        cv = analytic.ContourValue(np.zeros(3), np.full(3, np.inf))
        rows = checks.contour_shift((2.0, 5.0, 10.0), cv, three_prime_table)
        assert len(rows) == 3
        assert len(calls) == 2

    def test_shift_off_by_one_fails(self, three_prime_table, monkeypatch):
        right = analytic.ContourValue(np.array([1.0, 2.0, 3.0]),
                                      np.full(3, 1e-3))

        def off_by_one(ys, table):
            zero = analytic.ContourValue(np.zeros(3), np.zeros(3))
            return analytic.ContourValue(right.value + 1.0, np.zeros(3)), zero

        monkeypatch.setattr(analytic, "shifted_contour", off_by_one)
        with pytest.raises(checks.CheckFailed) as err:
            checks.contour_shift((2.0, 5.0, 10.0), right, three_prime_table)
        assert str(err.value).startswith("y = ")
        assert [row["gap"] for row in err.value.rows] == [1.0, 1.0, 1.0]


class TestRankin:
    def test_small_table_report(self, small_table):
        rows = {row["identity"]: row for row in checks.rankin(small_table)}
        assert rows["mass"]["gap"] < 1e-14
        assert 0.0 < rows["tail"]["gap"] <= rows["tail"]["bound"]
        assert rows["square_flat"]["gap"] < 1e-14
        assert rows["square_weighted"]["gap"] < 1e-14

    def test_tail_bound_binds_midway(self, small_table):
        # the cut at sqrt(max n) leaves half of the n in the tail, which
        # is nonempty yet still bounded
        tail = checks.rankin(small_table)[-1]
        assert tail["identity"] == "tail"
        assert tail["gap"] > 0.0
        assert tail["gap"] <= tail["bound"]

    def test_large_table_guarded(self, desk_table):
        with pytest.raises(smoothing.AccuracyError):
            checks.rankin(desk_table)

    def test_unsigned_table_rejected(self, three_prime_params):
        bare = resonator.build_table(three_prime_params)
        with pytest.raises(resonator.ParamsError):
            checks.rankin(bare)


class TestResonance:
    def test_trig_identity_minimum(self):
        checks.trig_minimum(20001)
        theta = np.linspace(5 * math.pi / 6, 7 * math.pi / 6, 20001)
        product = analytic.trig_product(theta)
        assert np.max(np.abs(product - (1 + np.cos(theta)
                                         + np.cos(2 * theta)))) <= 1e-15

    def test_desk_report_frozen(self, desk_table, desk_params):
        rep = analytic.resonance_bound(desk_table)
        assert rep.ratio > 1.0
        assert rep.ratio == pytest.approx(1.1452158552082483, rel=1e-10)
        assert rep.trig_min_observed >= analytic.TRIG_MIN
        assert rep.band_sum > 0.0
        assert abs(rep.t_best - rep.t_center) <= \
            1.0 / math.log(math.log(desk_params.D)) ** 2 + 1e-12


class TestSigma2Bound:
    Y_GRID = (2.0, 5.0, 20.0, 50.0, 120.0, 200.0, 400.0)

    def test_fit_then_freeze(self, desk_table, desk_kernel):
        fit = oracles.sigma2_bound_check(desk_table, self.Y_GRID,
                                         desk_kernel.S)
        assert fit.C == pytest.approx(0.3041928708911808, rel=1e-10)
        assert fit.C <= 0.305
