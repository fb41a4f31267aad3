"""Large-sieve layer: the smoothed test function family f_sigma, its
Fourier data, the admissible frequency window, and the mean-value
inequality on random Dirichlet polynomials."""

import cmath
import math
import random
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from reslab import checks, cli, sieve, smoothing

import oracles


class TestDirichletPolynomial:
    def test_from_pairs_sorts_and_merges(self):
        P = sieve.DirichletPolynomial.from_pairs([(5, 1.0), (2, 2.0 + 1j)])
        assert [n for n, _ in P.terms] == [2, 5]

    def test_rejects_duplicates_and_bad_n(self):
        with pytest.raises(ValueError):
            sieve.DirichletPolynomial(((2, 1.0), (2, 1.0)))
        with pytest.raises(ValueError):
            sieve.DirichletPolynomial(((0, 1.0),))

    def test_evaluation(self):
        P = sieve.DirichletPolynomial.from_pairs([(2, 1.0), (3, 2.0)])
        t = 0.7
        expect = math.cos(t * math.log(2)) + 2 * math.cos(t * math.log(3)) \
            - 1j * (math.sin(t * math.log(2)) + 2 * math.sin(t * math.log(3)))
        assert P(t) == pytest.approx(expect, rel=1e-13)


class TestLhsIntegral:
    def test_single_term_is_diagonal(self):
        P = sieve.DirichletPolynomial.from_pairs([(7, 3.0 - 4.0j)])
        assert sieve.lhs_integral(P, 0.02) == pytest.approx(
            2 * 0.02 * 25.0, rel=1e-12)

    def test_closed_form_vs_quadrature(self, monkeypatch):
        monkeypatch.setattr(sieve, "_MAX_LEN", 12)
        rng = random.Random(7)
        for _ in range(5):
            P = sieve.random_polynomial(rng)
            closed = sieve.lhs_integral(P, 0.02296120471316426)
            direct, _ = quad(lambda t: abs(P(t)) ** 2,
                             -0.02296120471316426, 0.02296120471316426,
                             epsabs=1e-12, limit=200)
            assert closed == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("c", (0.1, 1.0, 5.0, 20.0, 60.0))
    @pytest.mark.parametrize("target", (1e-9, 1e-13))
    def test_node_count_bound_holds(self, c, target):
        # the chosen rule integrates cos(c x) over [-1, 1] within target
        z, w = smoothing.gauss_panels(-1.0, 1.0, 1, sieve._gauss_order(c, target))
        assert abs(np.dot(w, np.cos(c * z)) - 2 * math.sin(c) / c) <= target

    def test_refuses_beyond_node_count_bound(self):
        # alpha log(n_max/n_min) = 100 log 5000 is past what 64 nodes cover
        P = sieve.DirichletPolynomial.from_pairs([(2, 1.0), (10_000, 1.0)])
        with pytest.raises(smoothing.AccuracyError):
            sieve.lhs_integral(P, 100.0)

    def test_rejects_nonpositive_alpha(self):
        P = sieve.DirichletPolynomial.from_pairs([(2, 1.0)])
        with pytest.raises(ValueError):
            sieve.lhs_integral(P, 0.0)

    def test_refuses_nan_gauss_route(self, monkeypatch):
        # NaN compares false both ways, so the guard must not read it as
        # agreement
        gauss_panels = smoothing.gauss_panels

        def nan_weights(*args):
            z, w = gauss_panels(*args)
            return z, w * math.nan

        monkeypatch.setattr(smoothing, "gauss_panels", nan_weights)
        P = sieve.DirichletPolynomial.from_pairs([(2, 1.0), (3, 0.5j)])
        with pytest.raises(smoothing.AccuracyError, match="lhs routes disagree"):
            sieve.lhs_integral(P, 0.02)


def _dense_rhs(P, sigma):
    """The right side on the whole terms x nodes grid: psi_sigma masked to
    each term's support 1 <= n/y <= 4, summed by one matrix product."""
    ns = np.array([n for n, _ in P.terms], dtype=float)
    a = np.array([c for _, c in P.terms], dtype=complex)
    lo, hi = math.log(float(ns.min()) / 4.0), math.log(float(ns.max()))
    npan = max(4, int(math.ceil((hi - lo) * 24)))
    v, w = smoothing.gauss_panels(lo, hi, npan, 8)
    y = np.exp(v)
    ratio = ns[:, None] / y[None, :]
    mask = (ratio >= 1.0) & (ratio <= 4.0)
    vals = np.where(mask, ratio, 2.0)
    psis = smoothing.psi_sigma(vals, sigma) * mask
    inner = a @ psis
    return float(np.dot(w, np.abs(inner) ** 2))


_UNIT_DISK = st.builds(cmath.rect, st.floats(0.0, 1.0),
                       st.floats(0.0, 2.0 * math.pi))


class TestRhsIntegral:
    @given(st.dictionaries(st.integers(1, 10_000), _UNIT_DISK,
                           min_size=1, max_size=50),
           st.sampled_from(sieve.SIGMA_GRID))
    @example({7: 0.6 - 0.8j}, 0.25)  # a single term
    @example({1: 1.0, 2: -0.5j}, -0.45)  # n = 1
    @example({1: 1.0, 50: 1j, 9_000: -0.3}, 0.0)  # disjoint supports
    @settings(max_examples=100, deadline=None)
    def test_bands_match_dense_grid(self, coeffs, sigma):
        # the same products, added in another order
        P = sieve.DirichletPolynomial.from_pairs(coeffs.items())
        assert sieve.rhs_integral(P, sigma) == pytest.approx(
            _dense_rhs(P, sigma), rel=1e-12)

    def test_traced_peak(self):
        # 47 terms over [2, 10^4]: psi_sigma on the full terms x nodes grid
        # peaks at 4.6 MiB, on the terms' bands at under 1 MiB
        ns = sorted({int(n) for n in np.geomspace(2, 1e4, 50)})
        P = sieve.DirichletPolynomial.from_pairs(
            (n, cmath.exp(1j * n)) for n in ns)
        sieve.rhs_integral(P, 0.25)  # fills the gauss_panels cache
        tracemalloc.start()
        try:
            sieve.rhs_integral(P, 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ns) == 47
        assert peak <= 1.5 * 2**20

    def test_single_term_oracle(self):
        # one term: int |psi_sigma(n/y)|^2 dy/y = int_1^4 psi(u)^2 u^{2 sigma} du/u
        for sigma in sieve.SIGMA_GRID:
            P = sieve.DirichletPolynomial.from_pairs([(11, 2.0)])
            got = sieve.rhs_integral(P, sigma)
            want, _ = quad(
                lambda u: float(smoothing.psi(u)) ** 2
                * u ** (2 * sigma) / u, 1.0, 4.0, epsabs=1e-13, limit=200)
            assert got == pytest.approx(4.0 * want, rel=1e-9)

    def test_scale_invariance_at_sigma_zero(self):
        # at sigma = 0 a single term's mass is independent of n
        a = sieve.rhs_integral(
            sieve.DirichletPolynomial.from_pairs([(3, 1.0)]), 0.0)
        b = sieve.rhs_integral(
            sieve.DirichletPolynomial.from_pairs([(3000, 1.0)]), 0.0)
        assert a == pytest.approx(b, rel=1e-9)

    def test_rejects_sigma_out_of_range(self):
        P = sieve.DirichletPolynomial.from_pairs([(2, 1.0)])
        with pytest.raises(ValueError):
            sieve.rhs_integral(P, 0.5)


class TestTestFunctionFamily:
    def test_support(self):
        for sigma in (0.0, 0.25, -0.45):
            assert sieve.f_sigma(-sieve.SUPPORT_C - 0.01, sigma) == 0.0
            assert sieve.f_sigma(0.01, sigma) == 0.0
            # psi <= 0, so f_sigma is strictly negative inside the support
            assert sieve.f_sigma(-0.5 * sieve.SUPPORT_C, sigma) < 0.0

    def test_matches_weight_on_dyadic_window(self):
        # f_sigma(u) = psi_sigma(e^{-u}): spot-check against the scaled psi
        for sigma in (0.0, 0.25):
            for u in (-0.3, -0.9, -1.2):
                x = math.exp(-u)
                assert sieve.f_sigma(u, sigma) == pytest.approx(
                    float(smoothing.psi(x)) * x**sigma, rel=1e-13)

    def test_fhat_vs_quadrature_oracle(self):
        for sigma in (0.0, 0.25, -0.45):
            for xi in (0.0, 0.05, 0.3, 1.7):
                re, _ = quad(lambda u: sieve.f_sigma(u, sigma)
                             * math.cos(2 * math.pi * xi * u),
                             -sieve.SUPPORT_C, 0.0, epsabs=1e-13, limit=200)
                im, _ = quad(lambda u: -sieve.f_sigma(u, sigma)
                             * math.sin(2 * math.pi * xi * u),
                             -sieve.SUPPORT_C, 0.0, epsabs=1e-13, limit=200)
                got = complex(sieve.fhat_sigma(xi, sigma))
                assert got == pytest.approx(complex(re, im), abs=1e-12)

    def test_fhat_vectorized_matches_scalar(self):
        xi = np.array([-0.4, 0.0, 0.9])
        vec = sieve.fhat_sigma(xi, 0.25)
        for x, v in zip(xi, vec):
            assert complex(v) == pytest.approx(
                complex(sieve.fhat_sigma(float(x), 0.25)), rel=1e-13)

    def test_fhat_blocks_match_one_product(self):
        # more frequencies than one block holds, split with no 1-row tail:
        # every value equals the unblocked matrix-vector product's
        u, wt, fv = sieve._f_nodes(0.0)
        xi = np.linspace(-40.0, 40.0, 2 * sieve._FOURIER_ROWS + 1)
        whole = np.exp(-2j * math.pi * xi[:, None] * u[None, :]) @ (wt * fv)
        assert np.array_equal(sieve.fhat_sigma(xi, 0.0), whole)


class TestAdmissibleAlpha:
    def test_frozen_values(self):
        rep = sieve.admissible_alpha()
        assert rep.alpha == pytest.approx(
            1.0 / (10 * math.pi * math.log(4.0)), rel=1e-15)
        assert rep.alpha == pytest.approx(0.02296120471316426, rel=1e-15)
        assert rep.inf_fhat_sq == pytest.approx(0.23768637506838, rel=1e-10)
        assert rep.constant == pytest.approx(
            2 * math.pi / rep.inf_fhat_sq, rel=1e-14)
        assert rep.support_C == sieve.SUPPORT_C
        assert rep.sigma_grid == sieve.SIGMA_GRID

    def test_window_times_support_below_threshold(self):
        rep = sieve.admissible_alpha()
        # the admissibility condition: 2 pi alpha C < 1/5 keeps the
        # frequency window well inside the first zero of f_hat
        assert 2 * math.pi * rep.alpha * rep.support_C == pytest.approx(
            0.2, rel=1e-14)
        assert rep.inf_fhat_sq > 0.0

    def test_refuses_nan_infimum(self, monkeypatch):
        monkeypatch.setattr(sieve, "fhat_sigma",
                            lambda xi, sigma: np.full(np.shape(xi), math.nan))
        sieve.admissible_alpha.cache_clear()
        try:
            with pytest.raises(smoothing.AccuracyError, match="nan"):
                sieve.admissible_alpha()
        finally:
            sieve.admissible_alpha.cache_clear()


class TestAutocorrelation:
    def test_h_is_even(self):
        for x in (0.1, 0.5, 1.0):
            assert sieve.autocorrelation_sigma(x, 0.25) == pytest.approx(
                sieve.autocorrelation_sigma(-x, 0.25), rel=1e-10)

    def test_lags_match_adaptive_quadrature(self):
        for sigma in (0.0, 0.25, -0.45):
            lags = np.array([-1.2, -0.25, 0.0, 0.2, 0.9, 1.35])
            got = sieve.autocorrelation_sigma(lags, sigma)
            for x, h in zip(lags, got):
                want, _ = quad(lambda u: sieve.f_sigma(u, sigma)
                               * sieve.f_sigma(u + x, sigma),
                               max(-sieve.SUPPORT_C, -sieve.SUPPORT_C - x),
                               min(0.0, -x), epsabs=1e-14, epsrel=1e-14,
                               limit=1000)
                assert h == pytest.approx(want, abs=1e-13)
                assert sieve.autocorrelation_sigma(float(x), sigma) == \
                    pytest.approx(h, rel=1e-14)

    def test_h_vanishes_off_support(self):
        assert sieve.autocorrelation_sigma(sieve.SUPPORT_C + 0.01, 0.0) == 0.0
        assert sieve.autocorrelation_sigma(-sieve.SUPPORT_C - 0.01, 0.0) == 0.0

    @pytest.mark.parametrize("sigma", (0.0, 0.25, -0.45))
    def test_transform_identity(self, sigma):
        rep = sieve.autocorrelation_identity_check(sigma)
        assert rep.max_gap < 1e-10
        assert rep.parseval_gap < 1e-12
        assert rep.h_at_zero > 0.0


class TestInequality:
    def test_random_polynomial_shape(self):
        rng = random.Random(0)
        for _ in range(20):
            P = sieve.random_polynomial(rng)
            ns = [n for n, _ in P.terms]
            assert all(2 <= n <= 10_000 for n in ns)
            assert len(ns) == len(set(ns)) <= 50
            assert all(abs(c) <= 1.0 + 1e-12 for _, c in P.terms)

    def test_seeded_trials_frozen(self):
        rep = checks.gallagher(20, 12345, sigma=0.25)
        assert rep.worst_ratio <= 1.0
        assert rep.worst_ratio == pytest.approx(
            0.004667843736142626, rel=1e-10)
        assert asdict(rep)["seed"] == 12345

    def test_numpy_stream_frozen(self):
        # the trials numpy's default_rng(12345) drew, through the same
        # integrals: the value frozen before the stdlib stream
        ratios = oracles.numpy_stream_ratios(20, 12345, sigma=0.25)
        assert max(ratios) <= 1.0
        assert max(ratios) == pytest.approx(0.005014467628820947, rel=1e-10)

    @given(st.integers(min_value=0))
    @example(0)
    @example(12345)
    @settings(max_examples=60, deadline=None)
    def test_stream_shape_and_repeat(self, seed):
        P = sieve.random_polynomial(random.Random(seed))
        ns = [n for n, _ in P.terms]
        assert 1 <= len(ns) <= 50
        assert all(2 <= n <= 10_000 for n in ns)
        assert all(a < b for a, b in zip(ns, ns[1:]))
        assert all(abs(c) <= 1.0 for _, c in P.terms)
        assert sieve.random_polynomial(random.Random(seed)) == P

    @given(st.integers(min_value=0), st.integers(0, 3),
           st.sampled_from(sieve.SIGMA_GRID))
    @settings(max_examples=10, deadline=None)
    def test_check_repeats(self, seed, trials, sigma):
        assert checks.gallagher(trials, seed, sigma) == \
            checks.gallagher(trials, seed, sigma)

    @pytest.mark.parametrize("sigma", sieve.SIGMA_GRID)
    def test_holds_on_every_sigma(self, sigma):
        rep = checks.gallagher(5, 99, sigma=sigma)
        assert rep.worst_ratio <= 1.0

    @pytest.mark.parametrize("route", ["lhs_integral", "rhs_integral"])
    def test_nan_side_fails(self, route, monkeypatch, tmp_path, capsys):
        # a NaN side used to pass every trial and report worst_ratio 0.0
        monkeypatch.setattr(sieve, route, lambda P, arg: math.nan)
        with pytest.raises(checks.CheckFailed, match="^trial = .*nan"):
            checks.gallagher(25, seed=0, sigma=0.25)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["verify", "gallagher"]) == cli.EXIT_ASSERT
        assert "FAIL [gallagher]" in capsys.readouterr().out

    def test_zero_right_side(self, monkeypatch):
        # C * rhs = 0: lhs = 0 holds with margin 0, lhs > 0 fails
        monkeypatch.setattr(sieve, "rhs_integral", lambda P, sigma: 0.0)
        with pytest.raises(checks.CheckFailed, match="^trial = 0: .* bound 0.0$"):
            checks.gallagher(3, seed=0, sigma=0.25)
        monkeypatch.setattr(sieve, "lhs_integral", lambda P, alpha: 0.0)
        assert checks.gallagher(3, seed=0, sigma=0.25).worst_ratio == 0.0
