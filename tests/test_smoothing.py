import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import gammaincc

from reslab import smoothing

# the switch between afe_weight_V's series and its continued fraction
_V_SWITCH_X = math.sqrt(1.5)


class TestPhi:
    def test_plateau_and_support(self):
        assert smoothing.phi(0.0) == 1.0
        assert smoothing.phi(0.7) == 1.0
        assert smoothing.phi(2.0) == 0.0
        assert smoothing.phi(5.0) == 0.0

    def test_midpoint_symmetry(self):
        # the glue is antisymmetric about u = 3/2
        assert smoothing.phi(1.5) == pytest.approx(0.5, abs=1e-15)
        for eps in (0.1, 0.25, 0.4):
            assert smoothing.phi(1.5 - eps) + smoothing.phi(1.5 + eps) == pytest.approx(1.0, abs=1e-12)

    def test_glue_value(self):
        # phi(1.25): exp-glue with f(t) = e^{-1/t} gives 1/(1 + e^{-8/3})
        assert smoothing.phi(1.25) == pytest.approx(1.0 / (1.0 + math.exp(-8.0 / 3.0)), abs=1e-14)

    @given(st.floats(1.0, 2.0), st.floats(1.0, 2.0))
    def test_monotone_on_ramp(self, a, b):
        lo, hi = sorted((a, b))
        assert smoothing.phi(lo) >= smoothing.phi(hi) - 1e-15

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(0.0, 3.0, 301)
        vec = smoothing.phi(xs)
        assert vec.shape == xs.shape
        for x, v in zip(xs, vec):
            assert v == smoothing.phi(float(x))

    def test_derivative_finite_differences(self):
        for u in (1.1, 1.5, 1.9):
            h = 1e-6
            fd = (smoothing.phi(u + h) - smoothing.phi(u - h)) / (2 * h)
            assert smoothing.phi_prime(u) == pytest.approx(fd, abs=1e-7)

    def test_derivative_vanishes_off_ramp(self):
        assert smoothing.phi_prime(0.5) == 0.0
        assert smoothing.phi_prime(2.5) == 0.0

    def test_c_phi_value(self):
        # max of |u phi'(u)| over the ramp, frozen after first computation
        assert smoothing.c_phi() == pytest.approx(3.0734, abs=5e-4)
        us = np.linspace(1.0, 2.0, 20001)
        assert float(np.max(np.abs(us * smoothing.phi_prime(us)))) <= smoothing.c_phi() + 1e-9


class TestGaussPanels:
    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(-3.0, 3.0), width=st.floats(1e-3, 6.0),
           npan=st.integers(1, 64), order=st.integers(1, 32))
    def test_exact_on_polynomials(self, a, width, npan, order):
        # degree <= 2 order - 1 is integrated exactly; the error is measured
        # against int |x|^k, which odd k on an interval about 0 cancels
        b = a + width
        u, w = smoothing.gauss_panels(a, b, npan, order)
        assert u.size == w.size == npan * order
        assert math.fsum(w.tolist()) == pytest.approx(b - a, rel=1e-12)
        fa, fb = Fraction(a), Fraction(b)
        for k in range(2 * order):
            exact = (fb ** (k + 1) - fa ** (k + 1)) / (k + 1)
            mass = (abs(fb) ** (k + 1) + (1 if a * b < 0 else -1)
                    * abs(fa) ** (k + 1)) / (k + 1)
            got = math.fsum((w * u**k).tolist())
            assert abs(got - float(exact)) <= 1e-12 * abs(float(mass))

    def test_cached_arrays_are_read_only(self):
        u, w = smoothing.gauss_panels(1.0, 2.0, 4, 8)
        assert smoothing.gauss_panels(1.0, 2.0, 4, 8)[0] is u
        with pytest.raises(ValueError):
            u[0] = 0.0
        with pytest.raises(ValueError):
            w[0] = 0.0


class TestPsi:
    def test_support_and_sign(self):
        assert smoothing.psi(0.9) == 0.0
        assert smoothing.psi(4.1) == 0.0
        for u in np.linspace(1.01, 3.99, 50):
            assert smoothing.psi(u) <= 0.0

    def test_dyadic_difference(self):
        for u in (1.2, 2.0, 3.5):
            assert smoothing.psi(u) == smoothing.phi(u) - smoothing.phi(u / 2.0)

    def test_l1_log_mass_is_log2(self):
        # telescoping: int |psi| du/u = int (phi(u/2) - phi(u)) du/u = log 2;
        # psi <= 0 lives on [1, 4], integrated by 12 panels of 32-point
        # Gauss-Legendre
        u, w = smoothing.gauss_panels(1.0, 4.0, 12, 32)
        mass = float(np.dot(w, -smoothing.psi(u) / u))
        assert mass == pytest.approx(math.log(2.0), abs=1e-8)

    def test_psi_sigma_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            smoothing.psi_sigma(0.0, 0.25)


def inverse_mellin_phi(x: float, sigma: float = 0.25,
                       tmax: float = 300.0) -> float:
    """Mellin inversion (1/2 pi i) int_(sigma) x^{-s} phi~(s) ds, truncated at
    |Im s| = tmax.  Spectral check of the transform; returns a real value."""
    t, w = smoothing.gauss_panels(0.0, tmax, math.ceil(2 * tmax), 16)
    s = sigma + 1j * t
    vals = smoothing.mellin_phi(s)
    integrand = (x ** (-s) * vals).real  # even in t after taking real part
    return (2.0 / (2 * math.pi)) * float(np.dot(w, integrand))


class TestMellin:
    def test_pole_residue(self):
        # s * phi~(s) -> 1 as s -> 0 (phi(0) = 1)
        for s in (1e-3, 1e-4):
            assert s * smoothing.mellin_phi(s) == pytest.approx(1.0, abs=5 * s)

    def test_integral_at_one(self):
        # phi~(1) = int phi = 3/2 by the midpoint symmetry of the ramp
        assert smoothing.mellin_phi(1.0) == pytest.approx(1.5, abs=1e-10)

    def test_schwarz_reflection(self):
        s = 0.3 + 1.7j
        assert smoothing.mellin_phi(np.conj(s)) == pytest.approx(
            np.conj(smoothing.mellin_phi(s)), abs=1e-12)

    def test_decay_on_vertical_line(self):
        lo = abs(smoothing.mellin_phi(0.25 + 50j))
        hi = abs(smoothing.mellin_phi(0.25 + 200j))
        assert hi < lo < 1e-3

    def test_inversion_round_trip(self):
        assert inverse_mellin_phi(0.5) == pytest.approx(1.0, abs=1e-7)
        assert inverse_mellin_phi(1.5) == pytest.approx(0.5, abs=1e-7)
        assert inverse_mellin_phi(2.5) == pytest.approx(0.0, abs=1e-7)

    def test_rejects_pole(self):
        with pytest.raises((ValueError, ZeroDivisionError)):
            smoothing.mellin_phi(0.0)


class TestAfeWeight:
    def test_endpoints(self):
        assert smoothing.afe_weight_V(0.0) == 1.0
        assert smoothing.afe_weight_V(3.0) == pytest.approx(0.0, abs=1e-4)
        assert smoothing.afe_weight_V(3.0) > 0.0
        assert smoothing.afe_weight_V(1e200) == 0.0
        assert smoothing.afe_weight_V(math.inf) == 0.0

    def test_monotone_decreasing(self):
        xs = np.linspace(0.0, 4.0, 100)
        vs = [smoothing.afe_weight_V(float(x)) for x in xs]
        assert all(a >= b for a, b in zip(vs, vs[1:]))

    @given(st.floats(0.0, 36.4))
    @example(_V_SWITCH_X)
    @example(float(np.nextafter(_V_SWITCH_X, 0.0)))
    @example(float(np.nextafter(_V_SWITCH_X, 2.0)))
    @example(0.0)
    @example(36.4)
    @settings(max_examples=300, deadline=None)
    def test_matches_gammaincc(self, x):
        # scipy is a test-only oracle: Q(1/4, x^2) by its own algorithm
        ref = float(gammaincc(0.25, x * x))
        v = smoothing.afe_weight_V(x)
        assert 0.0 <= v <= 1.0
        if ref >= 1e-300:
            assert abs(v - ref) <= 1e-12 * ref

    def test_array_matches_scalar(self):
        # both branches and the underflow in one array, against one call
        # per element
        xs = np.concatenate([np.linspace(0.0, 36.4, 1001),
                             [_V_SWITCH_X, np.nextafter(_V_SWITCH_X, 2.0)]])
        vs = smoothing.afe_weight_V(xs)
        assert vs.shape == xs.shape
        assert vs.tolist() == [smoothing.afe_weight_V(float(x)) for x in xs]
        assert isinstance(smoothing.afe_weight_V(1.0), float)
        assert smoothing.afe_weight_V(xs.reshape(17, 59)).tolist() == \
            vs.reshape(17, 59).tolist()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            smoothing.afe_weight_V(np.array([1.0, -0.5]))
