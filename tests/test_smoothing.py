import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reslab import smoothing


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
        z, w = np.polynomial.legendre.leggauss(32)
        edges = np.linspace(1.0, 4.0, 13)
        half = np.diff(edges)[:, None] / 2.0
        u = ((edges[:-1, None] + edges[1:, None]) / 2.0 + half * z).ravel()
        mass = float(np.dot((half * w).ravel(), -smoothing.psi(u) / u))
        assert mass == pytest.approx(math.log(2.0), abs=1e-8)

    def test_psi_sigma_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            smoothing.psi_sigma(0.0, 0.25)


def inverse_mellin_phi(x: float, sigma: float = 0.25, tmax: float = 300.0,
                       accuracy: float = 1e-10) -> float:
    """Mellin inversion (1/2 pi i) int_(sigma) x^{-s} phi~(s) ds, truncated at
    |Im s| = tmax.  Spectral check of the transform; returns a real value."""
    t, w = smoothing.vertical_line_nodes(tmax)
    s = sigma + 1j * t
    vals = smoothing.mellin_phi(s, accuracy=accuracy)
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

    def test_regularized_is_finite_near_zero(self):
        v = smoothing.mellin_phi_reg(1e-6)
        assert abs(v) < 10.0

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

    def test_monotone_decreasing(self):
        xs = np.linspace(0.0, 4.0, 100)
        vs = [smoothing.afe_weight_V(float(x)) for x in xs]
        assert all(a >= b for a, b in zip(vs, vs[1:]))


class TestTestFunction:
    def test_canonical_is_cached(self):
        assert smoothing.canonical_phi() is smoothing.canonical_phi()

    def test_c_phi_value(self):
        tf = smoothing.canonical_phi()
        # max of |u phi'(u)| over the ramp, frozen after first computation
        assert tf.c_phi == pytest.approx(3.0734, abs=5e-4)
        us = np.linspace(1.0, 2.0, 20001)
        assert float(np.max(np.abs(us * smoothing.phi_prime(us)))) <= tf.c_phi + 1e-9

    def test_support(self):
        tf = smoothing.canonical_phi()
        assert tf.value(tf.support_hi + 0.01) == 0.0
