import math

import pytest
from hypothesis import given, settings, strategies as st

from reslab import arith, charsums, resonator


class TestBuildParams:
    def test_asymptotic_infeasible_at_desk_scale(self):
        with pytest.raises(resonator.ParamsError, match="[Ii]nfeasible"):
            resonator.build_params(10**6, a=0.2)
        # the error names the minimal feasible D
        try:
            resonator.build_params(10**6, a=0.2)
        except resonator.ParamsError as e:
            assert "e+1" in str(e) or "e1" in str(e)

    def test_asymptotic_feasible_at_huge_D(self):
        D = 1e150
        p = resonator.build_params(D, a=0.2)
        assert p.Y > math.exp(math.e)
        assert p.x == pytest.approx(D ** 0.2, rel=1e-12)
        assert p.Z == pytest.approx(min(p.x * D ** p.delta, p.x ** 1.5), rel=1e-12)
        assert p.L == pytest.approx(
            math.sqrt(math.log(p.Y) * math.log(math.log(p.Y))), rel=1e-12)
        # feasible, but B = x = 10^30: the table refuses before sieving
        with pytest.raises(resonator.WorkEstimateError, match="sieve guard"):
            resonator.build_table(p)

    def test_explicit_band_endpoints(self, desk_params):
        assert desk_params.pminus_lo == pytest.approx(2.0 ** (5 * math.pi / 3))
        assert desk_params.pminus_hi == pytest.approx(2.0 ** (7 * math.pi / 3))

    def test_explicit_requires_L(self):
        with pytest.raises(resonator.ParamsError):
            resonator.build_params(10**6, mode="explicit", x=200.0)

    @pytest.mark.parametrize("override", [{"Z": -1.0}, {"Z": 0.0},
                                          {"L": -2.0}, {"L": 0.0}])
    def test_explicit_rejects_nonpositive(self, override):
        # Z <= 0 would reach sqrt(Z / x), L <= 0 the band edges L^(5 pi/3)
        kw = {"L": 2.0, "x": 200.0, **override}
        with pytest.raises(resonator.ParamsError):
            resonator.build_params(10**6, mode="explicit", **kw)

    def test_b_quarter_floor(self):
        # B = 8 would put the prime 2 in the high band
        for B in (5.0, 8.0):
            with pytest.raises(resonator.ParamsError, match="B/4 > 2"):
                resonator.build_params(10**6, mode="explicit", L=2.0,
                                       x=200.0, B=B)

    @pytest.mark.parametrize("pminus_lo", [1.0, 2.0])
    def test_low_band_excludes_two(self, pminus_lo):
        with pytest.raises(resonator.ParamsError, match="2 < pminus_lo"):
            resonator.build_params(10**6, mode="explicit", L=2.0, x=200.0,
                                   pminus_lo=pminus_lo)

    def test_y_consistency_enforced(self):
        with pytest.raises(resonator.ParamsError):
            resonator.ResonatorParams(
                a=None, D=10**6, delta=None, x=200.0, Z=2000.0, Y=99.0,
                L=2.0, B=200.0, pminus_lo=37.0, pminus_hi=161.0,
                mode="explicit")


class TestTable:
    def test_band_membership(self, desk_params, desk_table):
        assert desk_table.pminus == (41, 43, 47, 53, 59, 61, 67, 71, 73, 79,
                                     83, 89, 97, 101, 103, 107, 109, 113, 127,
                                     131, 137, 139, 149, 151, 157)
        # band overlap resolved in favor of the low band
        assert desk_table.pplus == (163, 167, 173, 179, 181, 191, 193, 197, 199)
        assert not set(desk_table.pminus) & set(desk_table.pplus)

    def test_r_minus_negative_throughout_band(self, desk_params, desk_table):
        for p in desk_table.pminus:
            v = resonator.r_minus(p, desk_params)
            assert v < 0.0
            theta = math.log(p) / (2.0 * math.log(desk_params.L))
            assert 5 * math.pi / 6 <= theta < 7 * math.pi / 6
            assert v == pytest.approx(
                math.cos(theta) * desk_params.L / (math.sqrt(p) * math.log(p)))

    def test_r_minus_reference_value(self, desk_params):
        assert resonator.r_minus(41, desk_params) == pytest.approx(
            -0.07526125520968427, rel=1e-12)

    def test_r_minus_outside_band_is_zero(self, desk_params):
        assert resonator.r_minus(37, desk_params) == 0.0
        assert resonator.r_minus(163, desk_params) == 0.0

    def test_r_plus_magnitude(self, desk_params, desk_table):
        lx2 = math.log(desk_params.x) ** 2
        for p in desk_table.pplus:
            v = resonator.r_plus(p, +1, desk_params)
            assert v == pytest.approx(1.0 / (math.sqrt(p) * lx2))
        with pytest.raises(resonator.ParamsError):
            resonator.r_plus(desk_table.pplus[0], 2, desk_params)

    def test_twists(self, desk_table):
        for p in desk_table.pminus:
            r = desk_table.r(p)
            rp = resonator.r_prime(p, desk_table)
            rt = resonator.r_tilde(p, desk_table)
            assert rp == pytest.approx(r * math.sqrt(p / (p + 1.0)))
            assert rt == pytest.approx(r / ((1 + 1 / p) * (1 + rp * rp)))
            assert abs(rt) < abs(r)

    def test_b_weight_multiplicative_and_bounded(self, desk_table):
        b = resonator.b_weight(41 * 43, 1, desk_table)
        b41 = resonator.b_weight(41, 1, desk_table)
        b43 = resonator.b_weight(43, 1, desk_table)
        assert b == pytest.approx(b41 * b43)
        assert 0 < b < 1
        # primes dividing l are skipped
        assert resonator.b_weight(41 * 43, 41 * 43, desk_table) == 1.0


class TestSigns:
    def test_epsilon_opposes_s(self, desk_table):
        kernel = charsums.PartialSumKernel(desk_table)
        signs = resonator.assign_signs(desk_table, kernel.S)
        for p in desk_table.pplus:
            s = signs.s_values[p]
            assert signs.epsilon[p] * s <= 0.0
            assert signs.epsilon[p] == (-1 if s > 0 else 1)

    def test_sign_state_validates(self):
        from types import MappingProxyType

        with pytest.raises(resonator.ParamsError):
            resonator.SignState(MappingProxyType({163: 1}),
                                MappingProxyType({163: 1.0}))


class TestSupport:
    def test_support_members(self, small_table):
        ns = [n for n, _ in small_table.support]
        assert ns == [1, 11, 13, 17, 19, 23, 29, 143]
        for n, r in small_table.support:
            if n == 1:
                assert r == 1.0
            else:
                assert r == pytest.approx(
                    math.prod(small_table.r(p) for p, _ in arith.factorize(n)))

    def test_support_respects_Z(self, desk_params, desk_table):
        assert all(n <= desk_params.Z for n, _ in desk_table.support)
        assert len(desk_table.support) == 47

    def test_cap_enforced(self, desk_signs):
        # the desk bands under Z = 10^13 have 1.67M support entries; the
        # walk stops once it passes MAX_SUPPORT
        deep = resonator.build_params(10**6, mode="explicit", L=2.0, x=200.0,
                                      B=200.0, Z=1e13)
        table = resonator.build_table(deep).with_signs(desk_signs)
        with pytest.raises(resonator.WorkEstimateError, match="support exceeds"):
            resonator.enumerate_support(table)

    def test_signs_required(self, desk_params):
        bare = resonator.build_table(desk_params)
        with pytest.raises(resonator.ParamsError):
            resonator.enumerate_support(bare)

    def test_sum_rplus_squared_small(self, desk_table, desk_params):
        got = resonator.sum_rplus_squared(desk_table)
        lx4 = math.log(desk_params.x) ** 4
        direct = sum(1.0 / (p * lx4) for p in desk_table.pplus)
        assert got == pytest.approx(direct, rel=1e-12)
        assert got < 1e-3
