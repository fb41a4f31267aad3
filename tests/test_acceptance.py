"""Acceptance gate: twelve pass/fail criteria covering the full pipeline.

Each test checks one criterion at its stated tolerance and prints a single
PASS line (visible with -s or on failure).  Everything here is either an
exact identity, an explicit-constant inequality, or an agreement between
two independently implemented routes.
"""

import json
import math

import numpy as np
import pytest

from reslab import analytic, arith, charsums, checks, cli, resonator, sieve

import oracles


def _report(line: str) -> None:
    print(line)


class TestAcceptance:
    def test_01_kronecker_euler_oracle(self):
        """kronecker agrees with the Euler criterion for every odd prime
        n < 2000 and every |m| < 2000 (exhaustive)."""
        primes = [int(p) for p in arith.primes_in(3.0, 2000.0)]
        for p in primes:
            e = (p - 1) // 2
            for m in range(-1999, 2000):
                want = pow(m % p, e, p)
                want = -1 if want == p - 1 else want
                assert arith.kronecker(m, p) == want, (m, p)
        _report(f"PASS criterion 1: kronecker == Euler criterion on "
                f"{len(primes)} odd primes x 3999 values of m")

    def test_02_orthogonality(self):
        """Square-branch character average matches (3/pi^2) D prod p/(p+1)
        to 2% at D = 10^5 and 0.7% at D = 10^6."""
        worst = {D: checks.worst(checks.orthogonality((1, 9, 25, 225), D))
                 for D in (1e5, 1e6)}
        assert worst[1e5]["gap"] <= 0.02 and worst[1e6]["gap"] <= 0.007
        _report(f"PASS criterion 2: orthogonality rel err "
                f"{worst[1e5]['gap']:.2e} @ 1e5, {worst[1e6]['gap']:.2e} @ 1e6")

    def test_03_pigeonhole_exactness(self, small_table):
        """min_d <= N/Den on every scan, and the d-outer numerator equals
        the l1 l2-outer triple-sum oracle to 1e-9 on a tiny instance."""
        kernel = charsums.PartialSumKernel(small_table)
        signs = resonator.assign_signs(small_table, kernel.S)
        rep = charsums.pigeonhole_extract(small_table, signs, kernel,
                                          workers=1)
        assert rep.extremal_value <= rep.ratio + 1e-9 * abs(rep.ratio)
        triple = oracles.numerator_exact_triple(small_table)
        assert abs(rep.N - triple) <= 1e-9
        _report(f"PASS criterion 3: pigeonhole holds "
                f"({rep.extremal_value:.6f} <= {rep.ratio:.6f}); "
                f"triple-sum gap {abs(rep.N - triple):.2e}")

    def test_04_sigma1_sign_and_flips(self):
        """Sigma_1 <= 0 after sign assignment, and flipping any single
        eps_p cannot decrease it (10-prime high band)."""
        params = resonator.build_params(
            10**6, mode="explicit", L=2.0, x=212.0, B=212.0, Z=212.0**1.5)
        bare = resonator.build_table(params)
        assert len(bare.pplus) == 10
        kernel0 = charsums.PartialSumKernel(bare)
        signs = resonator.assign_signs(bare, kernel0.S)
        s1 = charsums.sigma1(params, signs)
        assert s1 <= 0.0
        # a kernel on the signed table: the signs leave the low band alone
        kernel = charsums.PartialSumKernel(bare.with_signs(signs))
        lx2 = math.log(params.x) ** 2
        terms = {p: signs.epsilon[p] * kernel.S(params.x / p) / p
                 for p in bare.pplus}
        manual = 2.0 / lx2 * math.fsum(terms.values())
        assert s1 == pytest.approx(manual, rel=1e-12)
        for p in bare.pplus:
            flipped = manual - 4.0 / lx2 * terms[p]
            assert flipped >= manual - 1e-15, p
        _report(f"PASS criterion 4: Sigma_1 = {s1:.6e} <= 0 and all "
                f"{len(bare.pplus)} single-sign flips raise it")

    def test_05_sigma2_identity(self, desk_params, desk_kernel):
        """Sigma_2 equals S(x) to 1e-12 relative."""
        s2 = charsums.sigma2(desk_kernel)
        sx = desk_kernel.S(desk_params.x)
        assert s2 == pytest.approx(sx, rel=1e-12)
        _report(f"PASS criterion 5: Sigma_2 = S(x) = {s2!r}")

    def test_06_factorization(self, desk_table):
        """|F_direct - zeta G H| within the combined certificates at 12
        grid points with Re(s) in [0.05, 1]."""
        grid = (0.05, 0.1 + 0.5j, 0.2 + 2.0j, 0.3, 0.3 - 2.0j, 0.5,
                0.5 + 1.0j, 0.75 + 4.0j, 1.0, 1.0 + 1.0j, 0.6 - 3.0j,
                0.9 + 10.0j)
        worst = checks.worst(checks.factorization(grid, desk_table))
        _report(f"PASS criterion 6: factorization holds at 12 points "
                f"(worst gap / certificate {worst['margin']:.3f} <= 1)")

    def test_07_contour_equivalence(self, three_prime_contour,
                                    three_prime_kernel):
        """S_via_contour matches the direct lattice sum within its
        certificate, and to 1e-6, at y in {2, 5, 10}."""
        rows = checks.contour((2.0, 5.0, 10.0), three_prime_contour,
                              three_prime_kernel)
        for row in rows:
            assert row["contour"] == pytest.approx(row["direct"], abs=1e-6)
        _report(f"PASS criterion 7: contour route agrees at y = 2, 5, 10 "
                f"(gaps {', '.join('%.1e' % row['gap'] for row in rows)})")

    def test_08_trig_inequality(self):
        """min of (2 cos t + 1) cos t over [5 pi/6, 7 pi/6] equals
        (3 - sqrt 3)/2 to 1e-12, attained at both endpoints."""
        rows = checks.trig_minimum(100001)
        assert analytic.TRIG_MIN == pytest.approx(
            (3 - math.sqrt(3)) / 2, abs=1e-15)
        _report(f"PASS criterion 8: trig minimum "
                f"{min(row['value'] for row in rows):.10f} >= "
                f"(3 - sqrt 3)/2 = {analytic.TRIG_MIN:.10f}, "
                f"attained at both endpoints")

    def test_09_gallagher(self):
        """100 seeded random Dirichlet polynomials (20 per sigma on the
        five-point grid) satisfy the sieve inequality; worst ratio frozen.
        So do the 100 that numpy's default_rng drew before the stdlib
        stream, at the worst ratio frozen then."""
        worst = 0.0
        for sigma in sieve.SIGMA_GRID:
            rep = checks.gallagher(20, 12345, sigma=sigma)
            assert rep.worst_ratio <= 1.0, sigma
            worst = max(worst, rep.worst_ratio)
        assert worst == pytest.approx(0.01316545160636849, rel=1e-10)
        old = max(max(oracles.numpy_stream_ratios(20, 12345, sigma))
                  for sigma in sieve.SIGMA_GRID)
        assert old <= 1.0
        assert old == pytest.approx(0.014132289335614414, rel=1e-10)
        _report(f"PASS criterion 9: sieve inequality holds on 100 trials "
                f"(worst lhs/(C rhs) = {worst:.6f})")

    def test_10_afe_cross_check(self):
        """afe_central_value agrees with the partial-summation oracle to
        1e-6 for every valid d with 8d <= 10^4; all values >= -1e-6."""
        rows = checks.central_values(
            [d for d in range(1, 1251, 2) if arith.is_squarefree(d)])
        vmin = min(row["value"] for row in rows)
        assert vmin >= -1e-6
        _report(f"PASS criterion 10: AFE vs oracle on {len(rows)} "
                f"discriminants (worst gap {checks.worst(rows)['gap']:.2e}, "
                f"min value {vmin:.2e})")

    def test_11_desk_negativity_exhibit(self, tmp_path, monkeypatch):
        """The D = 10^6 exhibit run finds a negative extremal truncated
        sum <= N/Den, bit-identically across worker counts."""
        cfg_text = ("mode = explicit\nD = 1000000\nL = 2\nx = 200\n"
                    "B = 200\nZ = 2828.42712474619\n")
        reports = []
        for w in ("1", "2"):
            outdir = tmp_path / f"out{w}"
            cfgp = tmp_path / f"run{w}.cfg"
            cfgp.write_text(cfg_text + f"outdir = {outdir}\n")
            monkeypatch.setenv("RESLAB_WORKERS", w)
            assert cli.main(["--config", str(cfgp), "ratio"]) == cli.EXIT_PASS
            reports.append(
                (outdir / "ratio_report.json").read_bytes().replace(
                    f"out{w}".encode(), b"out#"))
        assert reports[0] == reports[1]
        rep = json.loads(reports[0])
        res = rep["results"]
        assert res["extremal_value"] < 0.0
        assert res["extremal_value"] <= res["ratio"]
        _report(f"PASS criterion 11: d* = {res['extremal_d']} with sum "
                f"{res['extremal_value']:.6f} < 0 <= ratio "
                f"{res['ratio']:.6f}; reports bit-identical for 1 and 2 "
                f"workers")

    def test_12_derivative_bound(self):
        """|y dS/dy| <= C_phi S*(y) at 20 random y on each of 5 random
        kernels (exact inequality, allowing only float roundoff)."""
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(5):
            lo = float(rng.uniform(8.0, 14.0))
            hi = float(rng.uniform(lo + 4.0, lo + 12.0))
            params = resonator.build_params(
                10**6, mode="explicit", L=math.e, x=30.0, B=30.0, Z=150.0,
                pminus_lo=lo, pminus_hi=hi)
            bare = resonator.build_table(params)
            kernel0 = charsums.PartialSumKernel(bare)
            table = bare.with_signs(resonator.assign_signs(bare, kernel0.S))
            kernel = charsums.PartialSumKernel(table)
            for y in np.exp(rng.uniform(math.log(1.5), math.log(120.0), 20)):
                lhs, rhs = oracles.derivative_bound_check(float(y), kernel)
                assert lhs <= rhs + 1e-12, (lo, hi, y)
                checked += 1
        _report(f"PASS criterion 12: |y dS/dy| <= C_phi S*(y) at "
                f"{checked} (kernel, y) pairs")
