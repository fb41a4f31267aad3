"""Character-sum layer: partial-sum kernel, family scan, ratio pipeline,
orthogonality, and the smoothed central-value formula."""

import concurrent.futures
import dataclasses
import io
import math
import os
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import gammaincc

from reslab import arith, charsums, checks, resonator, smoothing

import oracles


def _parse_csv_lines(data):
    """Rows (d, T, R^2) of a scan's CSV bytes, parsed with int and float
    after the header; every line ends in CRLF."""
    text = data.decode()
    assert text.endswith("\r\n")
    header, *lines = text.split("\r\n")[:-1]
    assert header == "d,truncated_sum,weight"
    rows = []
    for line in lines:
        d, t, w = line.split(",")
        rows.append((int(d), float(t), float(w)))
    return rows


@pytest.fixture(scope="module")
def small_signs(small_table):
    kernel = charsums.PartialSumKernel(small_table)
    return resonator.assign_signs(small_table, kernel.S)


@pytest.fixture(scope="module")
def small_kernel(small_table):
    return charsums.PartialSumKernel(small_table)


def _literal_sums(table, y):
    """S, S*, S~ and y S' at y by a plain double loop: l over the integers
    whose factorization is squarefree in the low band, m up to the window
    m^2 <= lim / l, with r~, b_weight and a scalar weight per term."""
    band = set(table.pminus)
    sums = []
    for lim, weight in ((2.0 * y, lambda base, u: base * smoothing.phi(u)),
                        (2.0 * y, lambda base, u: abs(base)),
                        (4.0 * y, lambda base, u: base * smoothing.psi(u)),
                        (2.0 * y, lambda base, u: -base * u * smoothing.phi_prime(u))):
        terms = []
        for ell in range(1, int(lim) + 1):
            pairs = arith.factorize(ell)
            if not (all(e == 1 for _, e in pairs)
                    and {p for p, _ in pairs} <= band):
                continue
            coef = 1.0
            for p, _ in pairs:
                coef *= 2.0 * resonator.r_tilde(p, table)
            coef /= math.sqrt(ell)
            m = 1
            while m * m <= lim / ell:
                b = resonator.b_weight(m, ell, table)
                terms.append(weight(coef * b / m, ell * m * m / y))
                m += 1
        sums.append(math.fsum(terms))
    return sums


@pytest.fixture(scope="module")
def lattice_tables(small_table, three_prime_table, desk_table):
    return {"small": small_table, "three": three_prime_table,
            "desk": desk_table}


class TestKernel:
    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(["small", "three", "desk"]),
           y=st.floats(0.5, 500.0))
    # l m^2 = 2y at the S window edge (41 * 3^2 = 369, 11 * 2^2 = 44) and
    # l m^2 = 4y at the S~ edge
    @example(name="desk", y=184.5)
    @example(name="desk", y=92.25)
    @example(name="small", y=22.0)
    def test_lattice_matches_literal_loop(self, lattice_tables, name, y):
        kernel = charsums.PartialSumKernel(lattice_tables[name])
        got = [kernel.S(y), kernel.S_star(y), kernel.S_tilde(y),
               kernel.y_dS(y)]
        assert got == pytest.approx(_literal_sums(lattice_tables[name], y),
                                    rel=1e-12)

    def test_lattice_history_independent(self, lattice_tables):
        # a kernel grown at a large y first answers smaller y with the same
        # floats as a fresh kernel for each y
        ys = (300.0, 184.5, 92.25, 22.0, 7.3, 2.0, 0.6, 0.3)
        for table in lattice_tables.values():
            grown = charsums.PartialSumKernel(table)
            for y in ys:
                fresh = charsums.PartialSumKernel(table)
                for f in ("S", "S_star", "S_tilde", "y_dS"):
                    assert getattr(grown, f)(y) == getattr(fresh, f)(y)

    def test_tilde_routes_agree(self, small_kernel):
        for y in (3.0, 7.0, 15.0, 40.0):
            via_psi = small_kernel.S_tilde(y)
            via_diff = small_kernel.S(y) - small_kernel.S(2.0 * y)
            assert via_psi == pytest.approx(via_diff, abs=1e-12)

    def test_small_values_frozen(self, small_kernel):
        assert small_kernel.S(10.0) == pytest.approx(
            1.9327658236860883, rel=1e-13)
        assert small_kernel.S_tilde(7.0) == pytest.approx(
            -0.3909229828708263, rel=1e-12)

    def test_desk_value_frozen(self, desk_kernel):
        assert desk_kernel.S(100.0) == pytest.approx(
            2.576950844853294, rel=1e-13)

    def test_tiny_y_single_term(self, small_kernel, small_params):
        # at y = 1 only l = m = 1 survives (the next l is 11, and the
        # m = 2 term sits past the cutoff), and phi(1) is on the plateau
        assert small_kernel.S(1.0) == pytest.approx(1.0, rel=1e-13)

    def test_derivative_matches_finite_difference(self, small_kernel):
        for y in (3.3, 7.7, 19.1):
            h = 1e-6 * y
            fd = y * (small_kernel.S(y + h) - small_kernel.S(y - h)) / (2 * h)
            assert small_kernel.y_dS(y) == pytest.approx(fd, abs=1e-5)

    def test_derivative_bound(self, small_kernel):
        for y in (2.0, 5.0, 11.0, 29.0, 55.0):
            lhs, rhs = oracles.derivative_bound_check(y, small_kernel)
            assert lhs <= rhs + 1e-12


class TestSigmas:
    def test_sigma2_is_S_at_x(self, small_params, small_kernel):
        assert charsums.sigma2(small_kernel) == small_kernel.S(small_params.x)

    def test_sigma2_dual_route(self, small_table, small_kernel):
        fast = charsums.sigma2(small_kernel)
        slow = charsums.sigma2_display(small_table)
        assert fast == pytest.approx(slow, rel=1e-12)

    def test_sigma2_dual_route_desk(self, desk_table, desk_kernel):
        fast = charsums.sigma2(desk_kernel)
        slow = charsums.sigma2_display(desk_table)
        assert fast == pytest.approx(2.7891790342039684, rel=1e-12)
        assert fast == pytest.approx(slow, rel=1e-12)

    def test_sigma1_nonpositive(self, small_params, small_signs):
        s1 = charsums.sigma1(small_params, small_signs)
        assert s1 <= 0.0
        assert s1 == pytest.approx(-0.013478570458728353, rel=1e-12)

    def test_sigma1_desk_frozen(self, desk_params, desk_signs):
        s1 = charsums.sigma1(desk_params, desk_signs)
        assert s1 <= 0.0
        assert s1 == pytest.approx(-0.003528976676930371, rel=1e-12)


class TestSingleDiscriminant:
    def test_truncated_sum_even_terms_vanish(self, small_params):
        # the full loop including even n must agree: chi_{8d} kills evens
        x = small_params.x
        for d in (1, 3, 7, 11):
            full = math.fsum(
                arith.kronecker(8 * d, n)
                * smoothing.phi(n / x)
                / math.sqrt(n)
                for n in range(1, int(2 * x) + 1))
            assert charsums.truncated_sum(d, x) == pytest.approx(
                full, abs=1e-12)

    def test_truncated_sum_rejects_bad_d(self):
        with pytest.raises(arith.InvalidDiscriminant):
            charsums.truncated_sum(9, 30.0)
        with pytest.raises(arith.InvalidDiscriminant):
            charsums.truncated_sum(4, 30.0)
        with pytest.raises(ValueError):
            charsums.truncated_sum(3, 0.5)

    def test_big_R_direct(self, small_table):
        for d in (1, 5, 13):
            direct = math.fsum(
                r * arith.kronecker(8 * d, n) for n, r in small_table.support)
            assert charsums.big_R(d, small_table) == direct


class TestFamilyScan:
    def test_brute_force_oracle(self, small_params, small_table):
        D, x = small_params.D, small_params.x
        denom, numer = [], []
        best = (math.inf, -1)
        for d in range(int(D // 2) + 1, int(D) + 1):
            if d % 2 == 0 or not arith.is_squarefree(d):
                continue
            w = charsums.big_R(d, small_table) ** 2
            t = charsums.truncated_sum(d, x)
            denom.append(w)
            numer.append(w * t)
            if w > 0:
                best = min(best, (t, d))
        scan = charsums.scan_family(small_table, workers=1)
        assert scan.denom == pytest.approx(math.fsum(denom), rel=1e-13)
        assert scan.numer == pytest.approx(math.fsum(numer), rel=1e-13)
        assert scan.min_d == best[1]
        assert scan.min_value == pytest.approx(best[0], rel=1e-13)
        assert scan.admissible == len(denom)

    def test_triple_sum_oracle(self, small_table):
        numer = charsums.scan_family(small_table, workers=1).numer
        triple = oracles.numerator_exact_triple(small_table)
        assert numer == pytest.approx(triple, abs=1e-9)
        assert triple == pytest.approx(65.88514883761619, rel=1e-13)

    def test_triple_sum_guarded(self, desk_table):
        with pytest.raises(resonator.WorkEstimateError):
            oracles.numerator_exact_triple(desk_table)

    def test_chunking_invariant(self, small_table):
        one = charsums.scan_family(small_table, workers=1)
        with mock.patch.object(charsums, "_CHUNK", 16):
            many = charsums.scan_family(small_table, workers=1)
        assert one == dataclasses.replace(many, chunk_count=one.chunk_count)

    def test_worker_count_invariant(self, small_table):
        with mock.patch.object(charsums, "_CHUNK", 16):
            one = charsums.scan_family(small_table, workers=1)
            two = charsums.scan_family(small_table, workers=2)
        assert one == two

    @settings(max_examples=30, deadline=None)
    @given(D=st.integers(1, 1200), chunk_size=st.integers(1, 200))
    def test_sink_rows_match_per_d_routes(self, small_params, small_table,
                                          D, chunk_size):
        params = dataclasses.replace(small_params, D=D)
        table = dataclasses.replace(small_table, params=params)
        out = io.BytesIO()
        with mock.patch.object(charsums, "_CHUNK", chunk_size):
            scan = charsums.scan_family(table, workers=1, rows=out)
        rows = _parse_csv_lines(out.getvalue())
        admissible = [d for d in range(D // 2 + 1, D + 1)
                      if d % 2 == 1 and arith.is_squarefree(d)]
        assert [d for d, _, _ in rows] == admissible
        for d, t, w in rows:
            assert t == pytest.approx(charsums.truncated_sum(d, params.x),
                                      rel=1e-12)
            assert w == pytest.approx(charsums.big_R(d, small_table) ** 2,
                                      rel=1e-12)
        # the text is exact: every field reads back as the scan's float,
        # bit for bit, so no rounding format can pass
        state = charsums._scan_state(table)
        d, w, t = charsums._chunk_arrays(D // 2 + 1, D, state)
        assert [r[0] for r in rows] == d.tolist()
        for col, arr in ((1, t), (2, w)):
            parsed = np.array([r[col] for r in rows], dtype=float)
            assert np.array_equal(parsed.view(np.uint64), arr.view(np.uint64))
        with mock.patch.object(charsums, "_CHUNK", D):
            whole = charsums.scan_family(table, workers=1)
        assert whole.chunk_count == 1
        assert scan == dataclasses.replace(whole,
                                           chunk_count=scan.chunk_count)

    @settings(max_examples=12, deadline=None)
    @given(workers=st.sampled_from([1, 2]), chunk_size=st.integers(1, 60))
    def test_sink_and_scan_survive_any_interruption(
            self, small_params, small_table, workers, chunk_size):
        # any chunk size at either worker count gives the bytes and the
        # summary of one chunk scanned at one worker
        def scan(workers, chunk):
            rows = io.BytesIO()
            with mock.patch.object(charsums, "_CHUNK", chunk):
                out = charsums.scan_family(small_table, workers, rows=rows)
            return out, rows.getvalue()

        one, one_bytes = scan(1, int(small_params.D))
        assert one.chunk_count == 1
        got, got_bytes = scan(workers, chunk_size)
        assert got_bytes == one_bytes
        assert got == dataclasses.replace(one, chunk_count=got.chunk_count)

    def test_default_chunk_memory(self, desk_params, desk_table, tmp_path):
        # the chunk width bounds one chunk's working set; 2^17 traced
        # 12.9 MiB
        width = charsums._CHUNK
        state = charsums._scan_state(desk_table)
        lo = int(desk_params.D // 2) + 1
        bounds = (lo, lo + width - 1)
        part = str(tmp_path / "part.csv")
        charsums._scan_chunk(bounds, state, part)
        tracemalloc.start()
        try:
            charsums._scan_chunk(bounds, state, part)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_chunk_result_is_small(self, desk_params, desk_table, tmp_path):
        # a chunk's rows stay in its part file: what goes back through the
        # pool is the summary alone, while the rows of this chunk are about
        # 600 KB of CSV
        state = charsums._scan_state(desk_table)
        lo = int(desk_params.D // 2) + 1
        part = tmp_path / "part.csv"
        summary = charsums._scan_chunk((lo, lo + charsums._CHUNK - 1), state,
                                       str(part))
        assert part.stat().st_size > 500_000
        assert len(pickle.dumps(summary)) < 1024

    def test_default_chunk_matches_wide_chunk(self, desk_params, desk_table):
        table = dataclasses.replace(
            desk_table, params=dataclasses.replace(desk_params, D=300000))

        def scan(chunk):
            rows = io.BytesIO()
            with mock.patch.object(charsums, "_CHUNK", chunk):
                out = charsums.scan_family(table, workers=1, rows=rows)
            return out, rows.getvalue()

        narrow, narrow_bytes = scan(charsums._CHUNK)
        wide, wide_bytes = scan(1 << 17)
        assert narrow.chunk_count > wide.chunk_count
        assert narrow_bytes == wide_bytes
        assert narrow == dataclasses.replace(wide,
                                             chunk_count=narrow.chunk_count)

    def test_work_guards(self, small_params, small_table):
        huge = dataclasses.replace(small_params, D=charsums.MAX_D_EXACT + 1)
        with pytest.raises(resonator.WorkEstimateError):
            charsums.scan_family(
                dataclasses.replace(small_table, params=huge), workers=1)
        new_x = charsums.MAX_X + 1.0
        wide = dataclasses.replace(small_params, x=new_x, B=new_x,
                                   Y=math.sqrt(small_params.Z / new_x))
        with pytest.raises(resonator.WorkEstimateError):
            charsums.scan_family(
                dataclasses.replace(small_table, params=wide), workers=1)

    def test_empty_family(self, small_params, small_table):
        empty = dataclasses.replace(small_params, D=0)
        with pytest.raises(charsums.EmptyFamilyError):
            charsums.scan_family(
                dataclasses.replace(small_table, params=empty), workers=1)

    def test_default_workers_env(self, monkeypatch):
        monkeypatch.setenv("RESLAB_WORKERS", "3")
        assert charsums.default_workers() == 3
        for bad in ("0", "abc"):
            monkeypatch.setenv("RESLAB_WORKERS", bad)
            with pytest.raises(ValueError, match="positive integer"):
                charsums.default_workers()

    def test_default_workers_follow_affinity(self, monkeypatch):
        # the CPUs this process may run on, not the host's count
        monkeypatch.delenv("RESLAB_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                            raising=False)
        assert charsums.default_workers() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert charsums.default_workers() == 64

    def test_pool_capped_by_chunks(self, small_table, monkeypatch):
        # a fork pool starts all its workers at the first submit, so a
        # family of three chunks gets three however many are asked for; the
        # stand-in runs the chunks here and starts no process
        made = []

        class Recording:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        def scan(workers):
            rows = io.BytesIO()
            with mock.patch.object(charsums, "_CHUNK", 40):
                out = charsums.scan_family(small_table, workers, rows=rows)
            return out, rows.getvalue()

        one = scan(1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            Recording)
        for workers in (2, 3, 8):
            assert scan(workers) == one
        assert one[0].chunk_count == 3
        assert made == [2, 3, 3]


class TestRatioPipeline:
    def test_small_report(self, small_table, small_signs, small_kernel):
        rep = charsums.pigeonhole_extract(small_table, small_signs,
                                          small_kernel, workers=1)
        assert rep.extremal_value <= rep.ratio + 1e-12
        assert rep.N == pytest.approx(65.88514883761619, rel=1e-13)
        assert rep.den_exact == pytest.approx(40.60834824400651, rel=1e-13)
        assert rep.extremal_d == 181
        assert rep.extremal_value == pytest.approx(
            -0.709310344985197, rel=1e-12)
        assert rep.admissible == 40
        d = dataclasses.asdict(rep)
        assert d["ratio"] == rep.ratio and d["extremal_d"] == 181

    def test_one_partial_sum(self, small_params, small_table, small_signs,
                             small_kernel, monkeypatch):
        # sigma_1 reads the S(x/p) held in the signs: only sigma_2 calls S
        calls = []
        S = charsums.PartialSumKernel.S
        monkeypatch.setattr(charsums.PartialSumKernel, "S",
                            lambda self, y: calls.append(y) or S(self, y))
        rep = charsums.pigeonhole_extract(small_table, small_signs,
                                          small_kernel, workers=1)
        assert calls == [small_params.x]
        assert rep.sigma1 == charsums.sigma1(small_params, small_signs)
        assert rep.den_asymptotic == charsums.denominator_asymptotic(
            small_table)
        assert rep.support_size == len(small_table.support)
        assert rep.pigeonhole_holds is True

    def test_desk_report(self, desk_table, desk_signs, desk_kernel):
        rep = charsums.pigeonhole_extract(desk_table, desk_signs, desk_kernel,
                                          workers=2)
        assert rep.den_exact == pytest.approx(215071.31383520033, rel=1e-13)
        assert rep.N == pytest.approx(343369.3786818204, rel=1e-13)
        assert rep.ratio == pytest.approx(1.5965373185237024, rel=1e-13)
        assert rep.extremal_d == 958411
        assert rep.extremal_value == pytest.approx(
            -1.4447768947677382, rel=1e-12)
        assert rep.extremal_value < 0.0
        assert rep.extremal_value <= rep.ratio
        assert rep.admissible == 202646

    def test_denominator_asymptotic(self, small_table):
        dasym = charsums.denominator_asymptotic(small_table)
        assert dasym == pytest.approx(41.4350274476477, rel=1e-13)
        # at D = 200 the exact sum sits within a few percent of the model
        dex = charsums.scan_family(small_table, workers=1).denom
        assert abs(dex - dasym) / dasym < 0.05


class TestOrthogonality:
    def test_odd_square_main_term(self):
        [row] = checks.orthogonality([9], 1e5)
        assert row["gap"] <= 0.005
        assert row["main"] == pytest.approx(
            3.0 / math.pi**2 * 1e5 * (2 / 3) * (3 / 4), rel=1e-13)

    def test_n_equals_one(self):
        [row] = checks.orthogonality([1], 1e4)
        assert row["gap"] <= 0.01
        # counts the admissible d themselves
        count = sum(1 for d in range(5001, 10001, 2) if arith.is_squarefree(d))
        assert row["exact"] == count

    def test_even_n_vanishes(self):
        assert charsums.orthogonality_check(6, 1e4) == (0.0, 0.0, 0.0)

    def test_nonsquare_fluctuation(self):
        exact, main, err = charsums.orthogonality_check(15, 1e4)
        assert main == 0.0
        assert abs(exact) < math.sqrt(1e4)


_SQUAREFREE_ODD = [d for d in range(1, 600, 2) if arith.is_squarefree(d)]


class TestCentralValue:
    def test_character_table_multiplicative(self):
        chi = charsums._chi8d_values(5, 200)
        for n in range(1, 201):
            assert int(chi[n]) == arith.kronecker(40, n)

    def test_afe_vs_series_oracle(self):
        rows = checks.central_values((1, 3, 5, 7, 11, 13, 15))
        assert min(row["value"] for row in rows) >= -1e-6

    def test_afe_frozen(self):
        assert charsums.afe_central_value(3).value == pytest.approx(
            0.7094580614652297, rel=1e-12)
        assert charsums.dirichlet_l_half(3) == pytest.approx(
            0.7094580614652294, rel=1e-12)

    @pytest.mark.parametrize("d", [1, 3, 5, 1249])
    def test_afe_tail_bound_covers_tail(self, d):
        # the terms nmax < n <= 20 nmax, summed through scipy's gammaincc
        # (a test-only oracle), against the closed bound
        afe = charsums.afe_central_value(d)
        nmax = afe.terms
        q = 8 * d
        chi = charsums._chi8d_values(d, 20 * nmax)
        n = np.arange(nmax + 1, 20 * nmax + 1)
        tail = math.fsum((chi[n] / np.sqrt(n)
                          * gammaincc(0.25, math.pi / q * n * n)).tolist())
        assert afe.tail_bound >= 2.0 * abs(tail)
        assert afe.tail_bound > 0.0

    def test_afe_tail_bound_never_zero(self):
        # at d = 1 000 003 the bound is about e^{-800}: below the smallest
        # double, so it reads the smallest positive one
        afe = charsums.afe_central_value(1_000_003)
        assert afe.tail_bound == math.ulp(0.0)

    def test_afe_rejects_bad_d(self):
        with pytest.raises(arith.InvalidDiscriminant):
            charsums.afe_central_value(9)

    def test_frozen_near_1e5(self):
        # values of the per-residue kronecker oracle and the per-n AFE loop,
        # which the vectorized routes reproduce bit for bit
        assert charsums.dirichlet_l_half(100003) == 5.387242243805604
        assert charsums.afe_central_value(100003).value == 5.387242243805603

    @pytest.mark.parametrize("d", [1, 3, 105, 1249, 100003])
    def test_oracle_independent_of_block(self, d, monkeypatch):
        # blocks of 2 and 10 residues leave short and empty live sets and
        # end off the multiples of 8; 2^13 is the default, pinned against
        # the 2^14 and 2^15 it replaced; 2^22 takes every residue in one
        # block.  At d = 100003 blocks of 2 would take 26 s, and blocks of
        # 10 already cut its 400 k residues into 40 k blocks
        blocks = [10, 1 << 13, 1 << 14, 1 << 15, 1 << 22]
        if d < 10**4:
            blocks.insert(0, 2)
        values = set()
        for block in blocks:
            monkeypatch.setattr(charsums, "_ORACLE_BLOCK", block)
            values.add(charsums.dirichlet_l_half(d).hex())
        assert len(values) == 1

    def test_oracle_memory_bounded_by_block(self):
        # the Jacobi table's build peaks at about 1.3 MiB, above one block
        # of 2^13 residues (2.2 MiB at 2^15); the whole range of q/2
        # residues in one block would hold 20 MiB
        charsums.dirichlet_l_half(100003)
        tracemalloc.start()
        try:
            charsums.dirichlet_l_half(100003)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @given(st.sampled_from(_SQUAREFREE_ODD))
    @example(1)
    @example(5)    # prime, 1 mod 4
    @example(7)    # prime, 3 mod 4
    @example(105)  # composite, 1 mod 4
    @example(15)   # composite, 3 mod 4
    @settings(max_examples=40, deadline=None)
    def test_oracle_period_table_is_kronecker(self, d):
        a = np.arange(8 * d)
        chi = charsums._chi8d_residues(d, a, arith.jacobi_table(d))
        assert chi.tolist() == [arith.kronecker(8 * d, int(r)) for r in a]

    def test_oracle_work_guard(self):
        with pytest.raises(resonator.WorkEstimateError):
            charsums.dirichlet_l_half(charsums.MAX_D_EXACT + 1)

    def test_afe_work_guard(self):
        # raised before the O(sqrt(d) log d) character table is allocated;
        # at d = 10^12 + 39 that table would take 641 MiB per int64 array
        for d in (charsums.MAX_D_EXACT + 1, 1_000_000_000_039):
            with pytest.raises(resonator.WorkEstimateError):
                charsums.afe_central_value(d)
