"""Character-sum layer: partial-sum kernel, family scan, ratio pipeline,
orthogonality, and the smoothed central-value formula."""

import dataclasses
import json
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import gammaincc

from reslab import arith, charsums, resonator, smoothing


def _parse_csv_lines(chunks):
    """Rows (d, T, R^2) of a scan sink's CSV line bytes, parsed with int
    and float; every line ends in CRLF."""
    text = b"".join(chunks).decode()
    assert text == "" or text.endswith("\r\n")
    rows = []
    for line in text.split("\r\n")[:-1]:
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
            lf = arith.factorize(ell)
            if not (lf.is_squarefree and set(lf.primes) <= band):
                continue
            coef = 1.0
            for p in lf.primes:
                coef *= 2.0 * resonator.r_tilde(p, table)
            coef /= math.sqrt(ell)
            m = 1
            while m * m <= lim / ell:
                b = resonator.b_weight(arith.factorize(m), lf, table)
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
            lhs, rhs = charsums.derivative_bound_check(y, small_kernel)
            assert lhs <= rhs + 1e-12


class TestSigmas:
    def test_sigma2_is_S_at_x(self, small_params, small_kernel):
        assert charsums.sigma2(small_params, small_kernel) == \
            small_kernel.S(small_params.x)

    def test_sigma2_dual_route(self, small_params, small_table, small_kernel):
        fast = charsums.sigma2(small_params, small_kernel)
        slow = charsums.sigma2_display(small_params, small_table)
        assert fast == pytest.approx(slow, rel=1e-12)

    def test_sigma2_dual_route_desk(self, desk_params, desk_table, desk_kernel):
        fast = charsums.sigma2(desk_params, desk_kernel)
        slow = charsums.sigma2_display(desk_params, desk_table)
        assert fast == pytest.approx(2.7891790342039684, rel=1e-12)
        assert fast == pytest.approx(slow, rel=1e-12)

    def test_sigma1_nonpositive(self, small_params, small_table, small_signs,
                                small_kernel):
        s1 = charsums.sigma1(small_params, small_table, small_signs,
                             small_kernel)
        assert s1 <= 0.0
        assert s1 == pytest.approx(-0.013478570458728353, rel=1e-12)

    def test_sigma1_desk_frozen(self, desk_params, desk_table, desk_signs,
                                desk_kernel):
        s1 = charsums.sigma1(desk_params, desk_table, desk_signs, desk_kernel)
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
        scan = charsums.scan_family(small_params, small_table, workers=1)
        assert scan.denom == pytest.approx(math.fsum(denom), rel=1e-13)
        assert scan.numer == pytest.approx(math.fsum(numer), rel=1e-13)
        assert scan.min_d == best[1]
        assert scan.min_value == pytest.approx(best[0], rel=1e-13)
        assert scan.admissible == len(denom)

    def test_triple_sum_oracle(self, small_params, small_table):
        numer = charsums.scan_family(small_params, small_table,
                                     workers=1).numer
        triple = charsums.numerator_exact_triple(small_params, small_table)
        assert numer == pytest.approx(triple, abs=1e-9)
        assert triple == pytest.approx(65.88514883761619, rel=1e-13)

    def test_triple_sum_guarded(self, desk_params, desk_table):
        with pytest.raises(charsums.WorkEstimateError):
            charsums.numerator_exact_triple(desk_params, desk_table)

    def test_chunking_invariant(self, small_params, small_table):
        one = charsums.scan_family(small_params, small_table, workers=1)
        many = charsums.scan_family(small_params, small_table, workers=1,
                                    chunk_size=16)
        assert one == dataclasses.replace(many, chunk_count=one.chunk_count)

    def test_worker_count_invariant(self, small_params, small_table):
        one = charsums.scan_family(small_params, small_table, workers=1,
                                   chunk_size=16)
        two = charsums.scan_family(small_params, small_table, workers=2,
                                   chunk_size=16)
        assert one == two

    def test_checkpoint_resume(self, small_params, small_table, tmp_path):
        ck = str(tmp_path / "scan.json")
        first = charsums.scan_family(small_params, small_table, workers=1,
                                     chunk_size=16, checkpoint=ck)
        # drop half the chunks to simulate an interrupted run
        with open(ck) as fh:
            saved = json.load(fh)
        saved["chunks"] = dict(list(saved["chunks"].items())[::2])
        with open(ck, "w") as fh:
            json.dump(saved, fh)
        resumed = charsums.scan_family(small_params, small_table, workers=1,
                                       chunk_size=16, checkpoint=ck)
        assert resumed == first

    def test_checkpoint_digest_guard(self, small_params, small_table,
                                     tmp_path):
        ck = str(tmp_path / "scan.json")
        with open(ck, "w") as fh:
            json.dump({"digest": "not-this-run", "chunks": {}}, fh)
        with pytest.raises(ValueError):
            charsums.scan_family(small_params, small_table, workers=1,
                                 checkpoint=ck)

    @pytest.mark.parametrize("change", ["chunk_size", "cutoff"])
    def test_checkpoint_keyed_on_run(self, small_params, small_table,
                                     tmp_path, monkeypatch, change):
        # chunks are stored by index, so a checkpoint written with 16-wide
        # chunks read back with 64-wide ones would merge the wrong ranges;
        # one written under another cutoff holds other truncated sums
        ck = str(tmp_path / "scan.json")
        charsums.scan_family(small_params, small_table, workers=1,
                             chunk_size=16, checkpoint=ck)
        chunk_size = 16
        if change == "chunk_size":
            chunk_size = 64
        else:
            phi = smoothing.phi
            monkeypatch.setattr(smoothing, "phi", lambda u: phi(1.5 * u))
        with pytest.raises(charsums.CheckpointError, match="different run"):
            charsums.scan_family(small_params, small_table, workers=1,
                                 chunk_size=chunk_size, checkpoint=ck)

    def test_checkpoint_not_json(self, small_params, small_table, tmp_path):
        ck = tmp_path / "scan.json"
        ck.write_text("not a checkpoint\n")
        with pytest.raises(charsums.CheckpointError, match="cannot read"):
            charsums.scan_family(small_params, small_table, workers=1,
                                 checkpoint=str(ck))

    def test_sink_rows_survive_resume(self, small_params, small_table,
                                      tmp_path):
        def scan(ck):
            lines = []
            out = charsums.scan_family(
                small_params, small_table, workers=1, chunk_size=16,
                checkpoint=ck, sink=lines.append)
            return out, lines

        ck = str(tmp_path / "scan.json")
        first = scan(ck)
        assert len(_parse_csv_lines(first[1])) == first[0].admissible
        with open(ck) as fh:
            saved = json.load(fh)
        saved["chunks"] = dict(list(saved["chunks"].items())[::2])
        with open(ck, "w") as fh:
            json.dump(saved, fh)
        assert scan(ck) == first
        # restored chunks are recomputed for their rows and must match
        saved["chunks"]["0"][4] += 1
        with open(ck, "w") as fh:
            json.dump(saved, fh)
        with pytest.raises(charsums.CheckpointError, match="chunk 0"):
            scan(ck)

    @settings(max_examples=30, deadline=None)
    @given(D=st.integers(1, 1200), chunk_size=st.integers(1, 200))
    def test_sink_rows_match_per_d_routes(self, small_params, small_table,
                                          D, chunk_size):
        params = dataclasses.replace(small_params, D=D)
        lines = []
        scan = charsums.scan_family(
            params, small_table, workers=1, chunk_size=chunk_size,
            sink=lines.append)
        rows = _parse_csv_lines(lines)
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
        state = charsums._scan_state(params, small_table)
        d, w, t = charsums._chunk_arrays(D // 2 + 1, D, state)
        assert [r[0] for r in rows] == d.tolist()
        for col, arr in ((1, t), (2, w)):
            parsed = np.array([r[col] for r in rows], dtype=float)
            assert np.array_equal(parsed.view(np.uint64), arr.view(np.uint64))
        whole = charsums.scan_family(params, small_table, workers=1,
                                     chunk_size=D)
        assert whole.chunk_count == 1
        assert scan == dataclasses.replace(whole,
                                           chunk_count=scan.chunk_count)

    @settings(max_examples=12, deadline=None)
    @given(workers=st.sampled_from([1, 2]), chunk_size=st.integers(1, 60),
           keep=st.integers(0, 2**64 - 1))
    def test_sink_and_scan_survive_any_interruption(
            self, small_params, small_table, workers, chunk_size, keep):
        # a checkpoint holding any subset of the chunks (bit i of keep
        # keeps chunk i), resumed at either worker count, gives the bytes
        # and the summary of one chunk scanned at one worker
        def scan(**kw):
            lines = []
            out = charsums.scan_family(small_params, small_table,
                                       sink=lines.append, **kw)
            assert all(isinstance(b, bytes) for b in lines)
            return out, b"".join(lines)

        one, one_bytes = scan(workers=1, chunk_size=int(small_params.D))
        assert one.chunk_count == 1
        with tempfile.TemporaryDirectory() as tmp:
            ck = os.path.join(tmp, "scan.json")
            charsums.scan_family(small_params, small_table, workers=1,
                                 chunk_size=chunk_size, checkpoint=ck)
            with open(ck) as fh:
                saved = json.load(fh)
            saved["chunks"] = {i: c for i, c in saved["chunks"].items()
                               if keep >> int(i) & 1}
            with open(ck, "w") as fh:
                json.dump(saved, fh)
            got, got_bytes = scan(workers=workers, chunk_size=chunk_size,
                                  checkpoint=ck)
        assert got_bytes == one_bytes
        assert got == dataclasses.replace(one, chunk_count=got.chunk_count)

    def test_work_guards(self, small_params, small_table):
        huge = dataclasses.replace(small_params, D=charsums.MAX_D_EXACT + 1)
        with pytest.raises(charsums.WorkEstimateError):
            charsums.scan_family(huge, small_table, workers=1)
        new_x = charsums.MAX_X + 1.0
        wide = dataclasses.replace(small_params, x=new_x, B=new_x,
                                   Y=math.sqrt(small_params.Z / new_x))
        with pytest.raises(charsums.WorkEstimateError):
            charsums.scan_family(wide, small_table, workers=1)

    def test_empty_family(self, small_params, small_table):
        empty = dataclasses.replace(small_params, D=0)
        with pytest.raises(charsums.EmptyFamilyError):
            charsums.scan_family(empty, small_table, workers=1)

    def test_default_workers_env(self, monkeypatch):
        monkeypatch.setenv("RESLAB_WORKERS", "3")
        assert charsums.default_workers() == 3
        for bad in ("0", "abc"):
            monkeypatch.setenv("RESLAB_WORKERS", bad)
            with pytest.raises(ValueError, match="positive integer"):
                charsums.default_workers()


class TestRatioPipeline:
    def test_small_report(self, small_params, small_table, small_signs):
        rep = charsums.pigeonhole_extract(small_params, small_table,
                                          small_signs, workers=1)
        assert rep.extremal_value <= rep.ratio + 1e-12
        assert rep.N == pytest.approx(65.88514883761619, rel=1e-13)
        assert rep.Den == pytest.approx(40.60834824400651, rel=1e-13)
        assert rep.extremal_d == 181
        assert rep.extremal_value == pytest.approx(
            -0.709310344985197, rel=1e-12)
        assert rep.admissible == 40
        d = rep.to_dict()
        assert d["ratio"] == rep.ratio and d["extremal_d"] == 181

    def test_desk_report(self, desk_params, desk_table, desk_signs):
        rep = charsums.pigeonhole_extract(desk_params, desk_table, desk_signs,
                                          workers=2)
        assert rep.Den == pytest.approx(215071.31383520033, rel=1e-13)
        assert rep.N == pytest.approx(343369.3786818204, rel=1e-13)
        assert rep.ratio == pytest.approx(1.5965373185237024, rel=1e-13)
        assert rep.extremal_d == 958411
        assert rep.extremal_value == pytest.approx(
            -1.4447768947677382, rel=1e-12)
        assert rep.extremal_value < 0.0
        assert rep.extremal_value <= rep.ratio
        assert rep.admissible == 202646

    def test_denominator_asymptotic(self, small_params, small_table):
        dasym = charsums.denominator_asymptotic(small_params, small_table)
        assert dasym == pytest.approx(41.4350274476477, rel=1e-13)
        # at D = 200 the exact sum sits within a few percent of the model
        dex = charsums.scan_family(small_params, small_table,
                                   workers=1).denom
        assert abs(dex - dasym) / dasym < 0.05


class TestOrthogonality:
    def test_odd_square_main_term(self):
        exact, main, err = charsums.orthogonality_check(9, 1e5)
        assert main == pytest.approx(
            3.0 / math.pi**2 * 1e5 * (2 / 3) * (3 / 4), rel=1e-13)
        assert abs(err) / main < 0.005

    def test_n_equals_one(self):
        exact, main, err = charsums.orthogonality_check(1, 1e4)
        # counts the admissible d themselves
        count = sum(1 for d in range(5001, 10001, 2) if arith.is_squarefree(d))
        assert exact == count
        assert abs(err) / main < 0.01

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
        for d in (1, 3, 5, 7, 11, 13, 15):
            afe = charsums.afe_central_value(d)
            oracle = charsums.dirichlet_l_half(d)
            assert afe.value == pytest.approx(oracle, abs=1e-6)
            assert afe.value >= -1e-6

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
        # end off the multiples of 8; 2^22 takes every residue in one block.
        # At d = 100003 blocks of 2 would take 26 s, and blocks of 10
        # already cut its 400 k residues into 40 k blocks
        blocks = [10, 1 << 15, 1 << 22]
        if d < 10**4:
            blocks.insert(0, 2)
        values = set()
        for block in blocks:
            monkeypatch.setattr(charsums, "_ORACLE_BLOCK", block)
            values.add(charsums.dirichlet_l_half(d).hex())
        assert len(values) == 1

    def test_oracle_memory_bounded_by_block(self):
        # one block of _ORACLE_BLOCK residues holds about 2 MiB; the whole
        # range of q/2 residues in one block would hold 20 MiB
        charsums.dirichlet_l_half(100003)
        tracemalloc.start()
        try:
            charsums.dirichlet_l_half(100003)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

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
        with pytest.raises(charsums.WorkEstimateError):
            charsums.dirichlet_l_half(charsums.MAX_D_EXACT + 1)

    def test_afe_work_guard(self):
        # raised before the O(sqrt(d) log d) character table is allocated;
        # at d = 10^12 + 39 that table would take 641 MiB per int64 array
        for d in (charsums.MAX_D_EXACT + 1, 1_000_000_000_039):
            with pytest.raises(charsums.WorkEstimateError):
                charsums.afe_central_value(d)
