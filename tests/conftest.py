import math

import pytest

from reslab import analytic, charsums, resonator


@pytest.fixture(scope="session")
def desk_params():
    """The D = 10^6 exhibit schedule: L = 2, x = B = 200."""
    return resonator.build_params(
        10**6, mode="explicit", L=2.0, x=200.0, B=200.0, Z=200.0**1.5)


@pytest.fixture(scope="session")
def desk_table(desk_params):
    table = resonator.build_table(desk_params)
    kernel = charsums.PartialSumKernel(table)
    signs = resonator.assign_signs(table, kernel.S)
    return table.with_signs(signs).with_support()


@pytest.fixture(scope="session")
def desk_signs(desk_table):
    kernel = charsums.PartialSumKernel(desk_table)
    return resonator.assign_signs(desk_table, kernel.S)


@pytest.fixture(scope="session")
def desk_kernel(desk_table):
    return charsums.PartialSumKernel(desk_table)


@pytest.fixture(scope="session")
def small_params():
    """Low band {11, 13, 17, 19}, high band {23, 29}; support of 8."""
    return resonator.build_params(
        200, mode="explicit", L=math.e, x=30.0, B=30.0, Z=150.0,
        pminus_lo=10.0, pminus_hi=20.0)


@pytest.fixture(scope="session")
def small_table(small_params):
    table = resonator.build_table(small_params)
    kernel = charsums.PartialSumKernel(table)
    return table.with_signs(resonator.assign_signs(table, kernel.S)).with_support()


@pytest.fixture(scope="session")
def three_prime_params():
    """Low band {11, 13, 17} only; used for contour comparisons."""
    return resonator.build_params(
        10**6, mode="explicit", L=math.e, x=30.0, B=30.0, Z=150.0,
        pminus_lo=10.0, pminus_hi=18.0)


@pytest.fixture(scope="session")
def three_prime_table(three_prime_params):
    return resonator.build_table(three_prime_params)


@pytest.fixture(scope="session")
def three_prime_kernel(three_prime_table):
    return charsums.PartialSumKernel(three_prime_table)


@pytest.fixture(scope="session")
def three_prime_contour(three_prime_table):
    """S_via_contour at y = 2, 5, 10, one call: F on the line once."""
    return analytic.S_via_contour((2.0, 5.0, 10.0), three_prime_table)
