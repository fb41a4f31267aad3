"""The two-route cross-checks, one definition each.

Each check runs both routes at every point its caller passes and returns a
row per point: the point, the routes' values, their ``gap``, the ``bound``
the gap must keep and ``margin = gap / bound``.  A check raises CheckFailed,
naming the worst point, its gap and its bound, unless every gap <= bound;
a NaN gap fails.  The routes are called as module attributes, so a wrapper
or a stub put on ``analytic.F_direct`` is what a check calls.
"""

import math

import numpy as np

from . import analytic, charsums

AFE_GAP = 1e-6     # |AFE - oracle|
TRIG_GAP = 1e-12   # |(2 cos t + 1) cos t - TRIG_MIN| at the minimum and ends
ORTHO_GAP = 0.02   # |exact - main| / main of the family sum of chi_8d(n)
SHIFT_SLACK = 1e-6  # added to the certificates of the shifted contour


class CheckFailed(AssertionError):
    """A failed check; ``rows`` holds its rows, if it has any."""

    def __init__(self, message: str, rows: list[dict] = ()):
        super().__init__(message)
        self.rows = list(rows)


def worst(rows: list[dict]) -> dict:
    """The row of largest margin; a NaN margin counts as the largest."""
    return max(rows, key=lambda row: (math.isnan(row["margin"]), row["margin"]))


def _verdict(rows: list[dict], key: str) -> list[dict]:
    for row in rows:
        row["margin"] = row["gap"] / row["bound"]
    failed = [row for row in rows if not row["gap"] <= row["bound"]]
    if failed:
        row = worst(failed)
        raise CheckFailed(f"{key} = {row[key]}: gap {row['gap']} "
                          f"not <= bound {row['bound']}", rows)
    return rows


def factorization(points, table) -> list[dict]:
    """F(s) as the double sum against zeta(2s+1) G(s) H(s), within both
    certificates."""
    rows = []
    for s in points:
        direct, tail = analytic.F_direct(complex(s), table)
        factored, cert = analytic.F_factored_bounded(complex(s), table)
        rows.append({"s": s, "direct": direct, "factored": factored,
                     "gap": abs(direct - factored), "bound": tail + cert})
    return _verdict(rows, "s")


def contour(ys, cv: analytic.ContourValue, kernel) -> list[dict]:
    """S(y) by the contour, cv = S_via_contour(ys) as already evaluated for
    a sequence ys, against the lattice sum kernel.S(y), within cv's error
    estimate."""
    rows = []
    for y, value, err in zip(ys, cv.value.tolist(), cv.err_estimate.tolist()):
        direct = kernel.S(y)
        rows.append({"y": y, "contour": value, "direct": direct,
                     "gap": abs(value - direct), "bound": err})
    return _verdict(rows, "y")


def contour_shift(ys, cv: analytic.ContourValue, table) -> list[dict]:
    """The pole's circle plus the shifted line against the right line, cv =
    S_via_contour(ys) as already evaluated for a sequence ys, within cv's
    error estimate, both certificates of the shifted contour and
    SHIFT_SLACK."""
    circle, line = analytic.shifted_contour(ys, table)
    total = circle.value + line.value
    bound = (cv.err_estimate + line.err_estimate + circle.err_estimate
             + SHIFT_SLACK)
    rows = [{"y": y, "shifted": shifted, "contour": right,
             "gap": abs(shifted - right), "bound": b}
            for y, shifted, right, b in zip(ys, total.tolist(),
                                            cv.value.tolist(), bound.tolist())]
    return _verdict(rows, "y")


def central_values(ds) -> list[dict]:
    """L(1/2, chi_8d) by the AFE against the oracle, within AFE_GAP; the
    oracle runs first, so that its guard refuses d > MAX_D_EXACT before any
    AFE work."""
    rows = []
    for d in ds:
        oracle = charsums.dirichlet_l_half(d)
        afe = charsums.afe_central_value(d)
        rows.append({"d": d, "value": afe.value, "oracle": oracle,
                     "tail_bound": afe.tail_bound, "terms": afe.terms,
                     "gap": abs(afe.value - oracle), "bound": AFE_GAP})
    return _verdict(rows, "d")


def orthogonality(ns, D: float) -> list[dict]:
    """The family sum of chi_8d(n), d in (D/2, D], against its main term, for
    odd square n; the gap is the relative error, within ORTHO_GAP."""
    rows = []
    for n in ns:
        exact, main, err = charsums.orthogonality_check(n, D)
        rows.append({"n": n, "exact": exact, "main": main,
                     "gap": abs(err) / main, "bound": ORTHO_GAP})
    return _verdict(rows, "n")


def trig_minimum(npoints: int) -> list[dict]:
    """(2 cos t + 1) cos t on npoints evenly spaced t in [5 pi/6, 7 pi/6]
    against TRIG_MIN, at the grid's ends and minimum, within TRIG_GAP."""
    theta = np.linspace(5 * math.pi / 6, 7 * math.pi / 6, npoints)
    values = analytic.trig_product(theta)
    rows = []
    for i in (0, int(np.argmin(values)), npoints - 1):
        value = float(values[i])
        rows.append({"theta": float(theta[i]), "value": value,
                     "gap": abs(value - analytic.TRIG_MIN), "bound": TRIG_GAP})
    return _verdict(rows, "theta")
