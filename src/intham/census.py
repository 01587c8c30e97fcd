"""Contour census: how many lattice sites an energy shell carries.

For power-law tables T ~ |P|^kappa and V ~ |Q|^gamma the number of sites on
the shell H = E grows like E to the power 1/kappa + 1/gamma - 1, which is
also how the continuum period of the interpolated flow scales; their ratio
is the sites-per-unit-time density of the discrete dynamics.  The census
counts shells exactly on a grid, sums the continuum period over the cells
that the exact contour walk crosses, and fits the growth exponent on log-log
rows.

The exponent is positive only when 1/kappa + 1/gamma > 1; outside that
regime shells do not fill out and the census refuses to run.  Exactly
polynomial tables (integer prefactors and exponents, so the floor never
acts) are flagged: their shells are sparse arithmetic sets rather than
densely sampled contours, and the fit is not meaningful there.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .contours import _DOWN, _EDGE_H, _edge, _walk_component
from .errors import RegimeViolation
from .hamiltonians import PowerLawFamily, SeparableHamiltonian1D


@dataclass(frozen=True)
class CensusRow:
    energy: int
    count: int
    period: Optional[float]

    @property
    def ratio(self) -> Optional[float]:
        if self.period is None or self.count == 0:
            return None
        return self.period / self.count


@dataclass(frozen=True)
class CensusReport:
    kinetic_exponent: Fraction
    potential_exponent: Fraction
    rows: tuple[CensusRow, ...]
    exponent: float
    amplitude: float
    constant: Optional[float]
    fit_floor: int

    @property
    def predicted_exponent(self) -> float:
        return float(
            1 / self.kinetic_exponent + 1 / self.potential_exponent - 1
        )


def _window_for(family: PowerLawFamily, ceiling: int) -> int:
    """Smallest w >= 1 with family value above ceiling at |x| = w (plus margin).

    The value is nondecreasing in |x|, so doubling brackets w and bisection
    finds it; a w past 10**7 raises."""
    lo, hi = 0, 1  # every value at 1..lo is at most the ceiling
    while family.value(hi) <= ceiling:
        if hi == 10**7:
            raise RegimeViolation("table never exceeds the energy ceiling")
        lo, hi = hi, min(2 * hi, 10**7)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if family.value(mid) <= ceiling:
            lo = mid
        else:
            hi = mid
    return hi + 1


def _is_exact_polynomial(family: PowerLawFamily) -> bool:
    return family.exponent.denominator == 1 and family.prefactor.denominator == 1


def continuum_period(ham: SeparableHamiltonian1D, energy: int) -> float:
    """Time for one revolution of the interpolated flow on the ``energy + eps``
    level of the origin's well.

    Without a product term the interpolated H is linear in each unit cell, so
    the velocity ``(T', -V')`` is constant there and the orbit is the polygon
    whose corners are the contour walk's edge crossings.  The walk starts on
    row ``p = 0`` on the +q side, crossing downward.  Each cell adds its q span
    over ``T'``, or its p span over ``-V'`` where ``T'`` is 0; every term is a
    ratio of integers, and the correctly rounded terms are summed exactly.
    A level that row ``p = 0`` does not cross inside the window raises
    ``RegimeViolation``, one that leaves it elsewhere ``UnboundedContour``.
    """
    vv, kv, vlo, klo = ham.potential.values, ham.kinetic.values, ham.potential.lo, ham.kinetic.lo
    q = bisect.bisect_right(vv, energy - kv[-klo], lo=-vlo) + vlo
    if q > ham.potential.hi:
        raise RegimeViolation(f"level {energy} not reached inside the window")
    record: list = []
    _walk_component(ham, energy, (q - 1, 0, _DOWN), [], record)
    corners = []  # each crossing point (x, y), in table coordinates, as (x * d, y * d, d)
    for kind, Q, P, _ in (_edge(*cross) for cross in record):
        i, j = Q - vlo, P - klo
        t = energy - vv[i] - kv[j]
        if kind == _EDGE_H:
            d = vv[i + 1] - vv[i]
            corners.append((i * d + t, j * d, d))
        else:
            d = kv[j + 1] - kv[j]
            corners.append((i * d, j * d + t, d))
    terms = []
    for (cq, cp, _), (q0, p0, d0), (q1, p1, d1) in zip(record, corners[-1:] + corners[:-1], corners):
        i, j = cq - vlo, cp - klo
        slope = kv[j + 1] - kv[j]
        if slope:
            terms.append((q1 * d0 - q0 * d1) / (d0 * d1 * slope))
        else:
            terms.append((p1 * d0 - p0 * d1) / (d0 * d1 * (vv[i] - vv[i + 1])))
    return math.fsum(terms)


def census(
    kinetic: PowerLawFamily,
    potential: PowerLawFamily,
    energies: Iterable[int],
    fit_floor: int = 10,
    with_periods: bool = True,
) -> CensusReport:
    """Count shell sites per energy, measure periods, fit the growth law.

    The fit is least squares on (log E, log n) over rows with E >= fit_floor
    and n > 0.  The reported constant is the geometric mean of period/count
    over the fitted rows (None when periods are disabled).
    """
    kappa = kinetic.exponent
    gamma = potential.exponent
    if 1 / kappa + 1 / gamma <= 1:
        exact = _is_exact_polynomial(kinetic) and _is_exact_polynomial(potential)
        detail = (
            "; both tables are exactly polynomial, so shells are sparse "
            "arithmetic sets (the degenerate purely-polynomial regime)"
            if exact
            else ""
        )
        exc = RegimeViolation(
            f"site counts do not grow for exponents ({kappa}, {gamma}): "
            f"need 1/kinetic + 1/potential > 1{detail}"
        )
        exc.degenerate = exact
        raise exc
    energies = sorted(set(int(e) for e in energies))
    if not energies or energies[0] < 0:
        raise ValueError("need a nonempty ladder of nonnegative energies")
    ceiling = energies[-1]

    w = max(_window_for(kinetic, ceiling), _window_for(potential, ceiling))
    ham = SeparableHamiltonian1D._trusted(kinetic.materialize(-w, w), potential.materialize(-w, w))
    # Both tables are nonnegative, so entries above the ceiling (all of each
    # table past its own window) never reach a counted shell: the shell
    # counts are the convolution of the two tables' value histograms, summed
    # as one shifted copy of the denser per value of the sparser.
    hists = (np.bincount([v for v in t.values if v <= ceiling], minlength=ceiling + 1)
             for t in (ham.potential, ham.kinetic))
    sparse, dense = sorted(hists, key=np.count_nonzero)
    counts = np.zeros(ceiling + 1, dtype=np.int64)
    for v in np.flatnonzero(sparse):
        counts[v:] += sparse[v] * dense[: ceiling + 1 - v]

    rows = []
    for energy in energies:
        period = None
        if with_periods and energy > 0:
            period = continuum_period(ham, energy)
        rows.append(CensusRow(energy, int(counts[energy]), period))

    fitted = [r for r in rows if r.energy >= fit_floor and r.count > 0]
    if len(fitted) < 2:
        raise ValueError("need at least two rows at or above the fit floor")
    xs = np.log([r.energy for r in fitted])
    ys = np.log([r.count for r in fitted])
    slope, intercept = np.polyfit(xs, ys, 1)

    ratios = [r.ratio for r in fitted if r.ratio is not None]
    constant = (
        float(np.exp(np.mean(np.log(ratios)))) if ratios else None
    )

    return CensusReport(
        kappa,
        gamma,
        tuple(rows),
        float(slope),
        float(math.exp(intercept)),
        constant,
        fit_floor,
    )


def census_rows(report: CensusReport) -> list[tuple]:
    """Flat rows (energy, count, period, ratio) for CSV export."""
    return [(r.energy, r.count, r.period, r.ratio) for r in report.rows]
