"""Contour census: how many lattice sites an energy shell carries.

For power-law tables T ~ |P|^kappa and V ~ |Q|^gamma the number of sites on
the shell H = E grows like E to the power 1/kappa + 1/gamma - 1, which is
also how the continuum period of the interpolated flow scales; their ratio
is the sites-per-unit-time density of the discrete dynamics.  The census
counts shells exactly on a grid, integrates the continuum period
numerically, and fits the growth exponent on log-log rows.

The exponent is positive only when 1/kappa + 1/gamma > 1; outside that
regime shells do not fill out and the census refuses to run.  Exactly
polynomial tables (integer prefactors and exponents, so the floor never
acts) are flagged: their shells are sparse arithmetic sets rather than
densely sampled contours, and the fit is not meaningful there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import RegimeViolation
from .hamiltonians import PowerLawFamily

#: Arc length of one integration step of :func:`continuum_period`, in
#: lattice units, and the most steps it takes before it gives up.
PATH_STEP = 0.15
MAX_PERIOD_STEPS = 2_000_000


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


class _InterpolatedFlow:
    """Continuum motion on the piecewise-bilinear interpolation of T + V.

    Inside each unit cell the interpolated H is bilinear, so the velocity
    (dH/dp, -dH/dq) is linear and the flow circulates clockwise around the
    minimum at the origin.
    """

    def __init__(self, kin_table: Sequence[int], pot_table: Sequence[int], lo: int):
        self.kin = [float(v) for v in kin_table]
        self.pot = [float(v) for v in pot_table]
        self.lo = lo
        self.hi = lo + len(self.kin) - 1

    def value(self, q: float, p: float) -> float:
        qi = math.floor(q)
        pi = math.floor(p)
        fq = q - qi
        fp = p - pi
        iq = qi - self.lo
        ip = pi - self.lo
        pot = self.pot[iq] * (1 - fq) + self.pot[iq + 1] * fq
        kin = self.kin[ip] * (1 - fp) + self.kin[ip + 1] * fp
        return pot + kin

    def velocity(self, q: float, p: float) -> tuple[float, float]:
        qi = math.floor(q)
        pi = math.floor(p)
        iq = qi - self.lo
        ip = pi - self.lo
        dq = self.kin[ip + 1] - self.kin[ip]
        dp = -(self.pot[iq + 1] - self.pot[iq])
        return dq, dp


def _level_start(flow: _InterpolatedFlow, energy: int) -> tuple[float, float]:
    """Point with interpolated H = energy on the ray p = 1/2, q > 0."""
    p0 = 0.5
    prev = flow.value(0.0, p0)
    for q in range(1, flow.hi):
        cur = flow.value(float(q), p0)
        if cur >= energy:
            if cur == prev:
                return float(q), p0
            frac = (energy - prev) / (cur - prev)
            return (q - 1) + frac, p0
        prev = cur
    raise RegimeViolation(f"level {energy} not reached inside the window")


def continuum_period(flow: _InterpolatedFlow, energy: int) -> float:
    """Time for one full revolution of the interpolated flow at this level.

    Fourth-order integration with steps of roughly constant arc length;
    the winding angle around the origin is accumulated incrementally and the
    final fraction past a full turn is removed by linear interpolation.
    """
    q, p = _level_start(flow, energy)
    velocity = flow.velocity
    total_angle = 0.0
    elapsed = 0.0
    for _ in range(MAX_PERIOD_STEPS):
        vq, vp = velocity(q, p)
        speed = math.hypot(vq, vp)
        if speed == 0.0:
            raise RegimeViolation(f"stationary point on level {energy}")
        h = PATH_STEP / speed
        k1q, k1p = vq, vp
        k2q, k2p = velocity(q + 0.5 * h * k1q, p + 0.5 * h * k1p)
        k3q, k3p = velocity(q + 0.5 * h * k2q, p + 0.5 * h * k2p)
        k4q, k4p = velocity(q + h * k3q, p + h * k3p)
        nq = q + h * (k1q + 2 * k2q + 2 * k3q + k4q) / 6.0
        np_ = p + h * (k1p + 2 * k2p + 2 * k3p + k4p) / 6.0
        turn = math.atan2(np_ * q - nq * p, nq * q + np_ * p)
        if abs(total_angle + turn) >= 2 * math.pi:
            need = 2 * math.pi - abs(total_angle)
            elapsed += h * need / abs(turn)
            return elapsed
        total_angle += turn
        elapsed += h
        q, p = nq, np_
    raise RegimeViolation(f"period integration did not close at level {energy}")


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
    kin = kinetic.materialize(-w, w).values
    pot = potential.materialize(-w, w).values
    # Both tables are nonnegative, so entries above the ceiling (all of each
    # table past its own window) never reach a counted shell.
    pot_low, kin_low = (
        np.array([v for v in t if v <= ceiling], dtype=np.int64) for t in (pot, kin)
    )
    counts = np.bincount(np.add.outer(pot_low, kin_low).ravel(), minlength=ceiling + 1)
    flow = _InterpolatedFlow(kin, pot, -w)

    rows = []
    for energy in energies:
        period = None
        if with_periods and energy > 0:
            period = continuum_period(flow, energy)
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
