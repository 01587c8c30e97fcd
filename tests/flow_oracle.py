"""Two independent references for the census period of the interpolated flow.

``rk4_period`` integrates the flow on the piecewise-bilinear interpolation of
``T + V`` with fixed-arc fourth-order steps, counting the winding angle
around the origin; it converges to the exact period as its step shrinks.
``exact_period`` sums the time spent in every unit cell that the
``E + eps`` level crosses, in exact rational arithmetic and without walking
the contour: inside a cell the separable interpolation is linear, so the
time there is the level segment's q span over ``T'`` (its p span over
``-V'`` where ``T'`` is 0).  Both assume a single closed level around the
origin, as power-law tables give.
"""

import math
from fractions import Fraction

import numpy as np


class InterpolatedFlow:
    """Continuum motion on the piecewise-bilinear interpolation of T + V.

    Inside each unit cell the velocity (dH/dp, -dH/dq) is constant and the
    flow circulates clockwise around the minimum at the origin.
    """

    def __init__(self, ham):
        self.kin = [float(v) for v in ham.kinetic.values]
        self.pot = [float(v) for v in ham.potential.values]
        self.qlo, self.plo = ham.potential.lo, ham.kinetic.lo
        self.qhi = ham.potential.hi

    def value(self, q, p):
        qi, pi = math.floor(q), math.floor(p)
        fq, fp = q - qi, p - pi
        iq, ip = qi - self.qlo, pi - self.plo
        pot = self.pot[iq] * (1 - fq) + self.pot[iq + 1] * fq
        kin = self.kin[ip] * (1 - fp) + self.kin[ip + 1] * fp
        return pot + kin

    def velocity(self, q, p):
        iq, ip = math.floor(q) - self.qlo, math.floor(p) - self.plo
        return self.kin[ip + 1] - self.kin[ip], -(self.pot[iq + 1] - self.pot[iq])

    def level_start(self, energy):
        """Point with interpolated H = energy on the ray p = 1/2, q > 0."""
        p0 = 0.5
        prev = self.value(0.0, p0)
        for q in range(1, self.qhi):
            cur = self.value(float(q), p0)
            if cur >= energy:
                if cur == prev:
                    return float(q), p0
                return (q - 1) + (energy - prev) / (cur - prev), p0
            prev = cur
        raise AssertionError(f"level {energy} not reached inside the window")


def rk4_period(ham, energy, step, max_steps=10**7):
    """One revolution of the flow at ``energy`` by RK4 with arc length ``step``;
    the final fraction past a full turn is removed by linear interpolation."""
    flow = InterpolatedFlow(ham)
    q, p = flow.level_start(energy)
    velocity = flow.velocity
    total_angle = 0.0
    elapsed = 0.0
    for _ in range(max_steps):
        vq, vp = velocity(q, p)
        h = step / math.hypot(vq, vp)
        k2q, k2p = velocity(q + 0.5 * h * vq, p + 0.5 * h * vp)
        k3q, k3p = velocity(q + 0.5 * h * k2q, p + 0.5 * h * k2p)
        k4q, k4p = velocity(q + h * k3q, p + h * k3p)
        nq = q + h * (vq + 2 * k2q + 2 * k3q + k4q) / 6.0
        np_ = p + h * (vp + 2 * k2p + 2 * k3p + k4p) / 6.0
        turn = math.atan2(np_ * q - nq * p, nq * q + np_ * p)
        if abs(total_angle + turn) >= 2 * math.pi:
            return elapsed + h * (2 * math.pi - abs(total_angle)) / abs(turn)
        total_angle += turn
        elapsed += h
        q, p = nq, np_
    raise AssertionError(f"RK4 did not close at level {energy}")


def _span(lo, hi, slope, energy):
    """Length of ``{x in [0, 1] : lo + slope*x <= energy < hi + slope*x}``."""
    if slope == 0:
        return Fraction(int(lo <= energy < hi))
    ends = sorted((Fraction(energy - hi, slope), Fraction(energy - lo, slope)))
    return max(Fraction(0), min(Fraction(1), ends[1]) - max(Fraction(0), ends[0]))


def exact_period(ham, energy):
    """Exact time spent on the ``energy + eps`` level, summed over the cells
    it crosses (some corner at or below the level, some corner above)."""
    vv, kv = ham.potential.values, ham.kinetic.values
    v, k = np.array(vv, dtype=object), np.array(kv, dtype=object)
    vmin, vmax = np.minimum(v[:-1], v[1:]), np.maximum(v[:-1], v[1:])
    kmin, kmax = np.minimum(k[:-1], k[1:]), np.maximum(k[:-1], k[1:])
    crossed = (np.add.outer(vmin, kmin) <= energy) & (np.add.outer(vmax, kmax) > energy)
    total = Fraction(0)
    for i, j in zip(*np.nonzero(crossed)):
        a, b = vv[i + 1] - vv[i], kv[j + 1] - kv[j]
        base = vv[i] + kv[j]
        if b:  # q span over T'
            total += _span(base + min(0, b), base + max(0, b), a, energy) / abs(b)
        else:  # p span (all of the cell) over -V'
            total += Fraction(1, abs(a))
    return total
