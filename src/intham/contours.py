"""Exact stepping along equal-energy contours of a lattice Hamiltonian.

The level traced is ``E + eps`` with ``eps`` a formal positive infinitesimal,
so no cell corner ever sits on the level: a corner with energy ``c`` is above
the level iff ``c > E``.  Within each unit cell the interpolated Hamiltonian
is bilinear, so the level curve is a union of hyperbola arcs that enter and
leave cells through edge crossings.  Walking those crossings with the
region ``H > E + eps`` kept on the left reproduces the continuum flow
direction; lattice sites with energy exactly ``E`` are brushed by the curve
at infinitesimal distance and are read off as the visit sequence.

One walk serves every query: :func:`_walk_component` follows a component
cell by cell, reading the tables directly, from a start crossing until it
returns to it, and reports the sites its crossings brush.  :func:`next_site`
and :func:`prev_site` walk the component through a site with and against
its orientation, :func:`orbit_map` walks each component once for all its
sites, and :func:`trace_component` records the walk's crossings.  All
decisions in the walk are made with integer arithmetic; ``DualRational``
crossing parameters are computed for the recorded crossings, for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Optional

from .dual import EPSILON, DualRational
from .errors import UnboundedContour, WindowExceeded
from .hamiltonians import SeparableHamiltonian1D


class SiteClassification(Enum):
    REGULAR = "regular"
    SADDLE = "saddle"
    EXTREMUM = "extremum"
    OFF_CONTOUR = "off-contour"


# A directed crossing is (kind, Q, P, forward):
#   kind "h": edge (Q,P)-(Q+1,P); forward=True crosses it upward (+P).
#   kind "v": edge (Q,P)-(Q,P+1); forward=True crosses it rightward (+Q).
_EDGE_H = "h"
_EDGE_V = "v"

# Inside the walk a directed crossing is (cq, cp, move): the level leaves the
# unit cell with lower-left site (cq, cp) across its edge facing ``move``.
# Per move: the step to the next cell, and the column and row offsets
# (q0, q1, p0, p1) of the crossed edge's two ends within the cell left.
_UP, _RIGHT, _DOWN, _LEFT = range(4)
_STEPS = ((0, 1), (1, 0), (0, -1), (-1, 0))
_SIDES = ((0, 1, 1, 1), (1, 1, 0, 1), (0, 1, 0, 0), (0, 0, 0, 1))


@dataclass(frozen=True)
class Crossing:
    """One edge crossing of the ``E + eps`` level, in traversal order."""

    kind: str
    Q: int
    P: int
    forward: bool
    param: DualRational  # position along the edge, from (Q, P)
    touched: Optional[tuple[int, int]]  # lattice site brushed here, if any

    def position(self, eps: float = 1e-6) -> tuple[float, float]:
        """Numeric coordinates of the crossing for plotting/diagnostics."""
        t = self.param.evaluate(eps)
        if self.kind == _EDGE_H:
            return (self.Q + t, float(self.P))
        return (float(self.Q), self.P + t)


@dataclass(frozen=True)
class ContourTrace:
    """One connected component of a shell: the sites it touches, in order."""

    energy: int
    sites: tuple[tuple[int, int], ...]
    kinds: tuple[SiteClassification, ...]
    closed: bool
    crossings: tuple[Crossing, ...] = ()


def _evaluator(ham: SeparableHamiltonian1D):
    """Site evaluator with direct table indexing; outside the windows it
    defers to ``ham.value``, which raises the table's ``WindowExceeded``."""
    kin, pot = ham.kinetic, ham.potential
    kvals, klo, khi = kin.values, kin.lo, kin.hi
    vvals, vlo, vhi = pot.values, pot.lo, pot.hi
    avals = bvals = None
    if ham.coupling_pos is not None:
        avals, bvals = ham.coupling_pos.values, ham.coupling_mom.values

    def val(q: int, p: int) -> int:
        if q < vlo or q > vhi or p < klo or p > khi:
            return ham.value(q, p)
        if avals is None:
            return kvals[p - klo] + vvals[q - vlo]
        return kvals[p - klo] + vvals[q - vlo] + avals[q - vlo] * bvals[p - klo]

    return val


def _neighbor_flags(val, Q, P, E):
    """(east, north, west, south) neighbor-above-level flags."""
    return (val(Q + 1, P) > E, val(Q, P + 1) > E, val(Q - 1, P) > E, val(Q, P - 1) > E)


def _local_kind(flags) -> SiteClassification:
    """Classification of an on-shell site from its 4-neighbor flags alone.

    Valid whenever at least one flag is set; the all-clear case needs the
    diagonal refinement done in :func:`classify_site`.
    """
    m = sum(flags)
    if m == 4:
        return SiteClassification.EXTREMUM  # infinitesimal closed loop
    if m == 0:
        return SiteClassification.EXTREMUM  # refined by caller
    if m == 2 and (flags[0] == flags[2]):  # east/west or north/south pair
        return SiteClassification.SADDLE  # two branches passing on both sides
    return SiteClassification.REGULAR  # a single branch brushing the site


def classify_site(ham: SeparableHamiltonian1D, Q: int, P: int, E: int) -> SiteClassification:
    """Classify a lattice site against the ``E + eps`` level.

    Requires the full 3x3 neighborhood to lie inside the windows.
    """
    val = _evaluator(ham)
    for dq in (-1, 0, 1):
        for dp in (-1, 0, 1):
            val(Q + dq, P + dp)  # raises WindowExceeded if outside
    if val(Q, P) != E:
        return SiteClassification.OFF_CONTOUR
    flags = _neighbor_flags(val, Q, P, E)
    kind = _local_kind(flags)
    if kind is SiteClassification.EXTREMUM and not any(flags):
        # Untouched site: either isolated (a top of the landscape) or a
        # degenerate saddle whose branches pass at second order, revealed by
        # alternating diagonal cells.
        ne = val(Q + 1, P + 1) > E
        nw = val(Q - 1, P + 1) > E
        sw = val(Q - 1, P - 1) > E
        se = val(Q + 1, P - 1) > E
        if ne == sw and nw == se and ne != nw:
            return SiteClassification.SADDLE
    return kind


def _is_regular(val, site, E) -> bool:
    try:
        flags = _neighbor_flags(val, site[0], site[1], E)
    except WindowExceeded as exc:
        msg = f"cannot classify touched site {site}: window too small"
        raise UnboundedContour(msg, energy=E, site=site) from exc
    return _local_kind(flags) is SiteClassification.REGULAR


def _crossing_param(ham, kind, Q, P, E) -> DualRational:
    """Parameter of the level crossing along the edge, from its (Q, P) end."""
    if kind == _EDGE_H:
        c0, c1 = ham.value(Q, P), ham.value(Q + 1, P)
    else:
        c0, c1 = ham.value(Q, P), ham.value(Q, P + 1)
    return (DualRational(Fraction(E - c0)) + EPSILON) / Fraction(c1 - c0)


def _edge(cq: int, cp: int, move: int) -> tuple:
    """A walk crossing as (kind, Q, P, forward); up and right are forward."""
    q0, q1, p0, _ = _SIDES[move]
    return (_EDGE_V if q0 == q1 else _EDGE_H, cq + q0, cp + p0, move in (_UP, _RIGHT))


def _start_crossing(Q, P, flags) -> tuple:
    """A crossing brushing the on-shell site (Q, P), oriented with the flow:
    across the edge to the first above-level neighbor (E, N, W, S order)."""
    if flags[0]:
        return (Q, P, _DOWN)
    if flags[1]:
        return (Q - 1, P, _RIGHT)
    if flags[2]:
        return (Q - 1, P - 1, _UP)
    return (Q, P - 1, _LEFT)


def _flip(cross: tuple) -> tuple:
    """The same crossing, traversed from the cell it enters."""
    cq, cp, move = cross
    dq, dp = _STEPS[move]
    return (cq + dq, cp + dp, (move + 2) % 4)


def _saddle_above(c00, c10, c01, c11, E) -> bool:
    """Whether the bilinear saddle of a diagonal cell lies above ``E + eps``.
    The denominator cannot vanish for a diagonal sign pattern of integers."""
    den = c00 + c11 - c10 - c01
    num = c00 * c11 - c10 * c01 - E * den
    return num != 0 and (num > 0) == (den > 0)


def _raise_escape(ham, E, cq, cp):
    try:
        ham.cell_corners(cq, cp)
    except WindowExceeded as exc:
        msg = f"level {E}+eps leaves the window at cell ({cq}, {cp})"
        raise UnboundedContour(msg, energy=E, site=(cq, cp)) from exc


def _walk_component(ham, E: int, start: tuple, touches: list, record=None) -> int:
    """Walk the component of the ``E + eps`` level through ``start`` once.

    Crossing ``n`` (``start`` is 0) appends ``(n, site)`` to ``touches`` when
    its below-level end lies on the shell, and itself to ``record`` if given,
    up to the closing return to ``start``; returns the count ``n`` before it.
    The walk always runs to closure, so an escaping component raises
    ``UnboundedContour`` at the first cell outside the windows.  Closure is
    tested on touching crossings only: every start crossing brushes a site.
    """
    vv, vlo = ham.potential.values, ham.potential.lo
    kv, klo = ham.kinetic.values, ham.kinetic.lo
    av = bv = None
    if ham.coupling_pos is not None:
        av, bv = ham.coupling_pos.values, ham.coupling_mom.values
    ilast, jlast = len(vv) - 1, len(kv) - 1  # cell (i, j) needs i < ilast, j < jlast
    cq, cp, m = start
    i, j = cq - vlo, cp - klo
    ie, je, me = i + _STEPS[m][0], j + _STEPS[m][1], m  # the cell ``start`` enters
    # The cell left is read along the crossed edge only, each corner copying
    # the edge end in its row or column, so the first move shifts it in place.
    dq0, dq1, dp0, dp1 = _SIDES[m]
    q0, q1, p0, p1 = i + dq0, i + dq1, j + dp0, j + dp1
    v0, v1, k0, k1 = vv[q0], vv[q1], kv[p0], kv[p1]
    a0, a1, b0, b1 = (av[q0], av[q1], bv[p0], bv[p1]) if av is not None else (0, 0, 0, 0)
    c00, c10 = v0 + k0 + a0 * b0, v1 + k0 + a1 * b0
    c01, c11 = v0 + k1 + a0 * b1, v1 + k1 + a1 * b1
    s00, s10, s01, s11 = c00 > E, c10 > E, c01 > E, c11 > E
    n = -1
    # Each branch enters the next cell across the edge crossed last, shifts
    # its corners into place, reads the two new ones and exits across the
    # other crossed edge.  With all four edges crossed the arc hugs the entry
    # edge's left-of-travel corner iff the saddle is on the other side of E.
    while True:
        if record is not None:
            record.append((i + vlo, j + klo, m))
        n += 1
        if m == _UP:
            j += 1
            c00, c10, s00, s10 = c01, c11, s01, s11
            if c00 == E or c10 == E:
                if n and i == ie and j == je and m == me:
                    return n
                touches.append((n, (i + vlo if c00 == E else i + 1 + vlo, j + klo)))
            if j == jlast:
                _raise_escape(ham, E, i + vlo, j + klo)
            k0, k1 = k1, kv[j + 1]
            c01, c11 = v0 + k1, v1 + k1
            if av is not None:
                b0, b1 = b1, bv[j + 1]
                c01, c11 = c01 + a0 * b1, c11 + a1 * b1
            s01, s11 = c01 > E, c11 > E
            if s01 is s00:
                if s11 is not s10:
                    m = _RIGHT
            elif s11 is s10:
                m = _LEFT
            else:
                m = _LEFT if _saddle_above(c00, c10, c01, c11, E) is not s00 else _RIGHT
        elif m == _RIGHT:
            i += 1
            c00, c01, s00, s01 = c10, c11, s10, s11
            if c00 == E or c01 == E:
                if n and i == ie and j == je and m == me:
                    return n
                touches.append((n, (i + vlo, j + klo if c00 == E else j + 1 + klo)))
            if i == ilast:
                _raise_escape(ham, E, i + vlo, j + klo)
            v0, v1 = v1, vv[i + 1]
            c10, c11 = v1 + k0, v1 + k1
            if av is not None:
                a0, a1 = a1, av[i + 1]
                c10, c11 = c10 + a1 * b0, c11 + a1 * b1
            s10, s11 = c10 > E, c11 > E
            if s10 is s00:
                if s11 is not s01:
                    m = _UP
            elif s11 is s01:
                m = _DOWN
            else:
                m = _UP if _saddle_above(c00, c10, c01, c11, E) is s00 else _DOWN
        elif m == _DOWN:
            j -= 1
            c01, c11, s01, s11 = c00, c10, s00, s10
            if c01 == E or c11 == E:
                if n and i == ie and j == je and m == me:
                    return n
                touches.append((n, (i + vlo if c01 == E else i + 1 + vlo, j + 1 + klo)))
            if j < 0:
                _raise_escape(ham, E, i + vlo, j + klo)
            k0, k1 = kv[j], k0
            c00, c10 = v0 + k0, v1 + k0
            if av is not None:
                b0, b1 = bv[j], b0
                c00, c10 = c00 + a0 * b0, c10 + a1 * b0
            s00, s10 = c00 > E, c10 > E
            if s00 is s01:
                if s10 is not s11:
                    m = _RIGHT
            elif s10 is s11:
                m = _LEFT
            else:
                m = _LEFT if _saddle_above(c00, c10, c01, c11, E) is s00 else _RIGHT
        else:
            i -= 1
            c10, c11, s10, s11 = c00, c01, s00, s01
            if c10 == E or c11 == E:
                if n and i == ie and j == je and m == me:
                    return n
                touches.append((n, (i + 1 + vlo, j + klo if c10 == E else j + 1 + klo)))
            if i < 0:
                _raise_escape(ham, E, i + vlo, j + klo)
            v0, v1 = vv[i], v0
            c00, c01 = v0 + k0, v0 + k1
            if av is not None:
                a0, a1 = av[i], a0
                c00, c01 = c00 + a0 * b0, c01 + a0 * b1
            s00, s01 = c00 > E, c01 > E
            if s00 is s10:
                if s01 is not s11:
                    m = _UP
            elif s01 is s11:
                m = _DOWN
            else:
                m = _DOWN if _saddle_above(c00, c10, c01, c11, E) is s00 else _UP


def _step(ham: SeparableHamiltonian1D, Q: int, P: int, backward: bool) -> tuple[int, int]:
    E = ham.value(Q, P)
    val = _evaluator(ham)
    try:
        flags = _neighbor_flags(val, Q, P, E)
    except WindowExceeded as exc:
        raise WindowExceeded(
            f"site ({Q}, {P}) needs its four neighbors inside the windows"
        ) from exc
    if _local_kind(flags) is not SiteClassification.REGULAR:
        return (Q, P)
    start = _start_crossing(Q, P, flags)
    touches: list = []
    # The image is the first touched regular site other than (Q, P).
    images = (s for _, s in touches if s != (Q, P) and _is_regular(val, s, E))
    try:
        _walk_component(ham, E, _flip(start) if backward else start, touches)
    except UnboundedContour:
        next(images, None)  # a touched site that cannot be classified fails first
        raise
    return next(images, (Q, P))


def next_site(ham: SeparableHamiltonian1D, Q: int, P: int) -> tuple[int, int]:
    """One time step: the next lattice site on this site's contour.

    Saddle and extremum sites stand still; so does a site whose component
    touches no other regular site.
    """
    return _step(ham, Q, P, False)


def prev_site(ham: SeparableHamiltonian1D, Q: int, P: int) -> tuple[int, int]:
    """Inverse step: walk the contour against its orientation."""
    return _step(ham, Q, P, True)


def _visits(touches: list, n: int) -> list[tuple[int, int]]:
    """Collapse runs of consecutive crossings touching one site into visits,
    cyclically over the ``n`` crossings of a closed walk."""
    visits: list[tuple[int, int]] = []
    last = (-2, None)
    for k, site in touches:
        if site != last[1] or k != last[0] + 1:
            visits.append(site)
        last = (k, site)
    if len(visits) > 1 and last[0] == n - 1 and touches[0] == (0, last[1]):
        # the walk started mid-visit; the run wraps around the cycle seam
        visits.pop()
    return visits


def trace_component(
    ham: SeparableHamiltonian1D, E: int, seed: tuple[int, int]
) -> ContourTrace:
    """Trace the connected component of the ``E + eps`` level through ``seed``.

    ``seed`` must satisfy ``H(seed) = E``.  Untouched rest sites yield a
    single-site trace.  For a saddle brushed by two branches the component
    through the first crossed incident edge (east, north, west, south order)
    is returned.
    """
    Q, P = seed
    if ham.value(Q, P) != E:
        raise ValueError(f"seed {seed} is not on the shell: H={ham.value(Q, P)} != {E}")
    try:
        flags = _neighbor_flags(_evaluator(ham), Q, P, E)
    except WindowExceeded as exc:
        raise WindowExceeded(
            f"seed {seed} needs its four neighbors inside the windows"
        ) from exc
    if not any(flags):
        kind = classify_site(ham, Q, P, E)
        return ContourTrace(E, (seed,), (kind,), True, ())
    touches: list = []
    record: list = []
    n = _walk_component(ham, E, _start_crossing(Q, P, flags), touches, record)
    visits = _visits(touches, n)
    kinds = tuple(classify_site(ham, s[0], s[1], E) for s in visits)
    touched = dict(touches)
    recorded = tuple(
        Crossing(kind, eq, ep, fwd, _crossing_param(ham, kind, eq, ep, E), touched.get(k))
        for k, (kind, eq, ep, fwd) in enumerate(_edge(*cross) for cross in record[:n])
    )
    return ContourTrace(E, tuple(visits), kinds, True, recorded)


def enumerate_shell(ham: SeparableHamiltonian1D, E: int) -> list[tuple[int, int]]:
    """All window lattice sites with ``H = E``, in lexicographic order."""
    kin, pot = ham.kinetic, ham.potential
    qs, ps = range(pot.lo, pot.hi + 1), range(kin.lo, kin.hi + 1)
    if ham.coupling_pos is not None:
        cols = list(zip(ps, kin.values, ham.coupling_mom.values))
        rows = zip(qs, pot.values, ham.coupling_pos.values)
        return [(q, p) for q, v, a in rows for p, t, b in cols if t + v + a * b == E]
    # Without the product term, look E - V(q) up among the kinetic values.
    by_value: dict[int, list[int]] = {}
    for p, t in zip(ps, kin.values):
        by_value.setdefault(t, []).append(p)
    return [(q, p) for q, v in zip(qs, pot.values) for p in by_value.get(E - v, ())]


def orbit_map(
    ham: SeparableHamiltonian1D, sites: Iterable[tuple[int, int]]
) -> dict[tuple[int, int], tuple[int, int]]:
    """Successor map for many sites at once, tracing each component once."""
    result: dict[tuple[int, int], tuple[int, int]] = {}
    val = _evaluator(ham)
    for site in sites:
        if site in result:
            continue
        Q, P = site
        E = ham.value(Q, P)
        flags = _neighbor_flags(val, Q, P, E)
        if _local_kind(flags) is not SiteClassification.REGULAR:
            result[site] = site
            continue
        touches: list = []
        n = _walk_component(ham, E, _start_crossing(Q, P, flags), touches)
        regular = [s for s in _visits(touches, n) if _is_regular(val, s, E)]
        if len(regular) <= 1:
            result[site] = site
            continue
        for i, s in enumerate(regular):
            result[s] = regular[(i + 1) % len(regular)]
    return result


def trace_rows(trace: ContourTrace, component_id: int) -> list[tuple]:
    """CSV-ready rows: (component id, ordinal, Q, P, classification)."""
    return [
        (component_id, i, s[0], s[1], k.value)
        for i, (s, k) in enumerate(zip(trace.sites, trace.kinds))
    ]
