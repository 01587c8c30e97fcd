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
and :func:`prev_site` take a table and a site and walk through the site with
and against its orientation, recording nothing past the image: they stop
there when the tables prove the level closed (up to their ``_closure_level``,
which the field band's tables carry), else only confirm closure.
:func:`orbit_map` walks each component once for all its sites;
:func:`trace_component` records the walk's crossings.  Every site is judged
by one reader, :func:`_flags` (its energy and which neighbors lie above it,
from the tables), and one rule, :func:`_regular`.

The walk reads each cell in its frame of travel, so one move rule serves all
four directions: the crossing just made lies on a line of the table along the
move (the kinetic table moving along p, the potential along q), between two
lines of the other.  Each cell reads one new line of the along table; the
level then goes straight on, or turns out across one of the two side lines,
and a turn swaps the roles of the two tables.  All decisions in the walk are
integer arithmetic; each recorded crossing carries its position along the
crossed edge as the exact pair ``(std, inf)``, meaning ``std + inf*eps``, for
inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional

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
# Per move: the step to the next cell.
_UP, _RIGHT, _DOWN, _LEFT = range(4)
_STEPS = ((0, 1), (1, 0), (0, -1), (-1, 0))


class CrossingParam(NamedTuple):
    """Position ``std + inf*eps`` of a crossing along its edge."""

    std: Fraction
    inf: Fraction


@dataclass(frozen=True)
class Crossing:
    """One edge crossing of the ``E + eps`` level, in traversal order."""

    kind: str
    Q: int
    P: int
    forward: bool
    param: CrossingParam  # position along the edge, from (Q, P)
    touched: Optional[tuple[int, int]]  # lattice site brushed here, if any


@dataclass(frozen=True)
class ContourTrace:
    """One connected component of a shell: the sites it touches, in order."""

    energy: int
    sites: tuple[tuple[int, int], ...]
    kinds: tuple[SiteClassification, ...]
    crossings: tuple[Crossing, ...] = ()


def _tables(ham: SeparableHamiltonian1D) -> tuple:
    """The value lists ``(vv, kv, av, bv)`` of the potential, the kinetic
    term and the product term's two factors (None without it)."""
    cpos, vv, kv = ham.coupling_pos, ham.potential.values, ham.kinetic.values
    if cpos is None:
        return vv, kv, None, None
    return vv, kv, cpos.values, ham.coupling_mom.values


def _flags(ham, vv, kv, av, bv, i, j) -> tuple:
    """``(E, east, north, west, south)`` of the table site (i, j) of
    :func:`_tables`: its energy and which of its four neighbors lie above E.
    Off the tables' interior it raises the ``WindowExceeded`` of the first
    read outside, as ``ham.value`` raises it: the site's own, then the
    neighbors' in east, north, west, south order."""
    if not (0 < i < len(vv) - 1 and 0 < j < len(kv) - 1):
        Q, P = i + ham.potential.lo, j + ham.kinetic.lo
        for q, p in ((Q, P), (Q + 1, P), (Q, P + 1), (Q - 1, P), (Q, P - 1)):
            ham.value(q, p)
    v, t = vv[i], kv[j]
    if av is None:  # a neighbor lies above iff its own factor is larger
        return v + t, vv[i + 1] > v, kv[j + 1] > t, vv[i - 1] > v, kv[j - 1] > t
    a, b = av[i], bv[j]
    E = v + t + a * b
    east, north = vv[i + 1] + t + av[i + 1] * b > E, v + kv[j + 1] + a * bv[j + 1] > E
    west, south = vv[i - 1] + t + av[i - 1] * b > E, v + kv[j - 1] + a * bv[j - 1] > E
    return E, east, north, west, south


def _regular(flags) -> bool:
    """Whether one branch brushes the on-shell site with these :func:`_flags`,
    which makes it regular: one or three neighbors lie above, or two that
    are not opposite.  Only regular sites move."""
    _, east, north, west, south = flags
    above = east + north + west + south
    return above == 1 or above == 3 or (above == 2 and east != west)


def classify_site(ham: SeparableHamiltonian1D, Q: int, P: int, E: int) -> SiteClassification:
    """Classify a lattice site against the ``E + eps`` level.

    Requires the full 3x3 neighborhood to lie inside the windows.
    """
    vv, kv, av, bv = _tables(ham)
    i, j = Q - ham.potential.lo, P - ham.kinetic.lo
    if not (0 < i < len(vv) - 1 and 0 < j < len(kv) - 1):
        for dq in (-1, 0, 1):
            for dp in (-1, 0, 1):
                ham.value(Q + dq, P + dp)  # raises WindowExceeded: one is outside
    flags = _flags(ham, vv, kv, av, bv, i, j)
    if flags[0] != E:
        return SiteClassification.OFF_CONTOUR
    if _regular(flags):
        return SiteClassification.REGULAR
    if any(flags[1:]):  # four above: an infinitesimal loop; two opposite: a crossing
        return SiteClassification.EXTREMUM if all(flags[1:]) else SiteClassification.SADDLE
    # Untouched site: either isolated (a top of the landscape) or a
    # degenerate saddle whose branches pass at second order, revealed by
    # alternating diagonal cells.
    ne = ham.value(Q + 1, P + 1) > E
    nw = ham.value(Q - 1, P + 1) > E
    sw = ham.value(Q - 1, P - 1) > E
    se = ham.value(Q + 1, P - 1) > E
    if ne == sw and nw == se and ne != nw:
        return SiteClassification.SADDLE
    return SiteClassification.EXTREMUM


def _touched_regular(ham, vv, kv, av, bv, i, j) -> bool:
    """Whether the touched table site (i, j) is regular (:func:`_regular`).
    One without its four neighbors inside the tables raises
    ``UnboundedContour`` at its own energy, the level's."""
    try:
        return _regular(_flags(ham, vv, kv, av, bv, i, j))
    except WindowExceeded as exc:
        site = (i + ham.potential.lo, j + ham.kinetic.lo)
        msg = f"cannot classify touched site {site}: window too small"
        raise UnboundedContour(msg, energy=ham.value(*site), site=site) from exc


def _crossing_param(ham, kind, Q, P, E) -> CrossingParam:
    """Parameter of the level crossing along the edge, from its (Q, P) end."""
    if kind == _EDGE_H:
        c0, c1 = ham.value(Q, P), ham.value(Q + 1, P)
    else:
        c0, c1 = ham.value(Q, P), ham.value(Q, P + 1)
    return CrossingParam(Fraction(E - c0, c1 - c0), Fraction(1, c1 - c0))


def _edge(cq: int, cp: int, move: int) -> tuple:
    """A walk crossing as (kind, Q, P, forward); up and right are forward."""
    kind = _EDGE_V if move in (_RIGHT, _LEFT) else _EDGE_H
    return (kind, cq + (move == _RIGHT), cp + (move == _UP), move in (_UP, _RIGHT))


def _start_crossing(Q, P, flags) -> tuple:
    """A crossing brushing the on-shell site (Q, P), oriented with the flow:
    across the edge to the first above-level neighbor (E, N, W, S order) of
    its :func:`_flags`."""
    _, east, north, west, _ = flags
    if east:
        return (Q, P, _DOWN)
    if north:
        return (Q - 1, P, _RIGHT)
    if west:
        return (Q - 1, P - 1, _UP)
    return (Q, P - 1, _LEFT)


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


def _walk_component(ham, E: int, start: tuple, touches: list, record=None, stop=None) -> Optional[int]:
    """Walk the component of the ``E + eps`` level through ``start`` once.

    Crossing ``n`` (``start`` is 0) appends ``(n, site)`` to ``touches`` when
    its below-level end lies on the shell, and itself to ``record`` if given,
    up to the closing return to ``start``; returns the count ``n`` before it.
    An escaping component raises ``UnboundedContour`` at the first cell
    outside the windows.  ``stop`` is a site whose image ends the walk: the
    first touched site other than ``stop`` that is regular
    (_touched_regular), judged after its touch is appended.  At that image the
    walk returns ``None``: at once if ``E`` is at or below the tables'
    ``_closure_level`` (the level provably closes inside them), else on
    closing, after walking on with no more touches or tests, so an escape
    past the image still raises.
    Closure and ``stop`` are tested on touching crossings only, so ``start``
    must brush a site, except in a walk given ``record``: that walk also
    tests closure at ``start`` itself.
    """
    vv, kv, av, bv = _tables(ham)
    vlo, klo = ham.potential.lo, ham.kinetic.lo
    # The walk reads each cell in its frame of travel.  Y is the along table
    # (kv moving along p, vv along q) and X the across one, with the product
    # term's factors YB and XA, so H at frame site (x, y) is
    # X[x] + Y[y] + XA[x] * YB[y].  A crossing crosses line y of Y in
    # direction dy, between lines xa (left of travel) and xb of X, whose
    # ends have energies na and nb.  A turn swaps the roles of the tables.
    cq, cp, m = start
    dq, dp = _STEPS[m]
    if dq:
        X, Y, XA, YB, x, y = kv, vv, bv, av, cp - klo, cq - vlo
    else:
        X, Y, XA, YB, x, y = vv, kv, av, bv, cq - vlo, cp - klo
    dy = dq + dp
    y += dy > 0
    # Left of travel lies -q moving up, +p right, +q down and -p left.
    xa, xb = x + (m in (_RIGHT, _DOWN)), x + (m in (_UP, _LEFT))
    y0, dy0, xa0, xb0 = y, dy, xa, xb
    t = Y[y]
    na, nb = X[xa] + t, X[xb] + t
    if XA is not None:
        na, nb = na + XA[xa] * YB[y], nb + XA[xb] * YB[y]
    sna, snb = na > E, nb > E
    lx, ly = len(X), len(Y)
    live = True  # touches are still recorded
    # Each cell reads the one new line Y[y + dy] and goes straight on, or
    # turns out across line xa or xb.  With all four edges crossed the arc
    # cuts off the near corner whose sign the saddle does not share.
    # The level crosses each table edge at most once, so a walk that has not
    # closed after 4 crossings per table site did not start on the level.
    for n in range(4 * len(vv) * len(kv)):
        if record is not None:
            if n and y == y0 and xa == xa0 and dy == dy0 and xb == xb0:  # a start that brushes no site
                return n if live else None
            cy, cx = y - (dy > 0), (xa if xa < xb else xb)  # the cell left
            if dy == xb - xa:  # along p: -q lies on the left moving up, +q moving down
                record.append((cx + vlo, cy + klo, _UP if dy > 0 else _DOWN))
            else:
                record.append((cy + vlo, cx + klo, _RIGHT if dy > 0 else _LEFT))
        if na == E or nb == E:
            if n and y == y0 and xa == xa0 and dy == dy0 and xb == xb0:
                return n if live else None
            if live:
                x = xa if na == E else xb
                ti, tj = (x, y) if dy == xb - xa else (y, x)
                site = (ti + vlo, tj + klo)
                touches.append((n, site))
                if stop is not None and site != stop and _touched_regular(ham, vv, kv, av, bv, ti, tj):
                    if (level := ham._closure_level) is not None and E <= level:
                        return None
                    live = False
        yn = y + dy
        if not 0 <= yn < ly:  # the cell entered is not in the tables
            cy, cx = min(y, yn), min(xa, xb)
            _raise_escape(ham, E, *((cx + vlo, cy + klo) if dy == xb - xa else (cy + vlo, cx + klo)))
        t = Y[yn]
        fa, fb = X[xa] + t, X[xb] + t
        if XA is not None:
            t = YB[yn]
            fa, fb = fa + XA[xa] * t, fb + XA[xb] * t
        sfa, sfb = fa > E, fb > E
        if sfa is not sna and (sfb is snb or _saddle_above(na, nb, fa, fb, E) is snb):
            dy = xa - xb  # out across line xa
            xb = yn
            xa, y = y, xa
            nb = fa
            snb = sfa
        elif sfb is not snb:
            dy = xb - xa  # out across line xb
            xa = yn
            xb, y = y, xb
            na = fb
            sna = sfb
        else:  # straight on
            y = yn
            na, nb = fa, fb
            continue
        X, Y = Y, X
        XA, YB = YB, XA
        lx, ly = ly, lx
    raise RuntimeError(f"level {E}+eps from crossing {start} does not close: a start off the level")


def _step(ham: SeparableHamiltonian1D, Q: int, P: int, backward: bool) -> tuple[int, int]:
    """The first regular site other than (Q, P), else (Q, P) itself, touched by
    the walk with (``backward``: against) the orientation; regular means one
    branch brushes it (_regular).  Past that image the walk records
    nothing and only confirms closure, unless the tables prove it."""
    vv, kv, av, bv = _tables(ham)
    i, j = Q - ham.potential.lo, P - ham.kinetic.lo
    try:
        flags = _flags(ham, vv, kv, av, bv, i, j)
    except WindowExceeded as exc:
        if not (0 <= i < len(vv) and 0 <= j < len(kv)):
            raise  # the site's own error
        raise WindowExceeded(f"site ({Q}, {P}) needs its four neighbors inside the windows") from exc
    if not _regular(flags):
        return (Q, P)
    cq, cp, m = start = _start_crossing(Q, P, flags)
    if backward:  # the same crossing, traversed from the cell it enters
        start = (cq + _STEPS[m][0], cp + _STEPS[m][1], (m + 2) % 4)
    touches: list = []
    if _walk_component(ham, flags[0], start, touches, stop=(Q, P)) is None:
        return touches[-1][1]
    return (Q, P)


def next_site(ham: SeparableHamiltonian1D, Q: int, P: int) -> tuple[int, int]:
    """One time step: the next lattice site on this site's contour.

    Saddle and extremum sites stand still; so does a site whose component
    touches no other regular site.  Past the image the walk records nothing
    but runs on to closure, so an escape still raises, unless the tables
    prove the level closed (see :meth:`SeparableHamiltonian1D._trusted`):
    then the walk stops at the image.
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
        flags = _flags(ham, *_tables(ham), Q - ham.potential.lo, P - ham.kinetic.lo)
    except WindowExceeded as exc:
        raise WindowExceeded(f"seed {seed} needs its four neighbors inside the windows") from exc
    if not any(flags[1:]):
        kind = classify_site(ham, Q, P, E)
        return ContourTrace(E, (seed,), (kind,), ())
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
    return ContourTrace(E, tuple(visits), kinds, recorded)


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
    vv, kv, av, bv = _tables(ham)
    qlo, plo = ham.potential.lo, ham.kinetic.lo
    for site in sites:
        if site in result:
            continue
        Q, P = site
        flags = _flags(ham, vv, kv, av, bv, Q - qlo, P - plo)
        if not _regular(flags):
            result[site] = site
            continue
        touches: list = []
        n = _walk_component(ham, flags[0], _start_crossing(Q, P, flags), touches)
        regular = [s for s in _visits(touches, n) if _touched_regular(ham, vv, kv, av, bv, s[0] - qlo, s[1] - plo)]
        for i, s in enumerate(regular):  # regular[0] is site, fixed if alone
            result[s] = regular[(i + 1) % len(regular)]
    return result
