"""Reversible integer field dynamics on a periodic lattice.

Each lattice site x carries integer field values and momenta for K
components.  The energy density at a site is the sum of two separately
floored terms: a potential part (squared forward gradients plus mass terms)
and a kinetic part (squared momenta).  One time step sweeps the even
checkerboard class and then the odd class, updating each (site, component)
pair by an exact contour step of its restricted Hamiltonian.  A sub-update
at x reads the other class at x +- e_a, which the half sweep leaves fixed, and
its own class only at x - e_a + e_b, which has the same coordinate sum.  So a
change moves by at most one unit of ``sum(x)`` per half sweep, whatever the
sweep order (see :func:`diagonal_radius`).  In one dimension that is one
lattice link and same-class updates commute; in higher dimensions a sweep
can carry a change along a whole line of constant ``sum(x)``, so the L1
radius has no such bound and the sweep order is fixed.

The sweep is one integer kernel over one flat Python list of field values and
momenta.  Once per step it reads both arrays with one ``tolist``, checks them
against the windows with one min and max, and writes one read-only int64 array
at the end.  The lattice shape numbers the sites for every reader; one plan
per spec, built on the first sweep, holds one record per sub-update: one
``itemgetter`` over the values it reads, and the positions its restriction reads.
Each half sweep is the list of its class's records in C order, components
ascending.  Every energy term is even in the momenta, so
``R(phi, mom) = (phi, -mom)`` reverses the dynamics: an inverse sweep is
``R``, the forward kernel over that list backwards, then ``R``.  A memo on
the spec serves a repeated neighbourhood with one lookup: no table, no walk,
no arithmetic beyond a shift.  Its keys are the gathered absolute values,
except on a line: a massless record there keeps its two own reads, x +- 1, as
positions and keys them relative to its value at x, so a repeat anywhere in
phi is served too.  A miss reads, in one pass, one integer quadratic in the
pair's field value per density it touches (see :func:`_local_terms`), and
tabulates sums of their floors only over the band its contour can reach (see
:func:`restricted_hamiltonian`).  A band strictly inside both windows proves
the contour closed and its tables carry that proof, so the walk stops at the
image; one that touches an edge takes the full walk.  The memo has no
direction: each closed miss also stores its mirror, from ``R`` of its image
back to ``R`` of the pair, so inverse and forward steps share every entry.
Only a hit on a relative key checks something: that its translated band still
lies strictly inside the field window.

A two-layer second-order automaton in Fredkin's style (field value plus
previous field value; Toffoli & Margolus, *Cellular Automata Machines*,
1987) is included as a contrast: exactly reversible for any integer update
rule, but with no conserved energy.  Its names keep the historical
``margolus`` prefix.
"""

from __future__ import annotations

import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .contours import next_site, prev_site
from .errors import ConfigError, IntHamError, WindowExceeded
from .hamiltonians import (
    MAX_WINDOW, IntegerFunction1D, SeparableHamiltonian1D, fraction_from_json, index_tuple, index_windows, integers,
    only_keys, read_key, read_window,
)

Site = tuple[int, ...]

#: The closed range of a numpy int64, which holds every field and momentum value.
INT64 = (-(2**63), 2**63 - 1)

#: The field and momentum window of every component unless one is given.
DEFAULT_WINDOW = (-64, 64)

#: Most components a JSON field spec may declare.  Each costs about 6 us to
#: read, but the sweep plan gathers every other component at each site a
#: sub-update reads, so it grows with their square: about 0.16 s on a line
#: of 2 sites at this cap, 3.1 s at 1024 components.
MAX_COMPONENTS = 256

#: Most positions a JSON field spec's sweep plan may gather, counted as
#: ``prod(sizes) * components**2 * (1 + d + d*d)`` in ``d`` dimensions: every
#: sub-update gathers each component at the 1 + d + d*d sites it reads.  On a
#: 2-core x86 host one position cost 0.3 us to plan (256 components on 2 sites)
#: to 3.7 us (one component on a line, 1.3 KB per site), so a plan at the cap
#: takes at most about 2 s.
MAX_PLAN_POSITIONS = 2**19

#: Most sub-updates a ``lightcone`` run may make, counted as ``2 * steps *
#: prod(sizes) * components``: both states take every step.  On a 2-core x86
#: host a 32x32 run of 20 steps cost 10-14 us per sub-update, mostly memo
#: hits, and runs whose states rarely repeat 25-66 us, so a run at the cap
#: takes about 15 s, or up to about 70 s when most sub-updates miss.
MAX_LIGHTCONE_UPDATES = 2**20

#: Most work a ``margolus-contrast`` run may do, counted as ``steps * (steps +
#: MARGOLUS_STEP_UNITS) * prod(sizes) * components``.  Field values grow
#: exponentially, so each step costs in proportion to the digits reached so far:
#: on a 2-core x86 host a ``steps**2`` unit cost 11-17 ns ([8] at 2000 to 2896
#: steps, 32x32 and 64x64 at 200 and 100 steps).  Each site-step also costs
#: about 1.1 us whatever its digits, three quarters of it in its energy
#: density ([174760] from 4 to 19 steps): ``MARGOLUS_STEP_UNITS`` units.  A run
#: at the cap takes about 1 s.  The CLI also rejects a run whose energy outgrows
#: the digits ``str`` writes.
MAX_MARGOLUS_WORK = 2**26
MARGOLUS_STEP_UNITS = 64

#: Entries a spec's local-rule memo (see :func:`_sweep`) holds, dropping the
#: oldest at the cap; bounds the memory of long runs over rarely repeating states.
_MEMO_CAP = 4096


@dataclass(frozen=True)
class LatticeShape:
    """Periodic box with even side lengths (so the two parity classes tile).
    It reads every site argument (:meth:`site`) and numbers the sites once
    (:meth:`numbering`) for the energies, window errors and the sweep plan."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", index_tuple(self.sizes, "sizes"))
        if not self.sizes:
            raise ValueError("need at least one dimension")
        for s in self.sizes:
            if s <= 0 or s % 2:
                raise ValueError(f"side lengths must be positive and even, got {s}")

    @property
    def dimensions(self) -> int:
        return len(self.sizes)

    def sites(self) -> Iterator[Site]:
        return itertools.product(*(range(s) for s in self.sizes))

    def site(self, x: Site) -> Site:
        """The in-box site of x: one integer per dimension, each read by
        :func:`index_tuple` and wrapped into its side, else ``ValueError``."""
        site = index_tuple(x, "site coordinates")
        if len(site) != len(self.sizes):
            raise ValueError(f"site {x} needs {len(self.sizes)} coordinates, got {len(site)}")
        return tuple(c % s for c, s in zip(site, self.sizes))

    def numbering(self) -> tuple:
        """``(sites, index, fwd)``, built on first use and kept as
        ``_numbering``, which equality, hashing and repr ignore: the sites in
        C order, as ``array.ravel()`` lays them out, each site's flat index,
        and per site the flat indices of its forward neighbours ``x + e_a``."""
        try:
            return self._numbering
        except AttributeError:
            sites, flat = list(self.sites()), np.arange(math.prod(self.sizes)).reshape(self.sizes)
            fwd = np.stack([np.roll(flat, -1, a).ravel() for a in range(self.dimensions)], axis=1).tolist()
            object.__setattr__(self, "_numbering", (sites, dict(zip(sites, range(len(sites)))), list(map(tuple, fwd))))
            return self._numbering

    def parity(self, x: Site) -> int:
        return sum(self.site(x)) % 2

    def shift(self, x: Site, axis: int, delta: int) -> Site:
        out = list(self.site(x))
        out[axis] = (out[axis] + delta) % self.sizes[axis]
        return tuple(out)

    def l1_distance(self, a: Site, b: Site) -> int:
        """Periodic L1 distance between two sites, each read by :meth:`site`."""
        total = 0
        for ai, bi, s in zip(self.site(a), self.site(b), self.sizes):
            d = (ai - bi) % s
            total += min(d, s - d)
        return total


@dataclass(frozen=True)
class FieldHamiltonianSpec:
    """Couplings and windows of the field Hamiltonian.

    ``stiffness`` is the overall prefactor of both energy terms; None reads
    as its ceiling ``1/dimensions``, which keeps every restricted single-pair
    potential steep enough for the checkerboard sweep to stay local.

    ``phi_windows`` and ``p_windows`` bound each component's field values and
    momenta.  A value that gets stepped needs one unit of room inside each
    window: a contour step reads the four neighbours of its site, so a value
    exactly on a window edge passes the entry check of :func:`step` but
    raises ``WindowExceeded`` (with ``field_site`` set) at its sub-update.
    """

    shape: LatticeShape
    components: int
    masses: tuple[Fraction, ...]
    stiffness: Optional[Fraction]
    phi_windows: tuple[tuple[int, int], ...]
    p_windows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "components", index_tuple((self.components,), "components")[0])
        object.__setattr__(self, "masses", tuple(Fraction(m) for m in self.masses))
        stiffness = Fraction(1, self.shape.dimensions) if self.stiffness is None else self.stiffness
        object.__setattr__(self, "stiffness", Fraction(stiffness))
        if self.components < 1 or len(self.masses) != self.components:
            raise ValueError("need one mass per component")
        if any(m < 0 for m in self.masses):
            raise ValueError("masses must be nonnegative")
        if not (0 < self.stiffness <= Fraction(1, self.shape.dimensions)):
            raise ValueError(
                f"stiffness must lie in (0, 1/{self.shape.dimensions}]"
            )
        for name in ("phi_windows", "p_windows"):
            object.__setattr__(self, name, index_windows(getattr(self, name), name, "component"))
        if len(self.phi_windows) != self.components or len(self.p_windows) != self.components:
            raise ValueError("need one field and one momentum window per component")
        # Integer form of the two floors: with stiffness sn/sd and squared
        # masses brought over the common denominator md, the potential floor
        # is (sn * (md*gradsum + mass_num)) // (2*sd*md) in exact integers.
        m2 = [m * m for m in self.masses]
        md = math.lcm(*(f.denominator for f in m2))
        object.__setattr__(self, "_mass_den", md)
        object.__setattr__(self, "_mass_num", tuple(f.numerator * (md // f.denominator) for f in m2))
        object.__setattr__(self, "_pot_den", 2 * self.stiffness.denominator * md)
        object.__setattr__(self, "_kin_den", 2 * self.stiffness.denominator)
        object.__setattr__(self, "_sn", self.stiffness.numerator)
        # Local-rule memo of the sweep (see :func:`_plan` for its tables);
        # not a field, so equality, hashing and repr ignore it.
        object.__setattr__(self, "_memo", OrderedDict())

    @classmethod
    def uniform(
        cls,
        shape: LatticeShape,
        components: int = 1,
        mass: Fraction = Fraction(0),
        stiffness: Optional[Fraction] = None,
        phi_window: tuple[int, int] = DEFAULT_WINDOW,
        p_window: tuple[int, int] = DEFAULT_WINDOW,
    ) -> "FieldHamiltonianSpec":
        return cls(
            shape,
            components,
            (Fraction(mass),) * components,
            stiffness,
            (phi_window,) * components,
            (p_window,) * components,
        )


def _layer(values, name: str, dtype) -> np.ndarray:
    """``values`` copied into a read-only array of ``dtype``.  Unless they
    are a signed-integer array, every entry is read exactly by
    :func:`index_tuple` and, for int64, bounded: a float, a Fraction or an
    entry past int64 raises ``ValueError`` naming the layer."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind == "i"):
        values = np.array(values, dtype=object)
        entries = index_tuple(values.ravel().tolist(), name)
        if dtype is not object and entries and not (INT64[0] <= min(entries) and max(entries) <= INT64[1]):
            raise ValueError(f"'{name}' entries must lie in int64 [{INT64[0]}, {INT64[1]}]")
    array = np.array(values.tolist() if dtype is object else values, dtype=dtype)
    array.setflags(write=False)
    return array


class FieldState:
    """Integer field/momentum arrays of shape (components, *sizes).

    Treated as an immutable value: the arrays are copied in and marked
    read-only, and every evolution function returns a fresh state.
    """

    __slots__ = ("phi", "mom", "time")

    def __init__(self, phi, mom, time: int = 0):
        phi, mom = _layer(phi, "phi", np.int64), _layer(mom, "mom", np.int64)
        if phi.shape != mom.shape:
            raise ValueError("field and momentum arrays must share a shape")
        if phi.ndim < 2:
            raise ValueError("arrays must be (components, *sizes)")
        self.phi = phi
        self.mom = mom
        self.time = index_tuple((time,), "time")[0]

    def __repr__(self):
        return f"FieldState(t={self.time}, shape={self.phi.shape})"


def states_equal(a: FieldState, b: FieldState, include_time: bool = True) -> bool:
    same = np.array_equal(a.phi, b.phi) and np.array_equal(a.mom, b.mom)
    return same and (a.time == b.time or not include_time)


def _check_shape(array: np.ndarray, spec: FieldHamiltonianSpec, what: str = "state"):
    expected = (spec.components, *spec.shape.sizes)
    if array.shape != expected:
        raise ValueError(f"{what} shape {array.shape} != spec shape {expected}")


def _plan(spec: FieldHamiltonianSpec) -> tuple:
    """The spec's sweep plan, built on first use and kept as ``spec._plan``;
    only the sweeps and :func:`restricted_hamiltonian` read it.

    Sites are numbered by :meth:`LatticeShape.numbering`.  The sweep keeps
    field values and momenta in one flat list over ``n`` sites:
    ``phi_k`` of site ``i`` sits at ``k * n + i`` and ``mom_k`` at
    ``(K + k) * n + i`` for ``K`` components.  Returns ``(entries, orders,
    lo, hi)``: ``entries[i]`` is ``(x, fwd, subs)``, with ``fwd`` the site's
    forward neighbours from the numbering, and ``subs[k]`` is the
    one record of the sub-update of component ``k`` at x: ``(x, k, gather,
    qi, pi, line, layout)``.  ``gather`` is an ``itemgetter`` over the flat
    list (see :func:`_sweep`): the momenta at x, the pair's first, then the
    other components at every site the sub-update reads, then component
    ``k`` at those sites, x first.  ``qi``/``pi`` are the positions of the
    pair's value and momentum.  ``line`` is None except for a massless
    component in one dimension, whose key is relative to its value at x: it
    holds the positions of its two other own reads, x + 1 and x - 1, which
    the sweep reads in place, and ``gather`` stops before component ``k``
    (with one component it reads the momentum alone, as an int).
    ``layout`` is the same neighbourhood as flat positions for
    :func:`_local_terms`: ``(densities, moms)``, with ``moms`` the other
    components' momenta at x and one ``(a0, centers, pairs, masses)`` per
    density the pair enters, x's and then each backward neighbour
    ``w = x - e_a``'s: ``a0`` is its ``v^2`` coefficient, ``centers`` the
    positions of component k in its ``(v - center)^2`` terms (at x's forward
    neighbours, or at w), ``pairs`` the ``(forward, site)`` positions of its
    other gradients and ``masses`` its other ``(mass numerator, position)``
    terms.  ``orders[parity]`` is the half sweep of that class: its records
    themselves, in C order with components ascending.  An inverse sweep
    iterates it backwards, sites and components alike, which keeps inversion
    exact where shared floors couple equal-parity diagonal neighbours.  Every
    window holds ``[lo, hi]``.
    """
    try:
        return spec._plan
    except AttributeError:
        sites, _, fwd = spec.shape.numbering()
        n, kk, masses = len(sites), spec.components, spec._mass_num
        bwd = np.argsort(fwd, axis=0).tolist()  # x - e_a, as each x -> x + e_a is a permutation
        a = spec._sn * spec._mass_den
        entries = []
        for i, x in enumerate(sites):
            back = [(w, fwd[w], fwd[w][:ax] + fwd[w][ax + 1:]) for ax, w in enumerate(bwd[i])]
            # Every site a sub-update at x reads: x, its forward neighbours,
            # and each backward neighbour with its other forward neighbours.
            reads = [i, *fwd[i]]
            for w, _, wrest in back:
                reads += [w, *wrest]
            subs = []
            for k, mass in enumerate(masses):
                others = [j for j in range(kk) if j != k]
                rest = [(kk + j) * n + i for j in (k, *others)]
                rest += [j * n + s for j in others for s in reads]
                densities = [(
                    a * len(fwd[i]) + spec._sn * mass,
                    tuple(k * n + f for f in fwd[i]),
                    tuple((j * n + f, j * n + i) for j in others for f in fwd[i]),
                    tuple((masses[j], j * n + i) for j in others if masses[j]),
                )]
                for w, wfwd, wrest in back:
                    densities.append((
                        a,
                        (k * n + w,),
                        tuple((j * n + f, j * n + w) for j in range(kk) for f in (wrest if j == k else wfwd)),
                        tuple((mj, j * n + w) for j, mj in enumerate(masses) if mj),
                    ))
                layout = (tuple(densities), rest[1:kk])
                if mass or spec.shape.dimensions > 1:
                    line, gather = None, itemgetter(*rest, *(k * n + s for s in reads))
                else:  # massless on a line: x + 1 and x - 1, read relative to x
                    line, gather = (k * n + reads[1], k * n + reads[2]), itemgetter(*rest)
                subs.append((x, k, gather, k * n + i, rest[0], line, layout))
            entries.append((x, fwd[i], tuple(subs)))
        orders = tuple([sub for e in entries if sum(e[0]) % 2 == c for sub in e[2]] for c in (0, 1))
        windows = spec.phi_windows + spec.p_windows
        lo, hi = max(w[0] for w in windows), min(w[1] for w in windows)
        object.__setattr__(spec, "_plan", (entries, orders, lo, hi))
        return spec._plan


def _energy(spec: FieldHamiltonianSpec, phi: list, mom: list, sites: Iterable[int]) -> int:
    """Sum of the energy densities at the given flat sites of the flat lists
    ``phi``/``mom``: per site, the potential part (squared forward gradients
    plus mass terms) and the kinetic part (squared momenta) are floored
    separately, in exact integers."""
    fwd = spec.shape.numbering()[2]
    n = len(fwd)
    sn, md, pden, kden = spec._sn, spec._mass_den, spec._pot_den, spec._kin_den
    rows = [(k * n, mk) for k, mk in enumerate(spec._mass_num)]
    total = 0
    for i in sites:
        grads = mass = squares = 0
        for base, mk in rows:
            c = phi[base + i]
            for j in fwd[i]:
                d = phi[base + j] - c
                grads += d * d
            if mk:
                mass += mk * c * c
            m = mom[base + i]
            squares += m * m
        total += sn * (md * grads + mass) // pden + sn * squares // kden
    return total


def site_energy(state: FieldState, spec: FieldHamiltonianSpec, x: Site) -> int:
    """Energy density at x: separately floored potential and kinetic terms."""
    _check_shape(state.phi, spec)
    i = spec.shape.numbering()[1][spec.shape.site(x)]
    return _energy(spec, state.phi.ravel().tolist(), state.mom.ravel().tolist(), (i,))


def total_energy(state: FieldState, spec: FieldHamiltonianSpec) -> int:
    _check_shape(state.phi, spec)
    phi = state.phi.ravel().tolist()
    return _energy(spec, phi, state.mom.ravel().tolist(), range(len(phi) // spec.components))


def _local_terms(spec: FieldHamiltonianSpec, vals: list, layout: tuple, qi: int, pi: int) -> tuple:
    """Everything the restriction of the pair (phi_k(x), mom_k(x)) reads.

    ``vals`` is the flat list of field values and momenta; ``layout``, ``qi``
    and ``pi`` come from the pair's record in :func:`_plan`.  Returns
    ``(quads, q, p, kin0)``.  Per involved density (this site's, then each
    backward neighbour's) ``quads`` holds ``(a, b, c)``: its floor argument,
    ``sn`` times the mass-scaled gradients and masses, is ``a*v^2 + b*v + c``
    in the pair's value v.  ``q`` and ``p`` are the pair's values, and
    ``kin0`` is ``sn`` times the other components' squared momenta at x.
    """
    densities, moms = layout
    sn, md = spec._sn, spec._mass_den
    b = -2 * sn * md
    others = 0
    for u in moms:
        m = vals[u]
        others += m * m
    quads = []
    for a0, kpos, pairs, masses in densities:
        grads = mass = total = 0
        for u, w in pairs:
            d = vals[u] - vals[w]
            grads += d * d
        for mj, u in masses:
            c = vals[u]
            mass += mj * c * c
        for u in kpos:  # the frozen values of component k in its (v - c)^2 terms
            c = vals[u]
            total += c
            grads += c * c
        quads.append((a0, b * total, sn * (md * grads + mass)))
    return quads, vals[qi], vals[pi], sn * others


def _scan(values: list, quads: list, pden: int, v: int, dv: int, edge: int, top: int) -> None:
    """Append the potential values at v + dv, v + 2*dv, ... to ``values``, up
    to the first above ``top`` or to ``edge``.  A scan that would pass
    ``MAX_WINDOW`` values raises ``WindowExceeded`` instead."""
    end = edge if (edge - v) * dv <= MAX_WINDOW else v + dv * MAX_WINDOW
    while v != end:
        v += dv
        t = 0
        for a, b, c in quads:
            t += ((a * v + b) * v + c) // pden
        values.append(t)
        if t > top:
            return
    if v != edge:
        raise WindowExceeded(f"contour band from {v - dv * MAX_WINDOW} passes {MAX_WINDOW} field values toward {edge}")


@lru_cache(maxsize=256)
def _kinetic_band(kin0: int, sn: int, kden: int, lo: int, hi: int) -> IntegerFunction1D:
    """The kinetic table ``(kin0 + sn*p^2) // kden`` on ``[lo, hi]``; few recur."""
    return IntegerFunction1D._trusted(lo, tuple([(kin0 + sn * u * u) // kden for u in range(lo, hi + 1)]))


def restricted_hamiltonian(
    state: FieldState,
    spec: FieldHamiltonianSpec,
    x: Site,
    k: int,
    *,
    _terms: Optional[tuple] = None,
) -> SeparableHamiltonian1D:
    """Freeze everything except the pair (phi_k(x), mom_k(x)).

    The potential table collects the floored potential terms of this site and
    of each backward neighbor (the densities whose gradients straddle x); the
    kinetic table is this site's floored momentum term.  Their sum plus the
    untouched remainder reproduces the total energy exactly.

    The tables cover only the band the contour through the pair can reach:
    field values out to the first column on each side that lies wholly above
    the level, ``V(v) > E - T(0)``, or to the field window's edge, and momenta
    out to the first rows ``+-s`` with ``T(s) > E - min V`` over those
    columns, clipped to the momentum window.  The contour cannot cross a
    column or row that lies wholly above the level, so a walk on the band is
    the walk on the whole windows.  Tables strictly inside both windows prove
    the contour closed (every edge row and column lies above the level), so
    they carry the pair's level as their closure proof; a band that touches a
    window edge carries none, and may escape there.  A scan that would pass
    ``MAX_WINDOW`` field values on one side, or momenta that would span more
    than ``2 * MAX_WINDOW + 1`` values, raises ``WindowExceeded`` naming the
    pair in ``field_site`` and returns no tables.

    ``_terms`` is for the sweep: the pair's :func:`_local_terms` tuple
    ``(quads, q, p, kin0)``, so each potential entry is a sum of floored
    quadratics and ``state`` is unread.  Without it a state with a value
    outside its windows raises ``WindowExceeded`` naming that value's site.
    """
    if _terms is None:
        (k,) = index_tuple((k,), "component")
        if not 0 <= k < spec.components:
            raise ValueError(f"component {k} is not in [0, {spec.components})")
        site, _, _, qi, pi, _, layout = _plan(spec)[0][spec.shape.numbering()[1][spec.shape.site(x)]][2][k]
        _terms = _local_terms(spec, _flat(state, spec), layout, qi, pi)
        try:
            return restricted_hamiltonian(state, spec, x, k, _terms=_terms)
        except WindowExceeded as exc:
            exc.field_site = (site, k)
            raise
    quads, q_cur, p_cur, kin0 = _terms
    sn, pden, kden = spec._sn, spec._pot_den, spec._kin_den
    pot_cur = 0
    for a, b, c in quads:
        pot_cur += ((a * q_cur + b) * q_cur + c) // pden
    level = pot_cur + (kin0 + sn * p_cur * p_cur) // kden
    (qlo, qhi), (plo, phi_hi) = spec.phi_windows[k], spec.p_windows[k]
    col_top = level - kin0 // kden  # a column above this lies above the level
    pot_values: list = []
    _scan(pot_values, quads, pden, q_cur, -1, qlo, col_top)
    band_lo = q_cur - len(pot_values)
    pot_values.reverse()
    pot_values.append(pot_cur)
    _scan(pot_values, quads, pden, q_cur, 1, qhi, col_top)
    # rows +-s lie above the level: the least s with T(s) > E - min V (>= T(p) >= T(0))
    s = math.isqrt(((level - min(pot_values) + 1) * kden - kin0 - 1) // sn) + 1
    p_lo, p_hi = max(plo, -s), min(phi_hi, s)
    if p_hi - p_lo > 2 * MAX_WINDOW:
        raise WindowExceeded(f"contour band at level {level} needs momenta [{p_lo}, {p_hi}], past +-{MAX_WINDOW}")
    inside = qlo < band_lo and band_lo + len(pot_values) <= qhi and plo < p_lo and p_hi < phi_hi
    return SeparableHamiltonian1D._trusted(
        _kinetic_band(kin0, sn, kden, p_lo, p_hi),
        IntegerFunction1D._trusted(band_lo, tuple(pot_values)),
        level if inside else None,
    )


def _flat(state: FieldState, spec: FieldHamiltonianSpec, flip: bool = False) -> list:
    """The state's field values and momenta as one flat list (see
    :func:`_plan`), or with ``flip`` those of ``R(phi, mom) = (phi, -mom)``,
    after one min and max over both arrays; only a value outside the plan's
    ``[lo, hi]`` runs the per-window scan."""
    _check_shape(state.phi, spec)
    both = np.concatenate((state.phi, state.mom), axis=None)
    (*_, lo, hi), least = _plan(spec), both.min()
    if not (lo <= least and both.max() <= hi):
        exc = _outside(spec, both.tolist(), (spec.phi_windows, spec.p_windows), "window")
        if exc is not None:
            raise exc
    if flip:
        both = both if least > INT64[0] else both.astype(object)  # int64 wraps -(-2**63)
        both[both.size // 2:] *= -1
    return both.tolist()


def _outside(spec: FieldHamiltonianSpec, vals: list, windows, label: str) -> Optional[WindowExceeded]:
    """The error naming the first value of the flat list ``vals`` outside its
    component's ``windows`` (field windows, momentum windows), with
    ``field_site`` set; None when every value lies inside."""
    sites = spec.shape.numbering()[0]
    n = len(sites)
    for k in range(spec.components):
        for name, start, (lo, hi) in (
            ("field", k * n, windows[0][k]),
            ("momentum", (spec.components + k) * n, windows[1][k]),
        ):
            for i, v in enumerate(vals[start:start + n]):
                if not lo <= v <= hi:
                    exc = WindowExceeded(
                        f"{name} value {v} of component {k} at site {sites[i]} outside {label} [{lo}, {hi}]",
                        argument=v,
                    )
                    exc.field_site = (sites[i], k)
                    return exc
    return None


def _unflat(spec: FieldHamiltonianSpec, vals: list, time: int) -> FieldState:
    """A state viewing one fresh int64 array, read-only so no view can write.

    A value past int64, which only windows wider than int64 let a step reach,
    raises ``WindowExceeded`` naming its site, component and kind."""
    try:
        both = np.fromiter(vals, np.int64, len(vals))
    except OverflowError:
        raise _outside(spec, vals, ((INT64,) * spec.components,) * 2, "int64") from None
    both.setflags(write=False)
    state = object.__new__(FieldState)
    state.phi, state.mom = both.reshape(2, spec.components, *spec.shape.sizes)
    state.time = time
    return state


def _sweep(state: FieldState, vals: list, spec, orders: Sequence[list], inverse: bool):
    """The half sweeps ``orders``, lists of sub-update records (see
    :func:`_plan`), one after another over ``vals``, in place; an inverse
    sweep reads ``R`` of the state (``_flat(..., True)``) and writes ``R``.

    ``state`` only carries the shape to :func:`restricted_hamiltonian`, which
    a miss calls with the pair's terms already read from the list.
    """
    mover, sign = (prev_site, -1) if inverse else (next_site, 1)

    # The local rule is memoized on the spec, keyed on the component and the
    # values a sub-update reads, gathered by its record's itemgetter: the
    # momenta at x, then every component at x, at x's forward neighbours and at
    # each backward neighbour w and w's other forward neighbours.  Those
    # absolute values fix the record's tables, so its key takes shift 0.  A
    # massless component's potential depends only on differences of phi_k, so
    # on a line, where repeats up to a translation are common, its record reads
    # its two own values, at x + 1 and x - 1, in place and relative to its value
    # at x (the shift), and stores its image relative to it: a repeat anywhere
    # in phi walks an exact translate of the same tables.  A miss whose band
    # lies strictly inside both windows walks tables that carry their closure
    # proof (see restricted_hamiltonian) and stops at the image; the step
    # permutes that contour, so the image walked the other way leads back
    # inside the same band, and the miss stores a mirror entry too (below).  A
    # band that touches a window edge takes the full walk and stores nothing.
    # An entry keeps the range of shifts for which its translated band stays
    # strictly inside the field window; a hit outside it is exactly a translate
    # whose band would touch the window edge, and takes the cold path.  The
    # range always holds shift 0, so only a relative key's check can fail.  The
    # key fixes the momentum band, so a hit checks nothing else and does no
    # table arithmetic.
    #
    # R(q, p) = (q, -p) reverses each sub-update, so an inverse sweep steps R
    # of the state forward.  R maps a momentum window [lo, hi] onto [-hi, -lo]:
    # an inverse miss walks the unflipped pair backwards in its own window, R
    # of the flipped pair's walk in the reflected one, and flips the image, so
    # an escape raises the unflipped walk's error.  The memo has no direction:
    # a miss also stores its mirror, R of its image stepping to R of the pair,
    # keyed on the gather at R of the stepped state.
    memo = spec._memo
    get = memo.get
    for order in orders:
        for x, k, gather, qi, pi, line, layout in order:
            if line:
                shift = vals[qi]
                f, b = line
                key = (k, gather(vals), vals[f] - shift, vals[b] - shift)
            else:
                shift = 0
                key = (k, gather(vals))
            hit = get(key)
            if hit is not None and hit[2] <= shift <= hit[3]:
                vals[qi] = hit[0] + shift
                vals[pi] = hit[1]
                continue
            quads, q, p, kin0 = _local_terms(spec, vals, layout, qi, pi)
            try:
                ham = restricted_hamiltonian(state, spec, x, k, _terms=(quads, q, sign * p, kin0))
                q2, p2 = mover(ham, q, sign * p)
            except IntHamError as exc:
                exc.field_site = (x, k)
                raise
            p2 *= sign
            vals[qi] = q2
            if ham._closure_level is not None:
                (qlo, qhi), pot = spec.phi_windows[k], ham.potential
                lo, hi = pot.lo, pot.lo + len(pot.values) - 1  # read without properties: a miss is hot
                memo[key] = (q2 - shift, p2, qlo - lo + 1 + shift, qhi - hi - 1 + shift)
                vals[pi] = -p2  # R of the stepped state at x, for the mirror's gather
                for u in layout[1]:
                    vals[u] = -vals[u]
                if line:
                    shift = q2
                    mirror = (k, gather(vals), vals[f] - shift, vals[b] - shift)
                else:
                    mirror = (k, gather(vals))
                for u in layout[1]:
                    vals[u] = -vals[u]
                memo[mirror] = (q - shift, -p, qlo - lo + 1 + shift, qhi - hi - 1 + shift)
                while len(memo) > _MEMO_CAP:
                    memo.popitem(last=False)
            vals[pi] = p2
    if inverse:
        vals[len(vals) // 2:] = [-v for v in vals[len(vals) // 2:]]


def step_parity(
    state: FieldState,
    spec: FieldHamiltonianSpec,
    parity: int,
    inverse: bool = False,
    site_order: Optional[Sequence[Site]] = None,
) -> FieldState:
    """Apply one checkerboard half-sweep to the given parity class, 0 or 1,
    or with ``inverse`` undo it: ``R``, the forward sub-updates in reverse,
    ``R``, through the one memo (see :func:`_sweep`)."""
    (parity,) = index_tuple((parity,), "parity")
    if parity not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {parity}")
    vals, (entries, orders, *_) = _flat(state, spec, inverse), _plan(spec)
    order = orders[parity]
    if site_order is not None:  # the class's records per site, replayed in the order given
        given = [spec.shape.site(x) for x in site_order]
        if sorted(given) != [sub[0] for sub in order[::spec.components]]:
            raise ValueError("site_order must enumerate the parity class exactly")
        index = spec.shape.numbering()[1]
        order = [sub for x in given for sub in entries[index[x]][2]]
    _sweep(state, vals, spec, (order[::-1] if inverse else order,), inverse)
    return _unflat(spec, vals, state.time)


def step(state: FieldState, spec: FieldHamiltonianSpec) -> FieldState:
    """One full time step: even class, then odd class, components ascending.

    Every value must lie inside its component's windows, else
    ``WindowExceeded`` is raised before the first sub-update; a value that
    gets stepped also needs one unit of room inside each window (see
    :class:`FieldHamiltonianSpec`).
    """
    vals = _flat(state, spec)
    _sweep(state, vals, spec, _plan(spec)[1], False)
    return _unflat(spec, vals, state.time + 1)


def step_inverse(state: FieldState, spec: FieldHamiltonianSpec) -> FieldState:
    """Undo one full step: ``R``, the step's sub-updates in reverse (odd class
    first, components descending), ``R``, through the one memo."""
    vals = _flat(state, spec, True)
    _sweep(state, vals, spec, [o[::-1] for o in reversed(_plan(spec)[1])], True)
    return _unflat(spec, vals, state.time - 1)


def diff_sites(a: FieldState, b: FieldState) -> set[Site]:
    """Lattice sites where any component of field or momentum differs; states
    of different shapes raise ``ValueError`` instead of broadcasting."""
    if a.phi.shape != b.phi.shape:
        raise ValueError(f"cannot compare states of shapes {a.phi.shape} and {b.phi.shape}")
    changed = np.any((a.phi != b.phi) | (a.mom != b.mom), axis=0)
    return {tuple(int(i) for i in idx) for idx in np.argwhere(changed)}


def spread_radius(shape: LatticeShape, origin: Site, sites: Iterable[Site]) -> int:
    """Largest periodic L1 distance from origin over the given sites."""
    origin = shape.site(origin)
    return max((shape.l1_distance(origin, x) for x in sites), default=0)


def diagonal_radius(shape: LatticeShape, origin: Site, sites: Iterable[Site]) -> int:
    """Largest periodic distance of ``sum(x)`` from ``sum(origin)`` over the
    given sites: the light-cone radius, which grows by at most one per half
    sweep.  ``sum(x)`` is defined modulo the gcd of the side lengths; in one
    dimension this is the L1 distance.  Every site, the origin included, is
    read by :meth:`LatticeShape.site`."""
    period = math.gcd(*shape.sizes)
    u0, *sums = (sum(shape.site(x)) for x in (origin, *sites))
    return max((min((u - u0) % period, (u0 - u) % period) for u in sums), default=0)


# -- two-layer contrast automaton -------------------------------------------


class MargolusFieldState:
    """Two consecutive field layers; the update needs no momenta."""

    __slots__ = ("older", "newer", "time")

    def __init__(self, older, newer, time: int = 0):
        # object dtype keeps exact Python ints: the update grows field
        # values exponentially and would overflow a fixed-width array.
        older, newer = _layer(older, "older", object), _layer(newer, "newer", object)
        if older.shape != newer.shape:
            raise ValueError("layers must share a shape")
        self.older = older
        self.newer = newer
        self.time = index_tuple((time,), "time")[0]


def laplacian_rule(phi: np.ndarray) -> np.ndarray:
    """The automaton's neighbourhood rule: discrete Laplacian over the spatial axes."""
    out = np.zeros_like(phi)
    for axis in range(1, phi.ndim):
        out += np.roll(phi, 1, axis=axis) + np.roll(phi, -1, axis=axis)
    out -= 2 * (phi.ndim - 1) * phi
    return out


def margolus_step(state: MargolusFieldState) -> MargolusFieldState:
    """Second-order update: next layer = layer before last + Laplacian(last)."""
    advanced = state.older + laplacian_rule(state.newer)
    return MargolusFieldState(state.newer, advanced, state.time + 1)


def margolus_unstep(state: MargolusFieldState) -> MargolusFieldState:
    """Exact inverse of :func:`margolus_step` by integer subtraction."""
    previous = state.newer - laplacian_rule(state.older)
    return MargolusFieldState(previous, state.older, state.time - 1)


def margolus_energy(state: MargolusFieldState, spec: FieldHamiltonianSpec) -> int:
    """Field energy of the leading layer, reading the layer difference as
    momentum.  Conserved by the contour automaton, not by this one."""
    _check_shape(state.newer, spec, "layer")
    phi = state.newer.ravel().tolist()
    mom = (state.newer - state.older).ravel().tolist()
    return _energy(spec, phi, mom, range(len(phi) // spec.components))


def margolus_states_equal(a: MargolusFieldState, b: MargolusFieldState) -> bool:
    return (
        np.array_equal(a.older, b.older)
        and np.array_equal(a.newer, b.newer)
        and a.time == b.time
    )


# -- JSON snapshots ----------------------------------------------------------


_SPEC_KEYS = {"sizes", "components", "masses", "stiffness", "phi_window", "p_window"}


def spec_from_json(obj: dict) -> FieldHamiltonianSpec:
    """Build a spec from a JSON object.

    Expected keys: "sizes" (a lattice whose plan stays within
    ``MAX_PLAN_POSITIONS``); optional "components" (default 1, at most
    ``MAX_COMPONENTS``), "masses" (list, default zeros), "stiffness" (default
    1/dimensions), "phi_window" and "p_window" (shared [lo, hi] pairs with
    lo <= hi, default [-64, 64]).
    Rationals may be written as numbers or strings like "1/2".  Any other key,
    and any value the spec rejects, is a :class:`ConfigError`.
    """
    only_keys(obj, _SPEC_KEYS, "field spec")
    try:
        shape = LatticeShape(tuple(integers(read_key(obj, "sizes", kind=list), "sizes")))
        components = read_key(obj, "components", 1, int)
        if components > MAX_COMPONENTS:
            raise ConfigError(f"field spec 'components' {components} exceeds the cap {MAX_COMPONENTS}")
        d = shape.dimensions
        positions = components * components * (1 + d + d * d)
        for side in shape.sizes:  # every side is at least 2, so this exits early
            positions *= side
            if positions > MAX_PLAN_POSITIONS:
                raise ConfigError(
                    f"field spec 'sizes' need a sweep plan past the cap MAX_PLAN_POSITIONS = {MAX_PLAN_POSITIONS} "
                    f"at 'components' = {components}"
                )
        # one entry past ``components`` is all the spec needs to reject the count
        masses = tuple(fraction_from_json(m) for m in read_key(obj, "masses", [0] * components, list)[: components + 1])
        stiffness = obj.get("stiffness")
        return FieldHamiltonianSpec(
            shape, components, masses, None if stiffness is None else fraction_from_json(stiffness),
            *((read_window(obj, key, list(DEFAULT_WINDOW)),) * components for key in ("phi_window", "p_window")),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def state_to_json(state: FieldState) -> dict:
    return {
        "phi": state.phi.tolist(),
        "mom": state.mom.tolist(),
        "time": state.time,
    }


def state_from_json(obj: dict) -> FieldState:
    layers = [integers(read_key(obj, key), key, nested=True) for key in ("phi", "mom")]
    try:
        return FieldState(*layers, read_key(obj, "time", 0, int))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def layers_from_json(obj: dict) -> MargolusFieldState:
    """The two-layer state of ``{"older": ..., "newer": ...}``; a rejected layer is a ConfigError."""
    layers = [integers(read_key(obj, key), key, nested=True) for key in ("older", "newer")]
    try:
        return MargolusFieldState(*layers)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
