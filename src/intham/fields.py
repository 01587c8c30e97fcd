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

A two-layer second-order automaton (field value plus previous field value)
is included as a contrast: exactly reversible for any integer update rule,
but with no conserved energy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .contours import next_site, prev_site
from .errors import IntHamError
from .hamiltonians import IntegerFunction1D, SeparableHamiltonian1D

Site = tuple[int, ...]

#: Entries a spec's local-rule memo (see :func:`_sweep`) holds, dropping the
#: oldest at the cap; bounds the memory of long runs over rarely repeating states.
_MEMO_CAP = 4096


@dataclass(frozen=True)
class LatticeShape:
    """Periodic box with even side lengths (so the two parity classes tile)."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(s) for s in self.sizes))
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

    def parity(self, x: Site) -> int:
        return sum(x) % 2

    def shift(self, x: Site, axis: int, delta: int) -> Site:
        out = list(x)
        out[axis] = (out[axis] + delta) % self.sizes[axis]
        return tuple(out)

    def l1_distance(self, a: Site, b: Site) -> int:
        total = 0
        for ai, bi, s in zip(a, b, self.sizes):
            d = abs(ai - bi)
            total += min(d, s - d)
        return total


@dataclass(frozen=True)
class FieldHamiltonianSpec:
    """Couplings and windows of the field Hamiltonian.

    ``stiffness`` is the overall prefactor of both energy terms and must not
    exceed ``1/dimensions``, which keeps every restricted single-pair
    potential steep enough for the checkerboard sweep to stay local.
    """

    shape: LatticeShape
    components: int
    masses: tuple[Fraction, ...]
    stiffness: Fraction
    phi_windows: tuple[tuple[int, int], ...]
    p_windows: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "masses", tuple(Fraction(m) for m in self.masses))
        object.__setattr__(self, "stiffness", Fraction(self.stiffness))
        if self.components < 1 or len(self.masses) != self.components:
            raise ValueError("need one mass per component")
        if any(m < 0 for m in self.masses):
            raise ValueError("masses must be nonnegative")
        if not (0 < self.stiffness <= Fraction(1, self.shape.dimensions)):
            raise ValueError(
                f"stiffness must lie in (0, 1/{self.shape.dimensions}]"
            )
        object.__setattr__(
            self, "phi_windows", tuple((int(a), int(b)) for a, b in self.phi_windows)
        )
        object.__setattr__(
            self, "p_windows", tuple((int(a), int(b)) for a, b in self.p_windows)
        )
        if len(self.phi_windows) != self.components or len(self.p_windows) != self.components:
            raise ValueError("need one field and one momentum window per component")
        # Integer form of the two floors: with stiffness sn/sd and squared
        # masses brought over the common denominator md, the potential floor
        # is (sn * (md*gradsum + mass_num)) // (2*sd*md) in exact integers.
        m2 = [m * m for m in self.masses]
        md = math.lcm(*(f.denominator for f in m2)) if m2 else 1
        object.__setattr__(self, "_mass_den", md)
        object.__setattr__(
            self,
            "_mass_num",
            tuple(f.numerator * (md // f.denominator) for f in m2),
        )
        object.__setattr__(
            self,
            "_pot_den",
            2 * self.stiffness.denominator * md,
        )
        object.__setattr__(self, "_kin_den", 2 * self.stiffness.denominator)
        # Local-rule memo of the sweep; not a field, so equality, hashing
        # and repr ignore it.
        object.__setattr__(self, "_memo", {})

    @classmethod
    def uniform(
        cls,
        shape: LatticeShape,
        components: int = 1,
        mass: Fraction = Fraction(0),
        stiffness: Fraction = Fraction(1),
        phi_window: tuple[int, int] = (-16, 16),
        p_window: tuple[int, int] = (-16, 16),
    ) -> "FieldHamiltonianSpec":
        return cls(
            shape,
            components,
            (Fraction(mass),) * components,
            Fraction(stiffness),
            (phi_window,) * components,
            (p_window,) * components,
        )


class FieldState:
    """Integer field/momentum arrays of shape (components, *sizes).

    Treated as an immutable value: the arrays are copied in and marked
    read-only, and every evolution function returns a fresh state.
    """

    __slots__ = ("phi", "mom", "time")

    def __init__(self, phi, mom, time: int = 0):
        phi = np.array(phi, dtype=np.int64)
        mom = np.array(mom, dtype=np.int64)
        if phi.shape != mom.shape:
            raise ValueError("field and momentum arrays must share a shape")
        if phi.ndim < 2:
            raise ValueError("arrays must be (components, *sizes)")
        phi.setflags(write=False)
        mom.setflags(write=False)
        self.phi = phi
        self.mom = mom
        self.time = int(time)

    @property
    def components(self) -> int:
        return self.phi.shape[0]

    def __repr__(self):
        return f"FieldState(t={self.time}, shape={self.phi.shape})"


def states_equal(a: FieldState, b: FieldState, include_time: bool = True) -> bool:
    same = np.array_equal(a.phi, b.phi) and np.array_equal(a.mom, b.mom)
    return same and (a.time == b.time or not include_time)


def _check_state(state: FieldState, spec: FieldHamiltonianSpec):
    expected = (spec.components, *spec.shape.sizes)
    if state.phi.shape != expected:
        raise ValueError(f"state shape {state.phi.shape} != spec shape {expected}")


def _pot_floor(spec: FieldHamiltonianSpec, phi, x: Site) -> int:
    """Floored potential density at x, computed in exact integers."""
    shape = spec.shape
    grads = 0
    mass = 0
    for k in range(spec.components):
        center = int(phi[(k, *x)])
        for axis in range(shape.dimensions):
            nb = int(phi[(k, *shape.shift(x, axis, 1))])
            grads += (nb - center) ** 2
        if spec._mass_num[k]:
            mass += spec._mass_num[k] * center * center
    sn = spec.stiffness.numerator
    return sn * (spec._mass_den * grads + mass) // spec._pot_den


def _kin_floor(spec: FieldHamiltonianSpec, squares: int) -> int:
    return spec.stiffness.numerator * squares // spec._kin_den


def _kinetic_sum(mom, spec: FieldHamiltonianSpec, x: Site) -> int:
    return sum(int(mom[(k, *x)]) ** 2 for k in range(spec.components))


def site_energy(state: FieldState, spec: FieldHamiltonianSpec, x: Site) -> int:
    """Energy density at x: separately floored potential and kinetic terms."""
    _check_state(state, spec)
    pot = _pot_floor(spec, state.phi, x)
    kin = _kin_floor(spec, _kinetic_sum(state.mom, spec, x))
    return pot + kin


def _energy_from_arrays(spec: FieldHamiltonianSpec, phi, mom) -> int:
    total = 0
    for x in spec.shape.sites():
        total += _pot_floor(spec, phi, x) + _kin_floor(
            spec, _kinetic_sum(mom, spec, x)
        )
    return total


def total_energy(state: FieldState, spec: FieldHamiltonianSpec) -> int:
    _check_state(state, spec)
    return _energy_from_arrays(spec, state.phi, state.mom)


def momentum_bound(energy: int, stiffness: Fraction) -> int:
    """Smallest window half-width no reachable momentum can exceed:
    ``ceil(sqrt(2*(energy + 1)/stiffness))``, the least ``b`` with
    ``b**2 * sn >= 2*(energy + 1) * sd`` for ``stiffness = sn/sd``."""
    sn, sd = stiffness.as_integer_ratio()
    target = 2 * (energy + 1) * sd
    b = math.isqrt(target // sn)  # floor(sqrt(target / sn))
    return b if b * b * sn >= target else b + 1


def _local_terms(spec: FieldHamiltonianSpec, phi, mom, x: Site, k: int) -> tuple:
    """Everything the restriction of the pair (phi_k(x), mom_k(x)) reads.

    Returns ``(frozen_parts, center_lists, q, p, others)``.  Per involved
    density (this site's, then each backward neighbor's) the floor argument
    splits into a frozen part and ``(value - c)^2`` gradient terms, one per
    frozen center ``c``; ``q`` and ``p`` are the pair's own values and
    ``others`` the other components' squared momenta at x.
    """
    shape = spec.shape
    md = spec._mass_den
    frozen_parts: list[int] = []
    center_lists: list[list[int]] = []

    centers = []
    grads = 0
    mass = 0
    for j in range(spec.components):
        cj = int(phi[(j, *x)])
        for axis in range(shape.dimensions):
            nb = int(phi[(j, *shape.shift(x, axis, 1))])
            if j == k:
                centers.append(nb)
            else:
                grads += (nb - cj) ** 2
        if j != k and spec._mass_num[j]:
            mass += spec._mass_num[j] * cj * cj
    frozen_parts.append(md * grads + mass)
    center_lists.append(centers)

    for axis in range(shape.dimensions):
        w = shape.shift(x, axis, -1)
        centers = []
        grads = 0
        mass = 0
        for j in range(spec.components):
            cj = int(phi[(j, *w)])
            for b in range(shape.dimensions):
                nb = int(phi[(j, *shape.shift(w, b, 1))])
                if j == k and b == axis:
                    centers.append(cj)
                else:
                    grads += (nb - cj) ** 2
            if spec._mass_num[j]:
                mass += spec._mass_num[j] * cj * cj
        frozen_parts.append(md * grads + mass)
        center_lists.append(centers)

    q = int(phi[(k, *x)])
    p = int(mom[(k, *x)])
    others = _kinetic_sum(mom, spec, x) - p * p
    return frozen_parts, center_lists, q, p, others


def restricted_hamiltonian(
    state: FieldState,
    spec: FieldHamiltonianSpec,
    x: Site,
    k: int,
    *,
    _terms: Optional[tuple] = None,
    _reach: Optional[list] = None,
) -> SeparableHamiltonian1D:
    """Freeze everything except the pair (phi_k(x), mom_k(x)).

    The potential table collects the floored potential terms of this site and
    of each backward neighbor (the densities whose gradients straddle x); the
    kinetic table is this site's floored momentum term.  Their sum plus the
    untouched remainder reproduces the total energy exactly.  ``_terms`` is
    the pair's :func:`_local_terms`, when the caller already has them; the
    level's :func:`momentum_bound` is appended to ``_reach`` when given.
    """
    _check_state(state, spec)
    if _terms is None:
        _terms = _local_terms(spec, state.phi, state.mom, x, k)
    frozen_parts, center_lists, q_cur, p_cur, others = _terms
    qlo, qhi = spec.phi_windows[k]
    plo, phi_hi = spec.p_windows[k]
    md = spec._mass_den
    sn = spec.stiffness.numerator
    pden = spec._pot_den
    mnum_k = spec._mass_num[k]

    def pot_at(value: int) -> int:
        acc = 0
        own_mass = mnum_k * value * value
        first = True
        for frozen, cents in zip(frozen_parts, center_lists):
            arg = frozen
            for c in cents:
                arg += md * (value - c) ** 2
            if first:
                arg += own_mass
                first = False
            acc += sn * arg // pden
        return acc

    level = pot_at(q_cur) + _kin_floor(spec, others + p_cur * p_cur)

    # A field value whose squared distance from every frozen neighbor already
    # floors above the current level is unreachable on this contour (each
    # gradient term alone contributes at least that floor), and likewise for
    # momenta around zero.  Clamping both tables to that band keeps the cost
    # of a sub-update proportional to the local energy rather than to the
    # window size, and leaves the windows free to be generous.
    reach = momentum_bound(level, spec.stiffness)
    if _reach is not None:
        _reach.append(reach)
    cents = [c for lst in center_lists for c in lst]
    band_lo = max(qlo, min(min(cents), q_cur) - reach)
    band_hi = min(qhi, max(max(cents), q_cur) + reach)
    pot_values = [pot_at(v) for v in range(band_lo, band_hi + 1)]

    p_span = max(reach, abs(p_cur) + 1)
    p_lo = max(plo, -p_span)
    p_hi = min(phi_hi, p_span)
    kin_values = [
        _kin_floor(spec, others + p * p) for p in range(p_lo, p_hi + 1)
    ]

    return SeparableHamiltonian1D(
        IntegerFunction1D(p_lo, tuple(kin_values)),
        IntegerFunction1D(band_lo, tuple(pot_values)),
    )


def _band_clear(spec: FieldHamiltonianSpec, k: int, cents, q: int, p: int, reach: int) -> bool:
    """Whether neither window clamps the tables :func:`restricted_hamiltonian`
    builds for this pair, given the ``reach`` of its level."""
    qlo, qhi = spec.phi_windows[k]
    plo, phi_hi = spec.p_windows[k]
    p_span = max(reach, abs(p) + 1)
    return (
        qlo <= min(min(cents), q) - reach
        and max(max(cents), q) + reach <= qhi
        and plo <= -p_span
        and p_span <= phi_hi
    )


def _sweep(
    state_phi, state_mom, spec, parity, inverse: bool, site_order=None
):
    shape = spec.shape
    sites = [x for x in shape.sites() if shape.parity(x) == parity]
    if site_order is not None:
        site_order = [tuple(x) for x in site_order]
        if sorted(site_order) != sorted(sites):
            raise ValueError("site_order must enumerate the parity class exactly")
        sites = site_order
    component_list = list(range(spec.components))
    if inverse:
        # Exact inversion replays every sub-update in reverse, including the
        # site order.  In one dimension each density couples one even and one
        # odd site, so same-class updates commute and the order is moot; in
        # higher dimensions the shared floors can couple diagonal neighbors
        # of equal parity, and only the reversed order is guaranteed exact.
        sites = sites[::-1]
        component_list.reverse()
    mover = prev_site if inverse else next_site

    work = FieldState.__new__(FieldState)  # light view for restricted()
    work.phi = state_phi
    work.mom = state_mom
    work.time = 0

    # The local rule is memoized on the spec.  While neither window clamps
    # the band, the tables are a function of the key alone; a massless
    # component's potential depends only on differences of phi_k, so its key
    # and its stored image are taken relative to the site's own value, and
    # a repeat anywhere in phi walks an exact translate of the same tables.
    memo = spec._memo
    for x in sites:
        for k in component_list:
            terms = _local_terms(spec, state_phi, state_mom, x, k)
            frozen_parts, center_lists, q, p, others = terms
            cents = [c for lst in center_lists for c in lst]
            shift = 0 if spec._mass_num[k] else q
            key = (
                inverse, k, *frozen_parts, *(c - shift for c in cents),
                q - shift, p, others,
            )
            hit = memo.get(key)
            if hit is not None and _band_clear(spec, k, cents, q, p, hit[2]):
                q2, p2 = hit[0] + shift, hit[1]
            else:
                reach: list = []
                ham = restricted_hamiltonian(work, spec, x, k, _terms=terms, _reach=reach)
                try:
                    q2, p2 = mover(ham, q, p)
                except IntHamError as exc:
                    exc.field_site = (x, k)
                    raise
                if _band_clear(spec, k, cents, q, p, reach[0]):
                    if len(memo) >= _MEMO_CAP:
                        del memo[next(iter(memo))]
                    memo[key] = (q2 - shift, p2, reach[0])
            state_phi[(k, *x)] = q2
            state_mom[(k, *x)] = p2


def step_parity(
    state: FieldState,
    spec: FieldHamiltonianSpec,
    parity: int,
    inverse: bool = False,
    site_order: Optional[Sequence[Site]] = None,
) -> FieldState:
    """Apply one checkerboard half-sweep to the given parity class."""
    _check_state(state, spec)
    phi = np.array(state.phi, dtype=np.int64)
    mom = np.array(state.mom, dtype=np.int64)
    _sweep(phi, mom, spec, parity, inverse, site_order)
    return FieldState(phi, mom, state.time)


def step(state: FieldState, spec: FieldHamiltonianSpec) -> FieldState:
    """One full time step: even class, then odd class, components ascending."""
    _check_state(state, spec)
    phi = np.array(state.phi, dtype=np.int64)
    mom = np.array(state.mom, dtype=np.int64)
    _sweep(phi, mom, spec, 0, False)
    _sweep(phi, mom, spec, 1, False)
    return FieldState(phi, mom, state.time + 1)


def step_inverse(state: FieldState, spec: FieldHamiltonianSpec) -> FieldState:
    """Undo one full step: odd class, then even class, components descending."""
    _check_state(state, spec)
    phi = np.array(state.phi, dtype=np.int64)
    mom = np.array(state.mom, dtype=np.int64)
    _sweep(phi, mom, spec, 1, True)
    _sweep(phi, mom, spec, 0, True)
    return FieldState(phi, mom, state.time - 1)


def diff_sites(a: FieldState, b: FieldState) -> set[Site]:
    """Lattice sites where any component of field or momentum differs."""
    changed = np.any((a.phi != b.phi) | (a.mom != b.mom), axis=0)
    return {tuple(int(i) for i in idx) for idx in np.argwhere(changed)}


def spread_radius(shape: LatticeShape, origin: Site, sites: Iterable[Site]) -> int:
    """Largest periodic L1 distance from origin over the given sites."""
    return max((shape.l1_distance(origin, x) for x in sites), default=0)


def diagonal_radius(shape: LatticeShape, origin: Site, sites: Iterable[Site]) -> int:
    """Largest periodic distance of ``sum(x)`` from ``sum(origin)`` over the
    given sites: the light-cone radius, which grows by at most one per half
    sweep.  ``sum(x)`` is defined modulo the gcd of the side lengths; in one
    dimension this is the L1 distance."""
    period = math.gcd(*shape.sizes)
    u0 = sum(origin)
    return max(
        (min((sum(x) - u0) % period, (u0 - sum(x)) % period) for x in sites),
        default=0,
    )


# -- two-layer contrast automaton -------------------------------------------


NeighborhoodRule = Callable[[np.ndarray], np.ndarray]


class MargolusFieldState:
    """Two consecutive field layers; the update needs no momenta."""

    __slots__ = ("older", "newer", "time")

    def __init__(self, older, newer, time: int = 0):
        # object dtype keeps exact Python ints: unstable rules grow field
        # values exponentially and would overflow a fixed-width array.
        older = np.array(np.asarray(older).tolist(), dtype=object)
        newer = np.array(np.asarray(newer).tolist(), dtype=object)
        if older.shape != newer.shape:
            raise ValueError("layers must share a shape")
        older.setflags(write=False)
        newer.setflags(write=False)
        self.older = older
        self.newer = newer
        self.time = int(time)


def laplacian_rule(phi: np.ndarray) -> np.ndarray:
    """Default neighborhood rule: discrete Laplacian over the spatial axes."""
    out = np.zeros_like(phi)
    for axis in range(1, phi.ndim):
        out += np.roll(phi, 1, axis=axis) + np.roll(phi, -1, axis=axis)
    out -= 2 * (phi.ndim - 1) * phi
    return out


def margolus_step(
    state: MargolusFieldState, rule: NeighborhoodRule = laplacian_rule
) -> MargolusFieldState:
    """Second-order update: next layer = layer before last + rule(last)."""
    advanced = state.older + rule(state.newer)
    return MargolusFieldState(state.newer, advanced, state.time + 1)


def margolus_unstep(
    state: MargolusFieldState, rule: NeighborhoodRule = laplacian_rule
) -> MargolusFieldState:
    """Exact inverse of :func:`margolus_step` by integer subtraction."""
    previous = state.newer - rule(state.older)
    return MargolusFieldState(previous, state.older, state.time - 1)


def margolus_energy(state: MargolusFieldState, spec: FieldHamiltonianSpec) -> int:
    """Field energy of the leading layer, reading the layer difference as
    momentum.  Conserved by the contour automaton, not by this one."""
    expected = (spec.components, *spec.shape.sizes)
    if state.newer.shape != expected:
        raise ValueError(f"layer shape {state.newer.shape} != spec shape {expected}")
    return _energy_from_arrays(spec, state.newer, state.newer - state.older)


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

    Expected keys: "sizes"; optional "components" (default 1), "masses"
    (list, default zeros), "stiffness" (default 1/dimensions), "phi_window"
    and "p_window" (shared [lo, hi] pairs, default [-64, 64]).  Rationals may
    be written as numbers or strings like "1/2".  Any other key is a
    :class:`ConfigError`.
    """
    from .errors import ConfigError
    from .hamiltonians import fraction_from_json

    unknown = set(obj) - _SPEC_KEYS
    if unknown:
        raise ConfigError(f"unknown field spec keys: {sorted(unknown)}")
    if "sizes" not in obj:
        raise ConfigError("field spec needs 'sizes'")
    shape = LatticeShape(tuple(obj["sizes"]))
    components = int(obj.get("components", 1))
    masses = obj.get("masses")
    if masses is None:
        masses = [0] * components
    masses = tuple(fraction_from_json(m) for m in masses)
    raw_stiffness = obj.get("stiffness")
    if raw_stiffness is None:
        stiffness = Fraction(1, shape.dimensions)
    else:
        stiffness = fraction_from_json(raw_stiffness)
    phi_window = tuple(obj.get("phi_window", (-64, 64)))
    p_window = tuple(obj.get("p_window", (-64, 64)))
    return FieldHamiltonianSpec(
        shape,
        components,
        masses,
        stiffness,
        (phi_window,) * components,
        (p_window,) * components,
    )


def state_to_json(state: FieldState) -> dict:
    return {
        "phi": state.phi.tolist(),
        "mom": state.mom.tolist(),
        "time": state.time,
    }


def state_from_json(obj: dict) -> FieldState:
    return FieldState(obj["phi"], obj["mom"], int(obj.get("time", 0)))
