"""Sequential single-pair updates for coupled integer Hamiltonians.

A state with n pairs is advanced by updating pair 1, then pair 2 with pair 1
already moved, and so on; the full Hamiltonian is exactly conserved because
each sub-update conserves the restricted Hamiltonian of its own pair with
every other variable frozen.  Sub-updates generally do not commute, so the
order is part of the model; the inverse applies the reversed order with
backward contour steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Sequence

from .contours import next_site, prev_site
from .errors import IntHamError
from .hamiltonians import IntegerFunction1D, SeparableHamiltonian1D, check_product_term, index_tuple, index_windows


@dataclass(frozen=True)
class PhaseState:
    """Immutable snapshot of n position/momentum pairs at integer time."""

    positions: tuple[int, ...]
    momenta: tuple[int, ...]
    time: int = 0

    def __post_init__(self):
        if len(self.positions) != len(self.momenta):
            raise ValueError("positions and momenta must have equal length")
        object.__setattr__(self, "positions", index_tuple(self.positions, "positions"))
        object.__setattr__(self, "momenta", index_tuple(self.momenta, "momenta"))
        object.__setattr__(self, "time", index_tuple((self.time,), "time")[0])

    @property
    def pairs(self) -> int:
        return len(self.positions)


class RestrictedHamiltonianProvider(Protocol):
    """Anything that can freeze all pairs but one into a 1-pair Hamiltonian."""

    pairs: int

    def restricted(self, state: PhaseState, index: int) -> SeparableHamiltonian1D: ...

    def total_energy(self, state: PhaseState) -> int: ...


VectorFn = Callable[[tuple[int, ...]], int]


@dataclass(frozen=True)
class CoupledSeparableHamiltonian:
    """``H = kinetic(P_vec) + potential(Q_vec) + coupling_pos(Q_vec)*coupling_mom(P_vec)``
    with integer-valued callables of the full coordinate vectors.

    Freezing every pair but ``i`` keeps the same separable shape in the
    remaining pair, so restriction is table construction over its window.
    The callables must be pure: exact conservation and :func:`step_inverse`
    assume that one vector always gives the same value.
    """

    pairs: int
    kinetic: VectorFn
    potential: VectorFn
    q_windows: tuple[tuple[int, int], ...]
    p_windows: tuple[tuple[int, int], ...]
    coupling_pos: Optional[VectorFn] = None
    coupling_mom: Optional[VectorFn] = None

    def __post_init__(self):
        check_product_term(self.coupling_pos, self.coupling_mom)
        try:
            mismatch = len(self.q_windows) != self.pairs or len(self.p_windows) != self.pairs
        except TypeError:  # a window list with no length
            mismatch = True
        if mismatch:
            raise ValueError("need one window pair per degree of freedom")

    def total_energy(self, state: PhaseState) -> int:
        h = self.kinetic(state.momenta) + self.potential(state.positions)
        if self.coupling_pos is not None:
            h += self.coupling_pos(state.positions) * self.coupling_mom(state.momenta)
        return h

    def restricted(self, state: PhaseState, index: int) -> SeparableHamiltonian1D:
        """The tables of pair ``index`` with every other pair frozen.  The
        first call reads ``pairs`` by :func:`index_tuple` and every window by
        :func:`index_windows` (which names the pair of a bad one) and keeps
        them; building a system stays cheap."""
        try:
            pairs, q_windows, p_windows = self._read
        except AttributeError:
            pairs = index_tuple((self.pairs,), "pairs")[0]
            q_windows, p_windows = (index_windows(getattr(self, n), n, "pair") for n in ("q_windows", "p_windows"))
            object.__setattr__(self, "_read", (pairs, q_windows, p_windows))
        qwin, pwin = q_windows[index], p_windows[index]
        index %= pairs  # a negative index counts from the end, as for the windows

        def table(name: str, vec: tuple[int, ...], window) -> IntegerFunction1D:
            """The callable ``name`` along coordinate ``index`` of ``vec``,
            tabulated over ``window``; a bad value names the callable and pair."""
            fn, head, tail = getattr(self, name), vec[:index], vec[index + 1 :]
            lo, hi = window
            try:
                return IntegerFunction1D(lo, tuple(fn(head + (v,) + tail) for v in range(lo, hi + 1)))
            except ValueError as exc:
                raise ValueError(f"{name} restricted to pair {index}: {exc}") from None

        qs, ps = state.positions, state.momenta
        potential = table("potential", qs, qwin)
        kinetic = table("kinetic", ps, pwin)
        coupling_pos = coupling_mom = None
        if self.coupling_pos is not None:
            coupling_pos = table("coupling_pos", qs, qwin)
            coupling_mom = table("coupling_mom", ps, pwin)
        return SeparableHamiltonian1D(kinetic, potential, coupling_pos, coupling_mom)


@dataclass(frozen=True)
class IndependentPairs:
    """Pairs that do not interact: the total Hamiltonian is a plain sum.

    Each pair may carry its own position-momentum product term.  Restriction
    to one pair is the pair's own Hamiltonian (the other pairs contribute a
    constant, which contour stepping never sees), so no tables are rebuilt.
    """

    hams: tuple[SeparableHamiltonian1D, ...]

    def __post_init__(self):
        object.__setattr__(self, "hams", tuple(self.hams))
        if not self.hams:
            raise ValueError("need at least one pair")

    @property
    def pairs(self) -> int:
        return len(self.hams)

    def total_energy(self, state: PhaseState) -> int:
        return sum(
            h.value(q, p)
            for h, q, p in zip(self.hams, state.positions, state.momenta)
        )

    def restricted(self, state: PhaseState, index: int) -> SeparableHamiltonian1D:
        return self.hams[index]


def decoupled(hams: Sequence[SeparableHamiltonian1D]) -> IndependentPairs:
    """Wrap independent single-pair Hamiltonians for sequential evolution."""
    return IndependentPairs(tuple(hams))


def _resolve_order(state: PhaseState, order) -> tuple[int, ...]:
    """The update order: ascending by default, else a permutation of the pairs."""
    if order is None:
        return tuple(range(state.pairs))
    order = index_tuple(order, "order")
    if sorted(order) != list(range(state.pairs)):
        raise ValueError(f"{order} is not a permutation of the pair indices")
    return order


def _sweep(
    state: PhaseState, system: RestrictedHamiltonianProvider, order, inverse: bool
) -> PhaseState:
    """One sub-update per pair: forward steps in ``order``, or backward steps
    in reverse order.  The site steppers are looked up at call time, so a
    rebound ``next_site``/``prev_site`` takes effect."""
    if state.pairs != system.pairs:
        raise ValueError(f"state has {state.pairs} pairs but the system has {system.pairs}")
    order = _resolve_order(state, order)
    move = prev_site if inverse else next_site
    positions = list(state.positions)
    momenta = list(state.momenta)
    for i in reversed(order) if inverse else order:
        current = PhaseState(tuple(positions), tuple(momenta), state.time)
        ham = system.restricted(current, i)
        try:
            positions[i], momenta[i] = move(ham, positions[i], momenta[i])
        except IntHamError as exc:
            exc.pair_index = i
            raise
    return PhaseState(tuple(positions), tuple(momenta), state.time + (-1 if inverse else 1))


def step(
    state: PhaseState,
    system: RestrictedHamiltonianProvider,
    order=None,
) -> PhaseState:
    """Advance one time step: sub-update each pair in ascending order."""
    return _sweep(state, system, order, False)


def step_inverse(
    state: PhaseState,
    system: RestrictedHamiltonianProvider,
    order=None,
) -> PhaseState:
    """Undo one time step: backward sub-updates in descending order."""
    return _sweep(state, system, order, True)


def total_energy(state: PhaseState, system: RestrictedHamiltonianProvider) -> int:
    return system.total_energy(state)
