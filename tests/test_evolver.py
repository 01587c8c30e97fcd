"""Sequential multi-pair evolution: ordering, conservation, exact undo."""

import itertools
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intham.errors import UnboundedContour
from intham.evolver import (
    CoupledSeparableHamiltonian,
    IndependentPairs,
    PhaseState,
    _resolve_order,
    decoupled,
    step,
    step_inverse,
    total_energy,
)
from intham.hamiltonians import IntegerFunction1D, SeparableHamiltonian1D

W = 6
absolute = IntegerFunction1D.from_callable(abs, -W, W)
identity = IntegerFunction1D.from_callable(lambda x: x, -W, W)
zero = IntegerFunction1D.zero(-W, W)
diamond = SeparableHamiltonian1D(absolute, absolute)
hyperbolic = SeparableHamiltonian1D(zero, zero, coupling_pos=identity, coupling_mom=identity)


def chain_system(window=20):
    """Two pairs coupled through a nearest-neighbour |q0 - q1| spring.

    The window must exceed the total energy: a contour can park all of it in
    one momentum coordinate.
    """
    return CoupledSeparableHamiltonian(
        pairs=2,
        kinetic=lambda ps: sum(abs(p) for p in ps),
        potential=lambda qs: abs(qs[0]) + abs(qs[1]) + abs(qs[0] - qs[1]),
        q_windows=((-window, window),) * 2,
        p_windows=((-window, window),) * 2,
    )


def product_system(window=30):
    """Three chained pairs plus the product term ``(|q0 - q2| + 1)(|p0| + |p1|)``.

    Both factors are nonnegative, so every restricted contour closes; at
    energy 14 the run below stays within 8 of the origin.
    """
    return CoupledSeparableHamiltonian(
        pairs=3,
        kinetic=lambda ps: sum(abs(p) for p in ps),
        potential=lambda qs: sum(abs(q) for q in qs) + abs(qs[0] - qs[1]) + abs(qs[1] - qs[2]),
        q_windows=((-window, window),) * 3,
        p_windows=((-window, window),) * 3,
        coupling_pos=lambda qs: abs(qs[0] - qs[2]) + 1,
        coupling_mom=lambda ps: abs(ps[0]) + abs(ps[1]),
    )


class TestPhaseState:
    def test_pairs_and_coercion(self):
        state = PhaseState((1, 2), (3, 4))
        assert state.pairs == 2 and state.time == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PhaseState((1,), (2, 3))

    def test_non_integer_coordinates_rejected_not_truncated(self):
        with pytest.raises(ValueError, match="positions must be integers"):
            PhaseState((1.9,), (-1,))
        with pytest.raises(ValueError, match="momenta must be integers"):
            PhaseState((1,), (-0.5,))
        with pytest.raises(ValueError, match="momenta must be integers"):
            PhaseState((1,), (Fraction(2),))
        state = PhaseState((np.int64(2),), (np.int32(-3),))
        assert state == PhaseState((2,), (-3,))
        assert all(type(v) is int for v in state.positions + state.momenta)


class TestPairIndexOrder:
    def test_identity(self):
        assert _resolve_order(PhaseState((0,) * 3, (0,) * 3), None) == (0, 1, 2)

    def test_non_permutations_rejected(self):
        with pytest.raises(ValueError):
            _resolve_order(PhaseState((0,) * 3, (0,) * 3), (0, 0, 1))


class TestIndependentPairs:
    def test_restriction_is_the_pair_itself(self):
        system = decoupled([diamond, diamond])
        state = PhaseState((1, 0), (0, 1))
        assert system.restricted(state, 0) is diamond
        assert system.pairs == 2

    def test_step_updates_each_pair_independently(self):
        system = decoupled([diamond, diamond])
        state = step(PhaseState((1, 0), (0, 1)), system)
        assert state.positions == (0, 1)
        assert state.momenta == (-1, 0)
        assert state.time == 1

    def test_total_energy_sums_pairs(self):
        system = decoupled([diamond, diamond])
        assert total_energy(PhaseState((1, -2), (0, 3)), system) == 1 + 5

    def test_needs_at_least_one_pair(self):
        with pytest.raises(ValueError):
            IndependentPairs(())


class TestCoupledRestriction:
    def test_restricted_tables_freeze_the_other_pair(self):
        system = chain_system()
        state = PhaseState((-4, -4), (-4, -4))
        reduced = system.restricted(state, 0)
        # |q| + |-4| + |q + 4| with the partner pinned at -4
        assert reduced.potential(-4) == 8
        assert reduced.potential(0) == 8
        assert reduced.potential(3) == 14
        assert reduced.kinetic(-2) == 6

    def test_window_count_must_match_pairs(self):
        with pytest.raises(ValueError):
            CoupledSeparableHamiltonian(
                pairs=2,
                kinetic=lambda ps: 0,
                potential=lambda qs: 0,
                q_windows=((-1, 1),),
                p_windows=((-1, 1),) * 2,
            )


class TestUpdateOrder:
    """Sub-updates do not commute; the order is part of the dynamics."""

    def test_order_changes_the_outcome(self):
        system = chain_system()
        start = PhaseState((-4, -4), (-4, -4))
        assert total_energy(start, system) == 16
        first = step(start, system, order=(0, 1))
        second = step(start, system, order=(1, 0))
        assert first.positions == (-5, -5) and first.momenta == (-2, -4)
        assert second.positions == (-5, -5) and second.momenta == (-4, -2)
        assert total_energy(first, system) == 16
        assert total_energy(second, system) == 16

    def test_each_order_has_its_own_exact_inverse(self):
        system = chain_system()
        start = PhaseState((-4, -4), (-4, -4))
        for order in itertools.permutations(range(2)):
            forward = step(start, system, order=order)
            assert step_inverse(forward, system, order=order) == start

    def test_bad_order_rejected(self):
        system = chain_system()
        with pytest.raises(ValueError):
            step(PhaseState((0, 0), (0, 0)), system, order=(0, 2))


class TestConservationAndReversal:
    def test_long_coupled_run_conserves_energy(self):
        system = chain_system()
        state = PhaseState((-4, -4), (-4, -4))
        for _ in range(200):
            state = step(state, system)
            assert total_energy(state, system) == 16
        assert state.time == 200

    def test_long_run_reverses_exactly(self):
        system = chain_system()
        start = PhaseState((3, -2), (1, 4))
        state = start
        for _ in range(200):
            state = step(state, system)
        for _ in range(200):
            state = step_inverse(state, system)
        assert state == start

    @settings(max_examples=40, deadline=None)
    @given(
        st.tuples(*[st.integers(min_value=-3, max_value=3)] * 4),
        st.permutations(range(2)),
    )
    def test_single_step_roundtrip_everywhere(self, coords, order):
        system = chain_system()
        start = PhaseState(coords[:2], coords[2:])
        forward = step(start, system, order=order)
        assert total_energy(forward, system) == total_energy(start, system)
        assert step_inverse(forward, system, order=order) == start


class TestProductTerm:
    start = PhaseState((2, -1, 1), (1, 0, -2))

    def test_energy_is_conserved_at_every_step(self):
        system = product_system()
        state = self.start
        assert system.coupling_pos(state.positions) * system.coupling_mom(state.momenta) == 2
        for _ in range(100):
            state = step(state, system)
            assert total_energy(state, system) == 14
        assert step(self.start, system) != step(self.start, replace(system, coupling_pos=None, coupling_mom=None))

    def test_steps_and_inverse_steps_round_trip_exactly(self):
        system = product_system()
        state = self.start
        for _ in range(100):
            forward = step(state, system)
            assert step_inverse(forward, system) == state
            state = forward
        for _ in range(100):
            state = step_inverse(state, system)
        assert state == self.start

    def test_restricted_tables_are_the_callables_along_the_pair(self):
        system = product_system(window=5)
        qs, ps = self.start.positions, self.start.momenta
        for index in range(3):
            reduced = system.restricted(self.start, index)
            assert reduced.has_coupling
            for fn, vec, table in (
                (system.kinetic, ps, reduced.kinetic),
                (system.potential, qs, reduced.potential),
                (system.coupling_pos, qs, reduced.coupling_pos),
                (system.coupling_mom, ps, reduced.coupling_mom),
            ):
                assert table.window == (-5, 5)
                along = [fn(vec[:index] + (v,) + vec[index + 1 :]) for v in range(-5, 6)]
                assert list(table.values) == along


class TestErrorTagging:
    def test_escaping_pair_is_identified(self):
        system = decoupled([diamond, hyperbolic])
        with pytest.raises(UnboundedContour) as err:
            step(PhaseState((1, 0), (0, 3)), system)
        assert err.value.pair_index == 1
