"""Sequential multi-pair evolution: ordering, conservation, exact undo."""

import hashlib
import itertools
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intham.errors import IntHamError, UnboundedContour
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
        with pytest.raises(ValueError, match="time must be integers"):
            PhaseState((1,), (-1,), time=2.5)
        state = PhaseState((np.int64(2),), (np.int32(-3),), np.int64(4))
        assert state == PhaseState((2,), (-3,), 4)
        assert all(type(v) is int for v in (*state.positions, *state.momenta, state.time))


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

    @pytest.mark.parametrize(
        "windows, message",
        [
            (dict(q_windows=((5, -5),)), r"q_windows\[0\] = \[5, -5\] of pair 0 is empty: lo > hi"),
            (dict(p_windows=((-1, 1), (2, 1))), r"p_windows\[1\] = \[2, 1\] of pair 1 is empty: lo > hi"),
            (dict(q_windows=((-5.0, 5.0),)), "q_windows must be integers"),
            (dict(p_windows=((-5, 5, 7),)), r"p_windows\[0\] = \[-5, 5, 7\] of pair 0 is not a window"),
        ],
    )
    def test_windows_are_integer_ranges(self, windows, message):
        # The windows are read at the first restriction, so a bad one fails
        # the first step with an error that names its pair.
        pairs = len(next(iter(windows.values())))
        system = CoupledSeparableHamiltonian(
            pairs, sum, sum, **{"q_windows": ((-5, 5),) * pairs, "p_windows": ((-5, 5),) * pairs, **windows}
        )
        with pytest.raises(ValueError, match=message):
            step(PhaseState((0,) * pairs, (0,) * pairs), system)
        system = CoupledSeparableHamiltonian(1, sum, sum, ((np.int64(-2), 2),), ((-3, np.int32(3)),))
        reduced = system.restricted(PhaseState((0,), (0,)), 0)
        assert reduced.q_window == (-2, 2) and reduced.p_window == (-3, 3)
        assert all(type(v) is int for v in reduced.q_window + reduced.p_window)

    def test_window_count_must_match_pairs(self):
        with pytest.raises(ValueError):
            CoupledSeparableHamiltonian(
                pairs=2,
                kinetic=lambda ps: 0,
                potential=lambda qs: 0,
                q_windows=((-1, 1),),
                p_windows=((-1, 1),) * 2,
            )


def summed(pairs, q_windows=None):
    """``H = sum(p) + sum(q)`` with one +-5 window per pair; ``q_windows``
    replaces the positions' windows."""
    windows = ((-5, 5),) * round(pairs)
    return CoupledSeparableHamiltonian(pairs, sum, sum, windows if q_windows is None else q_windows, windows)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: step(PhaseState((0, 0), (0, 0)), summed(2.0)), "pairs must be integers"),
        (lambda: step(PhaseState((0,) * 3, (0,) * 3), summed(2)), "state has 3 pairs but the system has 2"),
        (lambda: step_inverse(PhaseState((0,) * 2, (0,) * 2), summed(3)), "state has 2 pairs but the system has 3"),
        (lambda: step(PhaseState((0, 0), (0, 0)), decoupled([diamond])), "state has 2 pairs but the system has 1"),
        (lambda: step(PhaseState((0, 0), (0, 0)), chain_system(), order=(1.0, 0)), "order must be integers"),
        (lambda: summed(2, q_windows=5), "need one window pair per degree of freedom"),
        (
            lambda: step(PhaseState((0, 0), (0, 0)), replace(summed(2), kinetic=lambda ps: sum(ps) / 2)),
            "kinetic restricted to pair 0: values must be integers",
        ),
        (
            lambda: step(
                PhaseState((0, 0), (0, 0)),
                replace(summed(2), coupling_pos=sum, coupling_mom=lambda ps: ps[1] + 0.5),
                order=(1, 0),
            ),
            "coupling_mom restricted to pair 1: values must be integers",
        ),
    ],
)
def test_evolver_inputs_are_honoured_or_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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


# -- time reversal by p -> -p ---------------------------------------------------


def flip(state):
    """``R(q, p) = (q, -p)``."""
    return PhaseState(state.positions, tuple(-p for p in state.momenta), state.time)


def flipped_step(state, system):
    """``R`` of the forward step in the reversed pair order applied to ``R(state)``."""
    return flip(step(flip(state), system, order=(2, 1, 0)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-2, 2), min_size=6, max_size=6))
def test_momentum_flip_runs_the_step_backward(coords):
    # The kinetic energy and the product term's momentum factor are even in
    # p and the windows are symmetric, so R maps each restricted contour onto
    # itself with its orientation reversed.  Sub-updates do not commute, so
    # the forward step runs the pairs in the inverse step's order.
    system = product_system(window=60)  # every contour closes below energy 60
    state = PhaseState(coords[:3], coords[3:])
    for _ in range(5):
        back, flipped = step_inverse(state, system), flipped_step(state, system)
        assert (back.positions, back.momenta) == (flipped.positions, flipped.momenta)
        state = step(state, system)


def test_momentum_flip_fails_with_an_odd_kinetic_part():
    # Negative control: adding p0 to the kinetic energy makes it odd in p0,
    # and the identity breaks.
    even = product_system(window=60)
    system = replace(even, kinetic=lambda ps: even.kinetic(ps) + ps[0])
    rng = random.Random(5)
    differ = 0
    for _ in range(20):
        state = PhaseState(*(tuple(rng.randint(-2, 2) for _ in range(3)) for _ in "qp"))
        back, flipped = step_inverse(state, system), flipped_step(state, system)
        differ += (back.positions, back.momenta) != (flipped.positions, flipped.momenta)
    assert differ > 0


# -- a pinned digest of every step output over a fixed battery ----------------


def _evolver_outputs(window, seed):
    """Three steps forward and three back from seeded starts of the
    product-term model, in the default and the reversed order, errors
    included (the narrower window makes more contours escape)."""
    system = product_system(window)
    rng = random.Random(seed)
    for _ in range(10):
        start = PhaseState(*(tuple(rng.randint(-3, 3) for _ in range(3)) for _ in "qp"))
        for order in (None, (2, 1, 0)):
            for stepper in (step, step_inverse):
                state = start
                for _ in range(3):
                    try:
                        state = stepper(state, system, order=order)
                    except IntHamError as err:  # every error is part of the output
                        yield type(err).__name__, str(err), err.pair_index
                        break
                    yield state


@pytest.mark.parametrize(
    "window, digest",
    [
        (30, "bfe23bbcce1fba260ef68f9f6dee142260215d7eca69a9a91831f2ad3fffac55"),
        (8, "358226f21716b109aae0f260e94842e58bb38cc26d016e317113697056f5d260"),
    ],
)
def test_step_outputs_match_their_pinned_digest(window, digest):
    # The digests pin every step and inverse step of the product-term model
    # exactly, errors included; any change to the evolver must leave them
    # all unchanged.
    h = hashlib.sha256()
    for seed in range(3):
        for item in _evolver_outputs(window, seed):
            h.update(repr(item).encode())
    assert h.hexdigest() == digest
