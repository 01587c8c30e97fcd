"""Lattice field automaton: energies, sweeps, reversal, locality, drift."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intham import fields
from intham.errors import ConfigError, IntHamError
from intham.fields import (
    FieldHamiltonianSpec,
    FieldState,
    LatticeShape,
    MargolusFieldState,
    diff_sites,
    laplacian_rule,
    margolus_energy,
    margolus_states_equal,
    margolus_step,
    margolus_unstep,
    momentum_bound,
    restricted_hamiltonian,
    site_energy,
    spec_from_json,
    spread_radius,
    state_from_json,
    state_to_json,
    states_equal,
    step,
    step_inverse,
    step_parity,
    total_energy,
)

LINE16 = LatticeShape((16,))
GRID44 = LatticeShape((4, 4))


def line_spec(mass=Fraction(0), stiffness=Fraction(1)):
    return FieldHamiltonianSpec.uniform(
        LINE16, components=1, mass=mass, stiffness=stiffness,
        phi_window=(-64, 64), p_window=(-64, 64),
    )


def random_state(spec, rng, lo=-3, hi=3):
    shape = (spec.components, *spec.shape.sizes)
    phi = np.array([rng.randint(lo, hi) for _ in range(int(np.prod(shape)))]).reshape(shape)
    mom = np.array([rng.randint(lo, hi) for _ in range(int(np.prod(shape)))]).reshape(shape)
    return FieldState(phi, mom)


class TestLatticeShape:
    def test_parity_alternates_along_each_axis(self):
        assert GRID44.parity((0, 0)) == 0
        assert GRID44.parity((0, 1)) == 1
        assert GRID44.parity((1, 1)) == 0

    def test_shift_wraps(self):
        assert LINE16.shift((15,), 0, 1) == (0,)
        assert GRID44.shift((0, 0), 1, -1) == (0, 3)

    def test_l1_distance_uses_the_short_way_around(self):
        assert LINE16.l1_distance((1,), (15,)) == 2
        assert GRID44.l1_distance((0, 0), (2, 3)) == 2 + 1

    def test_odd_sides_rejected(self):
        with pytest.raises(ValueError):
            LatticeShape((5,))


class TestSpecValidation:
    def test_stiffness_ceiling_scales_with_dimension(self):
        with pytest.raises(ValueError):
            FieldHamiltonianSpec.uniform(
                GRID44, 1, Fraction(0), Fraction(1), (-8, 8), (-8, 8)
            )
        FieldHamiltonianSpec.uniform(
            GRID44, 1, Fraction(0), Fraction(1, 2), (-8, 8), (-8, 8)
        )

    def test_mass_count_must_match_components(self):
        with pytest.raises(ValueError):
            FieldHamiltonianSpec(
                LINE16, 2, (Fraction(0),), Fraction(1), ((-8, 8),) * 2, ((-8, 8),) * 2
            )

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            FieldHamiltonianSpec.uniform(
                LINE16, 1, Fraction(-1), Fraction(1), (-8, 8), (-8, 8)
            )


class TestSiteEnergy:
    """Hand-evaluated energies on a 4-site line."""

    shape4 = LatticeShape((4,))
    phi = np.array([[0, 2, 1, 1]])
    mom = np.array([[1, 0, 3, 0]])

    def spec4(self, mass, stiffness):
        return FieldHamiltonianSpec.uniform(
            self.shape4, 1, mass, stiffness, (-32, 32), (-32, 32)
        )

    def test_massless_unit_stiffness(self):
        spec = self.spec4(Fraction(0), Fraction(1))
        state = FieldState(self.phi, self.mom)
        # forward gradients (2, -1, 0, -1), momenta (1, 0, 3, 0)
        assert [site_energy(state, spec, (x,)) for x in range(4)] == [2, 0, 4, 0]
        assert total_energy(state, spec) == 6

    def test_unit_mass_adds_floored_field_square(self):
        spec = self.spec4(Fraction(1), Fraction(1))
        state = FieldState(self.phi, self.mom)
        assert [site_energy(state, spec, (x,)) for x in range(4)] == [2, 2, 4, 1]
        assert total_energy(state, spec) == 9

    def test_fractional_stiffness_floors_each_term_separately(self):
        spec = self.spec4(Fraction(0), Fraction(1, 2))
        state = FieldState(self.phi, self.mom)
        assert site_energy(state, spec, (0,)) == 1  # floor(4/4) + floor(1/4)
        assert site_energy(state, spec, (2,)) == 2  # floor(0) + floor(9/4)


class TestMomentumBound:
    def test_first_excluded_magnitude(self):
        bound = momentum_bound(160, Fraction(1))
        assert bound == 18
        assert (17 * 17) // 2 <= 160 < (18 * 18) * 1 // 2

    def test_integer_form_matches_the_fraction_formula(self):
        def by_fractions(energy, stiffness):
            target = 2 * Fraction(energy + 1) / stiffness
            b = math.isqrt(target.numerator // target.denominator)
            while b * b * target.denominator < target.numerator:
                b += 1
            return b

        stiffnesses = [Fraction(n, d) for n in (1, 2, 3, 5, 7) for d in (1, 2, 3, 4, 9)]
        energies = list(range(-1, 400)) + [10**6 + 7, 2**64 + 1, 10**40]
        for stiffness in stiffnesses:
            for energy in energies:
                assert momentum_bound(energy, stiffness) == by_fractions(energy, stiffness)

    def test_scales_with_stiffness(self):
        # floor(rho/2 * p^2) > E first at the returned magnitude
        for energy in (0, 5, 99):
            for stiffness in (Fraction(1), Fraction(1, 2), Fraction(1, 3)):
                b = momentum_bound(energy, stiffness)
                assert stiffness * b * b / 2 > energy
                assert stiffness * (b - 1) * (b - 1) / 2 <= energy + 1


class TestRestrictedHamiltonian:
    def test_single_pair_changes_move_total_and_restricted_alike(self):
        rng = random.Random(20260825)
        spec = line_spec()
        state = random_state(spec, rng)
        base = total_energy(state, spec)
        ham = restricted_hamiltonian(state, spec, (5,), 0)
        q, p = int(state.phi[0, 5]), int(state.mom[0, 5])
        phi = state.phi.copy()
        mom = state.mom.copy()
        phi[0, 5] = q + 2
        mom[0, 5] = p - 1
        shifted = total_energy(FieldState(phi, mom), spec) - base
        assert shifted == ham.value(q + 2, p - 1) - ham.value(q, p)

    def test_tables_cover_the_reachable_band_inside_the_windows(self):
        spec = line_spec()
        state = random_state(spec, random.Random(1))
        ham = restricted_hamiltonian(state, spec, (0,), 0)
        q, p = int(state.phi[0, 0]), int(state.mom[0, 0])
        level = ham.value(q, p)

        for lo, hi, spec_lo, spec_hi in (
            (*ham.q_window, *spec.phi_windows[0]),
            (*ham.p_window, *spec.p_windows[0]),
        ):
            assert spec_lo <= lo <= hi <= spec_hi
            assert lo < q < hi or lo < p < hi
        # Any clamped edge interior to the window lies strictly above the
        # contour level, so a walk can only escape at a real window edge.
        qlo, qhi = ham.q_window
        plo, phi_hi = ham.p_window
        for edge in (qlo, qhi):
            assert min(ham.value(edge, pp) for pp in range(plo, phi_hi + 1)) > level
        for edge in (plo, phi_hi):
            assert min(ham.value(qq, edge) for qq in range(qlo, qhi + 1)) > level

    def test_wide_windows_cost_nothing(self):
        spec = FieldHamiltonianSpec.uniform(
            LINE16, phi_window=(-(1 << 30), 1 << 30), p_window=(-(1 << 30), 1 << 30)
        )
        state = random_state(spec, random.Random(2))
        ham = restricted_hamiltonian(state, spec, (3,), 0)
        assert ham.q_window[1] - ham.q_window[0] < 200
        assert ham.p_window[1] - ham.p_window[0] < 200
        stepped = step(state, spec)
        assert total_energy(stepped, spec) == total_energy(state, spec)
        assert states_equal(step_inverse(stepped, spec), state)


class TestSweeps:
    def test_half_sweep_touches_only_its_parity_class(self):
        spec = line_spec()
        state = random_state(spec, random.Random(3))
        after = step_parity(state, spec, 1)
        assert all(LINE16.parity(x) == 1 for x in diff_sites(state, after))

    def test_fifty_steps_conserve_and_reverse_exactly(self):
        spec = line_spec()
        start = random_state(spec, random.Random(20260825))
        energy = total_energy(start, spec)
        state = start
        for _ in range(50):
            state = step(state, spec)
            assert total_energy(state, spec) == energy
        assert state.time == 50
        for _ in range(50):
            state = step_inverse(state, spec)
        assert states_equal(state, start)

    def test_trajectory_actually_moves(self):
        spec = line_spec()
        start = random_state(spec, random.Random(20260825))
        state = step(start, spec)
        assert not states_equal(state, start, include_time=False)

    def test_half_sweep_is_order_independent(self):
        spec = line_spec()
        rng = random.Random(11)
        state = random_state(spec, rng)
        reference = step_parity(state, spec, 0)
        evens = [x for x in LINE16.sites() if LINE16.parity(x) == 0]
        for _ in range(5):
            order = evens[:]
            rng.shuffle(order)
            assert states_equal(reference, step_parity(state, spec, 0, site_order=order))

    @pytest.mark.parametrize(
        "components,mass,stiffness",
        [
            (1, Fraction(0), Fraction(1, 2)),
            (1, Fraction(1, 2), Fraction(1, 2)),
            (2, Fraction(0), Fraction(1, 2)),
            (2, Fraction(1, 2), Fraction(1, 2)),
        ],
    )
    def test_planar_lattice_conserves_and_reverses(self, components, mass, stiffness):
        spec = FieldHamiltonianSpec.uniform(
            GRID44, components, mass, stiffness, (-40, 40), (-40, 40)
        )
        start = random_state(spec, random.Random(99), -2, 2)
        energy = total_energy(start, spec)
        state = start
        for _ in range(10):
            state = step(state, spec)
            assert total_energy(state, spec) == energy
        for _ in range(10):
            state = step_inverse(state, spec)
        assert states_equal(state, start)


class TestLightCone:
    def test_disturbance_spreads_at_most_two_sites_per_step(self):
        spec = line_spec()
        base = random_state(spec, random.Random(20260825))
        phi = base.phi.copy()
        phi[0, 8] += 1
        bumped = FieldState(phi, base.mom)
        radii = []
        a, b = base, bumped
        for n in range(1, 7):
            a = step(a, spec)
            b = step(b, spec)
            radius = spread_radius(LINE16, (8,), diff_sites(a, b))
            assert radius <= 2 * n
            radii.append(radius)
        assert radii == [1, 3, 3, 5, 6, 6]

    def test_half_sweep_moves_the_front_at_most_one_site(self):
        spec = line_spec()
        base = random_state(spec, random.Random(20260825))
        phi = base.phi.copy()
        phi[0, 8] += 1
        bumped = FieldState(phi, base.mom)
        after_a = step_parity(base, spec, 0)
        after_b = step_parity(bumped, spec, 0)
        assert spread_radius(LINE16, (8,), diff_sites(after_a, after_b)) <= 1


class TestTwoLayerAutomaton:
    def seed_state(self):
        rng = random.Random(7)
        older = np.array([[rng.randint(-3, 3) for _ in range(16)]])
        newer = np.array([[rng.randint(-3, 3) for _ in range(16)]])
        return MargolusFieldState(older, newer)

    def test_exactly_reversible(self):
        state = self.seed_state()
        forward = state
        for _ in range(8):
            forward = margolus_step(forward)
        back = forward
        for _ in range(8):
            back = margolus_unstep(back)
        assert margolus_states_equal(back, state)
        assert back.time == 0

    def test_energy_drifts_without_bound(self):
        spec = line_spec()
        state = self.seed_state()
        energies = [margolus_energy(state, spec)]
        for _ in range(8):
            state = margolus_step(state)
            energies.append(margolus_energy(state, spec))
        assert energies == [
            142,
            982,
            9772,
            113792,
            1461522,
            19905326,
            281104954,
            4069594428,
            60063250730,
        ]
        assert all(b > a for a, b in zip(energies, energies[1:]))

    def test_update_is_local_in_space(self):
        state = self.seed_state()
        phi = state.newer.copy()
        phi[0, 4] += 1
        bumped = MargolusFieldState(state.older, phi)
        a = margolus_step(state)
        b = margolus_step(bumped)
        touched = {
            (x,)
            for x in range(16)
            if a.newer[0, x] != b.newer[0, x] or a.older[0, x] != b.older[0, x]
        }
        assert spread_radius(LINE16, (4,), touched) <= 1

    def test_rule_is_the_discrete_laplacian(self):
        phi = np.array([[0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]], dtype=object)
        assert laplacian_rule(phi)[0].tolist() == [1, -2, 1] + [0] * 13
        # wraparound: site 15 neighbours site 0
        phi2 = np.array([[5] + [0] * 15], dtype=object)
        assert laplacian_rule(phi2)[0, 15] == 5

    def test_layers_must_share_a_shape(self):
        with pytest.raises(ValueError):
            MargolusFieldState(np.zeros((1, 4)), np.zeros((1, 6)))


class TestJson:
    def test_spec_round_trip_with_defaults(self):
        spec = spec_from_json({"sizes": [4, 4]})
        assert spec.components == 1
        assert spec.stiffness == Fraction(1, 2)
        assert spec.masses == (Fraction(0),)

    def test_spec_with_rational_strings(self):
        spec = spec_from_json(
            {
                "sizes": [16],
                "components": 2,
                "masses": ["1/2", 1],
                "stiffness": "1/2",
                "phi_window": [-10, 10],
            }
        )
        assert spec.masses == (Fraction(1, 2), Fraction(1))
        assert spec.phi_windows == ((-10, 10), (-10, 10))

    def test_spec_without_sizes_rejected(self):
        with pytest.raises(ConfigError):
            spec_from_json({"components": 1})

    def test_state_round_trip(self):
        state = FieldState(np.array([[1, 2, 3, 4]]), np.array([[0, -1, 0, 1]]), time=5)
        again = state_from_json(state_to_json(state))
        assert states_equal(state, again)
        assert again.time == 5


# -- local-rule memo -----------------------------------------------------------


LINE8 = LatticeShape((8,))


def fresh_spec(shape, masses, window):
    """A new spec, hence an empty local-rule memo."""
    return FieldHamiltonianSpec(
        shape,
        len(masses),
        masses,
        Fraction(1, shape.dimensions),
        (window,) * len(masses),
        (window,) * len(masses),
    )


def outcome(stepper, state, spec):
    """The stepped arrays, or what the step raised."""
    try:
        after = stepper(state, spec)
    except IntHamError as exc:
        return (type(exc).__name__, str(exc), exc.field_site)
    return (after.phi.tolist(), after.mom.tolist())


MEMO_CASES = [
    (LINE8, (Fraction(0),)),
    (LINE8, (Fraction(1),)),
    (LINE8, (Fraction(0), Fraction(1, 2))),
    (GRID44, (Fraction(0),)),
    (GRID44, (Fraction(1, 2),)),
    (GRID44, (Fraction(0), Fraction(1, 2))),
]


class TestLocalRuleMemo:
    @given(
        case=st.sampled_from(MEMO_CASES),
        window=st.sampled_from([(-8, 8), (-40, 40)]),
        seed=st.integers(0, 2**32 - 1),
        offset=st.integers(-6, 6),
    )
    @settings(max_examples=30, deadline=None)
    def test_warm_memo_steps_like_a_cold_one(self, case, window, seed, offset):
        shape, masses = case
        warm = fresh_spec(shape, masses, window)
        start = random_state(warm, random.Random(seed), -2, 2)
        # Warm the memo on a copy translated in phi, whose neighbourhoods
        # repeat the start's up to that translation.
        moved = FieldState(start.phi + offset, start.mom)
        for stepper in (step, step_inverse):
            outcome(stepper, moved, warm)
        state = start
        for stepper in (step,) * 3 + (step_inverse,) * 3:
            expected = outcome(stepper, state, fresh_spec(shape, masses, window))
            assert outcome(stepper, state, warm) == expected
            if isinstance(expected[0], str):
                return
            state = stepper(state, warm)
        assert states_equal(state, start)
        assert warm == fresh_spec(shape, masses, window)
        assert hash(warm) == hash(fresh_spec(shape, masses, window))
        assert repr(warm) == repr(fresh_spec(shape, masses, window))

    def test_translated_repeat_near_the_window_takes_the_cold_path(self):
        # Shifting every field value of a massless line repeats each memoized
        # neighbourhood; near the +-8 window the shifted bands clamp, and the
        # cold path escapes the window where the memoized walk would not.
        rng = random.Random(1)
        phi = np.array([[rng.randint(-1, 1) for _ in range(16)]])
        mom = np.array([[rng.randint(-1, 1) for _ in range(16)]])
        warm = fresh_spec(LINE16, (Fraction(0),), (-8, 8))
        for stepper in (step, step_inverse):
            stepper(FieldState(phi, mom), warm)
        errors = 0
        for shift in range(-8, 9):
            shifted = FieldState(phi + shift, mom)
            for stepper in (step, step_inverse):
                expected = outcome(stepper, shifted, fresh_spec(LINE16, (Fraction(0),), (-8, 8)))
                assert outcome(stepper, shifted, warm) == expected
                errors += isinstance(expected[0], str)
        assert errors > 0

    def test_memo_stays_under_its_cap(self, monkeypatch):
        monkeypatch.setattr(fields, "_MEMO_CAP", 64)
        spec = fresh_spec(LINE16, (Fraction(0),), (-64, 64))
        start = random_state(spec, random.Random(7), -3, 3)
        state = start
        for _ in range(40):
            expected = step(state, fresh_spec(LINE16, (Fraction(0),), (-64, 64)))
            newest = list(spec._memo)[-48:]
            state = step(state, spec)
            assert states_equal(state, expected)
            assert 0 < len(spec._memo) <= 64
            # A step stores at most 16 keys, so at the cap it drops only the
            # oldest entries and the 48 newest stay servable.
            assert set(newest) <= spec._memo.keys()
        assert len(spec._memo) == 64
        for _ in range(40):
            state = step_inverse(state, spec)
        assert states_equal(state, start)
