"""Lattice field automaton: energies, sweeps, reversal, locality, drift."""

import hashlib
import json
import math
import random
import re
import time
from collections import Counter, OrderedDict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intham import cli, contours, evolver, fields
from intham.errors import ConfigError, IntHamError, UnboundedContour, WindowExceeded
from intham.fields import (
    FieldHamiltonianSpec,
    FieldState,
    LatticeShape,
    MargolusFieldState,
    diagonal_radius,
    diff_sites,
    laplacian_rule,
    layers_from_json,
    margolus_energy,
    margolus_states_equal,
    margolus_step,
    margolus_unstep,
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
from intham.hamiltonians import MAX_WINDOW, IntegerFunction1D, SeparableHamiltonian1D

LINE16 = LatticeShape((16,))
GRID44 = LatticeShape((4, 4))
BOX442 = LatticeShape((4, 4, 2))


def line_spec(mass=Fraction(0), stiffness=Fraction(1)):
    return FieldHamiltonianSpec.uniform(
        LINE16, components=1, mass=mass, stiffness=stiffness,
        phi_window=(-64, 64), p_window=(-64, 64),
    )


def sub_update_terms(spec, vals):
    """``(x, k, terms)`` per sub-update record of the spec's plan, in C order
    with components ascending: the pair's :func:`fields._local_terms` in the
    flat list ``vals``."""
    for _, _, subs in fields._plan(spec)[0]:
        for x, k, _, qi, pi, _, layout in subs:
            yield x, k, fields._local_terms(spec, vals, layout, qi, pi)


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

    @pytest.mark.parametrize(
        "shape, a, b, distance",
        [
            (LatticeShape((4,)), (0,), (5,), 1),
            (LINE16, (-1,), (1,), 2),
            (LINE16, (17,), (-17,), 2),
            (GRID44, (5, -1), (0, 0), 1 + 1),
        ],
    )
    def test_l1_distance_wraps_coordinates_like_shift(self, shape, a, b, distance):
        assert shape.l1_distance(a, b) == shape.l1_distance(b, a) == distance
        assert spread_radius(shape, a, [b]) == distance

    @pytest.mark.parametrize(
        "shape, a, b",
        [(LINE16, (1, 2), (3,)), (GRID44, (0, 0), (1,)), (GRID44, (0,), (1, 1)), (BOX442, (0, 0), (0, 0))],
    )
    def test_l1_distance_rejects_a_site_of_the_wrong_dimension(self, shape, a, b):
        bad = next(x for x in (a, b) if len(x) != shape.dimensions)
        message = "^" + re.escape(f"site {bad} needs {shape.dimensions} coordinates, got {len(bad)}") + "$"
        with pytest.raises(ValueError, match=message):
            shape.l1_distance(a, b)
        with pytest.raises(ValueError, match=message):
            spread_radius(shape, a, [b])

    @pytest.mark.parametrize(
        "shape, origin, sites, radius",
        [
            (LINE16, (1,), [(15,), (3,)], 2),
            (GRID44, (0, 0), [(1, 2)], 1),  # sum(x) is read modulo gcd(4, 4)
            (GRID44, (5, -1), [(0, 0), (2, 0)], 2),
            (BOX442, (0, 0, 0), [], 0),
        ],
    )
    def test_diagonal_radius_reads_sums_modulo_the_side_gcd(self, shape, origin, sites, radius):
        assert diagonal_radius(shape, origin, sites) == radius

    @pytest.mark.parametrize(
        "shape, origin, sites",
        [
            (GRID44, (0, 0), [(1,)]),
            (GRID44, (0, 0), [(1, 1), (1, 2, 3)]),
            (GRID44, (0,), [(1, 1)]),
            (GRID44, (0,), []),
            (LINE16, (1, 2), [(3,)]),
            (BOX442, (0, 0, 0), iter([(0, 0)])),
        ],
    )
    def test_diagonal_radius_rejects_a_site_of_the_wrong_dimension(self, shape, origin, sites):
        with pytest.raises(ValueError, match=f"needs {shape.dimensions} coordinates"):
            diagonal_radius(shape, origin, sites)

    def test_odd_sides_rejected(self):
        with pytest.raises(ValueError):
            LatticeShape((5,))

    def test_the_numbering_is_c_order_and_outside_equality(self):
        for shape in (LINE16, GRID44, BOX442):
            fresh = LatticeShape(shape.sizes)
            sites, index, fwd = fresh.numbering()
            assert fresh.numbering() is fresh.numbering()
            assert sites == list(shape.sites())
            assert [index[x] for x in sites] == list(range(len(sites)))
            assert all(np.ravel_multi_index(x, shape.sizes) == index[x] for x in sites)
            assert fwd == [tuple(index[shape.shift(x, a, 1)] for a in range(shape.dimensions)) for x in sites]
            twin = LatticeShape(shape.sizes)
            assert fresh == twin and hash(fresh) == hash(twin) and repr(fresh) == repr(twin) == f"LatticeShape(sizes={shape.sizes})"


# A state on the 4x4 grid with its spec, and the grid's even sites, for the
# site readers below.
GRID_STATE = (
    FieldState(np.arange(16).reshape(1, 4, 4) % 5 - 2, np.arange(16).reshape(1, 4, 4) % 3 - 1),
    FieldHamiltonianSpec.uniform(GRID44, 1, Fraction(1, 2), None, (-40, 40), (-40, 40)),
)
GRID_EVENS = [x for x in GRID44.sites() if sum(x) % 2 == 0]


def _tables(ham):
    return ham.kinetic.lo, ham.kinetic.values, ham.potential.lo, ham.potential.values, ham._closure_level


def _snapshot(state):
    return state.phi.tolist(), state.mom.tolist(), state.time


#: Every public callable of ``intham.fields`` that takes a site, keyed by its
#: qualified name and its site parameter, as a call of one site of GRID44 in
#: that parameter; test_package checks that no site parameter is left out.
SITE_READERS = {
    ("LatticeShape.site", "x"): GRID44.site,
    ("LatticeShape.parity", "x"): GRID44.parity,
    ("LatticeShape.shift", "x"): lambda x: GRID44.shift(x, 1, 1),
    ("LatticeShape.l1_distance", "a"): lambda x: GRID44.l1_distance(x, (0, 2)),
    ("LatticeShape.l1_distance", "b"): lambda x: GRID44.l1_distance((0, 2), x),
    ("spread_radius", "origin"): lambda x: spread_radius(GRID44, x, [(0, 2), (3, 3)]),
    ("spread_radius", "sites"): lambda x: spread_radius(GRID44, (0, 2), [(2, 2), x]),
    ("diagonal_radius", "origin"): lambda x: diagonal_radius(GRID44, x, [(0, 1)]),
    ("diagonal_radius", "sites"): lambda x: diagonal_radius(GRID44, (0, 0), [(0, 1), x]),
    ("site_energy", "x"): lambda x: site_energy(*GRID_STATE, x),
    ("restricted_hamiltonian", "x"): lambda x: _tables(restricted_hamiltonian(*GRID_STATE, x, 0)),
    # the even class backwards, with x in place of (1, 3)
    ("step_parity", "site_order"): lambda x: _snapshot(
        step_parity(*GRID_STATE, 0, site_order=[x if e == (1, 3) else e for e in GRID_EVENS[::-1]])
    ),
}


@pytest.mark.parametrize("reader", list(SITE_READERS), ids="{0[0]}({0[1]})".format)
@pytest.mark.parametrize(
    "bad, message",
    [
        ((1.5, 3), "site coordinates must be integers"),
        ((1, 3.0), "site coordinates must be integers"),
        ((Fraction(1), 3), "site coordinates must be integers"),
        ((1, Fraction(7, 2)), "site coordinates must be integers"),
        ((1,), "site (1,) needs 2 coordinates, got 1"),
        ((1, 3, 0), "site (1, 3, 0) needs 2 coordinates, got 3"),
    ],
)
def test_every_site_reader_rejects_a_site_that_is_not_one_integer_per_dimension(reader, bad, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        SITE_READERS[reader](bad)


@pytest.mark.parametrize("radius", [spread_radius, diagonal_radius])
@pytest.mark.parametrize("bad", [(1.5, 3), (Fraction(1), 3), (1,)])
def test_the_radii_read_the_origin_even_with_no_other_sites(radius, bad):
    assert radius(GRID44, (5, -1), []) == 0
    with pytest.raises(ValueError, match="^site"):
        radius(GRID44, bad, [])


@pytest.mark.parametrize("reader", list(SITE_READERS), ids="{0[0]}({0[1]})".format)
def test_every_site_reader_reads_a_wrapped_site_as_its_in_box_site(reader):
    call = SITE_READERS[reader]
    expected = call((1, 3))
    for wrapped in ((5, -1), (-3, 7), (np.int64(1), np.int64(43)), [9, -5]):
        assert call(wrapped) == expected, wrapped


def test_energy_queries_and_margolus_runs_build_no_sweep_plan(tmp_path, monkeypatch):
    # Energies read the shape's numbering alone; only a sweep or a
    # restriction builds the spec's plan.
    spec = FieldHamiltonianSpec.uniform(LatticeShape((4, 4)), 2, Fraction(1, 2), None, (-40, 40), (-40, 40))
    state = random_state(spec, random.Random(8))
    total_energy(state, spec)
    site_energy(state, spec, (1, 2))
    margolus_energy(MargolusFieldState(state.mom, state.phi), spec)
    assert not hasattr(spec, "_plan")
    step(state, spec)
    assert hasattr(spec, "_plan") and fields._plan(spec)[0][0][1] is spec.shape.numbering()[2][0]
    specs, build = [], fields.spec_from_json
    monkeypatch.setattr(fields, "spec_from_json", lambda obj: specs.append(build(obj)) or specs[-1])
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"mode": "margolus-contrast", "field": {"sizes": [6, 4], "components": 2}, "steps": 3}))
    assert cli.main(["run", str(config), "--out", str(tmp_path / "out")]) == 0
    assert len(specs) == 1 and not hasattr(specs[0], "_plan")


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

    def test_integer_windows_and_sides_are_kept_exactly(self):
        spec = FieldHamiltonianSpec.uniform(
            LatticeShape((np.int64(4),)), 1, Fraction(0), Fraction(1), (np.int64(-3), 3), (-2, np.int32(2))
        )
        assert (spec.shape.sizes, spec.phi_windows, spec.p_windows) == ((4,), ((-3, 3),), ((-2, 2),))
        values = spec.shape.sizes + spec.phi_windows[0] + spec.p_windows[0]
        assert all(type(v) is int for v in values)

    @pytest.mark.parametrize("sizes", [(4,), (4, 4), (4, 4, 2)])
    def test_uniform_defaults_are_the_json_readers(self, sizes):
        spec = FieldHamiltonianSpec.uniform(LatticeShape(sizes))
        assert spec == spec_from_json({"sizes": list(sizes)})
        assert spec.stiffness == Fraction(1, len(sizes))
        assert spec.phi_windows == spec.p_windows == (fields.DEFAULT_WINDOW,)


class TestLayerBounds:
    def test_int64_ends_and_small_unsigned_layers_are_read_exactly(self):
        ends = FieldState([[2**63 - 1, -(2**63)]], np.array([[3, 2**62]], dtype=np.uint64))
        assert ends.phi.tolist() == [[2**63 - 1, -(2**63)]] and ends.mom.tolist() == [[3, 2**62]]
        assert ends.phi.dtype == ends.mom.dtype == np.int64
        signed = np.array([[5, -(2**63)]], dtype=np.int64)
        state = FieldState(signed, np.array([[1, 2]], dtype=np.int8))
        assert np.array_equal(state.phi, signed) and state.phi.dtype == np.int64
        assert state.phi is not signed and not state.phi.flags.writeable

    def test_two_layer_states_stay_unbounded(self):
        state = MargolusFieldState([[2**70, 0]], np.array([[2**64 - 1, 1]], dtype=np.uint64))
        assert state.older.tolist() == [[2**70, 0]] and state.newer.tolist() == [[2**64 - 1, 1]]


def uniform_spec(phi_window=(-8, 8), p_window=(-8, 8), components=1):
    return FieldHamiltonianSpec.uniform(LINE16, components, Fraction(0), Fraction(1), phi_window, p_window)


def zero_state(*shape):
    return FieldState(np.zeros(shape, int), np.zeros(shape, int))


# A state on a 4-site line with its spec, for the query checks below.
LINE4 = (
    FieldState([[0, 2, 1, 1]], [[1, 0, 3, 0]]),
    FieldHamiltonianSpec.uniform(LatticeShape((4,)), 1, Fraction(0), Fraction(1), (-32, 32), (-32, 32)),
)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: LatticeShape(()), "need at least one dimension"),
        (lambda: LatticeShape((4.7,)), "sizes must be integers"),
        (lambda: LatticeShape((4, Fraction(4))), "sizes must be integers"),
        (lambda: uniform_spec(phi_window=(5, -5)), r"phi_windows\[0\] = \[5, -5\] of component 0 is empty: lo > hi"),
        (lambda: uniform_spec(p_window=(1, 0)), r"p_windows\[0\] = \[1, 0\] of component 0 is empty: lo > hi"),
        (
            lambda: FieldHamiltonianSpec(
                LINE16, 2, (Fraction(0),) * 2, Fraction(1), ((-8, 8), (3, 2)), ((-8, 8),) * 2
            ),
            r"phi_windows\[1\] = \[3, 2\] of component 1 is empty: lo > hi",
        ),
        (lambda: uniform_spec(phi_window=(-3.9, 3.9)), "phi_windows must be integers"),
        (lambda: uniform_spec(p_window=(-3, 3.0)), "p_windows must be integers"),
        (lambda: uniform_spec(phi_window=(-3, 0, 3)), r"phi_windows\[0\] = \[-3, 0, 3\] of component 0 is not a window"),
        (lambda: uniform_spec(phi_window=5), r"phi_windows\[0\] = 5 of component 0 is not a window \[lo, hi\]"),
        (
            lambda: FieldHamiltonianSpec(LINE16, 1, (Fraction(0),), Fraction(1), 5, ((-8, 8),)),
            r"phi_windows = 5 is not a list of windows \[lo, hi\]",
        ),
        (
            lambda: FieldHamiltonianSpec(LINE16, 1.0, (Fraction(0),), Fraction(1), ((-8, 8),), ((-8, 8),)),
            "components must be integers",
        ),
        (lambda: FieldState([[1.5, 0, 0, 0]], [[0] * 4]), "phi must be integers"),
        (lambda: FieldState([[0] * 4], np.array([[0, 0.5, 0, 0]])), "mom must be integers"),
        (lambda: MargolusFieldState([[1.5, 0.0]], [[0, 0]]), "older must be integers"),
        # entries past int64 are named by layer, never wrapped or overflowed
        (lambda: FieldState([[2**63, 0]], [[0, 0]]), r"'phi' entries must lie in int64 \[-9223372036854775808, "),
        (lambda: FieldState([[0, 0]], [[0, -(2**63) - 1]]), "'mom' entries must lie in int64"),
        (lambda: FieldState(np.array([[2**63, 0]], dtype=np.uint64), [[0, 0]]), "'phi' entries must lie in int64"),
        (lambda: FieldState([[0, 0]], np.array([[0, 2**64 - 1]], dtype=np.uint64)), "'mom' entries must lie in int64"),
        (lambda: FieldState(np.array([[2**63, 0]], dtype=object), [[0, 0]]), "'phi' entries must lie in int64"),
        (lambda: FieldState([[0, 0]], [[np.uint64(2**63), 0]]), "'mom' entries must lie in int64"),
        (lambda: FieldState(np.zeros((1, 4), int), np.zeros((1, 4), int), time=2.7), "time must be integers"),
        (lambda: FieldState(np.zeros((1, 4), int), np.zeros((1, 4), int), time=Fraction(3)), "time must be integers"),
        (lambda: MargolusFieldState(np.zeros((1, 4), int), np.zeros((1, 4), int), time=1.9), "time must be integers"),
        (
            lambda: FieldHamiltonianSpec(LINE16, 2, (Fraction(0),) * 2, Fraction(1), ((-8, 8),), ((-8, 8),) * 2),
            "need one field and one momentum window per component",
        ),
        (
            lambda: FieldHamiltonianSpec(LINE16, 1, (Fraction(0),), Fraction(1), ((-8, 8),), ((-8, 8),) * 2),
            "need one field and one momentum window per component",
        ),
        (lambda: FieldState(np.zeros((1, 4), int), np.zeros((1, 6), int)), "field and momentum arrays must share a shape"),
        (lambda: FieldState(np.zeros(4, int), np.zeros(4, int)), r"arrays must be \(components, \*sizes\)"),
        (
            lambda: total_energy(FieldState(np.zeros((1, 8), int), np.zeros((1, 8), int)), uniform_spec()),
            r"state shape \(1, 8\) != spec shape \(1, 16\)",
        ),
        (
            lambda: step(FieldState(np.zeros((1, 16), int), np.zeros((1, 16), int)), uniform_spec(components=2)),
            r"state shape \(1, 16\) != spec shape \(2, 16\)",
        ),
        (
            lambda: margolus_energy(MargolusFieldState(np.zeros((1, 8), int), np.zeros((1, 8), int)), uniform_spec()),
            r"layer shape \(1, 8\) != spec shape \(1, 16\)",
        ),
        (lambda: step_parity(*LINE4, 2), "parity must be 0 or 1, got 2"),
        (lambda: step_parity(*LINE4, -1), "parity must be 0 or 1, got -1"),
        (lambda: step_parity(*LINE4, 1.0), "parity must be integers"),
        (lambda: restricted_hamiltonian(*LINE4, (0,), 1), r"component 1 is not in \[0, 1\)"),
        (lambda: restricted_hamiltonian(*LINE4, (0,), -1), r"component -1 is not in \[0, 1\)"),
        (lambda: restricted_hamiltonian(*LINE4, (0, 0), 0), r"site \(0, 0\) needs 1 coordinates, got 2"),
        (lambda: site_energy(*LINE4, (0, 0)), r"site \(0, 0\) needs 1 coordinates, got 2"),
        (lambda: site_energy(*LINE4, (0.5,)), "site coordinates must be integers"),
        # states of different shapes are named, not broadcast against each other
        (lambda: diff_sites(LINE4[0], zero_state(1, 1)), r"^cannot compare states of shapes \(1, 4\) and \(1, 1\)$"),
        (lambda: diff_sites(LINE4[0], zero_state(2, 4)), r"^cannot compare states of shapes \(1, 4\) and \(2, 4\)$"),
        (lambda: diff_sites(zero_state(2, 4), LINE4[0]), r"^cannot compare states of shapes \(2, 4\) and \(1, 4\)$"),
        (lambda: diff_sites(LINE4[0], zero_state(1, 2, 2)), r"^cannot compare states of shapes \(1, 4\) and \(1, 2, 2\)$"),
    ],
)
def test_field_constructors_and_queries_reject_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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
        # coordinates of the right length wrap periodically
        assert [site_energy(state, spec, (x,)) for x in (4, 5, -1, np.int64(6))] == [2, 0, 0, 4]

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


class TestRestrictedHamiltonian:
    def test_single_pair_changes_move_total_and_restricted_alike(self):
        rng = random.Random(20260825)
        spec = line_spec()
        state = random_state(spec, rng)
        base = total_energy(state, spec)
        ham = restricted_hamiltonian(state, spec, (5,), 0)
        q, p = int(state.phi[0, 5]), int(state.mom[0, 5])
        far = ham.q_window[1]  # the band's last column, past the level
        assert far >= q + 1
        phi = state.phi.copy()
        mom = state.mom.copy()
        phi[0, 5] = far
        mom[0, 5] = p - 1
        shifted = total_energy(FieldState(phi, mom), spec) - base
        assert shifted == ham.value(far, p - 1) - ham.value(q, p)

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

    @given(
        sizes=st.sampled_from([(4, 4), (6, 4), (2, 6)]),
        masses=st.sampled_from([(Fraction(0),), (Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(1))]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_public_tables_equal_the_sweep_path_on_planes(self, sizes, masses, seed):
        spec = kernel_spec(LatticeShape(sizes), masses, (-40, 40))
        state = random_state(spec, random.Random(seed), -9, 9)
        vals = state.phi.ravel().tolist() + state.mom.ravel().tolist()
        for x, k, terms in sub_update_terms(spec, vals):
            swept = restricted_hamiltonian(state, spec, x, k, _terms=terms)
            assert restricted_hamiltonian(state, spec, x, k) == swept

    def test_trusted_tables_equal_checked_ones(self):
        spec = kernel_spec(GRID44, (Fraction(0), Fraction(1, 2)), (-40, 40))
        state = random_state(spec, random.Random(4), -9, 9)
        vals = state.phi.ravel().tolist() + state.mom.ravel().tolist()
        proofs = 0
        for x, k, terms in sub_update_terms(spec, vals):
            ham = restricted_hamiltonian(state, spec, x, k, _terms=terms)
            kin, pot = ham.kinetic, ham.potential
            checked = SeparableHamiltonian1D(
                IntegerFunction1D(kin.lo, kin.values), IntegerFunction1D(pot.lo, pot.values)
            )
            trusted = SeparableHamiltonian1D._trusted(kin, pot)
            assert trusted == checked == SeparableHamiltonian1D(kin, pot) == ham
            # a band's closure proof is no field: equality, hash and repr ignore it
            assert (hash(trusted), repr(trusted)) == (hash(checked), repr(checked)) == (hash(ham), repr(ham))
            assert trusted._closure_level is checked._closure_level is None
            assert not trusted.has_coupling
            proofs += ham._closure_level is not None
        assert proofs

    @pytest.mark.parametrize(
        "array, value, kind, window",
        [("phi", 9, "field", "[-4, 4]"), ("phi", -5, "field", "[-4, 4]"),
         ("mom", 4, "momentum", "[-3, 3]"), ("mom", -7, "momentum", "[-3, 3]")],
    )
    def test_states_outside_their_windows_are_rejected(self, array, value, kind, window):
        # as the steppers reject them, whichever pair is restricted
        spec = FieldHamiltonianSpec.uniform(LatticeShape((4,)), phi_window=(-4, 4), p_window=(-3, 3))
        arrays = {"phi": [[0, 1, 0, 1]], "mom": [[0, 0, 1, 0]]}
        arrays[array][0][0] = value
        for x in ((0,), (1,)):
            with pytest.raises(WindowExceeded) as err:
                restricted_hamiltonian(FieldState(arrays["phi"], arrays["mom"]), spec, x, 0)
            assert str(err.value) == f"{kind} value {value} of component 0 at site (0,) outside window {window}"
            assert err.value.field_site == ((0,), 0)

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
        with pytest.raises(ValueError, match="layers must share a shape"):
            MargolusFieldState(np.zeros((1, 4), int), np.zeros((1, 6), int))


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

    @pytest.mark.parametrize(
        "obj, named",
        [
            ({"sizes": [4.7]}, "'sizes'"),
            ({"sizes": "44"}, "'sizes'"),
            ({"sizes": [4], "components": 1.9}, "'components'"),
            ({"sizes": [4], "components": True}, "'components'"),
            ({"sizes": [4], "phi_window": [-3.9, 3.9]}, "'phi_window'"),
            ({"sizes": [4], "phi_window": "09"}, "'phi_window'"),
            ({"sizes": [4], "p_window": [False, True]}, "'p_window'"),
            ({"sizes": [4], "components": 2, "masses": "12"}, "'masses'"),
            ({"sizes": [[4]]}, "'sizes'"),
            ({"sizes": [4], "phi_window": [[1], [2]]}, "'phi_window'"),
            ({"sizes": [4], "p_window": [-2, [2]]}, "'p_window'"),
            # values the spec itself rejects
            ({"sizes": [3]}, "side lengths must be positive and even, got 3"),
            ({"sizes": []}, "need at least one dimension"),
            ({"sizes": [4, 4], "stiffness": 1}, r"stiffness must lie in \(0, 1/2\]"),
            ({"sizes": [4], "stiffness": "-1/2"}, r"stiffness must lie in \(0, 1/1\]"),
            ({"sizes": [4], "masses": [-1]}, "masses must be nonnegative"),
            ({"sizes": [4], "components": 2, "masses": [0]}, "need one mass per component"),
            # at most components + 1 entries are parsed, so the count is named, not "x"
            ({"sizes": [4], "components": 1, "masses": [0, 0, "x"]}, "need one mass per component"),
        ],
    )
    def test_spec_entries_are_honoured_or_named(self, obj, named):
        with pytest.raises(ConfigError, match=named):
            spec_from_json(obj)

    def test_spec_components_are_capped_before_any_mass_is_read(self):
        assert spec_from_json({"sizes": [2], "components": fields.MAX_COMPONENTS}).components == fields.MAX_COMPONENTS
        # Masses that fail to parse would name 'masses': the cap comes first,
        # so a huge count costs one comparison.
        for obj in (
            {"sizes": [4], "components": fields.MAX_COMPONENTS + 1},
            {"sizes": [4], "components": 10**9, "masses": ["not a rational"]},
        ):
            with pytest.raises(ConfigError, match=f"'components' {obj['components']} exceeds the cap"):
                spec_from_json(obj)

    @pytest.mark.parametrize("dims, components", [(1, 1), (1, 2), (2, 2), (3, 1)])
    def test_spec_sizes_are_capped_by_their_sweep_plan(self, dims, components):
        # The plan gathers each component at 1 + d + d*d sites per sub-update,
        # so it holds about prod(sizes) * components**2 * (1 + d + d*d)
        # positions: the longest last side within the cap passes, the next
        # even side fails, and so does a list of 10**6 twos, each at once.
        per_side = 2 ** (dims - 1) * components**2 * (1 + dims + dims * dims)
        side = fields.MAX_PLAN_POSITIONS // per_side // 2 * 2
        obj = {"sizes": [2] * (dims - 1) + [side], "components": components}
        assert spec_from_json(obj).shape.sizes[-1] == side
        for sizes in (obj["sizes"][:-1] + [side + 2], [2] * 10**6):
            start = time.perf_counter()
            with pytest.raises(ConfigError, match=r"^field spec 'sizes' need a sweep plan past the cap MAX_PLAN_POSITIONS"):
                spec_from_json({**obj, "sizes": sizes})
            assert time.perf_counter() - start < 0.5

    def test_spec_without_sizes_rejected(self):
        with pytest.raises(ConfigError):
            spec_from_json({"components": 1})

    def test_state_repr_shows_its_time_and_shape(self):
        state = FieldState(np.zeros((2, 4, 6), dtype=np.int64), np.zeros((2, 4, 6), dtype=np.int64), time=-3)
        assert repr(state) == "FieldState(t=-3, shape=(2, 4, 6))"

    def test_state_round_trip(self):
        state = FieldState(np.array([[1, 2, 3, 4]]), np.array([[0, -1, 0, 1]]), time=5)
        again = state_from_json(state_to_json(state))
        assert states_equal(state, again)
        assert again.time == 5

    @pytest.mark.parametrize(
        "obj, named",
        [
            ({"phi": [[1.5, 0]], "mom": [[0, 0]]}, "phi"),
            ({"phi": [[1, 0]], "mom": [[0, True]]}, "mom"),
            ({"phi": [[1, 0]], "mom": [[0, 0]], "time": 2.0}, "time"),
            ({"phi": [[2**63, 0]], "mom": [[0, 0]]}, "'phi' entries must lie in int64"),
            ({"phi": [[1, 0]], "mom": [[0, -(2**63) - 1]]}, "'mom' entries must lie in int64"),
            ({"phi": [[1, 0]], "mom": [[0, 0, 0]]}, "field and momentum arrays must share a shape"),
            ({"phi": [1, 0], "mom": [0, 0]}, r"arrays must be \(components, \*sizes\)"),
        ],
    )
    def test_state_entries_must_be_integers(self, obj, named):
        with pytest.raises(ConfigError, match=named):
            state_from_json(obj)

    def test_nested_state_arrays_stay_accepted(self):
        state = state_from_json({"phi": [[[1, 2], [3, 4]]], "mom": [[[0, 0], [0, -1]]], "time": 3})
        assert state.phi.tolist() == [[[1, 2], [3, 4]]] and state.mom.shape == (1, 2, 2)
        with pytest.raises(ConfigError, match="'phi'"):
            state_from_json({"phi": [[[1, 2], [3, 4.0]]], "mom": [[[0, 0], [0, 0]]]})

    @pytest.mark.parametrize(
        "obj, named",
        [
            ({"older": [[0, 1]], "newer": [[0.5, 1]]}, "newer"),
            ({"older": [[0, 1]], "newer": [[0, 1, 2]]}, "layers must share a shape"),
            ({"older": [[0, 1]], "newer": [[0], [1]]}, "layers must share a shape"),
        ],
    )
    def test_layer_entries_must_be_integers(self, obj, named):
        with pytest.raises(ConfigError, match=named):
            layers_from_json(obj)
        state = layers_from_json({"older": [[0, 1]], "newer": [[2, 1]]})
        assert state.newer.tolist() == [[2, 1]]


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
    """The stepped arrays, or what the step raised and its cause."""
    try:
        after = stepper(state, spec)
    except IntHamError as exc:
        cause = exc.__cause__
        return (type(exc).__name__, str(exc), exc.field_site, type(cause).__name__, str(cause))
    return (after.phi.tolist(), after.mom.tolist())


MEMO_CASES = [
    (LINE8, (Fraction(0),)),
    (LINE8, (Fraction(1),)),
    (LINE8, (Fraction(0), Fraction(1, 2))),
    (GRID44, (Fraction(0),)),
    (GRID44, (Fraction(1, 2),)),
    (GRID44, (Fraction(0), Fraction(1, 2))),
]

RAW_KEY_CASES = [
    (LINE8, (Fraction(0),)),
    (GRID44, (Fraction(0), Fraction(1, 2))),
    (BOX442, (Fraction(1, 2), Fraction(0))),
]


def edge_state(spec, rng, near, momenta):
    """Field values within 2 of ``near`` times (window edge - 2), momenta in
    ``[-momenta, momenta]``, all clipped to the windows."""
    (lo, hi), (plo, phi_hi) = spec.phi_windows[0], spec.p_windows[0]
    centre = near * (hi - 2)
    shape = (spec.components, *spec.shape.sizes)
    count = int(np.prod(shape))
    phi = [min(hi, max(lo, centre + rng.randint(-2, 2))) for _ in range(count)]
    mom = [min(phi_hi, max(plo, rng.randint(-momenta, momenta))) for _ in range(count)]
    return FieldState(np.reshape(phi, shape), np.reshape(mom, shape))


def whole_window(spec, terms, k):
    """The pair's tables over its whole windows, from its local terms alone."""
    quads, _, _, kin0 = terms
    (qlo, qhi), (plo, phi_hi) = spec.phi_windows[k], spec.p_windows[k]
    pot = [sum(((a * v + b) * v + c) // spec._pot_den for a, b, c in quads) for v in range(qlo, qhi + 1)]
    kin = [(kin0 + spec._sn * u * u) // spec._kin_den for u in range(plo, phi_hi + 1)]
    return SeparableHamiltonian1D(IntegerFunction1D(plo, tuple(kin)), IntegerFunction1D(qlo, tuple(pot)))


def walk_outcome(mover, ham, q, p):
    """The image of one contour step, or what it raised."""
    try:
        return mover(ham, q, p)
    except IntHamError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "site", None))


def compare_band_with_whole(spec, state):
    """Check every pair's band tables against the whole-window oracle and
    return how many bands lay strictly inside the windows, how many touched
    an edge, and how many walks raised."""
    vals = state.phi.ravel().tolist() + state.mom.ravel().tolist()
    counts = [0, 0, 0]
    for x, k, terms in sub_update_terms(spec, vals):
        q, p = terms[1], terms[2]
        ham = restricted_hamiltonian(state, spec, x, k, _terms=terms)
        whole = whole_window(spec, terms, k)
        (qlo, qhi), (plo, phi_hi) = ham.q_window, ham.p_window
        (wqlo, wqhi), (wplo, wphi) = whole.q_window, whole.p_window
        # The band is a piece of the whole tables around the pair.
        assert wqlo <= qlo <= q <= qhi <= wqhi and wplo <= plo <= p <= phi_hi <= wphi
        assert all(ham.value(v, u) == whole.value(v, u)
                   for v in range(qlo, qhi + 1) for u in range(plo, phi_hi + 1))
        inside = wqlo < qlo and qhi < wqhi and wplo < plo and phi_hi < wphi
        energy = ham.value(q, p)
        # a band strictly inside the windows carries its level as its proof
        assert ham._closure_level == (energy if inside else None)
        unproven = SeparableHamiltonian1D(ham.kinetic, ham.potential)
        for mover in (contours.next_site, contours.prev_site):
            expected = walk_outcome(mover, whole, q, p)
            assert walk_outcome(mover, ham, q, p) == expected == walk_outcome(mover, unproven, q, p)
            counts[2] += isinstance(expected[0], str)
        if inside:
            # The proof the sweep relies on: every edge row and column
            # of a band strictly inside the windows lies above the level.
            edge = [(v, u) for v in (qlo, qhi) for u in range(plo, phi_hi + 1)]
            edge += [(v, u) for u in (plo, phi_hi) for v in range(qlo, qhi + 1)]
            assert min(ham.value(*site) for site in edge) > energy
        counts[not inside] += 1
    return tuple(counts)


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
        # repeat the start's up to that translation: a massless line record
        # serves them, every other record keys on absolute values.
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

    @given(
        case=st.sampled_from(MEMO_CASES),
        width=st.sampled_from([5, 6, 7, 8, 9, 40]),
        near=st.sampled_from([-1, 0, 1]),
        momenta=st.sampled_from([2, 9]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_band_walks_equal_whole_window_walks(self, case, width, near, momenta, seed):
        # States crowd one window edge (near = +-1) or the middle, so scans
        # meet edges and walks escape; in the middle of +-40 every band lies
        # strictly inside.
        shape, masses = case
        spec = fresh_spec(shape, masses, (-width, width))
        _, touching, errors = compare_band_with_whole(spec, edge_state(spec, random.Random(seed), near, momenta))
        if width == 40 and near == 0:
            assert touching == errors == 0

    def test_edge_states_meet_window_edges(self):
        # The comparison above reaches every outcome: bands strictly inside,
        # bands touching an edge, and walks that escape there.
        totals = [0, 0, 0]
        for seed in range(6):
            for case in MEMO_CASES:
                spec = fresh_spec(*case, (-6, 6))
                state = edge_state(spec, random.Random(seed), 1 - 2 * (seed % 2), 9)
                totals = [t + c for t, c in zip(totals, compare_band_with_whole(spec, state))]
        assert min(totals) > 0

    @pytest.mark.parametrize("shape, masses", MEMO_CASES)
    def test_forward_steps_store_every_inverse_sub_update(self, monkeypatch, shape, masses):
        # Each forward miss stores its entry and then its mirror, the key of
        # the momentum-flipped stepped state.  Inverting that sub-update
        # flips the momenta and looks that key up, so the inverse steps look
        # up every mirror; each of their lookups hits a key the forward steps
        # stored, a mirror or an entry that coincides with one.
        spec = fresh_spec(shape, masses, (-64, 64))
        stores, lookups = [], []

        class RecordingMemo(OrderedDict):
            def __setitem__(self, key, value):
                stores.append(key)
                super().__setitem__(key, value)

            def get(self, key):
                lookups.append(key)
                return super().get(key)

        object.__setattr__(spec, "_memo", RecordingMemo())
        start = random_state(spec, random.Random(5), -3, 3)
        state = start
        for _ in range(3):
            state = step(state, spec)
        mirrors = set(stores[1::2])
        lookups.clear()
        misses = []
        original = fields.restricted_hamiltonian
        monkeypatch.setattr(
            fields, "restricted_hamiltonian",
            lambda *args, **kw: misses.append(args[2]) or original(*args, **kw),
        )
        for _ in range(3):
            state = step_inverse(state, spec)
        assert misses == []
        assert len(lookups) == 3 * len(masses) * math.prod(shape.sizes)
        assert mirrors <= set(lookups) <= set(stores)
        assert states_equal(state, start)

    @given(
        case=st.sampled_from(MEMO_CASES),
        seed=st.integers(0, 2**32 - 1),
        offset=st.integers(-7, 7),
    )
    @settings(max_examples=30, deadline=None)
    def test_forward_warmed_memo_inverts_like_a_cold_one(self, case, seed, offset):
        # Inverse entries stored by forward steps serve step_inverse; the
        # translated copies put massless neighbourhoods near the +-8 window,
        # where bands clamp and the cold path must raise the same errors.
        shape, masses = case
        window = (-8, 8)
        warm = fresh_spec(shape, masses, window)
        start = random_state(warm, random.Random(seed), -2, 2)
        states = [start]
        for _ in range(3):
            try:
                states.append(step(states[-1], warm))
            except IntHamError:
                break
        for state in states[1:]:
            moved = FieldState(np.clip(state.phi + offset, *window), state.mom)
            for case_state in (state, moved):
                expected = outcome(step_inverse, case_state, fresh_spec(shape, masses, window))
                assert outcome(step_inverse, case_state, warm) == expected
        for state, before in zip(states[:0:-1], states[-2::-1]):
            assert states_equal(step_inverse(state, warm), before, include_time=False)

    @given(
        case=st.sampled_from(RAW_KEY_CASES),
        seed=st.integers(0, 2**32 - 1),
        offset=st.integers(-6, 6),
    )
    @settings(max_examples=30, deadline=None)
    def test_raw_key_serves_only_exact_repeats(self, case, seed, offset):
        # The memo is keyed on the raw values a sub-update reads.  After
        # warming it on one state, step: a translate of the massless
        # components (repeats up to the shift on a line), a copy with the
        # other components' values negated (equal frozen sums, other raw
        # values), and translates that push stored bands past the +-8 window.
        shape, masses = case
        window = (-8, 8)
        warm = fresh_spec(shape, masses, window)
        start = random_state(warm, random.Random(seed), -2, 2)
        for stepper in (step, step_inverse):
            outcome(stepper, start, warm)
        massless = np.array([not m for m in masses]).reshape(-1, *(1,) * shape.dimensions)
        top = window[1] - int(start.phi.max())
        states = [FieldState(start.phi + shift * massless, start.mom) for shift in (offset, top)]
        for j in range(len(masses)):
            flip = np.ones_like(start.phi)
            flip[j] = -1
            states.append(FieldState(start.phi * flip, start.mom * flip))
        for state in states:
            for stepper, reference in ((step, reference_step),) * 2 + (
                (step_inverse, reference_step_inverse),
            ) * 2:
                expected = outcome(reference, state, fresh_spec(shape, masses, window))
                assert outcome(stepper, state, warm) == expected
                if isinstance(expected[0], str):
                    break
                state = stepper(state, warm)

    @pytest.mark.parametrize("shape", [LINE8, GRID44], ids=["1-D", "2-D"])
    def test_every_miss_and_no_hit_reaches_the_traced_layers(self, monkeypatch, shape):
        # The per-layer trace rebinds these module globals, so every memo
        # miss must call them and no hit may.  With wide windows every band
        # closes, and a miss stores its entry and its mirror: two stores.
        spec = fresh_spec(shape, (Fraction(0), Fraction(1, 2)), (-64, 64))
        stores = []

        class CountingMemo(OrderedDict):
            def __setitem__(self, key, value):
                stores.append(key)
                super().__setitem__(key, value)

        object.__setattr__(spec, "_memo", CountingMemo())
        calls = Counter()

        def counting(name, original):
            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return counted

        for name in ("restricted_hamiltonian", "next_site", "prev_site"):
            monkeypatch.setattr(fields, name, counting(name, getattr(fields, name)))
        state = random_state(spec, random.Random(3), -3, 3)
        misses = []
        for stepper in (step, step, step_inverse, step_inverse, step_inverse, step, step):
            calls.clear()
            stores.clear()
            state = stepper(state, spec)
            assert len(stores) % 2 == 0
            mover, idle = ("next_site", "prev_site") if stepper is step else ("prev_site", "next_site")
            assert calls["restricted_hamiltonian"] == calls[mover] == len(stores) // 2
            assert calls[idle] == 0
            misses.append(len(stores) // 2)
        # forward misses, inverse steps served by their mirrors, misses past
        # the start, and forward steps served again
        assert misses[0] > 0 and misses[4] > 0
        assert misses[2:4] == misses[5:] == [0, 0]

    @pytest.mark.parametrize(
        "shape, masses",
        [
            (LINE8, (Fraction(0),)),
            (LINE8, (Fraction(0), Fraction(1, 2))),
            (GRID44, (Fraction(0), Fraction(1, 2))),
            (GRID44, (Fraction(1, 2), Fraction(1))),
        ],
        ids=["1-D massless", "1-D masses 0 and 1/2", "2-D masses 0 and 1/2", "2-D all massive"],
    )
    def test_every_mirror_key_is_the_key_at_the_stepped_state(self, shape, masses):
        # A massless record on a line builds its key from its gather and its
        # two neighbour reads relative to x, every other record from its
        # gather alone; keys carry no direction.  An inverse step runs the
        # forward kernel on the momentum-flipped state R(phi, mom) = (phi,
        # -mom), so the list a sweep reads is the state in a forward step and
        # R of it in an inverse one.  Each stored key must equal the generic
        # key worked out here from the lattice: a forward key on the list the
        # sub-update reads, and then its mirror, the key at R of the stepped
        # list, whose entry steps back to R of the pair.  On a line with one
        # component the gather reads the momentum alone, as an int.
        spec = fresh_spec(shape, masses, (-64, 64))
        n, kk = int(np.prod(shape.sizes)), len(masses)
        seen = {}

        def flat(x):
            return int(np.ravel_multi_index(x, shape.sizes))

        def reflect(vals):
            return vals[: kk * n] + [-v for v in vals[kk * n:]]

        def watched(sub):
            x, k, gather, qi, pi, line, layout = sub

            def gather_seen(vals):
                if "first" not in seen:
                    seen["first"] = list(vals)
                seen["pair"] = (list(vals), sub)
                return gather(vals)

            return (x, k, gather_seen, qi, pi, line, layout)

        def generic_key(vals, sub):
            x, k = sub[:2]
            axes = range(shape.dimensions)
            reads = [x, *(shape.shift(x, a, 1) for a in axes)]
            for a in axes:
                w = shape.shift(x, a, -1)
                reads += [w, *(shape.shift(w, b, 1) for b in axes if b != a)]
            others = [j for j in range(kk) if j != k]
            values = [vals[(kk + j) * n + flat(x)] for j in (k, *others)]
            values += [vals[j * n + flat(s)] for j in others for s in reads]
            centre = vals[k * n + flat(x)]
            if shape.dimensions == 1 and not masses[k]:
                gathered = values[0] if len(values) == 1 else tuple(values)
                return (k, gathered, *(vals[k * n + flat(s)] - centre for s in reads[1:]))
            return (k, (*values, *(vals[k * n + flat(s)] for s in reads)))

        entries, orders, lo, hi = fields._plan(spec)
        lines = [bool(sub[5]) for e in entries for sub in e[2]]
        assert lines == [shape.dimensions == 1 and not m for _ in entries for m in masses]
        swap = {id(sub): watched(sub) for e in entries for sub in e[2]}
        entries = [(*e[:2], tuple(swap[id(sub)] for sub in e[2])) for e in entries]
        orders = tuple([swap[id(sub)] for sub in order] for order in orders)
        object.__setattr__(spec, "_plan", (entries, orders, lo, hi))
        forward_keys, mirrors, pending = [], [], []
        stored = Counter()
        inverse = [False]

        class MirrorCheckingMemo(OrderedDict):
            def __setitem__(self, key, value):
                if pending:  # the second store of a miss
                    before, stepped, sub = pending.pop()
                    qi, pi, line = sub[3], sub[4], sub[5]
                    assert key == generic_key(reflect(stepped), sub)
                    shift = stepped[qi] if line else 0
                    assert value[:2] == (before[qi] - shift, -before[pi])
                    mirrors.append(key)
                else:
                    before, sub = seen["pair"]
                    qi, pi, line = sub[3], sub[4], sub[5]
                    assert key == generic_key(before, sub)
                    shift = before[qi] if line else 0
                    stepped = list(before)
                    stepped[qi], stepped[pi] = value[0] + shift, value[1]
                    pending.append((before, stepped, sub))
                    forward_keys.append(key)
                    stored[inverse[0]] += 1
                super().__setitem__(key, value)

        object.__setattr__(spec, "_memo", MirrorCheckingMemo())
        state = random_state(spec, random.Random(3), -3, 3)
        for stepper in (step, step, step_inverse, step_inverse, step_inverse, step, step):
            inverse[0] = stepper is step_inverse
            seen.pop("first", None)
            vals = state.phi.ravel().tolist() + state.mom.ravel().tolist()
            after = stepper(state, spec)
            assert seen["first"] == (reflect(vals) if inverse[0] else vals)
            state = after
        assert not pending and len(mirrors) == len(forward_keys) > 0
        assert stored[False] > 0 and stored[True] > 0  # misses in both directions
        assert isinstance(mirrors[0][1], int) == (len(masses) == 1)

    @pytest.mark.parametrize("shape", [LatticeShape((4,)), GRID44, LatticeShape((4, 4, 4))], ids=["1-D", "2-D", "3-D"])
    @pytest.mark.parametrize(
        "masses",
        [(Fraction(0),), (Fraction(1),), (Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(0), Fraction(1))],
        ids=["massless", "massive", "masses 0 and 1/2", "masses 1/2, 0 and 1"],
    )
    def test_every_key_reads_every_position_its_local_rule_reads(self, shape, masses):
        # A memo key fixes the local rule only if it reads every position
        # :func:`fields._local_terms` reads: the pair, each density's
        # centres, pairs and masses, and the other momenta.  A massless
        # record on a line reads its two line positions relative to x, so
        # x itself counts as read there.  Every side is 4, so no two of the
        # sites a sub-update reads coincide and a dropped position shows.
        spec = fresh_spec(shape, masses, (-64, 64))
        size = 2 * len(masses) * int(np.prod(shape.sizes))

        class Reads(list):
            def __init__(self):
                super().__init__(range(size))
                self.seen = set()

            def __getitem__(self, i):
                self.seen.add(i)
                return super().__getitem__(i)

        records = [sub for e in fields._plan(spec)[0] for sub in e[2]]
        assert len(records) == size // 2
        for x, k, gather, qi, pi, line, layout in records:
            rule = Reads()
            fields._local_terms(spec, rule, layout, qi, pi)
            key = Reads()
            gather(key)
            if line:
                assert shape.dimensions == 1 and not masses[k]
                key.seen |= {*line, qi}
            assert {qi, pi} <= rule.seen, (x, k)
            assert rule.seen <= key.seen, (x, k, sorted(rule.seen - key.seen))

    def test_a_line_serves_translates_from_its_memo(self, monkeypatch):
        # A massless line record keys on its neighbours relative to x, so
        # once a state has stepped forward and back, its translate by a
        # constant, away from the window edges, steps both ways on hits alone.
        spec = fresh_spec(LINE16, (Fraction(0),), (-64, 64))
        start = random_state(spec, random.Random(11), -3, 3)
        assert states_equal(step_inverse(step(start, spec), spec), start)
        moved = FieldState(start.phi + 20, start.mom)
        expected = step(moved, fresh_spec(LINE16, (Fraction(0),), (-64, 64)))
        misses = []
        original = fields.restricted_hamiltonian
        monkeypatch.setattr(
            fields, "restricted_hamiltonian",
            lambda *args, **kw: misses.append(args[2]) or original(*args, **kw),
        )
        after = step(moved, spec)
        back = step_inverse(after, spec)
        assert misses == []
        assert states_equal(after, expected)
        assert not states_equal(after, moved, include_time=False)
        assert states_equal(back, moved)

    def test_memo_stays_under_its_cap(self, monkeypatch):
        monkeypatch.setattr(fields, "_MEMO_CAP", 80)
        spec = fresh_spec(LINE16, (Fraction(0),), (-64, 64))
        start = random_state(spec, random.Random(7), -3, 3)
        state = start
        for _ in range(40):
            expected = step(state, fresh_spec(LINE16, (Fraction(0),), (-64, 64)))
            newest = list(spec._memo)[-48:]
            state = step(state, spec)
            assert states_equal(state, expected)
            assert 0 < len(spec._memo) <= 80
            # A step stores at most 32 keys (each miss adds its inverse), so
            # at the cap it drops only the oldest entries and the 48 newest
            # stay servable.
            assert set(newest) <= spec._memo.keys()
        assert len(spec._memo) == 80
        for _ in range(40):
            state = step_inverse(state, spec)
        assert states_equal(state, start)


# -- flat sweep kernel ----------------------------------------------------------


def reference_density(spec, state, x):
    """Energy density at x straight from its definition, in Fractions:
    floor(s/2 * (squared forward gradients + m^2 phi^2)) + floor(s/2 * p^2)."""
    shape = spec.shape
    pot = kin = Fraction(0)
    for k, mass in enumerate(spec.masses):
        center = int(state.phi[(k, *x)])
        for axis in range(shape.dimensions):
            pot += (int(state.phi[(k, *shape.shift(x, axis, 1))]) - center) ** 2
        pot += mass * mass * center * center
        kin += int(state.mom[(k, *x)]) ** 2
    half = spec.stiffness / 2
    return math.floor(half * pot) + math.floor(half * kin)


def check_windows(state, spec):
    """The entry check the steppers make, written out per value."""
    for k in range(spec.components):
        for name, values, (lo, hi) in (
            ("field", state.phi, spec.phi_windows[k]),
            ("momentum", state.mom, spec.p_windows[k]),
        ):
            for x in spec.shape.sites():
                v = int(values[(k, *x)])
                if not lo <= v <= hi:
                    exc = WindowExceeded(
                        f"{name} value {v} of component {k} at site {x} "
                        f"outside window [{lo}, {hi}]",
                        argument=v,
                    )
                    exc.field_site = (x, k)
                    raise exc


def reference_sweeps(state, spec, parities, inverse, order=None):
    """One public ``restricted_hamiltonian`` and one contour step per
    (site, component), in the sweep order, on numpy copies of the state."""
    check_windows(state, spec)
    shape = spec.shape
    phi, mom = state.phi.copy(), state.mom.copy()
    mover = contours.prev_site if inverse else contours.next_site
    components = list(range(spec.components))[:: -1 if inverse else 1]
    for parity in parities:
        sites = order or [x for x in shape.sites() if shape.parity(x) == parity]
        for x in sites[::-1] if inverse else sites:
            for k in components:
                ham = restricted_hamiltonian(FieldState(phi, mom), spec, x, k)
                try:
                    q, p = mover(ham, int(phi[(k, *x)]), int(mom[(k, *x)]))
                except IntHamError as exc:
                    exc.field_site = (x, k)
                    raise
                phi[(k, *x)] = q
                mom[(k, *x)] = p
    return FieldState(phi, mom)


def reference_step(state, spec):
    return reference_sweeps(state, spec, (0, 1), False)


def reference_step_inverse(state, spec):
    return reference_sweeps(state, spec, (1, 0), True)


def kernel_spec(shape, masses, window, scale=Fraction(1)):
    return FieldHamiltonianSpec(
        shape,
        len(masses),
        masses,
        scale / shape.dimensions,
        (window,) * len(masses),
        (window,) * len(masses),
    )


MASS_CHOICES = [Fraction(0), Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2, 3)]


class TestFlatKernel:
    @given(
        shape=st.sampled_from([LINE8, GRID44, BOX442]),
        masses=st.lists(st.sampled_from(MASS_CHOICES), min_size=1, max_size=3).map(tuple),
        window=st.sampled_from([(-4, 4), (-6, 6), (-40, 40)]),
        scale=st.sampled_from([Fraction(1), Fraction(2, 3)]),
        spread=st.sampled_from([2, 5]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_steps_match_the_per_pair_reference(self, shape, masses, window, scale, spread, seed):
        spec = kernel_spec(shape, masses, window, scale)
        start = random_state(spec, random.Random(seed), -spread, spread)
        state = start
        for stepper, reference in ((step, reference_step),) * 3 + (
            (step_inverse, reference_step_inverse),
        ) * 3:
            expected = outcome(reference, state, kernel_spec(shape, masses, window, scale))
            assert outcome(stepper, state, spec) == expected
            if isinstance(expected[0], str):
                return
            state = stepper(state, spec)
        assert states_equal(state, start)

    @given(
        masses=st.sampled_from([(Fraction(0),), (Fraction(1, 2),), (Fraction(0), Fraction(1))]),
        parity=st.integers(0, 1),
        inverse=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_planar_site_order_is_replayed_as_given(self, masses, parity, inverse, seed):
        rng = random.Random(seed)
        spec = kernel_spec(GRID44, masses, (-40, 40))
        state = random_state(spec, rng, -3, 3)
        order = [x for x in GRID44.sites() if GRID44.parity(x) == parity]
        rng.shuffle(order)
        got = step_parity(state, spec, parity, inverse, site_order=order)
        expected = reference_sweeps(state, kernel_spec(GRID44, masses, (-40, 40)), (parity,), inverse, order)
        assert states_equal(got, expected, include_time=False)

    def test_site_order_must_be_the_parity_class(self):
        spec = kernel_spec(GRID44, (Fraction(0),), (-40, 40))
        state = random_state(spec, random.Random(3))
        evens = [x for x in GRID44.sites() if GRID44.parity(x) == 0]
        for order in (evens[1:], evens[1:] + [(0, 1)], evens + [(0, 0)]):
            with pytest.raises(ValueError):
                step_parity(state, spec, 0, site_order=order)

    def test_energies_match_the_density_definition(self):
        rng = random.Random(12)
        for shape, masses, scale in (
            (LINE8, (Fraction(0), Fraction(1, 3)), Fraction(1, 2)),
            (GRID44, (Fraction(2, 3),), Fraction(1)),
            (BOX442, (Fraction(1), Fraction(0), Fraction(3, 2)), Fraction(3, 5)),
        ):
            spec = kernel_spec(shape, masses, (-64, 64), scale)
            for _ in range(5):
                state = random_state(spec, rng, -9, 9)
                densities = [reference_density(spec, state, x) for x in shape.sites()]
                assert [site_energy(state, spec, x) for x in shape.sites()] == densities
                assert total_energy(state, spec) == sum(densities)


TABLE_CASES = [
    (LINE8, (Fraction(0),), Fraction(1)),
    (LINE8, (Fraction(1, 2), Fraction(0)), Fraction(1, 2)),
    (GRID44, (Fraction(2, 3),), Fraction(1, 3)),
    (GRID44, (Fraction(0), Fraction(1, 2)), Fraction(1, 2)),
    (BOX442, (Fraction(0), Fraction(3, 2), Fraction(1, 3)), Fraction(2, 9)),
]


class TestRestrictedTables:
    @given(
        case=st.sampled_from(TABLE_CASES),
        window=st.sampled_from([(-5, 5), (-64, 64)]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_tables_are_total_energy_differences(self, case, window, seed):
        # Moving one value across its band changes the total energy by the
        # table difference, measured without the tables' quadratic form.
        shape, masses, stiffness = case
        spec = FieldHamiltonianSpec(
            shape, len(masses), masses, stiffness,
            (window,) * len(masses), (window,) * len(masses),
        )
        rng = random.Random(seed)
        state = random_state(spec, rng, -4, 4)
        x = tuple(rng.randrange(s) for s in shape.sizes)
        k = rng.randrange(spec.components)
        ham = restricted_hamiltonian(state, spec, x, k)
        base = total_energy(state, spec)
        q, p = int(state.phi[(k, *x)]), int(state.mom[(k, *x)])
        for values, table, own in (
            ("phi", ham.potential, q),
            ("mom", ham.kinetic, p),
        ):
            lo, hi = table.window
            assert lo <= own <= hi
            for v in range(lo, hi + 1):
                arrays = {"phi": state.phi.copy(), "mom": state.mom.copy()}
                arrays[values][(k, *x)] = v
                moved = total_energy(FieldState(arrays["phi"], arrays["mom"]), spec)
                assert moved - base == table(v) - table(own)


class TestEntryValidation:
    def narrow(self):
        return FieldHamiltonianSpec(
            GRID44, 2, (Fraction(0), Fraction(1, 2)), Fraction(1, 2),
            ((-8, 8), (-6, 6)), ((-5, 5), (-7, 7)),
        )

    @pytest.mark.parametrize(
        "array,k,x,value,message",
        [
            ("phi", 0, (1, 2), 9, "field value 9 of component 0 at site (1, 2) outside window [-8, 8]"),
            ("phi", 1, (3, 0), -7, "field value -7 of component 1 at site (3, 0) outside window [-6, 6]"),
            ("mom", 0, (0, 1), 6, "momentum value 6 of component 0 at site (0, 1) outside window [-5, 5]"),
            ("mom", 1, (2, 3), -8, "momentum value -8 of component 1 at site (2, 3) outside window [-7, 7]"),
        ],
    )
    def test_every_stepper_rejects_the_state_before_sweeping(
        self, monkeypatch, array, k, x, value, message
    ):
        spec = self.narrow()
        state = random_state(spec, random.Random(4), -2, 2)
        arrays = {"phi": state.phi.copy(), "mom": state.mom.copy()}
        arrays[array][(k, *x)] = value
        bad = FieldState(arrays["phi"], arrays["mom"])
        calls = []
        monkeypatch.setattr(fields, "restricted_hamiltonian", lambda *a, **kw: calls.append(a))
        # Every x here has parity 1, so step_parity(0) finds the bad value
        # among the frozen neighbours of its sweep.
        for stepper in (
            step,
            step_inverse,
            lambda s, sp: step_parity(s, sp, 0),
            lambda s, sp: step_parity(s, sp, 1, inverse=True),
        ):
            with pytest.raises(WindowExceeded) as err:
                stepper(bad, spec)
            assert str(err.value) == message
            assert err.value.field_site == (x, k)
            assert err.value.argument == value
        assert calls == []

    def test_values_on_the_window_edges_reach_the_first_sub_update(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        monkeypatch.setattr(fields, "restricted_hamiltonian", reached)
        spec = FieldHamiltonianSpec.uniform(LINE16, phi_window=(-4, 4), p_window=(-3, 3))
        state = FieldState(np.array([[4, -4] * 8]), np.array([[3, -3, 0, 0] * 4]))
        for stepper in (step, step_inverse):
            with pytest.raises(Reached):
                stepper(state, spec)


class TestHigherDimensions:
    @pytest.mark.parametrize(
        "shape,masses,stiffness",
        [
            (GRID44, (Fraction(0), Fraction(1, 2)), Fraction(1, 2)),
            (BOX442, (Fraction(0),), Fraction(1, 3)),
            (BOX442, (Fraction(1, 2), Fraction(0)), Fraction(1, 4)),
        ],
    )
    def test_long_runs_conserve_and_return_exactly(self, shape, masses, stiffness):
        spec = FieldHamiltonianSpec(
            shape, len(masses), masses, stiffness,
            ((-64, 64),) * len(masses), ((-64, 64),) * len(masses),
        )
        start = random_state(spec, random.Random(2026), -3, 3)
        energy = total_energy(start, spec)
        state = start
        for _ in range(50):
            state = step(state, spec)
            assert total_energy(state, spec) == energy
        assert not states_equal(state, start, include_time=False)
        for _ in range(50):
            state = step_inverse(state, spec)
        assert states_equal(state, start)

    @pytest.mark.parametrize(
        "sizes,masses,steps",
        [((8, 8), (Fraction(0), Fraction(1, 2)), 6), ((8, 8, 8), (Fraction(0),), 3)],
    )
    def test_light_cone_grows_at_most_one_diagonal_per_half_sweep(self, sizes, masses, steps):
        shape = LatticeShape(sizes)
        spec = FieldHamiltonianSpec(
            shape, len(masses), masses, Fraction(1, len(sizes)),
            ((-64, 64),) * len(masses), ((-64, 64),) * len(masses),
        )
        base = random_state(spec, random.Random(77), -3, 3)
        origin = tuple(s // 2 for s in sizes)
        phi = base.phi.copy()
        phi[(0, *origin)] += 1
        a, b = base, FieldState(phi, base.mom)
        radii = []
        for _ in range(steps):
            for parity in (0, 1):
                a = step_parity(a, spec, parity)
                b = step_parity(b, spec, parity)
                radii.append(diagonal_radius(shape, origin, diff_sites(a, b)))
        assert all(r <= n for n, r in enumerate(radii, start=1))
        assert radii[-1] > 0


# -- what a step reads and writes once per op ------------------------------------


def parent_construction(state, spec, time):
    """The stepped values as the public constructor builds them from one flat
    list: ``FieldState(np.reshape(vals, ...))``."""
    vals = state.phi.ravel().tolist() + state.mom.ravel().tolist()
    phi, mom = np.reshape(vals, (2, spec.components, *spec.shape.sizes))
    return FieldState(phi, mom, time)


class TestStepOutput:
    @given(
        case=st.sampled_from([
            (LINE8, (Fraction(0),)),
            (LINE8, (Fraction(1, 2),)),
            (GRID44, (Fraction(0),)),
            (GRID44, (Fraction(0), Fraction(1, 2))),
            (GRID44, (Fraction(1), Fraction(2, 3))),
        ]),
        seed=st.integers(0, 2**32 - 1),
        time=st.integers(-5, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_steps_return_fresh_read_only_int64_states(self, case, seed, time):
        shape, masses = case
        rng = random.Random(seed)
        spec = kernel_spec(shape, masses, (-40, 40))
        sizes = (len(masses), *shape.sizes)
        phi0 = np.array([rng.randint(-3, 3) for _ in range(int(np.prod(sizes)))]).reshape(sizes)
        mom0 = np.array([rng.randint(-3, 3) for _ in range(int(np.prod(sizes)))]).reshape(sizes)
        state = FieldState(phi0, mom0, time)
        parity = rng.randrange(2)
        order = [x for x in shape.sites() if shape.parity(x) == parity]
        rng.shuffle(order)
        cases = [
            (step(state, spec), reference_step(state, spec), time + 1),
            (step_inverse(state, spec), reference_step_inverse(state, spec), time - 1),
        ]
        for inverse in (False, True):
            cases.append((
                step_parity(state, spec, parity, inverse),
                reference_sweeps(state, spec, (parity,), inverse),
                time,
            ))
            cases.append((
                step_parity(state, spec, parity, inverse, site_order=order),
                reference_sweeps(state, spec, (parity,), inverse, order),
                time,
            ))
        snapshots = [(got.phi.copy(), got.mom.copy()) for got, _, _ in cases]
        phi0 += 7
        mom0 -= 7
        for (got, reference, t), (phi, mom) in zip(cases, snapshots):
            assert states_equal(got, parent_construction(reference, spec, t))
            assert type(got.time) is int and got.time == t
            for array, before in ((got.phi, phi), (got.mom, mom)):
                assert array.dtype == np.int64 and array.shape == sizes
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[(0,) * array.ndim] = 1
                with pytest.raises(ValueError):
                    array.setflags(write=True)
                assert not np.shares_memory(array, state.phi) and not np.shares_memory(array, state.mom)
                assert np.array_equal(array, before)  # the sources moved, the result did not

    def test_windows_wider_than_int64_round_trip_exactly(self):
        huge = (-(2**70), 2**70)
        spec = FieldHamiltonianSpec.uniform(LINE16, phi_window=huge, p_window=huge)
        narrow = FieldHamiltonianSpec.uniform(LINE16, phi_window=(-64, 64), p_window=(-64, 64))
        start = random_state(spec, random.Random(70), -3, 3)
        state = start
        for _ in range(6):
            state, expected = step(state, spec), step(state, narrow)
            assert states_equal(state, expected)
            assert state.phi.dtype == np.int64
        assert not states_equal(state, start, include_time=False)
        for _ in range(6):
            state = step_inverse(state, spec)
        assert states_equal(state, start)

    def test_a_narrow_window_beside_a_wide_one_is_still_named(self):
        # Component 0's windows are wider than int64; component 1's are the
        # narrow ones of TestEntryValidation.  A value outside the window of
        # component 1 still raises the pinned message and field_site, and one
        # outside component 1's windows but inside component 0's is stepped.
        huge = (-(2**70), 2**70)
        spec = FieldHamiltonianSpec(
            GRID44, 2, (Fraction(0), Fraction(1, 2)), Fraction(1, 2), (huge, (-6, 6)), (huge, (-7, 7)),
        )
        state = random_state(spec, random.Random(4), -2, 2)
        phi = state.phi.copy()
        phi[(1, 3, 0)] = -7
        for stepper in (step, step_inverse):
            with pytest.raises(WindowExceeded) as err:
                stepper(FieldState(phi, state.mom), spec)
            assert str(err.value) == "field value -7 of component 1 at site (3, 0) outside window [-6, 6]"
            assert err.value.field_site == ((3, 0), 1)
            assert err.value.argument == -7
        phi = state.phi.copy()
        phi[(0, 3, 0)] = 9  # outside every window of component 1, inside component 0's
        wide = FieldState(phi, state.mom)
        for stepper, reference in ((step, reference_step), (step_inverse, reference_step_inverse)):
            assert outcome(stepper, wide, spec) == outcome(reference, wide, spec)

    def test_values_past_int64_are_named_errors(self):
        # Windows wider than int64 let a step carry a value past it: the step
        # names the value's site, component and kind, and a state entry past
        # int64 is a ConfigError naming its key.
        huge = (-(2**70), 2**70)
        spec = FieldHamiltonianSpec.uniform(LatticeShape((4,)), phi_window=huge, p_window=huge)
        top = 2**63 - 1
        for stepper, start, momentum, past in ((step, top - 2, 5, top + 1), (step_inverse, 1 - top, 5, -top - 2)):
            state = FieldState([[start] * 4], [[momentum] * 4])
            for _ in range(2):
                state = stepper(state, spec)
            with pytest.raises(WindowExceeded) as err:
                stepper(state, spec)
            assert str(err.value) == (
                f"field value {past} of component 0 at site (0,) outside int64 [{-top - 1}, {top}]"
            )
            assert err.value.field_site == ((0,), 0)
            assert err.value.argument == past
        for key in ("phi", "mom"):
            for value in (top + 1, -top - 2):
                obj = {"phi": [[0, 0]], "mom": [[0, 0]], key: [[1, value]]}
                with pytest.raises(ConfigError, match=f"^'{key}' entries must lie in int64"):
                    state_from_json(obj)
        assert states_equal(state_from_json({"phi": [[top, -top - 1]], "mom": [[0, 0]]}),
                            FieldState([[top, -top - 1]], [[0, 0]]))

    @pytest.mark.parametrize(
        "window, phi, mom, sites, message",
        [
            # momenta near 2**63 inside windows wider than int64: a level near 2**126
            ((-(2**70), 2**70), [0, 3, 0, 3], [2**63 - 2, 0, 2**63 - 2, 0], {(0,), (2,)},
             f"contour band from 0 passes {MAX_WINDOW} field values toward {-(2**70)}"),
            # columns within the budget, momenta past it
            ((-(2**20), 2**20), [0, 0, 0, 0], [2**18 + 10, 0, 0, 0], {(0,)},
             f"contour band at level 34362359858 needs momenta [{-MAX_WINDOW - 11}, {MAX_WINDOW + 11}], past +-{MAX_WINDOW}"),
        ],
    )
    def test_a_band_past_the_scan_budget_raises_a_named_error(self, window, phi, mom, sites, message):
        spec = FieldHamiltonianSpec.uniform(LatticeShape((4,)), phi_window=window, p_window=window)
        for stepper in (step, step_inverse):
            start = time.perf_counter()
            with pytest.raises(WindowExceeded) as err:
                stepper(FieldState([phi], [mom]), spec)
            assert time.perf_counter() - start < 5
            assert str(err.value) == message
            assert err.value.field_site[0] in sites and err.value.field_site[1] == 0
        with pytest.raises(WindowExceeded) as err:  # the public restriction of the first pair stepped
            restricted_hamiltonian(FieldState([phi], [mom]), spec, [0], 0)
        assert str(err.value) == message
        assert err.value.field_site == ((0,), 0)

    def test_the_momentum_budget_admits_exactly_two_max_window_plus_one_momenta(self):
        # At momentum MAX_WINDOW the rows +-s sit at +-(MAX_WINDOW + 1): a
        # window [-MAX_WINDOW, MAX_WINDOW] clips the band to 2*MAX_WINDOW + 1
        # momenta, the budget, and one more momentum past it is refused.
        state = FieldState([[0] * 4], [[MAX_WINDOW, 0, 0, 0]])
        wide = (-(2**20), 2**20)
        spec = FieldHamiltonianSpec.uniform(LatticeShape((4,)), phi_window=wide, p_window=(-MAX_WINDOW, MAX_WINDOW))
        assert restricted_hamiltonian(state, spec, (0,), 0).p_window == (-MAX_WINDOW, MAX_WINDOW)
        spec = FieldHamiltonianSpec.uniform(LatticeShape((4,)), phi_window=wide, p_window=(-MAX_WINDOW, MAX_WINDOW + 1))
        message = f"contour band at level {MAX_WINDOW**2 // 2} needs momenta [{-MAX_WINDOW}, {MAX_WINDOW + 1}], past +-{MAX_WINDOW}"
        for call in (step, step_inverse, lambda s, sp: restricted_hamiltonian(s, sp, (0,), 0)):
            with pytest.raises(WindowExceeded) as err:
                call(state, spec)
            assert str(err.value) == message
            assert err.value.field_site == ((0,), 0)

    def test_the_momentum_budget_counts_only_momenta_inside_the_window(self):
        # A heavy pair far from its minimum has rows +-s near 3*10**5, past
        # MAX_WINDOW, but a +-5 momentum window clips its table to 11 rows:
        # the walk runs and escapes at the window edge, as on the whole window.
        spec = FieldHamiltonianSpec.uniform(
            LatticeShape((4,)), mass=Fraction(100), phi_window=(-(2**20), 2**20), p_window=(-5, 5)
        )
        state = FieldState([[3000] * 4], [[0] * 4])
        assert restricted_hamiltonian(state, spec, (0,), 0).p_window == (-5, 5)
        with pytest.raises(UnboundedContour, match=r"leaves the window at cell \(2999, -6\)") as err:
            step(state, spec)
        assert err.value.field_site == ((0,), 0)

    def test_steps_reuse_the_orders_built_once_per_spec(self):
        spec = kernel_spec(GRID44, (Fraction(0), Fraction(1, 2)), (-40, 40))
        state = step(random_state(spec, random.Random(5), -3, 3), spec)
        plan = spec._plan
        entries, orders = plan[:2]
        # One record per (x, k), in C order with components ascending ...
        records = [sub for e in entries for sub in e[2]]
        assert [sub[:2] for sub in records] == [(x, k) for x in GRID44.sites() for k in (0, 1)]
        # ... and each half sweep lists its class's records themselves, not
        # copies, so each record appears exactly once across the orders.
        for parity in (0, 1):
            own = [sub for sub in records if GRID44.parity(sub[0]) == parity]
            assert all(a is b for a, b in zip(orders[parity], own, strict=True))
        assert sorted(map(id, orders[0] + orders[1])) == sorted(map(id, records))
        built = [list(order) for order in orders]
        for stepper in (step, step_inverse, lambda s, sp: step_parity(s, sp, 1, True)):
            state = stepper(state, spec)
            assert spec._plan is plan and fields._plan(spec) is plan
            assert all(a is b for order, was in zip(orders, built) for a, b in zip(order, was, strict=True))
        evens = [x for x in GRID44.sites() if GRID44.parity(x) == 0]
        for order in (evens[1:], evens[1:] + [evens[1]], evens[1:] + [(0, 1)], evens + [(0, 0)]):
            with pytest.raises(ValueError):
                step_parity(state, spec, 0, site_order=order)
        assert spec._plan is plan


# -- time reversal by p -> -p ---------------------------------------------------


def flip(state):
    """``R(phi, mom) = (phi, -mom)``."""
    return FieldState(state.phi, -state.mom, state.time)


def flipped_sweeps(state, spec, orders):
    """``R`` of the forward half sweeps ``orders`` applied to ``R(state)``."""
    vals = fields._flat(flip(state), spec)
    fields._sweep(state, vals, spec, orders, False)
    return flip(fields._unflat(spec, vals, state.time - 1))


REVERSAL_CASES = pytest.mark.parametrize(
    "shape, masses",
    [
        (LINE8, (Fraction(0),)),
        (LINE8, (Fraction(0), Fraction(1, 2))),
        (GRID44, (Fraction(0), Fraction(1, 2))),
        (GRID44, (Fraction(1, 2), Fraction(0), Fraction(1))),
    ],
    ids=["line, 1 component", "line, 2 components", "plane, 2 components", "plane, 3 components"],
)


@REVERSAL_CASES
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_momentum_flip_runs_the_step_backward(shape, masses, seed):
    # Every energy term is even in the momenta and the windows are
    # symmetric, so R maps each restricted contour onto itself with its
    # orientation reversed: the inverse step is R, then the forward
    # sub-updates of the reversed forward records (sites and components
    # reversed, odd class first), then R again.
    spec = kernel_spec(shape, masses, (-40, 40))
    state = random_state(spec, random.Random(seed), -4, 4)
    inverse_orders = [order[::-1] for order in reversed(fields._plan(spec)[1])]
    for _ in range(3):
        assert states_equal(step_inverse(state, spec), flipped_sweeps(state, spec, inverse_orders))
        state = step(state, spec)


@REVERSAL_CASES
def test_momentum_flip_needs_the_reversed_order_with_two_components(shape, masses):
    # Negative control: with the forward records inside each half sweep the
    # identity fails once a site holds two components, whose sub-updates do
    # not commute; one component on a line commutes within its class.
    spec = kernel_spec(shape, masses, (-40, 40))
    forward_orders = fields._plan(spec)[1][::-1]
    rng = random.Random(11)
    differ = 0
    for _ in range(20):
        state = random_state(spec, rng, -4, 4)
        differ += not states_equal(step_inverse(state, spec), flipped_sweeps(state, spec, forward_orders))
    assert (differ > 0) == (len(masses) > 1)


# Field and momentum windows that are not symmetric about 0: R maps each
# momentum window [lo, hi] onto [-hi, -lo], another window.
ASYMMETRIC_WINDOWS = [((-9, 9), (-6, 14)), ((-8, 12), (-13, 5)), ((-11, 7), (-5, 11)), ((-10, 10), (-9, 7))]


def asymmetric_state(spec, rng, spread):
    """Field values within 2 of the middle of the field window, momenta
    within ``spread`` of 0, both clipped to their windows: bands near the
    short side of a momentum window clamp against its edge."""
    (qlo, qhi), (plo, phi_hi) = spec.phi_windows[0], spec.p_windows[0]
    mid = (qlo + qhi) // 2
    shape = (spec.components, *spec.shape.sizes)
    count = math.prod(shape)
    phi = [rng.randint(max(qlo, mid - 2), min(qhi, mid + 2)) for _ in range(count)]
    mom = [rng.randint(max(plo, -spread), min(phi_hi, spread)) for _ in range(count)]
    return FieldState(np.reshape(phi, shape), np.reshape(mom, shape))


@pytest.mark.parametrize(
    "shape, masses",
    [
        (LINE8, (Fraction(0),)),
        (LINE8, (Fraction(1),)),
        (LINE8, (Fraction(0), Fraction(1, 2))),
        (GRID44, (Fraction(1, 2),)),
        (GRID44, (Fraction(0), Fraction(1, 2))),
    ],
    ids=["line massless", "line massive", "line, 2 components", "plane massive", "plane, 2 components"],
)
def test_inverse_sweeps_on_asymmetric_windows_equal_the_prev_site_reference(shape, masses):
    # An inverse sweep runs the forward kernel on the momentum-flipped state,
    # where R maps each momentum window onto its reflection; its misses must
    # still give the reference's outputs and, when a walk escapes, its error:
    # type, message, field_site and cause.  Both steppers are compared with a
    # cold memo and with one warmed by forward steps from the same state, and
    # so are the forward steps themselves.
    rng = random.Random(30)
    outcomes, clamped = Counter(), 0

    def tally(result):  # an error counts as its type and its cause's type
        outcomes[result[::3] if isinstance(result[0], str) else ("returned",)] += 1

    for phi_window, p_window in ASYMMETRIC_WINDOWS:
        def new_spec():
            k = len(masses)
            return FieldHamiltonianSpec(shape, k, masses, Fraction(1, shape.dimensions), (phi_window,) * k, (p_window,) * k)

        warm = new_spec()
        for spread in (1, 2, 4):
            states = [asymmetric_state(warm, rng, spread)]
            for _ in range(2):
                expected = outcome(reference_step, states[-1], new_spec())
                assert outcome(step, states[-1], warm) == expected
                tally(expected)
                if isinstance(expected[0], str):
                    break
                states.append(step(states[-1], warm))
            for state in states:
                vals = state.phi.ravel().tolist() + state.mom.ravel().tolist()
                for x, k, terms in sub_update_terms(warm, vals):
                    ham = capture(lambda: restricted_hamiltonian(state, warm, x, k, _terms=terms))[0]
                    clamped += ham is not None and not set(ham.p_window).isdisjoint(p_window)
                expected = outcome(reference_step_inverse, state, new_spec())
                assert outcome(step_inverse, state, new_spec()) == expected
                assert outcome(step_inverse, state, warm) == expected
                tally(expected)
                for parity in (0, 1):
                    order = [x for x in shape.sites() if shape.parity(x) == parity]
                    rng.shuffle(order)
                    expected = outcome(lambda s, sp: reference_sweeps(s, sp, (parity,), True, order), state, new_spec())
                    for spec in (new_spec(), warm):
                        got = outcome(lambda s, sp: step_parity(s, sp, parity, True, site_order=order), state, spec)
                        assert got == expected
                    tally(expected)
    # the battery reaches bands that clamp against a momentum window edge,
    # sweeps that return, and escapes raised from the window they left
    assert clamped > 0 and outcomes[("returned",)] > 0, (clamped, outcomes)
    assert outcomes[("UnboundedContour", "WindowExceeded")] > 0, outcomes


@pytest.mark.parametrize(
    "p_window, mom",
    [
        # every momentum near -2**63: each walk escapes along its row
        ((-(2**63), 10 - 2**63), [3 - 2**63, 1 - 2**63, 5 - 2**63, -(2**63)]),
        # -2**63 at an odd site: the even half sweep returns it unchanged
        (fields.INT64, [1, 0, -1, -(2**63)]),
    ],
    ids=["window at the int64 floor", "int64 window"],
)
def test_inverse_sweeps_flip_every_int64_momentum_exactly(p_window, mom):
    # R maps -2**63 to 2**63, past int64: the flip must be exact both ways.
    spec = FieldHamiltonianSpec.uniform(LatticeShape((4,)), phi_window=(-8, 8), p_window=p_window)
    state = FieldState([[0, 1, -1, 0]], [mom])
    got = [outcome(lambda s, sp: step_parity(s, sp, parity, True), state, spec) for parity in (0, 1)]
    expected = [outcome(lambda s, sp: reference_sweeps(s, sp, (parity,), True), state, spec) for parity in (0, 1)]
    assert got == expected
    assert outcome(step_inverse, state, spec) == outcome(reference_step_inverse, state, spec)
    returned = [after[1][0][3] for after in expected if not isinstance(after[0], str)]
    assert returned == ([-(2**63)] if p_window == fields.INT64 else [])


# -- the sweep rule as a coupled system of pairs ---------------------------------


def as_coupled(spec):
    """The spec as a :class:`evolver.CoupledSeparableHamiltonian` with one pair
    per (component, site), numbered like the flat layout: pair ``k * n + i``
    is component k at the i-th of n sites in C order.  Each density floors
    its two parts separately, so ``H(q, p) = H(q, 0) + H(0, p)``."""
    shape = (spec.components, *spec.shape.sizes)
    zeros = np.zeros(shape, np.int64)
    n = zeros.size // spec.components

    def energy(phi, mom):
        return total_energy(FieldState(phi, mom), spec)

    return evolver.CoupledSeparableHamiltonian(
        pairs=zeros.size,
        kinetic=lambda ps: energy(zeros, np.array(ps, np.int64).reshape(shape)),
        potential=lambda qs: energy(np.array(qs, np.int64).reshape(shape), zeros),
        q_windows=tuple(w for w in spec.phi_windows for _ in range(n)),
        p_windows=tuple(w for w in spec.p_windows for _ in range(n)),
    )


def pair_order(spec, sites):
    """The coupled system's pairs at ``sites``, in that order, components ascending."""
    n = math.prod(spec.shape.sizes)
    flat = [int(np.ravel_multi_index(x, spec.shape.sizes)) for x in sites]
    return [k * n + i for i in flat for k in range(spec.components)]


def as_pairs(state):
    return evolver.PhaseState(tuple(state.phi.ravel().tolist()), tuple(state.mom.ravel().tolist()))


def pairs_outcome(call):
    """The flat values a sweep returns, as lists, or "raised"."""
    try:
        after = call()
    except IntHamError:
        return "raised"
    if isinstance(after, FieldState):
        after = as_pairs(after)
    return (list(after.positions), list(after.momenta))


@pytest.mark.parametrize(
    "shape",
    [LatticeShape((4,)), LINE8, LatticeShape((2, 2)), LatticeShape((4, 2))],
    ids=["line of 4", "line of 8", "2x2 plane", "4x2 plane"],
)
def test_sweeps_equal_sequential_pair_updates_of_the_coupled_system(shape):
    # The sweep rule: parity 0 then 1, sites in C order, components
    # ascending, each pair stepped on its restricted contour with every other
    # pair frozen.  The evolver steps the same pairs on whole-window tables
    # of the total energy, so any key, band or order the sweep takes must
    # reproduce it; where a contour escapes its window both sides raise.
    rng = random.Random(29)
    sites = list(shape.sites())
    classes = [[x for x in sites if shape.parity(x) == c] for c in (0, 1)]
    outcomes = Counter()
    for masses in ((Fraction(0),), (Fraction(1, 2),), (Fraction(1),), (Fraction(0), Fraction(1))):
        for window in ((-6, 6), (-10, 10)):
            spec = fresh_spec(shape, masses, window)
            system = as_coupled(spec)
            order = pair_order(spec, classes[0] + classes[1])
            state = random_state(spec, rng, -3, 3)
            for _ in range(2):
                pairs = as_pairs(state)
                expected = pairs_outcome(lambda: evolver.step(pairs, system, order))
                assert pairs_outcome(lambda: step(state, spec)) == expected
                assert pairs_outcome(lambda: step_inverse(state, spec)) == pairs_outcome(
                    lambda: evolver.step_inverse(pairs, system, order)
                )
                given = [rng.sample(c, len(c)) for c in classes]
                assert pairs_outcome(
                    lambda: step_parity(step_parity(state, spec, 0, site_order=given[0]), spec, 1, site_order=given[1])
                ) == pairs_outcome(lambda: evolver.step(pairs, system, pair_order(spec, given[0] + given[1])))
                outcomes[expected == "raised"] += 1
                if expected == "raised":
                    break
                state = step(state, spec)
    assert outcomes[True] > 0 and outcomes[False] > 0


# -- a pinned digest of every sweep output over a fixed battery ----------------


def capture(call):
    """``(output, item)``: the output is None when the call raised."""
    try:
        out = call()
    except IntHamError as err:  # every error is part of the output
        return None, (type(err).__name__, str(err), getattr(err, "field_site", None))
    if isinstance(out, FieldState):
        return out, (out.phi.tolist(), out.mom.tolist(), out.time)
    return out, (out.kinetic.lo, out.kinetic.values, out.potential.lo, out.potential.values)


def seeded_starts(shape, masses, rng):
    """A seeded state with wide windows, then another with its windows cut to
    one unit around its values, where values sit on window edges and
    sub-updates fail; each as ``(spec, state)``."""

    def around(layer):
        return tuple((int(values.min()) - 1, int(values.max()) + 1) for values in layer)

    for cut in (False, True):
        spec = kernel_spec(shape, masses, (-40, 40))
        start = random_state(spec, rng, -4, 4)
        if cut:
            spec = FieldHamiltonianSpec(
                shape, len(masses), masses, spec.stiffness, around(start.phi), around(start.mom)
            )
        yield spec, start


def _field_outputs(shape, masses, seed):
    """Every sweep output from seeded states, errors included: the public
    restriction of every pair, each half sweep in both directions, and three
    steps forward and three back.  Each state runs once with wide windows
    and once with its windows cut (see :func:`seeded_starts`)."""
    for spec, start in seeded_starts(shape, masses, random.Random(seed)):
        yield spec.phi_windows, spec.p_windows, capture(lambda: start)[1]
        for x in shape.sites():
            for k in range(len(masses)):
                yield x, k, capture(lambda: restricted_hamiltonian(start, spec, x, k))[1]
        for parity in (0, 1):
            for inverse in (False, True):
                yield parity, inverse, capture(lambda: step_parity(start, spec, parity, inverse))[1]
        for stepper in (step, step_inverse):
            state = start
            for _ in range(3):
                state, item = capture(lambda: stepper(state, spec))
                yield item
                if state is None:
                    break


@pytest.mark.parametrize(
    "shape, masses, digest",
    [
        (LINE16, (Fraction(0),), "bfde39759a437fcae406c0aa2134525c09dada2ef1c49aeadb152e217026fd60"),
        (GRID44, (Fraction(0), Fraction(1, 2)), "1897eef2118fb545e440920eca3fabff5e0aa76244ea6d55f0960c693f02e06b"),
        (BOX442, (Fraction(1, 2),), "9b158ff6a8084dc3a20a1467007d06cd2a12f5afeb10744512cd0e059b9d6139"),
    ],
)
def test_sweep_outputs_match_their_pinned_digest(shape, masses, digest):
    # Seeded states on a line, a plane with a massless and a massive
    # component, and a box, each with wide windows and with windows cut to
    # one unit around its values.  The digests pin every step, inverse step,
    # half sweep, public restriction and error exactly; any change to the
    # sweep must leave them all unchanged.
    h = hashlib.sha256()
    for seed in range(3):
        for item in _field_outputs(shape, masses, seed):
            h.update(repr(item).encode())
    assert h.hexdigest() == digest


def _site_order_outputs(shape, masses, seed):
    """Every half sweep replayed in a seeded shuffle of its class, errors
    included: both parities, both directions, from wide-window and cut-window
    states (see :func:`seeded_starts`)."""
    rng = random.Random(seed)
    for spec, start in seeded_starts(shape, masses, rng):
        for parity in (0, 1):
            sites = [x for x in shape.sites() if shape.parity(x) == parity]
            for inverse in (False, True):
                order = rng.sample(sites, len(sites))
                yield order, inverse, capture(lambda: step_parity(start, spec, parity, inverse, site_order=order))[1]


@pytest.mark.parametrize(
    "shape, masses, digest",
    [
        (LINE16, (Fraction(0),), "501e86027e935c769d8a6ed6ef86f658fc8e433da167efa2d6b8d4c7d53f4989"),
        (GRID44, (Fraction(0), Fraction(1, 2)), "7c73c5b595d8e1f16369fa7680385e380ae87f4c3b4d18e8c39f77db2b69b683"),
        (BOX442, (Fraction(1, 2),), "85c7a786a9b71951826a7f5442560d7a5120bdf6472428b26cd2ef6b176ec321"),
    ],
)
def test_site_order_sweeps_match_their_pinned_digest(shape, masses, digest):
    # The same battery as above through ``step_parity``'s ``site_order``:
    # any change to how a given order is replayed must leave these unchanged.
    h = hashlib.sha256()
    for seed in range(3):
        for item in _site_order_outputs(shape, masses, seed):
            h.update(repr(item).encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize(
    "shape, masses",
    [(LINE16, (Fraction(0),)), (LINE16, (Fraction(1),)), (GRID44, (Fraction(0), Fraction(1, 2)))],
    ids=["line-massless", "line-massive", "plane-both"],
)
def test_band_tables_carry_their_level_as_their_closure_proof(shape, masses):
    # A band strictly inside both windows proves its pair's level closed, and
    # only that level: a site of the same tables above it still takes the
    # full walk and raises where the tables without the proof raise.
    above, escapes = 0, 0
    for seed in range(3):
        for spec, start in seeded_starts(shape, masses, random.Random(seed)):
            for x in shape.sites():
                for k in range(len(masses)):
                    ham = capture(lambda: restricted_hamiltonian(start, spec, x, k))[0]
                    if ham is None:
                        continue
                    (qlo, qhi), (plo, phi_hi) = spec.phi_windows[k], spec.p_windows[k]
                    (lo, hi), (p_lo, p_hi) = ham.q_window, ham.p_window
                    inside = qlo < lo and hi < qhi and plo < p_lo and p_hi < phi_hi
                    level = ham.value(int(start.phi[(k, *x)]), int(start.mom[(k, *x)]))
                    assert ham._closure_level == (level if inside else None)
                    unproven = SeparableHamiltonian1D(ham.kinetic, ham.potential)
                    for q in range(lo, hi + 1) if inside else ():
                        for p in range(p_lo, p_hi + 1):
                            if ham.value(q, p) <= level:
                                continue
                            for mover in (contours.next_site, contours.prev_site):
                                expected = walk_outcome(mover, unproven, q, p)
                                assert walk_outcome(mover, ham, q, p) == expected
                                above += 1
                                escapes += expected[0] == "UnboundedContour"
    assert above and escapes
