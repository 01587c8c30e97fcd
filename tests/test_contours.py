"""Contour stepping: successors, inverses, shells, traces, classification."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_confining, well_sites
from intham.contours import (
    SiteClassification,
    classify_site,
    enumerate_shell,
    next_site,
    orbit_map,
    prev_site,
    trace_component,
    trace_rows,
)
from intham.errors import UnboundedContour
from intham.hamiltonians import IntegerFunction1D, SeparableHamiltonian1D

W = 6
absolute = IntegerFunction1D.from_callable(abs, -W, W)
square = IntegerFunction1D.from_callable(lambda x: x * x, -W, W)
identity = IntegerFunction1D.from_callable(lambda x: x, -W, W)
zero = IntegerFunction1D.zero(-W, W)

diamond = SeparableHamiltonian1D(absolute, absolute)
bowl = SeparableHamiltonian1D(square, square)
hyperbolic = SeparableHamiltonian1D(zero, zero, coupling_pos=identity, coupling_mom=identity)
pingpong = SeparableHamiltonian1D(
    absolute, IntegerFunction1D.from_callable(lambda x: 2 * x * x, -W, W)
)


class TestShells:
    def test_diamond_unit_shell_is_lexicographic(self):
        assert enumerate_shell(diamond, 1) == [(-1, 0), (0, -1), (0, 1), (1, 0)]

    def test_bowl_shell_at_two(self):
        assert enumerate_shell(bowl, 2) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]

    def test_empty_shell(self):
        assert enumerate_shell(bowl, 3) == []


class TestSuccessors:
    def test_diamond_unit_orbit_cycles_clockwise(self):
        sites = [(1, 0)]
        for _ in range(4):
            sites.append(next_site(diamond, *sites[-1]))
        assert sites == [(1, 0), (0, -1), (-1, 0), (0, 1), (1, 0)]

    def test_bowl_diagonal_orbit(self):
        sites = [(1, 1)]
        for _ in range(4):
            sites.append(next_site(bowl, *sites[-1]))
        assert sites == [(1, 1), (1, -1), (-1, -1), (-1, 1), (1, 1)]

    def test_steep_well_flip_flops_between_two_sites(self):
        assert enumerate_shell(pingpong, 1) == [(0, -1), (0, 1)]
        assert next_site(pingpong, 0, 1) == (0, -1)
        assert next_site(pingpong, 0, -1) == (0, 1)

    def test_rest_site_is_fixed(self):
        assert next_site(bowl, 0, 0) == (0, 0)
        assert prev_site(bowl, 0, 0) == (0, 0)

    def test_crossing_strands_leave_the_site_fixed(self):
        assert next_site(hyperbolic, 0, 0) == (0, 0)

    def test_prev_inverts_next_on_the_diamond(self):
        assert prev_site(diamond, 0, -1) == (1, 0)

    def test_runaway_contour_reports_energy_and_escape_site(self):
        with pytest.raises(UnboundedContour) as err:
            next_site(hyperbolic, 0, 3)
        assert err.value.energy == 0
        assert err.value.site == (6, 0)

    def test_orbit_map_matches_pointwise_stepping(self):
        shell = enumerate_shell(diamond, 1)
        assert orbit_map(diamond, shell) == {
            (1, 0): (0, -1),
            (0, -1): (-1, 0),
            (-1, 0): (0, 1),
            (0, 1): (1, 0),
        }


class TestClassification:
    def test_energy_pit_is_an_extremum(self):
        assert classify_site(bowl, 0, 0, 0) is SiteClassification.EXTREMUM

    def test_crossing_strands_make_a_saddle(self):
        assert classify_site(hyperbolic, 0, 0, 0) is SiteClassification.SADDLE

    def test_ordinary_through_site_is_regular(self):
        assert classify_site(bowl, 1, 0, 1) is SiteClassification.REGULAR
        assert classify_site(diamond, 1, 0, 1) is SiteClassification.REGULAR

    def test_wrong_level_is_off_contour(self):
        assert classify_site(bowl, 0, 0, 5) is SiteClassification.OFF_CONTOUR


class TestTraces:
    def test_bowl_trace_visits_the_shell_once_each(self):
        trace = trace_component(bowl, 2, (1, 1))
        assert trace.sites == ((1, 1), (1, -1), (-1, -1), (-1, 1))
        assert all(k is SiteClassification.REGULAR for k in trace.kinds)
        assert trace.closed
        assert len(trace.crossings) == 12

    def test_trace_crossings_hug_touched_corners(self):
        trace = trace_component(bowl, 2, (1, 1))
        first = trace.crossings[0]
        assert first.touched == (1, 1)
        assert first.param.std == 0 and first.param.inf > 0

    def test_rest_site_trace_is_a_single_site(self):
        trace = trace_component(bowl, 0, (0, 0))
        assert trace.sites == ((0, 0),)
        assert trace.kinds[0] is SiteClassification.EXTREMUM
        assert trace.closed

    def test_trace_rows_are_csv_ready(self):
        trace = trace_component(pingpong, 1, (0, 1))
        rows = trace_rows(trace, 7)
        assert rows == [(7, 0, 0, 1, "regular"), (7, 1, 0, -1, "regular")]


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_wells_conserve_energy_and_invert(seed):
    ham, ceiling = random_confining(random.Random(seed), box=6)
    sites = well_sites(ham, ceiling)
    successors = orbit_map(ham, sites)
    for site in sites:
        after = successors[site]
        assert ham.value(*after) == ham.value(*site)
        assert prev_site(ham, *after) == site


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_random_wells_permute_every_shell(seed):
    ham, ceiling = random_confining(random.Random(seed), box=6)
    sites = well_sites(ham, ceiling)
    successors = orbit_map(ham, sites)
    by_energy: dict[int, list] = {}
    for site in sites:
        by_energy.setdefault(ham.value(*site), []).append(site)
    for shell in by_energy.values():
        images = sorted(successors[s] for s in shell)
        assert images == sorted(shell)


# -- the walk on product-term and multi-well tables ----------------------------


def random_landscape(rng, coupled, half=7):
    """Non-monotone multi-well tables on [-half, half] with steep walls, plus a
    random product term when ``coupled``; returns ``(ham, ceiling)``.

    Every window-boundary site lies above ``ceiling``, so a contour at or
    below it never crosses a boundary edge and closes inside the windows.
    """

    def table(lo, hi, wall):
        xs = range(-half, half + 1)
        values = [rng.randint(lo, hi) + wall * max(0, abs(x) - half + 3) ** 2 for x in xs]
        return IntegerFunction1D(-half, tuple(values))

    kin, pot = table(0, 6, 6), table(0, 6, 6)
    ham = SeparableHamiltonian1D(kin, pot)
    if coupled:
        ham = SeparableHamiltonian1D(kin, pot, table(-2, 2, 0), table(-2, 2, 0))
    xs = range(-half, half + 1)
    ring = [(q, p) for q in xs for p in xs if half in (abs(q), abs(p))]
    return ham, min(ham.value(*s) for s in ring) - 1


@pytest.mark.parametrize("coupled", [False, True], ids=["multi-well", "product-term"])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_walk_steps_invert_and_follow_the_trace(coupled, seed):
    ham, ceiling = random_landscape(random.Random(seed), coupled)
    sites = well_sites(ham, ceiling)
    images = {s: next_site(ham, *s) for s in sites}
    assert orbit_map(ham, sites) == images
    for site, image in images.items():
        assert prev_site(ham, *image) == site
        energy = ham.value(*site)
        if classify_site(ham, *site, energy) is not SiteClassification.REGULAR:
            assert image == site
            continue
        trace = trace_component(ham, energy, site)
        assert trace.sites[0] == site
        later = [
            s
            for s, kind in zip(trace.sites[1:], trace.kinds[1:])
            if kind is SiteClassification.REGULAR and s != site
        ]
        assert image == (later[0] if later else site)


def test_escape_after_the_image_still_raises():
    # |q| + |p| = 4 flows clockwise from (4, 0) through (3, -1), its image in
    # a full window; cutting the momentum window at -2 lets the contour leave
    # only after that image, and every walk must still report the escape.
    full = SeparableHamiltonian1D(absolute, absolute)
    cut = SeparableHamiltonian1D(IntegerFunction1D.from_callable(abs, -2, W), absolute)
    assert next_site(full, 4, 0) == (3, -1)
    assert prev_site(full, 4, 0) == (3, 1)
    walks = [
        (lambda: next_site(cut, 4, 0), (2, -3)),
        (lambda: prev_site(cut, 4, 0), (-3, -3)),
        (lambda: orbit_map(cut, [(4, 0)]), (2, -3)),
    ]
    for walk, cell in walks:
        with pytest.raises(UnboundedContour) as err:
            walk()
        assert err.value.energy == 4
        assert err.value.site == cell


def test_unclassifiable_touch_fails_before_a_later_escape():
    # With momenta cut at -1 the first site after (4, 0), (3, -1), has no
    # south neighbor: the step reports it, not the escape the walk meets
    # afterwards, which is what orbit_map (classifying after the walk) sees.
    cut = SeparableHamiltonian1D(IntegerFunction1D.from_callable(abs, -1, W), absolute)
    with pytest.raises(UnboundedContour, match="cannot classify") as err:
        next_site(cut, 4, 0)
    assert (err.value.energy, err.value.site) == (4, (3, -1))
    with pytest.raises(UnboundedContour, match="leaves the window") as err:
        orbit_map(cut, [(4, 0)])
    assert (err.value.energy, err.value.site) == (4, (3, -2))


@pytest.mark.parametrize("coupled", [False, True])
@pytest.mark.parametrize("scale", [1, 2**64])
def test_enumerate_shell_matches_a_brute_force_scan(coupled, scale):
    rng = random.Random(11)

    def table(lo, n):
        values = [scale * rng.randint(-3, 3) + rng.randint(0, 1) for _ in range(n)]
        return IntegerFunction1D(lo, tuple(values))

    kin, pot = table(-4, 9), table(-3, 7)
    ham = SeparableHamiltonian1D(kin, pot)
    if coupled:
        ham = SeparableHamiltonian1D(kin, pot, table(-3, 7), table(-4, 9))
    window = [(q, p) for q in range(-3, 4) for p in range(-4, 5)]
    for energy in sorted({ham.value(*s) for s in window}) + [scale * 100]:
        expected = [s for s in window if ham.value(*s) == energy]
        assert enumerate_shell(ham, energy) == expected
