"""Contour stepping: successors, inverses, shells, traces, classification."""

import dataclasses
import hashlib
import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_confining, random_landscape, well_sites
from intham import contours
from intham.census import continuum_period
from intham.contours import (
    SiteClassification,
    _DOWN,
    _LEFT,
    _RIGHT,
    _STEPS,
    _UP,
    _walk_component,
    classify_site,
    enumerate_shell,
    next_site,
    orbit_map,
    prev_site,
    trace_component,
)
from intham.errors import IntHamError, UnboundedContour, WindowExceeded
from intham.hamiltonians import IntegerFunction1D, SeparableHamiltonian1D

W = 6
absolute = IntegerFunction1D.from_callable(abs, -W, W)
square = IntegerFunction1D.from_callable(lambda x: x * x, -W, W)
identity = IntegerFunction1D.from_callable(lambda x: x, -W, W)
zero = IntegerFunction1D.zero(-W, W)
drop = IntegerFunction1D.from_callable(lambda x: -x * x, -W, W)

diamond = SeparableHamiltonian1D(absolute, absolute)
bowl = SeparableHamiltonian1D(square, square)
hyperbolic = SeparableHamiltonian1D(zero, zero, coupling_pos=identity, coupling_mom=identity)
pingpong = SeparableHamiltonian1D(
    absolute, IntegerFunction1D.from_callable(lambda x: 2 * x * x, -W, W)
)


def proven(ham, level=None):
    """A copy of ``ham`` whose tables carry a closure proof up to ``level``,
    as the field band's tables carry theirs; by default their highest
    energy, so that every step on the copy stops at its image.  The
    attribute is the one ``SeparableHamiltonian1D._trusted`` sets, which
    builds no product term, so it is written here directly."""
    if level is None:
        (qlo, qhi), (plo, phi) = ham.q_window, ham.p_window
        level = max(ham.value(q, p) for q in range(qlo, qhi + 1) for p in range(plo, phi + 1))
    copy = dataclasses.replace(ham)
    object.__setattr__(copy, "_closure_level", level)
    return copy


def test_steps_take_only_a_table_and_a_site():
    for mover in (next_site, prev_site):
        assert list(inspect.signature(mover).parameters) == ["ham", "Q", "P"]
    assert "closed" not in inspect.signature(contours._step).parameters
    assert "closed" not in inspect.signature(_walk_component).parameters


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
        # a peak: no neighbor above, and no diagonal either
        assert classify_site(SeparableHamiltonian1D(drop, drop), 0, 0, 0) is SiteClassification.EXTREMUM

    def test_crossing_strands_make_a_saddle(self):
        # crossing at second order (no neighbor above, alternating diagonals)
        assert classify_site(hyperbolic, 0, 0, 0) is SiteClassification.SADDLE
        # and at first order: east and west above, north and south below
        assert classify_site(SeparableHamiltonian1D(drop, square), 0, 0, 0) is SiteClassification.SADDLE

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


def cut_around(ham, energy):
    """``ham`` cut down to one site around everything at or below ``energy``
    (no further than its own windows), and the least energy on the cut
    windows' edge rows and columns."""
    low = well_sites(ham, energy)
    (qlo, qhi), (plo, phi) = ham.q_window, ham.p_window
    q0, q1 = max(qlo, min(q for q, _ in low) - 1), min(qhi, max(q for q, _ in low) + 1)
    p0, p1 = max(plo, min(p for _, p in low) - 1), min(phi, max(p for _, p in low) + 1)

    def cut(table, lo, hi):
        if table is None:
            return None
        return IntegerFunction1D(lo, table.values[lo - table.lo : hi - table.lo + 1])

    tight = SeparableHamiltonian1D(
        cut(ham.kinetic, p0, p1), cut(ham.potential, q0, q1),
        cut(ham.coupling_pos, q0, q1), cut(ham.coupling_mom, p0, p1),
    )
    edge = [(q, p) for q in (q0, q1) for p in range(p0, p1 + 1)]
    edge += [(q, p) for p in (p0, p1) for q in range(q0, q1 + 1)]
    return tight, min(tight.value(*s) for s in edge)


def tightened(ham, energy):
    """``ham`` cut down to one site around everything at or below ``energy``,
    so every window-edge row and column lies above that level and the level
    sits right next to the edges."""
    tight, edge_min = cut_around(ham, energy)
    assert edge_min > energy  # proven closed
    return tight


@pytest.mark.parametrize("coupled", [False, True], ids=["multi-well", "product-term"])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_walk_steps_invert_and_follow_the_trace(coupled, seed):
    ham, ceiling = random_landscape(random.Random(seed), coupled)
    sites = well_sites(ham, ceiling)
    images = {s: next_site(ham, *s) for s in sites}
    assert orbit_map(ham, sites) == images
    tight = {e: tightened(ham, e) for e in {ham.value(*s) for s in sites}}
    for site, image in images.items():
        assert prev_site(ham, *image) == site
        energy = ham.value(*site)
        # every contour here closes inside the windows, so may stop early,
        # also when the windows are cut to one site around the level
        for closed in (ham, tight[energy]):
            assert next_site(proven(closed), *site) == image == next_site(closed, *site)
            assert prev_site(proven(closed), *image) == site == prev_site(closed, *image)
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


def flip(site):
    """Time reversal R(q, p) = (q, -p)."""
    return site[0], -site[1]


def reversal_mismatches(ham, sites):
    """The sites where the inverse step is not R . step . R."""
    return [s for s in sites if prev_site(ham, *s) != flip(next_site(ham, *flip(s)))]


@pytest.mark.parametrize("coupled", [False, True], ids=["multi-well", "product-term"])
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_momentum_flip_reverses_the_step(coupled, seed):
    # With T (and the product term's B) even in p over a symmetric p window,
    # R maps the E + eps level onto itself, keeps the saddle rule and
    # reverses the contour's orientation, so stepping back is R, step, R.
    ham, ceiling = random_landscape(random.Random(seed), coupled, even=True)
    assert ham.p_window == (-7, 7) and ham.kinetic.values == ham.kinetic.values[::-1]
    sites = well_sites(ham, ceiling)
    assert sites and reversal_mismatches(ham, sites) == []


def test_momentum_flip_fails_with_an_odd_kinetic_part():
    # The negative control: adding p to an even kinetic table breaks R.  It
    # lowers the window edge by at most 7, so levels up to the ceiling - 7
    # still close, and R(s) is kept on one of them.
    for seed in range(3):
        even, ceiling = random_landscape(random.Random(seed), False, even=True)
        kin = IntegerFunction1D(-7, tuple(t + p for p, t in zip(range(-7, 8), even.kinetic.values)))
        ham = SeparableHamiltonian1D(kin, even.potential)
        sites = [s for s in well_sites(ham, ceiling - 7) if ham.value(*flip(s)) <= ceiling - 7]
        assert reversal_mismatches(ham, sites)


@pytest.mark.parametrize("landscape", ["bowl", "multi-well", "product-term"])
def test_crossing_parameters_place_the_level_on_their_edges(landscape):
    # A crossing lies std + inf*eps along its edge from the (Q, P) end, where
    # the interpolated energy c0 + t*(c1 - c0) reaches E + eps.
    if landscape == "bowl":
        ham, ceiling = bowl, 20
    else:
        ham, ceiling = random_landscape(random.Random(5), landscape == "product-term")
    checked = 0
    for site in well_sites(ham, ceiling):
        energy = ham.value(*site)
        for crossing in trace_component(ham, energy, site).crossings:
            Q, P = crossing.Q, crossing.P
            c0 = ham.value(Q, P)
            c1 = ham.value(Q + 1, P) if crossing.kind == "h" else ham.value(Q, P + 1)
            assert c0 + crossing.param.std * (c1 - c0) == energy
            assert crossing.param.inf * (c1 - c0) == 1
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("seed, image", [((5, 0), (4, -3)), ((4, -3), (3, -4))])
def test_stop_ends_the_walk_at_the_image(seed, image):
    # The r^2 = 25 circle of the bowl touches (5, 0), (4, -3), (3, -4), ...
    start = reference_start(bowl, *seed, 25)
    full: list = []
    full_record: list = []
    n = _walk_component(bowl, 25, start, full, full_record)
    # A proven-closed walk ends at the image, the first touched regular site
    # other than ``stop``.  Any other walk goes on to closure, crossing for
    # crossing, but touches nothing more.
    for closed in (True, False):
        touches: list = []
        record: list = []
        stopped = _walk_component(proven(bowl) if closed else bowl, 25, start, touches, record, stop=seed)
        assert stopped is None
        assert touches == full[: len(touches)] and touches[-1][1] == image
        assert {s for _, s in touches[:-1]} == {seed}
        assert touches[-1][0] + 1 < n
        assert record == (full_record[: touches[-1][0] + 1] if closed else full_record)


def test_a_start_off_the_level_fails_instead_of_cycling():
    # The crossing that starts the r^2 = 25 circle of the bowl through (5, 0)
    # is no crossing of the 26 level, so that walk can never close.
    start = reference_start(bowl, 5, 0, 25)
    with pytest.raises(RuntimeError, match=r"level 26\+eps from crossing \(5, 0, 2\)"):
        _walk_component(bowl, 26, start, [])


def test_a_recorded_walk_closes_from_a_start_that_brushes_no_site():
    # 24 is no sum of two squares, so the bowl's 24 shell is empty: the level
    # crosses row p = 0 between q = 4 and 5, downward, brushing nothing.
    start = (4, 0, _DOWN)
    touches: list = []
    record: list = []
    n = _walk_component(bowl, 24, start, touches, record)
    assert touches == [] and record[0] == start and len(record) == len(set(record)) == n
    for (cq, cp, move), nxt in zip(record, record[1:] + record[:1]):
        assert nxt[:2] == (cq + _STEPS[move][0], cp + _STEPS[move][1])
    # The level crosses every edge with one end at or below 24 and one above once.
    values = [[bowl.value(q, p) <= 24 for p in range(-W, W + 1)] for q in range(-W, W + 1)]
    rows = sum(a != b for col in values for a, b in zip(col, col[1:]))
    cols = sum(a != b for left, right in zip(values, values[1:]) for a, b in zip(left, right))
    assert n == rows + cols == 36
    # An unrecorded walk tests closure on touching crossings only.
    with pytest.raises(RuntimeError, match="does not close"):
        _walk_component(bowl, 24, start, [])


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
        assert str(err.value) == f"level 4+eps leaves the window at cell {cell}"
        assert err.value.energy == 4
        assert err.value.site == cell
        assert err.value.__cause__.argument == -3


def test_unclassifiable_touch_fails_before_a_later_escape():
    # With momenta cut at -1 the first site after (4, 0), (3, -1), has no
    # south neighbor.  The step classifies each touched site as the walk
    # reaches it, so it reports (3, -1) before the walk gets to the escape;
    # orbit_map classifies after its walk, so it sees the escape.  Walking
    # backward, the walk finds the image (3, 1) first, then goes on to
    # confirm closure without recording, meets the escape and reports it.
    cut = SeparableHamiltonian1D(IntegerFunction1D.from_callable(abs, -1, W), absolute)
    for walk, message, site in [
        (lambda: next_site(cut, 4, 0), "cannot classify touched site (3, -1): window too small", (3, -1)),
        (lambda: prev_site(cut, 4, 0), "level 4+eps leaves the window at cell (-4, -2)", (-4, -2)),
        (lambda: orbit_map(cut, [(4, 0)]), "level 4+eps leaves the window at cell (3, -2)", (3, -2)),
    ]:
        with pytest.raises(UnboundedContour) as err:
            walk()
        assert (str(err.value), err.value.energy, err.value.site) == (message, 4, site)
        assert err.value.__cause__.argument == -2


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


# -- proven-closed tables and window-edge errors -------------------------------


# Windows of unequal reach, so each message names the table that raised:
# momenta cover [-5, 6] and field values [-6, 4].
lopsided = SeparableHamiltonian1D(
    IntegerFunction1D.from_callable(abs, -5, 6), IntegerFunction1D.from_callable(abs, -6, 4)
)
lopsided_coupled = SeparableHamiltonian1D(
    lopsided.kinetic,
    lopsided.potential,
    coupling_pos=IntegerFunction1D.from_callable(lambda x: x, -6, 4),
    coupling_mom=IntegerFunction1D.from_callable(lambda x: x, -5, 6),
)
NEEDS_NEIGHBORS = "site {} needs its four neighbors inside the windows"
Q_OUT, P_OUT = "argument {} outside window [-6, 4]", "argument {} outside window [-5, 6]"


@pytest.mark.parametrize("ham", [lopsided, lopsided_coupled], ids=["separable", "product-term"])
@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("mover", [next_site, prev_site])
@pytest.mark.parametrize(
    "site, message, argument, cause",
    [
        # outside the windows: the table's own error, momentum read first
        ((5, 0), Q_OUT.format(5), 5, None),
        ((0, 7), P_OUT.format(7), 7, None),
        ((5, 7), P_OUT.format(7), 7, None),
        ((-7, -6), P_OUT.format(-6), -6, None),
        # on an edge: the first neighbor outside (east, north, west, south)
        ((4, 0), NEEDS_NEIGHBORS.format((4, 0)), None, Q_OUT.format(5)),
        ((0, 6), NEEDS_NEIGHBORS.format((0, 6)), None, P_OUT.format(7)),
        ((0, -5), NEEDS_NEIGHBORS.format((0, -5)), None, P_OUT.format(-6)),
        ((-6, 2), NEEDS_NEIGHBORS.format((-6, 2)), None, Q_OUT.format(-7)),
        ((4, 6), NEEDS_NEIGHBORS.format((4, 6)), None, Q_OUT.format(5)),
        ((-6, -5), NEEDS_NEIGHBORS.format((-6, -5)), None, Q_OUT.format(-7)),
        ((-6, 6), NEEDS_NEIGHBORS.format((-6, 6)), None, P_OUT.format(7)),
    ],
)
def test_sites_on_or_past_a_window_edge_raise_pinned_errors(
    ham, closed, mover, site, message, argument, cause
):
    with pytest.raises(WindowExceeded) as err:
        mover(proven(ham) if closed else ham, *site)
    assert type(err.value) is WindowExceeded
    assert (str(err.value), err.value.argument) == (message, argument)
    if cause is None:
        assert err.value.__cause__ is None
    else:
        assert type(err.value.__cause__) is WindowExceeded
        assert str(err.value.__cause__) == cause


@pytest.mark.parametrize("ham", [lopsided, lopsided_coupled], ids=["separable", "product-term"])
@pytest.mark.parametrize(
    "query, site, message, cause",
    [
        # classify_site: the first of its 3x3 neighborhood outside, read from
        # the south-west corner up each column in turn
        ("classify", (4, 0), Q_OUT.format(5), None),
        ("classify", (5, 0), Q_OUT.format(5), None),
        ("classify", (4, 6), P_OUT.format(7), None),
        ("classify", (-6, -5), P_OUT.format(-6), None),
        # trace_component: the seed's own error, else its first neighbor
        # outside (east, north, west, south) as the cause
        ("trace", (5, 0), Q_OUT.format(5), None),
        ("trace", (4, 0), "seed (4, 0) needs its four neighbors inside the windows", Q_OUT.format(5)),
        ("trace", (0, -5), "seed (0, -5) needs its four neighbors inside the windows", P_OUT.format(-6)),
        # orbit_map: the site's own error, else its first neighbor outside
        ("orbit", (4, 0), Q_OUT.format(5), None),
        ("orbit", (0, 7), P_OUT.format(7), None),
        ("orbit", (4, 6), Q_OUT.format(5), None),
        ("orbit", (-6, 6), P_OUT.format(7), None),
    ],
)
def test_site_queries_on_or_past_a_window_edge_raise_pinned_errors(ham, query, site, message, cause):
    energy = abs(site[0]) + abs(site[1])  # H on an axis, where the product term vanishes
    calls = {
        "classify": lambda: classify_site(ham, *site, energy),
        "trace": lambda: trace_component(ham, energy, site),
        "orbit": lambda: orbit_map(ham, [site]),
    }
    with pytest.raises(WindowExceeded) as err:
        calls[query]()
    assert type(err.value) is WindowExceeded
    assert str(err.value) == message
    if cause is None:
        assert err.value.__cause__ is None
        assert err.value.argument == int(message.split()[1])
    else:
        assert (err.value.argument, type(err.value.__cause__)) == (None, WindowExceeded)
        assert str(err.value.__cause__) == cause


# -- unproven steps: the image found during the walk, closure confirmed after --


def _flip(cross: tuple) -> tuple:
    """The same walk crossing, traversed from the cell it enters."""
    cq, cp, move = cross
    dq, dp = _STEPS[move]
    return (cq + dq, cp + dp, (move + 2) % 4)


def reference_above(ham, Q, P, E):
    """(east, north, west, south): which neighbors of (Q, P) lie above E,
    read through ``ham.value`` rather than the contour layer's own reader."""
    return (
        ham.value(Q + 1, P) > E, ham.value(Q, P + 1) > E, ham.value(Q - 1, P) > E, ham.value(Q, P - 1) > E
    )


def reference_regular(ham, site, E):
    """Whether one branch brushes the on-shell site: one or three neighbors
    above, or two that are not opposite.  A site without its four neighbors
    cannot be classified."""
    try:
        east, north, west, south = reference_above(ham, *site, E)
    except WindowExceeded as exc:
        msg = f"cannot classify touched site {site}: window too small"
        raise UnboundedContour(msg, energy=E, site=site) from exc
    above = east + north + west + south
    return above in (1, 3) or (above == 2 and east != west)


def reference_start(ham, Q, P, E):
    """The walk crossing that brushes the on-shell site (Q, P) with the flow:
    across the edge toward its first neighbor above E (east, north, west,
    south order), as (cq, cp, move): the level leaves the cell with lower-left
    site (cq, cp) across that edge, moving ``move``."""
    east, north, west, _ = reference_above(ham, Q, P, E)
    if east:  # edge (Q, P)-(Q + 1, P), the bottom of cell (Q, P)
        return (Q, P, _DOWN)
    if north:  # edge (Q, P)-(Q, P + 1), the right side of cell (Q - 1, P)
        return (Q - 1, P, _RIGHT)
    if west:  # edge (Q - 1, P)-(Q, P), the top of cell (Q - 1, P - 1)
        return (Q - 1, P - 1, _UP)
    return (Q, P - 1, _LEFT)  # edge (Q, P - 1)-(Q, P), the left side of cell (Q, P - 1)


def recorded_step(ham, Q, P, backward):
    """The reference step: record the whole component, then take the first
    touched regular site other than (Q, P).  A touched site that cannot be
    classified before the image fails before an escape the walk meets."""
    E = ham.value(Q, P)
    if not reference_regular(ham, (Q, P), E):
        return (Q, P)
    start = reference_start(ham, Q, P, E)
    if backward:
        start = _flip(start)
    touches: list = []
    images = (s for _, s in touches if s != (Q, P) and reference_regular(ham, s, E))
    try:
        _walk_component(ham, E, start, touches)
    except UnboundedContour:
        next(images, None)
        raise
    return next(images, (Q, P))


def outcome(call):
    """What ``call`` returns, or what it raises with the fields it carries."""
    try:
        return ("image", call())
    except UnboundedContour as err:
        cause = err.__cause__
        return (
            type(err), str(err), err.energy, err.site,
            type(cause), str(cause), getattr(cause, "argument", None),
        )


def cut_landscapes(kind, seed):
    """For each level of a random table, the table cut to one site around
    everything at or below the level - 1, the level and the level + 1, with
    the shell sites of the level whose four neighbors lie inside the cut."""
    rng = random.Random(seed)
    if kind == "confining":
        ham, ceiling = random_confining(rng, box=5)
    else:
        ham, ceiling = random_landscape(rng, kind == "product-term")
    for energy in sorted({ham.value(*s) for s in well_sites(ham, ceiling)}):
        for reach in (energy - 1, energy, energy + 1):
            if not well_sites(ham, reach):
                continue
            cut, edge_min = cut_around(ham, reach)
            (qlo, qhi), (plo, phi) = cut.q_window, cut.p_window
            sites = [(q, p) for q, p in enumerate_shell(cut, energy) if qlo < q < qhi and plo < p < phi]
            yield cut, energy, edge_min, sites


def step_outcomes(kind, seed):
    """(mover, ham, site, bound, expected, got) over every cut of
    :func:`cut_landscapes` and both movers, where ``bound`` is the highest
    level the cut's edge rows and columns prove closed."""
    for cut, energy, edge_min, sites in cut_landscapes(kind, seed):
        for site in sites:
            for mover, backward in ((next_site, False), (prev_site, True)):
                expected = outcome(lambda: recorded_step(cut, *site, backward))
                got = outcome(lambda: mover(cut, *site))
                yield mover, cut, site, edge_min - 1, expected, got


@pytest.mark.parametrize("kind", ["confining", "multi-well", "product-term"])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_unproven_steps_equal_the_fully_recorded_walk(kind, seed):
    for mover, cut, site, bound, expected, got in step_outcomes(kind, seed):
        assert got == expected
        # Tables that carry their edges' proof stop at the image up to
        # ``bound``; above it they walk in full, errors included.
        assert outcome(lambda: mover(proven(cut, bound), *site)) == expected


@pytest.mark.parametrize("kind", ["confining", "multi-well", "product-term"])
def test_cut_windows_reach_every_outcome(kind):
    # The cuts above must exercise each path: images, sites that stand
    # still, touched sites that cannot be classified, and escapes past the
    # image, which a walk told to stop there never meets.
    seen = set()
    for mover, cut, site, _, expected, _ in step_outcomes(kind, 0):
        if expected[0] == "image":
            seen.add("moves" if expected[1] != site else "stands")
        elif expected[1].startswith("cannot classify"):
            seen.add("unclassifiable")
        elif outcome(lambda: mover(proven(cut), *site))[0] == "image":
            seen.add("escape past the image")
    assert seen == {"moves", "stands", "unclassifiable", "escape past the image"}


def test_unproven_step_stops_recording_at_an_early_image(monkeypatch):
    # On the r^2 = 25 circle of the bowl the image of (5, 0) is the next
    # touched site, (4, -3), and the walk goes on round the whole circle.
    start = reference_start(bowl, 5, 0, 25)
    full: list = []
    _walk_component(bowl, 25, start, full)
    seen: list = []
    levels: list = []

    def spy(ham, E, start, touches, *args, **kwargs):
        found = _walk_component(ham, E, start, touches, *args, **kwargs)
        seen.append((list(touches), found))
        levels.append(ham._closure_level)
        return found

    monkeypatch.setattr(contours, "_walk_component", spy)
    assert next_site(bowl, 5, 0) == (4, -3)
    [(touches, found)] = seen
    assert found is None
    assert touches == full[: len(touches)] and touches[-1][1] == (4, -3)
    assert len(touches) < len(full) // 4
    # a step on tables that carry a proof hands them on, so its walk ends at the image
    assert next_site(proven(bowl, 25), 5, 0) == (4, -3) and seen[1] == seen[0]
    assert levels == [None, 25]
    # orbit_map and trace_component still see every touch of the circle
    seen.clear()
    trace = trace_component(bowl, 25, (5, 0))
    assert seen == [(full, 44)]
    seen.clear()
    successors = orbit_map(bowl, [(5, 0)])
    assert seen == [(full, 44)]
    assert len(trace.sites) == len(successors) == 12
    assert successors[(5, 0)] == (4, -3) and trace.sites[:2] == ((5, 0), (4, -3))


# -- a pinned digest of every walk output over a fixed battery -----------------


def _walk_outputs(kind, seed):
    """Every walk output over :func:`cut_landscapes`, errors included: each
    trace's crossings, both steps on the cut and on a copy whose proof covers
    every level of its tables (so they stop at the image), the orbit map
    of the shell and of each site, and the census period of every level up
    to the level + 1 (empty shells included) on separable cuts that hold the
    origin."""

    def capture(call):
        try:
            return ("ok", call())
        except (IntHamError, RuntimeError) as err:  # every error is part of the output
            cause = err.__cause__
            return (
                type(err).__name__, str(err), getattr(err, "energy", None),
                getattr(err, "site", None), None if cause is None else str(cause),
            )

    for cut, energy, _, sites in cut_landscapes(kind, seed):
        yield energy, cut.q_window, cut.p_window
        stopping = proven(cut)
        for site in sites:
            trace = capture(lambda: trace_component(cut, energy, site))
            if trace[0] == "ok":
                trace = (trace[1].sites, [k.value for k in trace[1].kinds], [
                    (c.kind, c.Q, c.P, c.forward, tuple(c.param), c.touched) for c in trace[1].crossings
                ])
            yield site, trace
            for walked in (cut, stopping):
                yield [capture(lambda: mover(walked, *site)) for mover in (next_site, prev_site)]
            yield capture(lambda: orbit_map(cut, [site]))
        yield capture(lambda: orbit_map(cut, sites))
        (qlo, qhi), (plo, phi) = cut.q_window, cut.p_window
        if cut.coupling_pos is None and qlo <= 0 <= qhi and plo <= 0 <= phi:
            yield [(e, capture(lambda: continuum_period(cut, e))) for e in range(1, energy + 2)]


@pytest.mark.parametrize(
    "kind, digest",
    [
        ("confining", "c43d8f8beef700e4b268c87779691fc634deee66af78e51577a11fbc79d4e281"),
        ("multi-well", "23173bb2635808e08dd05c957590ad0ab28a195eff0ae766e459b29c29fd8e9b"),
        ("product-term", "8ba586a739f7e90a1a5a83e83c70f82f8abdcb4bedcc51c06ed0499eca5a4fde"),
    ],
)
def test_walk_outputs_match_their_pinned_digest(kind, digest):
    # Separable, multi-well and product-term tables, each cut to one site
    # around the level - 1, the level and the level + 1, so that walks
    # close, stand still and escape.  The digests pin the walk's outputs and
    # errors exactly; any change to the walk must leave them all unchanged.
    h = hashlib.sha256()
    for seed in range(3):
        for item in _walk_outputs(kind, seed):
            h.update(repr(item).encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize(
    "energy, seed, message",
    [
        (3, (1, 1), r"seed \(1, 1\) is not on the shell: H=2 != 3"),
        (0, (0, 1), r"seed \(0, 1\) is not on the shell: H=1 != 0"),
    ],
)
def test_trace_component_rejects_a_seed_off_the_shell(energy, seed, message):
    with pytest.raises(ValueError, match=message):
        trace_component(bowl, energy, seed)
