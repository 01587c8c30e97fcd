"""Shell-size counting, continuum periods, and the growth-exponent fit."""

import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_landscape
from flow_oracle import component_period, exact_period, rk4_period
from intham.census import (
    MAX_ENERGIES, MAX_PERIOD_WORK, CensusReport, _window_for, census, census_rows, continuum_period,
)
from intham.errors import RegimeViolation, UnboundedContour
from intham.hamiltonians import IntegerFunction1D, PowerLawFamily, SeparableHamiltonian1D

linear_kinetic = PowerLawFamily("kinetic", Fraction(1), mass=Fraction(1, 2))
linear_potential = PowerLawFamily("potential", Fraction(1))


@pytest.fixture(scope="module")
def diamond_report():
    return census(linear_kinetic, linear_potential, range(10, 101))


class TestLinearPair:
    def test_counts_are_exactly_four_per_energy(self, diamond_report):
        assert all(row.count == 4 * row.energy for row in diamond_report.rows)

    def test_exponent_and_amplitude_recover_the_exact_law(self, diamond_report):
        assert diamond_report.exponent == pytest.approx(1.0, abs=1e-9)
        assert diamond_report.amplitude == pytest.approx(4.0, abs=1e-6)
        assert diamond_report.predicted_exponent == 1.0

    def test_periods_equal_counts(self, diamond_report):
        # |q| + |p| = E is run with |dq/dt| = 1, a quarter turn in time E
        assert all(row.period == 4 * row.energy for row in diamond_report.rows)
        ratios = [row.ratio for row in diamond_report.rows]
        assert min(ratios) == max(ratios) == 1.0
        assert diamond_report.constant == 1.0

    def test_sample_rows(self, diamond_report):
        first = diamond_report.rows[0]
        assert (first.energy, first.count, first.period) == (10, 40, 40.0)


class TestQuadraticPotential:
    def test_exponent_halves(self):
        report = census(
            linear_kinetic,
            PowerLawFamily("potential", Fraction(2)),
            range(25, 401, 5),
            fit_floor=25,
        )
        assert report.predicted_exponent == 0.5
        assert report.exponent == pytest.approx(0.500535, abs=1e-5)
        assert report.constant == pytest.approx(1.0000960, abs=1e-7)


class TestFractionalKinetic:
    def test_exponent_follows_the_inverse_sum_rule(self):
        report = census(
            PowerLawFamily("kinetic", Fraction(3, 2), mass=Fraction(1, 2)),
            linear_potential,
            range(10, 121, 10),
        )
        assert report.predicted_exponent == pytest.approx(2 / 3, abs=1e-12)
        assert report.exponent == pytest.approx(0.6771, abs=1e-3)


class TestRegimeGate:
    def test_balanced_squares_are_degenerate(self):
        with pytest.raises(RegimeViolation) as err:
            census(
                PowerLawFamily("kinetic", Fraction(2), mass=Fraction(1, 2)),
                PowerLawFamily("potential", Fraction(2)),
                range(10, 50),
            )
        assert err.value.degenerate
        assert "degenerate" in str(err.value)

    def test_scaled_squares_fail_without_the_degenerate_tag(self):
        with pytest.raises(RegimeViolation) as err:
            census(
                PowerLawFamily("kinetic", Fraction(2), mass=Fraction(1, 2)),
                PowerLawFamily("potential", Fraction(2), scale=Fraction(1, 3)),
                range(10, 50),
            )
        assert not err.value.degenerate


def scanned_window(family, ceiling):
    """The window margin found one |x| at a time."""
    w = 1
    while family.value(w) <= ceiling:
        w += 1
    return w + 1


class TestWindow:
    @pytest.mark.parametrize(
        "family",
        [
            linear_kinetic,
            linear_potential,
            PowerLawFamily("kinetic", Fraction(3, 2), mass=Fraction(1, 2)),
            PowerLawFamily("potential", Fraction(1, 2), scale=Fraction(7)),
            PowerLawFamily("potential", Fraction(2, 3)),
            PowerLawFamily("kinetic", Fraction(37, 13), mass=Fraction(5)),
        ],
    )
    @pytest.mark.parametrize("ceiling", [0, 1, 2, 7, 100, 1023, 1024, 1025])
    def test_bisection_finds_the_window_of_the_scan(self, family, ceiling):
        assert _window_for(family, ceiling) == scanned_window(family, ceiling)

    def test_the_first_magnitude_above_the_ceiling_gives_2(self):
        assert _window_for(linear_potential, 0) == 2
        assert _window_for(PowerLawFamily("potential", Fraction(1, 3), scale=Fraction(9)), 8) == 2

    def test_a_table_that_stays_under_the_ceiling_fails_fast(self):
        # floor(sqrt(|x|) / 1000) is 3 at 10**7, so the scan ran to 10**7 before it raised
        slow = PowerLawFamily("potential", Fraction(1, 2), scale=Fraction(1, 1000))
        start = time.perf_counter()
        with pytest.raises(RegimeViolation, match="table never exceeds the energy ceiling"):
            census(linear_kinetic, slow, range(10, 20))
        assert time.perf_counter() - start < 0.5
        assert _window_for(slow, 2) == 9 * 10**6 + 1  # 3 is first reached at 9 * 10**6
        with pytest.raises(RegimeViolation):
            _window_for(slow, 3)  # and 4 at 1.6 * 10**7


class TestOptions:
    def test_periods_can_be_skipped(self):
        report = census(linear_kinetic, linear_potential, range(10, 31), with_periods=False)
        assert all(row.period is None and row.ratio is None for row in report.rows)
        assert report.constant is None
        assert report.exponent == pytest.approx(1.0, abs=1e-9)

    def test_rows_are_csv_ready(self, diamond_report):
        rows = census_rows(diamond_report)
        assert rows[0][:2] == (10, 40)
        assert len(rows) == len(diamond_report.rows)


def tabulated(kinetic, potential, ceiling):
    """Both families on one window that holds every level up to ``ceiling``."""
    w = max(scanned_window(kinetic, ceiling), scanned_window(potential, ceiling))
    return SeparableHamiltonian1D(kinetic.materialize(-w, w), potential.materialize(-w, w))


def families(masses, scales):
    """In-regime (kinetic, potential) power families with these prefactors."""
    exponents = st.sampled_from(("1", "5/4", "4/3", "3/2", "7/4", "2", "3"))
    drawn = st.tuples(exponents, exponents, st.sampled_from(masses), st.sampled_from(scales))
    return drawn.map(
        lambda f: (PowerLawFamily("kinetic", f[0], mass=f[2]), PowerLawFamily("potential", f[1], scale=f[3]))
    ).filter(lambda pair: 1 / pair[0].exponent + 1 / pair[1].exponent > 1)


#: From tables that rise at every step to tables flat for several steps at a
#: time, whose shells are often empty.
any_families = families(("1/4", "1/2", "1", "3"), ("1/3", "1", "3"))
#: Tables that rise at every step of |x|, so no cell is stationary and RK4
#: cannot stall where it cuts a corner of the level.
rising_families = families(("1/4", "1/3", "1/2"), ("1", "2", "3"))


class TestPeriods:
    @settings(max_examples=40, deadline=None)
    @given(any_families, st.integers(12, 40))
    def test_periods_are_the_exact_cell_sums(self, pair, top):
        report = census(*pair, range(1, top + 1), fit_floor=1)
        ham = tabulated(*pair, top)
        for row in report.rows:  # empty shells (count 0) included
            assert math.isclose(row.period, exact_period(ham, row.energy), rel_tol=1e-12, abs_tol=0)

    @settings(max_examples=15, deadline=None)
    @given(rising_families, st.lists(st.integers(1, 40), min_size=1, max_size=3, unique=True))
    def test_rk4_converges_to_the_periods(self, pair, energies):
        ham = tabulated(*pair, 40)
        for energy in energies:
            assert math.isclose(rk4_period(ham, energy, 0.01), continuum_period(ham, energy), rel_tol=0.01)

    @pytest.mark.parametrize(
        "kinetic, potential, empty",
        [
            (PowerLawFamily("kinetic", "3/2", mass="1/2"), PowerLawFamily("potential", "3/2"), 15),
            (PowerLawFamily("kinetic", "7/4", mass="1/2"), PowerLawFamily("potential", "5/4", scale=3), 23),
        ],
    )
    def test_empty_shells_get_the_exact_period(self, kinetic, potential, empty):
        # An empty shell's walk starts on a crossing that brushes no site.
        report = census(kinetic, potential, range(1, 301))
        rows = [row for row in report.rows if row.count == 0]
        assert len(rows) == empty
        ham = tabulated(kinetic, potential, 300)
        for row in rows:
            assert row.ratio is None
            assert math.isclose(row.period, exact_period(ham, row.energy), rel_tol=1e-12, abs_tol=0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_periods_are_the_exact_sums_over_the_start_component(self, seed):
        # Multi-well tables that are not monotone in |q| or |p|: the period is
        # the time on the component through the first crossing of row p = 0
        # past the origin, not on every well of the level.
        ham, ceiling = random_landscape(random.Random(seed), False)
        for energy in range(ceiling + 1):
            if ham.value(0, 0) > energy:
                with pytest.raises(RegimeViolation, match=rf"level {energy} lies below H\(0, 0\)"):
                    continuum_period(ham, energy)
                continue
            q = next(q for q in range(1, 8) if ham.value(q, 0) > energy)
            exact = component_period(ham, energy, (q - 1 + 7, 7))
            assert exact is not None  # every window edge lies above the ceiling
            assert math.isclose(continuum_period(ham, energy), exact, rel_tol=1e-12, abs_tol=0)

    def test_levels_past_the_window_raise(self):
        small = IntegerFunction1D.from_callable(abs, -5, 5)
        assert continuum_period(SeparableHamiltonian1D(small, small), 4) == 16.0
        for energy in (5, 50):  # row p = 0 never rises above the level
            with pytest.raises(RegimeViolation, match=f"level {energy} not reached inside the window"):
                continuum_period(SeparableHamiltonian1D(small, small), energy)
        cut = SeparableHamiltonian1D(IntegerFunction1D.from_callable(abs, -2, 5), small)
        with pytest.raises(UnboundedContour, match=r"level 4\+eps leaves the window"):
            continuum_period(cut, 4)

    def test_unsupported_levels_and_tables_raise(self):
        lifted = SeparableHamiltonian1D(
            IntegerFunction1D.from_callable(lambda p: abs(p) + 3, -5, 5),
            IntegerFunction1D.from_callable(abs, -5, 5),
        )
        assert continuum_period(lifted, 4) == 4.0
        with pytest.raises(RegimeViolation, match=r"level 2 lies below H\(0, 0\) = 3"):
            continuum_period(lifted, 2)
        for kinetic, potential in ((1, -5), (-5, 1)):
            shifted = SeparableHamiltonian1D(
                IntegerFunction1D.from_callable(abs, kinetic, kinetic + 10),
                IntegerFunction1D.from_callable(abs, potential, potential + 10),
            )
            with pytest.raises(RegimeViolation, match=r"windows q \(.*\), p \(.*\) do not hold the origin"):
                continuum_period(shifted, 4)
        # A(q)*B(p) makes H bilinear in a cell, where the cell sum does not hold
        coupled, _ = random_landscape(random.Random(3), True)
        for energy in range(11, 16):
            with pytest.raises(RegimeViolation, match="the product term is not linear in a cell"):
                continuum_period(coupled, energy)


@pytest.mark.parametrize(
    "energies, fit_floor, message",
    [
        ([], 10, "need a nonempty ladder of nonnegative energies"),
        ([-1, 5], 0, "need a nonempty ladder of nonnegative energies"),
        (range(1, 20), 19, "need at least two rows at or above the fit floor"),
        (range(1, 20), 100, "need at least two rows at or above the fit floor"),
        ([10.7, 20.2, 30.9, 40.5], 10, "energies must be integers"),
        ([10, Fraction(20)], 10, "energies must be integers"),
        # a ladder whose tables would pass MAX_WINDOW entries on a side
        ([10, 300000], 10, r"energy ceiling 300000 needs tables out to \+-300002, past MAX_WINDOW = 262144"),
    ],
)
def test_census_rejects_ladders_it_cannot_fit(energies, fit_floor, message):
    with pytest.raises(ValueError, match=message):
        census(linear_kinetic, linear_potential, energies, fit_floor=fit_floor, with_periods=False)


def test_the_fit_floor_is_checked_before_any_period_walk(monkeypatch):
    # The fitted rows' counts come from the histogram convolution, so a floor
    # above the whole ladder fails before its first walk.
    walks = []
    monkeypatch.setattr(sys.modules["intham.census"], "continuum_period", lambda *args: walks.append(args))
    potential = PowerLawFamily("potential", Fraction(3, 2))
    with pytest.raises(ValueError, match="need at least two rows at or above the fit floor"):
        census(linear_kinetic, potential, range(10, 1000), fit_floor=10**6)
    assert walks == []


def test_period_work_past_the_cap_fails_before_any_table_or_walk(monkeypatch):
    # 1 024 energies from 10**5 would walk tables out to +-101 025 once each,
    # about 100 times MAX_PERIOD_WORK; the same ladder without periods runs.
    walks, tables = [], []
    census_module = sys.modules["intham.census"]
    monkeypatch.setattr(census_module, "continuum_period", lambda *args: walks.append(args))
    materialize = PowerLawFamily.materialize
    monkeypatch.setattr(PowerLawFamily, "materialize", lambda *args: tables.append(args) or materialize(*args))
    potential = PowerLawFamily("potential", Fraction(3, 2))
    ladder = range(10**5, 10**5 + MAX_ENERGIES)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"^'energies' asks for 1024 periods .* past MAX_PERIOD_WORK = {MAX_PERIOD_WORK}$"):
        census(linear_kinetic, potential, ladder)
    assert time.perf_counter() - start < 0.5
    assert walks == [] and tables == []
    report = census(linear_kinetic, potential, ladder, with_periods=False)
    assert len(report.rows) == MAX_ENERGIES and walks == [] and len(tables) == 2
