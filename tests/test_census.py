"""Shell-size counting, continuum periods, and the growth-exponent fit."""

import time
from fractions import Fraction

import pytest

from intham.census import CensusReport, _window_for, census, census_rows
from intham.errors import RegimeViolation
from intham.hamiltonians import PowerLawFamily

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

    def test_periods_track_counts_within_a_percent(self, diamond_report):
        ratios = [row.ratio for row in diamond_report.rows]
        assert min(ratios) == pytest.approx(0.9999132710324711, abs=1e-9)
        assert max(ratios) == pytest.approx(1.0060351263726972, abs=1e-9)
        assert diamond_report.constant == pytest.approx(1.000845, abs=1e-5)

    def test_sample_rows(self, diamond_report):
        first = diamond_report.rows[0]
        assert (first.energy, first.count) == (10, 40)
        assert first.period == pytest.approx(40.0930, abs=1e-3)


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
        assert report.constant == pytest.approx(0.999797, abs=1e-5)


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
