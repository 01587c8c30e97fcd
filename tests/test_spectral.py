"""Shell permutations, eigenphases, the damped phase series, operator checks."""

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intham.contours import enumerate_shell, next_site
from intham.errors import ShellNotClosed, ShellTooLarge
from intham.hamiltonians import IntegerFunction1D, SeparableHamiltonian1D
from intham import spectral
from intham.spectral import (
    BOUNDARY_PHASE,
    MAX_RADIUS,
    ShellPermutation,
    SpectrumEntry,
    TruncationConfig,
    cutoff_correction_check,
    damped_closed_form,
    eigenphases,
    hfract_operator_check,
    series_omega,
    spectrum_rows,
    total_spectrum,
)


def table(fn, lo=-6, hi=6):
    return IntegerFunction1D(lo, tuple(fn(x) for x in range(lo, hi + 1)))


diamond = SeparableHamiltonian1D(table(abs), table(abs))
pingpong = SeparableHamiltonian1D(table(lambda p: p * p), table(lambda q: 2 * q * q))


def permutation(ham, energy):
    shell = enumerate_shell(ham, energy)
    return ShellPermutation.from_step(lambda s: next_site(ham, *s), shell, energy)


four_cycle = permutation(diamond, 1)
two_cycle = permutation(pingpong, 1)
rest = permutation(diamond, 0)


def dense_operator_residuals(perm, cfg):
    """The operator series applied to every eigenvector by n x n permutation
    passes over the whole shell: the reference for the per-cycle check."""
    n = perm.size
    fwd = np.array(perm.mapping, dtype=np.intp)
    entries = eigenphases(perm)
    vectors = np.zeros((len(entries), n), dtype=complex)
    for row, entry in enumerate(entries):
        cycle = perm.cycles[entry.cycle]
        k = entry.length
        for j, pos in enumerate(cycle):
            vectors[row, pos] = cmath.exp(2j * math.pi * entry.index * j / k)

    forward = vectors.copy()   # U^n applied to each vector
    backward = vectors.copy()  # U^-n applied to each vector
    acc = np.zeros_like(vectors)
    sign = 1.0
    for term in range(1, cfg.terms + 1):
        next_forward = np.empty_like(forward)
        next_forward[:, fwd] = forward
        forward = next_forward
        backward = backward[:, fwd]
        weight = sign * math.exp(-term / cfg.radius) / term
        acc += weight * (backward - forward) / 1j
        sign = -sign

    residuals = []
    for row, entry in enumerate(entries):
        reference = damped_closed_form(entry.omega, cfg.radius)
        residuals.append(float(np.max(np.abs(acc[row] - reference * vectors[row]))))
    return entries, tuple(residuals)


@st.composite
def shell_permutations(draw, max_size=64):
    """Permutations of up to ``max_size`` states, built from cycle lengths
    that favour fixed points and repeats, placed on shuffled positions."""
    lengths = []
    size = draw(st.integers(0, max_size))
    while sum(lengths) < size:
        room = size - sum(lengths)
        lengths.append(min(room, draw(st.sampled_from([1, 1, 2, 3, 4, 5, 8, 12, 30, 64]))))
    order = draw(st.permutations(range(size)))
    mapping = [0] * size
    start = 0
    for k in lengths:
        cycle = order[start:start + k]
        for j, pos in enumerate(cycle):
            mapping[pos] = cycle[(j + 1) % k]
        start += k
    return ShellPermutation(tuple(range(size)), tuple(mapping), draw(st.integers(0, 5)))


class TestShellPermutation:
    def test_unit_diamond_is_one_four_cycle(self):
        assert four_cycle.cycles == ((0, 2, 3, 1),)

    def test_steep_well_is_a_transposition(self):
        assert two_cycle.cycles == ((0, 1),)

    def test_rest_site_is_a_fixed_point(self):
        assert rest.cycles == ((0,),)

    def test_partial_shell_is_rejected_with_the_escaping_state(self):
        shell = enumerate_shell(diamond, 1)
        with pytest.raises(ShellNotClosed) as err:
            ShellPermutation.from_step(lambda s: next_site(diamond, *s), shell[:3], 1)
        assert err.value.state == (0, 1)
        assert err.value.image == (1, 0)


class TestEigenphases:
    def test_four_cycle_phases_are_quarter_turns(self):
        entries = eigenphases(four_cycle)
        assert sorted(e.omega for e in entries) == [
            -math.pi / 2,
            0.0,
            math.pi / 2,
            math.pi,
        ]

    def test_half_turn_is_flagged_and_nudged_inside(self):
        entries = eigenphases(four_cycle)
        boundary = [e for e in entries if e.boundary]
        assert len(boundary) == 1
        assert boundary[0].omega == math.pi
        assert boundary[0].phase == BOUNDARY_PHASE
        assert BOUNDARY_PHASE < math.pi

    def test_interior_phases_pass_through_unchanged(self):
        for entry in eigenphases(four_cycle):
            if not entry.boundary:
                assert entry.phase == entry.omega

    def test_transposition_and_fixed_point(self):
        assert sorted(e.omega for e in eigenphases(two_cycle)) == [0.0, math.pi]
        assert [e.omega for e in eigenphases(rest)] == [0.0]


class TestPhaseSeries:
    def test_vanishes_at_zero(self):
        assert series_omega(0.0, 100) == 0.0

    def test_reconstructs_the_quarter_turn_slowly(self):
        err = abs(series_omega(math.pi / 2, 200001) - math.pi / 2)
        assert 0 < err < 1e-5

    def test_vanishes_identically_at_the_boundary(self):
        # every sin(n*pi) term is zero: the series cannot see a half turn
        assert abs(series_omega(math.pi, 500)) < 1e-12

    @pytest.mark.parametrize("omega", [0.5, 1.5, -3.0, math.pi - 0.1])
    @pytest.mark.parametrize("terms", [50, 100, 200, 400])
    def test_undamped_error_envelope(self, omega, terms):
        err = abs(series_omega(omega, terms) - omega)
        assert err <= 3 / (terms * abs(math.cos(omega / 2)))


class TestDampedClosedForm:
    def test_frozen_value(self):
        value = damped_closed_form(math.pi / 2, 10)
        assert value == pytest.approx(1.47096257800141, abs=1e-14)
        assert value == pytest.approx(2 * math.atan(math.exp(-0.1)), abs=1e-15)

    def test_damped_series_matches_the_closed_form(self):
        closed = damped_closed_form(math.pi / 2, 10)
        series = series_omega(math.pi / 2, 800, radius=10)
        assert abs(closed - series) < 1e-12

    def test_grid_agreement_with_the_damped_series(self):
        worst = 0.0
        for i in range(1, 40):
            omega = -math.pi + i * (2 * math.pi / 40)
            for radius in (5, 20, 100):
                series = series_omega(omega, 50 * radius, radius=radius)
                closed = damped_closed_form(omega, radius)
                worst = max(worst, abs(series - closed))
        assert worst < 1e-9

    def test_recovers_the_phase_as_damping_vanishes(self):
        for omega in (0.5, -2.0, 3.0):
            assert abs(damped_closed_form(omega, 1e9) - omega) < 1e-7

    def test_odd_in_omega(self):
        assert damped_closed_form(-1.2, 30) == -damped_closed_form(1.2, 30)


class TestOperatorCheck:
    def test_truncation_depth_scales_with_damping_radius(self):
        # The radius alone fixes the term count: the least that leaves the
        # exp(-n/R) tail below TAIL, about 41 terms per unit of R.
        for radius, terms in ((1, 42), (3, 125), (20, 829), (100, 4145), (MAX_RADIUS, 41447)):
            cfg = TruncationConfig(radius)
            assert cfg == TruncationConfig.for_radius(radius) == TruncationConfig(float(radius))
            assert (cfg.radius, cfg.terms) == (float(radius), terms)
        rng = random.Random(24)
        for radius in (rng.uniform(1, MAX_RADIUS) for _ in range(200)):
            cfg = TruncationConfig(radius)
            assert cfg == TruncationConfig.for_radius(radius)
            assert cfg.terms == math.ceil(-radius * math.log(spectral.TAIL)) <= 41447
        with pytest.raises(TypeError):
            TruncationConfig(20.0, 100)

    def test_radius_is_capped(self):
        assert TruncationConfig.for_radius(MAX_RADIUS).radius == MAX_RADIUS
        with pytest.raises(ValueError, match="radius"):
            TruncationConfig.for_radius(MAX_RADIUS + 1)

    def test_dense_operator_reproduces_the_closed_form(self):
        cfg = TruncationConfig.for_radius(20)
        for perm in (four_cycle, two_cycle, rest):
            result = hfract_operator_check(perm, cfg)
            assert result.max_residual < 1e-12

    def test_shell_size_cap(self):
        cfg = TruncationConfig.for_radius(20)
        with pytest.raises(ShellTooLarge) as err:
            hfract_operator_check(four_cycle, cfg, size_cap=2)
        assert err.value.size == 4
        assert err.value.limit == 2

    @given(perm=shell_permutations(), radius=st.sampled_from([1, 3, 20]))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_dense_operator_bit_for_bit(self, perm, radius):
        # cold: every cycle length's block is summed; warm: each is looked up
        cfg = TruncationConfig.for_radius(radius)
        entries, residuals = dense_operator_residuals(perm, cfg)
        spectral._cycle_residuals.cache_clear()
        cold = hfract_operator_check(perm, cfg)
        warm = hfract_operator_check(perm, cfg)
        assert spectral._cycle_residuals.cache_info().misses == len({len(c) for c in perm.cycles})
        for result in (cold, warm):
            assert result.entries == tuple(entries)
            assert result.residuals == residuals
            assert result.max_residual < 1e-9

    def test_each_cycle_length_is_summed_once_per_truncation(self):
        # shells of the diamond and the steep well share lengths 1, 2 and 4
        perms = [permutation(ham, e) for ham in (diamond, pingpong) for e in range(6)]
        cfgs = [TruncationConfig.for_radius(r) for r in (3, 20)] + [TruncationConfig(5)]
        spectral._cycle_residuals.cache_clear()
        first = [hfract_operator_check(perm, cfg) for cfg in cfgs for perm in perms]
        keys = {(len(c), cfg.radius, cfg.terms) for cfg in cfgs for perm in perms for c in perm.cycles}
        info = spectral._cycle_residuals.cache_info()
        assert info.misses == len(keys) < sum(len({len(c) for c in p.cycles}) for p in perms) * len(cfgs)
        assert info.currsize == len(keys) <= info.maxsize == spectral.MAX_CHECK_SIZE
        assert [hfract_operator_check(perm, cfg) for cfg in cfgs for perm in perms] == first
        assert spectral._cycle_residuals.cache_info().misses == len(keys)

    def test_size_cap_is_checked_before_any_work(self, monkeypatch):
        class Untouched:
            def __getattr__(self, name):
                raise AssertionError(f"config read before the cap check: {name}")

        def no_work(perm):
            raise AssertionError("eigenvectors built before the cap check")

        monkeypatch.setattr(spectral, "eigenphases", no_work)
        with pytest.raises(ShellTooLarge):
            hfract_operator_check(four_cycle, Untouched(), size_cap=3)

    @pytest.mark.parametrize(
        "radius, message",
        [
            (0, "damping radius must be at least 1"),
            (math.nextafter(1.0, 0.0), "damping radius must be at least 1"),
            (-math.inf, "damping radius must be at least 1"),
            (math.nan, "damping radius must be finite, got nan"),
            (math.inf, "radius inf exceeds the cap 1000"),
            (math.nextafter(MAX_RADIUS, math.inf), r"radius 1000\.0000000000001 exceeds the cap 1000"),
            (1000.0001, r"radius 1000\.0001 exceeds the cap 1000"),
            (1e6, "radius 1e\\+06 exceeds the cap 1000"),
        ],
    )
    def test_config_validation(self, radius, message):
        for build in (TruncationConfig, TruncationConfig.for_radius):
            with pytest.raises(ValueError, match=message):
                build(radius)


class TestTotals:
    def test_total_combines_energy_phase_and_half_turn(self):
        entry = SpectrumEntry(0, 1, 0, 0.0, 0.0, False, 3)
        assert entry.total == pytest.approx(7 * math.pi, abs=1e-12)

    def test_all_totals_are_nonnegative(self):
        for perm in (four_cycle, two_cycle, rest):
            assert all(t >= 0 for t in total_spectrum(eigenphases(perm)))

    def test_rows_are_csv_ready(self):
        rows = spectrum_rows(eigenphases(rest))
        assert len(rows) == 1
        assert rows[0][:3] == (0, 1, 0)


class TestCutoffCorrection:
    radii = [10**3, 10**4, 10**5, 10**6]

    def test_shift_tracks_the_inverse_radius_asymptote(self):
        rows = cutoff_correction_check(0.3, self.radii)
        assert [round(r.ratio, 9) for r in rows] == [
            0.992485022,
            0.992488689,
            0.992488725,
            0.992488726,
        ]

    def test_ratio_converges_to_the_fixed_angle_limit(self):
        rows = cutoff_correction_check(0.3, self.radii)
        limit = 0.3 / (2 * math.tan(0.15))
        gaps = [abs(r.ratio - limit) for r in rows]
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 1e-9

    def test_asymptote_is_two_over_radius_times_angle(self):
        (row,) = cutoff_correction_check(0.5, [2000])
        assert row.asymptote == pytest.approx(2 / (2000 * 0.5), abs=1e-18)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ShellPermutation((0, 1, 2), (0, 0, 1), 0), "mapping is not a permutation"),
        (lambda: ShellPermutation((0, 1), (0, 1, 2), 0), "mapping is not a permutation"),
        (lambda: ShellPermutation.from_step(lambda s: s, [(1, 0), (0, 1), (1, 0)], 1), "shell contains duplicate states"),
        (lambda: cutoff_correction_check(0.0, [10.0]), r"alpha must lie in \(0, pi\)"),
        (lambda: cutoff_correction_check(math.pi, [10.0]), r"alpha must lie in \(0, pi\)"),
        (lambda: cutoff_correction_check(-0.5, [10.0]), r"alpha must lie in \(0, pi\)"),
    ],
)
def test_spectral_inputs_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()
