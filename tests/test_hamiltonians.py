"""Tabulated energy functions, power-law tables, and the JSON model loader."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intham.errors import ConfigError, WindowExceeded
from intham.evolver import CoupledSeparableHamiltonian
from intham.hamiltonians import (
    MAX_EXPONENT_TERMS,
    MAX_PREFACTOR,
    MAX_WINDOW,
    IntegerFunction1D,
    _floor_nth_root,
    PowerLawFamily,
    SeparableHamiltonian1D,
    floor_scaled_power,
    fraction_from_json,
    function_from_json,
    hamiltonian_from_json,
    validate_smoothness,
)

squares = IntegerFunction1D.from_callable(lambda x: x * x, -4, 4)
halved = IntegerFunction1D.from_callable(lambda x: (x * x) // 2, -4, 4)


class TestIntegerFunction1D:
    def test_window_and_lookup(self):
        fn = IntegerFunction1D(-2, (4, 1, 0, 1, 4))
        assert fn.window == (-2, 2)
        assert fn(-2) == 4 and fn(0) == 0 and fn(2) == 4

    def test_out_of_window_lookup_raises_with_argument(self):
        fn = IntegerFunction1D(-2, (4, 1, 0, 1, 4))
        with pytest.raises(WindowExceeded) as err:
            fn(3)
        assert err.value.argument == 3

    def test_rejects_empty_and_non_integer_tables(self):
        with pytest.raises(ValueError):
            IntegerFunction1D(0, ())
        with pytest.raises(ValueError):
            IntegerFunction1D(0, (1, 2.5))

    def test_accepts_numpy_integers_and_rejects_other_numbers(self):
        fn = IntegerFunction1D(0, (np.int64(3), np.int32(-1), 2))
        assert fn.values == (3, -1, 2)
        assert all(type(v) is int for v in fn.values)
        for bad in (3.0, Fraction(3), np.float64(3)):
            with pytest.raises(ValueError, match="integers"):
                IntegerFunction1D(0, (bad,))


class TestFloorScaledPower:
    def test_hand_checked_values(self):
        # floor(1/2 * 5**(3/2)): 5**3 = 125, 5**2*4 = 100 <= 125 < 144
        assert floor_scaled_power(Fraction(1, 2), 5, Fraction(3, 2)) == 5
        # exact at perfect powers: 4**(3/2) = 8
        assert floor_scaled_power(Fraction(1), 4, Fraction(3, 2)) == 8
        assert floor_scaled_power(Fraction(1, 2), 7, Fraction(2)) == 24
        assert floor_scaled_power(Fraction(3), 0, Fraction(1, 2)) == 0

    def test_negative_magnitude_rejected(self):
        with pytest.raises(ValueError):
            floor_scaled_power(Fraction(1), -2, Fraction(2))

    @pytest.mark.parametrize("exponent", [Fraction(1), Fraction(2), Fraction(3, 2)])
    def test_negative_scale_rejected_for_every_exponent(self, exponent):
        with pytest.raises(ValueError, match="scale must be nonnegative"):
            floor_scaled_power(Fraction(-1, 2), 3, exponent)

    @given(
        st.fractions(min_value="1/20", max_value=100, max_denominator=20),
        st.integers(min_value=0, max_value=10**6),
        st.fractions(min_value="1/4", max_value=4, max_denominator=4),
    )
    # big magnitudes raised to fractional powers grind exact bignum roots
    @settings(deadline=None)
    def test_satisfies_the_defining_inequalities(self, scale, magnitude, exponent):
        k = floor_scaled_power(scale, magnitude, exponent)
        u, v = exponent.numerator, exponent.denominator
        lhs = scale.numerator**v * magnitude**u
        assert k**v * scale.denominator**v <= lhs
        assert (k + 1) ** v * scale.denominator**v > lhs


    @given(st.integers(min_value=0, max_value=10**400), st.integers(min_value=3, max_value=7))
    def test_integer_root_brackets_huge_radicands(self, n, v):
        k = _floor_nth_root(n, v)
        assert k**v <= n < (k + 1) ** v

    @pytest.mark.parametrize("v", range(3, 8))
    def test_integer_root_at_perfect_powers(self, v):
        for base in (1, 2, 10**57, 3**200):
            for n in (base**v - 1, base**v, base**v + 1):
                k = _floor_nth_root(n, v)
                assert k**v <= n < (k + 1) ** v

    def test_huge_magnitude_with_a_fractional_exponent(self):
        # a float-seeded root overflows here and crawls at 10**200
        k = floor_scaled_power(Fraction(1), 10**400, Fraction(1, 3))
        assert k**3 <= 10**400 < (k + 1) ** 3


class TestPowerLawFamily:
    def test_kinetic_prefactor_is_inverse_double_mass(self):
        fam = PowerLawFamily("kinetic", Fraction(2), mass=Fraction(1, 2))
        assert fam.prefactor == 1
        assert [fam.value(x) for x in (-3, 0, 3)] == [9, 0, 9]

    def test_default_kinetic_mass_halves_the_square(self):
        fam = PowerLawFamily("kinetic", Fraction(2))
        assert [fam.value(p) for p in range(4)] == [0, 0, 2, 4]

    def test_potential_scale(self):
        fam = PowerLawFamily("potential", Fraction(1), scale=Fraction(3, 2))
        assert [fam.value(q) for q in range(4)] == [0, 1, 3, 4]

    def test_materialize_covers_the_window(self):
        fn = PowerLawFamily("potential", Fraction(2)).materialize(-3, 3)
        assert fn.window == (-3, 3)
        assert fn(-3) == 9

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            PowerLawFamily("thermal", Fraction(2))
        with pytest.raises(ValueError):
            PowerLawFamily("potential", Fraction(0))
        with pytest.raises(ValueError):
            PowerLawFamily("kinetic", Fraction(2), mass=Fraction(-1))
        with pytest.raises(ValueError, match="'exponent' 401/3"):
            PowerLawFamily("potential", Fraction(401, 3))


# exponents within the cap, and scales/masses with small denominators
capped_exponents = st.builds(Fraction, st.integers(1, 49), st.integers(1, 49)).filter(
    lambda e: e.numerator + e.denominator <= MAX_EXPONENT_TERMS
)
small_fractions = st.fractions(min_value="1/6", max_value=12, max_denominator=6)


@st.composite
def windows(draw):
    """A window that holds 0, lies wholly below or above it, or holds one entry."""
    form = draw(st.sampled_from(["around 0", "below 0", "above 0", "single"]))
    if form == "single":
        x = draw(st.integers(-5000, 5000))
        return x, x
    width = draw(st.integers(0, 80))
    if form == "around 0":
        lo = draw(st.integers(-80, 0))
        return lo, draw(st.integers(0, 80))
    if form == "below 0":
        hi = draw(st.integers(-400, -1))
        return hi - width, hi
    lo = draw(st.integers(1, 400))
    return lo, lo + width


class TestPowerTables:
    @given(st.sampled_from(["kinetic", "potential"]), capped_exponents, small_fractions, windows())
    @settings(deadline=None)
    def test_every_entry_is_the_scaled_power_of_its_magnitude(self, kind, exponent, factor, window):
        fam = PowerLawFamily(kind, exponent, **{"mass" if kind == "kinetic" else "scale": factor})
        lo, hi = window
        table = fam.materialize(lo, hi)
        assert table.window == (lo, hi)
        scale, (u, v) = fam.prefactor, (exponent.numerator, exponent.denominator)
        for x, k in zip(range(lo, hi + 1), table.values):
            assert type(k) is int and k == fam.value(x)
            assert k == floor_scaled_power(scale, abs(x), exponent)
            lhs = scale.numerator**v * abs(x) ** u  # floor(scale * |x|**(u/v)) brackets it
            assert k**v * scale.denominator**v <= lhs < (k + 1) ** v * scale.denominator**v

    @given(
        st.one_of(st.integers(1, 1100), st.integers(990, 1010)).flatmap(
            lambda bits: st.integers(2 ** (bits - 1), 2**bits - 1)
        ),
        st.integers(3, 49),
    )
    # the float seed serves radicands up to 1000 bits, the bit-length seed beyond
    @example(2**1000 - 1, 3)
    @example(2**1000, 3)
    @example(2**1000 - 1, 49)
    @example(2**1000, 49)
    def test_integer_root_brackets_both_sides_of_the_float_seed(self, n, v):
        k = _floor_nth_root(n, v)
        assert k**v <= n < (k + 1) ** v

    @given(st.integers(3, 49), st.integers(1, 1100), st.sampled_from([-1, 0, 1]), st.data())
    def test_integer_root_at_perfect_powers_on_both_sides_of_the_float_seed(self, v, bits, delta, data):
        base = data.draw(st.integers(2, max(2, 2 ** (bits // v))))
        assert _floor_nth_root(base**v + delta, v) == (base - 1 if delta < 0 else base)

    def test_entries_read_the_pinned_values_on_each_side_of_0(self):
        fam = PowerLawFamily("kinetic", Fraction(3, 2), mass=Fraction(1, 3))  # floor(1.5 * |x|**1.5)
        assert fam.materialize(-4, 3).values == (12, 7, 4, 1, 0, 1, 4, 7)
        assert fam.materialize(-4, -2).values == (12, 7, 4)
        assert fam.materialize(2, 4).values == (4, 7, 12)
        assert fam.materialize(-3, -3).values == (7,)
        with pytest.raises(ValueError):
            fam.materialize(3, 2)

    def test_constants_stay_out_of_equality_hash_and_repr(self):
        a = PowerLawFamily("potential", Fraction(37, 13), scale=Fraction(2, 3))
        b = PowerLawFamily("potential", Fraction(37, 13), scale=Fraction(2, 3))
        assert a._constants == (37, 13, 2**13, 3**13)
        assert a == b and hash(a) == hash(b)
        assert "_constants" not in repr(a)


class TestSeparableHamiltonian1D:
    def test_value_sums_kinetic_and_potential(self):
        ham = SeparableHamiltonian1D(halved, squares)
        assert ham.value(2, 3) == 4 + 4
        assert ham.q_window == (-4, 4) and ham.p_window == (-4, 4)
        assert not ham.has_coupling

    def test_product_term_multiplies_factor_tables(self):
        ones = IntegerFunction1D(-4, (1,) * 9)
        ham = SeparableHamiltonian1D(halved, squares, coupling_pos=squares, coupling_mom=ones)
        assert ham.has_coupling
        assert ham.value(2, 3) == 4 + 4 + 4 * 1

    @pytest.mark.parametrize("given, missing", [("coupling_pos", "coupling_mom"), ("coupling_mom", "coupling_pos")])
    def test_one_sided_coupling_is_rejected(self, given, missing):
        # The product term takes both factors: one alone is an error, never
        # silently dropped, in the 1-pair tables and in the coupled system.
        message = f"model needs '{missing}' too: the product term takes both factors"
        with pytest.raises(ValueError, match=message):
            SeparableHamiltonian1D(halved, squares, **{given: squares})
        with pytest.raises(ValueError, match=message):
            CoupledSeparableHamiltonian(2, sum, sum, ((-4, 4),) * 2, ((-4, 4),) * 2, **{given: sum})

    def test_coupling_window_mismatch_rejected(self):
        short = IntegerFunction1D(0, (0, 1))
        with pytest.raises(ValueError):
            SeparableHamiltonian1D(halved, squares, coupling_pos=short, coupling_mom=halved)

    def test_cell_corners_order(self):
        ham = SeparableHamiltonian1D(squares, squares)
        assert ham.cell_corners(0, 0) == (0, 1, 1, 2)


class TestSmoothness:
    def test_quarter_square_passes(self):
        assert validate_smoothness(halved).passed

    def test_full_square_fails_at_the_origin_step(self):
        report = validate_smoothness(squares)
        assert not report.passed
        assert (0, 1) in report.violations


class TestJsonModels:
    def test_an_unknown_family_is_a_config_error_naming_the_entry(self):
        entry = {"family": "exp", "window": [-2, 2]}
        with pytest.raises(ConfigError, match=r"^unrecognized model entry: \{'family': 'exp', 'window': \[-2, 2\]\}$"):
            function_from_json(entry, "potential")

    def test_table_form(self):
        ham = hamiltonian_from_json(
            {
                "kinetic": {"table": {"lo": -2, "values": [2, 1, 0, 1, 2]}},
                "potential": {"table": {"lo": -2, "values": [4, 1, 0, 1, 4]}},
            }
        )
        assert ham.value(2, 1) == 5

    def test_power_form_with_rational_strings(self):
        ham = hamiltonian_from_json(
            {
                "kinetic": {"family": "power", "exponent": 2, "mass": "1/2", "window": [-3, 3]},
                "potential": {"family": "power", "exponent": "3/2", "scale": "1/2", "window": [-3, 3]},
            }
        )
        assert ham.value(2, 3) == 9 + 1  # floor(2**1.5 / 2) = 1

    def test_role_selects_the_kinetic_form(self):
        ham = hamiltonian_from_json(
            {
                "kinetic": {"family": "power", "exponent": 2, "window": [-3, 3]},
                "potential": {"family": "power", "exponent": 2, "window": [-3, 3]},
            }
        )
        # kinetic defaults to mass 1 (halved square), potential to scale 1
        assert ham.value(3, 3) == 9 + 4

    def test_coupling_entries(self):
        ham = hamiltonian_from_json(
            {
                "kinetic": {"table": {"lo": -1, "values": [1, 0, 1]}},
                "potential": {"table": {"lo": -1, "values": [1, 0, 1]}},
                "coupling_pos": {"table": {"lo": -1, "values": [0, 1, 0]}},
                "coupling_mom": {"table": {"lo": -1, "values": [2, 2, 2]}},
            }
        )
        assert ham.value(0, -1) == 1 + 0 + 1 * 2

    @pytest.mark.parametrize(
        "model",
        [
            {"kinetic": {"table": {"lo": 0, "values": [0]}}},
            {"kinetic": None, "potential": None},
            {"kinetic": {"table": {"lo": 0, "values": [0]}}, "potential": 7},
            {"kinetic": {"family": "power", "window": [0]}, "potential": {"table": {"lo": 0, "values": [0]}}},
            {"mystery": 1},
        ],
    )
    def test_malformed_models_raise_config_error(self, model):
        with pytest.raises(ConfigError):
            hamiltonian_from_json(model)

    @pytest.mark.parametrize(
        "entry, named",
        [
            ({"family": "power", "exponnet": 3, "window": [-2, 2]}, "exponnet"),
            ({"family": "power", "exponent": 2, "window": [-2, 2], "lo": 0}, "lo"),
            ({"table": {"lo": 0, "values": [0]}, "window": [0, 0]}, "window"),
            ({"table": {"lo": 0, "values": [0], "hi": 0}}, "hi"),
        ],
    )
    def test_unknown_entry_keys_are_named(self, entry, named):
        with pytest.raises(ConfigError, match=named):
            function_from_json(entry, "potential")

    @pytest.mark.parametrize(
        "entry, named",
        [
            ({"table": {"lo": True, "values": [0, 1]}}, "'lo'"),
            ({"table": {"lo": 0, "values": [True, False, True]}}, "'values'"),
            ({"family": "power", "window": [False, True]}, "'window'"),
            ({"family": "power", "window": [[-1], [1]]}, "'window'"),
            ({"table": {"lo": 0, "values": [[1], [0], [1]]}}, "'values'"),
            ({"table": {"lo": 0, "values": []}}, "'values'"),
        ],
    )
    def test_integer_entries_are_named(self, entry, named):
        with pytest.raises(ConfigError, match=named):
            function_from_json(entry, "potential")

    @pytest.mark.parametrize("exponent", [1, 2, "3/2", "37/13", 49, "1/49"])
    def test_power_exponents_up_to_the_cap_are_built(self, exponent):
        # numerator + denominator one past MAX_EXPONENT_TERMS is a ConfigError (tests/test_cli.py)
        e = fraction_from_json(exponent)
        assert e.numerator + e.denominator <= MAX_EXPONENT_TERMS
        table = function_from_json({"family": "power", "exponent": exponent, "window": [-3, 3]}, "potential")
        assert table.values == tuple(floor_scaled_power(Fraction(1), abs(x), e) for x in range(-3, 4))

    @pytest.mark.parametrize(
        "window", [[3, 3], [0, MAX_WINDOW - 1], [MAX_WINDOW - 50, MAX_WINDOW - 1], [1 - MAX_WINDOW, 50 - MAX_WINDOW]]
    )
    def test_power_windows_up_to_the_cap_are_built(self, window):
        # one entry more, or an end at +-MAX_WINDOW, is a ConfigError (tests/test_cli.py)
        table = function_from_json({"family": "power", "exponent": 1, "window": window}, "potential")
        assert table.window == tuple(window) and table(window[1]) == abs(window[1])

    @pytest.mark.parametrize(
        "key, value", [("scale", MAX_PREFACTOR), ("scale", f"{MAX_PREFACTOR}/{MAX_PREFACTOR - 1}"),
                       ("scale", 0.123456789), ("mass", f"1/{MAX_PREFACTOR}")]
    )
    def test_prefactors_up_to_the_cap_are_built(self, key, value):
        # one past MAX_PREFACTOR in a numerator or a denominator is a ConfigError (tests/test_cli.py)
        entry = {"family": "power", "exponent": "33/16", key: value, "window": [-3, 3]}
        family = PowerLawFamily("kinetic" if key == "mass" else "potential", Fraction(33, 16),
                                **{key: fraction_from_json(value)})
        assert function_from_json(entry, "potential") == family.materialize(-3, 3)


class TestFractionFromJson:
    def test_accepted_forms(self):
        assert fraction_from_json(3) == 3
        assert fraction_from_json("2/7") == Fraction(2, 7)
        assert fraction_from_json(0.5) == Fraction(1, 2)

    @pytest.mark.parametrize("bad", [True, "7/0", "pi", [1]])
    def test_rejected_forms(self, bad):
        with pytest.raises(ConfigError):
            fraction_from_json(bad)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: _floor_nth_root(-1, 3), "negative radicand"),
        (lambda: PowerLawFamily("potential", 2, scale=0), "scale must be positive"),
        (lambda: PowerLawFamily("kinetic", 2, mass=0), "mass must be positive"),
        (lambda: PowerLawFamily("kinetic", 2, scale=7, mass=Fraction(1, 2)), "kinetic power family takes no 'scale' other than 1, got 7"),
        (lambda: PowerLawFamily("potential", 2, mass=3), "potential power family takes no 'mass', got 3"),
        (lambda: IntegerFunction1D.from_callable(lambda x: x / 2, -3, 3), "values must be integers"),
        (lambda: IntegerFunction1D.from_callable(lambda x: Fraction(x, 2), -3, 3), "values must be integers"),
        (lambda: IntegerFunction1D(0.5, (1, 2, 3)), "lo must be integers"),
        (
            lambda: SeparableHamiltonian1D(squares, squares, squares, IntegerFunction1D(-3, (0,) * 7)),
            "coupling_mom window must match kinetic window",
        ),
        (
            lambda: SeparableHamiltonian1D(squares, squares, IntegerFunction1D(-4, (0,) * 8), squares),
            "coupling_pos window must match potential window",
        ),
    ],
)
def test_table_constructors_reject_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_from_callable_keeps_integer_results():
    fn = IntegerFunction1D.from_callable(lambda x: x // 2, -3, 3)
    assert fn.values == (-2, -1, -1, 0, 0, 1, 1)
    assert IntegerFunction1D.from_callable(np.int64, -1, 1).values == (-1, 0, 1)
