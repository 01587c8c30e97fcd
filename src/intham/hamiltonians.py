"""Integer-valued separable Hamiltonians on a phase-space lattice.

A 1-pair Hamiltonian is ``H(Q, P) = T(P) + V(Q) + A(Q)*B(P)`` with all four
factors integer-valued on finite windows.  Between lattice points each factor
is linearly interpolated, which makes ``H`` bilinear on every unit cell.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .errors import ConfigError, WindowExceeded

#: Most entries a power-family ``window`` may hold, and the bound on its ends' distance
#: from 0: an entry of 37/13 costs about 3 us near 0, 4 us near 2**18; a table about 1 s.
MAX_WINDOW = 2**18
#: Largest numerator + denominator of a power-family ``exponent`` in lowest
#: terms.  An entry's cost grows with both (about 120 us at 401/3, whose
#: radicands pass 2**1000); within the cap the costliest exponents (29/14,
#: 33/16) cost within 1.1x of 37/13, so a ``MAX_WINDOW`` table stays about 1 s.
MAX_EXPONENT_TERMS = 50
#: Largest numerator or denominator of a power family's ``scale`` or ``mass``; it
#: admits every float :func:`fraction_from_json` snaps (denominators up to 10**9),
#: and a ``MAX_WINDOW`` table at 33/16 takes about 5.6 s at a scale of 2**32.
MAX_PREFACTOR = 2**32


def index_tuple(values, what: str) -> tuple:
    """``values`` as a tuple of ints, each read by ``operator.index``, so that
    a float or a Fraction raises ``ValueError`` instead of being truncated."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers") from None


def index_windows(windows, name: str, owner: str) -> tuple:
    """``windows`` as a tuple of ``(lo, hi)`` int pairs, each read by
    :func:`index_tuple`; a window that is not two integers with ``lo <= hi``
    raises ``ValueError`` naming it and its ``owner`` ("pair", "component"),
    and so does a ``windows`` that is not a list."""
    try:
        windows = tuple(windows)
    except TypeError:
        raise ValueError(f"{name} = {windows!r} is not a list of windows [lo, hi]") from None
    try:
        windows = tuple(index_tuple(w, name) for w in windows)
    except ValueError:
        for k, w in enumerate(windows):
            if not isinstance(w, Iterable):
                raise ValueError(f"{name}[{k}] = {w!r} of {owner} {k} is not a window [lo, hi]") from None
        raise
    for k, w in enumerate(windows):
        if len(w) != 2 or w[0] > w[1]:
            problem = "is empty: lo > hi" if len(w) == 2 else "is not a window [lo, hi]"
            raise ValueError(f"{name}[{k}] = {list(w)} of {owner} {k} {problem}")
    return windows


def check_product_term(coupling_pos, coupling_mom) -> None:
    """Reject a product term ``A(q)*B(p)`` given only one factor, naming the
    missing one: a model takes both factors or neither."""
    if (coupling_pos is None) != (coupling_mom is None):
        missing = "coupling_pos" if coupling_pos is None else "coupling_mom"
        raise ValueError(f"model needs '{missing}' too: the product term takes both factors")


@dataclass(frozen=True)
class IntegerFunction1D:
    """Integer values tabulated on the window ``[lo, lo + len(values) - 1]``."""

    lo: int
    values: tuple[int, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("empty window")
        if type(self.lo) is not int:  # one test in the common case: the evolver builds tables per sub-update
            object.__setattr__(self, "lo", index_tuple((self.lo,), "lo")[0])
        object.__setattr__(self, "values", index_tuple(self.values, "values"))

    @classmethod
    def _trusted(cls, lo: int, values: tuple) -> "IntegerFunction1D":
        """A table of Python ints the engine has just computed, built
        without the per-value check of public construction."""
        if not values:
            raise ValueError("empty window")
        table = object.__new__(cls)
        fields = table.__dict__
        fields["lo"], fields["values"] = lo, values
        return table

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    @property
    def window(self) -> tuple[int, int]:
        return (self.lo, self.hi)

    def __call__(self, x: int) -> int:
        if not (self.lo <= x <= self.hi):
            raise WindowExceeded(
                f"argument {x} outside window [{self.lo}, {self.hi}]", argument=x
            )
        return self.values[x - self.lo]

    @classmethod
    def from_callable(cls, fn: Callable[[int], int], lo: int, hi: int) -> "IntegerFunction1D":
        return cls(lo, tuple(map(fn, range(lo, hi + 1))))

    @classmethod
    def zero(cls, lo: int, hi: int) -> "IntegerFunction1D":
        return cls(lo, (0,) * (hi - lo + 1))


def _floor_nth_root(n: int, v: int) -> int:
    """Largest integer k with k**v <= n (n >= 0).

    For ``v >= 3`` an integer Newton iteration runs from a seed at least
    ``floor(r)``, ``r = n**(1/v)``; from there its iterates decrease strictly
    until they reach ``floor(r)``, where the next one is not smaller.  Below
    2**1000 the seed is ``int(float(n) ** (1/v) * (1 + 2**-30))``.
    ``float(n)`` and ``1/v`` are each within a factor ``1 ± 2**-53`` of exact,
    which moves the power off ``r`` by a factor of at most
    ``exp((1/v)·2**-53·(ln n + 1))``, and ``ln n < 694`` keeps that below
    ``1 + 2**-45``.  So a power within a few ulps of its exact value stays
    above ``r·(1 - 2**-44)``, the factor ``1 + 2**-30`` lifts the product past
    ``r``, and its ``int`` is at least ``floor(r) >= 1``.  From 2**1000 on,
    where ``float(n)`` nears overflow, the seed is ``2**ceil(bits/v)``.
    """
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    if v == 2:
        return math.isqrt(n)
    if n.bit_length() <= 1000:
        k = int(float(n) ** (1 / v) * (1 + 2**-30))
    else:
        k = 1 << -(-n.bit_length() // v)
    while True:
        nxt = ((v - 1) * k + n // k ** (v - 1)) // v
        if nxt >= k:
            return k
        k = nxt


def _power_constants(scale: Fraction, exponent: Fraction) -> tuple[int, int, int, int]:
    """``(u, v, num**v, den**v)`` for ``exponent = u/v`` and ``scale = num/den``."""
    if exponent <= 0:
        raise ValueError("exponent must be positive")
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    u, v = exponent.numerator, exponent.denominator
    return u, v, scale.numerator**v, scale.denominator**v


def _floor_powers(magnitudes, u: int, v: int, num: int, den: int) -> list[int]:
    """``floor(scale * m**(u/v))`` for each ``m`` of ``magnitudes``, given the
    constants of :func:`_power_constants`.  ``k <= scale * m**(u/v)`` exactly
    when ``k**v * den <= num * m**u``, so each value is the floored ``v``-th
    root of ``num * m**u // den``."""
    radicands = (num * m**u // den for m in magnitudes)
    if v == 1:
        return list(radicands)
    root = _floor_nth_root
    return [root(n, v) for n in radicands]


def floor_scaled_power(scale: Fraction, magnitude: int, exponent: Fraction) -> int:
    """Exact ``floor(scale * magnitude**exponent)`` for nonneg arguments."""
    if magnitude < 0:
        raise ValueError("magnitude must be nonnegative")
    return _floor_powers((magnitude,), *_power_constants(scale, exponent))[0]


@dataclass(frozen=True)
class PowerLawFamily:
    """Tabulated power laws: ``floor(scale*|X|**exponent)`` for potentials,
    ``floor(|X|**exponent / (2*mass))`` for kinetic terms.  The other kind's
    prefactor (a ``scale`` other than 1, or any ``mass``) raises ``ValueError``."""

    kind: str  # "kinetic" | "potential"
    exponent: Fraction
    scale: Fraction = Fraction(1)  # potential only
    mass: Optional[Fraction] = None  # kinetic only

    def __post_init__(self):
        if self.kind not in ("kinetic", "potential"):
            raise ValueError(f"unknown kind {self.kind!r}")
        object.__setattr__(self, "exponent", Fraction(self.exponent))
        object.__setattr__(self, "scale", Fraction(self.scale))
        if self.exponent.numerator + self.exponent.denominator > MAX_EXPONENT_TERMS:
            raise ValueError(
                f"power-family 'exponent' {self.exponent} needs numerator + denominator at most {MAX_EXPONENT_TERMS}"
            )
        if self.kind == "kinetic":
            if self.scale != 1:
                raise ValueError(f"a kinetic power family takes no 'scale' other than 1, got {self.scale}")
            mass = Fraction(self.mass if self.mass is not None else 1)
            if mass <= 0:
                raise ValueError("mass must be positive")
            object.__setattr__(self, "mass", mass)
        else:
            if self.mass is not None:
                raise ValueError(f"a potential power family takes no 'mass', got {self.mass}")
            if self.scale <= 0:
                raise ValueError("scale must be positive")
        key = "mass" if self.kind == "kinetic" else "scale"
        if max(getattr(self, key).as_integer_ratio()) > MAX_PREFACTOR:
            raise ValueError(f"power-family '{key}' needs a numerator and denominator of at most 2**32")
        # Every entry's integer constants, outside equality, hash and repr.
        object.__setattr__(self, "_constants", _power_constants(self.prefactor, self.exponent))

    @property
    def prefactor(self) -> Fraction:
        if self.kind == "kinetic":
            return 1 / (2 * self.mass)
        return self.scale

    def value(self, x: int) -> int:
        return _floor_powers((abs(x),), *self._constants)[0]

    def materialize(self, lo: int, hi: int) -> IntegerFunction1D:
        """The table on ``[lo, hi]``; each magnitude in it is evaluated once."""
        if lo >= 0:
            values = _floor_powers(range(lo, hi + 1), *self._constants)
        elif hi <= 0:
            values = _floor_powers(range(-hi, -lo + 1), *self._constants)[::-1]
        else:
            values = _floor_powers(range(max(-lo, hi) + 1), *self._constants)
            values = values[-lo:0:-1] + values[: hi + 1]
        return IntegerFunction1D._trusted(lo, tuple(values))


@dataclass(frozen=True)
class SeparableHamiltonian1D:
    """``H = kinetic(P) + potential(Q) + coupling_pos(Q) * coupling_mom(P)``.

    ``coupling_pos`` and ``coupling_mom`` may both be None, which disables the
    product term; one alone raises ``ValueError``.  Instances are immutable
    and safe to share across threads.
    """

    kinetic: IntegerFunction1D
    potential: IntegerFunction1D
    coupling_pos: Optional[IntegerFunction1D] = None
    coupling_mom: Optional[IntegerFunction1D] = None
    # The highest level whose E + eps contours provably close inside the tables,
    # or None.  Only _trusted sets it; no field, so equality, hash and repr ignore it.
    _closure_level = None

    def __post_init__(self):
        check_product_term(self.coupling_pos, self.coupling_mom)
        if self.coupling_pos is not None and self.coupling_pos.window != self.potential.window:
            raise ValueError("coupling_pos window must match potential window")
        if self.coupling_mom is not None and self.coupling_mom.window != self.kinetic.window:
            raise ValueError("coupling_mom window must match kinetic window")

    @classmethod
    def _trusted(cls, kinetic, potential, closure_level=None) -> "SeparableHamiltonian1D":
        """``T(P) + V(Q)`` over tables the engine has just built, unchecked,
        whose contours close inside them at levels up to ``closure_level``."""
        ham = object.__new__(cls)
        ham.__dict__.update(
            kinetic=kinetic, potential=potential, coupling_pos=None, coupling_mom=None, _closure_level=closure_level
        )
        return ham

    @property
    def q_window(self) -> tuple[int, int]:
        return self.potential.window

    @property
    def p_window(self) -> tuple[int, int]:
        return self.kinetic.window

    @property
    def has_coupling(self) -> bool:
        return self.coupling_pos is not None

    def value(self, q: int, p: int) -> int:
        """Integer energy at the lattice site ``(q, p)``."""
        h = self.kinetic(p) + self.potential(q)
        if self.coupling_pos is not None:
            h += self.coupling_pos(q) * self.coupling_mom(p)
        return h

    def cell_corners(self, cq: int, cp: int) -> tuple[int, int, int, int]:
        """Corner energies ``(c00, c10, c01, c11)`` of the unit cell with
        lower-left lattice site ``(cq, cp)``."""
        return (
            self.value(cq, cp),
            self.value(cq + 1, cp),
            self.value(cq, cp + 1),
            self.value(cq + 1, cp + 1),
        )


@dataclass
class SmoothnessReport:
    """Outcome of the advisory slow-variation check."""

    passed: bool
    violations: list[tuple[int, int]] = field(default_factory=list)


def validate_smoothness(fn: IntegerFunction1D) -> SmoothnessReport:
    """Advisory check: ``|F(x1) - F(x2)| < |x1 - x2| * (|x1| + |x2|)`` for all
    distinct window pairs.  Violations are reported, never enforced."""
    violations = []
    lo, hi = fn.window
    xs = range(lo, hi + 1)
    for i, x1 in enumerate(xs):
        for x2 in list(xs)[i + 1 :]:
            bound = abs(x1 - x2) * (abs(x1) + abs(x2))
            if abs(fn(x1) - fn(x2)) >= bound:
                violations.append((x1, x2))
    return SmoothnessReport(passed=not violations, violations=violations)


# -- JSON model descriptions -------------------------------------------------


def read_key(cfg: dict, key: str, default=None, kind=None, keys=None):
    """``cfg[key]``, or ``default`` when the key is absent (a ConfigError when
    there is none).  With ``kind`` the value must have exactly that JSON type,
    so no bool passes for an int and no float is truncated; with ``keys`` it
    must be an object with no other keys."""
    if key not in cfg:
        if default is None:
            raise ConfigError(f"config needs '{key}'")
        return default
    value = cfg[key]
    if kind is not None and type(value) is not kind:
        raise ConfigError(f"'{key}' must be of type {kind.__name__}, got {value!r}")
    return value if keys is None else only_keys(value, keys, f"'{key}'")


def only_keys(obj, keys: set, where: str) -> dict:
    """``obj`` itself, checked to be an object with no key outside ``keys``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {obj!r}")
    unknown = set(obj) - keys
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")
    return obj


def integers(value, key: str, nested: bool = False):
    """``value`` itself, checked to be a JSON integer or a flat list of them
    (with ``nested``, lists nested to any depth).  A float, a bool, a string,
    a list where only integers belong or any other entry is a ConfigError
    that names ``key``: never truncated, never read as 0 or 1."""
    for entry in value if type(value) is list else (value,):
        if nested and type(entry) is list:
            integers(entry, key, nested)
        elif type(entry) is not int:
            raise ConfigError(f"'{key}' entries must be integers, got {entry!r}")
    return value


def read_window(cfg: dict, key: str, default=None) -> tuple[int, int]:
    """``cfg[key]`` (or ``default``) read as a window ``[lo, hi]``: two JSON
    integers with ``lo <= hi``, else a ConfigError that names ``key``."""
    window = integers(read_key(cfg, key, default, list), key)
    if len(window) != 2 or window[0] > window[1]:
        raise ConfigError(f"'{key}' must be [lo, hi] integers with lo <= hi, got {window!r}")
    return tuple(window)


def fraction_from_json(value) -> Fraction:
    """Exact rational from a JSON value: int, "num/den" string, or finite
    float (snapped to a nearby small-denominator rational)."""
    if type(value) is int:  # bools fall through to the error below
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad rational literal {value!r}") from exc
    if isinstance(value, float) and math.isfinite(value):
        return Fraction(value).limit_denominator(10**9)
    raise ConfigError(f"expected a rational, got {value!r}")


def function_from_json(entry: dict, role: str) -> Optional[IntegerFunction1D]:
    """Build one factor from its JSON description.

    Accepted forms::

        {"table": {"lo": -3, "values": [3, 1, 0, 0, 1, 3, 7]}}
        {"family": "power", "exponent": "3/2", "scale": "1/2", "window": [-8, 8]}
        {"family": "power", "exponent": 1, "mass": "1/2", "window": [-8, 8]}
        null

    ``role`` is "kinetic" or "potential" and selects the power-law form when
    neither ``scale`` nor ``mass`` makes it explicit.  Any other key is a
    :class:`ConfigError` that names it.
    """
    if entry is None:
        return None
    if isinstance(entry, dict) and "table" in entry:
        table = read_key(only_keys(entry, {"table"}, "model entry"), "table", keys={"lo", "values"})
        values = integers(read_key(table, "values", kind=list), "values")
        if not values:
            raise ConfigError("'values' needs at least one entry")
        return IntegerFunction1D(read_key(table, "lo", kind=int), tuple(values))
    only_keys(entry, {"family", "exponent", "scale", "mass", "window"}, "model entry")
    if entry.get("family") == "power":
        lo, hi = read_window(entry, "window")
        if lo <= -MAX_WINDOW or hi >= MAX_WINDOW or hi - lo >= MAX_WINDOW:
            raise ConfigError(f"power-family 'window' must lie in (-{MAX_WINDOW}, {MAX_WINDOW}), {MAX_WINDOW} entries at most")
        return power_family_from_json(entry, role).materialize(lo, hi)
    raise ConfigError(f"unrecognized model entry: {entry!r}")


def power_family_from_json(entry: dict, role: str) -> PowerLawFamily:
    """The power family of ``entry``'s ``exponent`` (default 1) and ``scale``
    or ``mass``, kinetic when ``mass`` is given or ``role`` is "kinetic" and
    ``scale`` is not; a value the family refuses is a ConfigError."""
    kind = "kinetic" if ("mass" in entry or role == "kinetic") and "scale" not in entry else "potential"
    try:
        return PowerLawFamily(
            kind=kind,
            exponent=fraction_from_json(entry.get("exponent", 1)),
            scale=fraction_from_json(entry.get("scale", 1)),
            mass=fraction_from_json(entry["mass"]) if "mass" in entry else None,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def hamiltonian_from_json(model: dict) -> SeparableHamiltonian1D:
    """Build a 1-pair Hamiltonian from a model object.

    Required keys: ``kinetic`` and ``potential``.  Optional ``coupling_pos``
    and ``coupling_mom`` enable the product term, and need each other.
    """
    only_keys(model, {"kinetic", "potential", "coupling_pos", "coupling_mom"}, "model")
    kinetic = function_from_json(model.get("kinetic"), "kinetic")
    potential = function_from_json(model.get("potential"), "potential")
    if kinetic is None or potential is None:
        raise ConfigError("model requires both 'kinetic' and 'potential'")
    coupling_pos = function_from_json(model.get("coupling_pos"), "potential")
    coupling_mom = function_from_json(model.get("coupling_mom"), "kinetic")
    try:
        return SeparableHamiltonian1D(kinetic, potential, coupling_pos, coupling_mom)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
