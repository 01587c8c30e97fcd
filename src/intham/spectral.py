"""Spectral view of the one-step dynamics on a finite energy shell.

Restricted to the states of one conserved energy, a reversible update rule is
a permutation, hence a unitary operator whose eigenvalues are roots of unity:
``exp(-i*omega)`` with ``omega = 2*pi*m/k`` on every k-cycle.  The reduced
phase in (-pi, pi) plays the role of a fractional energy; together with the
integer shell energy it combines into a total energy

    total = 2*pi*energy + phase + pi

which is nonnegative whenever the integer energy is.  The module also checks
two analytic identities for the phase: the alternating sine series that
recovers ``omega`` from powers of the permutation, and the closed form of the
exponentially damped version of that series.  The damped operator check sums
the k x k block of one cycle length k once per ``(k, radius, terms)`` per
process: later shells with that cycle length look its residuals up.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ShellNotClosed, ShellTooLarge

TWO_PI = 2.0 * math.pi

#: Largest representable phase below the branch point.  Even cycle lengths
#: produce omega exactly pi, which the open phase interval excludes; those
#: entries are reported at this value and flagged as boundary cases.
BOUNDARY_PHASE = math.nextafter(math.pi, 0.0)


#: Bound on the exp(-n/radius) tail that :class:`TruncationConfig` leaves out
#: of the operator series, below double precision.
TAIL = 1e-18

#: Largest damping radius :class:`TruncationConfig` accepts.  The
#: operator check sums about 41 terms per unit of radius, each one pass over
#: the k x k block of every distinct cycle length k, so this bounds it at
#: about 41 000 passes.
MAX_RADIUS = 1000

#: Largest ``size_cap`` the CLI accepts for :func:`hfract_operator_check`, and
#: the number of cycle lengths whose residuals the check keeps.  A cold check
#: costs about terms x sum(k^2) over its new cycle lengths k, at most
#: terms x size^2, so with :data:`MAX_RADIUS` this bounds it at about
#: 41 000 passes over 256 x 512 floats; a length already seen with the same
#: truncation is a lookup.  The kept residuals hold at most 256 entries of at
#: most 256 floats each.
MAX_CHECK_SIZE = 256


@dataclass(frozen=True)
class TruncationConfig:
    """Damping radius of the truncated operator series, and the term count it
    fixes: the least that leaves the exp(-n/radius) tail below :data:`TAIL`,
    about 41 terms per unit of radius.  ``radius`` is read as a float and
    must lie in ``[1, MAX_RADIUS]``.
    """

    radius: float
    terms: int = field(init=False)

    def __post_init__(self):
        radius = float(self.radius)
        if math.isnan(radius):
            raise ValueError("damping radius must be finite, got nan")
        if radius > MAX_RADIUS:  # six digits where they are exact, else all of them
            text = f"{radius:g}" if float(f"{radius:g}") == radius else repr(radius)
            raise ValueError(f"radius {text} exceeds the cap {MAX_RADIUS}")
        if radius < 1:
            raise ValueError("damping radius must be at least 1")
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "terms", math.ceil(-radius * math.log(TAIL)))

    @classmethod
    def for_radius(cls, radius) -> "TruncationConfig":
        """``TruncationConfig(radius)``."""
        return cls(radius)


@dataclass(frozen=True)
class ShellPermutation:
    """One-step dynamics restricted to a fixed-energy set of states.

    ``mapping[j]`` is the index of the successor of ``basis[j]``; ``cycles``
    is the disjoint cycle decomposition, each cycle an orbit of the dynamics.
    """

    basis: tuple
    mapping: tuple[int, ...]
    energy: int
    cycles: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        n = len(self.basis)
        if sorted(self.mapping) != list(range(n)):
            raise ValueError("mapping is not a permutation")
        seen = [False] * n
        cycles = []
        for j in range(n):
            if seen[j]:
                continue
            cycle = []
            cur = j
            while not seen[cur]:
                seen[cur] = True
                cycle.append(cur)
                cur = self.mapping[cur]
            cycles.append(tuple(cycle))
        object.__setattr__(self, "cycles", tuple(cycles))

    @property
    def size(self) -> int:
        return len(self.basis)

    @classmethod
    def from_step(cls, step: Callable, shell: Sequence, energy: int) -> "ShellPermutation":
        """Tabulate one application of ``step`` over ``shell``.

        Raises :class:`ShellNotClosed` if any image falls outside the shell,
        which signals that the shell list is incomplete or a window is
        truncating the dynamics.
        """
        basis = tuple(shell)
        index = {s: j for j, s in enumerate(basis)}
        if len(index) != len(basis):
            raise ValueError("shell contains duplicate states")
        mapping = []
        for s in basis:
            image = step(s)
            j = index.get(image)
            if j is None:
                raise ShellNotClosed(
                    f"step leaves the shell of size {len(basis)}",
                    state=s,
                    image=image,
                )
            mapping.append(j)
        return cls(basis, tuple(mapping), energy)


@dataclass(frozen=True)
class SpectrumEntry:
    """One eigenvalue exp(-i*phase) of the shell permutation."""

    cycle: int
    length: int
    index: int
    omega: float
    phase: float
    boundary: bool
    energy: int

    @property
    def total(self) -> float:
        return TWO_PI * self.energy + self.phase + math.pi


def _reduced_omega(length: int, index: int) -> float:
    """Phase 2*pi*index/length folded into (-pi, pi]."""
    if 2 * index == length:
        return math.pi
    if 2 * index > length:
        return TWO_PI * (index - length) / length
    return TWO_PI * index / length


def eigenphases(perm: ShellPermutation) -> list[SpectrumEntry]:
    """All eigenvalues, cycle by cycle, as reduced phases.

    A k-cycle contributes the k-th roots of unity.  omega = pi (even k,
    index k/2) sits on the excluded boundary of the phase interval and is
    reported at :data:`BOUNDARY_PHASE` with the flag set.
    """
    entries = []
    for c, cycle in enumerate(perm.cycles):
        k = len(cycle)
        for m in range(k):
            omega = _reduced_omega(k, m)
            boundary = omega == math.pi
            phase = BOUNDARY_PHASE if boundary else omega
            entries.append(
                SpectrumEntry(c, k, m, omega, phase, boundary, perm.energy)
            )
    return entries


def total_spectrum(entries: Sequence[SpectrumEntry]) -> list[float]:
    """Total energies of the given entries; nonnegative for energy >= 0."""
    return [entry.total for entry in entries]


def series_omega(
    omega: float, terms: int, radius: Optional[float] = None
) -> float:
    """Partial sum 2*sum((-1)^(n-1) sin(n*omega)/n, n=1..terms).

    Undamped, the partial sums converge to ``omega`` on (-pi, pi); with
    ``radius`` set, each term is damped by exp(-n/radius).
    """
    total = 0.0
    sign = 1.0
    for n in range(1, terms + 1):
        term = sign * math.sin(n * omega) / n
        if radius is not None:
            term *= math.exp(-n / radius)
        total += term
        sign = -sign
    return 2.0 * total


def damped_closed_form(omega: float, radius: float) -> float:
    """Exact value of the damped series: 2*atan(sin w / (e^(1/R) + cos w))."""
    return 2.0 * math.atan2(
        math.sin(omega), math.exp(1.0 / float(radius)) + math.cos(omega)
    )


@dataclass(frozen=True)
class OperatorCheckResult:
    """Residuals of the truncated operator series on each eigenvector."""

    entries: tuple[SpectrumEntry, ...]
    residuals: tuple[float, ...]

    @property
    def max_residual(self) -> float:
        return max(self.residuals, default=0.0)


@lru_cache(maxsize=MAX_CHECK_SIZE)
def _cycle_residuals(k: int, radius: float, terms: int) -> tuple[float, ...]:
    """Max-norm residual of the damped operator series on each mode of a
    k-cycle, by mode index: see :func:`hfract_operator_check`."""
    modes = np.array([
        [cmath.exp(2j * math.pi * m * j / k) for m in range(k)] for j in range(k)
    ])
    tiled = np.tile(modes / 1j, (3, 1)).view(float)
    acc = np.zeros((k, 2 * k))
    step = np.empty_like(acc)
    for term in range(1, terms + 1):
        s = term % k
        if 2 * s % k:
            np.subtract(tiled[k + s:2 * k + s], tiled[k - s:2 * k - s], out=step)
            step *= (1.0 if term % 2 else -1.0) * math.exp(-term / radius) / term
            acc += step
    reference = np.array([damped_closed_form(_reduced_omega(k, m), radius) for m in range(k)])
    return tuple(np.abs(acc.view(complex) - reference * modes).max(axis=0).tolist())


def hfract_operator_check(
    perm: ShellPermutation,
    cfg: TruncationConfig,
    size_cap: int = 64,
) -> OperatorCheckResult:
    """Apply the damped operator series to every cycle eigenvector.

    The operator is sum over n of (-1)^(n-1) e^(-n/R) (U^-n - U^n)/(n*i),
    the antisymmetric combination whose eigenvalue on the omega-mode is the
    damped sine series, i.e. +omega in the undamped limit.  Each residual is
    the max-norm difference between the operator applied to the eigenvector
    and the damped closed form times that eigenvector.

    An eigenvector lives on its own cycle, where U^n is a cyclic shift by n,
    and its coordinates there depend only on the cycle length k and the
    mode index.  So the series runs once per ``(k, radius, terms)`` per
    process, in :func:`_cycle_residuals`, which keeps the residuals of the
    :data:`MAX_CHECK_SIZE` most recently used keys.  It runs on the k x k
    block of all modes of that length: row j holds coordinate j of every
    mode, divided by i, tiled to three periods so that each term's shifts
    are row slices.  Dividing by i swaps the real and imaginary parts and
    negates one, exactly, so the block is summed as real pairs.  Terms with
    2n = 0 mod k add an exact zero and are skipped; the others are added one
    by one in order, each shift difference scaled by the same weight in one
    reused buffer, so each residual equals the one of the dense operator on
    the whole shell, bit for bit (the dense operator is zero off the cycle).
    """
    n = perm.size
    if n > size_cap:
        raise ShellTooLarge(
            f"shell of size {n} exceeds the operator-check cap",
            size=n,
            limit=size_cap,
        )
    entries = eigenphases(perm)
    by_length = {
        k: _cycle_residuals(k, cfg.radius, cfg.terms) for k in {len(cycle) for cycle in perm.cycles}
    }
    residuals = tuple(by_length[e.length][e.index] for e in entries)
    return OperatorCheckResult(tuple(entries), residuals)


@dataclass(frozen=True)
class CutoffRow:
    """Damping-induced phase shift near the branch point, vs its asymptote."""

    alpha: float
    radius: float
    shift: float
    asymptote: float

    @property
    def ratio(self) -> float:
        return self.shift / self.asymptote


def cutoff_correction_check(
    alpha: float, radii: Sequence[float]
) -> list[CutoffRow]:
    """Tabulate the damping shift at omega = alpha - pi against 2/(R*alpha).

    Near the branch point the damped closed form exceeds the true phase by
    approximately 2/(radius*alpha); the tabulated ratios approach 1 in the
    joint limit of small alpha and large radius (for fixed alpha the limit
    is alpha/(2*tan(alpha/2)), within a few percent of 1 for small alpha).
    Meaningful only in the regime radius*alpha**2 >> 1.
    """
    if not 0.0 < alpha < math.pi:
        raise ValueError("alpha must lie in (0, pi)")
    omega = alpha - math.pi
    rows = []
    for radius in radii:
        radius = float(radius)
        shift = damped_closed_form(omega, radius) - omega
        rows.append(CutoffRow(alpha, radius, shift, 2.0 / (radius * alpha)))
    return rows


def spectrum_rows(entries: Sequence[SpectrumEntry]) -> list[tuple]:
    """Flat rows (cycle, length, index, omega, phase, energy, total,
    boundary) for CSV export."""
    return [
        (
            e.cycle,
            e.length,
            e.index,
            e.omega,
            e.phase,
            e.energy,
            e.total,
            e.boundary,
        )
        for e in entries
    ]
