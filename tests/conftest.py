"""Shared fixtures: random confining and multi-well Hamiltonians and the
acceptance summary.

The generators here produce tabulated Hamiltonians whose kinetic and potential
tables are monotone away from the origin with increments in {0, 1, 2}, a flat
step at |x| = 1 (so the curvature screen passes), and a slope-2 tail that keeps
growing until the table value clears the box energy.  Everything inside the
box is then provably confined: a contour at energy <= E_box can never reach a
coordinate whose table value alone exceeds E_box.
"""

import random

from intham.hamiltonians import IntegerFunction1D, SeparableHamiltonian1D


def monotone_side(rng, box, ceiling):
    """Table values for x = 0, 1, 2, ...: flat at x=1, random in the box."""
    vals = [0]
    while len(vals) <= box or vals[-1] <= ceiling:
        if len(vals) == 1:
            step = 0
        elif len(vals) <= box:
            step = rng.choices((0, 1, 2), weights=(2, 6, 2))[0]
        else:
            step = 2
        vals.append(vals[-1] + step)
    return vals


def random_confining(rng, box=20):
    """A random confining Hamiltonian plus the energy ceiling of its box.

    Returns ``(ham, box_energy)`` where ``box_energy`` bounds H on the
    (2*box+1)^2 site square around the origin and the windows extend far
    enough that every contour at or below that energy closes inside them.
    """
    ceiling = 8 * box  # loose upper bound on box energies, refined below
    t_pos = monotone_side(rng, box, ceiling)
    t_neg = monotone_side(rng, box, ceiling)
    v_pos = monotone_side(rng, box, ceiling)
    v_neg = monotone_side(rng, box, ceiling)
    box_energy = max(t_pos[box], t_neg[box]) + max(v_pos[box], v_neg[box])

    def build(neg, pos):
        w = max(
            next(i for i, v in enumerate(neg) if v > box_energy),
            next(i for i, v in enumerate(pos) if v > box_energy),
        )
        return IntegerFunction1D(
            -w, tuple(neg[i] for i in range(w, 0, -1)) + tuple(pos[: w + 1])
        )

    return SeparableHamiltonian1D(build(t_neg, t_pos), build(v_neg, v_pos)), box_energy


def well_sites(ham, ceiling):
    """All window sites with energy at most ``ceiling``, in raster order."""
    qlo, qhi = ham.q_window
    plo, phi = ham.p_window
    return [
        (q, p)
        for q in range(qlo, qhi + 1)
        for p in range(plo, phi + 1)
        if ham.value(q, p) <= ceiling
    ]


def random_landscape(rng, coupled, half=7, even=False):
    """Non-monotone multi-well tables on [-half, half] with steep walls, plus a
    random product term when ``coupled``; returns ``(ham, ceiling)``.  With
    ``even`` the momentum tables (the kinetic table and the product term's
    ``B``) are even in p.

    Every window-boundary site lies above ``ceiling``, so a contour at or
    below it never crosses a boundary edge and closes inside the windows.
    """

    def table(lo, hi, wall, even=False):
        xs = range(0 if even else -half, half + 1)
        values = [rng.randint(lo, hi) + wall * max(0, abs(x) - half + 3) ** 2 for x in xs]
        return IntegerFunction1D(-half, tuple(values[:0:-1] + values if even else values))

    kin, pot = table(0, 6, 6, even), table(0, 6, 6)
    ham = SeparableHamiltonian1D(kin, pot)
    if coupled:
        ham = SeparableHamiltonian1D(kin, pot, table(-2, 2, 0), table(-2, 2, 0, even))
    xs = range(-half, half + 1)
    ring = [(q, p) for q in xs for p in xs if half in (abs(q), abs(p))]
    return ham, min(ham.value(*s) for s in ring) - 1


# --- acceptance summary ------------------------------------------------------

_ACCEPTANCE: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py::test_c" not in report.nodeid:
        return
    if report.when == "call" or (report.when == "setup" and not report.passed):
        name = report.nodeid.split("::")[-1]
        if report.passed:
            outcome = "PASS"
        elif report.failed:
            outcome = "FAIL"
        else:
            outcome = "SKIP"
        _ACCEPTANCE[name] = outcome


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE):
        terminalreporter.write_line(f"{_ACCEPTANCE[name]:<4s}  {name}")
