"""The five intham benchmark workloads.

Every workload is a closed loop with one client.  Its inputs come from the
seed: model descriptions are generated once and built into tables by
``setup`` (the timed set-up), and round ``r`` draws its start state from
``random.Random(f"{name}:{seed}:{r}")``, so the same seed always gives the
same inputs.  A round is a short sequence of ops (blocking engine calls,
each timed through :meth:`Tally.op`) followed by an exact return to its
start.  Checks run between ops and are not timed; every failed check marks
the op it concerns as failed instead of stopping the run.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import random
import statistics
import time

import numpy as np
from intham import contours, evolver, fields, spectral
from intham.hamiltonians import (
    IntegerFunction1D,
    SeparableHamiltonian1D,
    hamiltonian_from_json,
)

#: Seed whose outputs are pinned by :data:`EXPECTED_DIGESTS`.
DEFAULT_SEED = 1

#: Step of the low-discrepancy sequence that spreads radii and energies
#: evenly over any prefix of rounds, so that every run, whatever its seed
#: or length, sees the same mix of cheap and costly ops.
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class OpFailed(Exception):
    """An op raised; the rest of its round is skipped."""


def _probe_work(n: int = 2000) -> int:
    """Fixed pure-Python work of the kind the engine does: small-integer
    arithmetic and comparisons, tuples, a dict and calls."""
    table = {}
    acc = 0
    for i in range(n):
        key = (i, i * 3 % 7, -i)
        table[key] = abs(key[1] - key[2]) + (i > 5)
        acc += table[key] if key[0] % 2 else -table[key]
    return acc


class SpeedProbe:
    """How fast the machine ran at given moments, from a fixed piece of work.

    On a host whose cores are shared, the speed of the same Python code
    drifts by up to 1.8x within seconds, and the engine's op times drift
    with it.  The probe times :func:`_probe_work` at least every
    ``PERIOD_S`` seconds between ops.  The scale at a moment is
    ``REFERENCE_S`` divided by the median of the ``WINDOW`` probe times
    nearest to it (two before, three after).  A time multiplied by its scale
    is the time the work would take at the speed where the probe takes
    ``REFERENCE_S``, about its time between ops on an idle 2-core x86 host.
    """

    PERIOD_S = 0.05
    WINDOW = 5
    REFERENCE_S = 0.0007

    def __init__(self):
        self.moments: list[float] = []
        self.samples: list[float] = []
        self._due = 0.0
        for _ in range(self.WINDOW):
            self.measure()

    def measure(self):
        start = time.perf_counter()
        _probe_work()
        now = time.perf_counter()
        self.moments.append(now)
        self.samples.append(now - start)
        self._due = now + self.PERIOD_S

    def tick(self):
        """Measure again if the period has passed."""
        if time.perf_counter() >= self._due:
            self.measure()

    def scales(self, moments: list[float]) -> list[float]:
        """The scale at each of the given past moments."""
        for _ in range(self.WINDOW // 2 + 1):
            self.measure()
        out = []
        for moment in moments:
            j = bisect.bisect_right(self.moments, moment)
            window = self.samples[max(0, j - self.WINDOW // 2) : j + self.WINDOW - self.WINDOW // 2]
            out.append(self.REFERENCE_S / statistics.median(window))
        return out


class Tally:
    """Latencies, work counts, failures and an output digest of one pass.

    ``raw_latencies`` are clock readings.  ``latencies`` are the same scaled
    to the probe's reference speed when the tally has a :class:`SpeedProbe`.
    """

    def __init__(self, tracer=None, probe: SpeedProbe | None = None):
        self.tracer = tracer
        self.probe = probe
        self.raw_latencies: list[float] = []
        self.ends: list[float] = []
        #: updates completed before each op started
        self.updates_before: list[int] = []
        self.updates = 0
        self.shell_sites = 0
        self.failed_ops: set[int] = set()
        self.failures: list[str] = []
        self.rounds = 0
        #: field-plane steps whose L1 spread exceeds 2t (observed, not a failure)
        self.l1_over_cap = 0
        self._digest = hashlib.sha256()
        self._scaled: list[float] | None = None

    @property
    def attempted(self) -> int:
        return len(self.raw_latencies)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    @property
    def latencies(self) -> list[float]:
        if self.probe is None:
            return self.raw_latencies
        if self._scaled is None or len(self._scaled) != self.attempted:
            scales = self.probe.scales(self.ends)
            self._scaled = [t * k for t, k in zip(self.raw_latencies, scales)]
        return self._scaled

    def counts(self) -> dict:
        """Work counts that must repeat exactly for the same inputs."""
        return {
            "ops": self.attempted,
            "updates": self.updates,
            "shell_sites": self.shell_sites,
            "l1_over_cap": self.l1_over_cap,
            "digest": self.digest,
        }

    def op(self, updates: int, fn, *args):
        """Time one blocking engine call ``fn(*args)`` that performs
        ``updates`` pair updates."""
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op(self.attempted)
        self.updates_before.append(self.updates)
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:
            self._done(start, error=True)
            self.fail(f"{getattr(fn, '__name__', fn)} raised {type(exc).__name__}: {exc}")
            raise OpFailed from exc
        self._done(start, error=False)
        self.updates += updates
        return result

    def _done(self, start: float, error: bool):
        end = time.perf_counter()
        if self.tracer is not None:
            self.tracer.end_op(error=error)
        self.raw_latencies.append(end - start)
        self.ends.append(end)
        if self.probe is not None:
            self.probe.tick()

    def fail(self, message: str):
        """Mark the latest op as failed."""
        self.failed_ops.add(max(self.attempted - 1, 0))
        if len(self.failures) < 20:
            self.failures.append(message)

    def check(self, ok: bool, message: str):
        if not ok:
            self.fail(message)

    def record(self, data):
        """Fold one output into the digest (bytes, or a value with a repr)."""
        if not isinstance(data, bytes):
            data = repr(data).encode()
        self._digest.update(data)


def _round_rng(name: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{r}")


def _spread(seed: int, name: str, k: int) -> float:
    """k-th point of a seeded golden-ratio sequence in [0, 1)."""
    offset = random.Random(f"{name}:{seed}:offset").random()
    return (offset + k * GOLDEN) % 1.0


# -- bowl-orbit ---------------------------------------------------------------


def _power(exponent, window, **extra) -> dict:
    return {"family": "power", "exponent": exponent, "window": [-window, window], **extra}


class BowlOrbit:
    """Quadratic bowl ``p**2 + q**2``, starts at radii 200-350: one huge
    component per start, walked again on every step."""

    name = "bowl-orbit"
    digest_rounds = 4
    trace_rounds = 15

    def inputs(self, seed: int, smoke: bool = False) -> dict:
        window = 400
        return {
            "seed": seed,
            "model": {
                "kinetic": _power(2, window, mass="1/2"),
                "potential": _power(2, window),
            },
            "radii": (20, 35) if smoke else (200, 350),
            "steps": 3 if smoke else 10,
        }

    def setup(self, inp: dict) -> dict:
        ham = hamiltonian_from_json(inp["model"])
        return {**inp, "ham": ham, "system": evolver.decoupled([ham])}

    def round(self, ctx: dict, r: int, tally: Tally):
        lo, hi = ctx["radii"]
        radius = lo + (hi - lo) * _spread(ctx["seed"], self.name, r)
        angle = _round_rng(self.name, ctx["seed"], r).uniform(0.0, 2.0 * math.pi)
        q, p = round(radius * math.cos(angle)), round(radius * math.sin(angle))
        ham, system = ctx["ham"], ctx["system"]
        energy = ham.value(q, p)
        start = evolver.PhaseState((q,), (p,))
        state = start
        for stepper in (evolver.step,) * ctx["steps"] + (evolver.step_inverse,) * ctx["steps"]:
            state = tally.op(1, stepper, state, system)
            site = (state.positions[0], state.momenta[0])
            tally.record(site)
            tally.check(ham.value(*site) == energy, f"bowl energy changed at {site}")
        tally.check(state == start, f"bowl round trip from {(q, p)} ended at {state}")


# -- shell-spectrum -----------------------------------------------------------


def _monotone_side(rng: random.Random, box: int, ceiling: int) -> list[int]:
    """Table values for x = 0, 1, 2, ...: flat at x = 1, increments in
    {0, 1, 2} inside the box, slope 2 beyond it until past ``ceiling``."""
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


def _confining_tables(rng: random.Random, box: int) -> dict:
    """Kinetic and potential tables of a random confining Hamiltonian, and
    the largest energy whose contours all close inside their windows."""
    ceiling = 8 * box
    t_pos, t_neg, v_pos, v_neg = (_monotone_side(rng, box, ceiling) for _ in range(4))
    box_energy = max(t_pos[box], t_neg[box]) + max(v_pos[box], v_neg[box])

    def table(neg, pos):
        w = max(
            next(i for i, v in enumerate(neg) if v > box_energy),
            next(i for i, v in enumerate(pos) if v > box_energy),
        )
        return {"lo": -w, "values": [neg[i] for i in range(w, 0, -1)] + pos[: w + 1]}

    return {
        "kinetic": table(t_neg, t_pos),
        "potential": table(v_neg, v_pos),
        "max_energy": box_energy,
    }


def shell_op(ham: SeparableHamiltonian1D, energy: int) -> dict:
    """The CLI ``shell`` + ``spectral`` path for one energy, plus the
    inverse step of every image."""
    shell = contours.enumerate_shell(ham, energy)
    kinds = [contours.classify_site(ham, q, p, energy).value for q, p in shell]
    perm = spectral.ShellPermutation.from_step(
        lambda s: contours.next_site(ham, *s), shell, energy
    )
    back = [contours.prev_site(ham, *shell[j]) for j in perm.mapping]
    successors = contours.orbit_map(ham, shell)
    phases = spectral.eigenphases(perm)
    check = None
    if perm.size <= 64:
        # damping radius 20 and the 64-site cap are the CLI defaults
        check = spectral.hfract_operator_check(perm, spectral.TruncationConfig.for_radius(20))
    return {
        "shell": shell,
        "kinds": kinds,
        "perm": perm,
        "back": back,
        "orbit": successors,
        "phases": phases,
        "check": check,
    }


class ShellSpectrum:
    """Seeded confining tables plus one power-law model with a product term;
    each op is one energy of a model's ladder.  Many small components, one
    walk per shell site; the only workload that enumerates windows and
    builds shell permutations."""

    name = "shell-spectrum"
    digest_rounds = 16
    trace_rounds = 32

    def inputs(self, seed: int, smoke: bool = False) -> dict:
        rng = random.Random(f"{self.name}:{seed}:models")
        box, count = (6, 2) if smoke else (20, 31)
        models = [_confining_tables(rng, box) for _ in range(count)]
        window = 24
        models.append(
            {
                "json": {
                    "kinetic": _power("3/2", window, mass="1/2"),
                    "potential": _power("3/2", window),
                    "coupling_pos": _power("1/2", window),
                    "coupling_mom": _power("1/2", window, scale=1),
                },
                # |q| or |p| of 22 alone costs floor(22**1.5) = 103, so the
                # contours up to 100 keep to |x| <= 22, inside the windows.
                "max_energy": 20 if smoke else 100,
            }
        )
        return {"seed": seed, "models": models}

    def setup(self, inp: dict) -> dict:
        hams = []
        for m in inp["models"]:
            if "json" in m:
                ham = hamiltonian_from_json(m["json"])
            else:
                kin, pot = m["kinetic"], m["potential"]
                ham = SeparableHamiltonian1D(
                    IntegerFunction1D(kin["lo"], tuple(kin["values"])),
                    IntegerFunction1D(pot["lo"], tuple(pot["values"])),
                )
            hams.append((ham, m["max_energy"]))
        return {**inp, "hams": hams}

    def round(self, ctx: dict, r: int, tally: Tally):
        hams = ctx["hams"]
        ham, top = hams[r % len(hams)]
        energy = 1 + int(top * _spread(ctx["seed"], self.name, r))
        out = tally.op(0, shell_op, ham, energy)
        shell, perm = out["shell"], out["perm"]
        tally.updates += 2 * perm.size
        tally.shell_sites += perm.size
        images = [perm.basis[j] for j in perm.mapping]
        tally.record((energy, shell, perm.mapping, out["kinds"], sorted(map(len, perm.cycles))))
        tally.check(
            all(ham.value(*s) == energy for s in images),
            f"shell {energy}: an image left the shell",
        )
        tally.check(out["back"] == shell, f"shell {energy}: prev_site does not undo next_site")
        tally.check(
            out["orbit"] == dict(zip(shell, images)),
            f"shell {energy}: orbit_map disagrees with next_site",
        )
        tally.check(len(out["phases"]) == perm.size, f"shell {energy}: wrong eigenphase count")
        check = out["check"]
        tally.check(
            check is None or check.max_residual < 1e-9,
            f"shell {energy}: operator residual {check and check.max_residual}",
        )


# -- coupled-chain ------------------------------------------------------------


def chain_model(window: int) -> evolver.CoupledSeparableHamiltonian:
    """Three pairs, ``sum|p| + sum|q| + |q0 - q1| + |q1 - q2|``."""
    return evolver.CoupledSeparableHamiltonian(
        pairs=3,
        kinetic=lambda ps: sum(abs(p) for p in ps),
        potential=lambda qs: sum(abs(q) for q in qs) + abs(qs[0] - qs[1]) + abs(qs[1] - qs[2]),
        q_windows=((-window, window),) * 3,
        p_windows=((-window, window),) * 3,
    )


class CoupledChain:
    """The 3-pair chain with windows +-34, starts in [-3, 3].  Every
    sub-update rebuilds full-window tables through Python callables while
    the walks are tiny."""

    name = "coupled-chain"
    digest_rounds = 20
    trace_rounds = 60

    def inputs(self, seed: int, smoke: bool = False) -> dict:
        return {"seed": seed, "window": 34, "steps": 3 if smoke else 20}

    def setup(self, inp: dict) -> dict:
        return {**inp, "system": chain_model(inp["window"])}

    def round(self, ctx: dict, r: int, tally: Tally):
        rng = _round_rng(self.name, ctx["seed"], r)
        start = evolver.PhaseState(
            tuple(rng.randint(-3, 3) for _ in range(3)),
            tuple(rng.randint(-3, 3) for _ in range(3)),
        )
        system = ctx["system"]
        energy = system.total_energy(start)
        state = start
        for stepper in (evolver.step,) * ctx["steps"] + (evolver.step_inverse,) * ctx["steps"]:
            state = tally.op(3, stepper, state, system)
            tally.record((state.positions, state.momenta))
            tally.check(system.total_energy(state) == energy, f"chain energy changed at {state}")
        tally.check(state == start, f"chain round trip from {start} ended at {state}")


# -- field-line and field-plane -----------------------------------------------


def _random_field(rng: random.Random, spec) -> fields.FieldState:
    shape = (spec.components, *spec.shape.sizes)
    size = math.prod(shape)

    def draw():
        return [rng.randint(-3, 3) for _ in range(size)]

    return fields.FieldState(np.reshape(draw(), shape), np.reshape(draw(), shape))


def _record_field(tally: Tally, state: fields.FieldState):
    tally.record(state.phi.tobytes())
    tally.record(state.mom.tobytes())


class FieldLine:
    """1-D periodic line of 256 sites, one massless component, stiffness 1,
    windows +-2**20.  Same-parity updates commute and neighbourhoods
    repeat; the wide windows test that band clamping keeps them free."""

    name = "field-line"
    digest_rounds = 2
    trace_rounds = 2

    def inputs(self, seed: int, smoke: bool = False) -> dict:
        wide = [-(1 << 20), 1 << 20]
        return {
            "seed": seed,
            "spec": {
                "sizes": [16 if smoke else 256],
                "components": 1,
                "masses": [0],
                "stiffness": 1,
                "phi_window": wide,
                "p_window": wide,
            },
            "steps": 2 if smoke else 4,
        }

    def setup(self, inp: dict) -> dict:
        return {**inp, "field": fields.spec_from_json(inp["spec"])}

    def round(self, ctx: dict, r: int, tally: Tally):
        spec = ctx["field"]
        start = _random_field(_round_rng(self.name, ctx["seed"], r), spec)
        updates = spec.components * math.prod(spec.shape.sizes)
        energy = fields.total_energy(start, spec)
        state = start
        for stepper in (fields.step,) * ctx["steps"] + (fields.step_inverse,) * ctx["steps"]:
            state = tally.op(updates, stepper, state, spec)
            _record_field(tally, state)
            tally.check(fields.total_energy(state, spec) == energy, "field-line energy changed")
        tally.check(fields.states_equal(state, start), "field-line round trip is inexact")


def _diagonal_spread(shape, origin, sites) -> int:
    """Largest periodic distance of ``sum(x)`` from ``sum(origin)``.

    A sub-update at x reads the other parity class at x +- e_a, fixed during
    the half sweep, and its own class only at x - e_a + e_b, which has the
    same coordinate sum.  So a change moves by at most one unit of
    ``sum(x)`` per half sweep in any sweep order: at most ``2t`` after t
    steps.  The L1 radius obeys no such bound once d > 1, because a sweep
    can carry a change along a whole line of constant ``sum(x)``.
    """
    period = math.gcd(*shape.sizes)
    u0 = sum(origin)
    return max((min((sum(x) - u0) % period, (u0 - sum(x)) % period) for x in sites), default=0)


class FieldPlane:
    """2-D 12x12 periodic lattice, two components with masses (0, 1/2),
    stiffness 1/2, default +-64 windows; a base state and a one-site
    perturbed copy are stepped together (the CLI ``lightcone`` path).  The
    sweep must stay sequential, and neighbourhoods are large and rarely
    repeat."""

    name = "field-plane"
    digest_rounds = 1
    trace_rounds = 1

    def inputs(self, seed: int, smoke: bool = False) -> dict:
        side = 4 if smoke else 12
        return {
            "seed": seed,
            "spec": {"sizes": [side, side], "components": 2, "masses": [0, "1/2"], "stiffness": "1/2"},
            "steps": 2 if smoke else 4,
        }

    def setup(self, inp: dict) -> dict:
        return {**inp, "field": fields.spec_from_json(inp["spec"])}

    def round(self, ctx: dict, r: int, tally: Tally):
        spec = ctx["field"]
        shape = spec.shape
        rng = _round_rng(self.name, ctx["seed"], r)
        base = _random_field(rng, spec)
        site = tuple(rng.randrange(s) for s in shape.sizes)
        component = rng.randrange(spec.components)
        phi = base.phi.copy()
        phi[(component, *site)] += rng.choice((-1, 1))
        bumped = fields.FieldState(phi, base.mom)
        updates = spec.components * math.prod(shape.sizes)
        starts = (base, bumped)
        energies = [fields.total_energy(s, spec) for s in starts]
        states = list(starts)

        def advance(stepper):
            for i in (0, 1):
                states[i] = tally.op(updates, stepper, states[i], spec)
                _record_field(tally, states[i])
                tally.check(
                    fields.total_energy(states[i], spec) == energies[i],
                    "field-plane energy changed",
                )

        for t in range(1, ctx["steps"] + 1):
            advance(fields.step)
            changed = fields.diff_sites(*states)
            spread = _diagonal_spread(shape, site, changed)
            tally.check(spread <= 2 * t, f"field-plane diagonal spread {spread} > {2 * t} at t={t}")
            tally.l1_over_cap += fields.spread_radius(shape, site, changed) > 2 * t
        for _ in range(ctx["steps"]):
            advance(fields.step_inverse)
        for state, start in zip(states, starts):
            tally.check(fields.states_equal(state, start), "field-plane round trip is inexact")


WORKLOADS = {w.name: w for w in (BowlOrbit(), ShellSpectrum(), CoupledChain(), FieldLine(), FieldPlane())}

#: SHA-256 over the outputs of the first ``digest_rounds`` rounds at
#: :data:`DEFAULT_SEED`.  Any change to a trajectory, a permutation or a
#: final field array changes these.
EXPECTED_DIGESTS = {
    "bowl-orbit": "a1b233dc03e67a870c9c4f491a1c67f23dfa1c7c6e15f3a5cccfef2b5ed024d3",
    "shell-spectrum": "20f040f977280eb85376353cd06728dbda814d9cd67b36dba038d5716cba5b1a",
    "coupled-chain": "8b7857fce01d30b33237aa241fac62f9e60c7dfcbc6aa69477378fb7e57be9db",
    "field-line": "f784a7afd81fac2c1e87ac61c1016cd3b9f7e0d4d61dd2a66dc10ba50c16b556",
    "field-plane": "654b93bb2735ebe23db7763b26b3900688a5a0292d8d174acaa3f4f54f858f80",
}


def run_rounds(workload, ctx: dict, tally: Tally, rounds: int | None = None, deadline: float | None = None, min_ops: int = 0):
    """Run rounds until ``rounds`` are done, or until ``deadline`` has
    passed and at least ``min_ops`` ops were attempted."""
    r = 0
    while True:
        if rounds is not None and r >= rounds:
            break
        if deadline is not None and time.perf_counter() >= deadline and tally.attempted >= min_ops:
            break
        try:
            workload.round(ctx, r, tally)
        except OpFailed:
            pass
        r += 1
    tally.rounds = r
