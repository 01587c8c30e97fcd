"""Batch harness: run models described by JSON configs, write CSV/JSON.

``intham run config.json`` executes one mode and writes its outputs into the
chosen directory.  Modes:

- ``trajectory``: step one or more decoupled pairs, dump the orbit table.
- ``invert``: run N steps forward then N backward, report exact match.
- ``shell``: enumerate and classify one energy shell.
- ``spectral``: shell permutation, eigenphase table, operator residuals.
- ``census``: site counts and continuum periods over an energy ladder.
- ``margolus-contrast``: two-layer automaton energy series plus round trip.
- ``lightcone``: spread of a single-site perturbation against its bound
  ``2t``; the radius is the periodic distance in ``sum(x)``, the L1
  distance in one dimension.

Exit status: 0 on success, 2 for configuration problems, 3 for model errors
(unbounded contours, unclosed shells, regime violations, failed checks), with
a JSON error report on stderr naming the offending pair or site.
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import fields
from .census import census, census_rows
from .contours import classify_site, enumerate_shell, next_site
from .errors import ConfigError, IntHamError
from .evolver import PhaseState, decoupled, step, step_inverse, total_energy
from .hamiltonians import (
    PowerLawFamily, fraction_from_json, hamiltonian_from_json, integers, only_keys, read_key
)
from .spectral import (
    MAX_CHECK_SIZE,
    ShellPermutation,
    TruncationConfig,
    eigenphases,
    hfract_operator_check,
    spectrum_rows,
)

def _build(cfg: dict, key: str, build, keys=None, default=None):
    """``build`` applied to ``read_key(cfg, key, default, keys=keys)``, with the
    builder's failures as ConfigErrors that name the key."""
    obj = read_key(cfg, key, default, keys=keys)
    try:
        return build(obj)
    except (ConfigError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad '{key}': {exc}") from exc


def _load_models(cfg: dict):
    if "models" not in cfg:
        return [_build(cfg, "model", hamiltonian_from_json)]
    if not read_key(cfg, "models", kind=list):
        raise ConfigError("'models' must be a nonempty list")
    return _build(cfg, "models", lambda entries: [hamiltonian_from_json(m) for m in entries])


def _load_start(cfg: dict, pairs: int) -> PhaseState:
    start = integers(read_key(cfg, "start", kind=list), "start", nested=True)
    if pairs == 1 and len(start) == 2 and not isinstance(start[0], list):
        start = [start]
    if len(start) != pairs or not all(
        type(s) is list and len(s) == 2 and list not in map(type, s) for s in start
    ):
        raise ConfigError(f"'start' must give {pairs} integer (Q, P) pairs, got {start!r}")
    return PhaseState(tuple(s[0] for s in start), tuple(s[1] for s in start))


def _write_csv(path: Path, header, rows):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _flat(state: PhaseState) -> list[int]:
    out = []
    for q, p in zip(state.positions, state.momenta):
        out.extend((q, p))
    return out


def _mode_trajectory(cfg: dict, out: Path, steps: int, seed: int) -> dict:
    system = decoupled(_load_models(cfg))
    state = _load_start(cfg, system.pairs)
    energy = total_energy(state, system)
    rows = [[state.time, *_flat(state), energy]]
    for _ in range(steps):
        state = step(state, system)
        rows.append([state.time, *_flat(state), total_energy(state, system)])
    header = ["t"]
    for i in range(system.pairs):
        header += [f"q{i}", f"p{i}"]
    header.append("energy")
    _write_csv(out / "trajectory.csv", header, rows)
    return {
        "ok": True,
        "steps": steps,
        "energy": energy,
        "final": _flat(state),
    }


def _mode_invert(cfg: dict, out: Path, steps: int, seed: int) -> dict:
    system = decoupled(_load_models(cfg))
    initial = _load_start(cfg, system.pairs)
    energy = total_energy(initial, system)
    state = initial
    for _ in range(steps):
        state = step(state, system)
    midway = _flat(state)
    for _ in range(steps):
        state = step_inverse(state, system)
    match = state == initial
    return {
        "ok": match,
        "steps": steps,
        "energy": energy,
        "midway": midway,
        "match": match,
    }


def _mode_shell(cfg: dict, out: Path, steps: int, seed: int) -> dict:
    (ham,) = _load_models(cfg)
    energy = read_key(cfg, "energy", kind=int)
    sites = enumerate_shell(ham, energy)
    rows = []
    by_kind: dict[str, int] = {}
    for q, p in sites:
        kind = classify_site(ham, q, p, energy).value
        by_kind[kind] = by_kind.get(kind, 0) + 1
        rows.append([q, p, kind])
    _write_csv(out / "shell.csv", ["q", "p", "kind"], rows)
    return {"ok": True, "energy": energy, "count": len(sites), "by_kind": by_kind}


def _mode_spectral(cfg: dict, out: Path, steps: int, seed: int) -> dict:
    (ham,) = _load_models(cfg)
    energy = read_key(cfg, "energy", kind=int)
    cfg_trunc = _build(
        cfg, "radius", lambda r: TruncationConfig.for_radius(float(fraction_from_json(r))), default=20
    )
    size_cap = read_key(cfg, "size_cap", 64, int)
    if size_cap > MAX_CHECK_SIZE:
        raise ConfigError(f"'size_cap' {size_cap} exceeds the cap {MAX_CHECK_SIZE}")
    shell = enumerate_shell(ham, energy)
    if not shell:
        raise ConfigError(f"energy level {energy} has no states in the window")
    perm = ShellPermutation.from_step(lambda s: next_site(ham, *s), shell, energy)
    entries = eigenphases(perm)
    _write_csv(
        out / "spectral.csv",
        ["cycle", "length", "index", "omega", "phase", "energy", "total", "boundary"],
        spectrum_rows(entries),
    )
    report = {
        "ok": True,
        "energy": energy,
        "size": perm.size,
        "cycle_lengths": sorted(len(c) for c in perm.cycles),
        "boundary_count": sum(1 for e in entries if e.boundary),
        "operator_check": None,
    }
    if read_key(cfg, "operator_check", perm.size <= size_cap, bool):
        result = hfract_operator_check(perm, cfg_trunc, size_cap=size_cap)
        report["operator_check"] = {
            "radius": cfg_trunc.radius,
            "terms": cfg_trunc.terms,
            "max_residual": result.max_residual,
        }
    return report


# Per census family: the name and default of its prefactor key.
_CENSUS_PREFACTORS = {"kinetic": ("mass", "1/2"), "potential": ("scale", 1)}


def _census_family(section: dict, kind: str) -> PowerLawFamily:
    name, default = _CENSUS_PREFACTORS[kind]

    def build(entry):
        exponent = fraction_from_json(entry.get("exponent", 1))
        return PowerLawFamily(kind, exponent, **{name: fraction_from_json(entry.get(name, default))})

    return _build(section, kind, build, {"exponent", name})


def _mode_census(cfg: dict, out: Path, steps: int, seed: int) -> dict:
    section = read_key(cfg, "census", keys={"kinetic", "potential", "energies", "fit_floor", "periods"})
    kinetic = _census_family(section, "kinetic")
    potential = _census_family(section, "potential")
    energies = integers(read_key(section, "energies", kind=list), "energies")
    if len(energies) == 2 and energies[1] > energies[0] + 1:
        energies = range(energies[0], energies[1] + 1)
    try:
        report = census(
            kinetic,
            potential,
            energies,
            fit_floor=read_key(section, "fit_floor", 10, int),
            with_periods=read_key(section, "periods", True, bool),
        )
    except ValueError as exc:
        raise ConfigError(f"census: {exc}") from exc
    _write_csv(
        out / "census.csv", ["energy", "count", "period", "ratio"], census_rows(report)
    )
    return {
        "ok": True,
        "kinetic_exponent": str(report.kinetic_exponent),
        "potential_exponent": str(report.potential_exponent),
        "exponent": report.exponent,
        "predicted_exponent": report.predicted_exponent,
        "amplitude": report.amplitude,
        "constant": report.constant,
        "fit_floor": report.fit_floor,
    }


def _random_layers(cfg: dict, rng: random.Random, shape):
    """Two arrays of uniform integers in the config's ``random`` spread
    (default ``[-3, 3]``), drawn one after the other."""
    spread = read_key(cfg, "random", {}, keys={"lo", "hi"})
    lo, hi = read_key(spread, "lo", -3, int), read_key(spread, "hi", 3, int)
    if not fields.INT64[0] <= lo <= hi <= fields.INT64[1]:
        raise ConfigError(f"'random' needs lo <= hi, both in int64, got [{lo}, {hi}]")
    size = int(np.prod(shape))
    return tuple(
        np.array([rng.randint(lo, hi) for _ in range(size)], dtype=np.int64).reshape(shape)
        for _ in range(2)
    )


def _field_state(cfg: dict, spec, rng: random.Random) -> fields.FieldState:
    shape = (spec.components, *spec.shape.sizes)
    if "state" in cfg:
        state = _build(cfg, "state", fields.state_from_json, {"phi", "mom", "time"})
        if state.phi.shape != shape:
            raise ConfigError(f"state shape {state.phi.shape} != {shape}")
        return state
    return fields.FieldState(*_random_layers(cfg, rng, shape))


def _mode_margolus(cfg: dict, out: Path, steps: int, seed: int) -> dict:
    spec = _build(cfg, "field", fields.spec_from_json)
    shape = (spec.components, *spec.shape.sizes)
    if "layers" in cfg:
        state = _build(cfg, "layers", fields.layers_from_json, {"older", "newer"})
    else:
        state = fields.MargolusFieldState(*_random_layers(cfg, random.Random(seed), shape))
    if state.newer.shape != shape:
        raise ConfigError(f"layer shape {state.newer.shape} != {shape}")
    initial = state
    energies = [fields.margolus_energy(state, spec)]
    for _ in range(steps):
        state = fields.margolus_step(state)
        energies.append(fields.margolus_energy(state, spec))
    back = state
    for _ in range(steps):
        back = fields.margolus_unstep(back)
    reversible = fields.margolus_states_equal(back, initial)
    rows = [[t, e] for t, e in enumerate(energies)]
    _write_csv(out / "margolus-contrast.csv", ["t", "energy"], rows)
    return {
        "ok": reversible,
        "steps": steps,
        "reversible": reversible,
        "drifted": energies[-1] != energies[0],
        "energies": [str(e) for e in energies],
    }


def _mode_lightcone(cfg: dict, out: Path, steps: int, seed: int) -> dict:
    spec = _build(cfg, "field", fields.spec_from_json)
    base = _field_state(cfg, spec, random.Random(seed))
    perturb = read_key(cfg, "perturb", {}, keys={"site", "component", "amount"})
    site = tuple(integers(read_key(perturb, "site", [0] * spec.shape.dimensions, list), "site"))
    component = read_key(perturb, "component", 0, int)
    amount = read_key(perturb, "amount", 1, int)
    sizes = spec.shape.sizes
    if len(site) != len(sizes) or not all(x in range(s) for x, s in zip(site, sizes)):
        raise ConfigError(f"perturbation 'site' must list {len(sizes)} integers inside {sizes}, got {site}")
    if not 0 <= component < spec.components:
        raise ConfigError(f"perturbation 'component' must be in [0, {spec.components}), got {component}")
    phi = np.array(base.phi)
    index = (component, *site)
    value = int(phi[index]) + amount  # a Python int: numpy's int64 sum would wrap
    if not fields.INT64[0] <= value <= fields.INT64[1]:
        raise ConfigError(f"'perturb' moves phi{list(index)} to {value}, outside int64")
    phi[index] = value
    other = fields.FieldState(phi, base.mom)

    rows = []
    ok = True
    a, b = base, other
    for t in range(1, steps + 1):
        a = fields.step(a, spec)
        b = fields.step(b, spec)
        diff = fields.diff_sites(a, b)
        radius = fields.diagonal_radius(spec.shape, site, diff)
        cap = 2 * t
        ok = ok and radius <= cap
        rows.append([t, len(diff), radius, cap])
    _write_csv(out / "lightcone.csv", ["t", "changed", "radius", "cap"], rows)
    return {"ok": ok, "steps": steps, "origin": list(site), "within_bound": ok}


_MODE_RUNNERS = {
    "trajectory": _mode_trajectory,
    "invert": _mode_invert,
    "shell": _mode_shell,
    "spectral": _mode_spectral,
    "census": _mode_census,
    "margolus-contrast": _mode_margolus,
    "lightcone": _mode_lightcone,
}
MODES = tuple(_MODE_RUNNERS)

# Every top-level key some mode reads; one config may serve several modes
# through ``--mode``, so only keys that no mode reads are rejected.
_CONFIG_KEYS = {
    "mode", "steps", "seed", "out", "model", "models", "start", "energy", "size_cap",
    "operator_check", "radius", "census", "field", "layers", "state", "random", "perturb",
}


def run(
    config: dict,
    mode: Optional[str] = None,
    steps: Optional[int] = None,
    out_dir: Optional[str] = None,
    seed: Optional[int] = None,
) -> tuple[int, dict]:
    """Execute one mode; returns (exit status, report).

    Raises :class:`ConfigError` for bad configs and :class:`IntHamError`
    subclasses for model failures; the CLI wrapper maps those to exit codes.
    """
    only_keys(config, _CONFIG_KEYS, "config")
    mode = mode or config.get("mode")
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {', '.join(MODES)}")
    if steps is None:
        steps = read_key(config, "steps", 8, int)
    if steps < 0:
        raise ConfigError("steps must be nonnegative")
    if seed is None:
        seed = read_key(config, "seed", 0, int)
    out = Path(out_dir if out_dir is not None else read_key(config, "out", ".", str))
    out.mkdir(parents=True, exist_ok=True)

    report = _MODE_RUNNERS[mode](config, out, steps, seed)
    report = {"mode": mode, "seed": seed, **report}
    with (out / f"{mode}.json").open("w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return (0 if report.get("ok", True) else 3), report


def _error_report(exc: IntHamError) -> dict:
    report = {"error": type(exc).__name__, "message": str(exc)}
    for attr in ("pair_index", "field_site", "site", "energy", "argument",
                 "size", "limit", "degenerate"):
        value = getattr(exc, attr, None)
        if value is not None:
            report[attr] = repr(value) if not isinstance(
                value, (int, float, bool, str)
            ) else value
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="intham",
        description="Integer-Hamiltonian automata harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runner = sub.add_parser("run", help="execute a JSON run config")
    runner.add_argument("config", help="path to the JSON config")
    runner.add_argument("--mode", choices=MODES, help="override config mode")
    runner.add_argument("--steps", type=int, help="override step count")
    runner.add_argument("--out", help="output directory")
    runner.add_argument("--seed", type=int, help="override RNG seed")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if not isinstance(config, dict):
        print("config must be a JSON object", file=sys.stderr)
        return 2

    try:
        status, report = run(
            config,
            mode=args.mode,
            steps=args.steps,
            out_dir=args.out,
            seed=args.seed,
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IntHamError as exc:
        json.dump(_error_report(exc), sys.stderr, indent=2, sort_keys=True)
        sys.stderr.write("\n")
        return 3
    if status != 0:
        print(f"{report['mode']}: check failed", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
