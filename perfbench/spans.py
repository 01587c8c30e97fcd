"""In-memory span recorder for the traced benchmark run.

The recorder rebinds the public entry points of the measured layers
(``hamiltonians``, ``contours``, ``evolver``, ``fields``, ``spectral``) in
the benchmark process only, including the names other modules imported
from ``contours``, and restores them afterwards.  Each call becomes a span:
name, parent span, op id, start and end.  Work counts are taken from the
calls' arguments and results after each op ends, with recording switched
off, so counting adds nothing to any span and repeats exactly.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict

from intham import contours, evolver, fields, hamiltonians, spectral

NAME, PARENT, OP, START, END, ERROR = range(6)


def _window_lengths(ham) -> tuple[int, int]:
    (q_lo, q_hi), (p_lo, p_hi) = ham.q_window, ham.p_window
    return q_hi - q_lo + 1, p_hi - p_lo + 1


def _is_regular(ham, q: int, p: int, energy: int) -> bool:
    """Whether the site is brushed by exactly one contour branch, judged
    from its four neighbours the way the step rule judges it."""
    flags = [
        ham.value(q + 1, p) > energy,
        ham.value(q, p + 1) > energy,
        ham.value(q - 1, p) > energy,
        ham.value(q, p - 1) > energy,
    ]
    above = sum(flags)
    return 0 < above < 4 and not (above == 2 and flags[0] == flags[2])


class _Component:
    """One traced component: its crossing count and, per touched site, the
    first and last crossing of each run of crossings touching it."""

    def __init__(self, trace):
        touches = [c.touched for c in trace.crossings]
        n = len(touches)
        self.size = n
        self.sites = set(touches)
        self.run_start: dict = {}
        self.run_end: dict = {}
        for i, site in enumerate(touches):
            if site is None:
                continue
            if touches[i - 1] != site:
                self.run_start[site] = i
            if touches[(i + 1) % n] != site:
                self.run_end[site] = i


class Tracer:
    """Span recorder plus the exact work counts of the traced calls."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.count_failures: list[str] = []
        self._stack: list[int] = []
        self._op = None
        self._enabled = True
        self._pending: list[tuple] = []
        self._components: dict = {}
        self._saved: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, self._stack[-1] if self._stack else -1, self._op, 0, 0, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter_ns()
        return span

    def _close(self, span: list, error: bool):
        span[END] = time.perf_counter_ns()
        span[ERROR] = error
        self._stack.pop()

    def begin_op(self, op_id: int):
        self._op = op_id
        self._open("op")

    def end_op(self, error: bool):
        self._close(self.spans[self._stack[-1]], error)
        self._op = None
        self._drain()

    def _wrap(self, name: str, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._enabled:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(span, True)
                raise
            tracer._close(span, False)
            if hook is not None:
                tracer._pending.append((hook, name, args, result))
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def _targets(self):
        """(span name, owners to rebind on, attribute, count hook)."""
        return [
            ("hamiltonians.materialize", [hamiltonians.PowerLawFamily], "materialize", self._count_materialize),
            ("contours.next_site", [contours, evolver, fields], "next_site", self._count_next),
            ("contours.prev_site", [contours, evolver, fields], "prev_site", self._count_prev),
            ("contours.enumerate_shell", [contours], "enumerate_shell", self._count_enumerate),
            ("contours.classify_site", [contours], "classify_site", None),
            ("contours.orbit_map", [contours], "orbit_map", self._count_orbit),
            ("evolver.step", [evolver], "step", None),
            ("evolver.step_inverse", [evolver], "step_inverse", None),
            ("evolver.restricted", [evolver.CoupledSeparableHamiltonian], "restricted", self._count_tables),
            ("fields.step", [fields], "step", None),
            ("fields.step_inverse", [fields], "step_inverse", None),
            ("fields.restricted_hamiltonian", [fields], "restricted_hamiltonian", self._count_tables),
            ("spectral.from_step", [spectral.ShellPermutation], "from_step", self._count_from_step),
            ("spectral.eigenphases", [spectral], "eigenphases", None),
            ("spectral.hfract_operator_check", [spectral], "hfract_operator_check", None),
        ]

    def install(self):
        """Rebind every target to a recording wrapper."""
        for name, owners, attr, hook in self._targets():
            for owner in owners:
                original = vars(owner).get(attr)
                if original is None:
                    self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                    continue
                if isinstance(original, classmethod):
                    replacement = classmethod(self._wrap(name, original.__func__, hook))
                else:
                    replacement = self._wrap(name, original, hook)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        self._drain()

    # -- counting, outside every span ----------------------------------------

    def _drain(self):
        self._enabled = False
        try:
            for hook, name, args, result in self._pending:
                try:
                    hook(name, args, result)
                except Exception as exc:
                    # a count that cannot be made must not end the run
                    self.counts["count_errors"] += 1
                    if len(self.count_failures) < 5:
                        self.count_failures.append(f"{name}: {type(exc).__name__}: {exc}")
        finally:
            self._pending.clear()
            self._enabled = True

    def _count_materialize(self, name, args, result):
        self.counts["materialize.entries"] += len(result.values)

    def _count_tables(self, name, args, ham):
        entries = sum(_window_lengths(ham))
        if ham.has_coupling:
            entries *= 2
        self.counts[f"{name}.table_entries"] += entries

    def _count_enumerate(self, name, args, shell):
        q_len, p_len = _window_lengths(args[0])
        self.counts["enumerate.window_sites"] += q_len * p_len
        self.counts["enumerate.shell_sites"] += len(shell)

    def _count_orbit(self, name, args, result):
        self.counts["orbit_map.sites"] += len(args[1])

    def _count_from_step(self, name, args, perm):
        self.counts["from_step.sites"] += perm.size

    def _count_next(self, name, args, image):
        self._count_walk(args, image, forward=True)

    def _count_prev(self, name, args, image):
        self._count_walk(args, image, forward=False)

    def _component(self, ham, energy: int, site) -> _Component:
        """The traced component through a regular site, memoized by table
        contents and energy (equal tables walk identically)."""
        key = (ham, energy)
        found = self._components.get(key)
        if found is None:
            if len(self._components) > 4096:
                self._components.clear()
            found = self._components[key] = []
        for comp in found:
            if site in comp.sites:
                return comp
        comp = _Component(contours.trace_component(ham, energy, site))
        found.append(comp)
        return comp

    def _count_walk(self, args, image, forward: bool):
        """Crossings the step walked (it always walks the whole component)
        and crossings from the site's visit to its image's visit."""
        ham, q, p = args
        site = (q, p)
        energy = ham.value(q, p)
        if not _is_regular(ham, q, p, energy):
            return
        comp = self._component(ham, energy, site)
        n = comp.size
        if image == site:
            useful = n
        elif forward:
            useful = (comp.run_start[image] - comp.run_end[site]) % n
        else:
            useful = (comp.run_start[site] - comp.run_end[image]) % n
        self.counts["walk.components"] += 1
        self.counts["walk.crossings"] += n
        self.counts["walk.useful"] += useful

    # -- metrics -------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, median duration and
        errors."""
        child = defaultdict(int)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        calls = Counter()
        total = Counter()
        own = Counter()
        errors = Counter()
        latencies = defaultdict(list)
        for i, span in enumerate(self.spans):
            name = span[NAME]
            duration = span[END] - span[START]
            calls[name] += 1
            total[name] += duration
            own[name] += duration - child[i]
            errors[name] += span[ERROR]
            latencies[name].append(duration)
        return {
            "calls": calls,
            "total_s": {k: v / 1e9 for k, v in total.items()},
            "self_s": {k: v / 1e9 for k, v in own.items()},
            "p50_us": {k: statistics.median(v) / 1e3 for k, v in latencies.items()},
            "errors": errors,
        }

    def metrics(self, overhead_ratio: float) -> dict:
        """Every per-layer metric, by the names ``BENCHMARK.json`` lists."""
        s = self.summary()
        calls, self_s, total_s, p50 = s["calls"], s["self_s"], s["total_s"], s["p50_us"]
        c = self.counts
        op_s = total_s.get("op", 0.0)

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "hamiltonians.materialize.entries": (c["materialize.entries"], "count"),
            "hamiltonians.materialize.us_per_entry": (
                ratio(self_s.get("hamiltonians.materialize", 0.0) * 1e6, c["materialize.entries"]),
                "us",
            ),
        }
        for name in ("contours.next_site", "contours.prev_site"):
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
            out[f"{name}.p50_us"] = (p50.get(name, 0.0), "us")
        walk_s = self_s.get("contours.next_site", 0.0) + self_s.get("contours.prev_site", 0.0)
        out["contours.walk.components"] = (c["walk.components"], "count")
        out["contours.walk.crossings"] = (c["walk.crossings"], "count")
        out["contours.walk.ns_per_crossing"] = (ratio(walk_s * 1e9, c["walk.crossings"]), "ns")
        out["contours.walk.useful_ratio"] = (ratio(c["walk.useful"], c["walk.crossings"]), "ratio")
        name = "contours.enumerate_shell"
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        out[f"{name}.ns_per_window_site"] = (
            ratio(self_s.get(name, 0.0) * 1e9, c["enumerate.window_sites"]),
            "ns",
        )
        out["contours.shell_sites"] = (c["enumerate.shell_sites"], "count")
        out["contours.classify_site.self_s"] = (self_s.get("contours.classify_site", 0.0), "s")
        out["contours.orbit_map.self_s"] = (self_s.get("contours.orbit_map", 0.0), "s")
        out["contours.orbit_map.us_per_site"] = (
            ratio(self_s.get("contours.orbit_map", 0.0) * 1e6, c["orbit_map.sites"]),
            "us",
        )
        contour_s = sum(v for k, v in self_s.items() if k.startswith("contours."))
        out["contours.share"] = (ratio(contour_s, op_s), "ratio")
        for name in ("evolver.step", "evolver.step_inverse", "fields.step", "fields.step_inverse"):
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        for name in ("evolver.restricted", "fields.restricted_hamiltonian"):
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
            out[f"{name}.p50_us"] = (p50.get(name, 0.0), "us")
            out[f"{name}.table_entries"] = (c[f"{name}.table_entries"], "count")
            out[f"{name}.share"] = (ratio(self_s.get(name, 0.0), op_s), "ratio")
        field_s = total_s.get("fields.step", 0.0) + total_s.get("fields.step_inverse", 0.0)
        out["fields.sub_update_us"] = (
            ratio(field_s * 1e6, calls["fields.restricted_hamiltonian"]),
            "us",
        )
        name = "spectral.from_step"
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        out[f"{name}.us_per_site"] = (ratio(self_s.get(name, 0.0) * 1e6, c["from_step.sites"]), "us")
        out["spectral.eigenphases.self_s"] = (self_s.get("spectral.eigenphases", 0.0), "s")
        name = "spectral.hfract_operator_check"
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        for layer in ("contours", "evolver", "fields", "spectral"):
            out[f"{layer}.errors"] = (
                sum(v for k, v in s["errors"].items() if k.startswith(layer + ".")),
                "count",
            )
        out["trace.overhead_ratio"] = (overhead_ratio, "ratio")
        return out
