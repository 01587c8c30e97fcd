"""Float marching-squares tracer used as an independent check.

Traces the level (E + 1e-6) isoline of the bilinear interpolation in plain
floating point and reports the successor site with the same skip/grouping
semantics as the integer engine.  Ambiguity is self-reported when a crossing
parameter or a saddle value comes close to a decision threshold.
"""

EPS = 1e-6
TOUCH_MAX = 1e-4
GRAY_LO = 1e-5
GRAY_HI = 1e-2
SADDLE_TOL = 1e-9


class Escaped(Exception):
    pass


class FloatTracer:
    """With ``cache`` (the default) each closed cycle is walked once per level:
    it is kept under ``(level, edge)`` for every edge on it, and a later walk
    from any of those edges reads it back rotated to its start edge.  A walk
    from another edge of a cycle crosses the same edges and cells, so its
    touches are a rotation of the first walk's and its ambiguity is the same;
    ``cache=False`` re-walks every site."""

    def __init__(self, ham, cache=True):
        self.ham = ham
        self.level = None
        self.ambiguous = False
        self._cycles = {} if cache else None
        qlo, qhi = ham.q_window
        plo, phi = ham.p_window
        self._qlo, self._qhi = qlo, qhi
        self._plo, self._phi = plo, phi
        self._grid = [
            [float(ham.value(q, p)) for p in range(plo, phi + 1)]
            for q in range(qlo, qhi + 1)
        ]

    def _value(self, q, p):
        if not (self._qlo <= q <= self._qhi and self._plo <= p <= self._phi):
            raise Escaped()
        return self._grid[q - self._qlo][p - self._plo]

    # edges are ("h", q, p) from (q,p)-(q+1,p) and ("v", q, p) from (q,p)-(q,p+1)
    def _crossing(self, kind, q, p):
        """Param in (0,1) where the level crosses, or None; flags gray zones."""
        if kind == "h":
            a = self._value(q, p)
            b = self._value(q + 1, p)
        else:
            a = self._value(q, p)
            b = self._value(q, p + 1)
        lo, hi = (a, b) if a < b else (b, a)
        if lo > self.level or hi < self.level:
            return None
        if a == b:
            return None
        t = (self.level - a) / (b - a)
        if t < 0.0 or t > 1.0:
            return None
        tt = min(t, 1.0 - t)
        if GRAY_LO < tt < GRAY_HI:
            self.ambiguous = True
        return t

    def _touched(self, kind, q, p, t):
        """Site at the below-level end when the crossing hugs a corner."""
        if t < TOUCH_MAX:
            return (q, p)
        if t > 1.0 - TOUCH_MAX:
            return (q + 1, p) if kind == "h" else (q, p + 1)
        return None

    def _cell_exit(self, cq, cp, entry):
        """Exit edge of cell (cq,cp) given the entry edge (kind, q, p)."""
        sides = {
            "b": ("h", cq, cp),
            "t": ("h", cq, cp + 1),
            "l": ("v", cq, cp),
            "r": ("v", cq + 1, cp),
        }
        crossings = {}
        for name, edge in sides.items():
            t = self._crossing(*edge)
            if t is not None:
                crossings[name] = edge
        entry_name = None
        for name, edge in sides.items():
            if edge == entry:
                entry_name = name
        if entry_name is None or entry_name not in crossings:
            raise Escaped()  # inconsistent; treat as failure
        rest = [n for n in crossings if n != entry_name]
        if len(rest) == 1:
            return sides[rest[0]]
        if len(rest) == 3:
            c00 = self._value(cq, cp)
            c10 = self._value(cq + 1, cp)
            c01 = self._value(cq, cp + 1)
            c11 = self._value(cq + 1, cp + 1)
            den = c00 + c11 - c10 - c01
            saddle = (c00 * c11 - c10 * c01) / den
            if abs(saddle - self.level) < SADDLE_TOL:
                self.ambiguous = True
            pair_bl = (saddle > self.level) != (c00 > self.level)
            mate = {
                ("b", True): "l", ("l", True): "b", ("t", True): "r", ("r", True): "t",
                ("b", False): "r", ("r", False): "b", ("t", False): "l", ("l", False): "t",
            }
            return sides[mate[(entry_name, pair_bl)]]
        raise Escaped()

    def _oriented_start(self, Q, P):
        """First incident crossing, directed with above-level on the left."""
        E = self.level
        for kind, q, p in (
            ("h", Q, P),
            ("h", Q - 1, P),
            ("v", Q, P),
            ("v", Q, P - 1),
        ):
            t = self._crossing(kind, q, p)
            if t is None:
                continue
            if kind == "h":
                upward = self._value(q, p) > E
                cell = (q, p) if upward else (q, p - 1)
            else:
                rightward = self._value(q, p + 1) > E
                cell = (q, p) if rightward else (q - 1, p)
            return (kind, q, p), cell
        return None, None

    def _next_cell(self, edge, prev_cell):
        kind, q, p = edge
        if kind == "h":
            return (q, p) if prev_cell == (q, p - 1) else (q, p - 1)
        return (q, p) if prev_cell == (q - 1, p) else (q - 1, p)

    def walk(self, Q, P):
        """All crossings of the component through (Q,P), with touched sites."""
        start, cell = self._oriented_start(Q, P)
        if start is None:
            return []
        cycles = self._cycles
        if cycles is not None and (self.level, start) in cycles:
            out, at, ambiguous = cycles[self.level, start]
            self.ambiguous = self.ambiguous or ambiguous
            return out[at:] + out[:at]
        out = []
        edges = []
        edge = start
        while True:
            t = self._crossing(*edge)
            if t is None:
                raise Escaped()
            out.append(self._touched(*edge, t))
            edges.append(edge)
            edge2 = self._cell_exit(*cell, edge)
            cell = self._next_cell(edge2, cell)
            edge = edge2
            if edge == start:
                break
        if cycles is not None:
            for at, edge in enumerate(edges):
                cycles[self.level, edge] = (out, at, self.ambiguous)
        return out

    def _passes_through(self, Q, P):
        """True when a single contour strand runs through the site.

        Standard corner-pattern logic: all four neighbours on one side means
        a peak/pit, opposite above-pairs mean crossing strands; anything else
        is an ordinary through-site.
        """
        E = self.level
        flags = (
            self._value(Q + 1, P) > E,
            self._value(Q, P + 1) > E,
            self._value(Q - 1, P) > E,
            self._value(Q, P - 1) > E,
        )
        m = sum(flags)
        if m in (0, 4):
            return False
        if m == 2 and flags[0] == flags[2]:
            return False
        return True

    def next_site(self, Q, P):
        """Successor of (Q,P): (site, ambiguous_flag)."""
        self.level = self._value(Q, P) + EPS
        self.ambiguous = False
        try:
            if not self._passes_through(Q, P):
                return (Q, P), self.ambiguous
            touches = self.walk(Q, P)
        except Escaped:
            return None, self.ambiguous
        if not touches:
            return (Q, P), self.ambiguous
        # group consecutive equal touches cyclically
        groups = []
        for site in touches:
            if site is None:
                groups.append(None)
            elif groups and groups[-1] == site:
                continue
            else:
                groups.append(site)
        visits = [g for g in groups if g is not None]
        if (
            len(visits) > 1
            and visits[0] == visits[-1]
            and groups[0] is not None
            and groups[-1] is not None
        ):
            visits.pop()
        if (Q, P) not in visits:
            return (Q, P), self.ambiguous
        origin_at = visits.index((Q, P))
        n = len(visits)
        try:
            for i in range(1, n):
                site = visits[(origin_at + i) % n]
                if site != (Q, P) and self._passes_through(*site):
                    return site, self.ambiguous
        except Escaped:
            return None, self.ambiguous
        return (Q, P), self.ambiguous
