"""The c3 float oracle's cycle cache against its per-site walk."""

import random

from conftest import random_confining, well_sites
from float_tracer import Escaped, FloatTracer
from intham.hamiltonians import IntegerFunction1D, SeparableHamiltonian1D


def walk_or_escape(tracer, site):
    """The crossings ``walk`` returns at the level ``next_site`` left set."""
    try:
        return tracer.walk(*site)
    except Escaped:
        return "escaped"


def assert_cache_answers_as_per_site_walk(ham, sites):
    cached, per_site = FloatTracer(ham), FloatTracer(ham, cache=False)
    for site in sites:
        assert cached.next_site(*site) == per_site.next_site(*site), site
        assert walk_or_escape(cached, site) == walk_or_escape(per_site, site), site
    assert per_site._cycles is None
    return cached


def test_cached_cycles_answer_as_the_per_site_walk():
    # The first two Hamiltonians of c3's battery, every fifth well site: each
    # (site, ambiguous) answer, and each walk, read back from a stored cycle
    # from whatever edge the site starts on, equals that of a fresh walk.
    rng = random.Random(202)
    for _ in range(2):
        ham, ceiling = random_confining(random.Random(rng.randrange(2**30)), box=20)
        sites = well_sites(ham, ceiling)[::5]
        cached = assert_cache_answers_as_per_site_walk(ham, sites)
        cycles = {id(entry[0]) for entry in cached._cycles.values()}
        assert 0 < len(cycles) < len(sites) // 4  # most answers came from a stored cycle


def test_a_stored_cycle_keeps_its_ambiguity():
    # c3's battery has no ambiguous site.  Neighbouring entries of this steep
    # bowl differ by more than 100, so most crossings lie in the gray zone.
    ham = SeparableHamiltonian1D(
        IntegerFunction1D.from_callable(lambda p: 150 * p * p + p, -12, 12),
        IntegerFunction1D.from_callable(lambda q: 150 * q * q, -12, 12),
    )
    sites = [(q, p) for q in range(-12, 13) for p in range(-12, 13) if ham.value(q, p) <= 300 * 81]
    cached = assert_cache_answers_as_per_site_walk(ham, sites)
    assert sum(cached.next_site(*site)[1] for site in sites) > len(sites) // 2
