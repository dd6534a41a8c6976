"""Once a group is closed, the build path works on element indices only.

The closure (``kernels.close``) is the one place that multiplies elements.
After it returns, the checks, the Wythoff build, the axioms, the sections,
``flag_orbits``, ``classify`` and the export read the right table: they
neither hash nor multiply a ``Perm`` or ``MatModP``, and no group builds its
element -> index dict. The counters below start when ``ttgroup.closure``
returns, so the pair orders that ``verify_tail_triangle`` measures before
the closure are not counted.
"""

from collections import Counter

import pytest

from polywythoff import ttgroup
from polywythoff.elements import MatModP, Perm
from polywythoff.fixtureio import builtin_fixture
from polywythoff.modred import build_tail_triangle_modp, reduce_mod_p, rescale
from polywythoff.selftest import random_quotients
from polywythoff.ttgroup import (
    check_intersection_full,
    check_intersection_reduced,
    parse_diagram,
    verify_tail_triangle,
)
from polywythoff.wythoff import (
    build_polytope,
    build_regular,
    classify,
    export_hasse,
    flag_orbits,
    two_sections,
    verify_diamond,
    verify_strong_connectivity,
)


class AfterClosure:
    """Counts element hashes and products made after a closure returned."""

    def __init__(self):
        self.armed = False
        self.calls = Counter()

    def reset(self):
        self.armed = False
        self.calls.clear()


@pytest.fixture
def after_closure(monkeypatch):
    probe = AfterClosure()
    for cls in (MatModP, Perm):
        for name in ("__hash__", "__mul__"):

            def counted(self, *args, _original=getattr(cls, name), _name=f"{cls.__name__}.{name}"):
                if probe.armed:
                    probe.calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(cls, name, counted)
    closure = ttgroup.closure

    def arming(*args, **kwargs):
        G = closure(*args, **kwargs)
        probe.armed = True
        return G

    monkeypatch.setattr(ttgroup, "closure", arming)
    return probe


def test_star_mod3_build_hashes_and_multiplies_no_element(after_closure):
    spec = reduce_mod_p(rescale(parse_diagram("tail=[3] triangle=(4,inf,2)"), (1, 1, 2, 4)), 3)
    G = build_tail_triangle_modp(spec)
    assert after_closure.armed
    full, reduced = check_intersection_full(G), check_intersection_reduced(G)
    P = build_polytope(G, verification=reduced)
    assert full and verify_diamond(P)[0] and verify_strong_connectivity(P)
    assert all(s.is_polygon and s.alternating for s in two_sections(P))
    orbits, flags, _ = flag_orbits(P, G)
    kind = classify(P, G).kind
    summary = f"fvec = {P.f_vector_str()} flags={flags} orbits={orbits} class={kind}"
    assert summary == "fvec = (27, 162, 216, 27+54) flags=2592 orbits=2 class=TwoOrbit"
    export_hasse(P, summary=summary)
    assert after_closure.calls == Counter()
    assert G.group._index is None


def test_quotient_screen_hashes_and_multiplies_no_element(after_closure):
    quotients = random_quotients(primes=(2, 3))
    assert {type(G.beta) for G in quotients} == {MatModP}
    for Q in quotients:
        after_closure.reset()
        G = verify_tail_triangle(Q.alphas, Q.beta, cap=10_000)
        assert after_closure.armed
        check_intersection_full(G)
        check_intersection_reduced(G)
        assert after_closure.calls == Counter()
        assert G.group._index is None


@pytest.mark.parametrize("name", ["tet.sg", "oct.sg", "hexagon.sg"])
def test_regular_build_hashes_and_multiplies_no_element(after_closure, name):
    gens = builtin_fixture(name).gens
    P = build_regular(gens)
    assert after_closure.armed and P.f_vector()
    assert after_closure.calls == Counter()
