"""Once a group is closed, the build path works on element indices only.

The closure (``kernels.close``) is the one place that multiplies elements.
After it returns, the checks, the Wythoff build, the axioms, the sections,
``flag_orbits``, ``classify`` and the export read the right table: they
neither hash, multiply nor invert a ``Perm`` or ``MatModP``, and no group
builds its element -> index dict. The same holds for the amalgam once both
factors are closed: its context, word arithmetic, coset keys, ridge walk,
ball and classification. The counters below start when ``ttgroup.closure``
returns (the second one for an amalgam). Before it, ``verify_tail_triangle``
and ``is_string_c_group`` make only a bounded number of products to check
their generators, and every pair order is read from the right table
(``ttgroup.pair_order``); ``test_star_verify_makes_eight_products`` pins
that count.

Elements stay the kernel's codes after the closure, too: an element object
is made (``MatModP._raw``, ``Perm._raw``) only to be printed or returned.
The ``made`` counter shows that the screen makes one witness per failing
check and nothing else, and that neither it nor a star build makes the
group's element tuple. A star build keeps its faces as coset ids and
prints its representatives from their codes, so through the export it
makes no element and no ``Face`` at all; asking for a face (the Face-keyed
views) makes them then. A section is named by face ids and is an id slice
of its parent, and the isomorphism test reads ids, so neither makes or
hashes any.
"""

from collections import Counter

import pytest

from polywythoff import poset, ttgroup
from polywythoff.amalgam import (
    AmalgamContext,
    enumerate_ball,
    ridge_section,
    universal_is_regular,
)
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
    facet_section,
    flag_orbits,
    poset_isomorphic,
    two_sections,
    verify_diamond,
    verify_strong_connectivity,
    vertex_figure,
)


class AfterClosure:
    """Counts element hashes, products and inverses (``calls``) and element
    objects made (``made``) once the closures it waits for have returned."""

    def __init__(self):
        self.calls = Counter()
        self.made = Counter()
        self.reset()

    def reset(self, closures=1):
        self.armed = False
        self.waiting = closures
        self.calls.clear()
        self.made.clear()


@pytest.fixture
def after_closure(monkeypatch):
    probe = AfterClosure()
    for cls in (MatModP, Perm):
        for name in ("__hash__", "__mul__", "inverse"):

            def counted(self, *args, _original=getattr(cls, name), _name=f"{cls.__name__}.{name}"):
                if probe.armed:
                    probe.calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(cls, name, counted)

        def made(cls, *args, _original=cls.__dict__["_raw"].__func__):
            if probe.armed:
                probe.made[f"{cls.__name__}._raw"] += 1
            return _original(cls, *args)

        monkeypatch.setattr(cls, "_raw", classmethod(made))

    def face(self, *args, _original=poset.Face.__init__):
        if probe.armed:
            probe.made["Face"] += 1
        _original(self, *args)

    monkeypatch.setattr(poset.Face, "__init__", face)
    closure = ttgroup.closure

    def arming(*args, **kwargs):
        G = closure(*args, **kwargs)
        probe.waiting -= 1
        probe.armed = probe.waiting <= 0
        return G

    monkeypatch.setattr(ttgroup, "closure", arming)
    return probe


def star_mod3():
    spec = reduce_mod_p(rescale(parse_diagram("tail=[3] triangle=(4,inf,2)"), (1, 1, 2, 4)), 3)
    return build_tail_triangle_modp(spec)


def test_star_mod3_build_hashes_and_multiplies_no_element(after_closure):
    G = star_mod3()
    assert after_closure.armed
    full, reduced = check_intersection_full(G), check_intersection_reduced(G)
    P = build_polytope(G, verification=reduced)
    assert full and verify_diamond(P)[0] and verify_strong_connectivity(P)
    assert all(s.is_polygon and s.alternating for s in two_sections(P))
    orbits, flags, _ = flag_orbits(P, G)
    kind = classify(P, G).kind
    summary = f"fvec = {P.f_vector_str()} flags={flags} orbits={orbits} class={kind}"
    assert summary == "fvec = (27, 162, 216, 27+54) flags=2592 orbits=2 class=TwoOrbit"
    lines = export_hasse(P, summary=summary).splitlines()
    assert sum(line.startswith("face ") for line in lines) == 486
    assert after_closure.calls == Counter()
    assert after_closure.made == Counter()
    # faces are made when asked for, one per face with its representative
    assert vertex_figure(P, P.ids(0)[0]).f_vector_str() == "(12, 24, 6+8)"
    assert after_closure.made == Counter()
    v = P.faces(0)[0]
    assert len(P.up[v]) == 12 and all(e.rank == 1 for e in P.up[v])
    faces = len(P.face_list)
    assert faces == 486 + 2
    assert after_closure.made["MatModP._raw"] == faces - 2
    assert after_closure.made["Face"] >= faces
    assert G.group._index is None
    assert G.group._words is None
    assert G.group._elements is None


def test_sections_and_isomorphism_make_no_face_or_element(after_closure):
    P, Q = build_polytope(star_mod3()), build_polytope(star_mod3())
    assert after_closure.armed
    after_closure.calls.clear()
    after_closure.made.clear()
    assert vertex_figure(P, P.ids(0)[0]).f_vector_str() == "(12, 24, 6+8)"
    facets = {P.kind_of[i]: i for i in P.ids(3)}
    got = {kind: facet_section(P, f).f_vector() for kind, f in facets.items()}
    assert got == {"P": (6, 12, 8), "Q": (4, 6, 4)}
    assert after_closure.made == Counter()
    assert after_closure.calls == Counter()  # no MatModP.__hash__ either
    assert P._faces is None
    assert poset_isomorphic(P, Q) is not None
    assert Q._faces is None
    assert after_closure.made == Counter()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_star_verify_makes_eight_products(after_closure, monkeypatch, p):
    """Four squarings for the involution checks, and a0 a2, a2 a0, a0 b and
    b a0 for the two forced commutations, whatever the pair orders (the
    infinite label reduces to p); none once the group is closed."""
    spec = reduce_mod_p(rescale(parse_diagram("tail=[3] triangle=(4,inf,2)"), (1, 1, 2, 4)), p)
    products = Counter()
    multiply = MatModP.__mul__

    def counted(self, other):
        products["MatModP.__mul__"] += 1
        return multiply(self, other)

    monkeypatch.setattr(MatModP, "__mul__", counted)
    G = verify_tail_triangle(spec.generators[:3], spec.generators[3])
    assert after_closure.armed and G.diagram.triangle == (4, p, 2)
    assert products == Counter({"MatModP.__mul__": 8})
    assert after_closure.calls == Counter()


def test_quotient_screen_hashes_and_multiplies_no_element(after_closure):
    quotients = random_quotients(primes=(2, 3))
    assert {type(G.beta) for G in quotients} == {MatModP}
    failing = 0
    for Q in quotients:
        after_closure.reset()
        G = verify_tail_triangle(Q.alphas, Q.beta, cap=10_000)
        assert after_closure.armed
        results = check_intersection_full(G), check_intersection_reduced(G)
        assert after_closure.calls == Counter()
        # a failing check makes its one witness; a passing one makes nothing
        fails = sum(not r.ok for r in results)
        assert after_closure.made == Counter({"MatModP._raw": fails} if fails else {})
        failing += fails
        assert G.group._index is None
        assert G.group._elements is None
    assert failing  # the corpus holds failing checks


@pytest.mark.parametrize("name", ["tet.sg", "oct.sg", "hexagon.sg"])
def test_regular_build_hashes_and_multiplies_no_element(after_closure, name):
    gens = builtin_fixture(name).gens
    P = build_regular(gens)
    assert after_closure.armed and P.f_vector()
    assert after_closure.calls == Counter()


def amalgam_factors(name):
    if name == "star mod 3":
        G = star_mod3()
        return G.alphas, G.alphas[:-1] + (G.beta,)
    return tuple(builtin_fixture(f).gens for f in name.split("/"))


@pytest.mark.parametrize("name", ["tet.sg/oct.sg", "tet.sg/tet.sg", "star mod 3"])
def test_amalgam_hashes_multiplies_and_inverts_no_element(after_closure, name):
    p_gens, q_gens = amalgam_factors(name)
    after_closure.reset(closures=2)
    ctx = AmalgamContext(p_gens, q_gens)
    assert after_closure.armed
    batch = [["a0", "a2", "b", "a1"], ["b", "a2", "b", "a0"], ["a1", "b", "a2", "a2", "b"]]
    words = [ctx.normalize(letters) for letters in batch]
    for u, w in zip(words, words[1:]):
        assert ctx.normalize(ctx.word_letters(w)) == w
        assert ctx.multiply(w, ctx.inverse(w)) == ctx.identity_word
        ctx.multiply(u, w)
        for kind in [f"G_{j}" for j in range(ctx.n)] + ["P", "Q", "Pi_-1+"]:
            ctx.coset_key(kind, w)
    assert ridge_section(ctx, 3).is_open
    assert enumerate_ball(ctx, 3).poset.faces(0)
    universal_is_regular(ctx)
    assert after_closure.calls == Counter()
    assert ctx.P._index is None and ctx.Q._index is None


@pytest.mark.parametrize("name", ["tet.sg/oct.sg", "star mod 3"])
def test_ball_makes_no_face_until_face_list_is_read(after_closure, name):
    """The ball's faces are ids with a rank, a kind and a word each; its
    export prints the words, and a ``Face`` is made per face only when
    ``face_list`` (or ``find_face``, which reads it) is asked for."""
    p_gens, q_gens = amalgam_factors(name)
    after_closure.reset(closures=2)
    ctx = AmalgamContext(p_gens, q_gens)
    ball = enumerate_ball(ctx, 2)
    assert ball.poset.f_vector() and export_hasse(ball.poset)
    assert after_closure.made["Face"] == 0
    assert ball.poset._faces is None
    faces = ball.poset.face_list
    assert after_closure.made["Face"] == len(faces)
    base = ball.index[0, "G_0"][ctx.coset_key("G_0", ctx.identity_word)]
    assert ball.find_face(0, "G_0", ctx.identity_word) is faces[base]
    assert after_closure.made["Face"] == len(faces)
