import random
import weakref

import pytest

from polywythoff.fixtureio import builtin_fixture
from polywythoff.oracles import (
    dihedral_tt_gens,
    polygon_poset,
    toroid_44,
    toroid_44_ss,
)
from polywythoff.ttgroup import verify_tail_triangle
from polywythoff.wythoff import (
    UnverifiedGroup,
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


def verify_vertex_figure(P, G) -> bool:
    """Recursive cross-check: the vertex figure matches the rank-(n-1) build on
    Gamma_0 = <a1..a_{n-1},b> with the ring moved to a1."""
    if G.n < 2:
        return True
    v = P.ids(0)[0]
    sub = verify_tail_triangle(G.alphas[1:], G.beta)
    expected = build_polytope(sub)
    return poset_isomorphic(vertex_figure(P, v), expected) is not None


def verify_facet_sections(P, G) -> bool:
    """Facet sections are the regular polytopes of the facet subgroups."""
    for kind, gens in (("P", G.alphas), ("Q", G.alphas[:-1] + (G.beta,))):
        expected = build_regular(gens)
        f = facet_of_kind(P, kind)
        if poset_isomorphic(facet_section(P, f), expected) is None:
            return False
    return True


def facet_of_kind(P, kind):
    """The id of the first face of the given kind at the top proper rank."""
    return next(i for i in P.ids(P.top_rank - 1) if P.kind_of[i] == kind)


def build(name):
    fx = builtin_fixture(name)
    G = verify_tail_triangle(fx.alphas, fx.beta)
    return G, build_polytope(G)


@pytest.fixture(scope="module")
def tomotope():
    return build("tomotope.tt")


def test_tomotope_f_vector(tomotope):
    G, P = tomotope
    assert P.f_vector() == (4, 12, 16, 8)
    assert P.facet_split() == (4, 4)
    assert P.f_vector_str() == "(4, 12, 16, 4+4)"


def test_tomotope_axioms(tomotope):
    _, P = tomotope
    ok, witness = verify_diamond(P)
    assert ok, witness
    assert verify_strong_connectivity(P)


def test_tomotope_sections_alternate(tomotope):
    _, P = tomotope
    secs = two_sections(P)
    assert len(secs) == 12  # one per edge
    assert all(s.is_polygon and s.size == 4 and s.alternating for s in secs)


def test_tomotope_flags_and_class(tomotope):
    G, P = tomotope
    orbits, flags, free = flag_orbits(P, G)
    assert (orbits, flags, free) == (2, 192, True)
    c = classify(P, G)
    assert c.kind == "TwoOrbit" and c.aut_order == 96


def test_tomotope_facet_sections(tomotope):
    G, P = tomotope
    tet, hemi = facet_of_kind(P, "P"), facet_of_kind(P, "Q")
    assert facet_section(P, tet).f_vector() == (4, 6, 4)
    assert facet_section(P, hemi).f_vector() == (3, 6, 4)
    assert verify_facet_sections(P, G)
    # tetrahedron vs hemioctahedron: different f-vectors, not isomorphic
    assert poset_isomorphic(facet_section(P, tet), facet_section(P, hemi)) is None


def test_tomotope_vertex_figure(tomotope):
    G, P = tomotope
    assert verify_vertex_figure(P, G)
    vf = vertex_figure(P, P.ids(0)[0])
    assert len(vf.ids(0)) == 6  # vertex degree 6: 24 incidences over 4 vertices


def test_facet_kinds_never_equal_or_incident(tomotope):
    _, P = tomotope
    tops = P.faces(3)
    reps_p = {f.rep for f in tops if f.kind == "P"}
    reps_q = {f.rep for f in tops if f.kind == "Q"}
    # faces are distinguished by kind even where coset reps collide
    assert all(f.kind in ("P", "Q") for f in tops)
    for i in P.ids(3):
        assert all(P.kind_of[j] in ("G_2",) for j in P.down_ids[i])
    # distinct ranks never compare equal
    assert len({(f.rank, f.kind, f.rep) for f in P.face_list}) == len(P.rank_of)
    assert len(reps_p) == len(reps_q) == 4


def test_common_representative_exists_on_flags(tomotope):
    # constructive check: each flag's cosets share a common group element.
    # The coset H_f of face f contains e iff f = H e, the image of the base
    # face of f's kind (the coset holding 1) under e; images under e are
    # found by walking P.moves along e's word.
    G, P = tomotope
    keys = {"P": G.gamma_P(), "Q": G.gamma_Q()}
    keys.update({f"G_{j}": G.gamma(j) for j in range(G.n)})
    subgroup = {kind: set(G.group.sub(key).elements) for kind, key in keys.items()}
    base = {f.kind: i for i, f in enumerate(P.face_list) if f.rep in subgroup.get(f.kind, ())}
    assert len(base) == len(subgroup)
    images = []
    for word in G.group.words():
        moved = dict(base)
        for gi in word:
            moved = {k: P.moves[gi][i] for k, i in moved.items()}
        images.append(moved)
    rng = random.Random(3)
    for fl in rng.sample(P.flag_ids(), 20):
        assert any(all(moved[P.face_list[i].kind] == i for i in fl) for moved in images)


def test_ridge_covers_exactly_p_and_q(tomotope):
    _, P = tomotope
    for ridge in P.faces(2):
        kinds = sorted(f.kind for f in P.up[ridge])
        assert kinds == ["P", "Q"]


def test_vertex_transitivity(tomotope):
    # the orbit of the first vertex under P.moves holds every vertex
    _, P = tomotope
    orbit = [P.ids(0)[0]]
    for x in orbit:  # grows while it is read: a queue
        for m in P.moves:
            if m[x] not in orbit:
                orbit.append(m[x])
    assert sorted(orbit) == list(P.ids(0))


def test_m66_240a_truncation():
    G, P = build("m66_240a.tt")
    assert P.f_vector_str() == "(60, 120, 20+20)"
    orbits, flags, free = flag_orbits(P, G)
    assert flags == 480 and orbits == 2 and free
    c = classify(P, G)
    assert c.kind == "TwoOrbit" and c.aut_order == 240
    # both facet kinds are hexagons
    for kind in ("P", "Q"):
        assert poset_isomorphic(facet_section(P, facet_of_kind(P, kind)), polygon_poset(6))


def test_b3_digon():
    G, P = build("b3_digon.tt")
    assert P.f_vector_str() == "(8, 24, 6+12)"
    sq, dg = facet_of_kind(P, "P"), facet_of_kind(P, "Q")
    assert poset_isomorphic(facet_section(P, sq), polygon_poset(4))
    assert poset_isomorphic(facet_section(P, dg), polygon_poset(2))
    secs = two_sections(P)
    assert all(s.size == 6 and s.is_polygon and s.alternating for s in secs)
    fv = P.f_vector()
    # |Gamma|/|Gamma_j| arithmetic
    order = lambda key: len(G.group.span(key))
    assert fv[0] == 48 // order(G.gamma(0))
    assert fv[1] == 48 // order(G.gamma(1))
    assert P.facet_split() == (48 // order(G.gamma_P()), 48 // order(G.gamma_Q()))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_polygon_base_case(k):
    a, b = dihedral_tt_gens(k)
    G = verify_tail_triangle([a], b)
    assert G.group.order == 2 * k
    P = build_polytope(G)
    assert P.f_vector() == (2 * k, 2 * k)
    assert P.facet_split() == (k, k)
    ok, _ = verify_diamond(P)
    assert ok and verify_strong_connectivity(P)
    assert poset_isomorphic(P, polygon_poset(2 * k))


def test_hexagon_flags():
    G, P = build("hexagon.tt")
    orbits, flags, free = flag_orbits(P, G)
    assert (orbits, flags) == (2, 12) and free


def test_d4_three_ringings_isomorphic_regular():
    fx = builtin_fixture("d4.tt")
    x, c, y, z = fx.gens
    ringings = [((x, c, y), z), ((y, c, x), z), ((z, c, x), y)]
    posets = []
    for alphas, beta in ringings:
        G = verify_tail_triangle(alphas, beta)
        P = build_polytope(G)
        assert classify(P, G).kind == "Regular"
        assert classify(P, G).aut_order == 384
        posets.append(P)
    assert poset_isomorphic(posets[0], posets[1]) is not None
    assert poset_isomorphic(posets[0], posets[2]) is not None
    assert poset_isomorphic(posets[1], posets[2]) is not None


def test_build_refuses_unverified():
    fx = builtin_fixture("sc2_fail.tt")
    G = verify_tail_triangle(fx.alphas, fx.beta)
    with pytest.raises(UnverifiedGroup):
        build_polytope(G)


def test_poset_isomorphic_basics():
    tet = build_regular(builtin_fixture("tet.sg").gens)
    tet2 = build_regular(builtin_fixture("tet.sg").gens)
    assert tet.f_vector() == (4, 6, 4)
    assert poset_isomorphic(tet, tet2) is not None
    oct_ = build_regular(builtin_fixture("oct.sg").gens)
    assert oct_.f_vector() == (6, 12, 8)
    assert poset_isomorphic(tet, oct_) is None


def test_toroid_44_oracle():
    t = toroid_44(2)
    assert t.f_vector() == (4, 8, 4)
    assert len(t.flag_ids()) == 32


@pytest.mark.parametrize("s", [2, 3])
def test_toroid_44_ss_oracle(s):
    t = toroid_44_ss(s)
    assert t.f_vector() == (2 * s * s, 4 * s * s, 2 * s * s)
    assert len(t.flag_ids()) == 16 * s * s  # four flags per edge
    with pytest.raises(ValueError):
        toroid_44_ss(1)


def test_export_hasse(tomotope):
    G, P = tomotope
    text = export_hasse(P, summary="fvec = (4, 12, 16, 4+4) flags=192 orbits=2 class=TwoOrbit")
    lines = text.splitlines()
    assert sum(1 for ln in lines if ln.startswith("face ")) == 4 + 12 + 16 + 8
    assert any(ln.startswith("cover ") for ln in lines)
    assert lines[-1].startswith("fvec = ")
    # deterministic output
    assert text == export_hasse(P, summary=lines[-1])


def test_dropped_poset_is_freed_without_gc(tomotope):
    # flag_ids() must leave no reference cycle that keeps a poset alive
    G, _ = tomotope
    P = build_polytope(G)
    assert len(P.flag_ids()) == 192
    ref = weakref.ref(P)
    del P  # freed by its reference count: nothing allocates in between
    assert ref() is None
