"""Index-level cosets and face action against element-level oracles.

``coset_partition`` and the face action of a built poset work on element
indices through the right-multiplication table, and name the subgroup H by
the generator indices that generate it. The oracles below are the direct
element computations on H as a group of its own (``FiniteGroup.sub`` or a
fresh closure): multiply every element of H into each new coset, and move
a face by multiplying its representative.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polywythoff.fixtureio import builtin_fixture
from polywythoff.groups import closure, coset_partition
from polywythoff.modred import build_tail_triangle_modp, reduce_mod_p, rescale
from polywythoff.poset import Face
from polywythoff.ttgroup import parse_diagram, verify_tail_triangle
from polywythoff.wythoff import build_polytope


def oracle_cosets(G, H):
    """(reps sorted by key, element -> canonical rep), by multiplication."""
    rep_of = {}
    reps = []
    for g in G.elements:
        if g in rep_of:
            continue
        coset = [h * g for h in H.elements]
        rep = min(coset, key=lambda e: e.key)
        for e in coset:
            rep_of[e] = rep
        reps.append(rep)
    reps.sort(key=lambda e: e.key)
    return reps, rep_of


def assert_same_cosets(G, key, H):
    """coset_partition(G, key) against the oracle on H = <key> as a group."""
    reps, cid = coset_partition(G, key)
    want_reps, rep_of = oracle_cosets(G, H)
    assert [G.elements[r] for r in reps] == want_reps
    assert [G.elements[reps[c]] for c in cid] == [rep_of[e] for e in G.elements]


def distinguished(G):
    """kind -> subgroup key, as build_polytope labels the faces."""
    subs = {f"G_{j}": G.gamma(j) for j in range(G.n)}
    subs.update(P=G.gamma_P(), Q=G.gamma_Q())
    return subs


def fixture_group(name):
    fx = builtin_fixture(name)
    return verify_tail_triangle(fx.alphas, fx.beta)


def d4_ringing(k):
    x, c, y, z = builtin_fixture("d4.tt").gens
    alphas, beta = [((x, c, y), z), ((y, c, x), z), ((z, c, x), y)][k]
    return verify_tail_triangle(alphas, beta)


def star_group(p):
    star = parse_diagram("tail=[3] triangle=(4,inf,2)")
    return build_tail_triangle_modp(reduce_mod_p(rescale(star, (1, 1, 2, 4)), p))


CASES = {
    "tomotope": lambda: fixture_group("tomotope.tt"),
    "m66_240a": lambda: fixture_group("m66_240a.tt"),
    "d4-ringing-1": lambda: d4_ringing(0),
    "d4-ringing-2": lambda: d4_ringing(1),
    "d4-ringing-3": lambda: d4_ringing(2),
    "star-mod2": lambda: star_group(2),
    "star-mod3": lambda: star_group(3),
}


def face_images(P, f):
    """The images of face f under the generators, read from ``P.moves``."""
    i = P.face_list.index(f)
    return tuple(P.face_list[m[i]] for m in P.moves)


@pytest.fixture(scope="module", params=sorted(CASES))
def built(request):
    G = CASES[request.param]()
    return G, build_polytope(G)


def test_cosets_match_oracle(built):
    G, _ = built
    for key in distinguished(G).values():
        assert_same_cosets(G.group, key, G.group.sub(key))


def test_action_matches_oracle(built):
    G, P = built
    rep_of = {
        kind: oracle_cosets(G.group, G.group.sub(key))[1]
        for kind, key in distinguished(G).items()
    }
    assert len(P.moves) == len(G.group.generators)
    for f in (f for r in P.proper_ranks() for f in P.faces(r)):
        want = tuple(Face(f.rank, f.kind, rep_of[f.kind][f.rep * g]) for g in G.group.generators)
        assert face_images(P, f) == want


FIXTURES = ["tomotope.tt", "m66_240a.tt", "b3_digon.tt", "d4.tt", "hexagon.tt", "tet.sg", "oct.sg"]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_cosets_of_random_generator_subsets(data):
    gens = builtin_fixture(data.draw(st.sampled_from(FIXTURES), label="fixture")).gens
    idx = range(len(gens))
    g_idx = data.draw(st.sets(st.sampled_from(idx), min_size=1), label="G generators")
    h_idx = data.draw(st.sets(st.sampled_from(sorted(g_idx))), label="H generators")
    G = closure([gens[i] for i in sorted(g_idx)])
    H = closure([gens[i] for i in sorted(h_idx)] or [G.identity])
    assert_same_cosets(G, [sorted(g_idx).index(i) for i in h_idx], H)
