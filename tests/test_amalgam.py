import gc
import random
import weakref

import pytest

from polywythoff.amalgam import (
    AmalgamContext,
    AmalgamWord,
    FacetMismatch,
    NotCGroup,
    dihedral_order_unbounded,
    enumerate_ball,
    ridge_section,
    universal_is_regular,
)
from polywythoff.fixtureio import builtin_fixture
from polywythoff.wythoff import build_regular, facet_section, poset_isomorphic


def gens(name):
    return builtin_fixture(name).gens


@pytest.fixture(scope="module")
def tetoct():
    return AmalgamContext(gens("tet.sg"), gens("oct.sg"))


@pytest.fixture(scope="module")
def tritri():
    return AmalgamContext(gens("triangle.sg"), gens("triangle.sg"))


def test_context_transversal_sizes(tetoct, tritri):
    assert len(tritri.towers["P"][0]) == 3 and len(tritri.towers["Q"][0]) == 3
    assert len(tetoct.towers["P"][0]) == 24 // 6
    assert len(tetoct.towers["Q"][0]) == 48 // 6


def test_towers_nested(tetoct):
    for s in "PQ":
        ts = tetoct.towers[s]
        for j in range(len(ts) - 1):
            assert set(ts[j + 1]) <= set(ts[j])
        assert len(ts[-1]) == 2
        assert ts[-1][0].is_identity() and not ts[-1][1].is_identity()


def test_context_rejections():
    tet = gens("tet.sg")
    with pytest.raises(NotCGroup):
        AmalgamContext(gens("sc2_fail.tt"), gens("sc2_fail.tt"))
    with pytest.raises(FacetMismatch):
        # cube = reversed octahedron: square facet vs triangle facet
        cube = tuple(reversed(gens("oct.sg")))
        AmalgamContext(tet, cube)
    with pytest.raises(ValueError):
        AmalgamContext(tet, gens("oct.sg"), shared=1)


def test_normalize_basics(tetoct):
    assert tetoct.normalize(["a0", "a0"]) == tetoct.identity_word
    w = tetoct.normalize(["a2"])
    assert w.kappa.is_identity() and w.length == 1 and w.taus[0][0] == "P"
    assert tetoct.normalize([]) == tetoct.identity_word
    with pytest.raises(ValueError):
        tetoct.normalize(["a9"])


def test_infinite_dihedral(tetoct):
    for m in range(1, 51):
        w = tetoct.normalize(["a2", "b"] * m)
        assert w.length == 2 * m
    assert dihedral_order_unbounded(tetoct, 50)


def test_dihedral_normal_forms(tetoct):
    # elements of <a2, b> keep kappa = 1 and singleton alternating taus
    a2 = tetoct.letters["a2"][1]
    b = tetoct.letters["b"][1]
    w = tetoct.normalize(["b", "a2", "b", "a2", "b"])
    assert w.kappa.is_identity()
    assert [s for s, _ in w.taus] == ["Q", "P", "Q", "P", "Q"]
    assert all(t in (a2, b) for _, t in w.taus)


def test_embeddings_random(tetoct):
    rng = random.Random(11)
    for side, G in (("P", tetoct.P), ("Q", tetoct.Q)):
        for _ in range(300):
            g, h = rng.choice(G.elements), rng.choice(G.elements)
            wg, wh = tetoct.inject(side, g), tetoct.inject(side, h)
            assert tetoct.multiply(wg, wh) == tetoct.inject(side, g * h)


def test_injectivity(tetoct):
    for side, G in (("P", tetoct.P), ("Q", tetoct.Q)):
        assert len({tetoct.inject(side, g) for g in G.elements}) == G.order


def test_intersection_is_facet_group(tetoct):
    # a P-word equals a Q-word only when both are transversal-free
    injP = {tetoct.inject("P", g) for g in tetoct.P.elements}
    injQ = {tetoct.inject("Q", g) for g in tetoct.Q.elements}
    both = injP & injQ
    assert len(both) == tetoct.K.order
    assert all(w.taus == () for w in both)


def test_normalize_idempotent_roundtrip(tetoct):
    rng = random.Random(5)
    names = sorted(tetoct.letters)
    for _ in range(2000):
        letters = [rng.choice(names) for _ in range(rng.randint(0, 14))]
        w = tetoct.normalize(letters)
        assert tetoct.normalize(tetoct.word_letters(w)) == w


def test_inverse_and_associativity(tetoct):
    rng = random.Random(7)
    names = sorted(tetoct.letters)

    def rand_word():
        return tetoct.normalize([rng.choice(names) for _ in range(rng.randint(0, 10))])

    for _ in range(200):
        w = rand_word()
        assert tetoct.multiply(w, tetoct.inverse(w)) == tetoct.identity_word
    for _ in range(100):
        u, v, w = rand_word(), rand_word(), rand_word()
        assert tetoct.multiply(tetoct.multiply(u, v), w) == tetoct.multiply(
            u, tetoct.multiply(v, w)
        )


def test_membership_predicates(tetoct):
    a2 = tetoct.normalize(["a2"])
    assert tetoct.in_pi_plus(a2, 1)
    assert not tetoct.in_gamma(a2, 2)  # Gamma_2 = K
    assert tetoct.in_gamma(tetoct.identity_word, 0)
    assert tetoct.in_gamma(tetoct.identity_word, 1)
    assert tetoct.in_gamma(tetoct.identity_word, 2)
    b = tetoct.normalize(["b"])
    assert tetoct.in_pi_plus(b, 1) and not tetoct.in_gamma(b, 2)
    # a0 commutes past the pair: in Gamma_1 and Gamma_2 but not Gamma_0
    a0 = tetoct.normalize(["a0"])
    assert tetoct.in_gamma(a0, 1) and tetoct.in_gamma(a0, 2)
    assert not tetoct.in_gamma(a0, 0)
    with pytest.raises(ValueError):
        tetoct.in_pi_plus(a2, 5)


def test_membership_vs_finite_oracle(tetoct):
    # membership of facet-group elements agrees with brute force inside K
    rng = random.Random(3)
    from polywythoff.groups import closure

    g1 = closure([tetoct.P.generators[0], tetoct.P.generators[2]])
    for _ in range(100):
        k = rng.choice(tetoct.K.elements)
        w = tetoct.inject("P", k)
        assert tetoct.in_gamma(w, 1) == (k in g1.element_set)
        assert tetoct.in_gamma(w, 2)


def test_ball_radius_zero(tetoct):
    b = enumerate_ball(tetoct, 0)
    # every face incident to the base ridge K; both base facets present
    assert [len(b.poset.faces(r)) for r in range(4)] == [3, 3, 1, 2]
    kinds = sorted(f.kind for f in b.poset.faces(3))
    assert kinds == ["P", "Q"]
    base_p = next(f for f in b.poset.faces(3) if f.kind == "P")
    base_q = next(f for f in b.poset.faces(3) if f.kind == "Q")
    ridge = b.poset.faces(2)[0]
    assert base_p in b.poset.up[ridge] and base_q in b.poset.up[ridge]


def test_ball_nesting(tetoct, tritri):
    for ctx, radii in ((tritri, (0, 1, 2)), (tetoct, (0, 1))):
        balls = {r: enumerate_ball(ctx, r) for r in list(radii) + [max(radii) + 1]}
        for r in radii:
            small, big = balls[r], balls[r + 1]
            fmap = {}
            for rank in range(ctx.n + 1):
                for f in small.poset.faces(rank):
                    g = big.find_face(rank, f.kind, f.rep)
                    assert g is not None, (r, f)
                    fmap[f] = g
            for f, ups in small.poset.up.items():
                if f.rank < 0 or f.rank > ctx.n:
                    continue
                for g in ups:
                    if g.rank > ctx.n:
                        continue
                    assert fmap[g] in big.poset.up[fmap[f]]


def test_ball_facet_sections(tetoct):
    b = enumerate_ball(tetoct, 1)
    base_p = next(f for f in b.poset.faces(3) if f.kind == "P" and f.rep == tetoct.identity_word)
    base_q = next(f for f in b.poset.faces(3) if f.kind == "Q" and f.rep == tetoct.identity_word)
    tet = build_regular(gens("tet.sg"))
    oct_ = build_regular(gens("oct.sg"))
    assert poset_isomorphic(facet_section(b.poset, base_p), tet) is not None
    assert poset_isomorphic(facet_section(b.poset, base_q), oct_) is not None


def test_ridge_section_apeirogon(tetoct):
    rep = ridge_section(tetoct, 12)
    assert rep.is_open and rep.alternating and rep.ridges_checked == 25


def test_universal_classification(tetoct):
    tet = gens("tet.sg")
    assert universal_is_regular(AmalgamContext(tet, tet)).kind == "Regular"
    assert universal_is_regular(tetoct).kind == "TwoOrbit"
    hexa = gens("hexagon.sg")
    assert universal_is_regular(AmalgamContext(hexa, hexa)).kind == "Regular"


def test_word_str_and_key(tetoct):
    w = tetoct.normalize(["a0", "a2", "b"])
    assert isinstance(str(w), str) and w.key < tetoct.normalize(["a2", "b", "a2", "b"]).key


def test_dropped_context_is_collected():
    ctx = AmalgamContext(gens("tet.sg"), gens("oct.sg"))
    assert ctx.in_gamma(ctx.normalize(["a0", "a1"]), 0) is False
    ref = weakref.ref(ctx)
    del ctx
    gc.collect()
    assert ref() is None
