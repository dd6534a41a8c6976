import random

import pytest

from polywythoff.elements import MatModP, Perm, parse_perm
from polywythoff.fixtureio import builtin_fixture, builtin_fixture_names
from polywythoff.groups import (
    CapExceeded,
    closure,
    coset_partition,
    element_kind,
    element_order,
    extend_homomorphism,
)
from polywythoff.modred import reduce_mod_p, rescale
from polywythoff.ttgroup import parse_diagram, verify_tail_triangle
from polywythoff.wythoff import classify
from inverses import inverse

# tomotope generators (degree 12)
RHO = [
    "(5,10)(6,9)(7,12)(8,11)",
    "(1,6)(2,5)(3,8)(4,7)",
    "(5,9)(6,10)(7,11)(8,12)",
    "(5,8)(6,7)(9,12)(10,11)",
]


def tomotope_gens():
    return [parse_perm(t, 12) for t in RHO]


def test_tomotope_closure_order():
    assert closure(tomotope_gens()).order == 96


def test_m66_240a_closure_order():
    a1 = parse_perm("(2,3)(4,5)", 7)
    a0 = parse_perm("(1,2)", 7)
    b1 = parse_perm("(2,4)(3,5)(6,7)", 7)
    assert closure([a1, a0, b1]).order == 240


def test_single_involution_closure():
    assert closure([parse_perm("(1,2)", 2)]).order == 2


def test_closure_cap():
    with pytest.raises(CapExceeded):
        closure(tomotope_gens(), cap=50)


def test_closure_group_axioms():
    G = closure(tomotope_gens())
    assert G.elements[G.index_of(G.identity)] == G.identity
    for g in random.Random(0).sample(G.elements, 10):
        assert G.elements[G.index_of(inverse(g))] == inverse(g)
        for h in random.Random(1).sample(G.elements, 5):
            assert G.elements[G.index_of(g * h)] == g * h


def test_compose_associativity_spot_check():
    G = closure(tomotope_gens())
    rng = random.Random(7)
    for _ in range(25):
        a, b, c = (rng.choice(G.elements) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert inverse(a * b) == inverse(b) * inverse(a)


def test_tomotope_subgroups():
    rho = tomotope_gens()
    G = closure(rho)
    P = G.sub(range(3))
    assert P.order == 24  # tetrahedron group
    assert G.sub(()).order == 1
    assert G.order % P.order == 0


def test_right_cosets_tomotope_counts():
    rho = tomotope_gens()
    G = closure(rho)
    assert len(coset_partition(G, [1, 2, 3])[0]) == 4  # vertices
    assert len(coset_partition(G, range(2))[0]) == 16  # triangles
    assert coset_partition(G, range(4))[0] == [0]  # element 0 is the identity


def test_coset_partition_properties():
    rho = tomotope_gens()
    G = closure(rho)
    H = G.sub(range(2))
    reps, cid = coset_partition(G, range(2))
    # every element gets a coset number, and every number is used
    assert len(cid) == G.order
    assert set(cid) == set(range(len(reps))) and len(reps) == G.order // H.order
    assert reps == sorted(reps, key=lambda r: G.elements[r].key)
    for i, g in enumerate(G.elements):
        # canonical rep is minimal within its own coset
        assert min((h * g for h in H.elements), key=lambda e: e.key) == G.elements[reps[cid[i]]]


@pytest.mark.parametrize(
    "gens",
    [tomotope_gens(), [parse_perm("(1,2,3,4,5)", 5), parse_perm("(1,2)", 5)]],
    ids=["involutions", "5-cycle"],
)
def test_right_table_and_multiplier(gens):
    G = closure(gens)
    R = G.right_table()
    assert R is G.right_table()  # built once
    for gi, g in enumerate(G.generators):
        assert list(R[gi]) == [G.index_of(e * g) for e in G.elements]
    y = random.Random(5).randrange(G.order)
    want = [G.index_of(e * G.elements[y]) for e in G.elements]
    assert list(G.right_multiplier(y)) == want
    assert list(G.right_multiplier(0)) == list(range(G.order))


def test_element_order():
    rho = tomotope_gens()
    assert element_order(Perm(range(1, 13))) == 1
    assert element_order(rho[2] * rho[3]) == 2
    assert element_order(rho[1] * rho[3]) == 4
    with pytest.raises(CapExceeded):
        element_order(parse_perm("(1,2,3,4,5)", 5), cap=3)


def element_extension(G, images, target):
    """The oracle: extend_homomorphism as an element -> image dict, made by
    element products along the productions of G and checked on every
    generator edge of G's Cayley graph."""
    phi = [target.identity]
    for parent, gi in G.tree()[1:]:
        phi.append(phi[parent] * images[gi])
    for row, y in zip(G.right_table(), images):
        if any(phi[j] != phi[i] * y for i, j in enumerate(row)):
            return None
    return dict(zip(G.elements, phi))


def extend(G, images, target):
    """extend_homomorphism on the target indices of ``images``, checked
    against the element oracle and returned as its element dict."""
    phi = extend_homomorphism(G, [target.index_of(y) for y in images], target)
    want = element_extension(G, images, target)
    assert (phi is None) == (want is None)
    if phi is not None:
        assert dict(zip(G.elements, (target.elements[y] for y in phi))) == want
    return want


def test_extend_homomorphism_detects_relations():
    s3 = closure([parse_perm("(1,2)", 3), parse_perm("(2,3)", 3)])
    # swapping the two generators is an automorphism of S3
    phi = extend(s3, [s3.generators[1], s3.generators[0]], s3)
    assert phi is not None
    assert len(set(phi.values())) == s3.order
    assert all(phi[a * b] == phi[a] * phi[b] for a in s3.elements for b in s3.elements)
    # collapsing both generators onto one involution is a map onto C2
    fold = extend(s3, [s3.generators[0], s3.generators[0]], s3)
    assert fold is not None and len(set(fold.values())) == 2
    # a non-involution image breaks the b^2 = 1 relation
    assert extend(s3, [s3.generators[0], parse_perm("(1,2,3)", 3)], s3) is None
    # images need not be generators of the target: S3 onto the C2 of (1,2)(3,4)
    s4 = closure([parse_perm("(1,2)", 4), parse_perm("(1,2,3,4)", 4)])
    s3_in_s4 = closure([parse_perm("(1,2)", 4), parse_perm("(2,3)", 4)])
    swap = parse_perm("(1,2)(3,4)", 4)
    sign = extend(s3_in_s4, [swap, swap], s4)
    assert sign is not None and set(sign.values()) == {s4.identity, swap}


@pytest.mark.parametrize(
    "name", [n for n in builtin_fixture_names() if n.endswith(".tt") and n != "bad.tt"]
)
def test_classify_homomorphism_matches_element_oracle(name):
    """classify's swap of a_{n-1} and b, on every tail-triangle fixture."""
    fx = builtin_fixture(name)
    G = verify_tail_triangle(fx.alphas, fx.beta)
    images = list(G.alphas[:-1]) + [G.beta, G.alphas[-1]]
    regular = extend(G.group, images, G.group) is not None
    # classify reads only the group, so the failing sc2_fail.tt needs no build
    assert classify(None, G).kind == ("Regular" if regular else "TwoOrbit")


def test_trivial_group():
    t = closure([Perm(range(1, 5))])
    assert t.order == 1 and t.elements[t.index_of(t.identity)] == t.identity


def _reflection(p, dim=3):
    """-1 in the first coordinate: an involution over Z_p."""
    return MatModP(p, dim, [(p - 1) if i == j == 0 else int(i == j)
                            for i in range(dim) for j in range(dim)])


# the largest prime p with 3*(p-1)^2 < 2^63, and the next prime
FITS, TOO_LARGE = 1753413037, 1753413059


def test_closure_rejects_huge_moduli_up_front():
    assert 3 * (FITS - 1) ** 2 < 2**63 <= 3 * (TOO_LARGE - 1) ** 2
    assert closure([_reflection(FITS)]).order == 2
    with pytest.raises(ValueError, match="too large"):
        closure([_reflection(TOO_LARGE)])


def kind_corpus():
    """The fixtures, the star at p = 2, 3 and 5, and the rank-5 star at
    p = 3, as generator lists."""
    corpus = [pytest.param(builtin_fixture(name).gens, id=name) for name in builtin_fixture_names()]
    star = rescale(parse_diagram("tail=[3] triangle=(4,inf,2)"), (1, 1, 2, 4))
    corpus += [pytest.param(reduce_mod_p(star, p).generators, id=f"star mod {p}") for p in (2, 3, 5)]
    star5 = rescale(parse_diagram("tail=[3,3] triangle=(4,inf,2)"), (1, 1, 1, 2, 4))
    return corpus + [pytest.param(reduce_mod_p(star5, 3).generators, id="rank-5 star mod 3")]


@pytest.mark.parametrize("gens", kind_corpus())
def test_kind_codes_make_and_print_every_element(gens):
    """``make`` inverts ``code``, and ``text`` prints what ``make`` makes: on
    the generators and their products, made by element arithmetic, and on
    every element of the group."""
    kind = element_kind(gens)
    made = list(gens) + [g * h for g in gens for h in gens]
    assert all(kind.make(kind.code(g)) == g for g in made)
    assert kind.make(kind.identity).is_identity()
    for code in closure(gens).keys:
        g = kind.make(code)
        assert kind.code(g) == code and kind.text(code) == str(g)
