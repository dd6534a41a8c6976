import random

import pytest

from polywythoff.elements import Perm, parse_perm
from polywythoff.groups import (
    CapExceeded,
    closure,
    coset_partition,
    element_order,
    extend_homomorphism,
    right_cosets,
    trivial_group,
)

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
    assert G.identity in G
    for g in random.Random(0).sample(G.elements, 10):
        assert g.inverse() in G
        for h in random.Random(1).sample(G.elements, 5):
            assert g * h in G


def test_compose_associativity_spot_check():
    G = closure(tomotope_gens())
    rng = random.Random(7)
    for _ in range(25):
        a, b, c = (rng.choice(G.elements) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert (a * b).inverse() == b.inverse() * a.inverse()


def test_tomotope_subgroups():
    rho = tomotope_gens()
    G = closure(rho)
    P = G.subgroup(rho[:3])
    assert P.order == 24  # tetrahedron group
    assert G.subgroup(()).order == 1
    assert G.order % P.order == 0


def test_right_cosets_tomotope_counts():
    rho = tomotope_gens()
    G = closure(rho)
    gamma0 = G.subgroup([rho[1], rho[2], rho[3]])
    assert len(right_cosets(G, gamma0)) == 4  # vertices
    ridge = G.subgroup(rho[:2])
    assert len(right_cosets(G, ridge)) == 16  # triangles
    assert right_cosets(G, G) == [G.identity]


def test_coset_partition_properties():
    rho = tomotope_gens()
    G = closure(rho)
    H = G.subgroup(rho[:2])
    reps, cid = coset_partition(G, H)
    # every element gets a coset number, and every number is used
    assert len(cid) == G.order
    assert set(cid) == set(range(len(reps))) and len(reps) == G.order // H.order
    assert reps == sorted(reps, key=lambda e: e.key)
    for i, g in enumerate(G.elements):
        # canonical rep is minimal within its own coset
        assert min((h * g for h in H.elements), key=lambda e: e.key) == reps[cid[i]]


def test_right_cosets_requires_subgroup():
    G = closure([parse_perm("(1,2)", 3)])
    H = closure([parse_perm("(1,2,3)", 3)])
    with pytest.raises(ValueError):
        right_cosets(G, H)


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
    y = random.Random(5).choice(G.elements)
    assert list(G.right_multiplier(y)) == [G.index_of(e * y) for e in G.elements]
    assert list(G.right_multiplier(G.identity)) == list(range(G.order))


def test_element_order():
    rho = tomotope_gens()
    assert element_order(Perm.identity(12)) == 1
    assert element_order(rho[2] * rho[3]) == 2
    assert element_order(rho[1] * rho[3]) == 4
    with pytest.raises(CapExceeded):
        element_order(parse_perm("(1,2,3,4,5)", 5), cap=3)


def test_extend_homomorphism_detects_relations():
    s3 = closure([parse_perm("(1,2)", 3), parse_perm("(2,3)", 3)])
    # swapping the two generators is an automorphism of S3
    phi = extend_homomorphism(s3, [s3.generators[1], s3.generators[0]], s3)
    assert phi is not None
    assert len(set(phi.values())) == s3.order
    assert all(phi[a * b] == phi[a] * phi[b] for a in s3.elements for b in s3.elements)
    # collapsing both generators onto one involution is a map onto C2
    fold = extend_homomorphism(s3, [s3.generators[0], s3.generators[0]], s3)
    assert fold is not None and len(set(fold.values())) == 2
    # a non-involution image breaks the b^2 = 1 relation
    assert extend_homomorphism(s3, [s3.generators[0], parse_perm("(1,2,3)", 3)], s3) is None
    # images need not be generators of the target: S3 onto the C2 of (1,2)(3,4)
    s4 = closure([parse_perm("(1,2)", 4), parse_perm("(1,2,3,4)", 4)])
    s3_in_s4 = closure([parse_perm("(1,2)", 4), parse_perm("(2,3)", 4)])
    swap = parse_perm("(1,2)(3,4)", 4)
    sign = extend_homomorphism(s3_in_s4, [swap, swap], s4)
    assert sign is not None and set(sign.values()) == {s4.identity, swap}


def test_trivial_group():
    t = trivial_group(Perm.identity(4))
    assert t.order == 1 and t.identity in t
