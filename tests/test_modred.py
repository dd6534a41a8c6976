import itertools
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polywythoff.elements import MatModP
from polywythoff import modred
from polywythoff.groups import check_modulus, closure, element_order
from polywythoff.modred import (
    _COS2,
    IntegralReflectionSystem,
    IntersectionFailure,
    ModPGroupSpec,
    NonIntegralSystem,
    build_tail_triangle_modp,
    form_radical,
    group_order_modp,
    is_crystallographic,
    is_prime,
    reduce_mod_p,
    rescale,
    search_lengths,
    three_ringings,
)
from polywythoff.oracles import toroid_44_ss, toroid_434_330
from polywythoff.ttgroup import (
    INF,
    NotInvolution,
    TailTriangleDiagram,
    parse_diagram,
)
from polywythoff.fixtureio import builtin_fixture
from polywythoff.wythoff import (
    build_polytope,
    build_regular,
    classify,
    poset_isomorphic,
    vertex_figure,
)
from inverses import inverse

# the star diagram: tail branch 3, triangle branches 4 and inf, open bottom
STAR = parse_diagram("tail=[3] triangle=(4,inf,2)")
LENGTHS = (1, 1, 2, 4)


def star_spec(p):
    return reduce_mod_p(rescale(STAR, LENGTHS), p)


# ---------------------------------------------------------------- criterion


@pytest.mark.parametrize(
    "text,ok",
    [
        ("tail=[3] triangle=(4,inf,2)", True),  # the star diagram
        ("tail=[3] triangle=(3,3,2)", True),  # simply laced
        ("tail=[] triangle=(5,3,2)", False),  # label 5
        ("tail=[7] triangle=(3,3,2)", False),  # label 7
        ("tail=[] triangle=(4,3,3)", False),  # circuit with one 4
        ("tail=[] triangle=(4,4,3)", True),  # circuit with two 4s
        ("tail=[] triangle=(6,3,3)", False),  # circuit with one 6
        ("tail=[] triangle=(6,6,3)", True),  # circuit with two 6s
        ("tail=[] triangle=(4,3,2)", True),  # open circuit, lone 4 fine
        ("tail=[] triangle=(6,4,2)", True),  # open circuit, lone labels fine
        ("tail=[] triangle=(4,6,3)", False),  # circuit: one 4 and one 6
        ("tail=[3] triangle=(inf,inf,inf)", True),  # inf everywhere
        ("tail=[] triangle=(4,4,4)", False),  # circuit with three 4s
        ("tail=[] triangle=(6,6,6)", False),  # circuit with three 6s
    ],
)
def test_crystallographic_table(text, ok):
    assert bool(is_crystallographic(parse_diagram(text))) == ok


def test_crystallographic_reason_strings():
    r = is_crystallographic(parse_diagram("tail=[] triangle=(5,3,2)"))
    assert not r and "5" in r.reason
    r = is_crystallographic(parse_diagram("tail=[] triangle=(4,3,3)"))
    assert not r and r.reason == "triangle circuit has exactly one 4-label"
    r = is_crystallographic(parse_diagram("tail=[3] triangle=(6,6,6)"))
    assert not r and r.reason == "triangle circuit has three 6-labels"


# ------------------------------------------------------------------ rescale


def test_rescale_star_system():
    sys_ = rescale(STAR, LENGTHS)
    assert sys_.l == ((-2, 1, 0, 0), (1, -2, 2, 4), (0, 1, -2, 0), (0, 1, 0, -2))
    assert sys_.gram == (
        (2, -1, 0, 0),
        (-1, 2, -2, -4),
        (0, -2, 4, 0),
        (0, -4, 0, 8),
    )


def test_rescale_label_product_identity():
    sys_ = rescale(STAR, LENGTHS)
    want = {2: 0, 3: 1, 4: 2, 6: 3, INF: 4}
    for i in range(4):
        for j in range(4):
            if i != j:
                assert sys_.l[i][j] * sys_.l[j][i] == want[STAR.label(i, j)]


def test_rescale_simply_laced_equal_lengths():
    d = TailTriangleDiagram(3, (3,), (3, 3, 2))
    sys_ = rescale(d, (1, 1, 1, 1))
    offdiag = {sys_.l[i][j] for i in range(4) for j in range(4) if i != j}
    assert offdiag == {0, 1}


def test_rescale_non_integral():
    with pytest.raises(NonIntegralSystem) as exc:
        rescale(STAR, (1, 1, 1, 1))
    assert exc.value.pair == ("a1", "a2")


def test_rescale_scale_invariance():
    half = tuple(Fraction(x, 2) for x in LENGTHS)
    assert rescale(STAR, half).l == rescale(STAR, LENGTHS).l


RESCALE_UNDER_O = """
import sys
from polywythoff import modred
from polywythoff.ttgroup import parse_diagram
print(sys.flags.optimize)
modred._changed_rows = lambda M, p: dict.fromkeys(range(len(M)), [1] * len(M))
modred.rescale(parse_diagram("tail=[3] triangle=(4,inf,2)"), (1, 1, 2, 4))
"""


def test_rescale_checks_survive_python_O():
    # changed rows that are all ones make the involution check fail (row r
    # of M*M - 1 would be 1 + the sum of row r of M times a row of ones);
    # under -O a bare assert would be gone and rescale would return a system
    src = str(Path(modred.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-O", "-c", RESCALE_UNDER_O],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert run.stdout == "1\n"
    assert run.returncode == 1
    assert run.stderr.rstrip().endswith("AssertionError: reflection is not an involution")


def test_rescale_rejects_non_crystallographic():
    with pytest.raises(ValueError, match="crystallographic"):
        rescale(parse_diagram("tail=[] triangle=(5,3,2)"), (1, 1, 1))


def test_search_lengths_star():
    found = search_lengths(STAR)
    assert (1, 1, 2, 4) in found
    assert all(
        tuple(Fraction(x, c[0]) for x in c) != (1, 1, 1, 1) for c in found
    )


# ----------------------------------------------- rational arithmetic oracle
#
# rescale and reduce_mod_p as they were written on Fractions: structure
# constants from rational square roots, the invariance checks on the
# rational Gram matrix, the determinant by rational elimination.


def _identity(m):
    return tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))


def _transpose(M):
    return tuple(zip(*M))


def _mat_mul(A, B):
    cols = _transpose(B)
    return tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in cols) for row in A)


def _det(M):
    M = [list(row) for row in M]
    m, sign, det = len(M), 1, Fraction(1)
    for c in range(m):
        piv = next((r for r in range(c, m) if M[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            M[c], M[piv] = M[piv], M[c]
            sign = -sign
        det *= M[c][c]
        inv = Fraction(1, 1) / M[c][c]
        for r in range(c + 1, m):
            f = M[r][c] * inv
            if f:
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return sign * det


def oracle_rescale(d, squared_lengths):
    s = tuple(Fraction(x) for x in squared_lengths)
    m = d.n + 1
    l = [[-2 if i == j else 0 for j in range(m)] for i in range(m)]
    for i, j in itertools.permutations(range(m), 2):
        x = _COS2[d.label(i, j)] * s[j] / s[i]
        r = isqrt(x.numerator)
        if x.denominator != 1 or r * r != x.numerator:
            raise NonIntegralSystem(i, j, d.n)
        l[i][j] = r
    matrices = tuple(
        tuple(
            tuple(l[i][j] + (i == j) for j in range(m)) if r == i else _identity(m)[r]
            for r in range(m)
        )
        for i in range(m)
    )
    gram = tuple(
        tuple(2 * s[i] if i == j else -l[i][j] * s[i] for j in range(m)) for i in range(m)
    )
    for M in matrices:
        assert _mat_mul(M, M) == _identity(m)
        assert _mat_mul(_transpose(M), _mat_mul(gram, M)) == gram
    return IntegralReflectionSystem(d, s, tuple(map(tuple, l)), matrices, gram)


def oracle_reduce(sys_, p):
    m = sys_.dim
    check_modulus(m, p)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    den = 1
    for x in (x for row in sys_.gram for x in row):
        den = den * x.denominator // gcd(den, x.denominator)
    if den % p == 0:
        raise ValueError("squared-length denominators collide with p")
    gram_int = tuple(tuple(int(x * den) % p for x in row) for row in sys_.gram)
    gens = tuple(MatModP(p, m, [x for row in M for x in row]) for M in sys_.matrices)
    ident = MatModP(p, m, [int(i == j) for i in range(m) for j in range(m)])
    for M in gens:
        if M * M != ident:
            raise ValueError("reduced generator is not an involution")
    for M in sys_.matrices:
        lhs = _mat_mul(_transpose(M), _mat_mul(gram_int, M))
        if tuple(tuple(x % p for x in row) for row in lhs) != gram_int:
            raise ValueError("reduced form not preserved")
    det = int(_det(gram_int)) % p
    if det == 0:
        cls = "zero"
    elif p == 2:
        cls = "square"
    else:
        cls = "square" if pow(det, (p - 1) // 2, p) == 1 else "nonsquare"
    return ModPGroupSpec(p, sys_.diagram, gens, gram_int, det, cls)


def outcome(fn, *args):
    """The value of fn(*args), or the error it raises as (type, message, pair)."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "pair", None)


LABEL_SET_DIAGRAMS = [
    TailTriangleDiagram(n, tail, tri)
    for n in (2, 3)
    for tail in itertools.product((3, 4, 6), repeat=n - 2)
    for tri in itertools.product((3, 4, 6), (3, 4, 6), (2, 3, 4, 6))
]
CRYSTALLOGRAPHIC = [d for d in LABEL_SET_DIAGRAMS if is_crystallographic(d)]


@pytest.mark.parametrize("d", LABEL_SET_DIAGRAMS, ids=str)
def test_integer_reduction_matches_rational_oracle(d):
    # the diagrams selftest.random_quotients draws, every length tuple that
    # search_lengths tries there, then halved and thirded. The oracle has no
    # crystallographic test: where rescale refuses a circuit up front, the
    # oracle finds no integral system for any of these lengths.
    cryst = is_crystallographic(d)
    for combo in itertools.product((1, 2, 3), repeat=d.n + 1):
        for scale in (1, Fraction(1, 2), Fraction(1, 3)):
            lengths = tuple(x * scale for x in combo)
            sys_ = outcome(rescale, d, lengths)
            if not cryst:
                assert sys_ == (ValueError, f"not crystallographic: {cryst.reason}", None)
                assert outcome(oracle_rescale, d, lengths)[0] is NonIntegralSystem
                continue
            assert sys_ == outcome(oracle_rescale, d, lengths)
            if not isinstance(sys_, IntegralReflectionSystem):
                assert sys_[0] is NonIntegralSystem
                continue
            assert all(type(x) is Fraction for x in sys_.squared_lengths)
            assert all(type(x) is Fraction for row in sys_.gram for x in row)
            for p in (2, 3, 5, 7, 1, 4, 2147483647):
                assert outcome(reduce_mod_p, sys_, p) == outcome(oracle_reduce, sys_, p)


def test_integer_reduction_oracle_covers_every_outcome():
    got = set()
    for d in CRYSTALLOGRAPHIC[::5]:
        for lengths in search_lengths(d, (1, 2, 3)):
            for scale, p in itertools.product((1, Fraction(1, 2), Fraction(1, 3)), (2, 3, 5, 7)):
                spec = outcome(reduce_mod_p, rescale(d, tuple(x * scale for x in lengths)), p)
                got.add(spec.disc_class if isinstance(spec, ModPGroupSpec) else spec[1])
    assert got == {"zero", "square", "nonsquare", "squared-length denominators collide with p"}


def test_integer_reduction_matches_oracle_on_hand_built_systems():
    d = TailTriangleDiagram(1, (), (None, None, 3))
    shear = ((1, 1), (0, 1))  # invertible, not an involution
    flip, swap = ((-1, 0), (0, 1)), ((0, 1), (1, 0))
    skew = ((Fraction(1, 2), 0), (0, 1))  # swap does not keep it
    flat = ((1, 1), (1, 1))  # singular mod every p
    third = ((1, 1), (1, -2))  # det -3: singular mod 3 only
    for matrices, gram in [
        ((shear, flip), ((2, 0), (0, 2))),
        ((swap, shear), skew),  # both fail: the involutions are checked first
        ((flip, swap), skew),
        ((flip, flat), ((2, 0), (0, 2))),
        ((shear, flat), skew),  # invertibility is reported before involutions
        ((third, flip), skew),
    ]:
        gram = tuple(tuple(map(Fraction, row)) for row in gram)
        sys_ = IntegralReflectionSystem(d, (Fraction(1),) * 2, ((-2, 1), (1, -2)), matrices, gram)
        for p in (3, 5):
            got = outcome(reduce_mod_p, sys_, p)
            assert got == outcome(oracle_reduce, sys_, p) and isinstance(got, tuple)


# ------------------------------------------- reflection checks on changed rows


def full_checks(M, W, p):
    """(M*M = 1, M^T W M = W) from the three full products, over Z when p is
    0 and mod p otherwise: the checks as rescale and reduce_mod_p made them
    before they read only the changed rows."""
    red = (lambda X: tuple(tuple(x % p for x in row) for row in X)) if p else tuple
    square = red(_mat_mul(M, M))
    form = red(_mat_mul(_transpose(M), _mat_mul(W, M)))
    return square == red(_identity(len(M))), form == red(W)


@st.composite
def checked_pairs(draw):
    """(M, W, p): square integer matrices of dim 2-5 whose changed rows D
    number 0, 1, 2 or all, over Z (p = 0) or mod p in {2, 3, 5, 7}. Half
    are products of reflections that keep a symmetric W, some with one
    entry nudged: reflections that commute make an involution, others
    need not. The rest have random changed rows, often singular, and a W
    that need not be symmetric."""
    m = draw(st.integers(2, 5))
    p = draw(st.sampled_from([0, 2, 3, 5, 7]))
    D = draw(st.sampled_from(sorted({0, 1, min(2, m), m})).flatmap(
        lambda k: st.permutations(range(m)).map(lambda order: order[:k])
    ))
    entry = st.integers(-3, 3)
    W = [[draw(entry) for _ in range(m)] for _ in range(m)]
    M = [[int(i == j) for j in range(m)] for i in range(m)]
    if draw(st.booleans()):
        W = [[W[min(i, j)][max(i, j)] for j in range(m)] for i in range(m)]
        commuting = draw(st.booleans())
        for a in D:
            for b in D:
                if a == b or commuting:
                    W[a][b] = 2 if a == b else 0
        for d in D:  # 1 - e_d (x) W[d]: row d changes; W[d][d] = 2 makes it keep W
            R = [[int(i == j) - (W[d][j] if i == d else 0) for j in range(m)] for i in range(m)]
            M = [list(row) for row in _mat_mul(M, R)]
        if draw(st.booleans()):
            M[draw(st.integers(0, m - 1))][draw(st.integers(0, m - 1))] += draw(
                st.sampled_from([-1, 1, p or 1])
            )
    else:
        for d in D:
            M[d] = [draw(entry) for _ in range(m)]
    if p:
        M = [[x % p for x in row] for row in M]
        W = [[x % p for x in row] for row in W]
    return tuple(map(tuple, M)), tuple(map(tuple, W)), p


@settings(max_examples=400, deadline=None)
@given(checked_pairs())
def test_changed_row_checks_match_full_products(case):
    M, W, p = case
    assert modred._reflection_checks(M, W, p) == full_checks(M, W, p)


@pytest.mark.parametrize("p", [2, 3])
def test_changed_row_checks_match_full_products_on_every_2x2(p):
    # every M and every W, so non-symmetric forms that M keeps are met too
    square = [((a, b), (c, d)) for a, b, c, d in itertools.product(range(p), repeat=4)]
    verdicts = set()
    for M in square:
        for W in square:
            got = modred._reflection_checks(M, W, p)
            assert got == full_checks(M, W, p)
            verdicts.add(got)
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def test_changed_row_checks_see_every_verdict():
    # the four verdicts over Z, and mod p on matrices given unreduced
    flip = ((-1, 0), (0, 1))
    assert modred._reflection_checks(flip, ((2, 0), (0, 1))) == (True, True)
    assert modred._reflection_checks(flip, ((2, 1), (1, 1))) == (True, False)
    assert modred._reflection_checks(((1, 1), (0, 1)), ((2, 0), (0, 2))) == (False, False)
    assert modred._reflection_checks(((2, 0), (0, 1)), ((0, 0), (0, 1))) == (False, True)
    assert modred._reflection_checks(((1, 0), (0, 1)), ((1, 2), (3, 4)), 5) == (True, True)
    # -2 = 1 mod 3: the identity mod 3, not an involution over Z
    assert modred._reflection_checks(((-2, 0), (0, 1)), ((1, 0), (0, 1)), 3)[0]
    assert not modred._reflection_checks(((-2, 0), (0, 1)), ((1, 0), (0, 1)))[0]


def test_rescale_checks_read_only_changed_rows():
    # every generator of a rescaled system is a reflection: it changes one row
    for d in CRYSTALLOGRAPHIC[::7]:
        for lengths in search_lengths(d, (1, 2, 3)):
            for i, M in enumerate(rescale(d, lengths).matrices):
                assert list(modred._changed_rows(M, 0)) == [i]


# ------------------------------------------------------------------- reduce


def test_reduce_orders_and_discriminant():
    sys_ = rescale(STAR, LENGTHS)
    for p, order, det in [(2, 96, 0), (3, 1296, 0)]:
        spec = reduce_mod_p(sys_, p)
        assert spec.det_mod_p == det == 0
        assert group_order_modp(spec) == order


def test_reduce_large_primes_match_orthogonal_orders():
    sys_ = rescale(STAR, LENGTHS)
    spec5 = reduce_mod_p(sys_, 5)
    assert spec5.det_mod_p != 0 and spec5.disc_class == "square"
    # full orthogonal group of plus type: 2 * p^2 * (p^2-1)^2 at p=5
    assert group_order_modp(spec5) == 28800
    spec7 = reduce_mod_p(sys_, 7)
    # index-2 spinor kernel inside the plus-type group at p=7
    assert group_order_modp(spec7) == 112896


def test_reduce_rejects_bad_input():
    sys_ = rescale(STAR, LENGTHS)
    with pytest.raises(ValueError, match="prime"):
        reduce_mod_p(sys_, 6)
    third = tuple(Fraction(x, 3) for x in LENGTHS)
    with pytest.raises(ValueError, match="denominators"):
        reduce_mod_p(rescale(STAR, third), 3)
    with pytest.raises(ValueError, match="too large"):
        reduce_mod_p(sys_, 2147483647)  # 4 * (p - 1)^2 >= 2^63


def test_reduce_checks_the_modulus_before_the_primality_test(monkeypatch):
    # trial division of 2^61 - 1 would run for hours; the bound refuses it first
    def no_huge_trial_division(p, _is_prime=modred.is_prime):
        assert p < 2**40, "is_prime called on a modulus past the bound"
        return _is_prime(p)

    monkeypatch.setattr(modred, "is_prime", no_huge_trial_division)
    sys_ = rescale(STAR, LENGTHS)
    with pytest.raises(ValueError, match="too large"):
        reduce_mod_p(sys_, 2**61 - 1)
    with pytest.raises(ValueError, match="not prime"):
        reduce_mod_p(sys_, 4)


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1) and not is_prime(0)


# ----------------------------------------------------------------- p=2 case


def test_g2_polytope():
    G = build_tail_triangle_modp(star_spec(2))
    assert G.group.order == 96
    # the infinite branch collapses to order 4 in the reduction
    assert G.diagram.triangle == (4, 4, 2)
    assert element_order(G.alphas[1] * G.beta) == 4
    P = build_polytope(G)
    assert P.f_vector_str() == "(3, 12, 16, 4+4)"
    assert len(P.flag_ids()) == 192
    c = classify(P, G)
    assert c.kind == "Regular" and c.aut_order == 192
    # all eight hemioctahedral facets pass through every vertex
    vf = vertex_figure(P, P.ids(0)[0])
    assert vf.f_vector() == (8, 16, 8)
    # 192 flags / 3 vertices = 64 flags = 4 * 16 edges: the torus {4,4}_(2,2)
    assert poset_isomorphic(vf, toroid_44_ss(2)) is not None


def test_g2_other_length_systems_degenerate():
    # the other integral systems collapse a generator mod 2
    for lengths in search_lengths(STAR):
        if lengths == LENGTHS:
            continue
        spec = reduce_mod_p(rescale(STAR, lengths), 2)
        with pytest.raises(NotInvolution):
            build_tail_triangle_modp(spec)


# ----------------------------------------------------------------- p=3 case


@pytest.fixture(scope="module")
def ringings3():
    return three_ringings(star_spec(3))


def test_g3_three_ringings(ringings3):
    fvecs = [P.f_vector_str() for P in ringings3.posets]
    assert fvecs == [
        "(27, 162, 216, 27+54)",
        "(54, 162, 162, 27+27)",
        "(27, 162, 216, 54+27)",
    ]
    kinds = [classify(P, G).kind for G, P in zip(ringings3.groups, ringings3.posets)]
    assert kinds == ["TwoOrbit", "Regular", "TwoOrbit"]
    P1, P2, P3 = ringings3.posets
    iso = [poset_isomorphic(A, B) is not None for A, B in [(P1, P2), (P1, P3), (P2, P3)]]
    assert iso == [False, True, False]


def test_g3_regular_ringing_is_cubic_toroid(ringings3):
    assert poset_isomorphic(ringings3.posets[1], toroid_434_330()) is not None


def assert_isomorphism(fmap, P1, P2):
    """``fmap`` is a bijection of the face ids, bottom and top included, that
    keeps ranks and sends every cover to a cover."""
    assert sorted(fmap) == list(range(len(P1.rank_of)))
    assert sorted(fmap.values()) == list(range(len(P2.rank_of)))
    assert all(P2.rank_of[fmap[i]] == P1.rank_of[i] for i in fmap)
    assert all(fmap[b] in P2.up_ids[fmap[a]] for a in fmap for b in P1.up_ids[a])
    assert sum(map(len, P1.up_ids)) == sum(map(len, P2.up_ids))  # so onto


def test_isomorphism_is_a_map_of_face_ids(ringings3):
    tet = builtin_fixture("tet.sg").gens
    G2 = build_tail_triangle_modp(star_spec(2))
    P2 = build_polytope(G2)
    pairs = [
        (build_regular(tet), build_regular(tet)),
        (ringings3.posets[1], toroid_434_330()),
        (vertex_figure(P2, P2.ids(0)[0]), toroid_44_ss(2)),
    ]
    for P1, Q in pairs:
        assert_isomorphism(poset_isomorphic(P1, Q), P1, Q)


def test_g3_tetrahedra_octahedra_split(ringings3):
    P = ringings3.posets[2]
    split = {}
    for f in P.ids(3):
        split.setdefault(P.kind_of[f], []).append(f)
    assert (len(split["P"]), len(split["Q"])) == (54, 27)
    from polywythoff.wythoff import facet_section

    assert facet_section(P, split["P"][0]).f_vector() == (4, 6, 4)  # tetrahedron
    assert facet_section(P, split["Q"][0]).f_vector() == (6, 12, 8)  # octahedron


def test_g3_translation_subgroup():
    spec = star_spec(3)
    rad = form_radical(spec)
    assert len(rad) == 1
    G3 = closure(list(spec.generators))
    assert G3.order == 1296
    p, m, r = 3, 4, rad[0]

    def trivial_mod_rad(g):
        for j in range(m):
            col = [(g.entries[i * m + j] - (i == j)) % p for i in range(m)]
            k = None
            for a, b in zip(col, r):
                if b == 0:
                    if a:
                        return False
                else:
                    kk = a * pow(b, -1, p) % p
                    if k is None:
                        k = kk
                    elif kk != k:
                        return False
        return True

    T = [g for g in G3.elements if trivial_mod_rad(g)]
    assert len(T) == 27 and G3.order // len(T) == 48
    Tset = set(T)
    assert all(inverse(g) * t * g in Tset for t in T for g in G3.generators)
    assert all(a * b == b * a for a in T for b in T)


# ------------------------------------------------------- failure reporting


def test_intersection_failure_reported():
    from polywythoff.modred import ModPGroupSpec

    fx = builtin_fixture("sc2_fail.tt")
    p = 2
    mats = tuple(
        MatModP(p, g.degree, tuple(
            int(g.images[j] == i + 1) for i in range(g.degree) for j in range(g.degree)
        ))
        for g in fx.gens
    )
    spec = ModPGroupSpec(p, TailTriangleDiagram(2, (), (3, 3, 2)), mats,
                         gram_mod_p=(), det_mod_p=1, disc_class="square")
    with pytest.raises(IntersectionFailure) as exc:
        build_tail_triangle_modp(spec)
    assert exc.value.result.witness is not None


def test_ringing_requires_star():
    spec = star_spec(3)
    with pytest.raises(ValueError):
        build_tail_triangle_modp(spec, ringing=4)
