"""The one elimination mod p (``elements.row_reduce``) against oracles.

The inverse of a matrix (``inverses.inverse``, which only the tests use),
the discriminant of a reduced Gram form and the radical of that form are
all read off one Gauss-Jordan pass. Each is
checked here against a computation that shares no code with it: a
cofactor-expansion determinant, the matrix product, and a brute-force
search of the left null space.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from polywythoff.elements import MatModP, row_reduce
from polywythoff.modred import ModPGroupSpec, form_radical, reduce_mod_p, rescale
from polywythoff.ttgroup import TailTriangleDiagram, parse_diagram
from inverses import inverse

STAR = parse_diagram("tail=[3] triangle=(4,inf,2)")
LENGTHS = (1, 1, 2, 4)


def cofactor_det(M, p):
    """Determinant mod p by expansion along the first row."""
    if not M:
        return 1 % p
    total = 0
    for j, x in enumerate(M[0]):
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        total += (-1) ** j * x * cofactor_det(minor, p)
    return total % p


def left_null_space(M, p):
    """Every v with v·M ≡ 0 mod p, by enumeration of Z_p^m."""
    m = len(M)
    return [
        v
        for v in itertools.product(range(p), repeat=m)
        if all(sum(v[i] * M[i][j] for i in range(m)) % p == 0 for j in range(len(M[0])))
    ]


def rank_by_enumeration(vectors, p):
    """The rank of ``vectors`` mod p: log_p of the size of their span."""
    span = {tuple([0] * len(vectors[0]))} if vectors else set()
    for v in vectors:
        span = {tuple((a + c * b) % p for a, b in zip(w, v)) for w in span for c in range(p)}
    size, rank = len(span), 0
    while size > 1:
        size //= p
        rank += 1
    return rank


def spec_with_gram(p, gram):
    """A spec carrying only the prime and the Gram matrix ``form_radical`` reads."""
    diagram = TailTriangleDiagram(2, (), (3, 3, 2))
    return ModPGroupSpec(p, diagram, (), tuple(map(tuple, gram)), 0, "zero")


@st.composite
def square_mod_p(draw, symmetric=False):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    m = draw(st.integers(1, 4))
    entry = st.integers(0, p - 1)
    M = [[draw(entry) for _ in range(m)] for _ in range(m)]
    if symmetric:
        M = [[M[min(i, j)][max(i, j)] for j in range(m)] for i in range(m)]
    return p, M


@settings(max_examples=200, deadline=None)
@given(square_mod_p())
def test_det_is_the_cofactor_determinant(case):
    p, M = case
    rows = [list(r) for r in M]
    rank, det = row_reduce(rows, len(M), p)
    assert det == cofactor_det(M, p)
    assert (det == 0) == (rank < len(M))


@settings(max_examples=200, deadline=None)
@given(square_mod_p())
def test_inverse_exactly_when_the_det_is_nonzero(case):
    p, M = case
    m = len(M)
    g = MatModP(p, m, [x for row in M for x in row], check=False)
    if cofactor_det(M, p):
        assert (g * inverse(g)).is_identity()
        assert (inverse(g) * g).is_identity()
    else:
        try:
            inverse(g)
        except ValueError as exc:
            assert str(exc) == f"matrix singular mod {p}"
        else:
            raise AssertionError("a singular matrix was inverted")


@settings(max_examples=100, deadline=None)
@given(square_mod_p(symmetric=True))
def test_radical_is_the_left_null_space(case):
    p, gram = case
    m = len(gram)
    assert p**m <= 2401
    radical = form_radical(spec_with_gram(p, gram))
    for v in radical:
        assert all(sum(v[i] * gram[i][j] for i in range(m)) % p == 0 for j in range(m))
    assert rank_by_enumeration(radical, p) == len(radical)  # independent
    assert len(radical) == m - rank_by_enumeration(gram, p)
    assert p ** len(radical) == len(left_null_space(gram, p))  # so they span it


def test_star_radical_is_pinned():
    sys_ = rescale(STAR, LENGTHS)
    assert form_radical(reduce_mod_p(sys_, 3)) == [(1, 2, 1, 1)]
    assert form_radical(reduce_mod_p(sys_, 2)) == [(0, 0, 1, 0), (0, 0, 0, 1)]
    assert form_radical(reduce_mod_p(sys_, 5)) == []
