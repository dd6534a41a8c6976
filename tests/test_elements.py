import pytest

from polywythoff.elements import (
    KindMismatch,
    MatModP,
    Perm,
    parse_matmodp,
    parse_perm,
)
from inverses import inverse


def test_perm_right_action():
    a = parse_perm("(1,2,3)", 3)
    b = parse_perm("(1,2)", 3)
    # point^(ab) = (point^a)^b
    assert (a * b).images[0] == b.images[a.images[0] - 1]
    assert (a * b).images[2] == 2


def test_perm_parse_print_roundtrip():
    for text in ["(5,10)(6,9)(7,12)(8,11)", "()", "(1,6)(2,5)(3,8)(4,7)"]:
        assert str(parse_perm(text, 12)) == text


def test_perm_inverse_and_identity():
    g = parse_perm("(1,4,2)(3,5)", 5)
    assert (g * inverse(g)).is_identity()
    assert Perm(range(1, 6)) * g == g


def test_perm_validation():
    with pytest.raises(ValueError):
        Perm((1, 1, 3))
    with pytest.raises(ValueError):
        parse_perm("(1,2)(2,3)", 3)  # not disjoint
    with pytest.raises(ValueError):
        parse_perm("(1,9)", 3)
    with pytest.raises(KindMismatch):
        parse_perm("(1,2)", 2) * parse_perm("(1,2)", 3)


def test_matmodp_arithmetic():
    m = MatModP(5, 2, [1, 1, 0, 1])
    m2 = m * m
    assert m2.entries == (1, 2, 0, 1)
    assert (m * inverse(m)).is_identity()
    assert MatModP(5, 2, [1, 0, 0, 1]) * m == m


def test_matmodp_singular_rejected():
    with pytest.raises(ValueError):
        MatModP(3, 2, [1, 2, 2, 1])  # det = 1-4 = 0 mod 3


def test_matmodp_parse_print_roundtrip():
    text = "mod 3 dim 2 [1 2 0 1]"
    assert str(parse_matmodp(text)) == text


def test_matmodp_kind_mismatch():
    with pytest.raises(KindMismatch):
        MatModP(3, 2, [1, 0, 0, 1]) * MatModP(5, 2, [1, 0, 0, 1])


@pytest.mark.parametrize(
    "make, bad",
    [
        (lambda: parse_matmodp("mod 0 dim 1 [1]"), "modulus must be >= 2, not 0"),
        (lambda: MatModP(1, 1, [0]), "modulus must be >= 2, not 1"),
        (lambda: MatModP(3, 0, []), "dimension must be >= 1, not 0"),
    ],
)
def test_matmodp_rejects_a_modulus_below_two_and_a_dimension_below_one(make, bad):
    with pytest.raises(ValueError) as exc:
        make()
    assert str(exc.value) == bad
