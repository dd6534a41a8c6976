import pytest

from polywythoff.fixtureio import builtin_fixture, format_fixture, parse_fixture
from polywythoff.ttgroup import (
    INF,
    CommutationViolation,
    NotInvolution,
    TailTriangleDiagram,
    check_intersection_full,
    check_intersection_reduced,
    is_string_c_group,
    parse_diagram,
    schlafli_type,
    verify_tail_triangle,
)


def load_tt(name):
    fx = builtin_fixture(name)
    return verify_tail_triangle(fx.alphas, fx.beta)


def test_tomotope_diagram_and_order():
    G = load_tt("tomotope.tt")
    assert G.group.order == 96
    assert G.diagram.tail == (3,)
    assert G.diagram.triangle == (3, 4, 2)


def test_m66_240a_diagram():
    G = load_tt("m66_240a.tt")
    assert G.group.order == 240
    assert G.diagram.triangle == (6, 6, 2)


def test_b3_digon_diagram():
    G = load_tt("b3_digon.tt")
    assert G.group.order == 48
    assert G.diagram.triangle == (4, 2, 3)


def test_d4_diagram():
    G = load_tt("d4.tt")
    assert G.group.order == 192
    assert G.diagram.tail == (3,)
    assert G.diagram.triangle == (3, 3, 2)


def test_hexagon_base_case():
    G = load_tt("hexagon.tt")
    assert G.n == 1
    assert G.diagram.k == 3
    assert G.group.order == 6


def test_not_involution():
    from polywythoff.elements import parse_perm

    with pytest.raises(NotInvolution):
        verify_tail_triangle([parse_perm("(1,2,3,4)", 4)], parse_perm("(1,2)", 4))


def test_bad_fixture_commutation_violation():
    fx = builtin_fixture("bad.tt")
    with pytest.raises(CommutationViolation) as exc:
        verify_tail_triangle(fx.alphas, fx.beta)
    assert exc.value.pair == ("a0", "b")


def test_tomotope_intersection_both_checkers():
    G = load_tt("tomotope.tt")
    full = check_intersection_full(G)
    red = check_intersection_reduced(G)
    assert full.ok and red.ok
    assert red.conditions_checked == 2 * G.n - 1


def test_sc2_fail_witnessed_and_checkers_agree():
    G = load_tt("sc2_fail.tt")
    full = check_intersection_full(G)
    red = check_intersection_reduced(G)
    assert not full.ok and not red.ok
    # the full checker must exhibit an explicit offending element
    assert full.witness is not None
    I, J, elem = full.witness
    assert elem in G.group.element_set and not elem.is_identity()


@pytest.mark.parametrize(
    "name", ["tomotope.tt", "m66_240a.tt", "b3_digon.tt", "d4.tt", "hexagon.tt", "sc2_fail.tt"]
)
def test_reduced_equals_full(name):
    G = load_tt(name)
    assert check_intersection_reduced(G).ok == check_intersection_full(G).ok


def test_distinguished_subgroups_pairwise_distinct():
    # when SC2 holds, distinct generator subsets generate distinct subgroups
    for name in ["tomotope.tt", "d4.tt", "b3_digon.tt"]:
        G = load_tt(name)
        assert check_intersection_full(G).ok
        seen = {}
        for mask in range(1 << (G.n + 1)):
            idx = frozenset(i for i in range(G.n + 1) if mask >> i & 1)
            key = G.sub(idx).element_set
            assert key not in seen.values(), (name, idx)
            seen[idx] = key


def test_gamma_P_meet_gamma_Q_is_ridge():
    for name in ["tomotope.tt", "m66_240a.tt", "d4.tt"]:
        G = load_tt(name)
        meet = G.gamma_P().element_set & G.gamma_Q().element_set
        assert meet == G.sub(range(G.n - 1)).element_set


def test_is_string_c_group_fixtures():
    tet = builtin_fixture("tet.sg")
    res = is_string_c_group(tet.gens)
    assert res and res.schlafli == [3, 3]
    oct_ = builtin_fixture("oct.sg")
    res = is_string_c_group(oct_.gens)
    assert res and res.schlafli == [3, 4] and res.group.order == 48
    # {6,6}*240a generators in string order (a1, a0, b1)
    m = builtin_fixture("m66_240a.tt")
    a0, a1, b1 = m.gens
    res = is_string_c_group([a1, a0, b1])
    assert res and res.schlafli == [6, 6]


def test_is_string_c_group_rank1_and_failures():
    from polywythoff.elements import parse_perm

    assert is_string_c_group([parse_perm("(1,2)", 2)])
    # broken string commutation
    bad = [parse_perm("(1,2)", 3), parse_perm("(2,3)", 3), parse_perm("(1,2)", 3)]
    assert not is_string_c_group(bad)


def test_schlafli_type():
    tet = builtin_fixture("tet.sg")
    assert schlafli_type(tet.gens) == [3, 3]
    assert schlafli_type(tet.gens[:1]) == []


def test_diagram_label_table():
    d = TailTriangleDiagram(3, (3,), (3, 4, 2))
    assert d.label(0, 1) == 3 and d.label(1, 2) == 3
    assert d.label(0, 2) == 2  # non-adjacent alphas
    assert d.label(2, 3) == 2  # k
    assert d.label(1, 3) == 4  # q
    assert d.label(0, 3) == 2  # beta commutes down the tail
    assert d.label(1, 1) == 1


def test_parse_diagram_grammar():
    d = parse_diagram("tail=[3] triangle=(4,inf,2)")
    assert d.n == 3 and d.tail == (3,) and d.triangle == (4, INF, 2)
    assert str(d) == "tail=[3] triangle=(4,inf,2)"
    d2 = parse_diagram("tail=[] triangle=(3,3,2)")
    assert d2.n == 2
    with pytest.raises(ValueError):
        parse_diagram("triangle=(3,3)")


def test_fixture_roundtrip_bit_exact():
    from importlib import resources

    for name in ["tomotope.tt", "m66_240a.tt", "tet.sg", "hexagon.tt"]:
        raw = resources.files("polywythoff.fixtures").joinpath(name).read_text()
        assert format_fixture(parse_fixture(raw)) == raw


def test_fixture_expect_orders():
    for name in ["tomotope.tt", "m66_240a.tt", "b3_digon.tt", "d4.tt", "hexagon.tt"]:
        fx = builtin_fixture(name)
        from polywythoff.groups import closure

        assert closure(fx.gens).order == fx.expect_order
