import itertools
import random

import pytest

from polywythoff import ttgroup
from polywythoff.elements import KindMismatch, parse_perm
from polywythoff.fixtureio import (
    builtin_fixture,
    builtin_fixture_names,
    parse_fixture,
)
from polywythoff.groups import closure, element_order
from polywythoff.modred import reduce_mod_p, rescale
from polywythoff.selftest import random_quotients
from polywythoff.ttgroup import (
    INF,
    CommutationViolation,
    NotInvolution,
    TailTriangleDiagram,
    check_intersection_full,
    check_intersection_reduced,
    gen_name,
    is_string_c_group,
    pair_order,
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


def no_closure(*args, **kwargs):
    raise AssertionError("a failing input reached the closure")


def test_bad_fixture_fails_before_any_closure(monkeypatch):
    monkeypatch.setattr(ttgroup, "closure", no_closure)
    fx = builtin_fixture("bad.tt")
    with pytest.raises(CommutationViolation) as exc:
        verify_tail_triangle(fx.alphas, fx.beta)
    assert (exc.value.pair, exc.value.order) == (("a0", "b"), 3)
    assert str(exc.value) == (
        "generators a0 and b must commute (diagram label 2), product has order 3"
    )


def test_repeated_string_generator_does_not_commute(monkeypatch):
    """A repeated generator fails string commutation, its product with
    itself having order 1, before a closure would find <a> cap <a> = <a>
    larger than the trivial group <{}>."""
    monkeypatch.setattr(ttgroup, "closure", no_closure)
    a, b = parse_perm("(1,2)", 3), parse_perm("(2,3)", 3)
    res = is_string_c_group([a, b, a])
    assert not res and res.reason == "generators 0,2 do not commute"


class Closed(Exception):
    """Raised in place of the closure: every generator check passed."""


def refuse_closure(*args, **kwargs):
    raise Closed


def oracle_verify_checks(alphas, beta):
    """The generator checks of ``verify_tail_triangle`` as they were written
    on element products; raises Closed where the closure would run."""
    alphas = tuple(alphas)
    n = len(alphas)
    gens = alphas + (beta,)
    for i, g in enumerate(gens):
        if g.is_identity() or not (g * g).is_identity():
            raise NotInvolution(gen_name(i, n))
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            if gens[i] == gens[j]:
                raise ValueError(f"generators {gen_name(i, n)} and {gen_name(j, n)} coincide")
    for i in range(n + 1):
        for j in range(i + 2, n + 1):
            a, b = gens[i], gens[j]
            if (j < n or i <= n - 3) and a * b != b * a:
                raise CommutationViolation(gen_name(i, n), gen_name(j, n), element_order(a * b))
    raise Closed


def oracle_string_reason(gens):
    """SC1 of ``is_string_c_group`` as it was written on element products:
    the reason it fails, or None where the closure would run."""
    r = len(gens)
    for i, g in enumerate(gens):
        if g.is_identity() or not (g * g).is_identity():
            return f"generator {i} not an involution"
    for i in range(r):
        for j in range(i + 2, r):
            a, b = gens[i], gens[j]
            if a == b or a * b != b * a:
                return f"generators {i},{j} do not commute"
    return None


def raised(f, *args):
    """(type, message) of what f(*args) raises."""
    with pytest.raises(Exception) as exc:
        f(*args)
    return type(exc.value), str(exc.value)


def hand_built_failures(alphas, beta):
    """Four failing inputs from the valid rank-3 ones (a0, a1, a2), b: an
    identity generator, a non-involution, two coinciding generators, and
    a label-2 pair a0, a1 a0 a1 that does not commute (a0 a1 has order 3)."""
    a0, a1, a2 = alphas
    one = a0 * a0
    return {
        NotInvolution: [((a0, one, a2), beta), ((a0, a1, a2), a0 * a1)],
        ValueError: [((a0, a1, a0), beta)],
        CommutationViolation: [((a0, a1, a1 * a0 * a1), beta)],
    }


def star_mod3_generators():
    system = rescale(parse_diagram("tail=[3] triangle=(4,inf,2)"), (1, 1, 2, 4))
    return reduce_mod_p(system, 3).generators


def generator_check_corpus():
    """(alphas, beta) inputs of both kinds: every fixture split into alphas
    and a last generator, every random quotient, and the hand-built
    failures on the tomotope and on the star mod 3."""
    cases = []
    for name in builtin_fixture_names():
        gens = builtin_fixture(name).gens
        cases.append((gens[:-1], gens[-1]))
    cases += [(Q.alphas, Q.beta) for Q in random_quotients(primes=(2, 3))]
    tomotope = builtin_fixture("tomotope.tt")
    for gens in (tomotope.gens, star_mod3_generators()):
        for failing in hand_built_failures(gens[:3], gens[3]).values():
            cases += failing
    return cases


def test_generator_checks_match_the_element_oracle(monkeypatch):
    """The checks on codes give the element oracle's verdict, exception type
    and message, for ``verify_tail_triangle`` and for ``is_string_c_group``
    on each input's generators and on its alphas."""
    cases = generator_check_corpus()
    monkeypatch.setattr(ttgroup, "closure", refuse_closure)
    verdicts = set()
    for alphas, beta in cases:
        want = raised(oracle_verify_checks, alphas, beta)
        assert raised(verify_tail_triangle, alphas, beta) == want
        verdicts.add(want[0])
        for gens in (tuple(alphas) + (beta,), tuple(alphas)):
            reason = oracle_string_reason(gens)
            if reason is None:
                with pytest.raises(Closed):
                    is_string_c_group(gens)
            else:
                res = is_string_c_group(gens)
                assert (res.ok, res.reason, res.group) == (False, reason, None)
    assert verdicts == {Closed, NotInvolution, ValueError, CommutationViolation}


@pytest.mark.parametrize("kind", ["permutations", "matrices"])
def test_hand_built_failures_are_what_they_say(kind):
    gens = builtin_fixture("tomotope.tt").gens if kind == "permutations" else star_mod3_generators()
    for error, inputs in hand_built_failures(gens[:3], gens[3]).items():
        for alphas, beta in inputs:
            assert raised(oracle_verify_checks, alphas, beta)[0] is error


def test_mixed_kind_generators_raise_before_any_check(monkeypatch):
    """Generators of mixed kind raise KindMismatch before any check or
    closure: a permutation with a matrix, two degrees, two moduli."""
    monkeypatch.setattr(ttgroup, "closure", no_closure)
    swap, cycle = parse_perm("(1,2)", 4), parse_perm("(1,2,3)", 3)
    star = star_mod3_generators()
    system = rescale(parse_diagram("tail=[3] triangle=(4,inf,2)"), (1, 1, 2, 4))
    mod5 = reduce_mod_p(system, 5).generators
    for alphas, beta in [((swap,), star[0]), ((cycle,), swap), (star[:3], mod5[3])]:
        with pytest.raises(KindMismatch, match="^generators of mixed kind$"):
            verify_tail_triangle(alphas, beta)
        with pytest.raises(KindMismatch, match="^generators of mixed kind$"):
            is_string_c_group(tuple(alphas) + (beta,))


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
    assert elem in frozenset(G.group.elements) and not elem.is_identity()


@pytest.mark.parametrize("indices", [range(1), range(3), range(5), (0, 1, 3), (1, 2, 4, 5)])
def test_subset_pairs_keep_the_index_set_order(indices):
    # the order of the full check's pairs, as it was written on index sets:
    # subsets by size, each size in bitmask order over positions, then
    # every pair of them; it fixes conditions_checked and the witness
    subsets = [
        frozenset(x for b, x in enumerate(indices) if mask >> b & 1)
        for mask in range(1 << len(indices))
    ]
    subsets.sort(key=len)
    got = [tuple(map(ttgroup._members, pair)) for pair in ttgroup._subset_pairs(indices)]
    assert got == list(itertools.combinations(subsets, 2))


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
            key = frozenset(G.group.sub(idx).elements)
            assert key not in seen.values(), (name, idx)
            seen[idx] = key


def test_gamma_P_meet_gamma_Q_is_ridge():
    for name in ["tomotope.tt", "m66_240a.tt", "d4.tt"]:
        G = load_tt(name)
        sub = lambda key: frozenset(G.group.sub(key).elements)
        assert sub(G.gamma_P()) & sub(G.gamma_Q()) == sub(range(G.n - 1))


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
    assert schlafli_type(closure(tet.gens)) == [3, 3]
    assert schlafli_type(closure(tet.gens[:1])) == []


def s5_involution_strings(count, seed=11):
    """Random strings of 2 to 4 involutions in S5, as generator lists."""
    rng = random.Random(seed)
    points = list(range(1, 6))
    out = []
    for _ in range(count):
        gens = []
        for _ in range(rng.randint(2, 4)):
            rng.shuffle(points)
            pairs = rng.randint(1, 2)
            cycles = "".join(f"({points[2 * i]},{points[2 * i + 1]})" for i in range(pairs))
            gens.append(parse_perm(cycles, 5))
        out.append(gens)
    return out


def schlafli_corpus():
    """Generator strings: every fixture, both facet strings and the whole
    generator list of each random quotient, and random S5 strings."""
    strings = [builtin_fixture(name).gens for name in builtin_fixture_names()]
    for G in random_quotients(primes=(2, 3)):
        strings += [G.alphas, G.alphas[:-1] + (G.beta,), G.gens]
    return strings + s5_involution_strings(60)


def test_schlafli_type_matches_element_orders():
    """The right-table walks against element_order on element products."""
    for gens in schlafli_corpus():
        G = closure(gens)
        want = [element_order(a * b) for a, b in zip(gens, gens[1:])]
        assert schlafli_type(G) == want
        for i, j in itertools.combinations(range(len(gens)), 2):
            assert pair_order(G, i, j) == element_order(gens[i] * gens[j])


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


def format_fixture(fx) -> str:
    out = [f"{fx.kind} n={fx.n} degree={fx.degree}"]
    if fx.kind == "tail-triangle":
        for i, g in enumerate(fx.gens[:-1]):
            out.append(f"alpha{i} = {g}")
        out.append(f"beta = {fx.gens[-1]}")
    else:
        for i, g in enumerate(fx.gens):
            out.append(f"rho{i} = {g}")
    if fx.expect_order is not None:
        out.append(f"expect order={fx.expect_order}")
    return "\n".join(out) + "\n"


def test_fixture_roundtrip_bit_exact():
    from importlib import resources

    for name in ["tomotope.tt", "m66_240a.tt", "tet.sg", "hexagon.tt"]:
        raw = resources.files("polywythoff.fixtures").joinpath(name).read_text()
        assert format_fixture(parse_fixture(raw)) == raw


def test_string_cgroup_fixture_has_no_alphas_or_beta():
    fx = builtin_fixture("hexagon.sg")
    with pytest.raises(ValueError, match="no alphas"):
        fx.alphas
    with pytest.raises(ValueError, match="no beta"):
        fx.beta
    tt = builtin_fixture("hexagon.tt")
    assert tt.alphas + (tt.beta,) == tt.gens


def test_fixture_expect_orders():
    for name in ["tomotope.tt", "m66_240a.tt", "b3_digon.tt", "d4.tt", "hexagon.tt"]:
        fx = builtin_fixture(name)
        from polywythoff.groups import closure

        assert closure(fx.gens).order == fx.expect_order
