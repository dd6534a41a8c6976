"""The per-group subgroup caches and the checks that read them.

``FiniteGroup.sub`` reads the subgroup of a generator subset of a group
from the group's right table, and ``FiniteGroup.mask`` the bitmask of its
element indices once, which the intersection checks read. The oracles below
enumerate every subgroup afresh with ``closure``: the reduced C-group check
as it was written on elements, with the string C-group test of its facet
groups and the re-verification of Gamma_0. ``element_pair_ok`` is the
subset-pair check on the element sets of ``sub``, the oracle of the
bitmask check.
"""

import weakref
from importlib import resources

import pytest

from polywythoff import kernels, ttgroup
from polywythoff.elements import parse_perm
from polywythoff.fixtureio import builtin_fixture
from polywythoff.groups import closure, element_kind, element_order
from polywythoff.kernels import close
from polywythoff.modred import reduce_mod_p, rescale
from polywythoff.selftest import random_quotients
from polywythoff.ttgroup import (
    CommutationViolation,
    IntersectionResult,
    NotInvolution,
    check_intersection_full,
    check_intersection_reduced,
    gen_name,
    is_string_c_group,
    parse_diagram,
    verify_tail_triangle,
)

TT_FIXTURES = sorted(
    f.name for f in resources.files("polywythoff.fixtures").iterdir() if f.name.endswith(".tt")
)
GOOD_TT = [name for name in TT_FIXTURES if name != "bad.tt"]


def subsets(r):
    return [tuple(i for i in range(r) if mask >> i & 1) for mask in range(1 << r)]


def fresh_sub(gens, S):
    """<gens[i] : i in S>, closed afresh; the empty S gives the identity of
    the generators' kind, made from its code."""
    kind = element_kind(gens)
    return closure([gens[i] for i in sorted(S)] or [kind.make(kind.identity)])


def oracle_string_c_group(gens) -> bool:
    """Involutions, string commutation and the intersection condition over
    all subset pairs, every subgroup closed afresh."""
    r = len(gens)
    if any(g.is_identity() or not (g * g).is_identity() for g in gens):
        return False
    if any(element_order(gens[i] * gens[j]) != 2 for i in range(r) for j in range(i + 2, r)):
        return False
    sub = {frozenset(S): frozenset(fresh_sub(gens, S).elements) for S in subsets(r)}
    return all(sub[I] & sub[J] == sub[I & J] for I in sub for J in sub)


def oracle_reduced(G) -> IntersectionResult:
    """The reduced criterion on elements: facet groups and Gamma_0 checked
    as groups of their own, then the 2n-1 intersections of fresh closures."""
    n = G.n
    names = lambda S: tuple(gen_name(i, n) for i in sorted(S))

    def fail_pre(msg):
        return IntersectionResult(False, "reduced", 0, None, msg)

    if n >= 2:
        if not oracle_string_c_group(G.alphas):
            return fail_pre("facet subgroup <a0..a_{n-1}> is not a string C-group")
        if not oracle_string_c_group(G.alphas[:-1] + (G.beta,)):
            return fail_pre("facet subgroup <a0..a_{n-2},b> is not a string C-group")
        try:
            sub_tt = verify_tail_triangle(G.alphas[1:], G.beta)
        except (NotInvolution, CommutationViolation, ValueError) as exc:
            return fail_pre(f"Gamma_0 is not a tail-triangle group: {exc}")
        if not oracle_reduced(sub_tt):
            return fail_pre("Gamma_0 = <a1..a_{n-1},b> is not a C-group")

    P = frozenset(range(n))
    Q = frozenset(list(range(n - 1)) + [n])
    pairs = [(P, Q)]
    for i in range(n - 1):
        plus = frozenset(list(range(i + 1, n)) + [n])
        pairs += [(plus, P), (plus, Q)]
    for checked, (I, J) in enumerate(pairs, 1):
        HI, HJ = fresh_sub(G.gens, I), fresh_sub(G.gens, J)
        want = frozenset(fresh_sub(G.gens, I & J).elements)
        small, big = (HI, HJ) if HI.order <= HJ.order else (HJ, HI)
        big_set = frozenset(big.elements)
        meet = [e for e in small.elements if e in big_set]
        bad = next((e for e in meet if e not in want), None)
        if bad is not None:
            return IntersectionResult(False, "reduced", checked, (names(I), names(J), bad))
    return IntersectionResult(True, "reduced", len(pairs))


def load_tt(name):
    fx = builtin_fixture(name)
    return verify_tail_triangle(fx.alphas, fx.beta)


def star_gens(p):
    system = rescale(parse_diagram("tail=[3] triangle=(4,inf,2)"), (1, 1, 2, 4))
    return reduce_mod_p(system, p).generators


@pytest.mark.parametrize(
    "gens",
    [builtin_fixture(name).gens for name in TT_FIXTURES] + [star_gens(2), star_gens(3)],
    ids=TT_FIXTURES + ["star-mod2", "star-mod3"],
)
def test_sub_matches_fresh_closure(gens):
    G = closure(gens)
    for S in subsets(len(gens)):
        H, fresh = G.sub(S), fresh_sub(gens, S)
        assert H.elements == fresh.elements, S
        assert H.prods == fresh.prods, S
        assert H.right_table() == fresh.right_table(), S
        assert G.sub(reversed(S)).elements == H.elements  # whatever the order
    assert G.sub(range(len(gens))) is G
    assert G.sub(()).order == 1


def test_only_the_whole_group_is_closed(monkeypatch):
    kernel_runs = []

    def counting(maps, identity, cap):
        kernel_runs.append(len(maps))
        return close(maps, identity, cap)

    monkeypatch.setattr(kernels, "close", counting)
    G = load_tt("tomotope.tt")
    assert check_intersection_full(G)
    assert check_intersection_reduced(G)
    assert check_intersection_reduced(G)
    # one closure, on all n + 1 generators; the bitmask of each proper
    # generator subset, the empty one included, is read from its table
    assert kernel_runs == [G.n + 1]
    assert len(G.group._masks) == 2 ** (G.n + 1) - 1


@pytest.mark.parametrize("name", GOOD_TT)
def test_reduced_matches_element_oracle_on_fixtures(name):
    G = load_tt(name)
    assert check_intersection_reduced(G) == oracle_reduced(G)


@pytest.mark.parametrize(
    "kwargs",
    [{"primes": (2, 3)}, {"count": 40, "primes": (2, 3), "seed": 1}],
    ids=["selftest", "seed1"],  # seed 1 also holds Gamma_0 failures
)
def test_reduced_matches_element_oracle_on_random_quotients(kwargs):
    quotients = random_quotients(**kwargs)
    assert quotients
    for G in quotients:
        assert check_intersection_reduced(G) == oracle_reduced(G), str(G.diagram)


# <(4,5)> cap <(3,4), (1,2)(4,5)> holds (4,5): a string that is no C-group
BROKEN = ["(4,5)", "(3,4)", "(1,2)(4,5)"]


@pytest.mark.parametrize(
    "alphas, beta, facet",
    [(BROKEN, "(6,7)", "<a0..a_{n-1}>"), (BROKEN[:2] + ["(6,7)"], BROKEN[2], "<a0..a_{n-2},b>")],
    ids=["P", "Q"],
)
def test_reduced_matches_element_oracle_on_broken_facets(alphas, beta, facet):
    G = verify_tail_triangle([parse_perm(a, 7) for a in alphas], parse_perm(beta, 7))
    res = check_intersection_reduced(G)
    assert res == oracle_reduced(G)
    assert res.precondition_failure == f"facet subgroup {facet} is not a string C-group"


def test_dropped_group_is_freed_without_gc():
    # the subgroup caches must not reference the group that owns them
    G = closure(builtin_fixture("tomotope.tt").gens)
    for S in subsets(len(G.generators)):
        G.sub(S)
        G.mask(S)
    assert len(G._masks) == 2 ** len(G.generators) - 1
    ref = weakref.ref(G)
    del G  # freed by its reference count: nothing allocates in between
    assert ref() is None


@pytest.mark.parametrize("source", ["tomotope.tt", "star mod 2"])
def test_group_with_made_elements_is_freed_without_gc(source):
    # the code -> element map must not reference the group that holds it
    if source == "star mod 2":
        star = rescale(parse_diagram("tail=[3] triangle=(4,inf,2)"), (1, 1, 2, 4))
        gens = reduce_mod_p(star, 2).generators
    else:
        gens = builtin_fixture(source).gens
    G = closure(gens)
    assert all(G.index_of(g) == i for i, g in enumerate(G.elements))
    last = G.element(G.order - 1)
    assert G.elements[G.index_of(last)] == last and G.sub([0]).elements[1] == G.generators[0]
    ref = weakref.ref(G)
    del G  # freed by its reference count: nothing allocates in between
    assert ref() is None


def element_pair_ok(G, I, J):
    """The subset-pair check on elements: the first element of the smaller
    of <I>, <J> that lies in the larger and not in <I cap J>, or None."""
    HI, HJ, HIJ = G.sub(I), G.sub(J), G.sub(I & J)
    small, big = (HI, HJ) if HI.order <= HJ.order else (HJ, HI)
    big_set, meet_set = frozenset(big.elements), frozenset(HIJ.elements)
    for e in small.elements:
        if e in big_set and e not in meet_set:
            return e
    return None


def bitmask_corpus():
    groups = [load_tt(name) for name in GOOD_TT]
    groups += [
        verify_tail_triangle([parse_perm(a, 7) for a in alphas], parse_perm(beta, 7))
        for alphas, beta in [(BROKEN, "(6,7)"), (BROKEN[:2] + ["(6,7)"], BROKEN[2])]
    ]
    groups += random_quotients(primes=(2, 3))
    groups += random_quotients(count=40, primes=(2, 3), seed=1)
    return groups


def test_bitmask_checks_match_element_oracle(monkeypatch):
    checks = (check_intersection_full, check_intersection_reduced)
    groups = bitmask_corpus()
    strings = [gens for G in groups for gens in (G.alphas, G.alphas[:-1] + (G.beta,))]
    got = [check(G) for G in groups for check in checks]
    got_strings = [is_string_c_group(gens) for gens in strings]
    for G in groups:
        for S in subsets(G.n + 1):
            span = G.group.span(S)
            assert G.group.mask(S) == sum(1 << x for x in span)
            assert tuple(G.group.elements[x] for x in span) == G.group.sub(S).elements

    monkeypatch.setattr(ttgroup, "_subset_pair_ok", element_pair_ok)
    want = [check(G) for G in groups for check in checks]
    assert got == want
    assert not all(want)  # the corpus holds failures, with witnesses
    # a witness is made from its element code on demand, so it equals the
    # oracle's element and lies in the group, but is not the same object
    for G, g, w in zip([G for G in groups for _ in checks], got, want):
        assert g.witness is None or (
            g.witness[2] == w.witness[2]
            and G.group.element(G.group.index_of(g.witness[2])) == g.witness[2]
        )
    want_strings = [is_string_c_group(gens) for gens in strings]
    assert [(r.ok, r.reason, r.schlafli) for r in got_strings] == [
        (r.ok, r.reason, r.schlafli) for r in want_strings
    ]
    assert not all(want_strings)


def test_pair_screen_matches_element_sets_on_every_pair():
    # ``_first_failure`` decides each pair on masks it reads once per check
    # and calls ``_subset_pair_ok`` only for the failing one, so the oracle
    # above checks the witnesses; here every pair of every group of the
    # corpus is decided alone and compared with fresh element sets
    outcomes = set()
    for G in bitmask_corpus():
        r = G.n + 1
        sets = {frozenset(S): frozenset(fresh_sub(G.gens, S).elements) for S in subsets(r)}
        masks = ttgroup._MaskReader(G.group)
        for a, b in ttgroup._subset_pairs(range(r)):
            I, J = ttgroup._members(a), ttgroup._members(b)
            checked, failure = ttgroup._first_failure(masks, [(a, b)])
            fails = sets[I] & sets[J] != sets[I & J]
            assert checked == 1 and (failure is not None) == fails, (str(G.diagram), I, J)
            assert failure is None or failure[:2] == (I, J)
            outcomes.add(fails)
    assert outcomes == {True, False}
