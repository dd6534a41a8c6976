"""The per-group subgroup cache and the checks that read it.

``FiniteGroup.sub`` closes each generator subset of a group once, and the
intersection checks run on generator index sets of that one cache. The
oracles below enumerate every subgroup afresh with ``closure``: the reduced
C-group check as it was written on elements, with the string C-group test
of its facet groups and the re-verification of Gamma_0.
"""

import weakref
from importlib import resources

import pytest

from polywythoff import groups, ttgroup
from polywythoff.elements import identity_like, parse_perm
from polywythoff.fixtureio import builtin_fixture
from polywythoff.groups import closure, element_order, trivial_group
from polywythoff.selftest import random_quotients
from polywythoff.ttgroup import (
    CommutationViolation,
    IntersectionResult,
    NotInvolution,
    check_intersection_full,
    check_intersection_reduced,
    gen_name,
    verify_tail_triangle,
)

TT_FIXTURES = sorted(
    f.name for f in resources.files("polywythoff.fixtures").iterdir() if f.name.endswith(".tt")
)
GOOD_TT = [name for name in TT_FIXTURES if name != "bad.tt"]


def subsets(r):
    return [tuple(i for i in range(r) if mask >> i & 1) for mask in range(1 << r)]


def fresh_sub(gens, S):
    """<gens[i] : i in S>, closed afresh."""
    return closure([gens[i] for i in sorted(S)]) if S else trivial_group(identity_like(gens[0]))


def oracle_string_c_group(gens) -> bool:
    """Involutions, string commutation and the intersection condition over
    all subset pairs, every subgroup closed afresh."""
    r = len(gens)
    if any(g.is_identity() or not (g * g).is_identity() for g in gens):
        return False
    if any(element_order(gens[i] * gens[j]) != 2 for i in range(r) for j in range(i + 2, r)):
        return False
    sub = {frozenset(S): fresh_sub(gens, S).element_set for S in subsets(r)}
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
            sub_tt = verify_tail_triangle(G.alphas[1:], G.beta, cap=G.cap)
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
        want = fresh_sub(G.gens, I & J).element_set
        small, big = (HI, HJ) if HI.order <= HJ.order else (HJ, HI)
        meet = [e for e in small.elements if e in big.element_set]
        bad = next((e for e in meet if e not in want), None)
        if bad is not None:
            return IntersectionResult(False, "reduced", checked, (names(I), names(J), bad))
    return IntersectionResult(True, "reduced", len(pairs))


def load_tt(name):
    fx = builtin_fixture(name)
    return verify_tail_triangle(fx.alphas, fx.beta)


@pytest.mark.parametrize("name", TT_FIXTURES)
def test_sub_matches_fresh_closure(name):
    gens = builtin_fixture(name).gens
    G = closure(gens)
    for S in subsets(len(gens)):
        H = G.sub(S)
        assert H.elements == fresh_sub(gens, S).elements, S
        assert G.sub(reversed(S)) is H  # one cache entry, whatever the order
    assert G.sub(range(len(gens))) is G
    assert G.sub(()).order == 1


def test_each_generator_subset_is_closed_once(monkeypatch):
    closed = []

    def counting(gens, cap=None):
        closed.append(tuple(gens))
        return closure(gens, cap=cap)

    monkeypatch.setattr(groups, "closure", counting)
    monkeypatch.setattr(ttgroup, "closure", counting)
    G = load_tt("tomotope.tt")
    assert check_intersection_full(G)
    assert check_intersection_reduced(G)
    assert check_intersection_reduced(G)
    # the whole group once, and each nonempty proper generator subset once
    assert len(closed) == 2 ** (G.n + 1) - 1
    assert len(set(closed)) == len(closed)


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
    # the subgroup cache must not reference the group that owns it
    G = closure(builtin_fixture("tomotope.tt").gens)
    for S in subsets(len(G.generators)):
        G.sub(S)
    ref = weakref.ref(G)
    del G  # freed by its reference count: nothing allocates in between
    assert ref() is None
