"""The closure kernel against the element oracle.

The oracle is a breadth-first closure written on matrix entries and
permutation images, one product per element and generator. The kernel
returns element codes (image tuples, or tuples of big-endian row codes);
decoded, they must be the oracle's elements in the same order, with the
same productions, and the right table must agree with the element products
x * g. Codes sort like element keys: ``encode_row`` is order-isomorphic to
lexicographic order on rows, and on every group of the corpus sorting the
element indices by ``G.keys`` sorts them by ``G.elements[i].key``.
"""

import itertools
import random
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polywythoff import kernels
from polywythoff.elements import MatModP, Perm
from polywythoff.fixtureio import builtin_fixture
from polywythoff.groups import closure, element_kind
from polywythoff.modred import reduce_mod_p, rescale
from polywythoff.selftest import random_quotients
from polywythoff.ttgroup import parse_diagram, verify_tail_triangle
from inverses import inverse

CAP = 3000


def oracle_close(gens, multiply, identity, cap):
    """Entry-level BFS closure: (elements, prods), or None past ``cap``."""
    elements = [identity]
    prods = [(-1, -1)]
    index = {identity: 0}
    frontier = [identity]
    while frontier:
        new_frontier = []
        for e in frontier:
            ei = index[e]
            for gi, g in enumerate(gens):
                prod = multiply(e, g)
                if prod not in index:
                    if len(elements) >= cap:
                        return None
                    index[prod] = len(elements)
                    elements.append(prod)
                    prods.append((ei, gi))
                    new_frontier.append(prod)
        frontier = new_frontier
    return elements, prods


def oracle_close_perms(gens, cap):
    identity = tuple(range(1, len(gens[0]) + 1))
    return oracle_close(gens, lambda e, g: tuple(g[i - 1] for i in e), identity, cap)


def oracle_close_mats(gens, dim, p, cap):
    rng = range(dim)

    def multiply(e, g):
        rows = [e[i * dim : (i + 1) * dim] for i in rng]
        return tuple(
            sum(row[k] * g[k * dim + j] for k in rng) % p for row in rows for j in rng
        )

    identity = tuple(int(i == j) for i in rng for j in rng)
    return oracle_close(gens, multiply, identity, cap)


def kernel_close(gens, cap):
    """``kernels.close`` on element objects, put into the kernel's form by
    their kind (``groups.element_kind``)."""
    kind = element_kind(gens)
    return kernels.close([kind.map(g) for g in gens], kind.identity, cap)


def check_kernel(gens, cap=CAP):
    """Run the kernel and the oracle on element objects ``gens``."""
    first = gens[0]
    got = kernel_close(gens, cap)
    if isinstance(first, Perm):
        want = oracle_close_perms([g.images for g in gens], cap)
        decode = lambda code: code
        make = Perm._raw
    else:
        dim, p = first.dim, first.p
        want = oracle_close_mats([g.entries for g in gens], dim, p, cap)
        decode = lambda code: sum((kernels.decode_row(c, dim, p) for c in code), ())
        make = lambda entries: MatModP._raw(p, dim, entries)
    if want is None:
        assert got is None
        return
    codes, prods, R = got
    elements = [decode(code) for code in codes]
    assert (elements, prods) == want
    objs = [make(e) for e in elements]
    index = {x: i for i, x in enumerate(objs)}
    assert len(R) == len(gens)
    for row, g in zip(R, gens):
        assert list(row) == [index[x * g] for x in objs]


@st.composite
def perm_gens(draw):
    degree = draw(st.integers(2, 7))
    perm = st.permutations(range(1, degree + 1)).map(Perm)
    return draw(st.lists(perm, min_size=1, max_size=3))


def _monomial(draw, p, dim):
    """A permutation matrix with unit entries: a group of small order."""
    cols = draw(st.permutations(range(dim)))
    units = [draw(st.integers(1, p - 1)) for _ in range(dim)]
    entries = [units[i] if cols[i] == j else 0 for i in range(dim) for j in range(dim)]
    return MatModP(p, dim, entries)


@st.composite
def mat_gens(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    dim = draw(st.integers(2, 4))
    entries = st.lists(st.integers(0, p - 1), min_size=dim * dim, max_size=dim * dim)
    invertible = entries.map(lambda e: MatModP(p, dim, e, check=False)).filter(
        MatModP._invertible
    )
    count = draw(st.integers(1, 3))
    if draw(st.booleans()):  # any invertible matrices: often a group past the cap
        return draw(st.lists(invertible, min_size=count, max_size=count))
    # monomial matrices conjugated by one invertible matrix: small groups
    # with dense entries
    a = draw(invertible)
    return [inverse(a) * _monomial(draw, p, dim) * a for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(perm_gens(), st.integers(1, CAP))
def test_kernel_matches_oracle_on_random_perms(gens, cap):
    check_kernel(gens, cap)


@settings(max_examples=60, deadline=None)
@given(mat_gens())
def test_kernel_matches_oracle_on_random_matrices(gens):
    check_kernel(gens)


FIXTURES = sorted(
    f.name
    for f in resources.files("polywythoff.fixtures").iterdir()
    if f.name.endswith((".tt", ".sg"))
)


@pytest.mark.parametrize("name", FIXTURES)
def test_kernel_matches_oracle_on_fixtures(name):
    check_kernel(builtin_fixture(name).gens)


@pytest.mark.parametrize("p", [2, 3])
def test_kernel_matches_oracle_on_star(p):
    system = rescale(parse_diagram("tail=[3] triangle=(4,inf,2)"), (1, 1, 2, 4))
    check_kernel(list(reduce_mod_p(system, p).generators))


def test_kernel_matches_oracle_on_random_quotients():
    quotients = random_quotients(primes=(2, 3))
    assert quotients
    for G in quotients:
        check_kernel(G.gens, cap=G.group.order)


class CountingMap:
    """A generator map that counts its point lookups."""

    def __init__(self, m):
        self.m, self.calls = m, 0

    def __getitem__(self, x):
        self.calls += 1
        return self.m[x]


def counted_products(maps, identity, cap=10**6):
    """Run ``close`` on counting maps: (result, products per generator).
    A product of an element with a generator is one lookup per point."""
    counting = [CountingMap(m) for m in maps]
    out = kernels.close(counting, identity, cap)
    return out, [c.calls // len(identity) for c in counting]


@pytest.mark.parametrize("p, products", [(3, 2600), (5, 57608)])
def test_involution_pairs_take_one_product(p, products):
    # |G|/2 products per involution, plus 2 for the involution test
    system = rescale(parse_diagram("tail=[3] triangle=(4,inf,2)"), (1, 1, 2, 4))
    gens = reduce_mod_p(system, p).generators
    maps = [kernels.RowMap(g.entries, 4, p) for g in gens]
    identity = tuple(p ** (3 - i) for i in range(4))
    out, counts = counted_products(maps, identity)
    order = len(out[0])
    assert counts == [order // 2 + 2] * 4
    assert sum(counts) == products
    assert out == kernel_close(gens, 10**6)


def test_non_involution_takes_a_product_per_element():
    cycle, swap = Perm([2, 3, 1, 4]), Perm([2, 1, 3, 4])
    identity = (1, 2, 3, 4)
    out, counts = counted_products([(0,) + g.images for g in (cycle, swap)], identity)
    assert len(out[0]) == 6
    assert counts == [6 + 2, 3 + 2]
    check_kernel([cycle, swap])


def test_identity_generator_matches_oracle():
    one, cycle, swap = Perm([1, 2, 3, 4]), Perm([2, 3, 4, 1]), Perm([2, 1, 3, 4])
    check_kernel([one, cycle, swap])
    check_kernel([cycle, one, swap])
    _, counts = counted_products([(0,) + g.images for g in (one, swap)], (1, 2, 3, 4))
    assert counts == [2 + 2, 1 + 2]  # the identity fixes each element: one lookup
    star = rescale(parse_diagram("tail=[3] triangle=(4,inf,2)"), (1, 1, 2, 4))
    gens = list(reduce_mod_p(star, 2).generators)
    check_kernel([MatModP(2, 4, [int(i == j) for i in range(4) for j in range(4)])] + gens)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(2, 5))
def test_row_map_matches_entry_products(data, p, dim):
    entries = st.lists(st.integers(0, p - 1), min_size=dim * dim, max_size=dim * dim)
    g = data.draw(
        entries.map(lambda e: MatModP(p, dim, e, check=False)).filter(MatModP._invertible)
    ).entries
    m = kernels.RowMap(g, dim, p)
    if p**dim <= 4096:
        rows = itertools.product(range(p), repeat=dim)
    else:  # up to 13^5 rows: a seeded sample, with the rows of 0 and p - 1
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        rows = [(0,) * dim, (p - 1,) * dim]
        rows += [tuple(rng.randrange(p) for _ in range(dim)) for _ in range(2000)]
    for v in rows:
        vg = [sum(v[k] * g[k * dim + j] for k in range(dim)) % p for j in range(dim)]
        assert m[kernels.encode_row(v, p)] == kernels.encode_row(vg, p)


def _image_code(v, g, dim, p):
    """The code of the row v*g, from entries."""
    return kernels.encode_row(
        [sum(v[k] * g[k * dim + j] for k in range(dim)) % p for j in range(dim)], p
    )


def _some_rows(data, dim, p):
    if p**dim <= 625:
        return list(itertools.product(range(p), repeat=dim))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    return [tuple(rng.randrange(p) for _ in range(dim)) for _ in range(300)]


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([2, 3, 5, 7]), st.integers(2, 4))
def test_row_map_pairs_an_involutions_rows(data, p, dim):
    # any row d with entry -1 at d gives an involution 1 + e_d (x) u, u[d] = -2
    d = data.draw(st.integers(0, dim - 1))
    row = data.draw(st.lists(st.integers(0, p - 1), min_size=dim, max_size=dim))
    row[d] = p - 1
    g = tuple(row[j] if i == d else int(i == j) for i in range(dim) for j in range(dim))
    m = kernels.RowMap(g, dim, p)
    assert m.involution
    for v in _some_rows(data, dim, p):
        assert m[kernels.encode_row(v, p)] == _image_code(v, g, dim, p)
    # every stored v -> v*g has v*g -> v stored beside it, read with no lookup
    assert all(dict.get(m, w) == v for v, w in m.items())


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from([2, 3, 5, 7]), st.integers(2, 4))
def test_row_map_of_a_non_involution_stores_only_its_lookups(data, p, dim):
    entries = st.lists(st.integers(0, p - 1), min_size=dim * dim, max_size=dim * dim)
    g = data.draw(
        entries.map(lambda e: MatModP(p, dim, e, check=False))
        .filter(MatModP._invertible)
        .filter(lambda a: not (a * a).is_identity())
    ).entries
    m = kernels.RowMap(g, dim, p)
    assert not m.involution
    # the test mapped g's rows; e_i -> row i of g is stored with no product
    rows = {kernels.encode_row(g[i : i + dim], p) for i in range(0, dim * dim, dim)}
    stored = rows | {p ** (dim - 1 - i) for i in range(dim)}
    assert set(m) == stored
    for v in _some_rows(data, dim, p):
        code = kernels.encode_row(v, p)
        assert m[code] == _image_code(v, g, dim, p)
        stored.add(code)
        assert set(m) == stored


def test_identity_row_map_is_an_involution():
    m = kernels.RowMap((1, 0, 0, 0, 1, 0, 0, 0, 1), 3, 5)
    assert m.involution and m[17] == 17 and len(m) == 4  # e_0, e_1, e_2 and 17


@pytest.mark.parametrize("p, misses", [(3, 144), (5, 875)])
def test_verification_multiplies_each_row_pair_once(monkeypatch, p, misses):
    # the generator checks and the closure share one row map per generator,
    # and a reflection's map takes one product per pair {v, v*g}
    maps = {}
    missing = kernels.RowMap.__missing__

    def counting(self, code):
        maps.setdefault(id(self), [self, 0])[1] += 1
        return missing(self, code)

    monkeypatch.setattr(kernels.RowMap, "__missing__", counting)
    system = rescale(parse_diagram("tail=[3] triangle=(4,inf,2)"), (1, 1, 2, 4))
    gens = reduce_mod_p(system, p).generators
    G = verify_tail_triangle(list(gens[:3]), gens[3])
    assert G.group.order == {3: 1296, 5: 28800}[p]
    assert len(maps) == 4
    assert sum(count for _, count in maps.values()) == misses
    for m, count in maps.values():
        assert m.involution
        assert all(dict.get(m, w) == v for v, w in m.items())
        assert count <= len({frozenset(pair) for pair in m.items()})


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(2, 4))
def test_encode_row_order_is_lexicographic_row_order(data, p, dim):
    row = st.tuples(*[st.integers(0, p - 1)] * dim)
    u, v = data.draw(row), data.draw(row)
    cu, cv = kernels.encode_row(u, p), kernels.encode_row(v, p)
    assert 0 <= cu < p**dim and kernels.decode_row(cu, dim, p) == u
    assert (cu < cv) == (u < v) and (cu == cv) == (u == v)


def key_order_corpus():
    star = rescale(parse_diagram("tail=[3] triangle=(4,inf,2)"), (1, 1, 2, 4))
    corpus = [builtin_fixture(name).gens for name in FIXTURES]
    corpus += [reduce_mod_p(star, p).generators for p in (2, 3)]
    corpus += [Q.gens for Q in random_quotients(primes=(2, 3))]
    return corpus


def test_code_order_is_key_order():
    corpus = key_order_corpus()
    assert {type(gens[0]) for gens in corpus} == {MatModP, Perm}
    for gens in corpus:
        G = closure(gens)
        by_code = sorted(range(G.order), key=G.keys.__getitem__)
        by_key = sorted(range(G.order), key=lambda i: G.elements[i].key)
        assert by_code == by_key


def test_kernel_cap():
    gens = builtin_fixture("m66_240a.tt").gens
    assert kernel_close(gens, 100) is None
    assert kernel_close(gens, 240) is not None


@pytest.mark.parametrize("cap, closes", [(1296, True), (1295, False)])
def test_cap_across_a_block_boundary(cap, closes):
    # star mod 3 has order 1296; its rows grow 16, 24, 36, ..., 913 and
    # then stop at the cap, so the last block ends at the cap exactly
    system = rescale(parse_diagram("tail=[3] triangle=(4,inf,2)"), (1, 1, 2, 4))
    gens = reduce_mod_p(system, 3).generators
    out = kernel_close(gens, cap)
    if closes:
        assert out == kernel_close(gens, 10**6)
        assert [len(row) for row in out[2]] == [1296] * 4
    else:
        assert out is None


def test_one_int_object_per_element_index():
    # prods and R hold each element index as one object, the one the
    # search's index holds, not a copy per place it is stored
    system = rescale(parse_diagram("tail=[3] triangle=(4,inf,2)"), (1, 1, 2, 4))
    _, prods, R = kernel_close(reduce_mod_p(system, 5).generators, 10**6)
    held = {}
    values = itertools.chain((parent for parent, _ in prods), *R)
    large = [x for x in values if x >= 257]  # smaller ints are shared anyway
    assert len(large) > 4 * 28000
    assert all(held.setdefault(x, x) is x for x in large)


def test_kernel_reported():
    assert kernels.KERNEL == "pure-python"
