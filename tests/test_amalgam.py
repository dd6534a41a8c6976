"""Amalgam normal forms, coset keys and balls.

``TowerOracle`` is the exhaustive oracle: membership in Gamma_j by the
nested transversal towers (Pi_j+ membership read off the
normal form, Gamma_j = <a_0..a_{j-1}> x Pi_j+), and a ball that tests each
element against every face found so far and every pair of faces on
adjacent ranks. The production code reads canonical coset keys instead.

``ElementOracle`` is the same normal-form arithmetic on the element
objects (``Perm``/``MatModP``): products, inverses and coset keys that the
production code computes on element indices, and ``element_towers`` the
choice of the transversal towers on element objects.
"""

import gc
import hashlib
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polywythoff.amalgam import (
    AmalgamContext,
    AmalgamWord,
    FacetMismatch,
    NotCGroup,
    RidgeSectionReport,
    dihedral_order_unbounded,
    enumerate_ball,
    ridge_section,
    universal_is_regular,
)
from polywythoff.fixtureio import builtin_fixture
from polywythoff.groups import coset_partition, extend_homomorphism
from polywythoff.modred import build_tail_triangle_modp, reduce_mod_p, rescale
from polywythoff.poset import Face, FacePoset
from polywythoff.ttgroup import parse_diagram
from polywythoff.wythoff import (
    build_regular,
    export_hasse,
    facet_section,
    poset_isomorphic,
)
from inverses import inverse


class TowerOracle:
    """Pairwise coset tests on top of the context's normal forms."""

    def __init__(self, ctx):
        n = ctx.n
        self.ctx = ctx
        self.tower_sets = {s: [frozenset(t) for t in ctx.towers[s]] for s in "PQ"}
        # K-side generator chains: <a_j..a_{n-2}> and <a_0..a_{j-1}>
        self.tail_k = [frozenset(ctx.P.sub(range(j, n - 1)).elements) for j in range(n)]
        head_k = [frozenset(ctx.P.sub(range(j)).elements) for j in range(n)]
        # inverses of <a_0..a_{j-1}> as words, per j
        self.head_words = tuple(
            tuple(ctx.inject("P", inverse(a)) for a in sorted(head, key=lambda e: e.key))
            for head in head_k
        )

    def in_pi_plus(self, w, j):
        """kappa in <a_{j+1}..a_{n-2}> and every transversal element in the
        level-(j+1) tower of its side."""
        if w.kappa not in self.tail_k[j + 1]:
            return False
        return all(t in self.tower_sets[s][j + 1] for s, t in w.taus)

    def in_gamma(self, w, j):
        if j == self.ctx.n - 1:
            return w.taus == ()
        # Gamma_j = <a_0..a_{j-1}> x Pi_j+, the factors commute
        return any(self.in_pi_plus(self.ctx.multiply(w, ai), j) for ai in self.head_words[j])

    def in_facet(self, w, kind):
        return w.length == 0 or (w.length == 1 and w.taus[0][0] == kind)

    def contains(self, kind, w):
        if kind in ("P", "Q"):
            return self.in_facet(w, kind)
        if kind.startswith("Pi_"):
            return self.in_pi_plus(w, int(kind[3:-1]))
        return self.in_gamma(w, int(kind[2:]))

    def incident(self, low_rank, z, high_rank, high_kind):
        """Is Gamma_low * u incident to Gamma_high * w, given z = u * w^-1?"""
        ctx = self.ctx
        if high_kind in ("P", "Q"):
            if low_rank == ctx.n - 1:  # K * Facet = Facet
                return self.in_facet(z, high_kind)
            scan = (ctx.inject(high_kind, inverse(g))
                    for g in (ctx.P if high_kind == "P" else ctx.Q).elements)
        elif high_rank == ctx.n - 1:
            scan = (ctx.inject("P", inverse(g)) for g in ctx.K.elements)
        else:
            # Gamma_j * Gamma_k = Gamma_j * <a_0..a_{k-1}> since Pi_k+ <= Gamma_j
            scan = self.head_words[high_rank]
        return any(self.in_gamma(ctx.multiply(z, g), low_rank) for g in scan)

    def ball(self, radius):
        ctx, n = self.ctx, self.ctx.n
        elems = ctx.ball_elements(radius)

        def collect(rank, kind):
            faces, invs = [], []
            for w in elems:
                if not any(self.contains(kind, ctx.multiply(w, inv)) for inv in invs):
                    faces.append(Face(rank, kind, w))
                    invs.append(ctx.inverse(w))
            return faces

        levels = {j: collect(j, f"G_{j}") for j in range(n)}
        levels[n] = collect(n, "P") + collect(n, "Q")
        bot, top = Face(-1, "bot", None), Face(n + 1, "top", None)
        covers = [(bot, v) for v in levels[0]] + [(f, top) for f in levels[n]]
        for j in range(n):
            for high in levels[j + 1]:
                inv = ctx.inverse(high.rep)
                for low in levels[j]:
                    if self.incident(j, ctx.multiply(low.rep, inv), high.rank, high.kind):
                        covers.append((low, high))
        return FacePoset({-1: [bot], n + 1: [top], **levels}, covers)

    def ridge_section(self, radius):
        ctx = self.ctx
        prefixes = [[]]
        for t in range(2 * radius):
            prefixes.append(prefixes[-1] + [f"a{ctx.n - 1}" if t % 2 == 0 else "b"])
        words = [ctx.normalize(p) for p in prefixes]
        invs = [ctx.inverse(w) for w in words]
        is_open = all(
            ctx.multiply(words[i], invs[j]).taus != ()
            for i in range(len(words))
            for j in range(i)
        )
        alternating = not any(
            self.in_facet(ctx.multiply(words[i], invs[j]), kind)
            for kind, start in (("P", 0), ("Q", 1))
            for i in range(start, len(words), 2)
            for j in range(start, i, 2)
        )
        return RidgeSectionReport(is_open, len(words), alternating)


class ElementOracle:
    """Normal forms on element objects: a word is (kappa, taus) with kappa
    in K (P side) and taus alternating (side, transversal element) pairs.
    It multiplies, hashes and identity-tests elements where the context
    looks up integer tables. It reads from the context only its groups,
    letters, transversal towers and the generator sets of each kind."""

    def __init__(self, ctx):
        self.ctx = ctx
        KQ = ctx.Q.sub(range(ctx.n - 1))
        images = [KQ.index_of(g) for g in ctx.Q.generators[:-1]]
        phi = extend_homomorphism(ctx.K, images, target=KQ)
        phi = dict(zip(ctx.K.elements, (KQ.elements[y] for y in phi)))
        self.phi, self.phi_inv = phi, {v: k for k, v in phi.items()}
        self.table = {}
        for side, K in (("P", ctx.K), ("Q", KQ)):
            table = self.table[side] = {}
            for tau in ctx.towers[side][0]:
                for kap in K.elements:
                    table[kap * tau] = (kap, tau)

    def _to_p(self, side, kap):
        return kap if side == "P" else self.phi_inv[kap]

    def _from_p(self, side, kap):
        return kap if side == "P" else self.phi[kap]

    def absorb(self, kappa, taus, side, h):
        """Multiply the word (kappa, taus) on the right by h in factor `side`."""
        if taus and taus[-1][0] == side:
            kap, tau = self.table[side][taus[-1][1] * h]
            taus = taus[:-1]
        else:
            kap, tau = self.table[side][h]
        carry = self._to_p(side, kap)
        taus = list(taus)
        for i in range(len(taus) - 1, -1, -1):
            if carry.is_identity():
                break
            s_i, t_i = taus[i]
            kap_i, t_new = self.table[s_i][t_i * self._from_p(s_i, carry)]
            taus[i] = (s_i, t_new)
            carry = self._to_p(s_i, kap_i)
        kappa = kappa * carry
        if not tau.is_identity():
            taus.append((side, tau))
        return kappa, tuple(taus)

    def normalize(self, letters):
        word = (self.ctx.K.identity, ())
        for name in letters:
            word = self.absorb(*word, *self.ctx.letters[name])
        return word

    def multiply(self, w1, w2):
        word = self.absorb(*w1, "P", w2[0])
        for side, t in w2[1]:
            word = self.absorb(*word, side, t)
        return word

    def inverse(self, w):
        word = (self.ctx.K.identity, ())
        for side, t in reversed(w[1]):
            word = self.absorb(*word, side, inverse(t))
        return self.absorb(*word, "P", inverse(w[0]))

    @staticmethod
    def key(w):
        kappa, taus = w
        return (len(taus), tuple(s for s, _ in taus), kappa.key, tuple(t.key for _, t in taus))

    def coset_key(self, kind, w):
        """The production key with each remaining syllable as an element:
        walk the word, moving the carry to the least K-element of each
        H_S-coset that meets K."""
        ctx = self.ctx
        cid, land = {}, {}
        for side, G, idx in zip("PQ", (ctx.P, ctx.Q), ctx._kinds[kind]):
            _, c = coset_partition(G, idx)
            cid[side] = dict(zip(G.elements, c))
            land[side] = {}
            for kap in ctx.K.elements:
                land[side].setdefault(cid[side][self._from_p(side, kap)], kap)
        carry, taus = w
        for i, (side, tau) in enumerate(taus):
            c = cid[side][self._from_p(side, carry) * tau]
            if c not in land[side]:
                return (side, c, taus[i + 1:])
            carry = land[side][c]
        return ("K", cid["P"][carry])


def face_ball(ctx, radius):
    """The ball as ``enumerate_ball`` made it before faces became ids:
    ``Face`` objects keyed by coset key, sorted and numbered by the
    Face-based front door, covers found by the same transversal scan.
    Returns the poset and (rank, kind) -> {coset key: Face}."""
    elems = ctx.ball_elements(radius)
    n = ctx.n
    kinds = [(j, f"G_{j}") for j in range(n)] + [(n, "P"), (n, "Q")]
    index = {}
    levels = {r: [] for r in range(-1, n + 2)}
    for rank, kind in kinds:
        faces = index[rank, kind] = {}
        for w in elems:
            faces.setdefault(ctx.coset_key(kind, w), Face(rank, kind, w))
        levels[rank].extend(faces.values())
    bot, top = Face(-1, "bot", None), Face(n + 1, "top", None)
    levels[-1], levels[n + 1] = [bot], [top]
    covers = [(bot, v) for v in levels[0]] + [(f, top) for f in levels[n]]
    for rank, kind in kinds[1:]:
        if kind in ("P", "Q"):
            scan = [ctx.inject(kind, t) for t in ctx.towers[kind][0]]
        else:
            cid = coset_partition(ctx.P, range(rank - 1))[1]
            reps = {cid[x]: x for x in ctx.P.span(range(rank))}
            scan = [ctx.inject("P", ctx.P.elements[x]) for x in reps.values()]
        low_kind = f"G_{rank - 1}"
        lows = index[rank - 1, low_kind]
        for high in index[rank, kind].values():
            found = {lows.get(ctx.coset_key(low_kind, ctx.multiply(h, high.rep))) for h in scan}
            covers.extend((low, high) for low in found if low is not None)
    return FacePoset(levels, covers), index


def element_towers(G):
    """The nested transversal towers of ``AmalgamContext.towers``, chosen
    on element objects in subgroups of their own: per coset of
    <g_j..g_{n-2}> in <g_j..g_{n-1}>, the member found in T_{j+1}, else
    the key-least member."""
    n = len(G.generators)
    last = G.generators[n - 1]
    towers = [None] * n
    towers[n - 1] = (inverse(last) * last, last)  # (identity, g_{n-1})
    for j in range(n - 2, -1, -1):
        Gj = G.sub(range(j, n))  # its generators g_j..g_{n-1} are 0..n-1-j
        reps, cid = coset_partition(Gj, range(n - 1 - j))
        classes = [[] for _ in reps]
        for e, c in zip(Gj.elements, cid):
            classes[c].append(e)
        prev = set(towers[j + 1])
        chosen = []
        for members in classes:
            hits = [e for e in members if e in prev]
            assert len(hits) <= 1, "transversal nesting broken"
            chosen.append(hits[0] if hits else min(members, key=lambda e: e.key))
        chosen.sort(key=lambda e: e.key)
        ident = next(e for e in chosen if e.is_identity())
        towers[j] = (ident,) + tuple(e for e in chosen if not e.is_identity())
    return towers


def gens(name):
    return builtin_fixture(name).gens


@pytest.fixture(scope="module")
def tetoct():
    return AmalgamContext(gens("tet.sg"), gens("oct.sg"))


@pytest.fixture(scope="module")
def tritri():
    return AmalgamContext(gens("triangle.sg"), gens("triangle.sg"))


def test_context_transversal_sizes(tetoct, tritri):
    assert len(tritri.towers["P"][0]) == 3 and len(tritri.towers["Q"][0]) == 3
    assert len(tetoct.towers["P"][0]) == 24 // 6
    assert len(tetoct.towers["Q"][0]) == 48 // 6


def test_towers_nested(tetoct):
    for s in "PQ":
        ts = tetoct.towers[s]
        for j in range(len(ts) - 1):
            assert set(ts[j + 1]) <= set(ts[j])
        assert len(ts[-1]) == 2
        assert ts[-1][0].is_identity() and not ts[-1][1].is_identity()


def test_context_rejections():
    tet = gens("tet.sg")
    with pytest.raises(NotCGroup):
        AmalgamContext(gens("sc2_fail.tt"), gens("sc2_fail.tt"))
    with pytest.raises(FacetMismatch):
        # cube = reversed octahedron: square facet vs triangle facet
        cube = tuple(reversed(gens("oct.sg")))
        AmalgamContext(tet, cube)
    with pytest.raises(ValueError):
        AmalgamContext(tet, gens("oct.sg"), shared=1)


def test_normalize_names_the_first_unknown_letter(tetoct):
    # letters are multiplied right to left, but checked first, left to right
    for letters, bad in ((["a9", "zz"], "a9"), (["a0", "zz", "a9"], "zz"), (["b", "a3"], "a3")):
        with pytest.raises(ValueError, match=f"unknown generator '{bad}'"):
            tetoct.normalize(letters)


def test_inject_refuses_an_unknown_side(tetoct):
    g = tetoct.P.generators[2]
    assert tetoct.inject("P", g) == tetoct.normalize(["a2"])
    for side in ("X", "K", "p", None):
        with pytest.raises(ValueError, match=f"bad factor side {side!r}"):
            tetoct.inject(side, g)


def test_normalize_basics(tetoct):
    assert tetoct.normalize(["a0", "a0"]) == tetoct.identity_word
    w = tetoct.normalize(["a2"])
    assert w.kappa.is_identity() and w.length == 1 and w.taus[0][0] == "P"
    assert tetoct.normalize([]) == tetoct.identity_word
    with pytest.raises(ValueError):
        tetoct.normalize(["a9"])


def test_infinite_dihedral(tetoct):
    for m in range(1, 51):
        w = tetoct.normalize(["a2", "b"] * m)
        assert w.length == 2 * m
    assert dihedral_order_unbounded(tetoct, 50)


def test_dihedral_normal_forms(tetoct):
    # elements of <a2, b> keep kappa = 1 and singleton alternating taus
    a2 = tetoct.letters["a2"][1]
    b = tetoct.letters["b"][1]
    w = tetoct.normalize(["b", "a2", "b", "a2", "b"])
    assert w.kappa.is_identity()
    assert [s for s, _ in w.taus] == ["Q", "P", "Q", "P", "Q"]
    assert all(t in (a2, b) for _, t in w.taus)


def test_embeddings_random(tetoct):
    rng = random.Random(11)
    for side, G in (("P", tetoct.P), ("Q", tetoct.Q)):
        for _ in range(300):
            g, h = rng.choice(G.elements), rng.choice(G.elements)
            wg, wh = tetoct.inject(side, g), tetoct.inject(side, h)
            assert tetoct.multiply(wg, wh) == tetoct.inject(side, g * h)


def test_injectivity(tetoct):
    for side, G in (("P", tetoct.P), ("Q", tetoct.Q)):
        assert len({tetoct.inject(side, g) for g in G.elements}) == G.order


def test_intersection_is_facet_group(tetoct):
    # a P-word equals a Q-word only when both are transversal-free
    injP = {tetoct.inject("P", g) for g in tetoct.P.elements}
    injQ = {tetoct.inject("Q", g) for g in tetoct.Q.elements}
    both = injP & injQ
    assert len(both) == tetoct.K.order
    assert all(w.taus == () for w in both)


def test_normalize_idempotent_roundtrip(tetoct):
    rng = random.Random(5)
    names = sorted(tetoct.letters)
    for _ in range(2000):
        letters = [rng.choice(names) for _ in range(rng.randint(0, 14))]
        w = tetoct.normalize(letters)
        assert tetoct.normalize(tetoct.word_letters(w)) == w


def test_inverse_and_associativity(tetoct):
    rng = random.Random(7)
    names = sorted(tetoct.letters)

    def rand_word():
        return tetoct.normalize([rng.choice(names) for _ in range(rng.randint(0, 10))])

    for _ in range(200):
        w = rand_word()
        assert tetoct.multiply(w, tetoct.inverse(w)) == tetoct.identity_word
    for _ in range(100):
        u, v, w = rand_word(), rand_word(), rand_word()
        assert tetoct.multiply(tetoct.multiply(u, v), w) == tetoct.multiply(
            u, tetoct.multiply(v, w)
        )


def test_membership_predicates(tetoct):
    a2 = tetoct.normalize(["a2"])
    assert tetoct.in_pi_plus(a2, 1)
    assert not tetoct.in_gamma(a2, 2)  # Gamma_2 = K
    assert tetoct.in_gamma(tetoct.identity_word, 0)
    assert tetoct.in_gamma(tetoct.identity_word, 1)
    assert tetoct.in_gamma(tetoct.identity_word, 2)
    b = tetoct.normalize(["b"])
    assert tetoct.in_pi_plus(b, 1) and not tetoct.in_gamma(b, 2)
    # a0 commutes past the pair: in Gamma_1 and Gamma_2 but not Gamma_0
    a0 = tetoct.normalize(["a0"])
    assert tetoct.in_gamma(a0, 1) and tetoct.in_gamma(a0, 2)
    assert not tetoct.in_gamma(a0, 0)
    with pytest.raises(ValueError):
        tetoct.in_pi_plus(a2, 5)


def test_membership_vs_finite_oracle(tetoct):
    # membership of facet-group elements agrees with brute force inside K
    rng = random.Random(3)
    from polywythoff.groups import closure

    g1 = closure([tetoct.P.generators[0], tetoct.P.generators[2]])
    for _ in range(100):
        k = rng.choice(tetoct.K.elements)
        w = tetoct.inject("P", k)
        assert tetoct.in_gamma(w, 1) == (k in frozenset(g1.elements))
        assert tetoct.in_gamma(w, 2)


def test_ball_radius_zero(tetoct):
    b = enumerate_ball(tetoct, 0)
    # every face incident to the base ridge K; both base facets present
    assert [len(b.poset.faces(r)) for r in range(4)] == [3, 3, 1, 2]
    kinds = sorted(f.kind for f in b.poset.faces(3))
    assert kinds == ["P", "Q"]
    base_p = next(f for f in b.poset.faces(3) if f.kind == "P")
    base_q = next(f for f in b.poset.faces(3) if f.kind == "Q")
    ridge = b.poset.faces(2)[0]
    assert base_p in b.poset.up[ridge] and base_q in b.poset.up[ridge]


def test_ball_nesting(tetoct, tritri):
    for ctx, radii in ((tritri, (0, 1, 2)), (tetoct, (0, 1))):
        balls = {r: enumerate_ball(ctx, r) for r in list(radii) + [max(radii) + 1]}
        for r in radii:
            small, big = balls[r], balls[r + 1]
            fmap = {}
            for rank in range(ctx.n + 1):
                for f in small.poset.faces(rank):
                    g = big.find_face(rank, f.kind, f.rep)
                    assert g is not None, (r, f)
                    fmap[f] = g
            for f, ups in small.poset.up.items():
                if f.rank < 0 or f.rank > ctx.n:
                    continue
                for g in ups:
                    if g.rank > ctx.n:
                        continue
                    assert fmap[g] in big.poset.up[fmap[f]]


def test_ball_facet_sections(tetoct):
    b = enumerate_ball(tetoct, 1)
    faces, one = b.poset.face_list, tetoct.identity_word
    base_p, base_q = (
        next(i for i, f in enumerate(faces) if f.kind == kind and f.rep == one) for kind in "PQ"
    )
    tet = build_regular(gens("tet.sg"))
    oct_ = build_regular(gens("oct.sg"))
    assert poset_isomorphic(facet_section(b.poset, base_p), tet) is not None
    assert poset_isomorphic(facet_section(b.poset, base_q), oct_) is not None


def test_ridge_section_apeirogon(tetoct):
    rep = ridge_section(tetoct, 12)
    assert rep.is_open and rep.alternating and rep.ridges_checked == 25


def test_universal_classification(tetoct):
    tet = gens("tet.sg")
    assert universal_is_regular(AmalgamContext(tet, tet)).kind == "Regular"
    assert universal_is_regular(tetoct).kind == "TwoOrbit"
    hexa = gens("hexagon.sg")
    assert universal_is_regular(AmalgamContext(hexa, hexa)).kind == "Regular"


def test_word_str_and_key(tetoct):
    w = tetoct.normalize(["a0", "a2", "b"])
    assert isinstance(str(w), str) and w.key < tetoct.normalize(["a2", "b", "a2", "b"]).key


def test_dropped_context_is_collected():
    # the key data are plain tuples and dicts: no reference cycle keeps a
    # context alive until a full collection
    enabled = gc.isenabled()
    gc.disable()
    try:
        ctx = AmalgamContext(gens("tet.sg"), gens("oct.sg"))
        assert ctx.in_gamma(ctx.normalize(["a0", "a1"]), 0) is False
        assert ctx.in_pi_plus(ctx.normalize(["a2", "b"]), 1)
        assert ctx.in_facet(ctx.normalize(["a2", "b"]), "Q") is False
        assert ridge_section(ctx, 2).is_open
        enumerate_ball(ctx, 1)
        ref = weakref.ref(ctx)
        del ctx  # freed by its reference count
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


PAIRS = [
    ("tet.sg", "oct.sg"),
    ("tet.sg", "tet.sg"),
    ("oct.sg", "tet.sg"),
    ("hexagon.sg", "hexagon.sg"),
    ("triangle.sg", "triangle.sg"),
]
_CONTEXTS = {}


def context(pair):
    if pair not in _CONTEXTS:
        ctx = AmalgamContext(gens(pair[0]), gens(pair[1]))
        _CONTEXTS[pair] = (ctx, TowerOracle(ctx))
    return _CONTEXTS[pair]


def kinds(n):
    return [f"G_{j}" for j in range(n)] + ["P", "Q"]


def kind_letters(n, kind):
    """Generator names of the subgroup of that kind."""
    if kind == "P":
        return [f"a{i}" for i in range(n)]
    if kind == "Q":
        return [f"a{i}" for i in range(n - 1)] + ["b"]
    if kind.startswith("Pi_"):
        return [f"a{i}" for i in range(int(kind[3:-1]) + 1, n)] + ["b"]
    j = int(kind[2:])
    return [f"a{i}" for i in range(n) if i != j] + (["b"] if j < n - 1 else [])


@pytest.mark.parametrize("radius", [0, 1, 2])
@pytest.mark.parametrize("pair", PAIRS[:4], ids="/".join)
def test_ball_matches_pairwise_oracle(pair, radius):
    ctx, oracle = context(pair)
    ball = enumerate_ball(ctx, radius)
    assert export_hasse(ball.poset) == export_hasse(oracle.ball(radius))


letter_words = st.lists(st.sampled_from(["a0", "a1", "a2", "b"]), max_size=12)


def in_context(ctx, letters):
    names = set(ctx.letters)
    return [x for x in letters if x in names]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_coset_keys_match_tower_oracle(data):
    ctx, oracle = context(data.draw(st.sampled_from(PAIRS), label="pair"))
    n = ctx.n
    u = ctx.normalize(in_context(ctx, data.draw(letter_words, label="u")))
    pis = [f"Pi_{j}+" for j in range(-1, n - 1)]
    for kind in kinds(n) + pis:
        # w = v * u with v in the subgroup half of the time
        pool = kind_letters(n, kind) if data.draw(st.booleans()) else sorted(ctx.letters)
        v = ctx.normalize(data.draw(st.lists(st.sampled_from(pool), max_size=8), label=kind))
        w = ctx.multiply(v, u)
        for x, y in ((u, w), (u, v)):
            z = ctx.multiply(x, ctx.inverse(y))
            if kind.startswith("Pi_"):
                assert ctx.in_pi_plus(z, int(kind[3:-1])) == oracle.contains(kind, z)
            else:
                same = ctx.coset_key(kind, x) == ctx.coset_key(kind, y)
                assert same == oracle.contains(kind, z), (kind, str(x), str(y))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(PAIRS), letter_words)
def test_word_letters_round_trip(pair, letters):
    ctx, _ = context(pair)
    w = ctx.normalize(in_context(ctx, letters))
    assert ctx.normalize(ctx.word_letters(w)) == w


def test_membership_matches_tower_oracle(tetoct):
    oracle = TowerOracle(tetoct)
    for w in enumerate_ball(tetoct, 1).elements:
        for j in range(tetoct.n):
            assert tetoct.in_gamma(w, j) == oracle.in_gamma(w, j)
        for j in range(-1, tetoct.n - 1):
            assert tetoct.in_pi_plus(w, j) == oracle.in_pi_plus(w, j)
        for kind in "PQ":
            assert tetoct.in_facet(w, kind) == oracle.in_facet(w, kind)


def test_coset_key_rejects_bad_kinds(tetoct):
    w = tetoct.normalize(["a2", "b"])
    for kind in ("G_3", "G_-1", "G_x", "Pi_2+", "Pi_-2+", "R", "K"):
        with pytest.raises(ValueError):
            tetoct.coset_key(kind, w)


def test_find_face_matches_oracle(tetoct):
    oracle = TowerOracle(tetoct)
    ball = enumerate_ball(tetoct, 1)
    rng = random.Random(13)
    names = sorted(tetoct.letters)
    for _ in range(40):
        w = tetoct.normalize([rng.choice(names) for _ in range(rng.randint(0, 6))])
        for rank, kind in [(j, f"G_{j}") for j in range(tetoct.n)] + [(3, "P"), (3, "Q")]:
            want = [
                f for f in ball.poset.faces(rank)
                if f.kind == kind
                and oracle.contains(kind, tetoct.multiply(w, tetoct.inverse(f.rep)))
            ]
            assert ball.find_face(rank, kind, w) == (want[0] if want else None)
    assert ball.find_face(2, "G_1", tetoct.identity_word) is None


@pytest.mark.parametrize("pair", PAIRS, ids="/".join)
def test_ridge_section_matches_oracle(pair):
    ctx, oracle = context(pair)
    for radius in range(7):
        assert ridge_section(ctx, radius) == oracle.ridge_section(radius)


def test_ridge_section_multiplies_once_per_step(tetoct, monkeypatch):
    calls = []
    multiply = AmalgamContext.multiply

    def counted(self, w1, w2):
        calls.append(1)
        return multiply(self, w1, w2)

    monkeypatch.setattr(AmalgamContext, "multiply", counted)
    assert ridge_section(tetoct, 12).ridges_checked == 25
    assert len(calls) == 24


# Hasse digests of the radius-3 balls, taken before the normal-form
# arithmetic moved onto element indices. The tet/oct face counts and digest
# were checked once against TowerOracle.ball(3), which takes about a minute.
RADIUS_THREE = {
    ("tet.sg", "oct.sg"): (
        [107, 315, 263, 264], 1578,
        "1d2941763279c5279c0233f0ab665788b32a7dde3baaf68889940d01dbdb121e",
    ),
    ("tet.sg", "tet.sg"): (
        [29, 81, 79, 80], 474,
        "e92a2c900e2fb8ed5fb6919aec15889dd140239a8064a01f7e7555c0e90c3e82",
    ),
}


def check_radius_three(pair):
    ctx, _ = context(pair)
    faces, elements, digest = RADIUS_THREE[pair]
    ball = enumerate_ball(ctx, 3)
    assert [len(ball.poset.faces(r)) for r in range(4)] == faces
    assert len(ball.elements) == elements
    assert hashlib.sha256(export_hasse(ball.poset).encode()).hexdigest() == digest


def test_ball_radius_three():
    check_radius_three(("tet.sg", "oct.sg"))


def test_ball_radius_three_regular():
    check_radius_three(("tet.sg", "tet.sg"))


# Radius-5 balls: element counts and Hasse digests, taken before the coset
# keys were read by one walk per kind and the cover probes stopped building
# words. The tet/oct ball takes under a second.
RADIUS_FIVE = {
    ("tet.sg", "oct.sg"): (
        [2207, 6615, 5555, 5556], 33330,
        "2159ef2607408f23ba431aae21eacb140280e93f45226aff0f0844ac4152b0a1",
    ),
    ("tet.sg", "tet.sg"): (
        [245, 729, 727, 728], 4362,
        "014d2cbab055e7eb0ba325a6644f64c26574db6e6b7b874e308ef39303b8b6d5",
    ),
}


@pytest.mark.parametrize("pair", RADIUS_FIVE, ids="/".join)
def test_ball_radius_five(pair):
    ctx, _ = context(pair)
    faces, elements, digest = RADIUS_FIVE[pair]
    ball = enumerate_ball(ctx, 5)
    assert [len(ball.poset.faces(r)) for r in range(4)] == faces
    assert len(ball.elements) == elements
    assert hashlib.sha256(export_hasse(ball.poset).encode()).hexdigest() == digest


def test_ball_makes_no_word_product_and_no_public_key(tetoct, monkeypatch):
    # enumerate_ball reads its keys by each kind's walk on its own words and
    # probes covers without building h * w as a word
    calls = []
    for name in ("multiply", "coset_key", "_check_word"):
        method = getattr(AmalgamContext, name)

        def counted(self, *args, _name=name, _method=method):
            calls.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(AmalgamContext, name, counted)
    ball = enumerate_ball(tetoct, 2)
    assert len(ball.elements) == 318
    assert calls == []


# (letters, str of the normal form, word_letters) in tet/oct, pinned before
# the normal-form arithmetic moved onto element indices
GOLDEN_WORDS = [
    ("a1 a2 a0 a2 a1 a0 b b a0 a0", "(1,3,2)", "a0 a1"),
    ("a2 b", "() . P:(3,4) . Q:(1,4)", "a2 b"),
    ("b b a1 a1 a2 a2 a2 b a0", "(1,2) . P:(3,4) . Q:(1,4)", "a0 a2 b"),
    ("b b a0 a1 a1 a0 a1 a0 a0 a1", "()", ""),
    ("a2 a2 a2 a1", "() . P:(2,3,4)", "a2 a1"),
    ("a0 a0 a2 a1 a1 a1 a0 a0 a2", "(2,3) . P:(2,3,4)", "a1 a2 a1"),
    ("a1 a2 b a1", "(2,3) . P:(2,3,4) . Q:(2,5)", "a1 a2 a1 a1 b a1"),
    ("a2 b a1 a1 b a0 a1 b a2 a1", "(1,2) . P:(2,3,4) . Q:(1,4) . P:(2,3,4)", "a0 a2 a1 b a2 a1"),
    ("a0", "(1,2)", "a0"),
    ("a1 b a1 a1 a0 a0 a2 a0", "(1,2,3) . Q:(1,4) . P:(3,4)", "a1 a0 b a2"),
    ("a2 b b a0 a1 a0 b a2 a0 a0", "(1,2) . P:(1,2,3,4) . Q:(1,4) . P:(3,4)", "a0 a2 a1 a0 b a2"),
    ("a0 a0 a2 a2 a0 a2 a0 a0 a1", "(1,2) . P:(2,3,4)", "a0 a2 a1"),
    ("a0 a1 a0", "(1,3)", "a0 a1 a0"),
    ("a1 a2 a1 b a2 a0 b a0 a1 a1", "(2,3) . P:(2,3,4) . Q:(1,4) . P:(3,4) . Q:(1,4)",
     "a1 a2 a1 b a2 b"),
    ("a1 a0 a2", "(1,2,3) . P:(3,4)", "a1 a0 a2"),
    ("b a1", "(2,3) . Q:(2,5)", "a1 a1 b a1"),
    ("a0 b b a0 a1 a1 a2 b a0 a2", "(1,2) . P:(3,4) . Q:(1,4) . P:(3,4)", "a0 a2 b a2"),
    ("a2 a2 a1", "(2,3)", "a1"),
    ("a0 a0 a2 a0 b a2 a2 b b a0", "() . P:(3,4) . Q:(1,4)", "a2 b"),
    ("b", "() . Q:(1,4)", "b"),
]


@pytest.mark.parametrize("letters,printed,serial", GOLDEN_WORDS)
def test_golden_words(tetoct, letters, printed, serial):
    w = tetoct.normalize(letters.split())
    assert str(w) == printed
    assert " ".join(tetoct.word_letters(w)) == serial


# AmalgamWord.key of the first golden words, pinned with the contract below
GOLDEN_KEYS = [
    (0, (), 4, ()),
    (2, ("P", "Q"), 0, (1, 5)),
    (2, ("P", "Q"), 2, (1, 5)),
    (0, (), 0, ()),
]


def test_word_contract(tetoct):
    """What callers rely on: equality and hash on (kappa_index, tau_indices)
    only, usable as dict keys, immutable fields, unchanged str and key, and
    indices that mean nothing in another context."""
    words = [tetoct.normalize(letters.split()) for letters, _, _ in GOLDEN_WORDS]
    for w, (letters, printed, _) in zip(words, GOLDEN_WORDS):
        again = tetoct.normalize(letters.split())
        assert again is not w and again == w and hash(again) == hash(w)
        assert not (again != w)
        assert str(w) == printed
        assert w.kappa_index == again.kappa_index and w.tau_indices == again.tau_indices
    assert [w.key for w in words[:len(GOLDEN_KEYS)]] == GOLDEN_KEYS
    distinct = {(w.kappa_index, w.tau_indices) for w in words}
    table = {w: i for i, w in enumerate(words)}
    assert len(table) == len(distinct)
    for w in words:
        assert words[table[w]] == w
    for u in words:
        for v in words:
            same = (u.kappa_index, u.tau_indices) == (v.kappa_index, v.tau_indices)
            assert (u == v) == same and (u != v) == (not same)
    assert words[0] != (words[0].kappa_index, words[0].tau_indices)
    w = words[1]
    for field_name in ("kappa_index", "tau_indices", "alphabet", "other"):
        with pytest.raises(AttributeError):
            setattr(w, field_name, 0)
    for field_name in ("kappa_index", "tau_indices", "alphabet"):
        with pytest.raises(AttributeError):
            delattr(w, field_name)
    assert str(w) == GOLDEN_WORDS[1][1] and w.key == GOLDEN_KEYS[1]
    # the same indices from another context are refused, though they fit
    tettet, _ = context(("tet.sg", "tet.sg"))
    foreign = tettet.normalize(["a2", "b"])
    own = next(
        x for x in tetoct.ball_elements(2)
        if (x.kappa_index, x.tau_indices) == (foreign.kappa_index, foreign.tau_indices)
    )
    tetoct.multiply(own, own)
    for call in (
        lambda: tetoct.multiply(own, foreign),
        lambda: tetoct.coset_key("P", foreign),
        lambda: tetoct.word_letters(foreign),
    ):
        with pytest.raises(ValueError, match="context"):
            call()


def star_mod3_context():
    """The matrix pair of the star group mod 3: P = <a0, a1, a2> and
    Q = <a0, a1, b>, facet orders 48 and 24 over |K| = 6."""
    spec = reduce_mod_p(rescale(parse_diagram("tail=[3] triangle=(4,inf,2)"), (1, 1, 2, 4)), 3)
    G = build_tail_triangle_modp(spec)
    return AmalgamContext(G.alphas, G.alphas[:-1] + (G.beta,))


_ELEMENT_CONTEXTS = {}


def element_context(name):
    if name not in _ELEMENT_CONTEXTS:
        if name == "star mod 3":
            ctx = star_mod3_context()
        else:
            ctx = AmalgamContext(*(gens(f) for f in name.split("/")))
        _ELEMENT_CONTEXTS[name] = (ctx, ElementOracle(ctx))
    return _ELEMENT_CONTEXTS[name]


@pytest.mark.parametrize("name", ["/".join(pair) for pair in PAIRS] + ["star mod 3"])
def test_towers_match_element_oracle(name):
    ctx, _ = element_context(name)
    for side, G in (("P", ctx.P), ("Q", ctx.Q)):
        assert ctx.towers[side] == element_towers(G), side


def test_star_mod3_pair_is_a_matrix_amalgam():
    ctx, _ = element_context("star mod 3")
    assert (ctx.P.order, ctx.Q.order, ctx.K.order) == (48, 24, 6)
    assert type(ctx.K.identity).__name__ == "MatModP"


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["tet.sg/oct.sg", "tet.sg/tet.sg", "star mod 3"]),
    st.lists(letter_words, min_size=2, max_size=6),
)
def test_index_arithmetic_matches_element_oracle(name, batch):
    ctx, oracle = element_context(name)
    words = [ctx.normalize(letters) for letters in batch]
    for letters, w in zip(batch, words):
        assert (w.kappa, w.taus) == oracle.normalize(letters)
    as_elements = [(w.kappa, w.taus) for w in words]
    product, inverse = ctx.multiply(words[0], words[1]), ctx.inverse(words[0])
    assert (product.kappa, product.taus) == oracle.multiply(*as_elements[:2])
    assert (inverse.kappa, inverse.taus) == oracle.inverse(as_elements[0])
    towers = ctx.towers
    for kind in kinds(ctx.n) + [f"Pi_{j}+" for j in range(-1, ctx.n - 1)]:
        for w, e in zip(words, as_elements):
            key = ctx.coset_key(kind, w)
            if key[0] != "K":
                key = key[:2] + (tuple((s, towers[s][0][t]) for s, t in key[2]),)
            assert key == oracle.coset_key(kind, e), kind
    ranked = sorted(range(len(words)), key=lambda i: words[i].key)
    assert ranked == sorted(range(len(words)), key=lambda i: oracle.key(as_elements[i]))


long_words = st.lists(st.sampled_from(["a0", "a1", "a2", "b"]), max_size=30)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(["tet.sg/oct.sg", "tet.sg/tet.sg", "star mod 3"]),
    long_words,
    long_words,
    st.integers(0, 30),
)
def test_long_word_arithmetic_matches_element_oracle(name, u_letters, v_letters, cut):
    """Words of up to 30 letters, and products that cancel to the identity
    or to a short word, so that left multiplication often merges a syllable
    into the identity and drops it."""
    ctx, oracle = element_context(name)

    def elements(w):
        return (w.kappa, w.taus)

    u, v, prefix = (ctx.normalize(x) for x in (u_letters, v_letters, u_letters[:cut]))
    assert elements(u) == oracle.normalize(u_letters)
    assert elements(v) == oracle.normalize(v_letters)
    u_inv, prefix_inv = ctx.inverse(u), ctx.inverse(prefix)
    assert elements(u_inv) == oracle.inverse(elements(u))
    assert elements(ctx.multiply(u, v)) == oracle.multiply(elements(u), elements(v))
    # w * w^-1 * v, grouped both ways
    assert ctx.multiply(ctx.multiply(u, u_inv), v) == v
    assert ctx.multiply(u, ctx.multiply(u_inv, v)) == v
    assert ctx.multiply(u_inv, u) == ctx.identity_word
    # a word times the inverse of its prefix, on either side
    assert elements(ctx.multiply(u, prefix_inv)) == oracle.multiply(
        elements(u), oracle.inverse(elements(prefix))
    )
    assert ctx.multiply(prefix_inv, u) == ctx.normalize(u_letters[cut:])
    assert ctx.multiply(prefix, ctx.normalize(u_letters[cut:])) == u


BALL_PAIRS = [
    ("tet.sg", "oct.sg"),
    ("tet.sg", "tet.sg"),
    ("oct.sg", "oct.sg"),
    ("triangle.sg", "triangle.sg"),
]


@pytest.mark.parametrize("pair", BALL_PAIRS, ids="/".join)
def test_ball_by_id_matches_face_ball(pair):
    ctx = AmalgamContext(gens(pair[0]), gens(pair[1]))
    rng = random.Random(17)
    names = sorted(ctx.letters)
    probes = [ctx.identity_word] + [
        ctx.normalize([rng.choice(names) for _ in range(rng.randint(1, 12))]) for _ in range(40)
    ]
    faces = [(j, f"G_{j}") for j in range(ctx.n)] + [(ctx.n, "P"), (ctx.n, "Q")]
    for radius in range(4):
        ball = enumerate_ball(ctx, radius)
        poset, index = face_ball(ctx, radius)
        assert export_hasse(ball.poset) == export_hasse(poset)
        assert ball.poset.face_list == poset.face_list
        for w in probes + list(ball.elements[::7]):
            for rank, kind in faces:
                assert ball.find_face(rank, kind, w) == index[rank, kind].get(
                    ctx.coset_key(kind, w)
                )
        assert ball.find_face(ctx.n, "G_0", ctx.identity_word) is None


def test_foreign_words_rejected():
    # both K's are the same degree-4 S3, so the indices of a tet/tet word
    # fit tet/oct's tables and would give a wrong normal form
    tetoct, _ = context(("tet.sg", "oct.sg"))
    tettet, _ = context(("tet.sg", "tet.sg"))
    own = tetoct.normalize(["a2", "b"])
    for foreign in (tettet.normalize(["a2", "b", "a1"]), tettet.identity_word):
        for call in (
            lambda: tetoct.multiply(own, foreign),
            lambda: tetoct.multiply(foreign, own),
            lambda: tetoct.inverse(foreign),
            lambda: tetoct.coset_key("G_0", foreign),
            lambda: tetoct.word_letters(foreign),
        ):
            with pytest.raises(ValueError, match="context"):
                call()
