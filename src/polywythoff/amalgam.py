"""Exact arithmetic in the amalgamated free product of two string C-groups.

Given rank-n string C-groups P = <a0..a_{n-1}> and Q = <a0..a_{n-2}, b>
sharing the facet group K = <a0..a_{n-2}>, every element of the amalgam
Pi = P *_K Q has a unique reduced decomposition

    mu = kappa * tau_1 * ... * tau_m

with kappa in K and the tau_i nontrivial transversal representatives taken
alternately from the two factors.  The transversals are nested along the
generator chain, which makes membership in the distinguished subgroups of
Pi decidable by looking at the normal form alone.  On top of that we get a
bounded-radius exploration of the universal semiregular polytope whose
facets are copies of P and Q.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import FiniteGroup, coset_partition, extend_homomorphism
from .groups import closure  # noqa: F401  kept for perfbench/tracing.py, which spans it
from .ttgroup import is_string_c_group
from .wythoff import Face, FacePoset


class NotCGroup(ValueError):
    """A factor is not a string C-group."""


class FacetMismatch(ValueError):
    """The shared generators do not induce an isomorphism of facet groups."""


@dataclass(frozen=True)
class AmalgamWord:
    """Reduced decomposition: kappa (a K-element, stored on the P side)
    followed by alternating nontrivial transversal representatives."""

    kappa: object
    taus: tuple  # of (side, element) with side in {"P", "Q"}

    @property
    def length(self):
        return len(self.taus)

    @property
    def key(self):
        return (
            len(self.taus),
            tuple(s for s, _ in self.taus),
            self.kappa.key,
            tuple(t.key for _, t in self.taus),
        )

    def __str__(self):
        parts = [str(self.kappa)] + [f"{s}:{t}" for s, t in self.taus]
        return " . ".join(parts)


def _nested_towers(G: FiniteGroup):
    """T_j = transversal of <g_j..g_{n-2}> in <g_j..g_{n-1}>, nested so that
    T_{n-1} = {1, g_{n-1}} and each T_j extends T_{j+1}; the g_i are the
    generators of G."""
    n = len(G.generators)
    last = G.generators[n - 1]
    towers = [None] * n
    towers[n - 1] = (last.inverse() * last, last)  # (identity, g_{n-1})
    for j in range(n - 2, -1, -1):
        Gj = G.sub(range(j, n))
        reps, cid = coset_partition(Gj, G.sub(range(j, n - 1)))
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


def _decomposition_table(K, transversal):
    table = {}
    for tau in transversal:
        for kap in K.elements:
            h = kap * tau
            assert h not in table, "transversal hits a coset twice"
            table[h] = (kap, tau)
    return table


class AmalgamContext:
    """Immutable data for normal-form arithmetic in P *_K Q."""

    def __init__(self, p_gens, q_gens, shared=None):
        p_gens, q_gens = tuple(p_gens), tuple(q_gens)
        n = len(p_gens)
        if n < 2 or len(q_gens) != n:
            raise ValueError("need two generator lists of equal rank >= 2")
        if shared is None:
            shared = n - 1
        if shared != n - 1:
            raise ValueError("factors must share all but the last generator")
        factors = []
        for side, gens in (("P", p_gens), ("Q", q_gens)):
            res = is_string_c_group(gens)
            if not res:
                raise NotCGroup(f"factor {side} is not a string C-group")
            factors.append(res.group)
        self.n = n
        self.P, self.Q = factors
        self.K = self.P.sub(range(n - 1))
        self.KQ = self.Q.sub(range(n - 1))
        if self.K.order != self.KQ.order:
            raise FacetMismatch("facet subgroups have different orders")
        phi = extend_homomorphism(self.K, q_gens[:-1], target=self.KQ)
        if phi is None or len(set(phi.values())) != self.K.order:
            raise FacetMismatch("shared generators do not give an isomorphism")
        self._phi = phi
        self._phi_inv = {v: k for k, v in phi.items()}

        self.towers = {"P": _nested_towers(self.P), "Q": _nested_towers(self.Q)}
        self.table = {
            "P": _decomposition_table(self.K, self.towers["P"][0]),
            "Q": _decomposition_table(self.KQ, self.towers["Q"][0]),
        }
        if len(self.table["P"]) != self.P.order or len(self.table["Q"]) != self.Q.order:
            raise FacetMismatch("transversal does not cover the factor")
        self._tower_sets = {
            s: [frozenset(t) for t in self.towers[s]] for s in ("P", "Q")
        }
        # K-side generator chains: <a_j..a_{n-2}> and <a_0..a_{j-1}>
        self._tail_k = [self.P.sub(range(j, n - 1)).element_set for j in range(n)]
        self._head_k = [self.P.sub(range(j)).element_set for j in range(n)]
        self.letters = {f"a{i}": ("P", p_gens[i]) for i in range(n)}
        self.letters["b"] = ("Q", q_gens[n - 1])
        self.identity_word = AmalgamWord(self.K.identity, ())
        # inverses of <a_0..a_{j-1}> as words, per j
        self._head_words = tuple(
            tuple(self.inject("P", a.inverse()) for a in sorted(head, key=lambda e: e.key))
            for head in self._head_k
        )

    # -------------------------------------------------------- normal forms

    def _to_p(self, side, kap):
        return kap if side == "P" else self._phi_inv[kap]

    def _from_p(self, side, kap):
        return kap if side == "P" else self._phi[kap]

    def _absorb(self, kappa, taus, side, h):
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

    def normalize(self, letters) -> AmalgamWord:
        kappa, taus = self.K.identity, ()
        for name in letters:
            if name not in self.letters:
                raise ValueError(f"unknown generator {name!r}")
            side, h = self.letters[name]
            kappa, taus = self._absorb(kappa, taus, side, h)
        return AmalgamWord(kappa, taus)

    def _check_word(self, w):
        if w.kappa not in self.K.element_set:
            raise ValueError("word does not belong to this context")

    def multiply(self, w1: AmalgamWord, w2: AmalgamWord) -> AmalgamWord:
        self._check_word(w1), self._check_word(w2)
        kappa, taus = self._absorb(w1.kappa, w1.taus, "P", w2.kappa)
        for side, t in w2.taus:
            kappa, taus = self._absorb(kappa, taus, side, t)
        return AmalgamWord(kappa, taus)

    def inverse(self, w: AmalgamWord) -> AmalgamWord:
        self._check_word(w)
        kappa, taus = self.K.identity, ()
        for side, t in reversed(w.taus):
            kappa, taus = self._absorb(kappa, taus, side, t.inverse())
        kappa, taus = self._absorb(kappa, taus, "P", w.kappa.inverse())
        return AmalgamWord(kappa, taus)

    def inject(self, side, g) -> AmalgamWord:
        """Embed an element of a factor group; O(1) table lookup."""
        kap, tau = self.table[side][g]
        kap = self._to_p(side, kap)
        return AmalgamWord(kap, () if tau.is_identity() else ((side, tau),))

    def word_letters(self, w: AmalgamWord):
        """Serialize a word as generator names (a0 ... a_{n-1}, b)."""
        self._check_word(w)
        out = [f"a{i}" for i in self.K.words()[self.K.index_of(w.kappa)]]
        for side, t in w.taus:
            G = self.P if side == "P" else self.Q
            for gi in G.words()[G.index_of(t)]:
                out.append("b" if side == "Q" and gi == self.n - 1 else f"a{gi}")
        return tuple(out)

    # ---------------------------------------------------------- membership

    def in_pi_plus(self, w: AmalgamWord, j: int) -> bool:
        """Membership in Pi_j+ = <a_{j+1},...,a_{n-1}, b> for -1 <= j <= n-2:
        kappa must lie in <a_{j+1}..a_{n-2}> and every transversal element in
        the level-(j+1) tower of its side."""
        if not -1 <= j <= self.n - 2:
            raise ValueError(f"invalid rank {j}")
        if w.kappa not in self._tail_k[j + 1]:
            return False
        return all(t in self._tower_sets[s][j + 1] for s, t in w.taus)

    def in_gamma(self, w: AmalgamWord, j: int) -> bool:
        """Membership in the j-face subgroup Gamma_j (all generators but a_j
        for j <= n-2; Gamma_{n-1} = K)."""
        if j == self.n - 1:
            return w.taus == ()
        if not 0 <= j <= self.n - 2:
            raise ValueError(f"invalid rank {j}")
        # Gamma_j = <a_0..a_{j-1}> x Pi_j+, the factors commute
        return any(self.in_pi_plus(self.multiply(w, ai), j) for ai in self._head_words[j])

    def in_facet(self, w: AmalgamWord, kind: str) -> bool:
        if kind not in ("P", "Q"):
            raise ValueError(f"bad facet kind {kind!r}")
        return w.length == 0 or (w.length == 1 and w.taus[0][0] == kind)

    def _incident(self, low_rank, z, high_rank, high_kind):
        """Is Gamma_low * u incident to Gamma_high * w, given z = u * w^-1?"""
        if high_kind in ("P", "Q"):
            if low_rank == self.n - 1:  # K * Facet = Facet
                return self.in_facet(z, high_kind)
            scan = (self.inject(high_kind, g.inverse())
                    for g in (self.P if high_kind == "P" else self.Q).elements)
        elif high_rank == self.n - 1:
            scan = (self.inject("P", g.inverse()) for g in self.K.elements)
        else:
            # Gamma_j * Gamma_k = Gamma_j * <a_0..a_{k-1}> since Pi_k+ <= Gamma_j
            scan = self._head_words[high_rank]
        return any(self.in_gamma(self.multiply(z, g), low_rank) for g in scan)

    # -------------------------------------------------------------- balls

    def ball_elements(self, radius: int):
        """All normal forms of transversal length <= radius, BFS order."""
        gens = [self.letters[name] for name in sorted(self.letters)]
        seen = {self.identity_word}
        frontier = [self.identity_word]
        order = [self.identity_word]
        while frontier:
            nxt = []
            for w in frontier:
                for side, h in gens:
                    kappa, taus = self._absorb(w.kappa, w.taus, side, h)
                    if len(taus) > radius:
                        continue
                    w2 = AmalgamWord(kappa, taus)
                    if w2 not in seen:
                        seen.add(w2)
                        nxt.append(w2)
                        order.append(w2)
            frontier = nxt
        return order


@dataclass(frozen=True)
class Ball:
    ctx: AmalgamContext
    radius: int
    poset: FacePoset
    elements: tuple

    def find_face(self, rank, kind, word):
        """The ball face whose coset contains the given element, if any."""
        ctx = self.ctx
        for f in self.poset.faces(rank):
            if f.kind != kind:
                continue
            z = ctx.multiply(word, ctx.inverse(f.rep))
            if kind in ("P", "Q"):
                if ctx.in_facet(z, kind):
                    return f
            elif ctx.in_gamma(z, rank):
                return f
        return None


def enumerate_ball(ctx: AmalgamContext, radius: int) -> Ball:
    """Partial face poset of the universal polytope: every coset face owning
    a representative of transversal length <= radius."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    elems = ctx.ball_elements(radius)
    n = ctx.n

    def collect(rank, kind):
        faces, invs = [], []
        for w in elems:
            hit = False
            for f, inv in zip(faces, invs):
                z = ctx.multiply(w, inv)
                if ctx.in_facet(z, kind) if kind in ("P", "Q") else ctx.in_gamma(z, rank):
                    hit = True
                    break
            if not hit:
                faces.append(Face(rank, kind if kind in ("P", "Q") else f"G_{rank}", w))
                invs.append(ctx.inverse(w))
        return faces, invs

    levels = {}
    inv_of = {}
    for j in range(n):
        levels[j], invs = collect(j, f"G_{j}")
        inv_of.update(zip(levels[j], invs))
    facets = []
    for kind in ("P", "Q"):
        fs, invs = collect(n, kind)
        facets.extend(fs)
        inv_of.update(zip(fs, invs))
    levels[n] = facets

    bot, top = Face(-1, "bot", None), Face(n + 1, "top", None)
    covers = [(bot, v) for v in levels[0]] + [(f, top) for f in levels[n]]
    for j in range(n):
        for high in levels[j + 1]:
            for low in levels[j]:
                z = ctx.multiply(low.rep, inv_of[high])
                if ctx._incident(j, z, high.rank, high.kind):
                    covers.append((low, high))
    faces_by_rank = {-1: [bot], n + 1: [top]}
    faces_by_rank.update(levels)
    return Ball(ctx, radius, FacePoset(faces_by_rank, covers), tuple(elems))


# ------------------------------------------------------------ global facts


@dataclass(frozen=True)
class RidgeSectionReport:
    is_open: bool
    ridges_checked: int
    alternating: bool


def ridge_section(ctx: AmalgamContext, radius: int) -> RidgeSectionReport:
    """Walk the 2-section around the base co-rank-2 face: ridges K*d_t for
    alternating dihedral prefixes d_t of a_{n-1}, b.  The section is an
    apeirogon iff the walk never revisits a ridge coset."""
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
    # consecutive ridges share a facet of alternating kind by construction;
    # verify the facet cosets of equal kind are pairwise distinct as well
    alternating = True
    for kind, start in (("P", 0), ("Q", 1)):
        fs = words[start::2]
        fi = invs[start::2]
        for i in range(len(fs)):
            for j in range(i):
                if ctx.in_facet(ctx.multiply(fs[i], fi[j]), kind):
                    alternating = False
    return RidgeSectionReport(is_open, len(words), alternating)


def dihedral_order_unbounded(ctx: AmalgamContext, up_to: int) -> bool:
    """(a_{n-1} b)^m != 1 for all 1 <= m <= up_to."""
    step = ctx.normalize([f"a{ctx.n - 1}", "b"])
    w = ctx.identity_word
    for _ in range(up_to):
        w = ctx.multiply(w, step)
        if w.taus == () and w.kappa.is_identity():
            return False
    return True


@dataclass(frozen=True)
class UniversalClass:
    kind: str  # "Regular" or "TwoOrbit"
    aut: str


def universal_is_regular(ctx: AmalgamContext) -> UniversalClass:
    """The universal polytope is regular iff the factors are isomorphic by a
    map fixing the shared facet group and swapping the last generators."""
    images = list(ctx.Q.generators)
    phi = extend_homomorphism(ctx.P, images, target=ctx.Q)
    if phi is not None and len(set(phi.values())) == ctx.P.order == ctx.Q.order:
        return UniversalClass("Regular", "Pi x| C2 (amalgam extended by the swap)")
    return UniversalClass("TwoOrbit", "Pi (the amalgam itself)")
