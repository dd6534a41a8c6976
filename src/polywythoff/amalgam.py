"""Exact arithmetic in the amalgamated free product of two string C-groups.

Given rank-n string C-groups P = <a0..a_{n-1}> and Q = <a0..a_{n-2}, b>
sharing the facet group K = <a0..a_{n-2}>, every element of the amalgam
Pi = P *_K Q has a unique reduced decomposition

    mu = kappa * tau_1 * ... * tau_m

with kappa in K and the tau_i nontrivial transversal representatives taken
alternately from the two factors: the normal-form theorem for amalgamated
free products (Serre, *Trees*, §1.1-1.2; Lyndon and Schupp, *Combinatorial
Group Theory*, ch. IV.2).  The transversals are nested along the generator
chain (``_nested_towers``), which fixes every printed normal form.

The face subgroups Gamma_j (Gamma_{n-1} = K), the facet groups P, Q and
Pi_j+ are sub-amalgams H = <H_P, H_Q>, on generator subsets that agree
below n-1; the intersection property of the C-groups P and Q gives
H_P ∩ K = H_Q ∩ K = H_K.  So every element of H is an element of H_K
followed by syllables alternately in H_P \\ H_K and H_Q \\ H_K, all outside K,
and the normal form of w yields a canonical key of the right coset H*w
(``AmalgamContext.coset_key``).  Membership and the faces of the
bounded-radius ball of the universal semiregular polytope are key lookups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
        # _syllable[side][tau][k]: index in the factor of K.elements[k] * tau
        self._syllable = {}
        for side, G in (("P", self.P), ("Q", self.Q)):
            rows = {tau: [0] * self.K.order for tau in self.towers[side][0]}
            for h, (kap, tau) in self.table[side].items():
                rows[tau][self.K.index_of(self._to_p(side, kap))] = G.index_of(h)
            self._syllable[side] = {tau: tuple(row) for tau, row in rows.items()}
        # generator indices (I_P, I_Q) of each sub-amalgam: "G_j" = Gamma_j,
        # "P", "Q" and "Pi_j+"; _keys holds their key data once used
        full = tuple(range(n))
        self._kinds = {f"G_{j}": (full[:j] + full[j + 1:],) * 2 for j in full}
        self._kinds.update(P=(full, full[:-1]), Q=(full[:-1], full))
        self._kinds.update({f"Pi_{j}+": (full[j + 1:],) * 2 for j in range(-1, n - 1)})
        self._keys = {}
        self.letters = {f"a{i}": ("P", p_gens[i]) for i in range(n)}
        self.letters["b"] = ("Q", q_gens[n - 1])
        self.identity_word = AmalgamWord(self.K.identity, ())

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

    # ---------------------------------------------------------- coset keys

    def _key_data(self, kind):
        """Per side S, cid[S][x] = H_S-coset of factor element x and
        land[S][c] = least K-index in coset c (-1 if none); kcid[k] =
        H_P-coset of K-element k, which names its H_K-coset."""
        data = self._keys.get(kind)
        if data is None:
            if kind not in self._kinds:
                raise ValueError(f"bad coset kind {kind!r}")
            cid, land = {}, {}
            for side, G, idx in zip("PQ", (self.P, self.Q), self._kinds[kind]):
                reps, c = coset_partition(G, G.sub(idx))
                hit = [-1] * len(reps)
                for k, x in enumerate(self._syllable[side][self.towers[side][0][0]]):
                    if hit[c[x]] < 0:
                        hit[c[x]] = k
                cid[side], land[side] = tuple(c), tuple(hit)
            unit = self._syllable["P"][self.towers["P"][0][0]]
            data = self._keys[kind] = (cid, land, tuple(cid["P"][x] for x in unit))
        return data

    def coset_key(self, kind: str, w: AmalgamWord):
        """Key of the right coset H*w, H the sub-amalgam "G_j", "P", "Q" or
        "Pi_j+": equal keys iff the same coset.

        Walk w = kappa * tau_1 ... tau_m with a carry c in K, keeping
        H*w = H*c*tau_i ... tau_m: if H_S*(c*tau_i), S the side of tau_i,
        meets K, c moves to a K-element of it. Else the key is
        (S, H_S*(c*tau_i), (tau_{i+1}, ..., tau_m)), and ("K", H_K*c) when
        every syllable is absorbed. This is canonical: with x = c*tau_i and
        r = x*tau_{i+1} ... tau_m, an h in H merges at most its last
        syllable (in H_S \\ H_K) into x when left-multiplying r, and that
        product misses K. So the shortest elements of H*r are exactly
        H_S*r, and their normal forms give back S, H_S*x and the taus.
        """
        self._check_word(w)
        cid, land, kcid = self._key_data(kind)
        syllable = self._syllable
        carry = self.K.index_of(w.kappa)
        for i, (side, tau) in enumerate(w.taus):
            c = cid[side][syllable[side][tau][carry]]
            carry = land[side][c]
            if carry < 0:
                return (side, c, w.taus[i + 1:])
        return ("K", kcid[carry])

    def _in(self, kind, w):
        return self.coset_key(kind, w) == self.coset_key(kind, self.identity_word)

    def in_pi_plus(self, w: AmalgamWord, j: int) -> bool:
        """Membership in Pi_j+ = <a_{j+1},...,a_{n-1}, b> for -1 <= j <= n-2."""
        return self._in(f"Pi_{j}+", w)

    def in_gamma(self, w: AmalgamWord, j: int) -> bool:
        """Membership in the j-face subgroup Gamma_j (all generators but a_j
        for j <= n-2; Gamma_{n-1} = K)."""
        return self._in(f"G_{j}", w)

    def in_facet(self, w: AmalgamWord, kind: str) -> bool:
        if kind not in ("P", "Q"):
            raise ValueError(f"bad facet kind {kind!r}")
        return self._in(kind, w)

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
    # (rank, kind) -> {coset key: face}
    index: dict = field(compare=False, repr=False)

    def find_face(self, rank, kind, word):
        """The ball face whose coset contains the given element, if any."""
        faces = self.index.get((rank, kind))
        return None if faces is None else faces.get(self.ctx.coset_key(kind, word))


def enumerate_ball(ctx: AmalgamContext, radius: int) -> Ball:
    """Partial face poset of the universal polytope: every coset face owning
    a representative of transversal length <= radius, represented by its
    first ball element in BFS order.

    A face Gamma_{r-1}*u lies under H*w iff it is Gamma_{r-1}*h*w for an h in
    H, and only the coset (Gamma_{r-1} ∩ H)*h matters. For a facet these are
    the cosets of K (transversal T_P or T_Q). For H = Gamma_r =
    <a_0..a_{r-1}> * Pi_r+, both Pi_r+ and <a_0..a_{r-2}> lie in
    Gamma_{r-1}, so the cosets of <a_0..a_{r-2}> in <a_0..a_{r-1}> suffice.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
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
            reps = coset_partition(ctx.P.sub(range(rank)), ctx.P.sub(range(rank - 1)))[0]
            scan = [ctx.inject("P", g) for g in reps]
        low_kind = f"G_{rank - 1}"
        lows = index[rank - 1, low_kind]
        for high in index[rank, kind].values():
            found = {lows.get(ctx.coset_key(low_kind, ctx.multiply(h, high.rep))) for h in scan}
            covers.extend((low, high) for low in found if low is not None)
    return Ball(ctx, radius, FacePoset(levels, covers), tuple(elems), index)


# ------------------------------------------------------------ global facts


@dataclass(frozen=True)
class RidgeSectionReport:
    is_open: bool
    ridges_checked: int
    alternating: bool


def ridge_section(ctx: AmalgamContext, radius: int) -> RidgeSectionReport:
    """Walk the 2-section around the base co-rank-2 face: ridges K*d_t for
    alternating dihedral prefixes d_t of a_{n-1}, b.  The section is an
    apeirogon iff the walk never revisits a ridge coset, that is iff the
    K-keys of the prefixes are distinct."""
    steps = (ctx.normalize([f"a{ctx.n - 1}"]), ctx.normalize(["b"]))
    words = [ctx.identity_word]
    for t in range(2 * radius):
        words.append(ctx.multiply(words[-1], steps[t % 2]))
    # consecutive ridges share a facet of alternating kind by construction;
    # verify the facet cosets of equal kind are pairwise distinct as well
    is_open, p_ok, q_ok = (
        len({ctx.coset_key(kind, w) for w in ws}) == len(ws)
        for kind, ws in ((f"G_{ctx.n - 1}", words), ("P", words[0::2]), ("Q", words[1::2]))
    )
    return RidgeSectionReport(is_open, len(words), p_ok and q_ok)


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
