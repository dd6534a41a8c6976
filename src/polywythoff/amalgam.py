"""Exact arithmetic in the amalgamated free product of two string C-groups.

Given rank-n string C-groups P = <a0..a_{n-1}> and Q = <a0..a_{n-2}, b>
sharing the facet group K = <a0..a_{n-2}>, every element of the amalgam
Pi = P *_K Q has a unique reduced decomposition

    mu = kappa * tau_1 * ... * tau_m

with kappa in K and the tau_i nontrivial transversal representatives taken
alternately from the two factors: the normal-form theorem for amalgamated
free products (Serre, *Trees*, §1.1-1.2; Lyndon and Schupp, *Combinatorial
Group Theory*, ch. IV.2).  The transversals are nested along the generator
chain (``_nested_towers``), which fixes every printed normal form. Once
the factors are enumerated, kappa is held as an index into K and each tau
as (side, index into that side's transversal), and all of the arithmetic
below is lookups in integer tables built once per context; elements only
come back for printing (``AmalgamWord.kappa``, ``AmalgamWord.taus``).

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
from .poset import Face, FacePoset


class NotCGroup(ValueError):
    """A factor is not a string C-group."""


class FacetMismatch(ValueError):
    """The shared generators do not induce an isomorphism of facet groups."""


@dataclass(frozen=True, eq=False)
class WordAlphabet:
    """The elements a context's word indices name: ``kappas`` = K.elements
    (K on the P side), ``taus[side]`` = that side's transversal, and
    ``rank[k]`` = the position of K.elements[k] in key order. One per
    context, compared by identity."""

    kappas: tuple
    taus: dict
    rank: tuple


@dataclass(frozen=True)
class AmalgamWord:
    """Reduced decomposition on element indices: kappa_index indexes K (on
    the P side), tau_indices holds alternating (side, transversal index)
    pairs, never 0, the identity's index. ``kappa`` and ``taus`` read the
    same word as elements."""

    kappa_index: int
    tau_indices: tuple
    alphabet: WordAlphabet = field(compare=False, repr=False)

    @property
    def kappa(self):
        return self.alphabet.kappas[self.kappa_index]

    @property
    def taus(self):
        T = self.alphabet.taus
        return tuple((s, T[s][t]) for s, t in self.tau_indices)

    @property
    def length(self):
        return len(self.tau_indices)

    @property
    def key(self):
        """Sorts like (length, sides, kappa.key, tau keys): a transversal
        lists the identity first, then the rest in key order, and taus are
        compared only once the side sequences agree."""
        taus = self.tau_indices
        return (
            len(taus),
            tuple(s for s, _ in taus),
            self.alphabet.rank[self.kappa_index],
            tuple(t for _, t in taus),
        )

    def __str__(self):
        parts = [str(self.kappa)] + [f"{s}:{t}" for s, t in self.taus]
        return " . ".join(parts)


def _nested_towers(G: FiniteGroup):
    """T_j = transversal of <g_j..g_{n-2}> in <g_j..g_{n-1}> as element
    indices, nested so that T_{n-1} = (identity, g_{n-1}) and each T_j
    extends T_{j+1}; the g_i are the generators of G. Each coset keeps its
    member in T_{j+1}, else its key-least member. Each T_j lists the
    identity first, then the rest in key order."""
    n = len(G.generators)
    keys = [e.key for e in G.elements]
    towers = [None] * n
    towers[n - 1] = (0, G.right_table()[n - 1][0])
    for j in range(n - 2, -1, -1):
        cid = coset_partition(G, range(j, n - 1))[1]
        chosen = {cid[t]: t for t in towers[j + 1]}
        assert len(chosen) == len(towers[j + 1]), "transversal nesting broken"
        for x in sorted(G.span(range(j, n)), key=keys.__getitem__):
            chosen.setdefault(cid[x], x)
        towers[j] = (0, *sorted((x for x in chosen.values() if x), key=keys.__getitem__))
    return towers


def _left_row(G: FiniteGroup, x: int):
    """row[y] = index of elements[x] * elements[y], filled in BFS order of
    y: x*y = (x*parent(y))*g, one right-table lookup per entry."""
    R = G.right_table()
    row = [x] * G.order
    for y, (parent, gi) in enumerate(G.tree()[1:], 1):
        row[y] = R[gi][row[parent]]
    return row


class AmalgamContext:
    """Immutable data for normal-form arithmetic in P *_K Q.

    After the factors are enumerated, words and their arithmetic are
    element indices and the integer tables below, per side S:

    - ``_emb[S][k]``: the factor index of K-element k (through the
      isomorphism K -> K_Q on the Q side);
    - ``_trans[S][t]``: the factor index of transversal element t;
    - ``_dec[S][x]``: (k, t) with factor element x = k * t;
    - ``_tmul[S][t][x]``: the decomposition of t * x, and ``_tk[S][t][k]``
      that of t * k;
    - ``_syllable[S][t][k]``: the factor index of k * t;
    - ``_tinv[S][t]``: the factor index of t^-1;

    and ``_kmul``/``_kinv`` for K. They come from rows of the factor's
    multiplication table for the K-elements and transversal elements only,
    each read off the right table with no element products.
    """

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
        self.K = K = self.P.sub(range(n - 1))
        if K.order != len(self.Q.span(range(n - 1))):
            raise FacetMismatch("facet subgroups have different orders")
        RP, RQ = self.P.right_table(), self.Q.right_table()
        phi = extend_homomorphism(K, [RQ[i][0] for i in range(n - 1)], target=self.Q)
        if phi is None or len(set(phi)) != K.order:
            raise FacetMismatch("shared generators do not give an isomorphism")

        self._kmul = tuple(tuple(_left_row(K, k)) for k in range(K.order))
        self._kinv = tuple(row.index(0) for row in self._kmul)
        self.towers, self._emb, self._trans, self._dec = {}, {}, {}, {}
        self._tmul, self._tk, self._syllable, self._tinv = {}, {}, {}, {}
        for side, G in (("P", self.P), ("Q", self.Q)):
            towers = _nested_towers(G)
            self.towers[side] = [tuple(G.elements[x] for x in T) for T in towers]
            # K in the factor: K's own element order is span's order
            emb = tuple(G.span(range(n - 1))) if side == "P" else tuple(phi)
            trans = towers[0]
            rows = {x: _left_row(G, x) for x in set(emb) | set(trans)}
            dec = [None] * G.order
            for t, y in enumerate(trans):
                for k, x in enumerate(emb):
                    dec[rows[x][y]] = (k, t)
            # |T| * |K| = |G|: a transversal hitting a coset twice misses one
            if None in dec:
                raise FacetMismatch("transversal does not cover the factor")
            tmul = tuple(tuple(dec[h] for h in rows[y]) for y in trans)
            self._emb[side], self._trans[side], self._dec[side] = emb, trans, tuple(dec)
            self._tmul[side] = tmul
            self._tk[side] = tuple(tuple(row[x] for x in emb) for row in tmul)
            self._syllable[side] = tuple(tuple(rows[x][y] for x in emb) for y in trans)
            self._tinv[side] = tuple(rows[y].index(0) for y in trans)
        keys = [k.key for k in K.elements]
        rank = [0] * K.order
        for r, k in enumerate(sorted(range(K.order), key=keys.__getitem__)):
            rank[k] = r
        self._alphabet = WordAlphabet(
            K.elements, {s: self.towers[s][0] for s in "PQ"}, tuple(rank)
        )
        # generator indices (I_P, I_Q) of each sub-amalgam: "G_j" = Gamma_j,
        # "P", "Q" and "Pi_j+"; _keys holds their key data once used
        full = tuple(range(n))
        self._kinds = {f"G_{j}": (full[:j] + full[j + 1:],) * 2 for j in full}
        self._kinds.update(P=(full, full[:-1]), Q=(full[:-1], full))
        self._kinds.update({f"Pi_{j}+": (full[j + 1:],) * 2 for j in range(-1, n - 1)})
        self._keys = {}
        self.letters = {f"a{i}": ("P", p_gens[i]) for i in range(n)}
        self.letters["b"] = ("Q", q_gens[n - 1])
        self._letter_index = {f"a{i}": ("P", RP[i][0]) for i in range(n)}
        self._letter_index["b"] = ("Q", RQ[n - 1][0])
        self.identity_word = self._word(0, ())

    # -------------------------------------------------------- normal forms

    def _word(self, kappa, taus):
        return AmalgamWord(kappa, taus, self._alphabet)

    def _absorb(self, kappa, taus, side, h):
        """Multiply the word (kappa, taus) on the right by the element of
        index h in factor `side`: merge h into a last syllable on that
        side, then carry the K-part leftwards through the syllables."""
        if taus and taus[-1][0] == side:
            carry, tau = self._tmul[side][taus[-1][1]][h]
            taus = taus[:-1]
        else:
            carry, tau = self._dec[side][h]
        if carry:
            tk = self._tk
            taus = list(taus)
            for i in range(len(taus) - 1, -1, -1):
                s_i, t_i = taus[i]
                carry, t_i = tk[s_i][t_i][carry]
                taus[i] = (s_i, t_i)
                if not carry:
                    break
            kappa = self._kmul[kappa][carry]
            taus = tuple(taus)
        if tau:
            taus += ((side, tau),)
        return kappa, taus

    def normalize(self, letters) -> AmalgamWord:
        kappa, taus = 0, ()
        for name in letters:
            if name not in self._letter_index:
                raise ValueError(f"unknown generator {name!r}")
            side, h = self._letter_index[name]
            kappa, taus = self._absorb(kappa, taus, side, h)
        return self._word(kappa, taus)

    def _check_word(self, w):
        """Indices mean nothing outside their own context, so a word from
        another context is refused even where its indices would fit."""
        if w.alphabet is not self._alphabet:
            raise ValueError("word does not belong to this context")

    def multiply(self, w1: AmalgamWord, w2: AmalgamWord) -> AmalgamWord:
        self._check_word(w1), self._check_word(w2)
        kappa, taus = self._absorb(
            w1.kappa_index, w1.tau_indices, "P", self._emb["P"][w2.kappa_index]
        )
        trans = self._trans
        for side, t in w2.tau_indices:
            kappa, taus = self._absorb(kappa, taus, side, trans[side][t])
        return self._word(kappa, taus)

    def inverse(self, w: AmalgamWord) -> AmalgamWord:
        self._check_word(w)
        kappa, taus = 0, ()
        tinv = self._tinv
        for side, t in reversed(w.tau_indices):
            kappa, taus = self._absorb(kappa, taus, side, tinv[side][t])
        kinv = self._kinv[w.kappa_index]
        kappa, taus = self._absorb(kappa, taus, "P", self._emb["P"][kinv])
        return self._word(kappa, taus)

    def _inject(self, side, x) -> AmalgamWord:
        kappa, tau = self._dec[side][x]
        return self._word(kappa, ((side, tau),) if tau else ())

    def inject(self, side, g) -> AmalgamWord:
        """Embed an element of a factor group; O(1) table lookup."""
        return self._inject(side, (self.P if side == "P" else self.Q).index_of(g))

    def word_letters(self, w: AmalgamWord):
        """Serialize a word as generator names (a0 ... a_{n-1}, b)."""
        self._check_word(w)
        out = [f"a{i}" for i in self.K.words()[w.kappa_index]]
        for side, t in w.tau_indices:
            G = self.P if side == "P" else self.Q
            for gi in G.words()[self._trans[side][t]]:
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
                reps, c = coset_partition(G, idx)
                hit = [-1] * len(reps)
                for k, x in enumerate(self._emb[side]):
                    if hit[c[x]] < 0:
                        hit[c[x]] = k
                cid[side], land[side] = tuple(c), tuple(hit)
            kcid = tuple(cid["P"][x] for x in self._emb["P"])
            data = self._keys[kind] = (cid, land, kcid)
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
        carry = w.kappa_index
        for i, (side, tau) in enumerate(w.tau_indices):
            c = cid[side][syllable[side][tau][carry]]
            carry = land[side][c]
            if carry < 0:
                return (side, c, w.tau_indices[i + 1:])
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
        gens = [self._letter_index[name] for name in sorted(self._letter_index)]
        seen = dict.fromkeys([(0, ())])  # insertion-ordered
        frontier = list(seen)
        while frontier:
            nxt = []
            for kappa, taus in frontier:
                for side, h in gens:
                    w = self._absorb(kappa, taus, side, h)
                    if len(w[1]) <= radius and w not in seen:
                        seen[w] = None
                        nxt.append(w)
            frontier = nxt
        return [self._word(kappa, taus) for kappa, taus in seen]


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
    Gamma_{r-1}, so one member of each coset of <a_0..a_{r-2}> in
    <a_0..a_{r-1}> suffices.
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
            scan = [ctx._inject(kind, t) for t in ctx._trans[kind]]
        else:
            cid = coset_partition(ctx.P, range(rank - 1))[1]
            reps = {cid[x]: x for x in ctx.P.span(range(rank))}
            scan = [ctx._inject("P", x) for x in reps.values()]
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
        if w == ctx.identity_word:
            return False
    return True


@dataclass(frozen=True)
class UniversalClass:
    kind: str  # "Regular" or "TwoOrbit"
    aut: str


def universal_is_regular(ctx: AmalgamContext) -> UniversalClass:
    """The universal polytope is regular iff the factors are isomorphic by a
    map fixing the shared facet group and swapping the last generators."""
    R = ctx.Q.right_table()
    phi = extend_homomorphism(ctx.P, [R[i][0] for i in range(ctx.n)], target=ctx.Q)
    if phi is not None and len(set(phi)) == ctx.P.order == ctx.Q.order:
        return UniversalClass("Regular", "Pi x| C2 (amalgam extended by the swap)")
    return UniversalClass("TwoOrbit", "Pi (the amalgam itself)")
