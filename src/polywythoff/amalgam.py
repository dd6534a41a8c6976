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

Words are multiplied on the left (``AmalgamContext._left``, the one place
that holds the rule): a factor element times kappa * tau_1 ... tau_m
changes only kappa and tau_1, so ``normalize`` (read right to left),
``multiply`` and ``inverse`` cost O(1) per syllable or letter, in one loop
over the letters or syllables with no call per step. Multiplying on the
right would carry a K-part leftwards through every syllable; only
``ball_elements`` steps that way, because its BFS order picks the ball
faces' representatives. Words (``AmalgamWord``) are immutable slot objects,
equal and hashed on their indices.

The face subgroups Gamma_j (Gamma_{n-1} = K), the facet groups P, Q and
Pi_j+ are sub-amalgams H = <H_P, H_Q>, on generator subsets that agree
below n-1; the intersection property of the C-groups P and Q gives
H_P ∩ K = H_Q ∩ K = H_K.  So every element of H is an element of H_K
followed by syllables alternately in H_P \\ H_K and H_Q \\ H_K, all outside K,
and the normal form of w yields a canonical key of the right coset H*w
(``AmalgamContext.coset_key``).  Membership and the faces of the
bounded-radius ball of the universal semiregular polytope are key lookups.
The key is read by one walk per kind, built once from that kind's coset
tables (``AmalgamContext._key_walk``): one table lookup per syllable it
absorbs. ``enumerate_ball`` calls the walks on its own words, and keys each
cover probe h*w from the new head and w's remaining syllables, since h
changes only kappa and tau_1; it builds no word per probe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .groups import FiniteGroup, coset_partition, extend_homomorphism
from .groups import closure  # noqa: F401  kept for perfbench/tracing.py, which spans it
from .ttgroup import is_string_c_group
from .poset import FacePoset


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


class AmalgamWord:
    """Reduced decomposition on element indices: kappa_index indexes K (on
    the P side), tau_indices holds alternating (side, transversal index)
    pairs, never 0, the identity's index. ``kappa`` and ``taus`` read the
    same word as elements. Immutable; equal and hashed on (kappa_index,
    tau_indices) only. The fields are filled through their slot
    descriptors, a third of a frozen dataclass's cost to build."""

    __slots__ = ("kappa_index", "tau_indices", "alphabet")

    def __init__(self, kappa_index: int, tau_indices: tuple, alphabet: WordAlphabet):
        _set_kappa_index(self, kappa_index)
        _set_tau_indices(self, tau_indices)
        _set_alphabet(self, alphabet)

    def __setattr__(self, name, value):
        raise AttributeError(f"AmalgamWord is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"AmalgamWord is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not AmalgamWord:
            return NotImplemented
        return self.kappa_index == other.kappa_index and self.tau_indices == other.tau_indices

    def __hash__(self):
        return hash((self.kappa_index, self.tau_indices))

    def __repr__(self):
        return f"AmalgamWord(kappa_index={self.kappa_index!r}, tau_indices={self.tau_indices!r})"

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


_set_kappa_index = AmalgamWord.kappa_index.__set__
_set_tau_indices = AmalgamWord.tau_indices.__set__
_set_alphabet = AmalgamWord.alphabet.__set__


def _walker(step, kcid):
    """``AmalgamContext.coset_key``'s walk on a word's indices, over the
    per-kind tables of ``AmalgamContext._key_walk``."""

    def walk(carry, taus):
        for i, (side, t) in enumerate(taus):
            carry = step[side][t][carry]
            if carry < 0:
                return (side, ~carry, taus[i + 1:])
        return ("K", kcid[carry])

    return walk


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
    - ``_tinvk[S][t][k]``: the decomposition of t^-1 * k;
    - ``_syllable[S][t][k]``: the factor index of k * t;

    and ``_kmul``/``_kinv`` for K; ``_kmul[k][x]`` is the index of k * x.
    ``_generators`` gives each generator name as (side, factor index), and
    ``_letter_index`` as one factor of ``_left``. The tables come from rows
    of the factor's multiplication table for the K-elements and transversal
    elements only, each read off the right table with no element products.
    ``_walks`` caches the key walk of each coset kind once used.
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
        self._tmul, self._tk, self._syllable, self._tinvk = {}, {}, {}, {}
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
            tinvk = []
            for y in trans:  # t^-1 * h is the z with t * z = h
                back = [0] * G.order
                for z, h in enumerate(rows[y]):
                    back[h] = z
                tinvk.append(tuple(dec[back[x]] for x in emb))
            self._tinvk[side] = tuple(tinvk)
        keys = [k.key for k in K.elements]
        rank = [0] * K.order
        for r, k in enumerate(sorted(range(K.order), key=keys.__getitem__)):
            rank[k] = r
        self._alphabet = WordAlphabet(
            K.elements, {s: self.towers[s][0] for s in "PQ"}, tuple(rank)
        )
        # generator indices (I_P, I_Q) of each sub-amalgam: "G_j" = Gamma_j,
        # "P", "Q" and "Pi_j+"; _walks holds their key walks once used
        full = tuple(range(n))
        self._kinds = {f"G_{j}": (full[:j] + full[j + 1:],) * 2 for j in full}
        self._kinds.update(P=(full, full[:-1]), Q=(full[:-1], full))
        self._kinds.update({f"Pi_{j}+": (full[j + 1:],) * 2 for j in range(-1, n - 1)})
        self._walks = {}
        self.letters = {f"a{i}": ("P", p_gens[i]) for i in range(n)}
        self.letters["b"] = ("Q", q_gens[n - 1])
        # name -> (side, index of the generator in that factor)
        self._generators = {f"a{i}": ("P", RP[i][0]) for i in range(n)}
        self._generators["b"] = ("Q", RQ[n - 1][0])
        # name -> one factor of _left: ("K", k) for a generator in K, else
        # (side, t), as a_{n-1} and b lie in their transversals (T_{n-1} =
        # (1, g_{n-1}) and the towers are nested)
        self._letter_index = {}
        for name, (side, x) in self._generators.items():
            k, t = self._dec[side][x]
            assert not (k and t), "a generator outside K and its transversal"
            self._letter_index[name] = (side, t) if t else ("K", k)
        self.identity_word = AmalgamWord(0, (), self._alphabet)

    # -------------------------------------------------------- normal forms

    def _absorb(self, kappa, taus, side, h):
        """Multiply the word (kappa, taus) on the right by the element of
        index h in factor `side`: merge h into a last syllable on that
        side, then carry the K-part leftwards through the syllables. Only
        ``ball_elements`` steps to the right: its BFS order picks each ball
        face's representative."""
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

    def _left(self, factors, kappa, rev):
        """Multiply kappa * tau_1 ... tau_m on the left by each of `factors`
        in turn: ("K", k) for K-element k, or (side, t) for the nontrivial
        transversal element t of `side`, as in a word's tau_indices. rev
        holds the syllables last first (rev[-1] = tau_1) and is updated in
        place. Returns the new kappa.

        If tau_1 is on `side`, x = t * kappa * tau_1 is one factor element,
        x = k' * t', and k' * t' * tau_2 ... tau_m is reduced, without t'
        when t' = 1 (tau_2 is on the other side). Otherwise t * kappa =
        k' * t' with t' != 1, as t * kappa is not in K, and k' * t' * tau_1
        ... tau_m alternates. Either way only kappa and tau_1 change."""
        kmul, tmul, tk, syllable = self._kmul, self._tmul, self._tk, self._syllable
        first = rev[-1] if rev else None
        for side, t in factors:
            if side == "K":
                kappa = kmul[t][kappa]
            elif first is not None and first[0] == side:
                kappa, t = tmul[side][t][syllable[side][first[1]][kappa]]
                if t:
                    first = rev[-1] = (side, t)
                else:
                    rev.pop()
                    first = rev[-1] if rev else None
            else:
                kappa, t = tk[side][t][kappa]
                first = (side, t)
                rev.append(first)
        return kappa

    def normalize(self, letters) -> AmalgamWord:
        """The normal form of a product of generator names, read right to
        left: each letter is one factor of ``_left`` (``_letter_index``).
        An unknown letter stops the reading, and then the first unknown one
        in reading order is the one named."""
        letters, rev = tuple(letters), []
        try:
            kappa = self._left(map(self._letter_index.__getitem__, reversed(letters)), 0, rev)
        except KeyError:
            name = next(x for x in letters if x not in self._letter_index)
            raise ValueError(f"unknown generator {name!r}") from None
        rev.reverse()
        return AmalgamWord(kappa, tuple(rev), self._alphabet)

    def _check_word(self, w):
        """Indices mean nothing outside their own context, so a word from
        another context is refused even where its indices would fit."""
        if w.alphabet is not self._alphabet:
            raise ValueError("word does not belong to this context")

    def multiply(self, w1: AmalgamWord, w2: AmalgamWord) -> AmalgamWord:
        """w1 * w2: w2 multiplied on the left by w1's syllables, last first,
        then by w1's kappa (``_left``). O(1) per syllable of w1, plus the
        copy of w2's syllables."""
        self._check_word(w1), self._check_word(w2)
        rev = list(reversed(w2.tau_indices))
        kappa = self._left(reversed(w1.tau_indices), w2.kappa_index, rev)
        rev.reverse()
        return AmalgamWord(self._kmul[w1.kappa_index][kappa], tuple(rev), self._alphabet)

    def inverse(self, w: AmalgamWord) -> AmalgamWord:
        """w^-1 = tau_m^-1 ... tau_1^-1 * kappa^-1, built from kappa^-1 by
        multiplying on the left by tau_1^-1, then tau_2^-1, and so on. The
        partial word tau_{i-1}^-1 ... kappa^-1 is reduced with its first
        syllable on the side of tau_{i-1}, the other side from tau_i; so
        tau_i^-1 * kappa' = k' * t' (``_tinvk``, t' != 1 as tau_i is not
        in K) prepends the syllable t' and sets kappa to k'."""
        self._check_word(w)
        kappa, rev, tinvk = self._kinv[w.kappa_index], [], self._tinvk
        for side, t in w.tau_indices:
            kappa, t = tinvk[side][t][kappa]
            rev.append((side, t))
        rev.reverse()
        return AmalgamWord(kappa, tuple(rev), self._alphabet)

    def _inject(self, side, x) -> AmalgamWord:
        kappa, tau = self._dec[side][x]
        return AmalgamWord(kappa, ((side, tau),) if tau else (), self._alphabet)

    def inject(self, side, g) -> AmalgamWord:
        """Embed an element of factor "P" or "Q"; O(1) table lookup."""
        if side not in ("P", "Q"):
            raise ValueError(f"bad factor side {side!r}")
        return self._inject(side, (self.P if side == "P" else self.Q).index_of(g))

    @cached_property
    def _spellings(self):
        """Generator names of each K-element's word ("K") and of each
        transversal element's word in its factor ("P", "Q"), made on the
        first ``word_letters`` call."""
        names = {s: [f"a{i}" for i in range(self.n)] for s in "PQ"}
        names["Q"][-1] = "b"
        out = {"K": tuple(tuple(names["P"][i] for i in w) for w in self.K.words())}
        for side, G in (("P", self.P), ("Q", self.Q)):
            words = G.words()
            out[side] = tuple(tuple(names[side][i] for i in words[x]) for x in self._trans[side])
        return out

    def word_letters(self, w: AmalgamWord):
        """Serialize a word as generator names (a0 ... a_{n-1}, b)."""
        self._check_word(w)
        spelled = self._spellings
        out = spelled["K"][w.kappa_index]
        for side, t in w.tau_indices:
            out += spelled[side][t]
        return out

    # ---------------------------------------------------------- coset keys

    def _key_walk(self, kind):
        """The walk of ``coset_key`` for one kind, built on first use and
        cached: walk(kappa_index, tau_indices) is the key of H*w. Per side
        S, step[S][t][c] is the least K-index in the H_S-coset of c * t
        (t a transversal index, c a K-index), or ~(that coset's index) when
        the coset misses K; kcid[k] is the H_P-coset of K-element k, which
        names its H_K-coset."""
        walk = self._walks.get(kind)
        if walk is None:
            if kind not in self._kinds:
                raise ValueError(f"bad coset kind {kind!r}")
            step = {}
            for side, G, idx in zip("PQ", (self.P, self.Q), self._kinds[kind]):
                reps, cid = coset_partition(G, idx)
                emb = self._emb[side]
                land = [~c for c in range(len(reps))]
                for k in range(len(emb) - 1, -1, -1):
                    land[cid[emb[k]]] = k
                step[side] = tuple(
                    tuple(land[cid[x]] for x in row) for row in self._syllable[side]
                )
                if side == "P":
                    kcid = tuple(cid[x] for x in emb)
            walk = self._walks[kind] = _walker(step, kcid)
        return walk

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
        The walk itself is ``_key_walk``'s, one per kind.
        """
        self._check_word(w)
        return self._key_walk(kind)(w.kappa_index, w.tau_indices)

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
        gens = [self._generators[name] for name in sorted(self._generators)]
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
        return [AmalgamWord(kappa, taus, self._alphabet) for kappa, taus in seen]


@dataclass(frozen=True)
class Ball:
    ctx: AmalgamContext
    radius: int
    poset: FacePoset
    elements: tuple
    # (rank, kind) -> {coset key: face id}
    index: dict = field(compare=False, repr=False)

    def find_face(self, rank, kind, word):
        """The ball face whose coset contains the given element, if any."""
        ids = self.index.get((rank, kind))
        i = None if ids is None else ids.get(self.ctx.coset_key(kind, word))
        return None if i is None else self.poset.face_list[i]


def enumerate_ball(ctx: AmalgamContext, radius: int) -> Ball:
    """Partial face poset of the universal polytope: every coset face owning
    a representative of transversal length <= radius, represented by its
    first ball element in BFS order, as face ids (``FacePoset.from_ids``).
    The faces of each (rank, kind) are numbered in ``Face.sort_key`` order,
    (rank, kind, rep key), and no ``Face`` is made until one is asked for.
    Each element's key is one call of its kind's walk
    (``AmalgamContext._key_walk``) on the word's indices.

    A face Gamma_{r-1}*u lies under H*w iff it is Gamma_{r-1}*h*w for an h in
    H, and only the coset (Gamma_{r-1} ∩ H)*h matters. For a facet these are
    the cosets of K (transversal T_P or T_Q). For H = Gamma_r =
    <a_0..a_{r-1}> * Pi_r+, both Pi_r+ and <a_0..a_{r-2}> lie in
    Gamma_{r-1}, so one member of each coset of <a_0..a_{r-2}> in
    <a_0..a_{r-1}> suffices.

    Each probe h*w is keyed without building it as a word. Write h = k * t
    in factor S (k in K, t in T_S, possibly 1) and w = kappa * tau_1 ...
    tau_m; left multiplication changes only kappa and tau_1
    (``AmalgamContext._left``). Let x = kappa * tau_1 and rest = tau_2 ...
    tau_m if tau_1 lies on S, else x = kappa and rest = tau_1 ... tau_m,
    with x read in S. Then t * x = k' * t' and h*w = (k k') * t' * rest,
    without t' when t' = 1, and this is reduced: t' and tau_2 lie on
    different sides, and t * kappa is in K only when t = 1. So the key of
    h*w is the walk over the new head, carry k k' and syllable t', then
    the rest; x and rest are found once per face.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    elems = ctx.ball_elements(radius)
    n = ctx.n
    kinds = [(j, f"G_{j}") for j in range(n)] + [(n, "P"), (n, "Q")]
    ranks, kind_of, reps, index = [-1], ["bot"], [None], {}
    for rank, kind in kinds:
        walk, first = ctx._key_walk(kind), {}
        for w in elems:
            first.setdefault(walk(w.kappa_index, w.tau_indices), w)
        ids = index[rank, kind] = {}
        for key, w in sorted(first.items(), key=lambda item: item[1].key):
            ids[key] = len(reps)
            ranks.append(rank), kind_of.append(kind), reps.append(w)
    top = len(reps)
    ranks.append(n + 1), kind_of.append("top"), reps.append(None)
    up = [[] for _ in reps]
    for i, rank in enumerate(ranks):
        if rank == 0:
            up[0].append(i)
        elif rank == n:
            up[i].append(top)
    kmul = ctx._kmul
    for rank, kind in kinds[1:]:
        if kind in ("P", "Q"):  # h = t, the transversal of K in the facet
            side, probes = kind, [(0, t) for t in range(len(ctx._trans[kind]))]
        else:
            side = "P"
            cid = coset_partition(ctx.P, range(rank - 1))[1]
            reps_h = {cid[x]: x for x in ctx.P.span(range(rank))}
            probes = [ctx._dec["P"][x] for x in reps_h.values()]
        tmul, syllable, emb = ctx._tmul[side], ctx._syllable[side], ctx._emb[side]
        low_kind = f"G_{rank - 1}"
        lows, walk = index[rank - 1, low_kind], ctx._key_walk(low_kind)
        for high in index[rank, kind].values():  # ids ascending: up lists come sorted
            kappa, taus = reps[high].kappa_index, reps[high].tau_indices
            if taus and taus[0][0] == side:
                x, rest = syllable[taus[0][1]][kappa], taus[1:]
            else:
                x, rest = emb[kappa], taus
            found = set()
            for k, t in probes:
                head, t = tmul[t][x]
                found.add(lows.get(walk(kmul[k][head], ((side, t),) + rest if t else rest)))
            for low in found:
                if low is not None:
                    up[low].append(high)
    poset = FacePoset.from_ids(None, ranks, kind_of, reps, map(tuple, up))
    return Ball(ctx, radius, poset, tuple(elems), index)


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
