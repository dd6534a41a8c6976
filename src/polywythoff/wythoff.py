"""Coset-based Wythoff construction and polytope verification.

Faces of rank j are right cosets of the distinguished subgroups, ordered by
nonempty coset intersection; the two facet kinds P and Q are kept apart by
a kind tag and are never incident to each other. The face poset
(``poset.FacePoset``) works on integer face ids. The building group acts
on a build by automorphisms, by construction (``_assemble``), so the axiom
and section checks run on builds only, on one incident pair per orbit of
the group, and ``flag_orbits`` counts flags through one vertex (McMullen
and Schulte, *Abstract Regular Polytopes*, §2B and §4A): an automorphism
carries a section onto an isomorphic section and a flag orbit onto itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import FiniteGroup, coset_partition, extend_homomorphism
from .poset import FacePoset, orbits
from .ttgroup import (
    IntersectionResult,
    TailTriangleGroup,
    check_intersection_reduced,
    is_string_c_group,
)


class UnverifiedGroup(ValueError):
    """build_polytope refuses groups that failed (or skipped) verification."""


# ---- builders --------------------------------------------------------------


def _assemble(G: FiniteGroup, levels):
    """levels: list per proper rank of [(kind, key)], bottom first, where
    key holds the generator indices of the face subgroup.

    Faces of a kind are the cosets of ``coset_partition`` in ``cid`` order,
    which sorts them by the key of their least representative, and the
    kinds of a rank come in name order, ranks ascending from the bottom to
    the top. That is strictly increasing ``Face.sort_key`` order, the order
    ``FacePoset.from_ids`` takes. A face is kept as its rank, its kind and
    the element index of its representative; no ``Face`` and no element is
    made. Two cosets are incident exactly when they share an element. A
    generator g moves the coset Hx to Hxg, the coset of the right-table
    image of any element of Hx, its representative say, and fixes the
    bottom and top.

    So Γ acts on the faces by right multiplication, and by automorphisms:
    Hx ∩ Ky is empty exactly when Hxg ∩ Kyg is, so the action keeps
    covers, and Hxg is a coset of the same H, so it keeps ranks and kinds.
    It is transitive on the cosets of each kind, as Hx = (H·1)x. The base
    faces are the cosets of element 0, the identity, one per kind, with
    the bottom and the top: each face is the image of the base face of its
    kind, and the stabilizer of H·1 is H (McMullen and Schulte, §2B).

    Covers by transport. The cosets of K on the next rank that meet the
    base face H·1 are the cosets K·h for h in H, so the covers above H·1
    are {cid_K[h] : h in H}: |H| lookups per kind K, with no pass over Γ.
    An automorphism g carries the faces covering F onto the faces covering
    F·g, so a search from H·1 along ``moves`` fills the covers of every
    face of the kind, each from the face it was reached from. The search
    reaches them all, as the generators move H·1 to every coset of H. The
    faces of the top proper rank are covered by the top alone, and the
    bottom by the vertices. ``from_ids`` reads the covers below each face
    off these.
    """
    nprop = len(levels)
    ranks, kinds, reps = [-1], ["bot"], [None]
    blocks = []  # per proper rank: [(first id, key, cid, reps)] per kind
    for rank, level in enumerate(levels):
        block = []
        for kind, key in sorted(level):
            kind_reps, cid = coset_partition(G, key)
            block.append((len(ranks), key, cid, kind_reps))
            ranks += [rank] * len(kind_reps)
            kinds += [kind] * len(kind_reps)
            reps += kind_reps
        blocks.append(block)
    top = len(ranks)
    ranks.append(nprop)
    kinds.append("top")
    reps.append(None)

    moves = []
    for row in G.right_table():
        move = [0]
        for block in blocks:
            for first, _, cid, kind_reps in block:
                move += [first + cid[row[x]] for x in kind_reps]
        move.append(top)
        moves.append(move)

    starts = [block[0][0] for block in blocks] + [top]  # first id per rank
    up: list = [None] * (top + 1)
    up[0], up[top] = tuple(range(starts[0], starts[1])), ()
    for lows, highs in zip(blocks, blocks[1:]):
        for first, key, cid, _ in lows:
            H = G.span(key)
            covers = []
            for high_first, _, high_cid, _ in highs:
                covers += sorted({high_first + high_cid[h] for h in H})
            x = first + cid[0]
            up[x] = tuple(covers)
            queue = [x]
            for f in queue:  # grows while it is read: a queue
                ups = up[f]
                for move in moves:
                    y = move[f]
                    if up[y] is None:
                        up[y] = tuple(sorted(map(move.__getitem__, ups)))
                        queue.append(y)
    up[starts[-2] : top] = [(top,)] * (top - starts[-2])

    base = [0, top] + [first + cid[0] for block in blocks for first, _, cid, _ in block]
    return FacePoset.from_ids(G, ranks, kinds, reps, up, moves, base)


def build_polytope(
    G: TailTriangleGroup, verification: IntersectionResult | None = None
) -> FacePoset:
    """Wythoff construction for a verified tail-triangle C-group."""
    if verification is None:
        verification = check_intersection_reduced(G)
    if not verification.ok:
        raise UnverifiedGroup(
            f"group failed the intersection condition ({verification.mode}): "
            f"witness={verification.witness} "
            f"precondition={verification.precondition_failure}"
        )
    n = G.n
    levels = [[(f"G_{j}", G.gamma(j))] for j in range(n)]
    levels.append([("P", G.gamma_P()), ("Q", G.gamma_Q())])
    return _assemble(G.group, levels)


def build_regular(gens) -> FacePoset:
    """Wythoff construction for a string C-group (regular polytope)."""
    res = is_string_c_group(gens)
    if not res:
        raise UnverifiedGroup(f"not a string C-group: {res.reason}")
    G = res.group
    r = len(gens)
    levels = [[(f"G_{j}", [i for i in range(r) if i != j])] for j in range(r)]
    return _assemble(G, levels)


# ---- verification ops -------------------------------------------------------


def verify_diamond(P: FacePoset):
    """Axiom B on a Wythoff build: incident faces two ranks apart have
    exactly two middles.

    Checked on ``P.pairs(r, r + 2)``: an automorphism carries the middles
    of a pair onto the middles of its image, so the count is the same along
    an orbit. Returns (True, None) or (False, (low, high, count)).
    """
    up, down = P.up_ids, P.down_ids
    for r in range(P.bottom_rank, P.top_rank - 1):
        for low, high in P.pairs(r, r + 2):
            c = len(set(up[low]).intersection(down[high]))
            if c != 2:
                return False, (P.face_list[low], P.face_list[high], c)
    return True, None


def _section_connected(P: FacePoset, low: int, high: int) -> bool:
    """Whether the faces one rank below ``high`` in the section high/low are
    connected through the faces two ranks below it (the facet-ridge graph
    of the section)."""
    up, down = P.up_ids, P.down_ids
    levels = P.levels_above(low)
    depth = P.rank_of[high] - P.rank_of[low]
    nodes_above, mids_above = levels[depth - 1], levels[depth - 2]
    nodes = [f for f in down[high] if f in nodes_above]
    if not nodes:
        return False
    node_set = set(nodes)
    seen = {nodes[0]}
    frontier = [nodes[0]]
    while frontier:
        nxt = []
        for x in frontier:
            for m in down[x]:
                if m in mids_above:
                    for y in up[m]:
                        if y in node_set and y not in seen:
                            seen.add(y)
                            nxt.append(y)
        frontier = nxt
    return len(seen) == len(nodes)


def verify_strong_connectivity(P: FacePoset) -> bool:
    """Axiom C on a Wythoff build, via facet-ridge graph connectivity of
    every section.

    Sections of rank <= 1 are trivially connected and skipped. Checked on
    ``P.pairs(r, s)``: an automorphism maps a section onto an isomorphic
    one, so the answer is the same along an orbit. A poset without an
    action is refused at every rank, even one with no section to check
    (``FacePoset.base_of``).
    """
    P.base_of(P.bottom_rank)
    for r in range(P.bottom_rank, P.top_rank - 2):
        for s in range(r + 3, P.top_rank + 1):
            for low, high in P.pairs(r, s):
                if not _section_connected(P, low, high):
                    return False
    return True


@dataclass(slots=True)
class TwoSection:
    """The section top/base of the face ``base_id`` of rank n-2."""

    base_id: int
    size: int  # number of top-rank faces around the polygon
    is_polygon: bool
    alternating: bool  # facet kinds P,Q,P,Q,... (when kinds are tagged)


def _two_section(P: FacePoset, base: int) -> tuple:
    """(size, is_polygon, alternating) of the section top/base.

    Its ridges are the faces covering ``base`` and its facets the faces
    covering those. It is a polygon when every ridge lies in exactly two
    facets and every facet holds exactly two ridges, so the facet-ridge
    graph is 2-regular, and that graph is connected
    (``_section_connected``): a connected 2-regular graph is one cycle.
    Consecutive facets around the cycle share a ridge, and each ridge joins
    two consecutive facets, so the facet kinds alternate around the cycle
    exactly when the two facets of every ridge differ in kind.
    """
    up, down = P.up_ids, P.down_ids
    ridges = up[base]
    ridge_set = set(ridges)
    facets = {f for r in ridges for f in up[r]}
    ok = (
        bool(facets)
        and all(len(up[r]) == 2 for r in ridges)
        and all(sum(1 for x in down[f] if x in ridge_set) == 2 for f in facets)
        and _section_connected(P, base, P.ids(P.top_rank)[0])
    )
    kind = P.kind_of
    alternating = ok and all(kind[a] != kind[b] for a, b in map(up.__getitem__, ridges))
    return len(facets), ok, alternating


def two_sections(P: FacePoset) -> list[TwoSection]:
    """Each co-rank-2 section of the greatest face of a Wythoff build, with
    alternation check.

    One ``TwoSection`` per face of rank n-2 (n the facet rank), in face
    order. A section is computed once per kind of these faces, at the
    kind's base face (``P.base_of``), and copied to the other faces of the
    kind. The group acts on them transitively and by automorphisms
    (``_assemble``), and an automorphism keeps kinds, so it carries a
    section onto one of the same size, shape and kind sequence.
    """
    kind = P.kind_of
    found = {k: _two_section(P, x) for k, x in P.base_of(P.top_rank - 3).items()}
    return [TwoSection(b, *found[kind[b]]) for b in P.ids(P.top_rank - 3)]


def flag_orbits(P: FacePoset, G: TailTriangleGroup):
    """(orbit count, flag count, action is free) under the right Γ-action.

    ``P`` must be a Wythoff build of ``G`` with one kind of vertex:
    ``P.moves`` is then the action of Γ's generators, by automorphisms and
    transitive on the vertices V (``_assemble``), and the base vertex v is
    the coset of the identity. Raises ValueError if ``P`` has no single
    base vertex (it is not a build, or not vertex-transitive), or if the
    generators fixing v generate a subgroup Γ_0 of order other than
    |Γ|/|V|. The flags are not listed. Γ_0 lies in the stabilizer of v,
    whose order is |Γ|/|V|, so Γ_0 is the stabilizer (for a build, v's
    stabilizer is the subgroup of its rank, which is generated by the
    generators it holds; see ``FacePoset.pairs``).
    Every vertex lies in as many flags as v, so there are
    |V| × (flags through v). Each flag orbit meets the flags through v, and
    an element mapping one flag through v to another fixes v, so lies in
    Γ_0: the Γ-orbits are the Γ_0-orbits on the flags through v
    (``poset.orbits``). A flag's stabilizer fixes v too, so its Γ-orbit
    has |V| × (its Γ_0-orbit size) flags, and the action is free iff that
    is |Γ| for each orbit.
    """
    order = G.group.order
    verts = P.ids(0)
    base = list(P.base_of(0).values())
    if len(base) != 1:
        raise ValueError("flag_orbits needs a Wythoff build with one kind of vertex")
    (v,) = base
    fix = [gi for gi, m in enumerate(P.moves) if m[v] == v]
    if len(G.group.span(fix)) * len(verts) != order:
        raise ValueError("the generators fixing the base vertex do not generate its stabilizer")
    through = P.chains_up([(v,)])
    maps = [lambda fl, m=P.moves[gi]: tuple(map(m.__getitem__, fl)) for gi in fix]
    sizes = [len(orbit) for orbit in orbits(through, maps)]
    free = all(len(verts) * s == order for s in sizes)
    return len(sizes), len(verts) * len(through), free


@dataclass
class Classification:
    kind: str  # "Regular" | "TwoOrbit"
    aut_order: int
    schlafli: list | None  # {p_1,...,p_{n-1},2k} in the regular case

    def __str__(self):
        return self.kind


def classify(P: FacePoset, G: TailTriangleGroup) -> Classification:
    """Regular iff the diagram symmetry swapping a_{n-1} and b extends to Gamma."""
    R, n = G.group.right_table(), G.n
    images = [R[i][0] for i in (*range(n - 1), n, n - 1)]  # generator i is R[i][0]
    phi = extend_homomorphism(G.group, images, target=G.group)
    if phi is not None:
        schlafli = G.diagram.schlafli_tail() + [2 * G.diagram.k]
        return Classification("Regular", 2 * G.group.order, schlafli)
    return Classification("TwoOrbit", G.group.order, None)


def vertex_figure(P: FacePoset, v: int) -> FacePoset:
    """The section top/v of the vertex with id ``v``."""
    if P.rank_of[v] != 0:
        raise ValueError("vertex figure requires a rank-0 face")
    return P.section(v, P.ids(P.top_rank)[0])


def facet_section(P: FacePoset, f: int) -> FacePoset:
    """The section f/bottom of the facet with id ``f``."""
    if P.rank_of[f] != P.top_rank - 1:
        raise ValueError("facet section requires a top-proper-rank face")
    return P.section(P.ids(P.bottom_rank)[0], f)


# ---- isomorphism -------------------------------------------------------------


def _invariants(P: FacePoset):
    """Rank spans, up degrees and the flag count: ids only, no ``Face``."""
    ranks = range(P.bottom_rank, P.top_rank + 1)
    return (
        ranks,
        [len(P.ids(r)) for r in ranks],
        [sorted(len(P.up_ids[i]) for i in P.ids(r)) for r in ranks],
        len(P.flag_ids()),
    )


def poset_isomorphic(P1: FacePoset, P2: FacePoset):
    """Rank- and incidence-preserving bijection, or None.

    Seeded flag search: a flag-to-flag correspondence propagates through
    j-adjacency and determines the whole map; every flag of P2 is tried as
    the image of a fixed base flag of P1. Both posets must satisfy the
    diamond condition (flag adjacency must be well defined). The map is
    returned as a dict from the face ids of P1 to those of P2, the bottom
    and the top included.
    """
    if _invariants(P1) != _invariants(P2):
        return None
    flags1, flags2 = P1.flag_ids(), P2.flag_ids()
    adj1, adj2 = P1.flag_adjacency(), P2.flag_adjacency()
    if any(None in row for row in adj1) or any(None in row for row in adj2):
        return None
    nprop = P1.top_rank - P1.bottom_rank - 1
    nflags = len(flags1)
    up1, up2 = P1.up_ids, P2.up_ids
    (top1,) = P1.ids(P1.top_rank)
    for seed in range(nflags):
        pairing = [-1] * nflags  # P1 flag index -> P2 flag index
        taken = [False] * nflags
        pairing[0] = seed
        taken[seed] = True
        frontier = [0]
        ok = True
        while frontier and ok:
            nxt = []
            for i in frontier:
                m = pairing[i]
                for j in range(nprop):
                    a, b = adj1[i][j], adj2[m][j]
                    if pairing[a] == -1:
                        if taken[b]:
                            ok = False
                            break
                        pairing[a] = b
                        taken[b] = True
                        nxt.append(a)
                    elif pairing[a] != b:
                        ok = False
                        break
                if not ok:
                    break
            frontier = nxt
        if not ok or -1 in pairing:
            continue
        # face map must be single valued and bijective
        fmap: dict[int, int] = {}
        good = True
        for i, m in enumerate(pairing):
            for f1, f2 in zip(flags1[i], flags2[m]):
                if fmap.setdefault(f1, f2) != f2:
                    good = False
                    break
            if not good:
                break
        if not good or len(set(fmap.values())) != len(fmap):
            continue
        # covers preserved (flags cover the proper part; improper are forced)
        if all(fmap[b] in up2[fmap[a]] for a in fmap for b in up1[a] if b != top1):
            fmap[P1.ids(P1.bottom_rank)[0]] = P2.ids(P2.bottom_rank)[0]
            fmap[top1] = P2.ids(P2.top_rank)[0]
            return fmap
    return None


# ---- export -------------------------------------------------------------------


def export_hasse(P: FacePoset, summary: str | None = None) -> str:
    """Line-oriented text export: faces, covers, optional summary line.

    Representatives are printed by ``P.rep_texts``, so a build's export
    makes no ``Face`` and no element. The cover lines of a face are joined
    into one string, which keeps the list of parts short."""
    kinds = P.kind_of
    number = [-1] * len(kinds)  # export number per face id; bot and top have none
    lines = []
    for i, (rank, kind, rep) in enumerate(zip(P.rank_of, kinds, P.rep_texts())):
        if kind in ("bot", "top"):
            continue
        number[i] = len(lines)
        lines.append(f"face {number[i]} rank={rank} kind={kind} rep={rep}")
    text = list(map(str, number))
    for i, ups in enumerate(P.up_ids):
        if number[i] < 0:
            continue
        head = f"cover {text[i]} "
        covers = [head + text[j] for j in ups if kinds[j] != "top"]
        if covers:
            lines.append("\n".join(covers))
    if summary:
        lines.append(summary)
    lines.append("")  # the closing newline, with no copy of the text
    return "\n".join(lines)
