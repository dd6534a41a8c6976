"""Coset-based Wythoff construction and polytope verification.

Faces of rank j are right cosets of the distinguished subgroups, ordered by
nonempty coset intersection; the two facet kinds P and Q are kept apart by
a kind tag and are never incident to each other. The poset itself is purely
combinatorial (faces + covering relations), so sections, axiom checks and
isomorphism tests also work on posets built by hand (toroid oracles, broken
examples).
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import FiniteGroup, coset_partition, extend_homomorphism
from .ttgroup import (
    IntersectionResult,
    TailTriangleGroup,
    check_intersection_reduced,
    is_string_c_group,
)


class UnverifiedGroup(ValueError):
    """build_polytope refuses groups that failed (or skipped) verification."""


@dataclass(frozen=True)
class Face:
    rank: int
    kind: str  # "G_<j>", "P", "Q", "bot", "top"
    rep: object  # canonical coset representative; None for improper faces

    def sort_key(self):
        rep = self.rep
        return (self.rank, self.kind, getattr(rep, "key", rep) if rep is not None else ())

    def __repr__(self):
        return f"Face({self.rank},{self.kind},{self.rep})"


class FacePoset:
    """Ranked face set with covering incidences (rank j to j+1 only)."""

    def __init__(self, faces_by_rank: dict, covers, action=None):
        self.faces_by_rank = {
            r: tuple(sorted(fs, key=Face.sort_key)) for r, fs in faces_by_rank.items()
        }
        self.bottom_rank = min(self.faces_by_rank)
        self.top_rank = max(self.faces_by_rank)
        self.up: dict[Face, tuple] = {f: [] for fs in self.faces_by_rank.values() for f in fs}
        self.down: dict[Face, tuple] = {f: [] for f in self.up}
        for low, high in covers:
            self.up[low].append(high)
            self.down[high].append(low)
        for f in self.up:
            self.up[f] = tuple(sorted(self.up[f], key=Face.sort_key))
            self.down[f] = tuple(sorted(self.down[f], key=Face.sort_key))
        self.down_sets = {f: frozenset(v) for f, v in self.down.items()}
        # action[f][gi] = image of face f under generator gi of the group,
        # present only for group-built posets; powers the flag action
        self.action = action or {}
        self._flags: list | None = None
        self._flag_index: dict | None = None
        self._adj: list | None = None
        self._upsets: dict = {}
        self._downsets: dict = {}

    # ---- basic structure -------------------------------------------------

    def bottom(self) -> Face:
        (f,) = self.faces_by_rank[self.bottom_rank]
        return f

    def top(self) -> Face:
        (f,) = self.faces_by_rank[self.top_rank]
        return f

    def proper_ranks(self) -> range:
        return range(self.bottom_rank + 1, self.top_rank)

    def faces(self, rank: int) -> tuple:
        return self.faces_by_rank.get(rank, ())

    def all_faces(self):
        for r in sorted(self.faces_by_rank):
            yield from self.faces_by_rank[r]

    def f_vector(self) -> tuple:
        return tuple(len(self.faces_by_rank[r]) for r in self.proper_ranks())

    def facet_split(self):
        """(count_P, count_Q) at the top proper rank, if kinds are split."""
        tops = self.faces_by_rank[self.top_rank - 1]
        kinds = {f.kind for f in tops}
        if kinds == {"P", "Q"}:
            nP = sum(1 for f in tops if f.kind == "P")
            return nP, len(tops) - nP
        return None

    def f_vector_str(self) -> str:
        fv = list(map(str, self.f_vector()))
        split = self.facet_split()
        if split:
            fv[-1] = f"{split[0]}+{split[1]}"
        return "(" + ", ".join(fv) + ")"

    def upset(self, f: Face) -> frozenset:
        got = self._upsets.get(f)
        if got is None:
            acc = set()
            frontier = [f]
            while frontier:
                nxt = []
                for x in frontier:
                    for y in self.up[x]:
                        if y not in acc:
                            acc.add(y)
                            nxt.append(y)
                frontier = nxt
            got = self._upsets[f] = frozenset(acc)
        return got

    def downset(self, f: Face) -> frozenset:
        got = self._downsets.get(f)
        if got is None:
            acc = set()
            frontier = [f]
            while frontier:
                nxt = []
                for x in frontier:
                    for y in self.down[x]:
                        if y not in acc:
                            acc.add(y)
                            nxt.append(y)
                frontier = nxt
            got = self._downsets[f] = frozenset(acc)
        return got

    def less(self, f: Face, g: Face) -> bool:
        return g in self.upset(f)

    # ---- flags -----------------------------------------------------------

    def flags(self) -> list[tuple]:
        """All maximal proper chains, one face per proper rank.

        Chains grow one rank at a time, each in the order of ``up``, so the
        flags come in lexicographic order.
        """
        if self._flags is None:
            chains = [(v,) for v in self.up[self.bottom()]]
            for _ in range(self.top_rank - self.bottom_rank - 2):
                chains = [c + (h,) for c in chains for h in self.up[c[-1]]]
            self._flags = [c for c in chains if c[-1].rank == self.top_rank - 1]
            self._flag_index = {fl: i for i, fl in enumerate(self._flags)}
        return self._flags

    def flag_adjacency(self) -> list[tuple]:
        """adj[i][j] = index of the unique j-adjacent flag of flag i.

        Requires the diamond condition; entries are None where the middle
        face count is not exactly two.
        """
        if self._adj is None:
            flags = self.flags()
            nprop = self.top_rank - self.bottom_rank - 1
            adj = []
            for fl in flags:
                row = []
                for j in range(nprop):
                    low = fl[j - 1] if j > 0 else self.bottom()
                    high = fl[j + 1] if j < nprop - 1 else self.top()
                    mids = [h for h in self.up[low] if h in self.down_sets[high]]
                    if len(mids) != 2:
                        row.append(None)
                        continue
                    other = mids[0] if mids[1] == fl[j] else mids[1]
                    row.append(self._flag_index[fl[:j] + (other,) + fl[j + 1 :]])
                adj.append(tuple(row))
            self._adj = adj
        return self._adj

    # ---- sections ----------------------------------------------------------

    def section(self, low: Face, high: Face) -> "FacePoset":
        """The polytope-style section high/low, re-ranked from -1."""
        if not self.less(low, high):
            raise ValueError("section requires low < high")
        members = (self.upset(low) & self.downset(high)) | {low, high}
        shift = low.rank + 1
        remap = {f: Face(f.rank - shift, f.kind, f.rep) for f in members}
        faces_by_rank: dict[int, list] = {}
        for old, new in remap.items():
            faces_by_rank.setdefault(new.rank, []).append(new)
        covers = [
            (remap[a], remap[b])
            for a in members
            for b in self.up[a]
            if b in members
        ]
        return FacePoset(faces_by_rank, covers)

    # ---- group action ------------------------------------------------------

    def face_image(self, f: Face, gi: int) -> Face:
        """The image of face f under generator gi of the building group."""
        return self.action[f][gi]


# ---- builders --------------------------------------------------------------


def _assemble(G: FiniteGroup, levels):
    """levels: list per proper rank of [(kind, subgroup)], bottom first.

    Faces of a kind are the cosets of ``coset_partition``, numbered by
    ``cid``. Two cosets are incident exactly when they share an element, so
    the covers between consecutive ranks are the pairs (cid_low[e],
    cid_high[e]) over all elements e. A generator g moves the coset Hx to
    Hxg, the coset of its representative's right-table image.
    """
    nprop = len(levels)
    bot, top = Face(-1, "bot", None), Face(nprop, "top", None)
    faces_by_rank: dict[int, list] = {-1: [bot], nprop: [top]}
    parts = []  # per proper rank: [(faces, cid)] per kind
    for rank, kinds in enumerate(levels):
        part = []
        for kind, H in kinds:
            reps, cid = coset_partition(G, H)
            part.append(([Face(rank, kind, r) for r in reps], cid))
        parts.append(part)
        faces_by_rank[rank] = [f for faces, _ in part for f in faces]

    covers = [(bot, v) for v in faces_by_rank[0]]
    covers += [(f, top) for f in faces_by_rank[nprop - 1]]
    for lows, highs in zip(parts, parts[1:]):
        for low_faces, low_cid in lows:
            for high_faces, high_cid in highs:
                covers += [
                    (low_faces[a], high_faces[b]) for a, b in set(zip(low_cid, high_cid))
                ]

    R = G.right_table()
    action = {}
    for part in parts:
        for faces, cid in part:
            for f in faces:
                x = G.index_of(f.rep)
                action[f] = tuple(faces[cid[row[x]]] for row in R)
    return FacePoset(faces_by_rank, covers, action)


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


def build_regular(gens, cap=None) -> FacePoset:
    """Wythoff construction for a string C-group (regular polytope)."""
    res = is_string_c_group(gens, cap=cap)
    if not res:
        raise UnverifiedGroup(f"not a string C-group: {res.reason}")
    G = res.group
    r = len(gens)
    levels = [[(f"G_{j}", G.sub(i for i in range(r) if i != j))] for j in range(r)]
    return _assemble(G, levels)


# ---- verification ops -------------------------------------------------------


def verify_diamond(P: FacePoset):
    """Axiom B: incident faces two ranks apart have exactly two middles."""
    counts: dict[tuple, int] = {}
    for mid in P.all_faces():
        if mid.kind in ("bot", "top"):
            continue
        for low in P.down[mid]:
            for high in P.up[mid]:
                counts[(low, high)] = counts.get((low, high), 0) + 1
    for (low, high), c in counts.items():
        if c != 2:
            return False, (low, high, c)
    return True, None


def verify_strong_connectivity(P: FacePoset) -> bool:
    """Axiom C via facet-ridge graph connectivity of every section.

    Sections of rank <= 1 are trivially connected and skipped.
    """
    for low in P.all_faces():
        ups = P.upset(low)
        for high in ups:
            if high.rank - low.rank < 3:
                continue
            members = ups & P.downset(high)
            nodes = [f for f in members if f.rank == high.rank - 1]
            mids = [f for f in members if f.rank == high.rank - 2]
            if not nodes:
                return False
            neighbours: dict[Face, set] = {f: set() for f in nodes}
            node_set = set(nodes)
            for m in mids:
                above = [f for f in P.up[m] if f in node_set]
                for a in above:
                    for b in above:
                        if a != b:
                            neighbours[a].add(b)
            seen = {nodes[0]}
            frontier = [nodes[0]]
            while frontier:
                nxt = []
                for x in frontier:
                    for y in neighbours[x]:
                        if y not in seen:
                            seen.add(y)
                            nxt.append(y)
                frontier = nxt
            if len(seen) != len(nodes):
                return False
    return True


@dataclass
class TwoSection:
    base: Face
    size: int  # number of top-rank faces around the polygon
    is_polygon: bool
    alternating: bool  # facet kinds P,Q,P,Q,... (when kinds are tagged)


def two_sections(P: FacePoset) -> list[TwoSection]:
    """Each co-rank-2 section of the greatest face, with alternation check."""
    facet_rank = P.top_rank - 1
    base_rank = facet_rank - 2
    out = []
    for base in P.faces(base_rank):
        ups = P.upset(base)
        ridges = [f for f in ups if f.rank == facet_rank - 1]
        facets = [f for f in ups if f.rank == facet_rank]
        ok = bool(facets) and all(
            sum(1 for x in P.up[r] if x in set(facets)) == 2 for r in ridges
        ) and all(
            sum(1 for x in P.down[f] if x in set(ridges)) == 2 for f in facets
        )
        alternating = False
        if ok:
            # walk the cycle facet -> ridge -> facet, collecting facet kinds
            ridge_set = set(ridges)
            start = facets[0]
            seq = [start]
            prev_ridge = None
            cur = start
            while True:
                nxt_ridges = [r for r in P.down[cur] if r in ridge_set and r != prev_ridge]
                if not nxt_ridges:
                    ok = False
                    break
                prev_ridge = nxt_ridges[0]
                nxt = [f for f in P.up[prev_ridge] if f != cur]
                cur = nxt[0]
                if cur == start:
                    break
                seq.append(cur)
            if ok and len(seq) != len(facets):
                ok = False  # more than one cycle: not a polygon
            if ok:
                kinds = [f.kind for f in seq]
                alternating = all(
                    kinds[i] != kinds[(i + 1) % len(kinds)] for i in range(len(kinds))
                )
        out.append(TwoSection(base, len(facets), ok, alternating))
    return out


def flag_orbits(P: FacePoset, G: TailTriangleGroup):
    """(orbit count, flag count, action is free) under the right Gamma-action.

    Faces and flags are numbered, and each generator acts on a flag face by
    face through ``P.action``.
    """
    fid = {f: i for i, f in enumerate(P.action)}
    moves = [[fid[imgs[gi]] for imgs in P.action.values()] for gi in range(len(G.gens))]
    flags = [tuple(fid[f] for f in fl) for fl in P.flags()]
    index = {fl: i for i, fl in enumerate(flags)}
    seen = [False] * len(flags)
    orbits = 0
    orbit_sizes = []
    for i0 in range(len(flags)):
        if seen[i0]:
            continue
        orbits += 1
        size = 0
        frontier = [i0]
        seen[i0] = True
        while frontier:
            nxt = []
            for i in frontier:
                size += 1
                fl = flags[i]
                for move in moves:
                    j = index[tuple([move[f] for f in fl])]
                    if not seen[j]:
                        seen[j] = True
                        nxt.append(j)
            frontier = nxt
        orbit_sizes.append(size)
    free = all(s == G.group.order for s in orbit_sizes)
    return orbits, len(flags), free


@dataclass
class Classification:
    kind: str  # "Regular" | "TwoOrbit"
    aut_order: int
    schlafli: list | None  # {p_1,...,p_{n-1},2k} in the regular case

    def __str__(self):
        return self.kind


def classify(P: FacePoset, G: TailTriangleGroup) -> Classification:
    """Regular iff the diagram symmetry swapping a_{n-1} and b extends to Gamma."""
    images = list(G.alphas[:-1]) + [G.beta, G.alphas[-1]]
    phi = extend_homomorphism(G.group, images, target=G.group)
    if phi is not None:
        schlafli = G.diagram.schlafli_tail() + [2 * G.diagram.k]
        return Classification("Regular", 2 * G.group.order, schlafli)
    return Classification("TwoOrbit", G.group.order, None)


def vertex_figure(P: FacePoset, v: Face) -> FacePoset:
    if v.rank != 0:
        raise ValueError("vertex figure requires a rank-0 face")
    return P.section(v, P.top())


def facet_section(P: FacePoset, f: Face) -> FacePoset:
    if f.rank != P.top_rank - 1:
        raise ValueError("facet section requires a top-proper-rank face")
    return P.section(P.bottom(), f)


def verify_vertex_figure(P: FacePoset, G: TailTriangleGroup) -> bool:
    """Recursive cross-check: the vertex figure matches the rank-(n-1) build on
    Gamma_0 = <a1..a_{n-1},b> with the ring moved to a1."""
    from .ttgroup import verify_tail_triangle

    if G.n < 2:
        return True
    v = P.faces(0)[0]
    sub = verify_tail_triangle(G.alphas[1:], G.beta, cap=G.cap)
    expected = build_polytope(sub)
    return poset_isomorphic(vertex_figure(P, v), expected) is not None


def verify_facet_sections(P: FacePoset, G: TailTriangleGroup) -> bool:
    """Facet sections are the regular polytopes of the facet subgroups."""
    for kind, gens in (("P", G.alphas), ("Q", G.alphas[:-1] + (G.beta,))):
        expected = build_regular(gens, cap=G.cap)
        f = next(x for x in P.faces(P.top_rank - 1) if x.kind == kind)
        if poset_isomorphic(facet_section(P, f), expected) is None:
            return False
    return True


def vertex_transitive(P: FacePoset, G: TailTriangleGroup) -> bool:
    """The orbit of one vertex, a BFS under the generators, is every vertex."""
    verts = P.faces(0)
    orbit = {verts[0]}
    frontier = [verts[0]]
    while frontier:
        nxt = []
        for f in frontier:
            for gi in range(len(G.gens)):
                img = P.face_image(f, gi)
                if img not in orbit:
                    orbit.add(img)
                    nxt.append(img)
        frontier = nxt
    return orbit == set(verts)


# ---- isomorphism -------------------------------------------------------------


def _invariants(P: FacePoset):
    return (
        sorted(P.faces_by_rank),
        [len(P.faces(r)) for r in sorted(P.faces_by_rank)],
        [sorted(len(P.up[f]) for f in P.faces(r)) for r in sorted(P.faces_by_rank)],
        len(P.flags()),
    )


def poset_isomorphic(P1: FacePoset, P2: FacePoset):
    """Rank- and incidence-preserving bijection, or None.

    Seeded flag search: a flag-to-flag correspondence propagates through
    j-adjacency and determines the whole map; every flag of P2 is tried as
    the image of a fixed base flag of P1. Both posets must satisfy the
    diamond condition (flag adjacency must be well defined).
    """
    if _invariants(P1) != _invariants(P2):
        return None
    flags1, flags2 = P1.flags(), P2.flags()
    adj1, adj2 = P1.flag_adjacency(), P2.flag_adjacency()
    if any(None in row for row in adj1) or any(None in row for row in adj2):
        return None
    nprop = P1.top_rank - P1.bottom_rank - 1
    nflags = len(flags1)
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
        fmap: dict[Face, Face] = {}
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
        if all(
            fmap[b] in set(P2.up[fmap[a]])
            for a in fmap
            for b in P1.up[a]
            if b.rank < P1.top_rank
        ):
            fmap[P1.bottom()] = P2.bottom()
            fmap[P1.top()] = P2.top()
            return fmap
    return None


# ---- export -------------------------------------------------------------------


def export_hasse(P: FacePoset, summary: str | None = None) -> str:
    """Line-oriented text export: faces, covers, optional summary line."""
    ids = {}
    lines = []
    for f in P.all_faces():
        if f.kind in ("bot", "top"):
            continue
        ids[f] = len(ids)
        lines.append(f"face {ids[f]} rank={f.rank} kind={f.kind} rep={f.rep}")
    for f in P.all_faces():
        if f.kind in ("bot", "top"):
            continue
        for g in P.up[f]:
            if g.kind == "top":
                continue
            lines.append(f"cover {ids[f]} {ids[g]}")
    if summary:
        lines.append(summary)
    return "\n".join(lines) + "\n"
