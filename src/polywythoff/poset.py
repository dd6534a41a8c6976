"""Ranked face posets on integer face ids; a Wythoff build also carries
its group action.

A poset is purely combinatorial: faces and their covering relations, so
sections, flags and isomorphism tests work alike on the Wythoff builds, the
amalgam balls and posets built by hand (toroid oracles, broken examples).
Every poset is made on one path, ``FacePoset.from_ids``, as integer face
ids with a rank, a kind and a representative each; covers, the group
action, flags and isomorphisms are tuples or maps of ids, and a section is
an id slice of its parent, named by the ids of its least and greatest
faces. ``Face`` objects are made only when one is asked for: to print, to
report a witness or to answer the Face-keyed view ``up``. Only a Wythoff
build (``wythoff._assemble``) has an action, and its group acts by
automorphisms by construction, so ``FacePoset.pairs`` lists one incident
pair per orbit of the group (McMullen and Schulte, *Abstract Regular
Polytopes*, §2B and §4A): an automorphism carries a section onto an
isomorphic section. The axiom and section checks run on these pairs only,
so they refuse a poset without an action (``base_of``).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import groupby


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


class _FaceView(Mapping):
    """Face-keyed, read-only view of a table that gives face ids per face id.
    Its keys are the poset's faces; any other face raises KeyError."""

    def __init__(self, faces, index, rows):
        self._faces, self._index, self._rows = faces, index, rows

    def __getitem__(self, f):
        return tuple(self._faces[j] for j in self._rows[self._index[f]])

    def __iter__(self):
        return iter(self._faces)

    def __len__(self):
        return len(self._faces)


class FacePoset:
    """Ranked face set with covering incidences (rank j to j+1 only).

    Faces are ids 0..N-1, numbered rank by rank, each rank in
    ``Face.sort_key`` order, the order of ``face_list``. ``rank_of[i]``
    and ``kind_of[i]`` are the rank and kind of face i, ``up_ids[i]`` and
    ``down_ids[i]`` the sorted ids of the faces covering it and covered by
    it. A Wythoff build also has ``moves[gi][i]``, the image of face i
    under generator gi of its group, and its base faces ``base_ids``: the
    bottom, the top and the cosets holding the identity. Any other poset,
    a section of a build included, has neither. ``up`` is a Face-keyed
    view of ``up_ids``; everything else reads the ids.
    """

    def __init__(self, faces_by_rank: dict, covers):
        """Faces per rank and (low, high) Face pairs for the covers, numbered
        here and handed to the one id path (``from_ids``).

        Distinct faces have distinct sort keys (rank, kind, k). Here k is
        the rep's own key, which determines the rep: the images of a Perm,
        the entries of a MatModP (one modulus and dimension per poset), or
        the sides, K-rank and transversal indices of an amalgam normal form.
        A rep without a key (hand-built posets) is its own k, and a None rep
        belongs to the one bottom or top face of its rank. So the ids order
        faces exactly as their keys do.
        """
        faces = [
            f for r in sorted(faces_by_rank) for f in sorted(faces_by_rank[r], key=Face.sort_key)
        ]
        index = {f: i for i, f in enumerate(faces)}
        up: list[list[int]] = [[] for _ in faces]
        for low, high in covers:
            up[index[low]].append(index[high])
        cols = [f.rank for f in faces], [f.kind for f in faces], [f.rep for f in faces]
        self._setup(None, *cols, [tuple(sorted(u)) for u in up], given=faces_by_rank)
        self._faces, self._index = tuple(faces), index

    @classmethod
    def from_ids(cls, group, ranks, kinds, reps, up, moves=(), base=()) -> "FacePoset":
        """The one construction path: per face its rank, kind and rep, in
        strictly increasing ``Face.sort_key`` order (``wythoff._assemble``
        and ``section`` say why theirs are), and the sorted ids of the faces
        covering it; the down lists are read off these. A rep is an element
        index of ``group``, or the rep itself where ``group`` is None, and
        None for a build's bottom and top. A build also gives the moves of
        its group's generators and its base faces. ``Face`` objects are
        made on first use (``face_list``)."""
        P = cls.__new__(cls)
        P._setup(group, ranks, kinds, reps, up, moves, base)
        return P

    def _setup(self, group, ranks, kinds, reps, up, moves=(), base=(), given=()):
        self.rank_of, self.kind_of = tuple(ranks), tuple(kinds)
        self._group, self._reps, self.up_ids = group, tuple(reps), tuple(up)
        down: list[list[int]] = [[] for _ in self.up_ids]
        for a, ups in enumerate(self.up_ids):  # ids ascending: each list comes sorted
            for b in ups:
                down[b].append(a)
        self.down_ids = tuple(map(tuple, down))
        self.moves = tuple(tuple(m) for m in moves)
        self.base_ids = frozenset(base)
        self._spans = spans = {r: range(0) for r in given}  # ranks given without faces stay
        start = 0
        for r, run in groupby(self.rank_of):
            stop = start + sum(1 for _ in run)
            spans[r] = range(start, stop)
            start = stop
        self.bottom_rank, self.top_rank = min(spans), max(spans)
        self._faces = self._index = self._flags = self._adj = None
        self._above: dict = {}

    # ---- faces as objects ----------------------------------------------------

    @property
    def face_list(self) -> tuple:
        """Every face as a ``Face``, in id order, made on first use: an element
        index stands for its group's element, any other rep for itself."""
        if self._faces is None:
            element = (lambda x: x) if self._group is None else self._group.element
            self._faces = tuple(
                Face(r, k, None if x is None else element(x))
                for r, k, x in zip(self.rank_of, self.kind_of, self._reps)
            )
        return self._faces

    def faces(self, rank: int) -> tuple:
        """The faces of a rank as a ``Face`` tuple in id order."""
        span = self.ids(rank)
        return self.face_list[span.start : span.stop]

    def rep_texts(self):
        """The text of each face's representative, in id order, as an f-string
        prints it: an iterator. Element indices are formatted from their
        group's codes (``FiniteGroup.text``); no ``Face`` is made."""
        text = str if self._group is None else self._group.text
        return ("None" if x is None else text(x) for x in self._reps)

    # ---- basic structure -------------------------------------------------

    def ids(self, rank: int) -> range:
        return self._spans.get(rank, range(0))

    def proper_ranks(self) -> range:
        return range(self.bottom_rank + 1, self.top_rank)

    def f_vector(self) -> tuple:
        return tuple(len(self._spans[r]) for r in self.proper_ranks())

    def facet_split(self):
        """(count_P, count_Q) at the top proper rank, if kinds are split."""
        span = self._spans[self.top_rank - 1]
        tops = self.kind_of[span.start : span.stop]
        if set(tops) == {"P", "Q"}:
            nP = tops.count("P")
            return nP, len(tops) - nP
        return None

    def f_vector_str(self) -> str:
        fv = list(map(str, self.f_vector()))
        split = self.facet_split()
        if split:
            fv[-1] = f"{split[0]}+{split[1]}"
        return "(" + ", ".join(fv) + ")"

    def levels_above(self, i: int) -> list[set]:
        """levels[k]: the ids of the faces k ranks above face i and incident
        to it (levels[0] = {i}), up to the greatest face. Cached per face."""
        got = self._above.get(i)
        if got is None:
            got = [{i}]
            up = self.up_ids
            while True:
                nxt = {h for f in got[-1] for h in up[f]}
                if not nxt:
                    break
                got.append(nxt)
            self._above[i] = got
        return got

    # ---- the Face-keyed view ------------------------------------------------

    @property
    def up(self) -> Mapping:
        """Face -> the faces covering it."""
        if self._index is None:
            self._index = {f: i for i, f in enumerate(self.face_list)}
        return _FaceView(self.face_list, self._index, self.up_ids)

    # ---- flags -----------------------------------------------------------

    def chains_up(self, chains: list) -> list[tuple]:
        """Chains of id tuples ending in faces of one rank, extended cover by
        cover in the order of ``up_ids`` to the top proper rank. Chains that
        stop short of it are dropped."""
        if not chains:
            return []
        up, rank, last = self.up_ids, self.rank_of, self.top_rank - 1
        for _ in range(last - rank[chains[0][-1]]):
            chains = [c + (h,) for c in chains for h in up[c[-1]]]
        return [c for c in chains if rank[c[-1]] == last]

    def flag_ids(self) -> list[tuple]:
        """All maximal proper chains as id tuples, one face per proper rank,
        in lexicographic order."""
        if self._flags is None:
            (bot,) = self.ids(self.bottom_rank)
            self._flags = self.chains_up([(v,) for v in self.up_ids[bot]])
        return self._flags

    def flag_adjacency(self) -> list[tuple]:
        """adj[i][j] = index of the unique j-adjacent flag of flag i.

        Requires the diamond condition; entries are None where the middle
        face count is not exactly two.
        """
        if self._adj is None:
            flags = self.flag_ids()
            index = {fl: i for i, fl in enumerate(flags)}
            up = self.up_ids
            (bot,) = self.ids(self.bottom_rank)
            (top,) = self.ids(self.top_rank)
            nprop = self.top_rank - self.bottom_rank - 1
            adj = []
            for fl in flags:
                row = []
                for j in range(nprop):
                    low = fl[j - 1] if j > 0 else bot
                    high = fl[j + 1] if j < nprop - 1 else top
                    mids = [h for h in up[low] if high in up[h]]
                    if len(mids) != 2:
                        row.append(None)
                        continue
                    other = mids[0] if mids[1] == fl[j] else mids[1]
                    row.append(index[fl[:j] + (other,) + fl[j + 1 :]])
                adj.append(tuple(row))
            self._adj = adj
        return self._adj

    # ---- sections ----------------------------------------------------------

    def section(self, lo: int, hi: int) -> "FacePoset":
        """The polytope-style section hi/lo of the faces with ids lo and hi,
        re-ranked from -1, as an id slice: the faces between them, in id
        order. The ids order faces by ``Face.sort_key``, (rank, kind, rep
        key), and every member's rank drops by the same amount, so the
        section's faces come in that order too. Covers run from rank j to
        j + 1, so the members' ids lie between lo and hi. The renumbering
        increases, which keeps the up lists sorted, and the reps and group
        are this poset's: no ``Face`` is made and nothing is sorted or
        hashed."""
        above = set().union(*self.levels_above(lo)[1:])
        if hi not in above:
            raise ValueError("section requires lo < hi")
        keep, frontier, down = {lo, hi}, [hi], self.down_ids
        while frontier:  # the faces below hi that lie above lo
            frontier = [g for f in frontier for g in down[f] if g in above and g not in keep]
            keep.update(frontier)
        members = [i for i in range(lo, hi + 1) if i in keep]
        new = {i: j for j, i in enumerate(members)}
        rank, up = self.rank_of, self.up_ids
        return FacePoset.from_ids(
            self._group,
            [rank[i] - rank[lo] - 1 for i in members],
            [self.kind_of[i] for i in members],
            [self._reps[i] for i in members],
            [tuple(new[j] for j in up[i] if j in new) for i in members],
        )

    # ---- group action ------------------------------------------------------

    def base_of(self, r: int) -> dict:
        """On a Wythoff build, kind -> the base face of that kind at rank r.
        Raises ValueError on any other poset: the checks that list faces
        through it (``pairs``, ``wythoff.two_sections``, ``flag_orbits``)
        run on one face per orbit of the group, so they need its action."""
        if not self.moves:
            raise ValueError("the poset checks need a Wythoff build; this poset has no action")
        kind, rank = self.kind_of, self.rank_of
        return {kind[x]: x for x in self.base_ids if rank[x] == r}

    def pairs(self, r: int, s: int) -> list[tuple]:
        """Incident id pairs (low, high) of a Wythoff build, low of rank r below
        high of rank s, one pair per orbit of its group Γ.

        Γ acts by automorphisms and transitively on the faces of each kind
        (``wythoff._assemble``), so the list holds the pairs (x, y) with x
        the base face of a kind of rank r (``base_of``; the bottom and top
        faces are their own base) and y the first of its orbit, under the
        generators that fix x, among the faces of rank s above x
        (``orbits``). A pair (u, v) with u = x·g is carried by g⁻¹ to
        (x, v·g⁻¹), and (x, v·g⁻¹) and (x, w) lie in one orbit exactly when
        an element of the stabilizer of x carries one to the other. The
        stabilizer of the base face H·1 is H, generated by the generators it
        holds, which are the generators fixing H·1; that of the bottom or top
        is Γ. So there are at most two listed pairs per pair of ranks when
        there are at most two flag orbits (McMullen and Schulte, §2B and
        §4A). An automorphism keeps incidence, kinds and sections, so a check
        that holds for a listed pair holds for its whole orbit.
        """
        out = []
        for x in sorted(self.base_of(r).values()):
            levels = self.levels_above(x)
            if s - r < len(levels):
                fix = [m.__getitem__ for m in self.moves if m[x] == x]
                out += [(x, orbit[0]) for orbit in orbits(sorted(levels[s - r]), fix)]
        return out


def orbits(points, maps) -> list[list]:
    """The orbits of the group that ``maps`` generate on ``points``, which
    they must keep: one list per orbit, led by its first point in the order
    of ``points``. Each map is a function from point to point."""
    seen: set = set()
    out = []
    for p in points:
        if p in seen:
            continue
        seen.add(p)
        orbit = [p]
        for q in orbit:  # grows while it is read: a queue
            for m in maps:
                w = m(q)
                if w not in seen:
                    seen.add(w)
                    orbit.append(w)
        out.append(orbit)
    return out
