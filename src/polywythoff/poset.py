"""Ranked face posets on integer face ids, with an optional group action.

A poset is purely combinatorial: faces and their covering relations, so
sections, axiom checks and isomorphism tests work alike on the Wythoff
builds, the amalgam balls and posets built by hand (toroid oracles, broken
examples). Faces are integer ids; covers, the group action and flags are
tuples of ids, and ``Face`` objects are looked up only to print, export,
take sections or answer the Face-keyed views. When the action of the
building group is by automorphisms, ``FacePoset.pairs`` lists one incident
pair per orbit of the group (McMullen and Schulte, *Abstract Regular
Polytopes*, §2B and §4A): an automorphism carries a section onto an
isomorphic section.
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
    Its keys are the faces whose ids lie in ``span``; any other face raises
    KeyError."""

    def __init__(self, faces, index, row, span: range):
        self._faces, self._index, self._row, self._span = faces, index, row, span

    def __getitem__(self, f):
        i = self._index[f]
        if i not in self._span:
            raise KeyError(f)
        return tuple(self._faces[j] for j in self._row(i))

    def __iter__(self):
        return iter(self._faces[self._span.start : self._span.stop])

    def __len__(self):
        return len(self._span)


class FacePoset:
    """Ranked face set with covering incidences (rank j to j+1 only).

    Faces are ids 0..N-1, numbered rank by rank, each rank in
    ``Face.sort_key`` order, so ``all_faces()`` is ``face_list`` in id
    order. ``rank_of[i]`` is the rank of face i, ``up_ids[i]`` and
    ``down_ids[i]`` the sorted ids of the faces covering it and covered by
    it, and ``moves[gi][i]`` its image under generator gi of the building
    group (no moves for posets built by hand without an action). A Wythoff
    build also names its base faces, the cosets holding the identity.
    ``up``, ``down`` and ``action`` are Face-keyed views of the same tables.
    """

    def __init__(self, faces_by_rank: dict, covers, action=None):
        """Faces per rank, (low, high) Face pairs for the covers, and, if
        given, ``action[f][gi]``: the image of each proper face f under
        generator gi.

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
        down: list[list[int]] = [[] for _ in faces]
        for low, high in covers:
            a, b = index[low], index[high]
            up[a].append(b)
            down[b].append(a)
        moves = []
        if action:
            ngens = len(next(iter(action.values())))
            moves = [
                [index[action[f][gi]] if f in action else i for i, f in enumerate(faces)]
                for gi in range(ngens)
            ]
        self._setup(faces, up, down, moves, (), faces_by_rank, index)

    @classmethod
    def from_ids(cls, faces, up, down, moves, base) -> "FacePoset":
        """A poset from faces already in id order, id-level cover lists and
        moves, and the base faces (see ``orbit_reps``). Raises ValueError
        unless the faces are in strictly increasing ``Face.sort_key`` order,
        the numbering the constructor gives."""
        keys = [f.sort_key() for f in faces]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise ValueError("faces are not in Face.sort_key order")
        P = cls.__new__(cls)
        P._setup(faces, up, down, moves, base, (), None)
        return P

    def _setup(self, faces, up, down, moves, base, ranks, index):
        self.face_list = tuple(faces)
        self.rank_of = tuple(f.rank for f in faces)
        self.up_ids = tuple(tuple(sorted(u)) for u in up)
        self.down_ids = tuple(tuple(sorted(d)) for d in down)
        self.moves = tuple(tuple(m) for m in moves)
        self.base_ids = frozenset(base)
        spans = {r: range(0) for r in ranks}  # ranks given without faces stay
        start = 0
        for r, run in groupby(self.rank_of):
            stop = start + sum(1 for _ in run)
            spans[r] = range(start, stop)
            start = stop
        self._spans = spans
        self.faces_by_rank = {r: self.face_list[s.start : s.stop] for r, s in spans.items()}
        self.bottom_rank = min(spans)
        self.top_rank = max(spans)
        self._index = index
        self._flags: list | None = None
        self._adj: list | None = None
        self._automorphic: bool | None = None
        self._orbit_rep: tuple | None = None
        self._above: dict = {}

    # ---- basic structure -------------------------------------------------

    def ids(self, rank: int) -> range:
        return self._spans.get(rank, range(0))

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
        return iter(self.face_list)

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

    # ---- Face-keyed views ----------------------------------------------------

    def _face_index(self) -> dict:
        if self._index is None:
            self._index = {f: i for i, f in enumerate(self.face_list)}
        return self._index

    @property
    def up(self) -> Mapping:
        """Face -> the faces covering it."""
        every = range(len(self.face_list))
        return _FaceView(self.face_list, self._face_index(), self.up_ids.__getitem__, every)

    @property
    def down(self) -> Mapping:
        """Face -> the faces it covers."""
        every = range(len(self.face_list))
        return _FaceView(self.face_list, self._face_index(), self.down_ids.__getitem__, every)

    @property
    def action(self) -> Mapping:
        """Proper face -> its images under the generators; empty without an
        action."""
        moves = self.moves
        proper = range(self.ids(self.bottom_rank).stop, self.ids(self.top_rank).start)
        return _FaceView(
            self.face_list, self._face_index(), lambda i: [m[i] for m in moves],
            proper if moves else range(0),
        )

    def face_image(self, f: Face, gi: int) -> Face:
        """The image of face f under generator gi of the building group."""
        return self.face_list[self.moves[gi][self._face_index()[f]]]

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

    def flags(self) -> list[tuple]:
        """All maximal proper chains as Face tuples, in lexicographic order."""
        faces = self.face_list
        return [tuple(faces[i] for i in fl) for fl in self.flag_ids()]

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

    def section(self, low: Face, high: Face) -> "FacePoset":
        """The polytope-style section high/low, re-ranked from -1."""
        index = self._face_index()
        lo, hi = index[low], index[high]
        above = set().union(*self.levels_above(lo)[1:])
        if hi not in above:
            raise ValueError("section requires low < high")
        below = {hi}
        frontier = [hi]
        while frontier:
            frontier = [g for f in frontier for g in self.down_ids[f] if g not in below]
            below.update(frontier)
        members = (above & below) | {lo}
        shift = low.rank + 1
        remap = {}
        for i in members:
            f = self.face_list[i]
            remap[i] = Face(f.rank - shift, f.kind, f.rep)
        faces_by_rank: dict[int, list] = {}
        for new in remap.values():
            faces_by_rank.setdefault(new.rank, []).append(new)
        covers = [
            (remap[a], remap[b]) for a in members for b in self.up_ids[a] if b in members
        ]
        return FacePoset(faces_by_rank, covers)

    # ---- group action ------------------------------------------------------

    def action_is_automorphic(self) -> bool:
        """True iff the poset has an action and every generator is an
        automorphism: it permutes the faces, keeps each face's rank and
        kind, and maps the faces covering each face onto the faces covering
        its image. A bijection that maps the finite cover set into itself
        maps it onto itself, so its inverse keeps covers too. Scanned once;
        the orbit shortcuts (``pairs`` and those of ``wythoff``) are taken
        only when it holds."""
        if self._automorphic is None:
            n = len(self.face_list)
            up = self.up_ids
            sig = [(f.rank, f.kind) for f in self.face_list]
            self._automorphic = bool(self.moves) and all(
                len(set(m)) == n
                and all(sig[j] == s for j, s in zip(m, sig))
                and all(up[m[i]] == tuple(sorted(map(m.__getitem__, u))) for i, u in enumerate(up))
                for m in self.moves
            )
        return self._automorphic

    def orbit_reps(self) -> tuple:
        """rep[i]: the representative of face i's orbit under the group the
        generators generate: its base face if it has one, else its lowest
        id. The stabilizer of a base face H·1 of a Wythoff build is the
        subgroup H, which is generated by the generators it contains, and
        these are the generators fixing H·1."""
        if self._orbit_rep is None:
            moves, base = self.moves, self.base_ids
            rep = [-1] * len(self.face_list)
            for i in range(len(rep)):
                if rep[i] >= 0:
                    continue
                orbit = [i]
                rep[i] = i
                for x in orbit:  # grows while it is read: a queue
                    for m in moves:
                        y = m[x]
                        if rep[y] < 0:
                            rep[y] = i
                            orbit.append(y)
                best = next((x for x in orbit if x in base), i)
                for x in orbit:
                    rep[x] = best
            self._orbit_rep = tuple(rep)
        return self._orbit_rep

    def pairs(self, r: int, s: int) -> list[tuple]:
        """Incident id pairs (low, high), low of rank r below high of rank s.

        Without an automorphic action (``action_is_automorphic``) this is
        every such pair. With one, the generated group Γ acts on the pairs,
        and the list holds at least one pair of each Γ-orbit: the pairs
        (x, y) with x an orbit representative (``orbit_reps``) and y the
        least id of its orbit, under the generators that fix x, among the
        faces of rank s above x. A pair (u, v) with u = x·g is carried by
        g⁻¹ to (x, v·g⁻¹), and v·g⁻¹ lies in the orbit of a listed y. Where
        the generators fixing x generate its whole stabilizer, as for the
        base faces of a Wythoff build, the list holds exactly one pair per
        Γ-orbit: at most two per pair of ranks when there are at most
        two flag orbits (McMullen and Schulte, §2B and §4A). An automorphism
        keeps incidence, kinds and sections, so a check that holds for a
        listed pair holds for its whole orbit.
        """
        auto = self.action_is_automorphic()
        lows = self.ids(r)
        if auto:
            rep = self.orbit_reps()
            lows = [x for x in lows if rep[x] == x]
        out = []
        for x in lows:
            levels = self.levels_above(x)
            if s - r >= len(levels):
                continue
            highs = sorted(levels[s - r])
            if not auto:
                out += [(x, y) for y in highs]
                continue
            fix = [m for m in self.moves if m[x] == x]
            seen: set = set()
            for y in highs:
                if y in seen:
                    continue
                out.append((x, y))
                seen.add(y)
                orbit = [y]
                for z in orbit:  # grows while it is read: a queue
                    for m in fix:
                        w = m[z]
                        if w not in seen:
                            seen.add(w)
                            orbit.append(w)
        return out
