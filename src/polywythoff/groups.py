"""Finite group arithmetic: closures, subgroups, cosets, intersections.

Everything here is exact and deterministic. Groups remember the BFS
production of each element, which later powers homomorphism extension and
word recovery without any extra group theory. Once a group is enumerated,
its right-multiplication table (``FiniteGroup.right_table``) turns cosets
and homomorphism checks into integer lookups on element indices: the
coset-table view of Holt, Eick and O'Brien, *Handbook of Computational Group
Theory*, ch. 5.
"""

from __future__ import annotations

import os

from . import kernels
from .elements import KindMismatch, MatModP, Perm, identity_like, same_kind

DEFAULT_CAP = 10_000_000


class CapExceeded(RuntimeError):
    """Closure grew past the element cap (group too large or infinite)."""


def closure_cap(cap: int | None = None) -> int:
    if cap is not None:
        return cap
    env = os.environ.get("POLYWYTHOFF_CAP")
    return int(env) if env else DEFAULT_CAP


class FiniteGroup:
    """A concrete finite group given by generators, fully enumerated."""

    def __init__(self, generators, elements, prods):
        self.generators = tuple(generators)
        self.elements = tuple(elements)
        self.element_set = frozenset(elements)
        self.prods = tuple(prods)  # (parent_index, generator_index) per element
        self.identity = identity_like(self.generators[0])
        self._index = {e: i for i, e in enumerate(self.elements)}
        self._words: tuple | None = None
        self._right: tuple | None = None
        self._tree_checked = False

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g) -> bool:
        return g in self.element_set

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, g) -> int:
        return self._index[g]

    def is_subgroup_of(self, other: "FiniteGroup") -> bool:
        return self.element_set <= other.element_set

    def subgroup(self, gens, cap: int | None = None) -> "FiniteGroup":
        gens = tuple(gens)
        if not all(g in self.element_set for g in gens):
            raise ValueError("subgroup generators not in parent group")
        return closure(gens, cap=cap) if gens else trivial_group(self.identity)

    def tree(self) -> tuple:
        """The productions, checked to form a BFS tree: element 0 is the
        root and every other element has an earlier parent and a valid
        generator index. Raises ValueError otherwise (``intersect`` results
        carry no productions)."""
        if not self._tree_checked:
            ngens = len(self.generators)
            if self.prods[0] != (-1, -1) or not all(
                0 <= parent < i and 0 <= gi < ngens
                for i, (parent, gi) in enumerate(self.prods[1:], 1)
            ):
                raise ValueError("production record is not a BFS tree")
            self._tree_checked = True
        return self.prods

    def words(self) -> tuple[tuple[int, ...], ...]:
        """For each element, a generator-index word reaching it from 1."""
        if self._words is None:
            words: list[tuple[int, ...]] = [()]
            for parent, gi in self.tree()[1:]:
                words.append(words[parent] + (gi,))
            self._words = tuple(words)
        return self._words

    def right_table(self) -> tuple[tuple[int, ...], ...]:
        """R[gi][i] = index of elements[i] * generators[gi].

        Built once, with at most one product per element and generator;
        after it the group's right action on itself is integer lookups. The
        productions give one entry per element for free, and an involution
        g gives R[g][j] = i along with R[g][i] = j.
        """
        if self._right is None:
            rows = [[-1] * self.order for _ in self.generators]
            for i, (parent, gi) in enumerate(self.tree()[1:], 1):
                rows[gi][parent] = i
            index = self._index
            for row, g in zip(rows, self.generators):
                involution = (g * g).is_identity()
                for i, e in enumerate(self.elements):
                    if row[i] < 0:
                        j = row[i] = index[e * g]
                        if involution:
                            row[j] = i
            self._right = tuple(tuple(row) for row in rows)
        return self._right

    def right_multiplier(self, y) -> list[int] | range:
        """The index map i -> index of elements[i] * y, walked through the
        right table along y's word."""
        R = self.right_table()
        table: list[int] | range = range(self.order)
        for gi in self.words()[self.index_of(y)]:
            row = R[gi]
            table = [row[i] for i in table]
        return table


def trivial_group(identity) -> FiniteGroup:
    return FiniteGroup([identity], [identity], [(-1, -1)])


def closure(generators, cap: int | None = None) -> FiniteGroup:
    """Breadth-first closure of the generators, deterministic element order."""
    generators = tuple(generators)
    if not generators:
        raise ValueError("empty generator list")
    first = generators[0]
    if not all(same_kind(first, g) for g in generators[1:]):
        raise KindMismatch("generators of mixed kind")
    cap = closure_cap(cap)
    if isinstance(first, Perm):
        raw = kernels.close_perms([g.images for g in generators], cap)
        if raw is None:
            raise CapExceeded(f"closure exceeded cap of {cap} elements")
        elems = [Perm._raw(t) for t in raw[0]]
    elif isinstance(first, MatModP):
        raw = kernels.close_mats(
            [g.entries for g in generators], first.dim, first.p, cap
        )
        if raw is None:
            raise CapExceeded(f"closure exceeded cap of {cap} elements")
        elems = [MatModP._raw(first.p, first.dim, t) for t in raw[0]]
    else:
        raise KindMismatch(f"unknown element kind: {type(first)!r}")
    return FiniteGroup(generators, elems, raw[1])


def subgroup(parent: FiniteGroup, gens, cap: int | None = None) -> FiniteGroup:
    return parent.subgroup(gens, cap=cap)


def coset_partition(G: FiniteGroup, H: FiniteGroup):
    """Right cosets Hx of H in G, on element indices.

    Returns (reps, cid): the canonical (key-minimal) representative of each
    coset, sorted by key, and ``cid[i]``, the position in ``reps`` of the
    coset holding ``G.elements[i]``.

    Elements are visited in BFS order. The first element x of a new coset
    has production (parent, g) with the parent earlier, so already placed,
    and Hx = (H parent) g: the coset is the parent's coset moved by one row
    of the right table. Walking the BFS word of x from H's indices gives the
    same coset; sharing the parent's coset does it in |H| lookups.
    """
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    prods = G.tree()
    R = G.right_table()
    cid = [-1] * G.order
    members: list[list[int]] = []
    for x in range(G.order):
        if cid[x] >= 0:
            continue
        if x == 0:
            coset = [G.index_of(h) for h in H.elements]
        else:
            parent, gi = prods[x]
            row = R[gi]
            coset = [row[i] for i in members[cid[parent]]]
        for i in coset:
            cid[i] = len(members)
        members.append(coset)
    keys = [e.key for e in G.elements]
    mins = [min(coset, key=keys.__getitem__) for coset in members]
    order = sorted(range(len(members)), key=lambda c: keys[mins[c]])
    renumber = [0] * len(order)
    for pos, c in enumerate(order):
        renumber[c] = pos
    return [G.elements[mins[c]] for c in order], [renumber[c] for c in cid]


def right_cosets(G: FiniteGroup, H: FiniteGroup) -> list:
    return coset_partition(G, H)[0]


def intersect(H: FiniteGroup, K: FiniteGroup) -> FiniteGroup:
    """Set intersection of two subgroups of a common parent, as a group.

    The result carries no productions, so ``words``, ``coset_partition`` and
    ``extend_homomorphism`` raise ValueError on it; use its elements only.
    """
    if not same_kind(H.identity, K.identity):
        raise KindMismatch("intersecting groups of different kinds")
    small, big = (H, K) if H.order <= K.order else (K, H)
    common = [e for e in small.elements if e in big.element_set]
    prods = [(-1, -1)] * len(common)
    # keep identity first for the FiniteGroup invariant
    common.remove(small.identity)
    common.insert(0, small.identity)
    return FiniteGroup(common, common, prods)


def element_order(g, cap: int | None = None) -> int:
    """Least m >= 1 with g^m = 1; raises CapExceeded past the cap."""
    cap = closure_cap(cap)
    power = g
    m = 1
    while not power.is_identity():
        power = power * g
        m += 1
        if m > cap:
            raise CapExceeded(f"element order exceeds {cap}")
    return m


def extend_homomorphism(G: FiniteGroup, images, target: FiniteGroup):
    """Try to extend generator assignments to a homomorphism on all of G.

    ``images[i]`` is the desired image of ``G.generators[i]``, an element of
    the enumerated group ``target``. Returns the full element -> image
    dict, or None when the assignment violates some relation of G (detected
    as an inconsistency in the Cayley graph). Both groups are handled as
    element indices and right tables.
    """
    images = tuple(images)
    if len(images) != len(G.generators):
        raise ValueError("one image per generator required")
    mult = [target.right_multiplier(y) for y in images]
    phi = [0] * G.order  # target element index per element of G
    # productions are topologically ordered, so parents are always filled in
    prods = G.tree()
    for i in range(1, G.order):
        parent, gi = prods[i]
        phi[i] = mult[gi][phi[parent]]
    # verify the full multiplication action of each generator
    for row, m in zip(G.right_table(), mult):
        if any(phi[j] != m[phi[i]] for i, j in enumerate(row)):
            return None
    return {e: target.elements[phi[i]] for i, e in enumerate(G.elements)}
