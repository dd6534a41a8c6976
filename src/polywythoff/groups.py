"""Finite group arithmetic: closures, subgroups, cosets, homomorphisms.

Everything here is exact and deterministic. Groups remember the BFS
production of each element, which later powers homomorphism extension and
word recovery without any extra group theory. The closure records the
right-multiplication table as it enumerates a group
(``FiniteGroup.right_table``), and it turns subgroups, cosets and
homomorphism checks into integer lookups on element indices: the
coset-table view of Holt, Eick and O'Brien, *Handbook of Computational
Group Theory*, ch. 5. A subgroup is named by the generator indices that
generate it, its key. Element products are made only in the closure.

After the closure a group is its indices and tables, and its elements are
the kernel's codes (``FiniteGroup.keys``): image tuples for permutations,
row-code tuples for matrices. ``element_kind`` chooses the kind once, and
nothing else here branches on the element class: its object gives the
identity's code and the generator maps for the kernel, and turns elements
into codes and codes into elements and text. Codes sort like element keys
(``kernels``), so canonical representatives are chosen on codes. An
element object is made only when one is asked for: ``FiniteGroup.element``
makes one, and ``FiniteGroup.elements`` makes and keeps them all.
``FiniteGroup.text`` prints an element from its code, with no matrix made.
"""

from __future__ import annotations

import os

from . import kernels
from .elements import KindMismatch, MatModP, Perm, same_kind

DEFAULT_CAP = 10_000_000


class CapExceeded(RuntimeError):
    """Closure grew past the element cap (group too large or infinite)."""


def closure_cap(cap: int | None = None) -> int:
    """``cap`` if given, else the environment variable POLYWYTHOFF_CAP if
    set, else DEFAULT_CAP. Raises ValueError unless POLYWYTHOFF_CAP is a
    positive integer."""
    if cap is not None:
        return cap
    env = os.environ.get("POLYWYTHOFF_CAP")
    if not env:
        return DEFAULT_CAP
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"POLYWYTHOFF_CAP must be a positive integer, not {env!r}")
    return value


class FiniteGroup:
    """A concrete finite group given by generators, fully enumerated.

    ``keys[i]`` is the code of element i, and ``kind`` (``element_kind``)
    turns codes into elements and text; ``kind`` must hold no reference
    to the group.
    """

    def __init__(self, generators, keys, prods, right, kind):
        self.generators = tuple(generators)
        self.keys = tuple(keys)  # element codes, in element order
        self.prods = tuple(prods)  # (parent_index, generator_index) per element
        self.kind = kind
        self.identity = kind.make(kind.identity)
        self._elements: tuple | None = None  # made on first use
        self._index: dict | None = None  # code -> index, built on first lookup
        self._words: tuple | None = None
        self._key_order: list | None = None
        self._right = tuple(right)
        self._masks: dict[frozenset, int] = {}
        self._tree_checked = False

    @property
    def order(self) -> int:
        return len(self.prods)

    def element(self, i: int):
        """Element i as an object, made from its code."""
        return self.kind.make(self.keys[i])

    def text(self, i: int) -> str:
        """``str(self.element(i))``, formatted from the code of element i by
        the kind (``element_kind``): a matrix is printed from its row codes,
        so no matrix is made; a permutation is printed by ``Perm``."""
        return self.kind.text(self.keys[i])

    def key_order(self) -> list[int]:
        """The element indices sorted by code, which is key order
        (``kernels``): one sort per group, made on first use and shared by
        every coset partition of the group."""
        if self._key_order is None:
            self._key_order = sorted(range(self.order), key=self.keys.__getitem__)
        return self._key_order

    @property
    def elements(self) -> tuple:
        """Every element as an object, in element order, made on first use."""
        if self._elements is None:
            self._elements = tuple(map(self.kind.make, self.keys))
        return self._elements

    def _lookup(self) -> dict:
        if self._index is None:
            self._index = {code: i for i, code in enumerate(self.keys)}
        return self._index

    def index_of(self, g) -> int:
        """The index of element g, looked up by its code."""
        if not same_kind(self.identity, g):
            raise KeyError(g)
        return self._lookup()[self.kind.code(g)]

    def sub(self, indices) -> "FiniteGroup":
        """The subgroup generated by the generators at ``indices`` as a group
        with its own tables. Where the element indices suffice, use
        ``span``.

        Its generators are ``[generators[i] for i in sorted(indices)]``, so
        its element order does not depend on how the indices are given. All
        the indices give the group itself and none the trivial group.
        Otherwise the subgroup is the closure kernel (``kernels.close``) run
        from the identity over the group's right-table rows ``R[i]``, i in
        that order, with the 1-tuple (x,) of an element index as an element:
        row i maps it to (R[i][x],), the index of ``elements[x] *
        generators[i]``. So the search meets the same products in the same
        order as a fresh closure of those generators: it gives the same
        elements and productions, and its own right table in the same loop,
        with no element product. Its involution test is exact here too:
        ``R[i][R[i][0]] == 0`` iff generator i squares to 1. The subgroup
        holds the group's codes and shares its kind.
        """
        key = tuple(sorted(set(indices)))
        if key == tuple(range(len(self.generators))):
            return self
        if not key:
            return FiniteGroup([self.identity], self.keys[:1], [(-1, -1)], [[0]], self.kind)
        elements, prods, R = kernels.close([self._right[i] for i in key], (0,), self.order)
        keys = [self.keys[x] for (x,) in elements]
        return FiniteGroup([self.generators[i] for i in key], keys, prods, R, self.kind)

    def span(self, indices) -> list[int]:
        """The indices of the elements of ``sub(indices)``, in its element
        order: the same breadth-first search over the right-table rows,
        with no group built."""
        rows = [self._right[i] for i in sorted(set(indices))]
        members = [0]
        seen = {0}
        for x in members:  # grows while it is read: a queue
            for row in rows:
                y = row[x]
                if y not in seen:
                    seen.add(y)
                    members.append(y)
        return members

    def mask(self, indices) -> int:
        """The subgroup generated by the generators at ``indices`` as a
        bitmask of element indices: bit x is set when ``elements[x]`` lies
        in it. Cached per proper subset; the whole group needs no search.
        Intersections of subgroups are then ANDs of integers."""
        key = frozenset(indices)
        if len(key) == len(self.generators):
            return (1 << self.order) - 1
        got = self._masks.get(key)
        if got is None:
            bits = bytearray(b"0") * self.order
            for x in self.span(key):
                bits[x] = 49  # ord("1")
            got = self._masks[key] = int(bits[::-1], 2)
        return got

    def tree(self) -> tuple:
        """The productions, checked to form a BFS tree: element 0 is the
        root and every other element has an earlier parent and a valid
        generator index. Raises ValueError otherwise, for a group built by
        hand with productions that no closure made."""
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

    def right_table(self) -> tuple[list[int], ...]:
        """R[gi][i] = index of elements[i] * generators[gi].

        The closure records it as it enumerates the group (``kernels.close``,
        ``FiniteGroup.sub``); after it the group's right action on itself is
        integer lookups.
        """
        return self._right

    def right_multiplier(self, y: int) -> list[int] | range:
        """The index map i -> index of elements[i] * elements[y], walked
        through the right table along the production chain of y."""
        prods = self.tree()
        chain = []
        while y:
            y, gi = prods[y]
            chain.append(gi)
        R = self.right_table()
        table: list[int] | range = range(self.order)
        for gi in reversed(chain):
            row = R[gi]
            table = [row[i] for i in table]
        return table


def check_modulus(dim: int, p: int) -> None:
    """Reject moduli with dim*(p-1)^2 >= 2^63. The closure's arithmetic is
    exact at any modulus; the bound makes huge moduli, whose groups could
    never be enumerated, fail fast and up front."""
    if dim * (p - 1) ** 2 >= 2**63:
        raise ValueError(
            f"modulus {p} too large for {dim}x{dim} matrices: need dim*(p-1)^2 < 2^63"
        )


class _Perms:
    """Permutations of {1..N} as the kernel takes them (``kernels``): an
    element is its image tuple, and a generator g is the map x -> g(x),
    padded at 0 so that it is indexed by points."""

    def __init__(self, degree: int):
        self.identity = tuple(range(1, degree + 1))

    def map(self, g) -> tuple:
        return (0,) + g.images

    def code(self, g) -> tuple:
        return g.images

    def make(self, code) -> Perm:
        return Perm._raw(code)

    def text(self, code) -> str:
        return str(Perm._raw(code))


class _Matrices(dict):
    """dim x dim matrices mod p as the kernel takes them (``kernels``): an
    element is its tuple of row codes, and a generator g is its row map
    v -> v*g (``kernels.RowMap``). The dict is the memo of decoded rows, row
    code -> (entries, text), shared by ``make`` and ``text``; ``str`` of a
    matrix is the texts of its rows joined with spaces."""

    def __init__(self, dim: int, p: int):
        super().__init__()
        check_modulus(dim, p)
        self.dim, self.p = dim, p
        self.identity = tuple(p ** (dim - 1 - i) for i in range(dim))  # row i is e_i

    def __missing__(self, row: int) -> tuple:
        entries = kernels.decode_row(row, self.dim, self.p)
        self[row] = got = entries, " ".join(map(str, entries))
        return got

    def map(self, g) -> kernels.RowMap:
        return kernels.RowMap(g.entries, self.dim, self.p)

    def code(self, g) -> tuple:
        return kernels.encode_matrix(g.entries, self.dim, self.p)

    def make(self, code) -> MatModP:
        return MatModP._raw(self.p, self.dim, sum([self[row][0] for row in code], ()))

    def text(self, code) -> str:
        return f"mod {self.p} dim {self.dim} [{' '.join([self[row][1] for row in code])}]"


def element_kind(generators):
    """The kind of the generators: ``_Perms`` or ``_Matrices``. Raises
    ValueError on no generators or a modulus too large (``check_modulus``),
    and KindMismatch on generators of mixed or unknown kind."""
    if not generators:
        raise ValueError("empty generator list")
    first = generators[0]
    if not all(same_kind(first, g) for g in generators[1:]):
        raise KindMismatch("generators of mixed kind")
    if isinstance(first, Perm):
        return _Perms(first.degree)
    if isinstance(first, MatModP):
        return _Matrices(first.dim, first.p)
    raise KindMismatch(f"unknown element kind: {type(first)!r}")


def closure(generators, cap: int | None = None, *, kind=None, maps=None) -> FiniteGroup:
    """Breadth-first closure of the generators, deterministic element order,
    with the right table (``kernels.close``).

    ``kind`` and ``maps``, when given, are ``element_kind(generators)`` and
    ``kind.map`` of each generator, as a caller's generator checks made
    them: the closure runs on those maps, so a row the checks multiplied
    is not multiplied again. A map holds only true products, so the closure
    is the same as on fresh maps."""
    generators = tuple(generators)
    if kind is None:
        kind = element_kind(generators)
        maps = [kind.map(g) for g in generators]
    cap = closure_cap(cap)
    raw = kernels.close(maps, kind.identity, cap)
    if raw is None:
        raise CapExceeded(f"closure exceeded cap of {cap} elements")
    keys, prods, R = raw
    return FiniteGroup(generators, keys, prods, R, kind)


def coset_partition(G: FiniteGroup, key):
    """Right cosets Hx of H in G, on element indices, where H is the
    subgroup generated by the generators of G at the indices ``key``.

    Returns (reps, cid): the element index of the canonical (key-minimal)
    representative of each coset, sorted by key, and ``cid[i]``, the
    position in ``reps`` of the coset holding element i. Keys are compared
    as codes (``G.keys``), which sort like element keys (``kernels``), and
    no element is made.

    Elements are visited in BFS order. The first element x of a new coset
    has production (parent, g) with the parent earlier, so already placed,
    and Hx = (H parent) g: the coset is the parent's coset moved by one row
    of the right table. Walking the BFS word of x from H's indices gives the
    same coset; sharing the parent's coset does it in |H| lookups. Then the
    elements are swept in key order (``G.key_order``): the first element
    met in a coset is its least, and the cosets are met in the order of
    their least elements, so numbering them as they are met sorts them.
    """
    prods = G.tree()
    R = G.right_table()
    cid = [-1] * G.order
    members: list[list[int]] = []
    for x in range(G.order):
        if cid[x] >= 0:
            continue
        if x == 0:
            coset = G.span(key)
        else:
            parent, gi = prods[x]
            row = R[gi]
            coset = [row[i] for i in members[cid[parent]]]
        c = len(members)
        for i in coset:
            cid[i] = c
        members.append(coset)
    renumber = [-1] * len(members)
    reps: list[int] = []
    for x in G.key_order():
        c = cid[x]
        if renumber[c] < 0:
            renumber[c] = len(reps)
            reps.append(x)
            if len(reps) == len(members):
                break
    return reps, [renumber[c] for c in cid]


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

    ``images[i]`` is the index in ``target`` of the desired image of
    generator i (generator i of a group is element ``right_table()[i][0]``).
    Returns phi, the target index of the image of each element of G, or
    None when the assignment violates some relation of G (detected as an
    inconsistency in the Cayley graph).
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
    return phi
