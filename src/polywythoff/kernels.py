"""The closure kernel: one breadth-first search that also returns the right table.

An element is a tuple of points and a generator is a map on points: the
product of an element e with a generator m is ``tuple(m[x] for x in e)``.
``close`` runs the search on that form and fills the right table as it
goes, where an involution's pair {x, x*g} fills two entries with one
lookup and the table's rows grow in blocks. The tuples the search finds
are the elements' codes, and they are what the kernel returns: a group
keeps them (``groups.FiniteGroup.keys``) and makes an element object from
a code only when one is asked for. ``groups.element_kind`` is the one
place that puts elements into this form, for the closure and for the
generator checks before it, and takes codes back out of it.

- A permutation is the tuple of its images, and a generator g is the map
  x -> g(x) on {1..N}: image i of e*g is g(e(i)).
- A matrix over Z_p is the tuple of its rows, each row vector coded
  big-endian as the integer sum r_j p^(dim-1-j) (``encode_row``). Row i of
  e*g is (row i of e)*g, a function of that row and g alone, so mapping
  every row through v -> v*g gives e*g exactly. ``RowMap`` is that
  function for one generator, memoized on first use, so each distinct row
  is multiplied once per generator however many elements hold it. A
  verification makes one map per generator, for its generator checks and
  its closure alike (``groups.closure`` takes the checks' maps). A miss
  writes the code of v*g one base-p digit per column of g, most
  significant first, with no list of entries in between. When g*g = 1 a
  miss also stores v*g -> v, as ``close`` fills an involution's pair of
  entries with one lookup: (v*g)*g = v*(g*g) = v, so the entry is a true
  product and each pair {v, v*g} costs one product. A map holds only true
  products, so the search cannot tell it from one that multiplies every
  row it is asked for. The coding is a
  bijection from Z_p^dim onto [0, p^dim), so two row-code tuples are equal
  exactly when the matrices are, and the search meets the same elements
  in the same order, with the same productions and right table, as one on
  entries: it does so under any bijective coding.

The code of a matrix is also ordered like the matrix. A big-endian code is
a number written in base p with the row's entries as its digits, most
significant first, so codes compare like their rows in lexicographic
order. Rows have a fixed length, so a tuple of row codes compares like the
concatenation of the rows, which is the flat entry tuple ``MatModP.key``.
So tuple order on codes is ``MatModP.key`` order, and for a permutation
the code is its key. Canonical (key-least) coset representatives are
chosen on codes, with no element made.
"""

from __future__ import annotations

from operator import mul

KERNEL = "pure-python"


def close(maps, identity: tuple, cap: int):
    """Breadth-first closure of ``identity`` under the generator ``maps``.

    Returns (elements, prods, R), or None when more than ``cap`` elements
    are found. ``elements`` is in BFS insertion order with the identity
    first. ``prods[i]`` is the (parent index, generator index) that first
    reached element i, and (-1, -1) for the identity. ``R[gi][i]`` is the
    index of ``elements[i]`` times generator gi.

    An involution's pair fills two entries with one lookup. A generator g
    is an involution when mapping ``identity`` through it twice gives
    ``identity`` back, which is exact for permutations and row maps alike.
    For such g, x*g = y gives y*g = x, so the pass for x sets
    ``R[g][y] = x`` as well, and the pass for y skips its lookup: an
    involution costs |G|/2 lookups instead of |G|. An entry is -1 exactly
    while it is unknown. The output cannot change. A lookup is skipped only
    when its result is x, an element found earlier, and a lookup that finds
    a known element appends nothing. So the elements are appended in the
    same order, with the same ``prods``, the same ``R`` and the same cap
    point as when every product is looked up.

    The rows of ``R`` grow in blocks, by half their length but never past
    ``cap``, and are cut to the order at the end. Growth appends unknown
    (-1) entries past the last element found, and no pass reads those: the
    pass for x reads and writes entries x and y, both found elements. So
    the lookups, the elements, ``prods`` and the entries of ``R`` are those
    of rows that grow by one entry per element. A row is never longer than
    ``cap``, so it is full when the order reaches ``cap``: the cap test
    sits in the growth step and still fails at the first element past
    ``cap``. Until the cut a row holds at most about half again as many
    entries as there are elements; the cut copies it to its exact length.

    Element i has one int object, its value in ``index``, and ``prods``
    and ``R`` hold that object: the search walks ``ids``, those objects in
    element order, next to ``elements``.
    """
    elements = [identity]
    ids = [0]
    prods = [(-1, -1)]
    index = {identity: 0}
    size = max(1, min(16, cap))  # the length of every row of R
    R = [[-1] * size for _ in maps]
    gens = []
    for gi, m in enumerate(maps):
        get = m.__getitem__
        twice = tuple(map(get, tuple(map(get, identity))))
        gens.append((gi, get, R[gi], twice == identity))
    n = 1  # the order so far, and the index the next new element takes
    for i, e in zip(ids, elements):  # both grow while they are read: a queue
        for gi, get, row, involution in gens:
            if row[i] >= 0:
                continue
            prod = tuple(map(get, e))
            j = index.setdefault(prod, n)
            if j == n:
                if n == size:
                    if n >= cap:
                        return None
                    grow = min(size >> 1, cap - size)
                    for r in R:
                        r += [-1] * grow
                    size += grow
                elements.append(prod)
                ids.append(j)
                prods.append((i, gi))
                n += 1
            row[i] = j
            if involution:
                row[j] = i
    del gens  # so that each cut frees its row
    for gi in range(len(R)):
        R[gi] = R[gi][:n]
    return elements, prods, R


class RowMap(dict):
    """Row code -> row code of v*g mod p for one matrix g, filled on first use.

    ``involution`` says whether g*g = 1. Row i of g*g is (row i of g)*g, so
    the test maps g's rows through the map, as ``close`` maps the
    identity's rows twice, and it stores those rows' images, which are
    true products. Then e_i -> row i of g is stored too, with no product:
    e_i*g is row i of g. When g is an involution, a miss v -> v*g also
    stores v*g -> v, which is exact because (v*g)*g = v*(g*g) = v: each
    pair {v, v*g} costs one product. After the test the memo holds both
    directions of every pair it has, {e_i, row i of g} included.
    """

    def __init__(self, entries, dim: int, p: int):
        super().__init__()
        self.cols = [entries[j::dim] for j in range(dim)]
        self.dim, self.p = dim, p
        self.involution = False  # no pairing until the test below is done
        rows = [encode_row(entries[i : i + dim], p) for i in range(0, dim * dim, dim)]
        one = [p ** (dim - 1 - i) for i in range(dim)]  # the codes of e_0..e_{dim-1}
        self.involution = [self[row] for row in rows] == one
        self.update(zip(one, rows))

    def __missing__(self, code: int) -> int:
        v, p = decode_row(code, self.dim, self.p), self.p
        out = 0
        for col in self.cols:  # one big-endian digit of the image per column
            out = out * p + sum(map(mul, v, col)) % p
        self[code] = out
        if self.involution:
            self[out] = code
        return out


def encode_row(row, p: int) -> int:
    """The big-endian code sum r_j p^(dim-1-j) of a row of entries mod p."""
    code = 0
    for x in row:
        code = code * p + x
    return code


def decode_row(code: int, dim: int, p: int) -> tuple:
    row = [0] * dim
    for j in range(dim - 1, -1, -1):
        code, row[j] = divmod(code, p)
    return tuple(row)


def encode_matrix(entries, dim: int, p: int) -> tuple:
    """The code of a matrix given as a row-major entry tuple: its row codes."""
    return tuple(encode_row(entries[i : i + dim], p) for i in range(0, dim * dim, dim))
