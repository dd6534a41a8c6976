"""Independent brute-force posets used to cross-check the Wythoff builds.

These are constructed directly from coordinates / indices, with no group
theory involved, so agreement with the coset construction is meaningful.
"""

from __future__ import annotations

from .elements import Perm
from .poset import Face, FacePoset


def dihedral_tt_gens(k: int) -> tuple[Perm, Perm]:
    """Two involutions whose product has order k (the n=1 input pair)."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if k == 2:
        return Perm((2, 1, 3, 4)), Perm((1, 2, 4, 3))
    # reflections of a k-cycle: i -> 2-i and i -> 3-i (0-based), product i -> i+1
    a = Perm(tuple((2 - i) % k + 1 for i in range(k)))
    b = Perm(tuple((3 - i) % k + 1 for i in range(k)))
    return a, b


def polygon_poset(m: int) -> FacePoset:
    """The abstract m-gon (m >= 2; m = 2 is the digon)."""
    verts = [Face(0, "G_0", ("v", i)) for i in range(m)]
    edges = [Face(1, "G_1", ("e", i)) for i in range(m)]
    bot, top = Face(-1, "bot", None), Face(2, "top", None)
    covers = [(bot, v) for v in verts] + [(e, top) for e in edges]
    for i in range(m):
        covers.append((verts[i], edges[i]))
        covers.append((verts[(i + 1) % m], edges[i]))
    return FacePoset({-1: [bot], 0: verts, 1: edges, 2: [top]}, covers)


def _square_toroid(m: int, canon) -> FacePoset:
    """Unit squares on (Z/m)^2 modulo a lattice; ``canon`` picks one point
    per class."""
    pts = sorted({canon((x, y)) for x in range(m) for y in range(m)})
    verts = {p: Face(0, "G_0", ("v",) + p) for p in pts}
    edges = {(p, a): Face(1, "G_1", ("e",) + p + (a,)) for p in pts for a in (0, 1)}
    cells = {p: Face(2, "G_2", ("f",) + p) for p in pts}
    bot, top = Face(-1, "bot", None), Face(3, "top", None)
    covers = [(bot, v) for v in verts.values()] + [(c, top) for c in cells.values()]

    def shift(p, a):
        q = list(p)
        q[a] = (q[a] + 1) % m
        return canon(tuple(q))

    for p in pts:
        for a in (0, 1):
            covers.append((verts[p], edges[(p, a)]))
            covers.append((verts[shift(p, a)], edges[(p, a)]))
        covers.append((edges[(p, 0)], cells[p]))
        covers.append((edges[(shift(p, 1), 0)], cells[p]))
        covers.append((edges[(p, 1)], cells[p]))
        covers.append((edges[(shift(p, 0), 1)], cells[p]))
    return FacePoset(
        {-1: [bot], 0: list(verts.values()), 1: list(edges.values()),
         2: list(cells.values()), 3: [top]},
        covers,
    )


def toroid_44(s: int) -> FacePoset:
    """The square toroid {4,4}_(s,0): the s x s grid on the 2-torus."""
    if s < 2:
        raise ValueError("s must be >= 2")
    return _square_toroid(s, lambda p: p)


def toroid_44_ss(s: int) -> FacePoset:
    """The square toroid {4,4}_(s,s): Z^2 modulo the span of (s,s) and
    (s,-s) — 2s^2 vertices, 4s^2 edges, 2s^2 squares, 16s^2 flags.

    The lattice contains (2s,0) and (0,2s), so points are taken in (Z/2s)^2
    modulo the translate (s,s). At s = 1 each square meets one vertex
    twice and the diamond condition fails, hence s >= 2.
    """
    if s < 2:
        raise ValueError("s must be >= 2")
    m = 2 * s
    return _square_toroid(m, lambda p: min(p, ((p[0] + s) % m, (p[1] + s) % m)))


# translates of the lattice spanned by (3,3,0), (3,0,3), (0,3,3) inside (Z/6)^3
_TRANSLATES = [(0, 0, 0), (3, 3, 0), (3, 0, 3), (0, 3, 3)]


def _canon(p):
    cands = [
        tuple((p[i] + t[i]) % 6 for i in range(3)) for t in _TRANSLATES
    ]
    return min(cands)


def toroid_434_330() -> FacePoset:
    """The cubic toroid {4,3,4}_(3,3,0): Z^3 modulo the span of
    (3,3,0), (3,0,3), (0,3,3) — 54 vertices, 54 cubes, 2592 flags."""
    pts = sorted({_canon((x, y, z)) for x in range(6) for y in range(6) for z in range(6)})

    def shift(p, a, d=1):
        q = list(p)
        q[a] = (q[a] + d) % 6
        return _canon(tuple(q))

    verts = {p: Face(0, "G_0", ("v",) + p) for p in pts}
    edges = {}
    for p in pts:
        for a in range(3):
            edges[(p, a)] = Face(1, "G_1", ("e",) + p + (a,))
    squares = {}
    for p in pts:
        for n in range(3):
            squares[(p, n)] = Face(2, "G_2", ("f",) + p + (n,))
    cubes = {p: Face(3, "G_3", ("c",) + p) for p in pts}
    bot, top = Face(-1, "bot", None), Face(4, "top", None)

    covers = [(bot, v) for v in verts.values()] + [(c, top) for c in cubes.values()]
    for p in pts:
        for a in range(3):
            covers.append((verts[p], edges[(p, a)]))
            covers.append((verts[shift(p, a)], edges[(p, a)]))
        for n in range(3):
            a1, a2 = [a for a in range(3) if a != n]
            covers.append((edges[(p, a1)], squares[(p, n)]))
            covers.append((edges[(shift(p, a2), a1)], squares[(p, n)]))
            covers.append((edges[(p, a2)], squares[(p, n)]))
            covers.append((edges[(shift(p, a1), a2)], squares[(p, n)]))
            covers.append((squares[(p, n)], cubes[p]))
            covers.append((squares[(p, n)], cubes[shift(p, n, -1)]))
    return FacePoset(
        {-1: [bot], 0: list(verts.values()), 1: list(edges.values()),
         2: list(squares.values()), 3: list(cubes.values()), 4: [top]},
        covers,
    )
