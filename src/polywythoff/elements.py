"""Exact group elements: permutations on {1..N} and invertible matrices over Z_p.

Both kinds are immutable, hashable and totally ordered by their serialized
form (image tuple / flattened entry tuple), which is what makes canonical
coset representatives well defined. ``row_reduce`` is the one elimination
mod p: it tests matrices for invertibility here and gives ``modred`` the
discriminant and the radical of a reduced form. No element is inverted in
the program; the tests invert elements for their oracles.
"""

from __future__ import annotations

import re
from typing import Iterable


class KindMismatch(TypeError):
    """Raised when combining elements of different kind/degree/modulus."""


class Perm:
    """Permutation of {1..N}, stored as the tuple of images.

    Acts on the right: point^(a*b) = (point^a)^b.
    """

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        object.__setattr__(self, "images", images)

    @classmethod
    def _raw(cls, images: tuple) -> "Perm":
        # trusted constructor (skips the bijection check)
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    def __mul__(self, other: "Perm") -> "Perm":
        if not isinstance(other, Perm):
            return NotImplemented
        if other.degree != self.degree:
            raise KindMismatch("degree mismatch")
        o = other.images
        return Perm._raw(tuple(o[i - 1] for i in self.images))

    def is_identity(self) -> bool:
        return all(img == i + 1 for i, img in enumerate(self.images))

    @property
    def key(self) -> tuple:
        return self.images

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __lt__(self, other: "Perm"):
        return self.images < other.images

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles of length >= 2, each starting at its minimum."""
        seen = set()
        out = []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            p = self.images[start - 1]
            while p != start:
                cyc.append(p)
                seen.add(p)
                p = self.images[p - 1]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __str__(self):
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + ",".join(map(str, c)) + ")" for c in cycs)

    def __repr__(self):
        return f"Perm[{self}]"


_CYCLE_RE = re.compile(r"\(([0-9,\s]*)\)")


def parse_perm(text: str, degree: int) -> Perm:
    """Parse disjoint-cycle notation like ``(5,10)(6,9)``; identity is ``()``."""
    text = text.strip()
    if not text:
        raise ValueError("empty permutation text")
    stripped = _CYCLE_RE.sub("", text)
    if stripped.strip():
        raise ValueError(f"bad permutation syntax: {text!r}")
    images = list(range(1, degree + 1))
    seen: set[int] = set()
    for m in _CYCLE_RE.finditer(text):
        body = m.group(1).strip()
        if not body:
            continue
        pts = [int(t) for t in body.split(",")]
        if any(p < 1 or p > degree for p in pts):
            raise ValueError(f"point out of range 1..{degree} in {text!r}")
        if seen & set(pts) or len(set(pts)) != len(pts):
            raise ValueError(f"cycles not disjoint in {text!r}")
        seen |= set(pts)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a - 1] = b
    return Perm(images)


def row_reduce(rows: list, cols: int, p: int) -> tuple[int, int]:
    """Gauss-Jordan elimination mod the prime p on the first ``cols``
    columns of ``rows``, a list of lists of entries in [0, p), in place.

    Each column takes as pivot the first row, among those not yet pivoted,
    with a nonzero entry there; that row moves up to the next pivot place,
    is scaled to a leading 1 and is subtracted from every other row. So the
    pivoted rows come first, in reduced echelon form on those columns, and
    the rest are zero on them. Returns (rank, det): the number of pivots,
    and when ``cols`` is the number of rows, the determinant of that square
    block mod p (0 when the rank falls short), the product of the pivots
    before scaling with one sign change per swap. Scaling a row and adding
    multiples of one row to another do not change which rows are zero in a
    column, so the pivots are those of forward elimination.
    """
    rank, det = 0, 1
    for c in range(cols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            det = 0
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            det = -det
        lead = rows[rank][c]
        det = det * lead % p
        inv = pow(lead, -1, p)
        rows[rank] = row = [x * inv % p for x in rows[rank]]
        for r, other in enumerate(rows):
            f = other[c]
            if r != rank and f:
                rows[r] = [(x - f * y) % p for x, y in zip(other, row)]
        rank += 1
    return rank, det % p


class MatModP:
    """Square matrix over Z_p, entries stored row-major as a flat tuple."""

    __slots__ = ("p", "dim", "entries")

    def __init__(self, p: int, dim: int, entries: Iterable[int], check: bool = True):
        if p < 2:
            raise ValueError(f"modulus must be >= 2, not {p}")
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, not {dim}")
        entries = tuple(e % p for e in entries)
        if len(entries) != dim * dim:
            raise ValueError("entry count does not match dimension")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", entries)
        if check and not self._invertible():
            raise ValueError(f"matrix not invertible mod {p}")

    @classmethod
    def _raw(cls, p: int, dim: int, entries: tuple) -> "MatModP":
        m = object.__new__(cls)
        object.__setattr__(m, "p", p)
        object.__setattr__(m, "dim", dim)
        object.__setattr__(m, "entries", entries)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("MatModP is immutable")

    def _compatible(self, other: "MatModP"):
        if self.p != other.p or self.dim != other.dim:
            raise KindMismatch("modulus/dimension mismatch")

    def __mul__(self, other: "MatModP") -> "MatModP":
        if not isinstance(other, MatModP):
            return NotImplemented
        self._compatible(other)
        d, p = self.dim, self.p
        a, b = self.entries, other.entries
        out = []
        for i in range(d):
            row = a[i * d : (i + 1) * d]
            for j in range(d):
                out.append(sum(row[k] * b[k * d + j] for k in range(d)) % p)
        return MatModP._raw(p, d, tuple(out))

    def _invertible(self) -> bool:
        d = self.dim
        rows = [list(self.entries[i : i + d]) for i in range(0, d * d, d)]
        return row_reduce(rows, d, self.p)[0] == d

    def is_identity(self) -> bool:
        d = self.dim
        return all(
            self.entries[i * d + j] == (1 if i == j else 0)
            for i in range(d)
            for j in range(d)
        )

    @property
    def key(self) -> tuple:
        return self.entries

    def __eq__(self, other):
        return (
            isinstance(other, MatModP)
            and self.p == other.p
            and self.dim == other.dim
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.p, self.dim, self.entries))

    def __lt__(self, other: "MatModP"):
        self._compatible(other)
        return self.entries < other.entries

    def __str__(self):
        body = " ".join(str(e) for e in self.entries)
        return f"mod {self.p} dim {self.dim} [{body}]"

    def __repr__(self):
        return f"MatModP[{self}]"


_MAT_RE = re.compile(r"^mod\s+(\d+)\s+dim\s+(\d+)\s+\[([-0-9\s]*)\]$")


def parse_matmodp(text: str) -> MatModP:
    """Parse ``mod p dim d [row-major integers]``."""
    m = _MAT_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad matrix syntax: {text!r}")
    p, dim = int(m.group(1)), int(m.group(2))
    entries = [int(t) for t in m.group(3).split()]
    return MatModP(p, dim, entries)


def same_kind(a, b) -> bool:
    if isinstance(a, Perm) and isinstance(b, Perm):
        return a.degree == b.degree
    if isinstance(a, MatModP) and isinstance(b, MatModP):
        return a.p == b.p and a.dim == b.dim
    return False
