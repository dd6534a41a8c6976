"""Tail-triangle diagrams and groups.

A tail-triangle group has involutory generators alpha_0..alpha_{n-1} plus
beta (written b) forming a path a0-a1-...-a_{n-1} whose last two nodes
close a triangle with b. Non-adjacent pairs must commute. The C-group
property (every pair of generator subsets satisfies <I> cap <J> = <I cap J>)
is checked either in full or through the reduced criterion that only needs
2n-1 intersections once the facet subgroups are known to be C-groups.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .groups import FiniteGroup, closure, element_kind, element_order

INF = math.inf  # branch label for an unbounded pair order


class NotInvolution(ValueError):
    def __init__(self, which):
        self.which = which
        super().__init__(f"generator {which} is not an involution")


class CommutationViolation(ValueError):
    def __init__(self, i, j, order):
        self.pair = (i, j)
        self.order = order
        super().__init__(
            f"generators {i} and {j} must commute (diagram label 2), "
            f"product has order {order}"
        )


def gen_name(i: int, n: int) -> str:
    return "b" if i == n else f"a{i}"


def format_label(v) -> str:
    return "inf" if v == INF else str(v)


@dataclass(frozen=True)
class TailTriangleDiagram:
    """Labels of the tail-triangle diagram for rank parameter n.

    tail = (p_1, ..., p_{n-2}); triangle = (p_{n-1}, q_{n-1}, k).
    For n = 1 only k survives and the first two triangle slots are None.
    """

    n: int
    tail: tuple
    triangle: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if len(self.tail) != max(self.n - 2, 0):
            raise ValueError("tail must list p_1..p_{n-2}")
        if len(self.triangle) != 3:
            raise ValueError("triangle must be (p, q, k)")

    @property
    def k(self):
        return self.triangle[2]

    def label(self, i: int, j: int):
        """Order of gen_i * gen_j; index n denotes beta."""
        n = self.n
        if i > j:
            i, j = j, i
        if not (0 <= i <= n and 0 <= j <= n):
            raise IndexError("generator index out of range")
        if i == j:
            return 1
        if j == n:  # pair with beta
            if i == n - 1:
                return self.k
            if i == n - 2:
                return self.triangle[1]
            return 2
        if j - i > 1:
            return 2
        # consecutive alphas: p_{i+1}
        return self.triangle[0] if j == n - 1 else self.tail[i]

    def schlafli_tail(self) -> list:
        """[p_1, ..., p_{n-1}] along the alpha string."""
        return list(self.tail) + ([self.triangle[0]] if self.n >= 2 else [])

    def __str__(self):
        tail = ",".join(format_label(v) for v in self.tail)
        tri = ",".join(
            "-" if v is None else format_label(v) for v in self.triangle
        )
        return f"tail=[{tail}] triangle=({tri})"


def parse_diagram(text: str) -> TailTriangleDiagram:
    """Parse the CLI grammar ``tail=[p1,...] triangle=(p,q,k)`` (inf allowed)."""

    def lab(tok: str):
        tok = tok.strip()
        if tok == "inf":
            return INF
        if tok == "-":
            return None
        v = int(tok)
        if v < 2:
            raise ValueError(f"label must be >= 2: {tok}")
        return v

    import re

    m = re.fullmatch(
        r"\s*tail=\[([^\]]*)\]\s+triangle=\(([^)]*)\)\s*", text
    )
    if not m:
        raise ValueError(f"bad diagram spec: {text!r}")
    tail = tuple(lab(t) for t in m.group(1).split(",") if t.strip())
    tri = tuple(lab(t) for t in m.group(2).split(","))
    if len(tri) != 3:
        raise ValueError("triangle needs exactly three labels (p,q,k)")
    return TailTriangleDiagram(n=len(tail) + 2, tail=tail, triangle=tri)


class TailTriangleGroup:
    """A verified tail-triangle group with its distinguished subgroups."""

    def __init__(self, alphas, beta, group: FiniteGroup, diagram):
        self.alphas = tuple(alphas)
        self.beta = beta
        self.group = group
        self.diagram = diagram
        self.n = len(self.alphas)

    @property
    def gens(self) -> tuple:
        return self.alphas + (self.beta,)

    # distinguished subgroups of Definition-style Wythoff construction, as keys
    def gamma_P(self) -> tuple:
        return tuple(range(self.n))

    def gamma_Q(self) -> tuple:
        return tuple(range(self.n - 1)) + (self.n,)

    def gamma(self, j: int) -> tuple:
        """Gamma_j: omit alpha_j (keeping beta) for j <= n-2; ridge for j = n-1."""
        if j == self.n - 1:
            return tuple(range(self.n - 1))
        if 0 <= j <= self.n - 2:
            return tuple(i for i in range(self.n + 1) if i != j)
        raise IndexError(f"no distinguished subgroup Gamma_{j}")


def _generator_codes(gens):
    """The kind of the generators (``groups.element_kind``), the closure's
    generator maps, the code of each generator, and ``times(c, j)``, the
    code of c * gens[j] through those maps. Codes are equal exactly when the
    elements are, so the checks make no element product, and the caller
    hands the kind and the maps to ``closure``, which reuses every product
    the checks made."""
    kind = element_kind(gens)
    maps = [kind.map(g) for g in gens]
    times = lambda c, j: tuple(map(maps[j].__getitem__, c))
    return kind, maps, [kind.code(g) for g in gens], times


def verify_tail_triangle(alphas, beta, cap=None) -> TailTriangleGroup:
    """Check the generators, close the group once and read the diagram's
    labels from its right table (``pair_order``). Before the closure the
    checks read codes (``_generator_codes``), and a pair labelled 2 is
    checked by ab = ba, which for distinct involutions says ab has order 2;
    its order is measured only for the error message. The closure runs on
    the checks' generator maps."""
    alphas = tuple(alphas)
    n = len(alphas)
    gens = alphas + (beta,)
    kind, maps, codes, times = _generator_codes(gens)
    one = kind.identity
    for i, c in enumerate(codes):
        if c == one or times(c, i) != one:
            raise NotInvolution(gen_name(i, n))
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            if codes[i] == codes[j]:
                raise ValueError(
                    f"generators {gen_name(i, n)} and {gen_name(j, n)} coincide"
                )
    # forced label-2 pairs: non-adjacent alphas, and beta with a_i for i <= n-3
    for i in range(n + 1):
        for j in range(i + 2, n + 1):
            if (j < n or i <= n - 3) and times(codes[i], j) != times(codes[j], i):
                order = element_order(gens[i] * gens[j], cap=cap)
                raise CommutationViolation(gen_name(i, n), gen_name(j, n), order)

    G = closure(gens, cap=cap, kind=kind, maps=maps)
    o = lambda i, j: pair_order(G, i, j)
    if n == 1:
        diagram = TailTriangleDiagram(1, (), (None, None, o(0, 1)))
    else:
        tail = tuple(o(i, i + 1) for i in range(n - 2))
        diagram = TailTriangleDiagram(n, tail, (o(n - 2, n - 1), o(n - 2, n), o(n - 1, n)))
    return TailTriangleGroup(alphas, beta, G, diagram)


@dataclass
class IntersectionResult:
    ok: bool
    mode: str  # "full" | "reduced"
    conditions_checked: int = 0
    witness: tuple | None = None  # (I-names, J-names, offending element)
    precondition_failure: str | None = None

    def __bool__(self):
        return self.ok


def _subset_pair_ok(G: FiniteGroup, I: frozenset, J: frozenset):
    """Check <I> cap <J> = <I cap J> on the subgroup bitmasks of G
    (``FiniteGroup.mask``). Returns None, or the offending element: the
    first, in the element order of the smaller subgroup, that lies in the
    larger one and not in <I cap J>."""
    mI, mJ = G.mask(I), G.mask(J)
    bad = mI & mJ & ~G.mask(I & J)
    if not bad:
        return None
    small = I if mI.bit_count() <= mJ.bit_count() else J
    return G.element(next(x for x in G.span(small) if bad >> x & 1))


@functools.cache
def _members(a: int) -> frozenset:
    """The generator indices of the generator bitmask ``a``."""
    return frozenset(i for i in range(a.bit_length()) if a >> i & 1)


def _bits(indices) -> int:
    """The generator bitmask of the generator indices ``indices``."""
    return sum(1 << i for i in indices)


class _MaskReader(dict):
    """Generator bitmask -> the bitmask of that subgroup of ``group``, read
    from ``FiniteGroup.mask`` on first use. A check makes one, so that it
    reads each subgroup's mask once, however many pairs name it."""

    def __init__(self, group: FiniteGroup):
        super().__init__()
        self.group = group

    def __missing__(self, a: int) -> int:
        self[a] = m = self.group.mask(_members(a))
        return m


def _first_failure(masks: _MaskReader, pairs):
    """The first (I, J) in ``pairs``, pairs of generator bitmasks, that
    fails <I> cap <J> = <I cap J> in ``masks.group``.

    Returns (pairs checked, failure as (I, J, offending element) or None),
    with I and J as index sets. A pair costs three reads of ``masks`` and
    two ANDs of integers: its subgroups meet in <I cap J> when no element
    lies in both and outside <I cap J>. The failing pair is handed to
    ``_subset_pair_ok`` for its offending element.
    """
    checked = 0
    for checked, (a, b) in enumerate(pairs, 1):
        if masks[a] & masks[b] & ~masks[a & b]:
            I, J = _members(a), _members(b)
            return checked, (I, J, _subset_pair_ok(masks.group, I, J))
    return checked, None


def _subset_pairs(indices):
    """Every pair of subsets of ``indices``, smaller subsets first, as
    generator bitmasks."""
    return itertools.combinations(_subsets(indices), 2)


@functools.cache
def _subsets(indices) -> tuple:
    """The subsets of ``indices`` as generator bitmasks, smaller first, and
    within one size in the order of the bitmask over positions in
    ``indices``. Made once per index tuple."""
    subsets = [
        _bits(x for b, x in enumerate(indices) if mask >> b & 1)
        for mask in range(1 << len(indices))
    ]
    subsets.sort(key=int.bit_count)
    return tuple(subsets)


def _witness(n, failure):
    I, J, bad = failure
    names = lambda S: tuple(gen_name(i, n) for i in sorted(S))
    return names(I), names(J), bad


def check_intersection_full(G: TailTriangleGroup) -> IntersectionResult:
    """Eq-style condition over all pairs of generator subsets."""
    checked, failure = _first_failure(_MaskReader(G.group), _subset_pairs(range(G.n + 1)))
    if failure is not None:
        return IntersectionResult(False, "full", checked, _witness(G.n, failure))
    return IntersectionResult(True, "full", checked)


@dataclass
class StringGroupResult:
    ok: bool
    reason: str | None
    group: FiniteGroup | None
    schlafli: list | None

    def __bool__(self):
        return self.ok


def is_string_c_group(gens) -> StringGroupResult:
    """SC1 (string commutation, on codes) + SC2 (intersection condition).
    The closure runs on the checks' generator maps."""
    gens = tuple(gens)
    r = len(gens)
    kind, maps, codes, times = _generator_codes(gens)
    one = kind.identity
    for i, c in enumerate(codes):
        if c == one or times(c, i) != one:
            return StringGroupResult(False, f"generator {i} not an involution", None, None)
    for i in range(r):
        for j in range(i + 2, r):
            a, b = codes[i], codes[j]
            if a == b or times(a, j) != times(b, i):
                return StringGroupResult(
                    False, f"generators {i},{j} do not commute", None, None
                )
    G = closure(gens, kind=kind, maps=maps)
    _, failure = _first_failure(_MaskReader(G), _subset_pairs(range(r)))
    if failure is not None:
        I, J, _ = failure
        return StringGroupResult(
            False, f"intersection fails for {sorted(I)},{sorted(J)}", None, None
        )
    return StringGroupResult(True, None, G, schlafli_type(G))


def pair_order(G: FiniteGroup, i: int, j: int) -> int:
    """Order of g_i g_j for generators i and j of G: the length of the
    cycle through 0, the identity, of x -> R[j][R[i][x]], right
    multiplication by g_i g_j."""
    a, b = G.right_table()[i], G.right_table()[j]
    x, m = b[a[0]], 1
    while x:
        x, m = b[a[x]], m + 1
    return m


def schlafli_type(G: FiniteGroup) -> list:
    """Consecutive pair orders [p_1, ..., p_{r-1}] of G's generators."""
    return [pair_order(G, i, i + 1) for i in range(len(G.generators) - 1)]


@functools.cache
def _reduced_pairs(alphas: tuple, b: int) -> tuple:
    """The 2m-1 pairs of the reduced criterion for the tail-triangle group on
    generator indices ``alphas`` (m of them) and ``b``, as generator
    bitmasks: Gamma^P with Gamma^Q, then Gamma_i^+ with Gamma^P and with
    Gamma^Q, i = 0..m-2."""
    P = _bits(alphas)
    Q = _bits(alphas[:-1] + (b,))
    pairs = [(P, Q)]
    for i in range(len(alphas) - 1):
        plus = _bits(alphas[i + 1 :] + (b,))
        pairs += [(plus, P), (plus, Q)]
    return tuple(pairs)


def check_intersection_reduced(G: TailTriangleGroup) -> IntersectionResult:
    """Reduced criterion: 2n-1 intersections, given C-group facet subgroups.

    Preconditions, reported apart from genuine intersection failures: the
    facet subgroups <a0..a_{n-1}> and <a0..a_{n-2},b> are string C-groups
    and Gamma_0 = <a1..a_{n-1},b> is a tail-triangle C-group.

    Everything runs on generator subsets of ``G.group`` through its
    bitmask cache, so no subgroup is enumerated twice. Only intersection
    conditions are left to check, because ``verify_tail_triangle`` already
    made G: its generators are distinct involutions, and every pair the
    diagram labels 2 commutes. The non-adjacent pairs of either facet
    string are such pairs, so both facet groups satisfy the string
    conditions, and Gamma_0's generators and pair labels are G's, so it is
    a tail-triangle group. The facet groups are C-groups when all their
    subset pairs pass. Gamma_0 is then a C-group by the same criterion one
    rank down, and so on by recursion on the index tuples a_k..a_{n-1},b
    for k = 1..n-1. At each level the facet groups are generated by subsets
    of the generators of G's facet groups, so they are C-groups already,
    and only the level's own 2(n-k)-1 conditions remain.
    """
    n = G.n
    alphas = tuple(range(n))
    masks = _MaskReader(G.group)
    fails = lambda pairs: _first_failure(masks, pairs)[1] is not None

    def fail_pre(msg):
        return IntersectionResult(False, "reduced", 0, None, msg)

    if n >= 2:
        if fails(_subset_pairs(alphas)):
            return fail_pre("facet subgroup <a0..a_{n-1}> is not a string C-group")
        if fails(_subset_pairs(alphas[:-1] + (n,))):
            return fail_pre("facet subgroup <a0..a_{n-2},b> is not a string C-group")
        if any(fails(_reduced_pairs(alphas[k:], n)) for k in range(n - 1, 0, -1)):
            return fail_pre("Gamma_0 = <a1..a_{n-1},b> is not a C-group")
    checked, failure = _first_failure(masks, _reduced_pairs(alphas, n))
    if failure is not None:
        return IntersectionResult(False, "reduced", checked, _witness(n, failure))
    return IntersectionResult(True, "reduced", checked)
