"""Tail-triangle diagrams and groups.

A tail-triangle group has involutory generators alpha_0..alpha_{n-1} plus
beta (written b) forming a path a0-a1-...-a_{n-1} whose last two nodes
close a triangle with b. Non-adjacent pairs must commute. The C-group
property (every pair of generator subsets satisfies <I> cap <J> = <I cap J>)
is checked either in full or through the reduced criterion that only needs
2n-1 intersections once the facet subgroups are known to be C-groups.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .groups import FiniteGroup, closure, element_order

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

    def __init__(self, alphas, beta, group: FiniteGroup, diagram, cap=None):
        self.alphas = tuple(alphas)
        self.beta = beta
        self.group = group
        self.diagram = diagram
        self.n = len(self.alphas)
        self.cap = cap

    @property
    def gens(self) -> tuple:
        return self.alphas + (self.beta,)

    def gen_name(self, i: int) -> str:
        return gen_name(i, self.n)

    def sub(self, indices) -> FiniteGroup:
        """Subgroup on a subset of generators (index n = beta), cached on
        the group (``FiniteGroup.sub``)."""
        return self.group.sub(indices)

    # distinguished subgroups of Definition-style Wythoff construction
    def gamma_P(self) -> FiniteGroup:
        return self.sub(range(self.n))

    def gamma_Q(self) -> FiniteGroup:
        return self.sub(list(range(self.n - 1)) + [self.n])

    def gamma(self, j: int) -> FiniteGroup:
        """Gamma_j: omit alpha_j (keeping beta) for j <= n-2; ridge for j = n-1."""
        if j == self.n - 1:
            return self.sub(range(self.n - 1))
        if 0 <= j <= self.n - 2:
            return self.sub([i for i in range(self.n + 1) if i != j])
        raise IndexError(f"no distinguished subgroup Gamma_{j}")

    def gamma_plus(self, i: int) -> FiniteGroup:
        """<alpha_{i+1},...,alpha_{n-1},beta> for -1 <= i <= n-2."""
        if not (-1 <= i <= self.n - 2):
            raise IndexError("i out of range for Gamma_i^+")
        return self.sub(list(range(i + 1, self.n)) + [self.n])


def verify_tail_triangle(alphas, beta, cap=None) -> TailTriangleGroup:
    """Measure all pair orders, enforce the diagram's forced commutations."""
    alphas = tuple(alphas)
    n = len(alphas)
    gens = alphas + (beta,)
    for i, g in enumerate(gens):
        if g.is_identity() or not (g * g).is_identity():
            raise NotInvolution(gen_name(i, n))
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            if gens[i] == gens[j]:
                raise ValueError(
                    f"generators {gen_name(i, n)} and {gen_name(j, n)} coincide"
                )

    def pair_order(i, j):
        return element_order(gens[i] * gens[j], cap=cap)

    # forced label-2 pairs: non-adjacent alphas, and beta with a_i for i <= n-3
    orders = {}
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            o = pair_order(i, j)
            orders[(i, j)] = o
            forced = (j <= n - 1 and j - i > 1) or (j == n and i <= n - 3)
            if forced and o != 2:
                raise CommutationViolation(gen_name(i, n), gen_name(j, n), o)

    if n == 1:
        diagram = TailTriangleDiagram(1, (), (None, None, orders[(0, 1)]))
    else:
        tail = tuple(orders[(i, i + 1)] for i in range(n - 2))
        diagram = TailTriangleDiagram(
            n, tail, (orders[(n - 2, n - 1)], orders[(n - 2, n)], orders[(n - 1, n)])
        )
    return TailTriangleGroup(alphas, beta, closure(gens, cap=cap), diagram, cap=cap)


@dataclass
class IntersectionResult:
    ok: bool
    mode: str  # "full" | "reduced"
    conditions_checked: int = 0
    witness: tuple | None = None  # (I-names, J-names, offending element)
    precondition_failure: str | None = None

    def __bool__(self):
        return self.ok


def _subset_pair_ok(sub_of, I: frozenset, J: frozenset):
    """Check <I> cap <J> = <I cap J>; returns offending element or None."""
    HI, HJ = sub_of(I), sub_of(J)
    HIJ = sub_of(I & J)
    small, big = (HI, HJ) if HI.order <= HJ.order else (HJ, HI)
    for e in small.elements:
        if e in big.element_set and e not in HIJ.element_set:
            return e
    return None


def _first_failure(sub_of, pairs):
    """The first (I, J) in ``pairs`` that fails ``_subset_pair_ok``.

    Returns (pairs checked, failure as (I, J, offending element) or None).
    """
    checked = 0
    for checked, (I, J) in enumerate(pairs, 1):
        bad = _subset_pair_ok(sub_of, I, J)
        if bad is not None:
            return checked, (I, J, bad)
    return checked, None


def _subset_pairs(indices):
    """Every pair of subsets of ``indices``, smaller subsets first."""
    indices = tuple(indices)
    subsets = [
        frozenset(x for b, x in enumerate(indices) if mask >> b & 1)
        for mask in range(1 << len(indices))
    ]
    subsets.sort(key=len)
    return itertools.combinations(subsets, 2)


def _witness(n, failure):
    I, J, bad = failure
    names = lambda S: tuple(gen_name(i, n) for i in sorted(S))
    return names(I), names(J), bad


def check_intersection_full(G: TailTriangleGroup) -> IntersectionResult:
    """Eq-style condition over all pairs of generator subsets."""
    checked, failure = _first_failure(G.sub, _subset_pairs(range(G.n + 1)))
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


def is_string_c_group(gens, cap=None) -> StringGroupResult:
    """SC1 (string commutation) + SC2 (intersection condition) for ordered gens."""
    gens = tuple(gens)
    r = len(gens)
    for i, g in enumerate(gens):
        if g.is_identity() or not (g * g).is_identity():
            return StringGroupResult(False, f"generator {i} not an involution", None, None)
    for i in range(r):
        for j in range(i + 2, r):
            if element_order(gens[i] * gens[j], cap=cap) != 2:
                return StringGroupResult(
                    False, f"generators {i},{j} do not commute", None, None
                )
    G = closure(gens, cap=cap)
    _, failure = _first_failure(G.sub, _subset_pairs(range(r)))
    if failure is not None:
        I, J, _ = failure
        return StringGroupResult(
            False, f"intersection fails for {sorted(I)},{sorted(J)}", None, None
        )
    return StringGroupResult(True, None, G, schlafli_type(gens, cap=cap))


def schlafli_type(gens, cap=None) -> list:
    """Consecutive pair orders [p_1, ..., p_{r-1}]."""
    gens = tuple(gens)
    return [
        element_order(gens[i] * gens[i + 1], cap=cap) for i in range(len(gens) - 1)
    ]


def _reduced_pairs(alphas: tuple, b: int) -> list:
    """The 2m-1 pairs of the reduced criterion for the tail-triangle group on
    generator indices ``alphas`` (m of them) and ``b``: Gamma^P with
    Gamma^Q, then Gamma_i^+ with Gamma^P and with Gamma^Q, i = 0..m-2."""
    P = frozenset(alphas)
    Q = frozenset(alphas[:-1] + (b,))
    pairs = [(P, Q)]
    for i in range(len(alphas) - 1):
        plus = frozenset(alphas[i + 1 :] + (b,))
        pairs += [(plus, P), (plus, Q)]
    return pairs


def check_intersection_reduced(G: TailTriangleGroup) -> IntersectionResult:
    """Reduced criterion: 2n-1 intersections, given C-group facet subgroups.

    Preconditions, reported apart from genuine intersection failures: the
    facet subgroups <a0..a_{n-1}> and <a0..a_{n-2},b> are string C-groups
    and Gamma_0 = <a1..a_{n-1},b> is a tail-triangle C-group.

    Everything runs on generator index sets of ``G.group`` through its
    subgroup cache, so no subgroup is enumerated twice. Only intersection
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
    fails = lambda pairs: _first_failure(G.group.sub, pairs)[1] is not None

    def fail_pre(msg):
        return IntersectionResult(False, "reduced", 0, None, msg)

    if n >= 2:
        if fails(_subset_pairs(alphas)):
            return fail_pre("facet subgroup <a0..a_{n-1}> is not a string C-group")
        if fails(_subset_pairs(alphas[:-1] + (n,))):
            return fail_pre("facet subgroup <a0..a_{n-2},b> is not a string C-group")
        if any(fails(_reduced_pairs(alphas[k:], n)) for k in range(n - 1, 0, -1)):
            return fail_pre("Gamma_0 = <a1..a_{n-1},b> is not a C-group")
    checked, failure = _first_failure(G.group.sub, _reduced_pairs(alphas, n))
    if failure is not None:
        return IntersectionResult(False, "reduced", checked, _witness(n, failure))
    return IntersectionResult(True, "reduced", checked)
