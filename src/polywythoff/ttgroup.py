"""Tail-triangle diagrams and groups.

A tail-triangle group has involutory generators alpha_0..alpha_{n-1} plus
beta (written b) forming a path a0-a1-...-a_{n-1} whose last two nodes
close a triangle with b. Non-adjacent pairs must commute. The C-group
property (every pair of generator subsets satisfies <I> cap <J> = <I cap J>)
is checked either in full or through the reduced criterion that only needs
2n-1 intersections once the facet subgroups are known to be C-groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .groups import FiniteGroup, closure, element_order, intersect, trivial_group

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
        self._subs: dict[frozenset, FiniteGroup] = {}

    @property
    def gens(self) -> tuple:
        return self.alphas + (self.beta,)

    def gen_name(self, i: int) -> str:
        return gen_name(i, self.n)

    def sub(self, indices) -> FiniteGroup:
        """Cached closure of a subset of generators (index n = beta)."""
        key = frozenset(indices)
        got = self._subs.get(key)
        if got is None:
            if key:
                got = closure([self.gens[i] for i in sorted(key)], cap=self.cap)
            else:
                got = trivial_group(self.group.identity)
            self._subs[key] = got
        return got

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


def check_intersection_full(G: TailTriangleGroup) -> IntersectionResult:
    """Eq-style condition over all pairs of generator subsets."""
    n = G.n
    idx = list(range(n + 1))
    subsets = []
    for mask in range(1 << (n + 1)):
        subsets.append(frozenset(i for i in idx if mask >> i & 1))
    subsets.sort(key=len)
    checked = 0
    for a, I in enumerate(subsets):
        for J in subsets[a + 1 :]:
            checked += 1
            bad = _subset_pair_ok(G.sub, I, J)
            if bad is not None:
                names = lambda S: tuple(gen_name(i, n) for i in sorted(S))
                return IntersectionResult(
                    False, "full", checked, (names(I), names(J), bad)
                )
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
    subs: dict[frozenset, FiniteGroup] = {}

    def sub_of(key: frozenset) -> FiniteGroup:
        if key not in subs:
            subs[key] = (
                closure([gens[i] for i in sorted(key)], cap=cap)
                if key
                else trivial_group(G.identity)
            )
        return subs[key]

    subsets = [
        frozenset(i for i in range(r) if mask >> i & 1) for mask in range(1 << r)
    ]
    for a, I in enumerate(subsets):
        for J in subsets[a + 1 :]:
            if _subset_pair_ok(sub_of, I, J) is not None:
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


def check_intersection_reduced(G: TailTriangleGroup) -> IntersectionResult:
    """Reduced criterion: 2n-1 intersections, given C-group facet subgroups.

    Preconditions (checked recursively, reported distinctly from genuine
    intersection failures): <alphas> and <alphas minus last, beta> are string
    C-groups and Gamma_0 = <a1..a_{n-1},b> is a tail-triangle C-group.
    """
    n = G.n
    names = lambda S: tuple(gen_name(i, n) for i in sorted(S))

    def fail_pre(msg):
        return IntersectionResult(False, "reduced", 0, None, msg)

    if n >= 2:
        if not is_string_c_group(G.alphas, cap=G.cap):
            return fail_pre("facet subgroup <a0..a_{n-1}> is not a string C-group")
        if not is_string_c_group(G.alphas[:-1] + (G.beta,), cap=G.cap):
            return fail_pre("facet subgroup <a0..a_{n-2},b> is not a string C-group")
        try:
            sub_tt = verify_tail_triangle(G.alphas[1:], G.beta, cap=G.cap)
        except (NotInvolution, CommutationViolation, ValueError) as exc:
            return fail_pre(f"Gamma_0 is not a tail-triangle group: {exc}")
        sub_res = check_intersection_reduced(sub_tt)
        if not sub_res:
            return fail_pre("Gamma_0 = <a1..a_{n-1},b> is not a C-group")

    def expect(got_pair, want: FiniteGroup, I, J):
        """<I> cap <J> must equal `want` (already known <= both)."""
        meet = intersect(got_pair[0], got_pair[1])
        if meet.element_set == want.element_set:
            return None
        bad = next(e for e in meet.elements if e not in want.element_set)
        return IntersectionResult(False, "reduced", checked, (names(I), names(J), bad))

    checked = 0
    # condition 1: Gamma_n^P cap Gamma_n^Q = <a0..a_{n-2}>
    P_idx = frozenset(range(n))
    Q_idx = frozenset(list(range(n - 1)) + [n])
    checked += 1
    r = expect((G.gamma_P(), G.gamma_Q()), G.sub(range(n - 1)), P_idx, Q_idx)
    if r is not None:
        return r
    # conditions 2..2n-1: Gamma_i^+ cap each facet subgroup, i = 0..n-2
    for i in range(n - 1):
        plus_idx = frozenset(list(range(i + 1, n)) + [n])
        plus = G.gamma_plus(i)
        checked += 1
        r = expect((plus, G.gamma_P()), G.sub(range(i + 1, n)), plus_idx, P_idx)
        if r is not None:
            return r
        checked += 1
        r = expect(
            (plus, G.gamma_Q()),
            G.sub(list(range(i + 1, n - 1)) + [n]),
            plus_idx,
            Q_idx,
        )
        if r is not None:
            return r
    return IntersectionResult(True, "reduced", checked)
