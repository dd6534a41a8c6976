"""Crystallographic tail-triangle Coxeter groups reduced modulo a prime.

Pipeline: validate the diagram (label set + triangle circuit parity), build
an integral reflection system from user-supplied squared lengths, reduce the
generator matrices mod p, and hand the finite matrix group to the usual
tail-triangle machinery.  All arithmetic is exact — cosines enter only via
the integer identity 4cos^2(pi/m) in {0, 1, 2, 3, 4}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from .elements import MatModP, row_reduce
from .groups import check_modulus, closure
from .ttgroup import (
    INF,
    TailTriangleDiagram,
    TailTriangleGroup,
    check_intersection_reduced,
    gen_name,
    verify_tail_triangle,
)

# 4cos^2(pi/m) for the crystallographic labels
_COS2 = {2: 0, 3: 1, 4: 2, 6: 3, INF: 4}


class NonIntegralSystem(ValueError):
    """The requested squared lengths do not yield integer structure constants."""

    def __init__(self, i, j, n):
        self.pair = (gen_name(i, n), gen_name(j, n))
        super().__init__(f"non-integral constant for pair {self.pair}")


class IntersectionFailure(ValueError):
    """The reduced group is not a tail-triangle C-group."""

    def __init__(self, result):
        self.result = result
        super().__init__(f"intersection condition failed: {result.witness}")


@dataclass(frozen=True)
class CrystallographicResult:
    ok: bool
    reason: str = ""

    def __bool__(self):
        return self.ok


def is_crystallographic(d: TailTriangleDiagram) -> CrystallographicResult:
    """Label set in {2,3,4,6,inf}; if the triangle closes into a circuit,
    it must carry zero or two 4-labels and zero or two 6-labels.

    Around a circuit the squared-length ratios s_j / s_i = l_ij / l_ji of
    its edges multiply to 1, where l_ij l_ji = 4cos^2(pi/m) in integers: an
    edge labelled 3 has ratio 1, 4 has 2^(+-1), 6 has 3^(+-1) and inf has 1
    or 4^(+-1). So an odd count of 4-labels makes the power of 2 in the
    product odd, and an odd count of 6-labels the power of 3: one such
    label or three, and no integral system exists."""
    m = d.n + 1
    for i in range(m):
        for j in range(i + 1, m):
            lab = d.label(i, j)
            if lab not in _COS2:
                return CrystallographicResult(
                    False, f"label {lab} on ({gen_name(i, d.n)},{gen_name(j, d.n)})"
                )
    if d.n >= 2:
        circuit = d.triangle
        if all(lab >= 3 for lab in circuit):
            for bad in (4, 6):
                count = circuit.count(bad)
                if count == 1:
                    return CrystallographicResult(
                        False, f"triangle circuit has exactly one {bad}-label"
                    )
                if count == 3:
                    return CrystallographicResult(
                        False, f"triangle circuit has three {bad}-labels"
                    )
    return CrystallographicResult(True)


def _integer_sqrt(num: int, den: int):
    """Exact integer square root of num/den (den > 0, num >= 0), or None."""
    if num % den:
        return None
    q = num // den
    r = isqrt(q)
    return r if r * r == q else None


@dataclass(frozen=True)
class IntegralReflectionSystem:
    diagram: TailTriangleDiagram
    squared_lengths: tuple  # of Fraction, one per basis vector
    l: tuple  # integer structure constants, l[i][i] = -2
    matrices: tuple  # integer reflection matrices, row tuples
    gram: tuple  # rational Gram matrix of the basic system

    @property
    def dim(self):
        return self.diagram.n + 1


def rescale(d: TailTriangleDiagram, squared_lengths) -> IntegralReflectionSystem:
    cryst = is_crystallographic(d)
    if not cryst:
        raise ValueError(f"not crystallographic: {cryst.reason}")
    s = tuple(Fraction(x) for x in squared_lengths)
    m = d.n + 1
    if len(s) != m or any(x <= 0 for x in s):
        raise ValueError(f"need {m} positive squared lengths")
    # s[i] = S[i] / den over one common denominator
    den = lcm(*(x.denominator for x in s))
    S = [x.numerator * (den // x.denominator) for x in s]

    l = [[0] * m for _ in range(m)]
    for i in range(m):
        l[i][i] = -2
        for j in range(m):
            if i == j:
                continue
            # l[i][j] * l[j][i] = c and l[i][j] / l[j][i] = s[j] / s[i]
            val = _integer_sqrt(_COS2[d.label(i, j)] * S[j], S[i])
            if val is None:
                raise NonIntegralSystem(i, j, d.n)
            l[i][j] = val

    matrices = []
    for i in range(m):
        rows = [
            tuple(l[i][j] + (1 if i == j else 0) for j in range(m)) if r == i
            else tuple(1 if r == j else 0 for j in range(m))
            for r in range(m)
        ]
        matrices.append(tuple(rows))
    # Gram entry (i, j) is -l[i][j] * s[i], with -l[i][i] = 2. W is den
    # times it, an integer matrix; as den > 0, M preserves W exactly when it
    # preserves the Gram matrix.
    W = tuple(tuple(-x * S[i] for x in l[i]) for i in range(m))
    gram = tuple(tuple(Fraction(x, den) for x in row) for row in W)

    sys_ = IntegralReflectionSystem(d, s, tuple(map(tuple, l)), tuple(matrices), gram)
    # explicit raises, not asserts, so that ``python -O`` keeps the checks
    for M in sys_.matrices:
        involution, keeps_form = _reflection_checks(M, W)
        if not involution:
            raise AssertionError("reflection is not an involution")
        if not keeps_form:
            raise AssertionError("form not preserved")
    return sys_


def _changed_rows(M, p: int) -> dict:
    """Row r of E = M - 1, for each row r where E is not zero, reduced mod p
    when p > 0 and over Z when p is 0: E on the rows it changes. A row
    that is e_r as it stands is passed over with no arithmetic."""
    E = {}
    unchanged = len(M) - 1  # zeros in a row e_r
    for r, row in enumerate(M):
        if row[r] == 1 and row.count(0) == unchanged:
            continue
        e = list(row)
        e[r] -= 1
        if p:
            e = [x % p for x in e]
        if any(e):
            E[r] = e
    return E


def _reflection_checks(M, W, p: int = 0) -> tuple:
    """(M*M = 1, M^T W M = W) for square integer matrices M and W of one
    size, over Z when p is 0 and mod p when p is a prime: the full
    products' verdicts for every M and W, in O(|D| m^2) products.

    Write M = 1 + E, where E is zero outside D, the rows that M changes
    (``_changed_rows``). Row r of M*M is sum_k M[r][k] M[k] = M[r] +
    sum_{k in D} M[r][k] E[k]. For r outside D, M[r] = e_r and M[r][k] = 0
    for every k in D, so the row is e_r. For r in D it is e_r + E[r] +
    sum_{k in D} M[r][k] E[k]. So M*M = 1 iff E[r] + sum_{k in D} M[r][k]
    E[k] = 0 for every r in D. Next, M^T W M - W = E^T W + W E + E^T W E
    = E^T (W M) + W E, and E^T (W M) reads only the rows of W M at D: entry
    (i, j) is sum_{k in D} (E[k][i] (W M)[k][j] + W[i][k] E[k][j]), where
    row k of W M is W[k] + sum_{d in D} W[k][d] E[d]. A reflection changes
    one row, so it costs about 2m^2 products against 3m^3 for the products
    M*M, W*M and M^T (W M). Mod p the same identities hold in Z_p."""
    E = _changed_rows(M, p).items()
    square = []  # the rows of M*M - 1 at D
    form = []  # M^T W M - W, flat, summed over k in D
    for k, Ek in E:
        sq, WMk = Ek, W[k]  # row k of M*M - 1 and of W M, built up over D
        for d, Ed in E:
            c, w = M[k][d], W[k][d]
            if c:
                sq = [x + c * y for x, y in zip(sq, Ed)]
            if w:
                WMk = [x + w * y for x, y in zip(WMk, Ed)]
        square += sq
        term = [a * x + b * y for a, b in zip(Ek, [row[k] for row in W]) for x, y in zip(WMk, Ek)]
        form = [t + u for t, u in zip(form, term)] if form else term
    if p:
        return not any(x % p for x in square), not any(x % p for x in form)
    return not any(square), not any(form)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in range(2, isqrt(p) + 1):
        if p % q == 0:
            return False
    return True


@dataclass(frozen=True)
class ModPGroupSpec:
    p: int
    diagram: TailTriangleDiagram
    generators: tuple  # MatModP, alpha matrices then the beta matrix last
    gram_mod_p: tuple
    det_mod_p: int
    disc_class: str  # "zero", "square" or "nonsquare" (mod squares)


def reduce_mod_p(sys_: IntegralReflectionSystem, p: int) -> ModPGroupSpec:
    """The reflection system's generators and Gram form mod p, checked.

    Each matrix is reduced once, and the involution and form checks run on
    the reduced matrices: M*M and M^T W M mod p depend only on M mod p. The
    checks read only the rows each matrix changes (``_reflection_checks``)
    and give the full products' verdicts, on a hand-built system too. A
    matrix with M*M = 1 mod p is invertible mod p, its own inverse, so once
    every involution check passes, the generators are made with no
    invertibility test (``MatModP._raw``). A singular matrix fails its
    involution check, and only then are the matrices made with the test
    (``MatModP(...)``), in order, so that a singular one raises ``matrix
    not invertible mod p`` before any involution failure is reported, as
    when every generator is made first.
    """
    m = sys_.dim
    check_modulus(m, p)  # before the primality test, any output or closure
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")

    # clear Gram denominators; a unit scale factor keeps invariance intact
    den = lcm(*(x.denominator for row in sys_.gram for x in row))
    if den % p == 0:
        raise ValueError("squared-length denominators collide with p")
    gram_int = tuple(
        tuple(x.numerator * (den // x.denominator) % p for x in row) for row in sys_.gram
    )

    reduced = [tuple(tuple(map(p.__rmod__, row)) for row in M) for M in sys_.matrices]
    checks = [_reflection_checks(M, gram_int, p) for M in reduced]
    if not all(involution for involution, _ in checks):
        for M in reduced:
            MatModP(p, m, sum(M, ()))
        raise ValueError("reduced generator is not an involution")
    if not all(keeps_form for _, keeps_form in checks):
        raise ValueError("reduced form not preserved")
    gens = tuple(MatModP._raw(p, m, sum(M, ())) for M in reduced)

    det = row_reduce([list(row) for row in gram_int], m, p)[1]
    if det == 0:
        cls = "zero"
    elif p == 2:
        cls = "square"
    else:
        cls = "square" if pow(det, (p - 1) // 2, p) == 1 else "nonsquare"
    return ModPGroupSpec(p, sys_.diagram, gens, gram_int, det, cls)


def _ringing_gens(spec: ModPGroupSpec, ringing: int):
    n = spec.diagram.n
    r, s = spec.generators[:n], spec.generators[n]
    if ringing == 1:
        return list(r), s
    if n != 3:
        raise ValueError("ringings 2 and 3 require the rank-3 star diagram")
    if ringing == 2:
        return [r[2], r[1], r[0]], s
    if ringing == 3:
        return [s, r[1], r[0]], r[2]
    raise ValueError("ringing must be 1, 2 or 3")


def build_tail_triangle_modp(spec: ModPGroupSpec, ringing: int = 1) -> TailTriangleGroup:
    """Measure the actual pair orders in G^p and certify the C-group axioms.

    Labels are *not* copied from the real diagram — they can shrink under
    reduction (an infinite branch typically drops to a small finite order).
    """
    alphas, beta = _ringing_gens(spec, ringing)
    G = verify_tail_triangle(alphas, beta)
    res = check_intersection_reduced(G)
    if not res.ok:
        raise IntersectionFailure(res)
    return G


@dataclass(frozen=True)
class RingingReport:
    groups: tuple  # TailTriangleGroup per ringing
    posets: tuple  # FacePoset per ringing


def three_ringings(spec: ModPGroupSpec) -> RingingReport:
    from .wythoff import build_polytope

    if spec.diagram.n != 3 or spec.diagram.tail != (spec.diagram.tail[0],):
        raise ValueError("three ringings require the rank-3 star diagram")
    groups, posets = [], []
    for r in (1, 2, 3):
        G = build_tail_triangle_modp(spec, ringing=r)
        groups.append(G)
        posets.append(build_polytope(G))
    return RingingReport(tuple(groups), tuple(posets))


def search_lengths(d: TailTriangleDiagram, values=(1, 2, 3, 4, 6)):
    """All squared-length tuples over ``values`` giving an integral system.

    Tuples that are scalar multiples of an earlier hit are dropped — the
    structure constants depend only on length ratios.
    """
    from itertools import product

    found = []
    seen_ratios = set()
    for combo in product(values, repeat=d.n + 1):
        ratio = tuple(Fraction(x, combo[0]) for x in combo)
        if ratio in seen_ratios:
            continue
        try:
            rescale(d, combo)
        except NonIntegralSystem:
            continue
        seen_ratios.add(ratio)
        found.append(combo)
    return found


def group_order_modp(spec: ModPGroupSpec) -> int:
    """Order of G^p by brute-force closure of the reduced generators."""
    return closure(list(spec.generators)).order


def form_radical(spec: ModPGroupSpec):
    """Basis (row vectors) of the radical of the reduced Gram form: row-reduce
    [Gram | I]. Each row of the result is v·[Gram | I] = [v·Gram | v] for the
    v in its right half, and the rows past the rank are zero on the left, so
    their right halves are independent vectors with v·Gram = 0, as many as
    the dimension of the radical."""
    p, m = spec.p, len(spec.gram_mod_p)
    rows = [list(r) + [int(i == j) for j in range(m)] for i, r in enumerate(spec.gram_mod_p)]
    rank, _ = row_reduce(rows, m, p)
    return [tuple(row[m:]) for row in rows[rank:]]
