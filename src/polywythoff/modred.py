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
from operator import mul

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
    it must carry zero or two 4-labels and zero or two 6-labels."""
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
                if sum(1 for lab in circuit if lab == bad) == 1:
                    return CrystallographicResult(
                        False, f"triangle circuit has exactly one {bad}-label"
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
    one = _identity(m)
    for M in sys_.matrices:
        if _mat_mul(M, M) != one:
            raise AssertionError("reflection is not an involution")
        if _mat_mul(_transpose(M), _mat_mul(W, M)) != W:
            raise AssertionError("form not preserved")
    return sys_


def _identity(m):
    return tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))


def _transpose(M):
    return tuple(zip(*M))


def _mat_mul(A, B):
    cols = _transpose(B)
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in A)


def _mat_mul_mod(A, B, p):
    """``_mat_mul(A, B)`` with each entry reduced mod p."""
    cols = _transpose(B)
    return tuple(tuple(sum(map(mul, row, col)) % p for col in cols) for row in A)


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
    the reduced matrices: M*M and M^T W M mod p depend only on M mod p. A
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

    reduced = [tuple(tuple(x % p for x in row) for row in M) for M in sys_.matrices]
    one = _identity(m)
    if any(_mat_mul_mod(M, M, p) != one for M in reduced):
        for M in reduced:
            MatModP(p, m, sum(M, ()))
        raise ValueError("reduced generator is not an involution")
    for M in reduced:
        if _mat_mul_mod(_transpose(M), _mat_mul(gram_int, M), p) != gram_int:
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
