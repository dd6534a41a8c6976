"""Built-in acceptance suite: expected vs computed values, row per check.

Rows state their expected values verbatim; a row whose computed value
disagrees is reported as FAIL rather than silently adjusted.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .amalgam import (
    AmalgamContext,
    dihedral_order_unbounded,
    enumerate_ball,
    ridge_section,
    universal_is_regular,
)
from .fixtureio import builtin_fixture
from .groups import CapExceeded
from .modred import (
    build_tail_triangle_modp,
    group_order_modp,
    is_crystallographic,
    reduce_mod_p,
    rescale,
    search_lengths,
    three_ringings,
)
from .oracles import dihedral_tt_gens, polygon_poset, toroid_44_ss, toroid_434_330
from .ttgroup import (
    CommutationViolation,
    NotInvolution,
    TailTriangleDiagram,
    check_intersection_full,
    check_intersection_reduced,
    pair_order,
    parse_diagram,
    verify_tail_triangle,
)
from .wythoff import (
    build_polytope,
    classify,
    flag_orbits,
    poset_isomorphic,
    two_sections,
    verify_diamond,
    verify_strong_connectivity,
    vertex_figure,
)

STAR = "tail=[3] triangle=(4,inf,2)"


@dataclass(frozen=True)
class Row:
    criterion: int
    name: str
    expected: str
    computed: str
    skipped: bool = False

    @property
    def ok(self):
        return self.skipped or self.expected == self.computed


def _tt(name):
    fx = builtin_fixture(name)
    return verify_tail_triangle(fx.alphas, fx.beta)


def _pipeline(G):
    P = build_polytope(G)
    orbits, flags, _ = flag_orbits(P, G)
    c = classify(P, G)
    return P, orbits, flags, c


def _row1():
    G = _tt("tomotope.tt")
    full, red = check_intersection_full(G), check_intersection_reduced(G)
    P, orbits, flags, c = _pipeline(G)
    secs = two_sections(P)
    sec = "4-gon alt" if all(s.size == 4 and s.alternating for s in secs) else "bad"
    comp = (
        f"order=96 checks=agree fvec=(4, 12, 16, 4+4) sections=4-gon alt "
        f"class=TwoOrbit aut=96 flags=192"
    )
    got = (
        f"order={G.group.order} checks={'agree' if full.ok == red.ok and full.ok else 'differ'} "
        f"fvec={P.f_vector_str()} sections={sec} class={c.kind} aut={c.aut_order} flags={flags}"
    )
    return [Row(1, "tomotope", comp, got)]


def _row2():
    G = _tt("m66_240a.tt")
    P, orbits, flags, c = _pipeline(G)
    want = "order=240 flags=480 fvec=(60, 120, 20+20) class=TwoOrbit"
    got = f"order={G.group.order} flags={flags} fvec={P.f_vector_str()} class={c.kind}"
    return [Row(2, "{6,6}*240a middle ring", want, got)]


def _row3():
    G = _tt("b3_digon.tt")
    P, orbits, flags, c = _pipeline(G)
    secs = two_sections(P)
    arith = all(
        len(P.ids(j)) == G.group.order // len(G.group.span(G.gamma(j)))
        for j in range(G.n - 1)
    )
    want = "order=48 fvec=(8, 24, 6+12) sections=6-gon arithmetic=ok"
    got = (
        f"order={G.group.order} fvec={P.f_vector_str()} "
        f"sections={'6-gon' if all(s.size == 6 for s in secs) else 'bad'} "
        f"arithmetic={'ok' if arith else 'bad'}"
    )
    return [Row(3, "B3 digonal polyhedron", want, got)]


def _row4():
    parts = []
    for k in (2, 3, 4, 5):
        a, b = dihedral_tt_gens(k)
        G = verify_tail_triangle([a], b)
        P = build_polytope(G)
        ok = (
            P.f_vector() == (2 * k, 2 * k)
            and verify_diamond(P)[0]
            and verify_strong_connectivity(P)
            and poset_isomorphic(P, polygon_poset(2 * k)) is not None
        )
        parts.append(f"k={k}:{'{%d}' % (2 * k) if ok else 'bad'}")
    return [Row(4, "n=1 polygon base case", "k=2:{4} k=3:{6} k=4:{8} k=5:{10}", " ".join(parts))]


def _row5():
    fx = builtin_fixture("d4.tt")
    x, c0, y, z = fx.gens
    builds = []
    for alphas, beta in [((x, c0, y), z), ((y, c0, x), z), ((z, c0, x), y)]:
        G = verify_tail_triangle(alphas, beta)
        P = build_polytope(G)
        builds.append((P, classify(P, G)))
    iso = all(
        poset_isomorphic(builds[i][0], builds[j][0]) is not None
        for i in range(3)
        for j in range(i + 1, 3)
    )
    fvecs = {p.f_vector_str() for p, _ in builds}
    kinds = {c.kind for _, c in builds}
    auts = {c.aut_order for _, c in builds}
    # The group has order 192; dropping one of the four generators leaves
    # subgroups of index 8, 8, 24 and 8. Vertices are the cosets of one of
    # them, so 16 vertices (the 4-cube) is impossible, and the facets are
    # two classes of index-8 cosets, 8+8. The build is the 16-cell (half
    # 4-cube), aut B4 of order 384, and triality makes the ringings agree.
    want = "fvec=(8, 24, 32, 8+8) class=Regular aut=384 pairwise-isomorphic"
    got = (
        f"fvec={fvecs.pop() if len(fvecs) == 1 else sorted(fvecs)} "
        f"class={kinds.pop() if len(kinds) == 1 else sorted(kinds)} "
        f"aut={auts.pop() if len(auts) == 1 else sorted(auts)} "
        f"{'pairwise-isomorphic' if iso else 'not-isomorphic'}"
    )
    return [Row(5, "D4 three ringings", want, got)]


def _rows6():
    sys_ = rescale(parse_diagram(STAR), (1, 1, 2, 4))
    spec2 = reduce_mod_p(sys_, 2)
    G2 = build_tail_triangle_modp(spec2)
    P, orbits, flags, c = _pipeline(G2)
    got2 = (
        f"order={G2.group.order} class={c.kind} vertices={len(P.ids(0))} "
        f"flags={flags} order(r1s2)={pair_order(G2.group, 1, 3)}"
    )
    want2 = "order=96 class=Regular vertices=3 flags=192 order(r1s2)=4"
    vf = vertex_figure(P, P.ids(0)[0])
    # Regular with 192 flags on 3 vertices: each vertex figure has 64 flags,
    # and a rank-3 polytope has 4 * f1 flags, so f1 = 16. That is the torus
    # {4,4}_(2,2) (64 flags), not {4,4}_(2,0) (32 flags).
    wantvf = f"vertex-figure fvec={toroid_44_ss(2).f_vector()}"
    gotvf = f"vertex-figure fvec={vf.f_vector()}"
    spec3 = reduce_mod_p(sys_, 3)
    got3 = f"order={group_order_modp(spec3)} discriminant={spec3.det_mod_p}"
    return [
        Row(6, "mod-2 reduction", want2, got2),
        Row(6, "mod-2 vertex-figure", wantvf, gotvf),
        Row(6, "mod-3 reduction", "order=1296 discriminant=0", got3),
    ]


def _row7():
    spec = reduce_mod_p(rescale(parse_diagram(STAR), (1, 1, 2, 4)), 3)
    rep = three_ringings(spec)
    split = rep.posets[2].facet_split() or (0, 0)
    G2, P2 = rep.groups[1], rep.posets[1]
    c2 = classify(P2, G2)
    tor = poset_isomorphic(P2, toroid_434_330()) is not None
    want = "facets=54+27 regular-ringing=Regular toroid-isomorphic=yes"
    got = (
        f"facets={split[0]}+{split[1]} regular-ringing={c2.kind} "
        f"toroid-isomorphic={'yes' if tor else 'no'}"
    )
    return [Row(7, "mod-3 ringings", want, got)]


def _rows8(quick):
    tet = builtin_fixture("tet.sg").gens
    oct_ = builtin_fixture("oct.sg").gens
    ctx = AmalgamContext(tet, oct_)
    rng = random.Random(88)
    names = sorted(ctx.letters)

    n_words = 10_000
    idem = all(
        (lambda w: ctx.normalize(ctx.word_letters(w)) == w)(
            ctx.normalize([rng.choice(names) for _ in range(rng.randint(0, 12))])
        )
        for _ in range(n_words)
    )
    emb = True
    for _ in range(1000):
        side, G = rng.choice([("P", ctx.P), ("Q", ctx.Q)])
        g, h = rng.choice(G.elements), rng.choice(G.elements)
        if ctx.multiply(ctx.inject(side, g), ctx.inject(side, h)) != ctx.inject(side, g * h):
            emb = False
    injP = {ctx.inject("P", g) for g in ctx.P.elements}
    injQ = {ctx.inject("Q", g) for g in ctx.Q.elements}
    meet = injP & injQ
    inter = len(meet) == ctx.K.order and all(w.taus == () for w in meet)
    dihedral = dihedral_order_unbounded(ctx, 50)

    nested = True
    balls = {r: enumerate_ball(ctx, r) for r in (0, 1, 2)}
    for r in (0, 1):
        small, big = balls[r], balls[r + 1]
        for rank in range(ctx.n + 1):
            for f in small.poset.faces(rank):
                if big.find_face(rank, f.kind, f.rep) is None:
                    nested = False

    r_sec = 6 if quick else 12
    sec = ridge_section(ctx, r_sec)
    cls_ok = (
        universal_is_regular(AmalgamContext(tet, tet)).kind == "Regular"
        and universal_is_regular(ctx).kind == "TwoOrbit"
    )
    rows = [
        Row(8, f"normal-form idempotence x{n_words}", "ok", "ok" if idem else "fail"),
        Row(8, "factor embeddings x1000", "ok", "ok" if emb else "fail"),
        Row(8, "P meet Q = K at word level", "ok", "ok" if inter else "fail"),
        Row(8, "(a_{n-1} b)^m != 1, m <= 50", "ok", "ok" if dihedral else "fail"),
        Row(8, "ball nesting r<=2", "ok", "ok" if nested else "fail"),
        Row(
            8,
            f"ridge section open+alternating r={r_sec}",
            "ok",
            "ok" if sec.is_open and sec.alternating else "fail",
        ),
        Row(8, "universal classification", "ok", "ok" if cls_ok else "fail"),
    ]
    return rows


def random_quotients(count=20, primes=(2, 3, 5), seed=20260823):
    """Deterministic sample of small tail-triangle quotients via mod-p
    reduction of random crystallographic diagrams (orders <= 10^4)."""
    rng = random.Random(seed)
    labels = [2, 3, 4, 6]
    out = []
    attempts = 0
    while len(out) < count and attempts < 50 * count:
        attempts += 1
        n = rng.choice([2, 3])
        tail = tuple(rng.choice(labels[1:]) for _ in range(n - 2))
        tri = (rng.choice(labels[1:]), rng.choice(labels[1:]), rng.choice(labels))
        d = TailTriangleDiagram(n, tail, tri)
        if not is_crystallographic(d):
            continue
        lens = search_lengths(d, values=(1, 2, 3))
        if not lens:
            continue
        p = rng.choice(list(primes))
        try:
            spec = reduce_mod_p(rescale(d, rng.choice(lens)), p)
            G = verify_tail_triangle(
                list(spec.generators[:n]), spec.generators[n], cap=10_000
            )
        except (CapExceeded, NotInvolution, CommutationViolation, ValueError):
            continue
        out.append(G)
    return out


def _row9(quick):
    groups = [
        _tt(name)
        for name in ["tomotope.tt", "m66_240a.tt", "b3_digon.tt", "d4.tt",
                     "hexagon.tt", "sc2_fail.tt"]
    ]
    groups += random_quotients(primes=(2, 3) if quick else (2, 3, 5))
    agree = all(
        check_intersection_full(G).ok == check_intersection_reduced(G).ok
        for G in groups
    )
    return [
        Row(
            9,
            f"reduced vs full agreement on {len(groups)} groups",
            "agree",
            "agree" if agree else "differ",
        )
    ]


CRYST_TABLE = [
    ("tail=[3] triangle=(4,inf,2)", True),
    ("tail=[3] triangle=(3,3,2)", True),
    ("tail=[] triangle=(5,3,2)", False),
    ("tail=[7] triangle=(3,3,2)", False),
    ("tail=[] triangle=(4,3,3)", False),
    ("tail=[] triangle=(4,4,3)", True),
    ("tail=[] triangle=(6,3,3)", False),
    ("tail=[] triangle=(6,6,3)", True),
    ("tail=[] triangle=(4,3,2)", True),
    ("tail=[] triangle=(6,4,2)", True),
    ("tail=[] triangle=(4,6,3)", False),
    ("tail=[3] triangle=(inf,inf,inf)", True),
]


def _row10():
    bad = [
        text
        for text, want in CRYST_TABLE
        if bool(is_crystallographic(parse_diagram(text))) != want
    ]
    return [
        Row(
            10,
            f"crystallographic criterion on {len(CRYST_TABLE)} diagrams",
            "all agree",
            "all agree" if not bad else f"disagree: {bad}",
        )
    ]


def run_selftest(quick=False):
    rows = []
    rows += _row1()
    rows += _row2()
    rows += _row3()
    rows += _row4()
    rows += _row5()
    rows += _rows6()
    rows += _row7()
    rows += _rows8(quick)
    rows += _row9(quick)
    rows += _row10()
    return rows


def render(rows):
    out = []
    width = max(len(r.name) for r in rows)
    for r in rows:
        status = "SKIP" if r.skipped else ("PASS" if r.ok else "FAIL")
        out.append(f"[{status}] #{r.criterion:<2} {r.name:<{width}}")
        if not r.ok:
            out.append(f"       expected: {r.expected}")
            out.append(f"       computed: {r.computed}")
    passed = sum(r.ok and not r.skipped for r in rows)
    failed = sum(not r.ok for r in rows)
    out.append(f"{passed} passed, {failed} failed, {sum(r.skipped for r in rows)} skipped")
    return "\n".join(out)


def to_json(rows):
    return json.dumps(
        [
            {
                "criterion": r.criterion,
                "name": r.name,
                "expected": r.expected,
                "computed": r.computed,
                "ok": r.ok,
                "skipped": r.skipped,
            }
            for r in rows
        ],
        indent=2,
    )
