"""The benchmark's workloads: seeded inputs, one op each, and output summaries.

Every function that touches the program receives ``lib``, a namespace of
freshly imported ``polywythoff`` modules (see ``import_program``). Ops call
the program only through attributes of those modules, so the traced run can
rebind them (``tracing.py``) and the untraced run runs the program as is.

An op returns its raw results; ``summarize`` turns them into the
JSON-comparable dict that is checked against ``refs.json``. Summaries are
made outside the timed region.
"""

from __future__ import annotations

import bisect
import hashlib
import importlib
import itertools
import random
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

PROGRAM_MODULES = ("groups", "kernels", "ttgroup", "modred", "wythoff", "amalgam", "fixtureio")


def import_program(src: Path) -> SimpleNamespace:
    """Import ``polywythoff`` afresh from ``src`` and return its modules.

    Modules imported earlier are dropped first, so repeated calls each pay
    the full import, and the package must come from ``src``, never from an
    installed copy.
    """
    sys.path[:] = [str(src)] + [p for p in sys.path if p != str(src)]
    for name in [m for m in sys.modules if m == "polywythoff" or m.startswith("polywythoff.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"polywythoff.{name}") for name in PROGRAM_MODULES}
    origin = Path(sys.modules["polywythoff"].__file__).resolve().parent
    if origin != (src / "polywythoff").resolve():
        raise ImportError(f"polywythoff was imported from {origin}, not from {src}")
    return SimpleNamespace(**mods)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---- quotient-screen ---------------------------------------------------------

ORDER_CAP = 10_000  # the order cap of selftest.random_quotients
# Quotients per seeded sample. At 80 the top stratum (1/80 of the mass)
# lies within the catalogue's order-6000 groups (1.3% of it), so every
# sample holds one and the peak memory of a pass does not vary by seed.
SAMPLE_SIZE = 80


def stratified_draw(weights: list, k: int, rng: random.Random) -> list:
    """``k`` positions drawn with probability proportional to ``weights``,
    one from each of ``k`` strata of equal probability mass: the j-th is
    where the cumulative weight first reaches (j + u) / k of the total, u
    uniform in [0, 1). Each position is drawn as often as a plain weighted
    draw would draw it on average, but every seed gets the same spread."""
    cum = list(itertools.accumulate(weights))
    return [
        min(bisect.bisect_left(cum, (j + rng.random()) / k * cum[-1]), len(cum) - 1)
        for j in range(k)
    ]


def screen_inputs(lib, refs, seed):
    """A sample of the catalogue drawn as ``selftest.random_quotients`` draws
    (each entry's ``weight``), stratified along the catalogue sorted by
    ``work`` (elements its closures enumerate), with ``seed``."""
    catalogue = sorted(refs["quotient-screen"], key=lambda e: (e["work"], e["id"]))
    rng = random.Random(seed)
    picks = stratified_draw([e["weight"] for e in catalogue], SAMPLE_SIZE, rng)
    inputs = []
    for e in (catalogue[i] for i in picks):
        d = lib.ttgroup.TailTriangleDiagram(e["n"], tuple(e["tail"]), tuple(e["triangle"]))
        inputs.append(((d, tuple(e["lengths"]), e["p"]), e["ref"]))
    return inputs


def screen_op(lib, inp):
    """``polywythoff verify`` on one quotient: reduce, verify, both checks."""
    d, lengths, p = inp
    spec = lib.modred.reduce_mod_p(lib.modred.rescale(d, lengths), p)
    n = d.n
    G = lib.ttgroup.verify_tail_triangle(
        list(spec.generators[:n]), spec.generators[n], cap=ORDER_CAP
    )
    full = lib.ttgroup.check_intersection_full(G)
    reduced = lib.ttgroup.check_intersection_reduced(G)
    return G, full, reduced


def screen_summary(lib, raw):
    G, full, reduced = raw
    return {
        "order": G.group.order,
        "diagram": str(G.diagram),
        "full": full.ok,
        "reduced": reduced.ok,
        "agree": full.ok == reduced.ok,
    }


# ---- star builds -----------------------------------------------------------

STAR = "tail=[3] triangle=(4,inf,2)"
STAR_LENGTHS = (1, 1, 2, 4)


def star_inputs(prime):
    def make(lib, refs, seed):
        return [((STAR, STAR_LENGTHS, prime), refs[f"star-mod{prime}"])]

    return make


def build_op(lib, inp):
    """The public calls of ``polywythoff build --modred STAR --lengths 1,1,2,4
    --prime p --export-hasse``, in the command's order."""
    text, lengths, p = inp
    tt, wy = lib.ttgroup, lib.wythoff
    spec = lib.modred.reduce_mod_p(lib.modred.rescale(tt.parse_diagram(text), lengths), p)
    G = lib.modred.build_tail_triangle_modp(spec)
    full = tt.check_intersection_full(G)
    reduced = tt.check_intersection_reduced(G)
    P = wy.build_polytope(G, verification=reduced)
    diamond, _ = wy.verify_diamond(P)
    connected = wy.verify_strong_connectivity(P)
    sections = wy.two_sections(P)
    orbits, flags, _ = wy.flag_orbits(P, G)
    c = wy.classify(P, G)
    summary = f"fvec = {P.f_vector_str()} flags={flags} orbits={orbits} class={c.kind}"
    hasse = wy.export_hasse(P, summary=summary) + "\n"  # the file the CLI writes
    return {
        "order": G.group.order,
        "full": full.ok,
        "reduced": reduced.ok,
        "fvec": P.f_vector_str(),
        "diamond": diamond,
        "connected": connected,
        "sections": sorted(Counter(s.size for s in sections).items()),
        "sections_alternating_polygons": all(s.is_polygon and s.alternating for s in sections),
        "flags": flags,
        "orbits": orbits,
        "class": c.kind,
        "aut_order": c.aut_order,
        "hasse": hasse,
    }


def build_summary(lib, raw):
    out = dict(raw)
    out["sections"] = [list(pair) for pair in out["sections"]]
    out["hasse_sha256"] = sha256(out.pop("hasse"))
    return out


# ---- amalgam-explore -----------------------------------------------------------

PAIRS = (("tet.sg", "oct.sg"), ("tet.sg", "tet.sg"))  # two-orbit, then regular
WORDS = 200  # words per batch
WORD_LENGTHS = (4, 12)
RIDGE_RADIUS = 12
BALL_RADIUS = 2


def amalgam_inputs(lib, refs, seed):
    """Each pair of PAIRS, in turn, with the same seeded batch of random words."""
    rng = random.Random(seed)
    letters = ["a0", "a1", "a2", "b"]  # the factors are rank 3
    words = tuple(
        tuple(rng.choice(letters) for _ in range(rng.randint(*WORD_LENGTHS)))
        for _ in range(WORDS)
    )
    gens = {name: lib.fixtureio.builtin_fixture(name).gens for pair in PAIRS for name in pair}
    return [
        ((gens[p], gens[q], words), ref) for (p, q), ref in zip(PAIRS, refs["amalgam-explore"])
    ]


def word_batch(ctx, words) -> bool:
    """Normal-form arithmetic on a batch of letter words; True iff each word
    round-trips through ``word_letters``, ``w * w^-1`` is the identity, and
    the product of consecutive words is the normal form of their
    concatenation."""
    ok = True
    prev = None
    for letters in words:
        w = ctx.normalize(letters)
        ok &= ctx.normalize(ctx.word_letters(w)) == w
        ok &= ctx.multiply(w, ctx.inverse(w)) == ctx.identity_word
        if prev is not None:
            ok &= ctx.multiply(prev[1], w) == ctx.normalize(prev[0] + letters)
        prev = (letters, w)
    return ok


def amalgam_op(lib, inp):
    """``polywythoff amalgam --p P --q Q --ball 2 --normalize ...`` on one pair."""
    p_gens, q_gens, words = inp
    am = lib.amalgam
    ctx = am.AmalgamContext(p_gens, q_gens)
    cls = am.universal_is_regular(ctx)
    words_ok = word_batch(ctx, words)
    ridge = am.ridge_section(ctx, RIDGE_RADIUS)
    ball = am.enumerate_ball(ctx, BALL_RADIUS)
    return ctx, cls, words_ok, ridge, ball


def amalgam_summary(lib, raw):
    ctx, cls, words_ok, ridge, ball = raw
    P = ball.poset
    proper = [f for r in range(ctx.n + 1) for f in P.faces(r)]
    return {
        "orders": [ctx.P.order, ctx.Q.order, ctx.K.order],
        "class": cls.kind,
        "ridge_open": ridge.is_open,
        "ridge_alternating": ridge.alternating,
        "faces": [len(P.faces(r)) for r in range(ctx.n + 1)],
        "covers": sum(1 for f in proper for g in P.up[f] if g.kind != "top"),
        "words_ok": words_ok,
        "ball_elements": len(ball.elements),
        "hasse_sha256": sha256(lib.wythoff.export_hasse(P)),
    }


# ---- registry ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: Callable  # (lib, refs, seed) -> [(op input, reference summary)]
    op: Callable  # (lib, op input) -> raw result
    summarize: Callable  # (lib, raw result) -> JSON-comparable summary


WORKLOADS = {
    w.name: w
    for w in (
        Workload("quotient-screen", screen_inputs, screen_op, screen_summary),
        Workload("star-mod3", star_inputs(3), build_op, build_summary),
        Workload("amalgam-explore", amalgam_inputs, amalgam_op, amalgam_summary),
        # Not in BENCHMARK.json: one op takes ~50 s with the pure-Python
        # closure kernel, longer than a whole measured run. Kept runnable
        # by hand, and as the reference later index-level builds must match.
        Workload("star-mod5", star_inputs(5), build_op, build_summary),
    )
}
