"""The poset checks against the exhaustive Face-level oracle.

The oracle is the Face-keyed code the integer poset replaced: the diamond
condition over every incident pair, strong connectivity over every section,
every 2-section, and flag orbits by walking every flag. The production
checks run on integer ids, on Wythoff builds only, on one incident pair per
orbit and the flags through one vertex; they refuse any other poset. They
must give the oracle's answers on the fixtures, star mod 2 and mod 3 in all
three ringings, ``selftest.random_quotients`` and the regular builds, and
on a negative corpus: builds of groups that fail the intersection
condition. The toroid oracles, the polygons and the broken hand-built
posets go through the oracles alone.

The orbit path rests on what a build is by construction
(``wythoff._assemble``): its faces come in ``Face.sort_key`` order, its
group acts by automorphisms, and each kind is one orbit with the kind's
base face in it. The build oracles below check all three on every build by
exhaustive scans.

The build itself carries covers from each kind's base face along the
group action. The cover oracle builds the same tables the element-level
way: the covers between two kinds are the coset id pairs of every element
of the group, and a generator moves a coset through any of its elements.
Every build of the corpus, star mod 5 included, must give its tables. A
build prints its representatives from their codes; on every build its
export must equal that of the same poset built by hand from ``Face``
objects, whose representatives print by ``str``.
"""

import pytest

from polywythoff.amalgam import AmalgamContext, enumerate_ball
from polywythoff.fixtureio import builtin_fixture
from polywythoff.groups import coset_partition
from polywythoff.modred import build_tail_triangle_modp, reduce_mod_p, rescale
from polywythoff.oracles import polygon_poset, toroid_44, toroid_44_ss, toroid_434_330
from polywythoff.selftest import random_quotients
from polywythoff.poset import Face, FacePoset
from polywythoff.ttgroup import (
    check_intersection_full,
    is_string_c_group,
    parse_diagram,
    verify_tail_triangle,
)
from polywythoff.wythoff import (
    UnverifiedGroup,
    _assemble,
    build_polytope,
    build_regular,
    export_hasse,
    flag_orbits,
    two_sections,
    verify_diamond,
    verify_strong_connectivity,
    vertex_figure,
)

STAR = "tail=[3] triangle=(4,inf,2)"

# ---- the oracle: Face-level, every pair, every flag ---------------------------


def _closure(view, f):
    acc = set()
    frontier = [f]
    while frontier:
        nxt = []
        for x in frontier:
            for y in view[x]:
                if y not in acc:
                    acc.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(acc)


def down_view(P):
    """Face -> the faces it covers, read from ``P.down_ids``."""
    faces = P.face_list
    return {f: tuple(faces[j] for j in P.down_ids[i]) for i, f in enumerate(faces)}


def oracle_diamond_counts(P):
    up, down = P.up, down_view(P)
    counts = {}
    for mid in P.face_list:
        if mid.kind in ("bot", "top"):
            continue
        for low in down[mid]:
            for high in up[mid]:
                counts[(low, high)] = counts.get((low, high), 0) + 1
    return counts


def oracle_diamond(P):
    for (low, high), c in oracle_diamond_counts(P).items():
        if c != 2:
            return False, (low, high, c)
    return True, None


def oracle_strong_connectivity(P):
    up, down = P.up, down_view(P)
    for low in P.face_list:
        ups = _closure(up, low)
        for high in ups:
            if high.rank - low.rank < 3:
                continue
            members = ups & _closure(down, high)
            nodes = [f for f in members if f.rank == high.rank - 1]
            mids = [f for f in members if f.rank == high.rank - 2]
            if not nodes:
                return False
            neighbours = {f: set() for f in nodes}
            node_set = set(nodes)
            for m in mids:
                above = [f for f in up[m] if f in node_set]
                for a in above:
                    for b in above:
                        if a != b:
                            neighbours[a].add(b)
            seen = {nodes[0]}
            frontier = [nodes[0]]
            while frontier:
                nxt = []
                for x in frontier:
                    for y in neighbours[x]:
                        if y not in seen:
                            seen.add(y)
                            nxt.append(y)
                frontier = nxt
            if len(seen) != len(nodes):
                return False
    return True


def oracle_two_sections(P):
    """(base face, size, is polygon, alternating) of each 2-section."""
    up, down = P.up, down_view(P)
    facet_rank = P.top_rank - 1
    out = []
    for base in P.faces(facet_rank - 2):
        ups = _closure(up, base)
        ridges = [f for f in ups if f.rank == facet_rank - 1]
        facets = [f for f in ups if f.rank == facet_rank]
        ok = bool(facets) and all(
            sum(1 for x in up[r] if x in set(facets)) == 2 for r in ridges
        ) and all(sum(1 for x in down[f] if x in set(ridges)) == 2 for f in facets)
        alternating = False
        if ok:
            ridge_set = set(ridges)
            start = facets[0]
            seq = [start]
            prev_ridge = None
            cur = start
            while True:
                nxt_ridges = [r for r in down[cur] if r in ridge_set and r != prev_ridge]
                if not nxt_ridges:
                    ok = False
                    break
                prev_ridge = nxt_ridges[0]
                cur = [f for f in up[prev_ridge] if f != cur][0]
                if cur == start:
                    break
                seq.append(cur)
            if ok and len(seq) != len(facets):
                ok = False
            if ok:
                kinds = [f.kind for f in seq]
                alternating = all(
                    kinds[i] != kinds[(i + 1) % len(kinds)] for i in range(len(kinds))
                )
        out.append((base, len(facets), ok, alternating))
    return out


def oracle_flag_orbits(P, G):
    moves = P.moves
    assert len(moves) == len(G.gens)
    flags = P.flag_ids()
    index = {fl: i for i, fl in enumerate(flags)}
    seen = [False] * len(flags)
    sizes = []
    for i0 in range(len(flags)):
        if seen[i0]:
            continue
        seen[i0] = True
        orbit = [i0]
        for i in orbit:
            for move in moves:
                j = index[tuple(move[f] for f in flags[i])]
                if not seen[j]:
                    seen[j] = True
                    orbit.append(j)
        sizes.append(len(orbit))
    return len(sizes), len(flags), all(s == G.group.order for s in sizes)


# ---- the build oracles: what a Wythoff build is by construction ----------------


def oracle_action_is_automorphic(P):
    """True iff the poset has moves and every generator is an automorphism:
    it permutes the faces, keeps each face's rank and kind, and maps the
    faces covering each face onto the faces covering its image. A bijection
    that maps the finite cover set into itself maps it onto itself, so its
    inverse keeps covers too."""
    n = len(P.face_list)
    up = P.up_ids
    sig = [(f.rank, f.kind) for f in P.face_list]
    return bool(P.moves) and all(
        len(set(m)) == n
        and all(sig[j] == s for j, s in zip(m, sig))
        and all(up[m[i]] == tuple(sorted(map(m.__getitem__, u))) for i, u in enumerate(up))
        for m in P.moves
    )


def oracle_orbit_reps(P):
    """rep[i]: the representative of face i's orbit under the group the
    generators generate, by a search over ``P.moves``: its base face if it
    has one, else its lowest id."""
    rep = [-1] * len(P.face_list)
    for i in range(len(rep)):
        if rep[i] >= 0:
            continue
        orbit = [i]
        rep[i] = i
        for x in orbit:  # grows while it is read: a queue
            for m in P.moves:
                y = m[x]
                if rep[y] < 0:
                    rep[y] = i
                    orbit.append(y)
        best = next((x for x in orbit if x in P.base_ids), i)
        for x in orbit:
            rep[x] = best
    return rep


def oracle_in_key_order(P):
    """True iff the faces come in strictly increasing ``Face.sort_key``
    order, the order the constructor gives a hand-built poset."""
    keys = [f.sort_key() for f in P.face_list]
    return all(a < b for a, b in zip(keys, keys[1:]))


def assert_build_oracles(P):
    """A build's faces are in key order, its generators act by
    automorphisms, and each orbit is one kind of one rank, holding exactly
    one base face, that kind's."""
    assert oracle_in_key_order(P)
    assert oracle_action_is_automorphic(P)
    faces, rep = P.face_list, oracle_orbit_reps(P)
    assert set(rep) == P.base_ids
    for f, x in zip(faces, rep):
        assert (faces[x].rank, faces[x].kind) == (f.rank, f.kind)
    assert len({(faces[x].rank, faces[x].kind) for x in P.base_ids}) == len(P.base_ids)


# ---- the cover oracle: coset id pairs over every element ------------------------


def tail_triangle_levels(G):
    """The kinds and subgroup keys of ``build_polytope``, per proper rank."""
    levels = [[(f"G_{j}", G.gamma(j))] for j in range(G.n)]
    return levels + [[("P", G.gamma_P()), ("Q", G.gamma_Q())]]


def regular_levels(r):
    """The kinds and subgroup keys of ``build_regular`` on r generators."""
    return [[(f"G_{j}", [i for i in range(r) if i != j])] for j in range(r)]


def oracle_build_tables(G, levels):
    """(up_ids, down_ids, moves, base_ids) of the Wythoff build of the group
    G on ``levels``, made over all of G: the covers between two kinds on
    adjacent ranks are the pairs (cid_low[e], cid_high[e]) over every
    element e, as two cosets are incident exactly when they share an
    element, and generator g moves each coset Hx to the coset of x·g for
    one of its elements x, found by a scan of ``cid``."""
    blocks = []  # per proper rank: [(first id, cid)] per kind
    count = 1  # the bottom is face 0
    for kinds in levels:
        block = []
        for _, key in sorted(kinds):
            reps, cid = coset_partition(G, key)
            block.append((count, cid))
            count += len(reps)
        blocks.append(block)
    bot, top = 0, count
    starts = [block[0][0] for block in blocks] + [top]
    covers = [(bot, v) for v in range(starts[0], starts[1])]
    covers += [(f, top) for f in range(starts[-2], top)]
    for lows, highs in zip(blocks, blocks[1:]):
        for lo, low_cid in lows:
            for hi, high_cid in highs:
                covers += [(lo + a, hi + b) for a, b in set(zip(low_cid, high_cid))]
    up: list[list[int]] = [[] for _ in range(top + 1)]
    down: list[list[int]] = [[] for _ in range(top + 1)]
    for a, b in covers:
        up[a].append(b)
        down[b].append(a)
    R = G.right_table()
    moves = [list(range(top + 1)) for _ in R]
    for block in blocks:
        for first, cid in block:
            member = dict(zip(cid, range(len(cid))))  # coset -> one of its elements
            for move, row in zip(moves, R):
                for c, x in member.items():
                    move[first + c] = first + cid[row[x]]
    base = {bot, top} | {first + cid[0] for block in blocks for first, cid in block}
    return (
        tuple(tuple(sorted(u)) for u in up),
        tuple(tuple(sorted(d)) for d in down),
        tuple(map(tuple, moves)),
        frozenset(base),
    )


def assert_tables_match_oracle(P, G, levels):
    assert (P.up_ids, P.down_ids, P.moves, P.base_ids) == oracle_build_tables(G, levels)


# ---- the corpus -----------------------------------------------------------------


def star_group(p, ringing):
    spec = reduce_mod_p(rescale(parse_diagram(STAR), (1, 1, 2, 4)), p)
    return build_tail_triangle_modp(spec, ringing=ringing)


def fixture_group(name):
    fx = builtin_fixture(name)
    return verify_tail_triangle(fx.alphas, fx.beta)


def d4_ringing(i):
    x, c, y, z = builtin_fixture("d4.tt").gens
    alphas, beta = [((x, c, y), z), ((y, c, x), z), ((z, c, x), y)][i]
    return verify_tail_triangle(alphas, beta)


def _verified_quotients():
    out = []
    for G in random_quotients(primes=(2, 3)):
        try:
            out.append((G, build_polytope(G)))
        except UnverifiedGroup:
            continue
    return out


GROUPS = {
    **{name: (lambda name=name: fixture_group(name))
       for name in ("tomotope.tt", "m66_240a.tt", "b3_digon.tt", "hexagon.tt")},
    **{f"d4-ringing-{i + 1}": (lambda i=i: d4_ringing(i)) for i in range(3)},
    **{f"star-mod{p}-ringing-{r}": (lambda p=p, r=r: star_group(p, r))
       for p in (2, 3) for r in (1, 2, 3)},
}


def all_ranks(P):
    return range(P.bottom_rank, P.top_rank + 1)


def without_action(P):
    """The same faces and covers, built by hand with no action."""
    covers = [(a, b) for a in P.up for b in P.up[a]]
    return FacePoset({r: P.faces(r) for r in all_ranks(P)}, covers)


def broken_tomotope():
    """The tomotope with its Q facets deleted: every ridge sees one facet."""
    P = build_polytope(fixture_group("tomotope.tt"))
    keep = {r: [f for f in P.faces(r) if f.kind != "Q"] for r in all_ranks(P)}
    covers = [(a, b) for a in P.up if a.kind != "Q" for b in P.up[a] if b.kind != "Q"]
    return FacePoset(keep, covers)


def two_hexagons():
    """Two disjoint hexagons under one bottom and top: not connected."""
    bot, top = Face(-1, "bot", None), Face(2, "top", None)
    faces = {-1: [bot], 0: [], 1: [], 2: [top]}
    covers = []
    for tag in ("A", "B"):
        verts = [Face(0, "G_0", (tag, "v", i)) for i in range(6)]
        edges = [Face(1, "G_1", (tag, "e", i)) for i in range(6)]
        faces[0] += verts
        faces[1] += edges
        covers += [(bot, v) for v in verts] + [(e, top) for e in edges]
        for i in range(6):
            covers += [(verts[i], edges[i]), (verts[(i + 1) % 6], edges[i])]
    return FacePoset(faces, covers)


REGULAR = {
    name: (lambda name=name: build_regular(builtin_fixture(name).gens))
    for name in ("tet.sg", "oct.sg")
}


def wythoff_build(name):
    """The build of a group in GROUPS, or a regular build in REGULAR."""
    return REGULAR[name]() if name in REGULAR else build_polytope(GROUPS[name]())


HAND_BUILT = {
    "toroid_44(2)": lambda: toroid_44(2),
    "toroid_44_ss(2)": lambda: toroid_44_ss(2),
    "toroid_44_ss(3)": lambda: toroid_44_ss(3),
    "toroid_434_330": toroid_434_330,
    **{f"polygon({m})": (lambda m=m: polygon_poset(m)) for m in (2, 3, 6)},
    "broken tomotope": broken_tomotope,
    "two hexagons": two_hexagons,
    **REGULAR,
}


def assert_checks_match_oracle(P):
    """The checks against the oracle; the sections also as Face-level
    tuples, so each section's face is read as well."""
    ok, witness = verify_diamond(P)
    want_ok, _ = oracle_diamond(P)
    assert ok == want_ok
    if not ok:
        low, high, count = witness
        assert oracle_diamond_counts(P)[(low, high)] == count != 2
    assert verify_strong_connectivity(P) == oracle_strong_connectivity(P)
    if want_ok:  # the section walk presumes the diamond condition
        sections = [
            (P.face_list[s.base_id], s.size, s.is_polygon, s.alternating) for s in two_sections(P)
        ]
        assert sections == oracle_two_sections(P)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_group_builds_match_oracle(name):
    G = GROUPS[name]()
    P = build_polytope(G)
    assert_tables_match_oracle(P, G.group, tail_triangle_levels(G))
    assert_build_oracles(P)
    assert_checks_match_oracle(P)
    assert flag_orbits(P, G) == oracle_flag_orbits(P, G)
    bare = without_action(P)
    assert not bare.moves and not bare.base_ids
    assert export_hasse(bare, summary="s") == export_hasse(P, summary="s")


def test_random_quotients_match_oracle():
    built = _verified_quotients()
    assert len(built) >= 15
    for G, P in built:
        assert_tables_match_oracle(P, G.group, tail_triangle_levels(G))
        assert_build_oracles(P)
        assert_checks_match_oracle(P)
        assert flag_orbits(P, G) == oracle_flag_orbits(P, G)
        assert export_hasse(without_action(P)) == export_hasse(P)


def test_star_mod5_tables_match_oracle():
    """The cover oracle on a group 22 times larger than star mod 3."""
    G = star_group(5, 1)
    assert G.group.order == 28800
    assert_tables_match_oracle(build_polytope(G), G.group, tail_triangle_levels(G))


@pytest.mark.parametrize(
    "name", ["tomotope.tt", "m66_240a.tt", "b3_digon.tt", "hexagon.tt", "star-mod3-ringing-1"]
)
def test_rep_text_is_str_of_the_element(name):
    G = GROUPS[name]().group
    assert all(G.text(i) == str(G.element(i)) for i in range(G.order))


# (diamond, strongly connected) by the oracles; (True, True) where not listed
BROKEN = {"broken tomotope": (False, False), "two hexagons": (True, False)}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_posets_match_oracle(name):
    """The regular builds take the production checks; a poset built by hand
    has no action, so the oracles alone judge it."""
    P = HAND_BUILT[name]()
    if name in REGULAR:  # Wythoff builds of string C-groups
        gens = builtin_fixture(name).gens
        assert_tables_match_oracle(P, is_string_c_group(gens).group, regular_levels(len(gens)))
        assert_build_oracles(P)
        assert_checks_match_oracle(P)
        return
    ok, witness = oracle_diamond(P)
    assert (ok, oracle_strong_connectivity(P)) == BROKEN.get(name, (True, True))
    if not ok:  # a ridge of the broken tomotope lies in one facet
        low, _, count = witness
        assert count == 1 and low.rank == 2


def negative_corpus():
    """Builds of groups that fail the intersection condition, made through
    ``_assemble`` with ``build_polytope``'s levels and no check: the groups
    of ``random_quotients(count=40, primes=(2, 3), seed=1)`` that fail
    ``check_intersection_full``, then sc2_fail.tt."""
    quotients = random_quotients(count=40, primes=(2, 3), seed=1)
    groups = [G for G in quotients if not check_intersection_full(G)]
    groups.append(fixture_group("sc2_fail.tt"))
    return [(G, _assemble(G.group, tail_triangle_levels(G))) for G in groups]


def test_negative_corpus_matches_oracle():
    built = negative_corpus()
    assert len(built) == 9
    verdicts = []
    for G, P in built:
        assert_checks_match_oracle(P)
        verdicts.append((str(G.diagram), verify_diamond(P)[0], verify_strong_connectivity(P)))
    assert sum(not diamond for _, diamond, _ in verdicts[:-1]) == 6
    assert ("tail=[4] triangle=(4,6,2)", True, False) in verdicts
    *_, (_, sc2) = built
    ok, (low, high, count) = verify_diamond(sc2)
    assert not ok and (low.kind, high.rank, count) == ("bot", 1, 1)


def _pair_orbits(P, r, s):
    """Every incident pair of ranks (r, s), grouped into orbits under P.moves."""
    index = {f: i for i, f in enumerate(P.face_list)}
    pairs = {
        (index[low], index[high])
        for low in P.faces(r)
        for high in _closure(P.up, low)
        if high.rank == s
    }
    orbit_of = {}
    orbits = []
    for pair in sorted(pairs):
        if pair in orbit_of:
            continue
        orbit = [pair]
        orbit_of[pair] = len(orbits)
        for x, y in orbit:
            for m in P.moves:
                img = (m[x], m[y])
                if img not in orbit_of:
                    orbit_of[img] = len(orbits)
                    orbit.append(img)
        orbits.append(orbit)
    return orbit_of, len(orbits)


@pytest.mark.parametrize(
    "name", ["tomotope.tt", "hexagon.tt", "d4-ringing-1", "star-mod2-ringing-1",
             "star-mod2-ringing-2", "star-mod3-ringing-1", "tet.sg", "oct.sg"]
)
def test_pairs_hold_one_pair_per_orbit(name):
    P = wythoff_build(name)
    for r in range(P.bottom_rank, P.top_rank):
        for s in range(r + 1, P.top_rank + 1):
            orbit_of, count = _pair_orbits(P, r, s)
            listed = [orbit_of[pair] for pair in P.pairs(r, s)]
            assert sorted(listed) == list(range(count))


def _broken_hexagon():
    """A hexagon built by hand, with no action, in which edge 3 has lost a
    vertex: the diamond condition fails at that edge and at the vertex it
    lost."""
    bot, top = Face(-1, "bot", None), Face(2, "top", None)
    verts = [Face(0, "G_0", ("v", i)) for i in range(6)]
    edges = [Face(1, "G_1", ("e", i)) for i in range(6)]
    covers = [(bot, v) for v in verts] + [(e, top) for e in edges]
    for i in range(6):
        covers.append((verts[i], edges[i]))
        if i != 3:
            covers.append((verts[(i + 1) % 6], edges[i]))
    return FacePoset({-1: [bot], 0: verts, 1: edges, 2: [top]}, covers)


def test_hand_built_broken_hexagon_takes_the_exhaustive_path():
    P = _broken_hexagon()
    assert not P.moves and not P.base_ids
    # the oracle sees every (bottom, edge) pair, so it sees the broken edge
    ok, (low, high, count) = oracle_diamond(P)
    assert not ok and high.rep == ("e", 3) and count == 1
    assert oracle_strong_connectivity(P)


def test_action_by_automorphisms_takes_the_orbit_path():
    P = build_polytope(fixture_group("hexagon.tt"))
    # Γ is transitive on the edges of each kind: one (bottom, edge) pair per kind
    listed = P.pairs(-1, 1)
    assert [P.face_list[high].kind for _, high in listed] == ["P", "Q"]
    assert len(P.ids(1)) == 6
    assert_checks_match_oracle(P)


def tet_ball():
    tet = builtin_fixture("tet.sg").gens
    return enumerate_ball(AmalgamContext(tet, tet), 1).poset


def tomotope_vertex_figure():
    P = wythoff_build("tomotope.tt")
    return vertex_figure(P, P.ids(0)[0])


WITHOUT_MOVES = {
    "broken hexagon": _broken_hexagon,
    "toroid_44(2)": lambda: toroid_44(2),
    "tet/tet ball": tet_ball,
    "tomotope vertex figure": tomotope_vertex_figure,
}


@pytest.mark.parametrize("name", sorted(WITHOUT_MOVES))
def test_checks_refuse_a_poset_without_moves(name):
    """Each check runs on one face per orbit of a build's group, so a poset
    with no action is refused, before any face is looked at."""
    P = WITHOUT_MOVES[name]()
    G = fixture_group("tomotope.tt")
    # rank 2 or more, so strong connectivity has a section to look at
    assert not P.moves and P.top_rank - P.bottom_rank >= 3
    checks = [
        verify_diamond,
        verify_strong_connectivity,
        two_sections,
        lambda P: P.pairs(0, 1),
        lambda P: flag_orbits(P, G),
    ]
    for check in checks:
        with pytest.raises(ValueError, match="no action"):
            check(P)


def test_flag_orbits_needs_a_build_action():
    G = fixture_group("hexagon.tt")
    P = build_polytope(G)
    tri = builtin_fixture("triangle.sg").gens
    ball = enumerate_ball(AmalgamContext(tri, tri), 1).poset
    edge = P.section(P.ids(-1)[0], P.ids(1)[0])
    for other in (without_action(P), ball, edge):
        with pytest.raises(ValueError):
            flag_orbits(other, G)


# ---- sections: id slices against the Face-remap oracle -------------------------


def oracle_section(P, lo, hi):
    """The section hi/lo of two face ids as it was taken before sections
    became id slices: every member remade as a re-ranked ``Face``, then
    sorted and numbered again by the hand-built front door."""
    low, high = P.face_list[lo], P.face_list[hi]
    above, below = _closure(P.up, low), _closure(down_view(P), high)
    assert high in above
    members = (above & below) | {low, high}
    shift = low.rank + 1
    remap = {f: Face(f.rank - shift, f.kind, f.rep) for f in members}
    faces_by_rank = {}
    for f in remap.values():
        faces_by_rank.setdefault(f.rank, []).append(f)
    covers = [(remap[a], remap[b]) for a in members for b in P.up[a] if b in members]
    return FacePoset(faces_by_rank, covers)


def assert_section_matches_oracle(P, lo, hi):
    got, want = P.section(lo, hi), oracle_section(P, lo, hi)
    assert got.rank_of == want.rank_of and got.kind_of == want.kind_of
    assert got.up_ids == want.up_ids and got.down_ids == want.down_ids
    assert export_hasse(got, summary="s") == export_hasse(want, summary="s")
    assert got.face_list == want.face_list
    return got


def sample_sections(P):
    """The vertex figure at the first vertex, one facet section per facet
    kind, and the section two ranks above the first vertex, as id pairs."""
    v, (bot,), (top,) = P.ids(0)[0], P.ids(P.bottom_rank), P.ids(P.top_rank)
    facets = {}
    for f in P.ids(P.top_rank - 1):
        facets.setdefault(P.kind_of[f], f)
    two_up = min(P.levels_above(v)[2])
    return [(v, top), (v, two_up)] + [(bot, f) for f in facets.values()]


@pytest.mark.parametrize("name", sorted(GROUPS) + sorted(REGULAR))
def test_build_sections_match_oracle(name):
    P = wythoff_build(name)
    for low, high in sample_sections(P):
        S = assert_section_matches_oracle(P, low, high)
        if S.top_rank >= 2:  # a section of a section keeps the build's group
            assert_section_matches_oracle(S, S.ids(0)[0], S.ids(S.top_rank)[0])


@pytest.mark.parametrize("name", ["toroid_44(2)", "toroid_44_ss(3)", "toroid_434_330"])
def test_toroid_sections_match_oracle(name):
    P = HAND_BUILT[name]()
    for low, high in sample_sections(P):
        assert_section_matches_oracle(P, low, high)


def test_ball_sections_match_oracle():
    ctx = AmalgamContext(builtin_fixture("tet.sg").gens, builtin_fixture("oct.sg").gens)
    P = enumerate_ball(ctx, 2).poset
    for low, high in sample_sections(P):
        assert_section_matches_oracle(P, low, high)


def test_face_views_are_mappings_over_their_keys():
    P = build_polytope(fixture_group("hexagon.tt"))
    (bot_id,), (top_id,) = P.ids(-1), P.ids(2)
    bot, top = P.face_list[bot_id], P.face_list[top_id]
    assert bot in P.up and top in P.up
    assert list(P.up) == list(P.face_list)
    assert len(P.up) == len(P.down_ids) == len(P.face_list)
    assert P.up[top] == () and P.down_ids[bot_id] == () and P.down_ids[top_id] == tuple(P.ids(1))
    assert P.up[bot] == P.faces(0)
    stranger = Face(0, "G_0", None)
    assert stranger not in P.up and P.up.get(stranger) is None
    with pytest.raises(KeyError):
        P.up[stranger]
    assert list(without_action(P).up) == list(P.up)
