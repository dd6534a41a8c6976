"""The poset checks against the exhaustive Face-level oracle.

The oracle is the Face-keyed code the integer poset replaced: the diamond
condition over every incident pair, strong connectivity over every section,
every 2-section, and flag orbits by walking every flag. The production
checks run on integer ids and, when the poset carries an action by
automorphisms, on one incident pair per orbit and the flags through one
vertex. Both paths must give the oracle's answers on the fixtures, star mod
2 and mod 3 in all three ringings, ``selftest.random_quotients``, the toroid
oracles, the polygons and broken posets.
"""

import pytest

from polywythoff.fixtureio import builtin_fixture
from polywythoff.modred import build_tail_triangle_modp, reduce_mod_p, rescale
from polywythoff.oracles import polygon_poset, toroid_44, toroid_44_ss, toroid_434_330
from polywythoff.selftest import random_quotients
from polywythoff.poset import Face, FacePoset
from polywythoff.ttgroup import parse_diagram, verify_tail_triangle
from polywythoff.wythoff import (
    TwoSection,
    UnverifiedGroup,
    build_polytope,
    build_regular,
    flag_orbits,
    two_sections,
    verify_diamond,
    verify_strong_connectivity,
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


def oracle_diamond_counts(P):
    up, down = P.up, P.down
    counts = {}
    for mid in P.all_faces():
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
    up, down = P.up, P.down
    for low in P.all_faces():
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
    up, down = P.up, P.down
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
        out.append(TwoSection(base, len(facets), ok, alternating))
    return out


def oracle_flag_orbits(P, G):
    action = P.action
    fid = {f: i for i, f in enumerate(action)}
    moves = [[fid[imgs[gi]] for imgs in action.values()] for gi in range(len(G.gens))]
    flags = [tuple(fid[f] for f in fl) for fl in P.flags()]
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


def without_action(P):
    """The same faces and covers, built by hand with no action."""
    covers = [(a, b) for a in P.up for b in P.up[a]]
    return FacePoset(dict(P.faces_by_rank), covers)


def broken_tomotope():
    """The tomotope with its Q facets deleted: every ridge sees one facet."""
    P = build_polytope(fixture_group("tomotope.tt"))
    keep = {r: [f for f in P.faces(r) if f.kind != "Q"] for r in P.faces_by_rank}
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


HAND_BUILT = {
    "toroid_44(2)": lambda: toroid_44(2),
    "toroid_44_ss(2)": lambda: toroid_44_ss(2),
    "toroid_44_ss(3)": lambda: toroid_44_ss(3),
    "toroid_434_330": toroid_434_330,
    **{f"polygon({m})": (lambda m=m: polygon_poset(m)) for m in (2, 3, 6)},
    "broken tomotope": broken_tomotope,
    "two hexagons": two_hexagons,
    "tet.sg": lambda: build_regular(builtin_fixture("tet.sg").gens),
    "oct.sg": lambda: build_regular(builtin_fixture("oct.sg").gens),
}


def assert_checks_match_oracle(P):
    ok, witness = verify_diamond(P)
    want_ok, _ = oracle_diamond(P)
    assert ok == want_ok
    if not ok:
        low, high, count = witness
        assert oracle_diamond_counts(P)[(low, high)] == count != 2
    assert verify_strong_connectivity(P) == oracle_strong_connectivity(P)
    if want_ok:  # the section walk presumes the diamond condition
        assert two_sections(P) == oracle_two_sections(P)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_group_builds_match_oracle(name):
    G = GROUPS[name]()
    P = build_polytope(G)
    assert P.action_is_automorphic()
    assert_checks_match_oracle(P)
    assert flag_orbits(P, G) == oracle_flag_orbits(P, G)
    bare = without_action(P)
    assert not bare.action_is_automorphic()
    assert_checks_match_oracle(bare)


def test_random_quotients_match_oracle():
    built = _verified_quotients()
    assert len(built) >= 15
    for G, P in built:
        assert P.action_is_automorphic()
        assert_checks_match_oracle(P)
        assert flag_orbits(P, G) == oracle_flag_orbits(P, G)
        assert_checks_match_oracle(without_action(P))


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_hand_built_posets_match_oracle(name):
    P = HAND_BUILT[name]()
    assert_checks_match_oracle(P)


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
             "star-mod2-ringing-2"]
)
def test_pairs_hold_one_pair_per_orbit(name):
    P = build_polytope(GROUPS[name]())
    for r in range(P.bottom_rank, P.top_rank):
        for s in range(r + 1, P.top_rank + 1):
            orbit_of, count = _pair_orbits(P, r, s)
            listed = [orbit_of[pair] for pair in P.pairs(r, s)]
            assert sorted(listed) == list(range(count))


def _hexagon_with_rotation(broken):
    """The hexagon, with the rotation by one step as its action. With
    ``broken``, edge 3 loses a vertex: the rotation then maps a cover to a
    non-cover, and the diamond condition fails at that edge and at the
    vertex it lost."""
    bot, top = Face(-1, "bot", None), Face(2, "top", None)
    verts = [Face(0, "G_0", ("v", i)) for i in range(6)]
    edges = [Face(1, "G_1", ("e", i)) for i in range(6)]
    covers = [(bot, v) for v in verts] + [(e, top) for e in edges]
    for i in range(6):
        covers.append((verts[i], edges[i]))
        if not (broken and i == 3):
            covers.append((verts[(i + 1) % 6], edges[i]))
    action = {}
    for i in range(6):
        action[verts[i]] = (verts[(i + 1) % 6],)
        action[edges[i]] = (edges[(i + 1) % 6],)
    return FacePoset({-1: [bot], 0: verts, 1: edges, 2: [top]}, covers, action)


def test_action_that_breaks_covers_takes_the_exhaustive_path():
    P = _hexagon_with_rotation(broken=True)
    assert not P.action_is_automorphic()
    # every (bottom, edge) pair is listed, so the broken edge is seen
    assert len(P.pairs(-1, 1)) == 6
    ok, (low, high, count) = verify_diamond(P)
    assert not ok and high.rep == ("e", 3) and count == 1
    assert_checks_match_oracle(P)


def test_action_by_automorphisms_takes_the_orbit_path():
    P = _hexagon_with_rotation(broken=False)
    assert P.action_is_automorphic()
    assert P.pairs(-1, 1) == [(0, P.ids(1)[0])]  # the rotation moves every edge
    assert_checks_match_oracle(P)


def test_flag_orbits_needs_a_build_action():
    G = fixture_group("hexagon.tt")
    P = build_polytope(G)
    for other in (without_action(P), _hexagon_with_rotation(broken=False),
                  _hexagon_with_rotation(broken=True)):
        with pytest.raises(ValueError):
            flag_orbits(other, G)


def test_from_ids_refuses_faces_out_of_key_order():
    P = build_polytope(fixture_group("hexagon.tt"))
    faces = list(P.face_list)
    a, b = P.ids(0)[:2]
    faces[a], faces[b] = faces[b], faces[a]
    with pytest.raises(ValueError):
        FacePoset.from_ids(faces, P.up_ids, P.down_ids, P.moves, P.base_ids)


def test_face_views_are_mappings_over_their_keys():
    P = build_polytope(fixture_group("hexagon.tt"))
    bot, top, v = P.bottom(), P.top(), P.faces(0)[0]
    assert bot in P.up and top in P.down and len(P.up) == len(P.face_list)
    assert bot not in P.action and top not in P.action and v in P.action
    assert P.action.get(bot) is None and len(P.action) == len(P.face_list) - 2
    with pytest.raises(KeyError):
        P.action[top]
    bare = without_action(P)
    assert len(bare.action) == 0 and v not in bare.action and bare.action.get(v) is None
    assert list(bare.up) == list(P.up)
