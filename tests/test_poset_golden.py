"""Golden outputs of the Wythoff pipeline, pinned from the Face-keyed poset.

For each build: the SHA-256 of ``export_hasse`` with the CLI's summary line,
the ``two_sections`` size list and the ``flag_orbits`` triple. The values
were taken before the poset moved to integer face ids, so any change in
face numbering, cover order or section order shows here. The star mod 5
row was taken from the element-level build, before faces became coset ids.
The rank-5 star rows (tail of length two) were taken before the closure
kernel's row maps changed; they are the only rows with 5 x 5 matrices.
"""

import hashlib

import pytest

from polywythoff.fixtureio import builtin_fixture
from polywythoff.modred import build_tail_triangle_modp, reduce_mod_p, rescale
from polywythoff.ttgroup import parse_diagram, verify_tail_triangle
from polywythoff.wythoff import build_polytope, classify, export_hasse, flag_orbits, two_sections

STAR = "tail=[3] triangle=(4,inf,2)"
STAR5 = "tail=[3,3] triangle=(4,inf,2)"

# name -> (hasse sha256, summary line, section sizes, flag_orbits)
GOLDEN = {
    "tomotope.tt": (
        "fee8cc52eb0972cc9a6cd0d0ec8762a35f3f1b10bd77dfb52bcc809ff3d0d8a2",
        "fvec = (4, 12, 16, 4+4) flags=192 orbits=2 class=TwoOrbit",
        [4] * 12,
        (2, 192, True),
    ),
    "d4.tt": (
        "a513e194bf93d78ed0cec1b7e0ecb4a7acac846d5ff12370e06869f91b9ee310",
        "fvec = (8, 24, 32, 8+8) flags=384 orbits=2 class=Regular",
        [4] * 24,
        (2, 384, True),
    ),
    "hexagon.tt": (
        "5bf7ca7a1277ac505b779fc056666f057aca464f626d6fcceff9fecc2ad804ea",
        "fvec = (6, 3+3) flags=12 orbits=2 class=Regular",
        [6],
        (2, 12, True),
    ),
    "star-mod3-ringing-1": (
        "efec064ae5b141ef3220a50971045d8fde889747775c62e115c165f5a41f2901",
        "fvec = (27, 162, 216, 27+54) flags=2592 orbits=2 class=TwoOrbit",
        [4] * 162,
        (2, 2592, True),
    ),
    "star-mod3-ringing-2": (
        "2195660c7f73945fe127ff36b993b3993af51782cbf73782291b95e29a77222b",
        "fvec = (54, 162, 162, 27+27) flags=2592 orbits=2 class=Regular",
        [4] * 162,
        (2, 2592, True),
    ),
    "star-mod3-ringing-3": (
        "7ead26ac282d3b3aab6ddcebdd5a879164799e6eb9b2643c073d1cf4ae89da88",
        "fvec = (27, 162, 216, 54+27) flags=2592 orbits=2 class=TwoOrbit",
        [4] * 162,
        (2, 2592, True),
    ),
    "star-mod5": (
        "12f6dfb430fbb5235382c1af7bb00d678bfc70d027a469784cfeaf23c93fc5f8",
        "fvec = (120, 3600, 4800, 600+240) flags=57600 orbits=2 class=TwoOrbit",
        [4] * 3600,
        (2, 57600, True),
    ),
    "star5-mod2": (
        "834703124091ab402602e47b8b9b34a4c06dd9ebcf72521478bca467b2e47887",
        "fvec = (4, 24, 64, 64, 8+8) flags=3072 orbits=2 class=Regular",
        [4] * 64,
        (2, 3072, True),
    ),
    "star5-mod3": (  # order 103 680 = |O(5,3)|
        "06f084973fb975426d9dec05fab21eb229b3f28062d5a7362a25fdcb6ac9bb44",
        "fvec = (80, 1080, 4320, 4320, 270+864) flags=207360 orbits=2 class=TwoOrbit",
        [4] * 4320,
        (2, 207360, True),
    ),
}


def group(name):
    if name.startswith("star-mod3-ringing-"):
        spec = reduce_mod_p(rescale(parse_diagram(STAR), (1, 1, 2, 4)), 3)
        return build_tail_triangle_modp(spec, ringing=int(name[-1]))
    if name == "star-mod5":  # order 28 800, 22 times star mod 3
        spec = reduce_mod_p(rescale(parse_diagram(STAR), (1, 1, 2, 4)), 5)
        return build_tail_triangle_modp(spec)
    if name.startswith("star5-mod"):
        spec = reduce_mod_p(rescale(parse_diagram(STAR5), (1, 1, 1, 2, 4)), int(name[-1]))
        return build_tail_triangle_modp(spec)
    fx = builtin_fixture(name)
    return verify_tail_triangle(fx.alphas, fx.beta)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_build_matches_golden(name):
    digest, summary_want, sizes, orbits_want = GOLDEN[name]
    G = group(name)
    P = build_polytope(G)
    secs = two_sections(P)
    orbits = flag_orbits(P, G)
    summary = (
        f"fvec = {P.f_vector_str()} flags={orbits[1]} orbits={orbits[0]} "
        f"class={classify(P, G).kind}"
    )
    assert summary == summary_want
    assert hashlib.sha256(export_hasse(P, summary=summary).encode()).hexdigest() == digest
    assert [s.size for s in secs] == sizes
    assert all(s.is_polygon and s.alternating for s in secs)
    assert orbits == orbits_want
