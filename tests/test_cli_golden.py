"""Golden CLI transcripts: SHA-256 of exit code, stdout, stderr and any
exported Hasse file, for a fixed set of commands.

The digests were taken before subgroups became generator-index keys (the
tet/tet and triangle/triangle amalgam transcripts before the amalgam
context moved onto element indices, the rank-5 star build before the
closure kernel's row maps changed), so a change in any printed order,
count, classification, error message or export shows here. Timing lines (``time[...]``) are dropped before hashing,
and the export path is replaced by a placeholder.
"""

import hashlib

import pytest

from polywythoff.cli import main

STAR = "tail=[3] triangle=(4,inf,2)"
STAR5 = "tail=[3,3] triangle=(4,inf,2)"
RANK2 = "tail=[] triangle=(3,4,4)"
HASSE = "<hasse>"

# name -> (argv, sha256 of the transcript)
GOLDEN = {
    "verify-sc2-fail": (
        ["verify", "--fixture", "sc2_fail.tt"],
        "4154a4261da6aca5312e5d85c9ffb1ed5e388eb8a49ed26422f4dd7e9879f7a5",
    ),
    "selftest-quick": (
        ["selftest", "--quick"],
        "72fa4174b2ae39046c702129a0bfac4e0bc0f294bd0dca551e7f3f879a48ed10",
    ),
    "build-star-mod3": (
        ["build", "--modred", STAR, "--lengths", "1,1,2,4", "--prime", "3",
         "--export-hasse", HASSE],
        "c7a50f743b345f737e543694dc139ec4fc3eb3dd20a1ee216afe07f83722bda4",
    ),
    "build-star-mod5": (
        ["build", "--modred", STAR, "--lengths", "1,1,2,4", "--prime", "5",
         "--export-hasse", HASSE],
        "e8add6244e95951921c875575f688e89b470bcc1f3e062deffceba1c7c1eb015",
    ),
    "build-star5-mod3": (
        ["build", "--modred", STAR5, "--lengths", "1,1,1,2,4", "--prime", "3",
         "--export-hasse", HASSE],
        "80c31087460a7d3039e481af6a90930766dbb08eb213e636cc9a0f4092d86a15",
    ),
    "modred-star-mod3-ringing-3": (
        ["modred", "--diagram", STAR, "--lengths", "1,1,2,4", "--prime", "3",
         "--ringing", "3"],
        "70b09a661e8b89d69a2238433930b3ee106da9478a94455ed225465962115290",
    ),
    "modred-rank2-ringing-2": (
        ["modred", "--diagram", RANK2, "--lengths", "1,1,2", "--prime", "3",
         "--ringing", "2"],
        "bacff3c2824bbff267904a1a1afbcd408238351ea5e18b402583e05a6ff3f06f",
    ),
    "modred-rank2-intersection-failure": (
        ["modred", "--diagram", RANK2, "--lengths", "1,1,2", "--prime", "2",
         "--ringing", "1"],
        "a0b06b33f435740524a5925ec70af16335ed62a388e9b748e04b64911bd9a7ee",
    ),
    "amalgam-tet-oct": (
        ["amalgam", "--p", "tet.sg", "--q", "oct.sg", "--ball", "3",
         "--normalize", "a0 b a2 a1", "--export-hasse", HASSE],
        "2ebfca00ba7f40b06b61887f73783a9c5eb2b340dcf0153e977277addca223b9",
    ),
    "amalgam-tet-tet": (
        ["amalgam", "--p", "tet.sg", "--q", "tet.sg", "--ball", "3",
         "--normalize", "a2 b a1 b", "--export-hasse", HASSE],
        "a15a772d9dfdc01633f87957b825b5b2b253cb0e3eb8040ec3f6c4f7a9d71b08",
    ),
    "amalgam-triangle-triangle": (
        ["amalgam", "--p", "triangle.sg", "--q", "triangle.sg", "--ball", "4",
         "--export-hasse", HASSE],
        "64360a78795a88bb642254f9a66c425b4585ec3c9669895ba808609522feb787",
    ),
}


def transcript(argv, tmp_path, capsys) -> str:
    path = tmp_path / "hasse.txt"
    code = main([str(path) if a == HASSE else a for a in argv])
    cap = capsys.readouterr()
    parts = [f"exit {code}"]
    for stream in (cap.out, cap.err):
        lines = stream.replace(str(path), HASSE).splitlines()
        parts.append("\n".join(l for l in lines if not l.startswith("time[")))
    if HASSE in argv:
        parts.append(path.read_text())
    return "\n--\n".join(parts)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_transcript_matches_golden(name, tmp_path, capsys):
    argv, digest = GOLDEN[name]
    text = transcript(argv, tmp_path, capsys)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
