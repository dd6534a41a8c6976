import json
import time
from collections import Counter

import pytest

from polywythoff import cli, kernels, modred, selftest
from polywythoff.amalgam import AmalgamContext, enumerate_ball
from polywythoff.cli import main
from polywythoff.fixtureio import builtin_fixture
from polywythoff.groups import closure_cap
from polywythoff.kernels import close


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_build_fixture(capsys):
    code, out, _ = run(capsys, "build", "--fixture", "tomotope.tt")
    assert code == 0
    assert "fvec = (4, 12, 16, 4+4)" in out
    assert "class: TwoOrbit  aut order: 96" in out
    assert "4-gon x12" in out


def test_build_modred(capsys):
    code, out, _ = run(
        capsys, "build", "--modred", "tail=[3] triangle=(4,inf,2)",
        "--lengths", "1,1,2,4", "--prime", "3", "--ringing", "2",
    )
    assert code == 0
    assert "fvec = (54, 162, 162, 27+27)" in out
    assert "class: Regular" in out


def test_verify_pass_and_fail(capsys):
    code, out, _ = run(capsys, "verify", "--fixture", "b3_digon.tt")
    assert code == 0 and "full=True reduced=True agree=True" in out
    code, _, err = run(capsys, "verify", "--fixture", "sc2_fail.tt")
    assert code == 1 and "intersection condition failed" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--modred", "tail=[3] triangle=(4,inf,2)"],
        ["modred", "--ringing", "1", "--diagram", "tail=[3] triangle=(4,inf,2)"],
    ],
    ids=["verify", "modred"],
)
def test_timings_report_the_reduction(capsys, argv):
    argv += ["--lengths", "1,1,2,4", "--prime", "3"]
    code, out, _ = run(capsys, *argv, "--timings")
    times = [line.split(":")[0] for line in out.splitlines() if line.startswith("time[")]
    assert code == 0 and times[0] == "time[reduce]" and "time[intersection]" in times
    code, plain, _ = run(capsys, *argv)
    assert code == 0 and "time[" not in plain
    assert plain.splitlines() == [l for l in out.splitlines() if not l.startswith("time[")]


def test_bad_group_fixture(capsys):
    code, _, err = run(capsys, "verify", "--fixture", "bad.tt")
    assert code == 1 and "CommutationViolation" in err


def test_unknown_fixture(capsys):
    code, _, err = run(capsys, "build", "--fixture", "nosuch.tt")
    assert code == 2 and "unknown fixture" in err


def test_fixture_without_alphas_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "n0.tt"
    path.write_text("tail-triangle n=0 degree=2\nbeta = (1,2)\n")
    code, _, err = run(capsys, "verify", "--fixture", str(path))
    assert code == 2 and "n must be >= 1" in err


def test_fixture_directory_is_an_input_error(capsys, tmp_path):
    code, _, err = run(capsys, "build", "--fixture", str(tmp_path))
    assert code == 2 and err.startswith("input error: ")


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--fixture", "d4.tt")
    assert code == 0 and "class: Regular  aut order: 384" in out


def test_modred_search_lengths(capsys):
    code, out, _ = run(
        capsys, "modred", "--diagram", "tail=[3] triangle=(4,inf,2)",
        "--search-lengths",
    )
    assert code == 0 and "1,1,2,4" in out


def test_modred_not_crystallographic(capsys):
    code, _, err = run(
        capsys, "modred", "--diagram", "tail=[3] triangle=(4,inf,inf)",
        "--lengths", "1,1,2,4", "--prime", "2",
    )
    assert code == 2 and "crystallographic" in err


def test_modred_degenerate_lengths(capsys):
    code, _, err = run(
        capsys, "build", "--modred", "tail=[3] triangle=(4,inf,2)",
        "--lengths", "1,1,2,1", "--prime", "2",
    )
    assert code == 1 and "NotInvolution" in err


def test_modred_prime_5(capsys):
    code, out, _ = run(
        capsys, "modred", "--diagram", "tail=[3] triangle=(4,inf,2)",
        "--lengths", "1,1,2,4", "--prime", "5",
    )
    assert code == 0 and "group order mod 5: 28800" in out


@pytest.mark.parametrize("ringing", [[], ["--ringing", "1"], ["--ringing", "3"]],
                         ids=["order-only", "ringing-1", "ringing-3"])
def test_modred_closes_the_group_once(capsys, monkeypatch, ringing):
    runs = []

    def counting(maps, identity, cap):
        runs.append(len(maps))
        return close(maps, identity, cap)

    monkeypatch.setattr(kernels, "close", counting)
    code, out, _ = run(
        capsys, "modred", "--diagram", "tail=[3] triangle=(4,inf,2)",
        "--lengths", "1,1,2,4", "--prime", "3", *ringing,
    )
    assert code == 0 and "group order mod 3: 1296" in out
    assert runs == [4]  # one closure, on the four reduced generators


def test_modred_nonprime(capsys):
    code, _, err = run(
        capsys, "modred", "--diagram", "tail=[3] triangle=(4,inf,2)",
        "--lengths", "1,1,2,4", "--prime", "6",
    )
    assert code == 2


def test_modred_prime_past_the_matrix_kernel(capsys):
    # dim*(p-1)^2 >= 2^63 would overflow the compiled kernel's C long
    code, _, err = run(
        capsys, "modred", "--diagram", "tail=[3] triangle=(4,inf,2)",
        "--lengths", "1,1,2,4", "--prime", "2147483647",
    )
    assert code == 2 and "too large" in err


def test_build_modulus_too_large_fails_fast(capsys):
    # reduce_mod_p rejects the modulus before any output and before the
    # closure, which could never enumerate a group over so large a field
    t0 = time.perf_counter()
    code, out, err = run(
        capsys, "build", "--modred", "tail=[3] triangle=(4,inf,2)",
        "--lengths", "1,1,2,4", "--prime", "2147483647",
    )
    assert code == 2 and "too large" in err and "Traceback" not in err + out
    assert time.perf_counter() - t0 < 2


def test_modred_huge_prime_is_refused_before_the_primality_test(capsys, monkeypatch):
    # 2^61 - 1 is prime; trial division up to its square root would not end
    def no_huge_trial_division(p, _is_prime=modred.is_prime):
        assert p < 2**40, "is_prime called on a modulus past the bound"
        return _is_prime(p)

    monkeypatch.setattr(modred, "is_prime", no_huge_trial_division)
    code, out, err = run(
        capsys, "modred", "--diagram", "tail=[3] triangle=(4,inf,2)",
        "--lengths", "1,1,2,4", "--prime", str(2**61 - 1),
    )
    assert code == 2 and "too large" in err and "Traceback" not in err + out


@pytest.mark.parametrize("command", ["build", "verify", "classify", "export-hasse"])
@pytest.mark.parametrize(
    "extra, named",
    [
        (["--modred", "tail=[3] triangle=(4,inf,2)"], "--modred"),
        (["--lengths", "1,1,2,4", "--prime", "3"], "--lengths, --prime"),
        (["--ringing", "2"], "--ringing"),
    ],
    ids=["modred", "lengths-prime", "ringing"],
)
def test_fixture_refuses_modred_flags_before_output(capsys, command, extra, named):
    code, out, err = run(capsys, command, "--fixture", "tomotope.tt", *extra)
    assert (code, out) == (2, "")
    assert err == f"input error: --fixture does not take {named}\n"


def test_amalgam_normalize_and_ball(capsys):
    code, out, _ = run(
        capsys, "amalgam", "--p", "tet.sg", "--q", "oct.sg",
        "--ball", "0", "--normalize", "a2 b a2 a2",
    )
    assert code == 0
    assert "universal polytope class: TwoOrbit" in out
    assert "letters: a2 b" in out
    assert "faces per rank [3, 3, 1, 2]" in out
    assert "ridge section: open" in out


def test_amalgam_negative_ball_rejected_before_output(capsys):
    code, out, err = run(capsys, "amalgam", "--p", "tet.sg", "--q", "oct.sg", "--ball", "-1")
    assert code == 2 and out == ""
    assert err == "input error: radius must be >= 0\n"


def test_amalgam_unknown_letter_rejected_before_output(capsys):
    code, out, err = run(
        capsys, "amalgam", "--p", "tet.sg", "--q", "oct.sg", "--normalize", "a0 a9",
    )
    assert code == 2 and out == ""
    assert err == "input error: unknown generator 'a9'\n"


def test_amalgam_close_up_rejected(capsys):
    code, _, err = run(
        capsys, "amalgam", "--p", "tet.sg", "--q", "oct.sg", "--close-up", "4",
    )
    assert code == 2 and "open question" in err


def test_amalgam_q_not_a_string_cgroup(capsys, tmp_path):
    # the generators of sc2_fail.tt, given as a string C-group
    path = tmp_path / "sc2_fail.sg"
    path.write_text(
        "string-cgroup n=3 degree=6\n"
        "rho0 = (1,4)(2,5)(3,6)\nrho1 = (2,6)(3,5)\nrho2 = (1,2)(3,6)(4,5)\n"
    )
    code, _, err = run(capsys, "amalgam", "--p", "tet.sg", "--q", str(path))
    assert (code, err) == (1, "verification failure: factor Q is not a string C-group\n")


def test_amalgam_facet_mismatch(capsys, tmp_path):
    # oct.sg's generators in reverse order: the cube {4,3}, whose facet
    # group (the square's, order 8) is not the tetrahedron's (order 6)
    path = tmp_path / "cube.sg"
    path.write_text(
        "string-cgroup n=3 degree=6\nrho0 = (1,4)\nrho1 = (1,2)(4,5)\nrho2 = (2,3)(5,6)\n"
    )
    code, out, err = run(capsys, "amalgam", "--p", "tet.sg", "--q", str(path))
    assert (code, out) == (1, "")
    assert err == "verification failure: facet subgroups have different orders\n"


@pytest.mark.parametrize(
    "argv, bad, kind",
    [
        (["amalgam", "--p", "hexagon.tt", "--q", "hexagon.tt"], "hexagon.tt", "string-cgroup"),
        (["amalgam", "--p", "tet.sg", "--q", "sc2_fail.tt"], "sc2_fail.tt", "string-cgroup"),
        (["build", "--fixture", "hexagon.sg"], "hexagon.sg", "tail-triangle"),
    ],
    ids=["amalgam-p", "amalgam-q", "build"],
)
def test_fixture_of_the_wrong_kind_is_refused_before_output(capsys, argv, bad, kind):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"input error: {bad} is not a {kind} fixture\n"


# the whole file, pinned before the normal-form arithmetic moved onto
# element indices
TRIANGLE_BALL_ONE_HASSE = """\
face 0 rank=0 kind=G_0 rep=()
face 1 rank=0 kind=G_0 rep=(1,2)
face 2 rank=0 kind=G_0 rep=(1,2) . P:(2,3)
face 3 rank=0 kind=G_0 rep=(1,2) . Q:(2,3)
face 4 rank=1 kind=G_1 rep=()
face 5 rank=1 kind=G_1 rep=() . P:(2,3)
face 6 rank=1 kind=G_1 rep=() . P:(1,2,3)
face 7 rank=1 kind=G_1 rep=() . Q:(2,3)
face 8 rank=1 kind=G_1 rep=() . Q:(1,2,3)
face 9 rank=2 kind=P rep=()
face 10 rank=2 kind=P rep=() . Q:(2,3)
face 11 rank=2 kind=P rep=() . Q:(1,2,3)
face 12 rank=2 kind=Q rep=()
face 13 rank=2 kind=Q rep=() . P:(2,3)
face 14 rank=2 kind=Q rep=() . P:(1,2,3)
cover 0 4
cover 0 5
cover 0 7
cover 1 4
cover 1 6
cover 1 8
cover 2 5
cover 2 6
cover 3 7
cover 3 8
cover 4 9
cover 4 12
cover 5 9
cover 5 13
cover 6 9
cover 6 14
cover 7 10
cover 7 12
cover 8 11
cover 8 12
ball radius=1 faces=15

"""


def test_amalgam_export_hasse(capsys, tmp_path):
    path = tmp_path / "ball.txt"
    code, out, _ = run(
        capsys, "amalgam", "--p", "triangle.sg", "--q", "triangle.sg",
        "--ball", "1", "--export-hasse", str(path),
    )
    assert code == 0
    assert path.read_text() == TRIANGLE_BALL_ONE_HASSE


def test_export_hasse_stdout_and_file(capsys, tmp_path):
    code, out, _ = run(capsys, "export-hasse", "--fixture", "hexagon.tt")
    assert code == 0 and "rank=0" in out
    path = tmp_path / "h.txt"
    code, _, _ = run(capsys, "export-hasse", "--fixture", "hexagon.tt",
                     "--out", str(path))
    assert code == 0 and "rank=0" in path.read_text()


def test_export_hasse_deterministic(capsys):
    _, out1, _ = run(capsys, "export-hasse", "--fixture", "tomotope.tt")
    _, out2, _ = run(capsys, "export-hasse", "--fixture", "tomotope.tt")
    assert out1 == out2


def test_selftest_quick_json(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "selftest", "--quick", "--json-report", str(path))
    assert code == 0
    rows = json.loads(path.read_text())
    failed = sorted(r["name"] for r in rows if not r["ok"])
    assert failed == []
    assert "PASS" in out and "FAIL" not in out


def test_selftest_json_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run(capsys, "selftest", "--quick", "--json-report", str(p1))
    run(capsys, "selftest", "--quick", "--json-report", str(p2))
    assert p1.read_text() == p2.read_text()


@pytest.mark.parametrize("target", ["missing/out.txt", "."], ids=["missing-dir", "directory"])
@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--fixture", "tomotope.tt", "--export-hasse"],
        ["export-hasse", "--fixture", "tomotope.tt", "--out"],
        ["amalgam", "--p", "triangle.sg", "--q", "triangle.sg", "--export-hasse"],
        ["selftest", "--quick", "--json-report"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_output_path_is_an_input_error(capsys, tmp_path, argv, target):
    path = tmp_path / target
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and err.startswith("input error: ") and str(path) in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize("target", ["missing/out.txt", "."], ids=["missing-dir", "directory"])
@pytest.mark.parametrize(
    "argv, module, stage",
    [
        (["build", "--fixture", "tomotope.tt", "--export-hasse"], cli, "_tt_group"),
        (["export-hasse", "--fixture", "tomotope.tt", "--out"], cli, "_tt_group"),
        (["amalgam", "--p", "triangle.sg", "--q", "triangle.sg", "--export-hasse"], cli, "_load"),
        (["selftest", "--quick", "--json-report"], selftest, "run_selftest"),
    ],
    ids=["build", "export-hasse", "amalgam", "selftest"],
)
def test_bad_output_path_is_refused_before_any_work(
    capsys, monkeypatch, tmp_path, argv, module, stage, target
):
    """The path is checked first: no group is read, nothing is built and
    nothing is printed."""

    def work(*args, **kwargs):
        raise AssertionError("work began before the output path was checked")

    monkeypatch.setattr(module, stage, work)
    path = tmp_path / target
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"input error: cannot write {path}: ") and err.count("\n") == 1


def test_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("POLYWYTHOFF_CAP", "10")
    code, _, err = run(capsys, "build", "--fixture", "m66_240a.tt")
    assert code == 1 and "CapExceeded" in err


@pytest.mark.parametrize("value", ["abc", "0", "-5"])
def test_cap_env_must_be_a_positive_integer(capsys, monkeypatch, value):
    monkeypatch.setenv("POLYWYTHOFF_CAP", value)
    code, out, err = run(capsys, "verify", "--fixture", "tomotope.tt")
    assert code == 2 and err.startswith("input error: ") and "POLYWYTHOFF_CAP" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize(
    "pair",
    ["tet.sg/oct.sg", "tet.sg/tet.sg", "oct.sg/tet.sg", "oct.sg/oct.sg",
     "hexagon.sg/hexagon.sg", "triangle.sg/triangle.sg"],
)
def test_ball_order_counts_the_enumerated_ball(pair):
    # the closed form's count of elements with m syllables, for each m
    ctx = AmalgamContext(*(builtin_fixture(name).gens for name in pair.split("/")))
    for radius in range(5):
        syllables = Counter(len(w.tau_indices) for w in enumerate_ball(ctx, radius).elements)
        assert cli._ball_counts(ctx, radius) == [syllables[m] for m in range(radius + 1)]


def test_amalgam_ball_past_the_cap_is_refused_before_output(capsys, monkeypatch):
    # tet/oct: 318 elements at radius 2, 1578 at radius 3
    monkeypatch.setenv("POLYWYTHOFF_CAP", "1000")
    argv = ["amalgam", "--p", "tet.sg", "--q", "oct.sg", "--ball"]
    code, out, _ = run(capsys, *argv, "2")
    assert code == 0 and "(318 group elements)" in out
    code, out, err = run(capsys, *argv, "3")
    assert code == 1 and out == ""
    assert err.startswith("verification failure: CapExceeded: ") and "1578" in err


DIGON = "string-cgroup n=2 degree=4\nrho0 = (1,2)\nrho1 = (3,4)\n"


def test_amalgam_ball_past_the_cap_in_syllables_is_refused_before_output(
    capsys, monkeypatch, tmp_path
):
    # digons on both sides: 2 + 4R elements and 2 + 6R + 2R^2 elements
    # plus syllables, so few elements hold many syllables
    path = tmp_path / "digon.sg"
    path.write_text(DIGON)
    monkeypatch.setenv("POLYWYTHOFF_CAP", "1000")
    argv = ["amalgam", "--p", str(path), "--q", str(path), "--ball"]
    code, out, _ = run(capsys, *argv, "20")  # 922 = 82 elements + 840 syllables
    assert code == 0 and "(82 group elements)" in out
    code, out, err = run(capsys, *argv, "21")  # 1010 = 86 elements + 924 syllables
    assert code == 1 and out == ""
    assert err.startswith("verification failure: CapExceeded: ") and "924 syllables" in err


def test_amalgam_huge_ball_is_refused_past_the_cap(capsys, monkeypatch):
    # 20000 syllables: exact counts would run to thousands of digits
    monkeypatch.delenv("POLYWYTHOFF_CAP", raising=False)
    cap = closure_cap()
    code, out, err = run(capsys, "amalgam", "--p", "tet.sg", "--q", "oct.sg", "--ball", "20000")
    assert code == 1 and out == ""
    assert err == (
        f"verification failure: CapExceeded: ball radius 20000 holds more than {cap} "
        f"elements and syllables, over the cap {cap}\n"
    )


@pytest.mark.parametrize("radius", ["1000000", str(10**12)])
def test_amalgam_digon_ball_at_a_huge_radius_is_refused_at_once(
    capsys, monkeypatch, tmp_path, radius
):
    # 2 + 4R elements: the element count passes the cap only at R ~ cap / 4,
    # the syllables at R ~ sqrt(cap / 2), where the sum stops
    path = tmp_path / "digon.sg"
    path.write_text(DIGON)
    monkeypatch.delenv("POLYWYTHOFF_CAP", raising=False)
    cap = closure_cap()
    t0 = time.perf_counter()
    code, out, err = run(capsys, "amalgam", "--p", str(path), "--q", str(path), "--ball", radius)
    assert time.perf_counter() - t0 < 0.25
    assert code == 1 and out == ""
    assert err == (
        f"verification failure: CapExceeded: ball radius {radius} holds more than {cap} "
        f"elements and syllables, over the cap {cap}\n"
    )


def test_ball_counts_stop_once_past_the_cap():
    ctx = AmalgamContext(builtin_fixture("tet.sg").gens, builtin_fixture("oct.sg").gens)
    whole = cli._ball_counts(ctx, 12)
    for cap in (5, 66, 1000, 10**5):
        counts = cli._ball_counts(ctx, 12, cap)
        assert counts == whole[:len(counts)]
        held = [sum((m + 1) * n for m, n in enumerate(counts[:r])) for r in range(1, len(counts) + 1)]
        # every prefix but the whole list is within the cap
        assert all(h <= cap for h in held[:-1])
        assert held[-1] > cap or counts == whole


@pytest.mark.parametrize("degree", ["0", "-5"])
@pytest.mark.parametrize(
    "argv, header, body",
    [
        (["verify", "--fixture"], "tail-triangle n=1", "alpha0 = ()\nbeta = ()\n"),
        (["amalgam", "--q", "tet.sg", "--p"], "string-cgroup n=3",
         "rho0 = ()\nrho1 = ()\nrho2 = ()\n"),
    ],
    ids=["verify", "amalgam"],
)
def test_fixture_degree_below_one_is_a_bad_header(capsys, tmp_path, argv, header, body, degree):
    path = tmp_path / "bad.fx"
    path.write_text(f"{header} degree={degree}\n{body}")
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err.startswith("input error: bad fixture header") and "degree must be >= 1" in err
