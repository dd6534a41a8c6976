"""Command-line entry point.

Exit codes: 0 = success, 1 = verification failure, 2 = input error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .amalgam import (
    AmalgamContext,
    FacetMismatch,
    NotCGroup,
    enumerate_ball,
    ridge_section,
    universal_is_regular,
)
from .fixtureio import builtin_fixture, builtin_fixture_names, load_fixture
from .groups import CapExceeded, closure_cap
from .modred import (
    IntersectionFailure,
    NonIntegralSystem,
    build_tail_triangle_modp,
    group_order_modp,
    is_crystallographic,
    reduce_mod_p,
    rescale,
    search_lengths,
)
from .report import RunReport
from .ttgroup import (
    CommutationViolation,
    NotInvolution,
    check_intersection_full,
    check_intersection_reduced,
    parse_diagram,
    verify_tail_triangle,
)
from .wythoff import (
    build_polytope,
    classify,
    export_hasse,
    flag_orbits,
    two_sections,
    verify_diamond,
    verify_strong_connectivity,
)


class InputError(Exception):
    pass


class VerificationFailure(Exception):
    pass


def _load(name, kind):
    """The fixture at the path ``name``, else the builtin of that name; it
    must be of ``kind``."""
    path = Path(name)
    if path.exists():
        fx = load_fixture(path)
    elif name in builtin_fixture_names():
        fx = builtin_fixture(name)
    else:
        raise InputError(
            f"unknown fixture {name!r}; builtins: {', '.join(builtin_fixture_names())}"
        )
    if fx.kind != kind:
        raise InputError(f"{name} is not a {kind} fixture")
    return fx


def _check_output(path):
    """Refuse an output path that cannot be written, before any work: its
    directory must exist, and it must not be a directory itself."""
    if path is None:
        return
    target = Path(path)
    if target.is_dir():
        raise InputError(f"cannot write {path}: it is a directory")
    if not target.parent.is_dir():
        raise InputError(f"cannot write {path}: no directory {target.parent}")


def _tt_group(args, report):
    """Resolve the input group from --fixture or --modred flags. A fixture
    takes none of the --modred flags."""
    if getattr(args, "fixture", None):
        flags = ("modred", "lengths", "prime", "ringing")
        given = [f"--{f}" for f in flags if getattr(args, f) is not None]
        if given:
            raise InputError(f"--fixture does not take {', '.join(given)}")
        fx = _load(args.fixture, "tail-triangle")
        report.source = f"fixture {args.fixture}"
        with report.phase("verify"):
            G = verify_tail_triangle(fx.alphas, fx.beta)
        if fx.expect_order is not None and G.group.order != fx.expect_order:
            raise VerificationFailure(
                f"order {G.group.order} != expected {fx.expect_order}"
            )
        return G
    if getattr(args, "modred", None):
        report.source = f"modred {args.modred} lengths={args.lengths} p={args.prime}"
        return _modred_group(args.modred, args.lengths, args.prime,
                             getattr(args, "ringing", 1) or 1, report)
    raise InputError("need --fixture or --modred")


def _parse_lengths(text):
    try:
        return tuple(Fraction(x) for x in text.split(","))
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(f"bad --lengths {text!r}: {e}") from e


def _modred_group(diagram_text, lengths_text, prime, ringing, report):
    if prime is None or lengths_text is None:
        raise InputError("--modred needs --lengths and --prime")
    d = parse_diagram(diagram_text)
    lengths = _parse_lengths(lengths_text)
    with report.phase("reduce"):
        spec = reduce_mod_p(rescale(d, lengths), prime)
    report.extra["discriminant mod p"] = spec.det_mod_p
    with report.phase("verify"):
        return build_tail_triangle_modp(spec, ringing=ringing)


def _verify_report(G, report):
    with report.phase("intersection"):
        full = check_intersection_full(G)
        red = check_intersection_reduced(G)
    report.group_order = G.group.order
    report.diagram = str(G.diagram)
    report.intersection_full = full.ok
    report.intersection_reduced = red.ok
    if not (full.ok and red.ok):
        wit = full.witness or red.precondition_failure
        raise VerificationFailure(f"intersection condition failed: {wit}")
    return red


def _build_report(G, report):
    red = _verify_report(G, report)
    with report.phase("build"):
        P = build_polytope(G, verification=red)
    with report.phase("axioms"):
        ok, wit = verify_diamond(P)
        if not ok:
            raise VerificationFailure(f"diamond condition failed at {wit}")
        if not verify_strong_connectivity(P):
            raise VerificationFailure("strong flag-connectivity failed")
    with report.phase("sections"):
        hist = {}
        for s in two_sections(P):
            if not (s.is_polygon and s.alternating):
                raise VerificationFailure("2-section is not an alternating polygon")
            hist[s.size] = hist.get(s.size, 0) + 1
    with report.phase("classify"):
        orbits, flags, _ = flag_orbits(P, G)
        c = classify(P, G)
    report.f_vector = P.f_vector_str()
    report.flags = flags
    report.orbits = orbits
    report.classification = c.kind
    report.aut_order = c.aut_order
    report.section_sizes = hist
    return P


def _hasse_summary(report):
    return (
        f"fvec = {report.f_vector} flags={report.flags} "
        f"orbits={report.orbits} class={report.classification}"
    )


def cmd_build(args):
    _check_output(args.export_hasse)
    report = RunReport(source="")
    G = _tt_group(args, report)
    P = _build_report(G, report)
    print(report.text(timings=args.timings))
    if args.export_hasse:
        summary = _hasse_summary(report)
        Path(args.export_hasse).write_text(export_hasse(P, summary=summary) + "\n")
        print(f"hasse diagram written to {args.export_hasse}")
    return 0


def cmd_verify(args):
    report = RunReport(source="")
    G = _tt_group(args, report)
    _verify_report(G, report)
    print(report.text(timings=args.timings))
    return 0


def cmd_classify(args):
    report = RunReport(source="")
    G = _tt_group(args, report)
    _build_report(G, report)
    print(f"class: {report.classification}  aut order: {report.aut_order}")
    return 0


def cmd_modred(args):
    d = parse_diagram(args.diagram)
    cryst = is_crystallographic(d)
    print(f"diagram: {d}")
    print(f"crystallographic: {bool(cryst)}{'' if cryst else ' (' + cryst.reason + ')'}")
    if not cryst:
        raise InputError(f"not crystallographic: {cryst.reason}")
    if args.search_lengths:
        found = search_lengths(d)
        print("integral squared-length systems:")
        for combo in found:
            print("  " + ",".join(str(x) for x in combo))
        if args.lengths is None:
            return 0
    if args.lengths is None or args.prime is None:
        raise InputError("modred needs --lengths and --prime (or --search-lengths)")
    lengths = _parse_lengths(args.lengths)
    report = RunReport(source=f"modred {d} p={args.prime} ringing={args.ringing}")
    with report.phase("reduce"):
        spec = reduce_mod_p(rescale(d, lengths), args.prime)
    print(f"gram matrix mod {args.prime}: {spec.gram_mod_p}")
    print(f"discriminant mod p: {spec.det_mod_p} ({spec.disc_class})")
    if args.ringing is None:
        print(f"group order mod {args.prime}: {group_order_modp(spec)}")
        return 0
    try:
        G = build_tail_triangle_modp(spec, ringing=args.ringing)
    except (ValueError, CapExceeded):
        # the order line precedes any failure of the build, which leaves no
        # group to read it from
        print(f"group order mod {args.prime}: {group_order_modp(spec)}")
        raise
    print(f"group order mod {args.prime}: {G.group.order}")
    _build_report(G, report)
    print(report.text(timings=args.timings))
    return 0


def _ball_order(ctx, radius):
    """The number of elements of ``enumerate_ball(ctx, radius)``, without
    enumerating them. An element of P *_K Q has one normal form k·t_1…t_m,
    k in K and the t_i nontrivial transversal elements taken alternately
    from T_P and T_Q (Serre, *Trees*, §1.2), and the ball holds those with
    m <= radius. With i = |T_P| - 1 and j = |T_Q| - 1 there are
    |K|·(i·j·i… + j·i·j…) of them for each m >= 1, m factors in each
    product."""
    i, j = len(ctx.towers["P"][0]) - 1, len(ctx.towers["Q"][0]) - 1
    total, from_p, from_q = 1, 1, 1
    for m in range(radius):
        from_p *= j if m % 2 else i
        from_q *= i if m % 2 else j
        total += from_p + from_q
    return ctx.K.order * total


def cmd_amalgam(args):
    _check_output(args.export_hasse)
    if args.close_up is not None:
        raise InputError(
            "--close-up is not supported: whether the quotient by "
            "(a_{n-1} b)^k = 1 satisfies the intersection condition is an "
            "open question, so this tool does not attempt it"
        )
    if args.ball < 0:
        raise InputError("radius must be >= 0")
    p_fx, q_fx = _load(args.p, "string-cgroup"), _load(args.q, "string-cgroup")
    try:
        ctx = AmalgamContext(p_fx.gens, q_fx.gens, shared=args.shared)
    except (NotCGroup, FacetMismatch) as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 1
    # an unknown letter, or a ball past the element cap, is refused before any output
    w = None if args.normalize is None else ctx.normalize(args.normalize.split())
    count, cap = _ball_order(ctx, args.ball), closure_cap()
    if count > cap:
        raise CapExceeded(f"ball radius {args.ball} holds {count} elements, over the cap {cap}")
    print(f"factors: P order {ctx.P.order}, Q order {ctx.Q.order}, shared K order {ctx.K.order}")
    print(f"transversals: |T_P| = {len(ctx.towers['P'][0])}, |T_Q| = {len(ctx.towers['Q'][0])}")
    cls = universal_is_regular(ctx)
    print(f"universal polytope class: {cls.kind}  aut: {cls.aut}")
    if w is not None:
        print(f"normal form: {w}")
        print("letters: " + (" ".join(ctx.word_letters(w)) or "(identity)"))
    sec = ridge_section(ctx, max(args.ball, 2))
    print(
        f"ridge section: {'open' if sec.is_open else 'CLOSED'}, "
        f"{sec.ridges_checked} ridges, alternating={sec.alternating}"
    )
    ball = enumerate_ball(ctx, args.ball)
    counts = [len(ball.poset.ids(r)) for r in range(ctx.n + 1)]
    print(f"ball radius {args.ball}: faces per rank {counts} ({len(ball.elements)} group elements)")
    if args.export_hasse:
        summary = f"ball radius={args.ball} faces={sum(counts)}"
        Path(args.export_hasse).write_text(export_hasse(ball.poset, summary=summary) + "\n")
        print(f"hasse diagram written to {args.export_hasse}")
    return 0


def cmd_selftest(args):
    from .selftest import render, run_selftest, to_json

    _check_output(args.json_report)
    rows = run_selftest(quick=args.quick)
    print(render(rows))
    if args.json_report:
        Path(args.json_report).write_text(to_json(rows) + "\n")
        print(f"json report written to {args.json_report}")
    return 0 if all(r.ok for r in rows) else 1


def cmd_export_hasse(args):
    _check_output(args.out)
    report = RunReport(source="")
    G = _tt_group(args, report)
    P = _build_report(G, report)
    text = export_hasse(P, summary=_hasse_summary(report))
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def _add_group_source(p):
    p.add_argument("--fixture", help="fixture file path or builtin name")
    p.add_argument("--modred", help="diagram spec, e.g. 'tail=[3] triangle=(4,inf,2)'")
    p.add_argument("--lengths", help="comma-separated squared lengths")
    p.add_argument("--prime", type=int)
    p.add_argument("--ringing", type=int, choices=(1, 2, 3))
    p.add_argument("--timings", action="store_true")


def make_parser():
    ap = argparse.ArgumentParser(
        prog="polywythoff",
        description="Exact construction and verification of alternating "
        "semiregular polytopes from tail-triangle C-groups.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="full pipeline: verify, build, axioms, classify")
    _add_group_source(p)
    p.add_argument("--export-hasse", metavar="PATH")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("verify", help="group and intersection checks only")
    _add_group_source(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("classify", help="build and report regular vs 2-orbit")
    _add_group_source(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("modred", help="crystallographic reduction mod p")
    p.add_argument("--diagram", required=True)
    p.add_argument("--lengths")
    p.add_argument("--prime", type=int)
    p.add_argument("--ringing", type=int, choices=(1, 2, 3))
    p.add_argument("--search-lengths", action="store_true")
    p.add_argument("--timings", action="store_true")
    p.set_defaults(fn=cmd_modred)

    p = sub.add_parser("amalgam", help="amalgamated free product exploration")
    p.add_argument("--p", required=True, help="fixture for the P factor")
    p.add_argument("--q", required=True, help="fixture for the Q factor")
    p.add_argument("--shared", type=int, default=None, help="number of shared generators")
    p.add_argument("--ball", type=int, default=1)
    p.add_argument("--normalize", metavar="WORD", help="letters, e.g. 'a0 a2 b'")
    p.add_argument("--close-up", type=int, default=None)
    p.add_argument("--export-hasse", metavar="PATH")
    p.set_defaults(fn=cmd_amalgam)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--json-report", metavar="PATH")
    p.set_defaults(fn=cmd_selftest)

    p = sub.add_parser("export-hasse", help="write the Hasse diagram")
    _add_group_source(p)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(fn=cmd_export_hasse)

    return ap


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, OSError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    except (NotInvolution, CommutationViolation, NonIntegralSystem,
            IntersectionFailure, VerificationFailure, CapExceeded) as e:
        print(f"verification failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
