"""Regenerate refs.json: the quotient catalogue and every op's reference output.

    python3 perfbench/make_refs.py

Run it only at a commit whose outputs are trusted: every later run is
checked against what it writes. It takes a few minutes, most of it the
star mod 5 build. The quotient catalogue is every configuration that
``selftest.random_quotients`` can draw (rank n in {2, 3}, labels
{2, 3, 4, 6}, integral lengths from ``search_lengths`` over {1, 2, 3},
p in {2, 3, 5}) whose group passes ``verify_tail_triangle`` with order at
most ORDER_CAP. Each entry's ``weight`` is the chance that
``random_quotients`` returns it on one draw: 1/2 for n, then 1 over the
number of tail and triangle labellings for that n, 1 over the number of
lengths ``search_lengths`` offers, and 1/3 for p, renormalised over the
admissible entries, as its redraws after a rejected draw do. Each entry's
``work`` is the number of group elements its op's closures enumerate (the
traced run's ``groups.closure_elements``): a count of the op's cost that
every machine reproduces, by which samples are stratified.
"""

from __future__ import annotations

import itertools
import json
import sys
from time import perf_counter

import tracing
import workloads
from run import REFS, ROOT, SRC, git_sha, timed_op
from workloads import ORDER_CAP, PAIRS, WORKLOADS, import_program

LABELS = (2, 3, 4, 6)
PRIMES = (2, 3, 5)


def candidates(lib):
    """Every (diagram, lengths, p) that random_quotients can draw, with the
    chance that one of its draws picks it, before any rejection."""
    tt, mr = lib.ttgroup, lib.modred
    for n in (2, 3):
        tails = list(itertools.product(LABELS[1:], repeat=n - 2))
        triangles = list(itertools.product(LABELS[1:], LABELS[1:], LABELS))
        for tail in tails:
            for tri in triangles:
                d = tt.TailTriangleDiagram(n, tail, tri)
                if not mr.is_crystallographic(d):
                    continue
                options = mr.search_lengths(d, values=(1, 2, 3))
                for lengths in options:
                    for p in PRIMES:
                        chance = 0.5 / (len(tails) * len(triangles) * len(options) * len(PRIMES))
                        yield d, lengths, p, chance


def admissible(lib, d, lengths, p):
    mr, tt = lib.modred, lib.ttgroup
    try:
        spec = mr.reduce_mod_p(mr.rescale(d, lengths), p)
        tt.verify_tail_triangle(list(spec.generators[: d.n]), spec.generators[d.n], cap=ORDER_CAP)
    except (lib.groups.CapExceeded, tt.NotInvolution, tt.CommutationViolation, ValueError):
        return False
    return True


def reference(lib, wl, inp):
    """The JSON summary of one op on ``inp``."""
    raw, _, _ = timed_op(wl, lib, inp)
    if isinstance(raw, Exception):
        raise raw
    return json.loads(json.dumps(wl.summarize(lib, raw)))


def closure_work(lib, wl, inp):
    """Group elements the closures of one op on ``inp`` enumerate."""
    tracer = tracing.Tracer()
    tracer.patch(lib, workloads)
    try:
        tracer.run_op(wl.op, lib, inp)
    finally:
        tracer.unpatch()
    return tracer.counts["groups.closure_elements"]


def main():
    lib = import_program(SRC)
    refs = {"git_sha": git_sha(ROOT), "kernel": lib.kernels.KERNEL}

    wl = WORKLOADS["quotient-screen"]
    catalogue = []
    for d, lengths, p, chance in candidates(lib):
        if not admissible(lib, d, lengths, p):
            continue
        catalogue.append({
            "id": f"{d} lengths={','.join(map(str, lengths))} p={p}",
            "n": d.n, "tail": list(d.tail), "triangle": list(d.triangle),
            "lengths": list(lengths), "p": p, "weight": chance,
            "work": closure_work(lib, wl, (d, lengths, p)),
            "ref": reference(lib, wl, (d, lengths, p)),
        })
    total = sum(e["weight"] for e in catalogue)
    for e in catalogue:
        e["weight"] /= total
    refs["quotient-screen"] = catalogue
    print(f"quotient-screen: {len(catalogue)} quotients", file=sys.stderr)

    for name in ("star-mod3", "star-mod5"):
        wl = WORKLOADS[name]
        t0 = perf_counter()
        ((inp, _),) = wl.inputs(lib, dict.fromkeys((name,)), seed=0)
        refs[name] = reference(lib, wl, inp)
        print(f"{name}: {perf_counter() - t0:.1f} s", file=sys.stderr)
    wl = WORKLOADS["amalgam-explore"]
    inputs = wl.inputs(lib, {"amalgam-explore": [None] * len(PAIRS)}, seed=0)
    refs["amalgam-explore"] = [reference(lib, wl, inp) for inp, _ in inputs]

    REFS.write_text(json.dumps(refs, indent=1) + "\n")
    for name in ("star-mod3", "star-mod5", "amalgam-explore"):
        print(name, json.dumps(refs[name]), file=sys.stderr)


if __name__ == "__main__":
    main()
