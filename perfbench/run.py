"""End-to-end benchmark of the polywythoff pipeline.

    python3 perfbench/run.py --workload quotient-screen --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Runs one workload (or each in its own process with ``all``) as a closed
loop: one op at a time, single process, single thread, for ``--seconds``.
Every op's output is checked against ``refs.json``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` reports the per-layer metrics of
``tracing.py``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Times of the
end-to-end metrics are in reference-host seconds (see ``HostProbe``). See
README.md.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import tracing
import workloads
from workloads import WORKLOADS, import_program

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFS = HERE / "refs.json"
BENCHMARKED = ("quotient-screen", "star-mod3", "amalgam-explore")  # as in BENCHMARK.json
SETUP_INTERVAL = 2.0  # seconds of ops between two timed set-ups
PROBE_ITERATIONS = 150_000
# A 7-cycle and a transposition, which generate the symmetric group S_7.
PROBE_GENERATORS = ((1, 2, 3, 4, 5, 6, 0), (1, 0, 2, 3, 4, 5, 6))
PROBE_INTERVAL = 0.5  # seconds of ops between two host probes
PROBE_REACH = 2.0  # seconds before and after a timed interval whose probes scale it
# Median of 300 probes on the 2-core host the benchmark was built on
# (quartiles 29.1 and 32.0 ms): the host speed the scaled times read at.
PROBE_REF_S = 0.0313
E2E_UNITS = {"setup_s": "s", "op_p50_s": "s", "peak_rss_mib": "MiB", "op_peak_rss_mib": "MiB"}
# Printed and recorded, but not in BENCHMARK.json: the 11th-slowest op
# falls between the two clusters of amalgam-explore's op times, so
# op_tail_s jumps between them from seed to seed, and ops_per_s follows the
# few slowest quotients of quotient-screen; op_p50_s gates the same ops
# (see README.md).
REPORTED_UNITS = {"op_tail_s": "s", "ops_per_s": "1/s"}


def probe_time() -> float:
    """Time of fixed pure-Python work that runs no program code: an integer
    loop, then the closure of PROBE_GENERATORS as tuples in a set, the kind
    of work the program does most. Either alone followed the program's
    slow stretches less closely than the two together."""
    t0 = perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
    seen = {tuple(range(len(PROBE_GENERATORS[0])))}
    frontier = list(seen)
    while frontier:
        new = []
        for x in frontier:
            for g in PROBE_GENERATORS:
                y = tuple([x[i] for i in g])
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return perf_counter() - t0


class HostProbe:
    """The host's speed through a run, from ``probe_time`` timed before the
    first op, between ops every PROBE_INTERVAL seconds, and after the last
    op.

    On a shared host the same op runs up to twice as fast in one stretch as
    in another, and a stretch lasts from seconds to a whole run. ``scaled``
    divides a timed interval by the median of the probes within PROBE_REACH
    of it, over PROBE_REF_S, so that it reads as on the reference host; a
    change to the program, which the probe never runs, moves it in full.
    """

    def __init__(self):
        self.at, self.times = [], []
        self.sample()

    def sample(self):
        self.at.append(perf_counter())
        self.times.append(probe_time())
        self.due = perf_counter() + PROBE_INTERVAL

    def between_ops(self):
        if perf_counter() >= self.due:
            self.sample()

    def median(self) -> float:
        return statistics.median(self.times)

    def scaled(self, start: float, seconds: float) -> float:
        lo = bisect.bisect_left(self.at, start - PROBE_REACH)
        hi = bisect.bisect_right(self.at, start + seconds + PROBE_REACH)
        near = self.times[lo:hi] or [self.times[min(lo, len(self.times) - 1)]]
        return seconds * PROBE_REF_S / statistics.median(near)


def setup(wl, seed, refs_path):
    """Import the program, load the references and make the inputs; returns
    (lib, inputs, seconds taken)."""
    t0 = perf_counter()
    lib = import_program(SRC)
    refs = json.loads(refs_path.read_text())
    inputs = wl.inputs(lib, refs, seed)
    return lib, inputs, perf_counter() - t0


def forked(fn):
    """``fn()`` run in a forked child, which is waited for; returns its
    JSON result. Forking is safe here because the benchmark starts no
    threads."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(r)
            os.write(w, json.dumps(fn()).encode())
            status = 0
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(w)
    with os.fdopen(r) as fh:
        out = fh.read()
    _, status = os.waitpid(pid, 0)
    if status:
        raise RuntimeError(f"forked child failed with wait status {status}")
    return json.loads(out)


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_op(wl, lib, inp):
    """(raw result or exception, start, seconds) of one op."""
    t0 = perf_counter()
    try:
        raw = wl.op(lib, inp)
    except Exception as exc:  # a failed op is counted, the run goes on
        raw = exc
    return raw, t0, perf_counter() - t0


def check(wl, lib, raw, ref):
    """None when the op's output equals its reference, else a reason."""
    if isinstance(raw, Exception):
        return f"{type(raw).__name__}: {raw}"
    got = json.loads(json.dumps(wl.summarize(lib, raw)))
    if got == ref:
        return None
    return f"output differs from reference: got {got}, want {ref}"


def closed_loop(wl, lib, inputs, seconds, time_setup):
    """One untimed pass over the inputs, so that its peak RSS is that of the
    ops and their checks alone, then timed ops over the inputs, cycling and
    probing the host between them, until ``seconds`` have passed since the
    start and every input ran timed at least once. Returns the (input
    index, start, seconds) of each timed op, the failures of every op, the
    peak RSS after the untimed pass, the (start, seconds) of the set-ups
    that ``time_setup`` ran between timed ops every SETUP_INTERVAL seconds,
    so that set-up time is sampled across the run and not at one moment,
    and the HostProbe."""
    deadline = perf_counter() + seconds
    ops, failures, setups = [], [], []

    def run_op(k):
        """(start, seconds) of one op on input ``k``; its results are freed
        on return, before the next op starts."""
        inp, ref = inputs[k]
        raw, t0, dt = timed_op(wl, lib, inp)
        err = check(wl, lib, raw, ref)
        if err:
            failures.append(err)
        return t0, dt

    for k in range(len(inputs)):
        run_op(k)
    first_pass_rss = peak_rss_mib()
    host = HostProbe()
    next_setup = perf_counter()
    i = 0
    while True:
        k = i % len(inputs)
        ops.append((k, *run_op(k)))
        i += 1
        host.between_ops()
        now = perf_counter()
        if now >= deadline and i >= len(inputs):
            host.sample()
            return ops, failures, first_pass_rss, setups, host
        if now >= next_setup:
            t0 = perf_counter()
            setups.append((t0, time_setup()))
            next_setup = perf_counter() + SETUP_INTERVAL


def tail(times):
    """The highest percentile with at least ten samples beyond it (the
    maximum when there are ten samples or fewer)."""
    s = sorted(times)
    return s[len(s) - 11] if len(s) > 10 else s[-1]


def traced_passes(wl, lib, inputs, seconds, host):
    """Whole passes over the inputs, each op untraced then traced, for as
    many passes as fit in ``seconds`` (at least one); ``host`` probes
    between ops."""
    tracer = tracing.Tracer()
    plain = traced = 0.0
    attempted, failures = 0, []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        for inp, ref in inputs:
            raw, _, dt = timed_op(wl, lib, inp)
            plain += dt
            err = check(wl, lib, raw, ref)
            del raw
            tracer.patch(lib, workloads)
            try:
                raw, dt = tracer.run_op(wl.op, lib, inp)
            finally:
                tracer.unpatch()
            traced += dt
            errs = [e for e in (err, check(wl, lib, raw, ref)) if e]
            del raw
            attempted += 2
            failures += errs
            host.between_ops()
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = traced / plain
    return tracer, metrics, attempted, failures


def git_sha(root: Path) -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a
    repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def unit_of(metric: str) -> str:
    if metric in E2E_UNITS:
        return E2E_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric in tracing.RATIO_METRICS else "count"


def run_workload(name, seed, seconds, trace, refs_path=REFS):
    """Run one workload in a forked child; returns the full result record.

    An exec'd process starts with the ``ru_maxrss`` of the process that
    started it, so in this process the peak RSS could read the size of
    whatever ran the benchmark. A forked child's starts at its own size.
    """
    return forked(lambda: measure(name, seed, seconds, trace, refs_path))


def measure(name, seed, seconds, trace, refs_path):
    """Run one workload in this process; returns the full result record."""
    wl = WORKLOADS[name]
    t0 = perf_counter()
    lib, inputs, setup_time = setup(wl, seed, refs_path)
    setup_rss = peak_rss_mib()
    setups = [(t0, setup_time)]
    reported, wall = {}, {}
    if trace:
        host = HostProbe()
        tracer, metrics, attempted, failures = traced_passes(wl, lib, inputs, seconds, host)
        host.sample()
        metrics["host.calib_s"] = host.median()
        ops = len(tracer.ops)
    else:
        def time_setup():
            seconds_taken = setup(wl, seed, refs_path)[2]
            gc.collect()  # drop the discarded modules now, not inside a later op
            return seconds_taken

        runs, failures, first_pass_rss, more_setups, host = closed_loop(
            wl, lib, inputs, seconds, time_setup
        )
        setups += more_setups
        times = [dt for _, _, dt in runs]
        scaled = [(k, host.scaled(t, dt)) for k, t, dt in runs]
        ops = len(times)
        attempted = len(inputs) + ops

        def p50(timed):
            per_input = [[dt for k, dt in timed if k == j] for j in range(len(inputs))]
            return statistics.geometric_mean(map(statistics.median, per_input))

        wall = {
            "setup_s": statistics.median(dt for _, dt in setups),
            "op_p50_s": p50([(k, dt) for k, _, dt in runs]),
            "op_tail_s": tail(times),
            "ops_per_s": len(times) / sum(times),
        }
        scaled_times = [dt for _, dt in scaled]
        metrics = {
            "setup_s": statistics.median(host.scaled(t, dt) for t, dt in setups),
            "op_p50_s": p50(scaled),
            "peak_rss_mib": peak_rss_mib(),
            "op_peak_rss_mib": first_pass_rss - setup_rss,
        }
        reported = {
            "op_tail_s": tail(scaled_times),
            "ops_per_s": len(scaled_times) / sum(scaled_times),
        }
    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(ROOT),
        "kernel": lib.kernels.KERNEL,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "host.calib_s": host.median(),
        "host.probe_s": host.times,
        "wall": wall,
        "bench.ops": ops,
        "setup_runs_s": [dt for _, dt in setups],
    }
    result = {
        "meta": meta,
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
        "reported": {k: {"value": v, "unit": REPORTED_UNITS[k]} for k, v in reported.items()},
        "failures": failures[:20],
    }
    if not trace:
        result["op_times_s"] = times
    else:
        result["spans"] = {"ops": tracer.ops, "spans": tracer.spans}
    return result


def write_out(result):
    meta = result["meta"]
    OUT.mkdir(exist_ok=True)
    stem = f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}"
    spans = result.pop("spans", None)
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1))


def print_result(result):
    meta = result["meta"]
    print(f"workload {meta['workload']}  seed {meta['seed']}  trace {meta['trace']}")
    for k, m in (result["metrics"] | result["reported"]).items():
        print(f"  {k:36s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':36s} {result['fail_ratio']:.6g} ratio "
          f"({result['failed']}/{result['attempted']})")
    for err in result["failures"][:3]:
        print(f"  failure: {err[:300]}")
    print("# meta " + json.dumps(meta))


def summary_line(result):
    keys = ("correct", "attempted", "failed", "metrics")
    return json.dumps({k: result[k] for k in keys})


def run_all(args):
    """Each workload in its own process, so peak RSS is its own."""
    results = {}
    for name in BENCHMARKED:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "polywythoff" / "__init__.py").is_file():
        print(f"error: no polywythoff sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        run_all(args)
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    write_out(result)
    print_result(result)
    print(summary_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
