"""Spans at the public functions of each layer, for the traced run only.

The tracer rebinds module attributes of the freshly imported program: the
functions the benchmark calls, and the names a module imported from another
layer (``ttgroup.closure``, ``wythoff.coset_partition``, ...), so calls
between layers are seen too. ``unpatch`` restores every original. Spans
(name, start, end, parent, op) stay in memory until the run writes them out.

A layer's self time is its spans' duration minus the part covered by their
child spans; op time no span covers is ``trace.unattributed_s``. Every span
name ``x`` is reported as metric ``x_s``, so the ``_s`` metrics plus
``trace.unattributed_s`` add up to ``trace.op_s``.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter


def _closure(c, result, args):
    c["groups.closure_calls"] += 1
    c["groups.closure_elements"] += result.order


def _cosets(c, result, args):
    c["groups.cosets"] += len(result[0])


def _full(c, result, args):
    c["ttgroup.intersection_full_checks"] += result.conditions_checked


def _reduced(c, result, args):
    c["ttgroup.intersection_reduced_checks"] += result.conditions_checked


def _string_cgroup(c, result, args):
    c["ttgroup.string_cgroup_calls"] += 1


def _build(c, P, args):
    proper = [f for r in P.proper_ranks() for f in P.faces(r)]
    c["wythoff.faces"] += len(proper)
    c["wythoff.covers"] += sum(1 for f in proper for g in P.up[f] if g.kind != "top")


def _sections(c, result, args):
    c["wythoff.sections"] += len(result)


def _flag_orbits(c, result, args):
    c["wythoff.orbits"] += result[0]
    c["wythoff.flags"] += result[1]


def _hasse(c, text, args):
    c["wythoff.hasse_bytes"] += len(text.encode())


def _words(c, result, args):
    c["amalgam.words"] += len(args[1])


def _ball(c, ball, args):
    P = ball.poset
    proper = [f for r in P.proper_ranks() for f in P.faces(r)]
    c["amalgam.ball_elements"] += len(ball.elements)
    c["amalgam.ball_faces"] += len(proper)
    c["amalgam.ball_covers"] += sum(1 for f in proper for g in P.up[f] if g.kind != "top")


# (module, attribute, span name, counter). Several attributes may share a
# span name: a layer function seen from every module that imports it.
SPANS = (
    ("groups", "closure", "groups.closure", _closure),
    ("ttgroup", "closure", "groups.closure", _closure),
    ("amalgam", "closure", "groups.closure", _closure),
    ("ttgroup", "element_order", "groups.element_order", None),
    ("wythoff", "coset_partition", "groups.coset_partition", _cosets),
    ("amalgam", "coset_partition", "groups.coset_partition", _cosets),
    ("wythoff", "extend_homomorphism", "groups.extend_homomorphism", None),
    ("amalgam", "extend_homomorphism", "groups.extend_homomorphism", None),
    ("ttgroup", "verify_tail_triangle", "ttgroup.verify", None),
    ("modred", "verify_tail_triangle", "ttgroup.verify", None),
    ("ttgroup", "check_intersection_full", "ttgroup.intersection_full", _full),
    ("ttgroup", "check_intersection_reduced", "ttgroup.intersection_reduced", _reduced),
    ("modred", "check_intersection_reduced", "ttgroup.intersection_reduced", _reduced),
    ("wythoff", "check_intersection_reduced", "ttgroup.intersection_reduced", _reduced),
    ("ttgroup", "is_string_c_group", "ttgroup.string_cgroup", _string_cgroup),
    ("wythoff", "is_string_c_group", "ttgroup.string_cgroup", _string_cgroup),
    ("amalgam", "is_string_c_group", "ttgroup.string_cgroup", _string_cgroup),
    ("modred", "rescale", "modred.reduce", None),
    ("modred", "reduce_mod_p", "modred.reduce", None),
    ("wythoff", "build_polytope", "wythoff.build", _build),
    ("wythoff", "verify_diamond", "wythoff.axioms", None),
    ("wythoff", "verify_strong_connectivity", "wythoff.axioms", None),
    ("wythoff", "two_sections", "wythoff.sections", _sections),
    ("wythoff", "flag_orbits", "wythoff.flag_orbits", _flag_orbits),
    ("wythoff", "classify", "wythoff.classify", None),
    ("wythoff", "export_hasse", "wythoff.export_hasse", _hasse),
    ("amalgam", "AmalgamContext", "amalgam.context", None),
    ("amalgam", "universal_is_regular", "amalgam.context", None),
    ("amalgam", "ridge_section", "amalgam.ridge", None),
    ("amalgam", "enumerate_ball", "amalgam.ball", _ball),
    ("workloads", "word_batch", "amalgam.words", _words),
)

# Counted, not spanned: these run too often for a span each.
# (class attribute, counter, only while this span is innermost or None)
CALL_COUNTS = (
    ("multiply", "amalgam.multiply_calls", None),
    ("in_gamma", "amalgam.ball_tests", "amalgam.ball"),
    ("in_facet", "amalgam.ball_tests", "amalgam.ball"),
)

SPAN_METRICS = sorted({f"{name}_s" for _, _, name, _ in SPANS})
COUNT_METRICS = (
    "groups.closure_calls", "groups.closure_elements", "groups.cosets",
    "ttgroup.intersection_full_checks", "ttgroup.intersection_reduced_checks",
    "ttgroup.string_cgroup_calls", "wythoff.faces", "wythoff.covers",
    "wythoff.sections", "wythoff.flags", "wythoff.orbits", "wythoff.hasse_bytes",
    "amalgam.words", "amalgam.ball_elements", "amalgam.ball_faces",
    "amalgam.ball_covers", "amalgam.ball_tests", "amalgam.multiply_calls",
)
RATIO_METRICS = ("ttgroup.full_over_reduced_checks", "amalgam.ball_hit_ratio", "trace.overhead_ratio")


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1, op]
        self.ops: list = []  # [start, end] per traced op
        self.counts: Counter = Counter()
        self._stack: list = []
        self._op: int | None = None
        self._undo: list = []

    # ---- recording -----------------------------------------------------------

    def run_op(self, fn, *args):
        """Run one traced op; returns (result or exception, seconds)."""
        self._op = len(self.ops)
        t0 = perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # recorded as a failed op by the caller
            result = exc
        t1 = perf_counter()
        self._op = None
        self._stack.clear()
        self.ops.append([t0, t1])
        return result, t1 - t0

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self._op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(self.counts, result, args)
            return result

        return traced

    def _counted(self, fn, counter, inside):
        def counted(*args, **kwargs):
            if self._op is not None and (
                inside is None or (self._stack and self.spans[self._stack[-1]][0] == inside)
            ):
                self.counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def patch(self, lib, bench_module):
        """Rebind every SPANS attribute and CALL_COUNTS method."""
        modules = dict(vars(lib), workloads=bench_module)
        ctx_cls = lib.amalgam.AmalgamContext  # before SPANS rebinds the name
        for attr, counter, inside in CALL_COUNTS:
            self._set(ctx_cls, attr, self._counted(getattr(ctx_cls, attr), counter, inside))
        for mod, attr, name, count in SPANS:
            target = modules[mod]
            self._set(target, attr, self._wrap(name, getattr(target, attr), count))

    def unpatch(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    # ---- metrics ---------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-op means over the traced ops: self time per span name, counts,
        ratios, and the op time no span covers."""
        n_ops = len(self.ops)
        child = [0.0] * len(self.spans)
        covered = 0.0
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                covered += end - start
        self_time: Counter = Counter()
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            self_time[f"{name}_s"] += end - start - child[i]
        op_total = sum(end - start for start, end in self.ops)
        out = dict.fromkeys(SPAN_METRICS, 0.0)
        out.update({k: v / n_ops for k, v in self_time.items()})
        out.update({k: self.counts[k] / n_ops for k in COUNT_METRICS})
        c = self.counts
        out["ttgroup.full_over_reduced_checks"] = _ratio(
            c["ttgroup.intersection_full_checks"], c["ttgroup.intersection_reduced_checks"]
        )
        out["amalgam.ball_hit_ratio"] = _ratio(c["amalgam.ball_faces"], c["amalgam.ball_tests"])
        out["trace.op_s"] = op_total / n_ops
        out["trace.unattributed_s"] = (op_total - covered) / n_ops
        return out


def _ratio(num, den):
    return num / den if den else 0.0
