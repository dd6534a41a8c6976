"""Plain-text run reports for the CLI pipeline."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class RunReport:
    source: str
    group_order: int = 0
    diagram: str = ""
    intersection_full: bool | None = None
    intersection_reduced: bool | None = None
    f_vector: str = ""
    flags: int = 0
    orbits: int = 0
    classification: str = ""
    aut_order: int = 0
    section_sizes: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def checks_agree(self):
        if self.intersection_full is None or self.intersection_reduced is None:
            return None
        return self.intersection_full == self.intersection_reduced

    @contextmanager
    def phase(self, name):
        t0 = time.perf_counter()
        yield
        self.timings[name] = time.perf_counter() - t0

    def lines(self, timings=False):
        out = [f"input: {self.source}"]
        if self.group_order:
            out.append(f"group order: {self.group_order}")
        if self.diagram:
            out.append(f"diagram: {self.diagram}")
        if self.intersection_full is not None or self.intersection_reduced is not None:
            out.append(
                "intersection: full=%s reduced=%s agree=%s"
                % (self.intersection_full, self.intersection_reduced, self.checks_agree)
            )
        if self.f_vector:
            out.append(f"fvec = {self.f_vector}")
        if self.flags:
            out.append(f"flags: {self.flags}  orbits: {self.orbits}")
        if self.classification:
            out.append(f"class: {self.classification}  aut order: {self.aut_order}")
        if self.section_sizes:
            hist = " ".join(f"{k}-gon x{v}" for k, v in sorted(self.section_sizes.items()))
            out.append(f"2-sections: {hist}")
        for k, v in self.extra.items():
            out.append(f"{k}: {v}")
        if timings:
            for k, v in self.timings.items():
                out.append(f"time[{k}]: {v:.3f}s")
        return out

    def text(self, timings=False):
        return "\n".join(self.lines(timings=timings))
