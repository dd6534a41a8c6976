"""Line-oriented fixture files for groups given by permutation generators.

Two headers are supported:
  tail-triangle n=<n> degree=<N>   with lines  alpha<i> = <cycles>, beta = <cycles>
  string-cgroup n=<n> degree=<N>   with lines  rho<i> = <cycles>
plus an optional trailing ``expect order=<m>``. Parsing is all the program
needs; the tests print fixtures back and check that canonical files
round-trip bit-exactly. Only a tail-triangle fixture has ``alphas`` and
``beta``.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .elements import Perm, parse_perm


@dataclass(frozen=True)
class Fixture:
    kind: str  # "tail-triangle" | "string-cgroup"
    n: int
    degree: int
    gens: tuple  # alphas + (beta,) for tail-triangle; rhos for string-cgroup
    expect_order: int | None = None

    # explicit raises, not asserts, so that ``python -O`` keeps the checks
    @property
    def alphas(self) -> tuple:
        if self.kind != "tail-triangle":
            raise ValueError(f"a {self.kind} fixture has no alphas")
        return self.gens[:-1]

    @property
    def beta(self) -> Perm:
        if self.kind != "tail-triangle":
            raise ValueError(f"a {self.kind} fixture has no beta")
        return self.gens[-1]


def parse_fixture(text: str) -> Fixture:
    lines = [ln.rstrip("\n") for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty fixture")
    head = lines[0].split()
    if len(head) != 3 or head[0] not in ("tail-triangle", "string-cgroup"):
        raise ValueError(f"bad fixture header: {lines[0]!r}")
    kind = head[0]
    try:
        n = int(head[1].removeprefix("n="))
        degree = int(head[2].removeprefix("degree="))
    except ValueError:
        raise ValueError(f"bad fixture header: {lines[0]!r}") from None
    if n < 1:
        raise ValueError(f"bad fixture header: {lines[0]!r}: n must be >= 1")
    if degree < 1:
        raise ValueError(f"bad fixture header: {lines[0]!r}: degree must be >= 1")

    expect_order = None
    body: dict[str, Perm] = {}
    for lineno, ln in enumerate(lines[1:], start=2):
        if ln.startswith("expect "):
            expect_order = int(ln.removeprefix("expect ").removeprefix("order="))
            continue
        if "=" not in ln:
            raise ValueError(f"line {lineno}: expected '<name> = <cycles>'")
        name, _, rhs = ln.partition("=")
        name = name.strip()
        if name in body:
            raise ValueError(f"line {lineno}: duplicate generator {name}")
        body[name] = parse_perm(rhs.strip(), degree)

    if kind == "tail-triangle":
        want = [f"alpha{i}" for i in range(n)] + ["beta"]
    else:
        want = [f"rho{i}" for i in range(n)]
    missing = [w for w in want if w not in body]
    extra = [k for k in body if k not in want]
    if missing or extra:
        raise ValueError(f"fixture generators mismatch: missing={missing} extra={extra}")
    return Fixture(kind, n, degree, tuple(body[w] for w in want), expect_order)


def load_fixture(path: str) -> Fixture:
    with open(path, encoding="utf-8") as fh:
        return parse_fixture(fh.read())


def builtin_fixture(name: str) -> Fixture:
    """Load one of the fixtures shipped inside the package."""
    data = resources.files("polywythoff.fixtures").joinpath(name).read_text()
    return parse_fixture(data)


def builtin_fixture_names() -> list[str]:
    root = resources.files("polywythoff.fixtures")
    return sorted(
        p.name for p in root.iterdir() if p.name.endswith((".tt", ".sg"))
    )
