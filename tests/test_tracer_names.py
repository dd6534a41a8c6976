"""The benchmark's traced run finds every program name it rebinds.

``perfbench/tracing.py`` times layers by rebinding module attributes
(``SPANS``) and counting calls of ``AmalgamContext`` methods
(``CALL_COUNTS``) on a fresh import of ``src/``. A name that a refactor
removes or renames makes ``perfbench/run.py --trace 1`` fail at set-up, so
this test reads both tables and resolves every entry. The benchmark's
files are only read: each is compiled from its source into a module of its
own, and the program's modules imported for the check are put back
afterwards.
"""

import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
SRC = ROOT / "src"


def read_module(name):
    """perfbench/<name>.py as a module, compiled from its source."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module  # dataclasses look their module up
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


def fresh_program(workloads):
    """The program's modules imported afresh from src/ by the benchmark's
    own ``import_program``; sys.modules and sys.path are restored."""
    path = sys.path[:]
    saved = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "polywythoff"}
    try:
        return workloads.import_program(SRC)
    finally:
        for k in [k for k in sys.modules if k.split(".")[0] == "polywythoff"]:
            del sys.modules[k]
        sys.modules.update(saved)
        sys.path[:] = path


def test_every_traced_name_resolves_on_a_fresh_import():
    tracing, workloads = read_module("tracing"), read_module("workloads")
    lib = fresh_program(workloads)
    modules = dict(vars(lib), workloads=workloads)
    missing = [
        (mod, attr)
        for mod, attr, _, _ in tracing.SPANS
        if not callable(getattr(modules.get(mod), attr, None))
    ]
    assert missing == []
    ctx_cls = lib.amalgam.AmalgamContext
    assert [a for a, _, _ in tracing.CALL_COUNTS if not callable(getattr(ctx_cls, a, None))] == []
    # the traced run's own set-up: rebind every name, then restore each
    tracer = tracing.Tracer()
    tracer.patch(lib, workloads)
    tracer.unpatch()
    assert lib.amalgam.enumerate_ball.__module__ == "polywythoff.amalgam"
