"""Static check that the package has no dead API.

Every function, method and property defined in ``src/polywythoff`` must be
referenced somewhere in the package outside its own definition, or in the
benchmark scripts (``perfbench/*.py``). A function counts as referenced
when its name is read as a name, or as an attribute of its module
(``kernels.close``); a method or a property when its name is read as an
attribute. Calls from the tests do not count: production code that only
tests reach belongs in the tests. A name may instead sit in ``ALLOWED``,
with the reason it is kept.

Every field of a dataclass defined in the package must likewise be read as
an attribute (``spec.det_mod_p``) somewhere in the package, the benchmark
scripts or the tests, or sit in ``ALLOWED_FIELDS``: a result that nothing
reads is work that nobody needs.

Every name that a module of the package imports must be read in that
module, or sit in ``ALLOWED_IMPORTS``: an import left behind by a refactor
is dead too. ``__init__`` imports to re-export, and ``from __future__``
imports are directives, so neither counts.

A method counts as used when any attribute of its name is read, so a
method that nothing calls passes while a method of the same name on
another class is read: ``Perm.inverse`` and ``MatModP.inverse`` passed
through ``AmalgamContext.inverse``. So every method name defined on more
than one class sits in ``SHARED_METHODS``, with each class that defines it
and a production function that reads the name for that class, and a new
shared name fails until it is listed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polywythoff"

ALLOWED = {
    "modred.form_radical": "the radical of a degenerate reduced form, kept for ROADMAP item 17",
    "wythoff.build_regular": "the regular Wythoff build, shared by several test files",
    "wythoff.facet_section": "the facet section, shared by several test files",
    "oracles.toroid_44": "the {4,4} torus oracle, shared by several test files",
    "amalgam.AmalgamContext.in_pi_plus": "held in amalgam.py until ROADMAP item 1",
    "amalgam.AmalgamContext.in_gamma": "rebound by name in perfbench/tracing.py (item 1)",
    "amalgam.AmalgamContext.in_facet": "rebound by name in perfbench/tracing.py (item 1)",
    "amalgam.AmalgamWord.length": "held in amalgam.py until ROADMAP item 1",
}

ALLOWED_FIELDS = {
    "amalgam.Ball.radius": "held with the rest of amalgam.py until ROADMAP item 1",
}

ALLOWED_IMPORTS = {
    "amalgam.closure": "spanned by perfbench/tracing.py, held in amalgam.py until ROADMAP item 1",
}

# method name -> {defining class: a function of the package that reads the
# name on an instance (or the class) of it}
SHARED_METHODS = {
    "_raw": {
        "elements.Perm": "groups._Perms.make",
        "elements.MatModP": "groups._Matrices.make",
    },
    "code": {
        "groups._Perms": "ttgroup._generator_codes",
        "groups._Matrices": "ttgroup._generator_codes",
    },
    "is_identity": {
        "elements.Perm": "groups.element_order",
        "elements.MatModP": "groups.element_order",
    },
    "key": {
        "elements.Perm": "amalgam._nested_towers",
        "elements.MatModP": "amalgam._nested_towers",
        "amalgam.AmalgamWord": "amalgam.enumerate_ball",
    },
    "make": {
        "groups._Perms": "groups.FiniteGroup.element",
        "groups._Matrices": "groups.FiniteGroup.element",
    },
    "map": {
        "groups._Perms": "groups.closure",
        "groups._Matrices": "groups.closure",
    },
    "text": {
        "groups.FiniteGroup": "poset.FacePoset.rep_texts",
        "groups._Perms": "groups.FiniteGroup.text",
        "groups._Matrices": "groups.FiniteGroup.text",
        "report.RunReport": "cli.cmd_build",
    },
}


def _sources(paths):
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}


def _definitions(path, tree):
    """(qualified name, name, node, is_method) for each top-level function,
    and each method or property of a top-level class."""
    module = path.stem
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{module}.{node.name}", node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{module}.{node.name}.{item.name}", item.name, item, True


def _references(trees):
    """(kind, name) -> the (file, line) of each read of it: "name" for a name
    read, "attr" for an attribute read, and "module" with "<module>.<name>"
    for an attribute read of a name, as in ``kernels.close``."""
    refs = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.setdefault(("name", node.id), []).append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.setdefault(("attr", node.attr), []).append((path, node.lineno))
                owner = node.value
                owner = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
                if owner:
                    key = ("module", f"{owner}.{node.attr}")
                    refs.setdefault(key, []).append((path, node.lineno))
    return refs


def _public_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unreferenced():
    """(location, qualified name) of each definition that nothing outside it
    reads; dunders and the package's public names (``__init__.__all__``)
    are exempt."""
    package = _sources(sorted(PACKAGE.rglob("*.py")))
    bench = _sources(sorted((ROOT / "perfbench").glob("*.py")))
    refs = _references({**package, **bench})
    public = _public_names()
    out = []
    for path, tree in package.items():
        for qualified, name, node, is_method in _definitions(path, tree):
            if name.startswith("__") and name.endswith("__") or name in public:
                continue
            if is_method:
                wanted = [("attr", name)]
            else:
                wanted = [("name", name), ("module", f"{path.stem}.{name}")]
            own = range(node.lineno, node.end_lineno + 1)
            if not any(
                where != path or line not in own
                for key in wanted
                for where, line in refs.get(key, ())
            ):
                out.append((f"{path.relative_to(ROOT)}:{node.lineno}", qualified))
    return out


def _is_dataclass(cls):
    return any(
        isinstance(f, ast.Name) and f.id == "dataclass"
        for f in (d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list)
    )


def unread_fields():
    """(location, qualified name) of each dataclass field of the package that
    nothing reads as an attribute in the package, the benchmark scripts or
    the tests."""
    package = _sources(sorted(PACKAGE.rglob("*.py")))
    others = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    reads = {
        node.attr
        for tree in {**package, **_sources(others)}.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    out = []
    for path, tree in package.items():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    if item.target.id not in reads:
                        where = f"{path.relative_to(ROOT)}:{item.lineno}"
                        out.append((where, f"{path.stem}.{cls.name}.{item.target.id}"))
    return out


def unread_imports():
    """(location, module.name) of each name that a module of the package
    imports and never reads."""
    out = []
    for path, tree in _sources(sorted(PACKAGE.rglob("*.py"))).items():
        if path.name == "__init__.py":
            continue
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        out.append((f"{path.relative_to(ROOT)}:{node.lineno}", f"{path.stem}.{name}"))
    return out


def test_every_import_is_read_or_allowed():
    found = unread_imports()
    assert [(where, name) for where, name in found if name not in ALLOWED_IMPORTS] == []
    assert set(ALLOWED_IMPORTS) - {name for _, name in found} == set()


def test_every_dataclass_field_is_read_or_allowed():
    found = unread_fields()
    assert [(where, name) for where, name in found if name not in ALLOWED_FIELDS] == []
    assert set(ALLOWED_FIELDS) - {name for _, name in found} == set()


def test_every_function_and_method_is_used_or_allowed():
    found = unreferenced()
    assert [(where, name) for where, name in found if name not in ALLOWED] == []
    # an entry that something reads again leaves the list
    assert set(ALLOWED) - {name for _, name in found} == set()


def shared_methods():
    """Method name -> the set of classes ("module.Class") of the package
    that define it, for each non-dunder name defined on more than one."""
    defined = {}
    for path, tree in _sources(sorted(PACKAGE.rglob("*.py"))).items():
        for qualified, name, _, is_method in _definitions(path, tree):
            if is_method and not (name.startswith("__") and name.endswith("__")):
                defined.setdefault(name, set()).add(qualified.rsplit(".", 1)[0])
    return {name: owners for name, owners in defined.items() if len(owners) > 1}


def reads_attribute(function, attr):
    """Whether the package function or method ``function`` ("module.name" or
    "module.Class.name") reads an attribute named ``attr``."""
    path = PACKAGE / f"{function.split('.', 1)[0]}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (node,) = [n for q, _, n, _ in _definitions(path, tree) if q == function]
    return any(
        isinstance(x, ast.Attribute) and x.attr == attr and isinstance(x.ctx, ast.Load)
        for x in ast.walk(node)
    )


def test_every_shared_method_name_is_listed_with_its_readers():
    listed = {name: set(owners) for name, owners in SHARED_METHODS.items()}
    assert listed == shared_methods()
    for name, owners in SHARED_METHODS.items():
        for reader in owners.values():
            assert reads_attribute(reader, name), (name, reader)
