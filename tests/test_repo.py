"""Repository hygiene: nothing that .gitignore excludes is tracked, no
private name is imported from one package module into another, every public
function and method of the package is used by the package, the three
membership tests of the oracle stay independent code paths, the exact linear
algebra has one elimination loop, one method builds every membership span,
a presentation's generators are split into blocks in one place, and every
presentation is a chart ideal built in one place."""

import ast
import re
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_no_ignored_files_are_tracked():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    listed = subprocess.run(
        ["git", "ls-files", "-ci", "--exclude-standard"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert listed == ""


def test_no_private_names_imported_across_modules():
    crossing = []
    for path in sorted((ROOT / "src" / "hilbworst").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                crossing += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert crossing == []


def _referenced_names(node):
    """Names that a call, attribute access or import under ``node`` refers to."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names |= {sub.name, sub.asname}
    return names


# Public methods that the package does not call, each kept for a reader
# outside it.
UNCALLED_METHODS = {
    # bench/tracer.py wraps it by name, so removing it changes the benchmark
    "Poly.evaluate",
    # the read-only view through which the linalg tests check the echelon form
    "EchelonSpan.pivots",
}


def test_every_public_function_is_used_by_the_package():
    # a function or method that only tests call belongs in the tests; a
    # re-export in __init__.py counts as a use only when README.md names
    # the function.  Each module-level statement is one unit, and so is
    # each statement of a class body; a name counts as used when a unit
    # other than its own definition refers to it.
    quoted = re.findall(r"`([^`\n]*)`", (ROOT / "README.md").read_text())
    documented = set(re.findall(r"\w+", " ".join(quoted)))
    units, refs = [], []
    for path in sorted((ROOT / "src" / "hilbworst").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            for unit in members:
                names = _referenced_names(unit)
                owner = f"{node.name}." if unit is not node else ""
                units.append((owner, unit))
                refs.append(names & documented if path.name == "__init__.py" else names)
    unused = [
        owner + unit.name
        for owner, unit in units
        if isinstance(unit, ast.FunctionDef)
        and not unit.name.startswith("_")
        and owner + unit.name not in UNCALLED_METHODS
        and not any(
            unit.name in r for (_, other), r in zip(units, refs) if other is not unit
        )
    ]
    assert unused == []


def _module(name):
    return ast.parse((ROOT / "src" / "hilbworst" / f"{name}.py").read_text())


def _imported_from(tree, source):
    """Names a module imports with ``from .source import ...``."""
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        and node.level == 1
        and node.module == source
        for alias in node.names
    }


def _loaded_names(tree, function):
    """Names loaded by a module-level function and by every module-level
    function of the same module that it reaches by name."""
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    loaded, todo, seen = set(), [function], set()
    while todo:
        name = todo.pop()
        seen.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
                if node.id in defs and node.id not in seen:
                    todo.append(node.id)
    return loaded


def test_oracle_tests_stay_independent():
    # The chart quadrics are associator coordinates, so a helper shared by
    # two of the three tests would make their agreement hold by construction.
    based, ideal, oracle = _module("based"), _module("ideal"), _module("oracle")
    algebra = _imported_from(based, "ideal") | _imported_from(based, "poly")
    assert {"membership", "Poly"} <= algebra
    assert _loaded_names(based, "is_associative") & algebra == set()
    assert "is_associative" in _imported_from(oracle, "based")
    symbolic = _loaded_names(oracle, "symbolic_member")
    assert "vanishes_at" in symbolic
    assert symbolic & _imported_from(oracle, "based") == set()
    assert symbolic & _imported_from(oracle, "lifting") == set()
    assert _loaded_names(ideal, "vanishes_at") & _imported_from(ideal, "based") == set()
    tests = {"is_associative", "vanishes_at", "symbolic_member"}
    fiber = _loaded_names(oracle, "fiber_check")
    assert "pivot_keys" in fiber
    assert fiber & tests == set()
    # the family at the point is the input the fiber and the table share:
    # the trial evaluates it and passes it to both
    assert "family_at" in _loaded_names(oracle, "agreement_trial")
    assert _imported_from(based, "lifting") == set()
    family = _loaded_names(_module("lifting"), "family_at")
    assert "universal_family" in family
    assert family & tests == set()
    assert _loaded_names(_module("linalg"), "pivot_keys") & tests == set()


def test_linalg_has_one_elimination_loop():
    # EchelonSpan.insert, EchelonSpan.reduce and pivot_keys share one loop;
    # a span option could fork it again
    tree = _module("linalg")
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    looping = [
        f.name for f in functions if any(isinstance(n, ast.While) for n in ast.walk(f))
    ]
    assert len(looping) == 1
    (init,) = [
        f
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name == "EchelonSpan"
        for f in cls.body
        if isinstance(f, ast.FunctionDef) and f.name == "__init__"
    ]
    args = init.args
    assert [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs] == ["self"]
    assert args.vararg is None and args.kwarg is None


def _callers(name):
    """Where the package calls ``name``, by name or as an attribute: the
    module.class.method or module.function around each call, else the
    module and line."""
    callers = []
    for path in sorted((ROOT / "src" / "hilbworst").glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [
            (f"{cls.name}.{fn.name}", fn)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef)
        ] + [(fn.name, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
        scopes = {
            id(call): f"{path.stem}.{scope}"
            for scope, fn in functions
            for call in ast.walk(fn)
        }
        callers += [
            scopes.get(id(node), f"{path.stem}:{node.lineno}")
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, a, None) for a in ("id", "attr"))
        ]
    return sorted(callers)


def test_one_span_builder():
    # IdealPresentation.span builds every GradedSpan of the package, the
    # eager spans and the degree-3 span built on demand, and both degree-3
    # spans take their rows from one product routine, so they cannot drift
    assert _callers("GradedSpan") == ["ideal.IdealPresentation.span"]


def test_one_generator_encoder():
    # a presentation decides each generator's one block once, when it is
    # built, and a span takes rows only as the presentation split them,
    # splitting nothing but its queries, so no second compiled form of the
    # generators can drift from the first
    assert _callers("_encode") == [
        "ideal.GradedSpan.reduce",
        "ideal.IdealPresentation.__post_init__",
    ]


def test_presentations_hold_chart_ideals_only():
    # an IdealPresentation is a chart ideal, built in one place; the based
    # route keeps its own generators as plain pairs and its own span
    assert _callers("IdealPresentation") == ["ideal.deduplicated"]
    sources = (ROOT / "src" / "hilbworst").glob("*.py")
    assert not [path.name for path in sources if "based_algebra" in path.read_text()]
    assert _imported_from(_module("based"), "ideal") & {
        "IdealPresentation",
        "deduplicated",
    } == set()
