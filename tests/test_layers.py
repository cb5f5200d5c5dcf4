"""The package's modules import in one direction.

The modules follow the layers of the theory: a rack's operation table, its
invariants, the constructions, and the divisibility verdicts.  A module
imports only modules of earlier layers, and only at module level, so no
import is deferred into a function body to get round an import cycle.
"""
import ast
import importlib.util
from pathlib import Path

import quandlekit

PACKAGE = Path(quandlekit.__file__).resolve().parent

# A module may import only modules of earlier layers.  Modules of one layer
# do not import each other, and a subpackage's modules share its layer.  The
# package root is outside the order: it imports every layer to export it.
LAYERS = [
    ("errors",),
    ("_kernels",),
    ("perm",),
    ("racktable",),
    ("analysis",),
    ("constructors",),
    ("conjecture",),
    ("fixtures", "cli"),
]
RANK = {name: rank for rank, names in enumerate(LAYERS) for name in names}


def _sources() -> list:
    """(path relative to the package, parsed module) for every module."""
    return [(path.relative_to(PACKAGE), ast.parse(path.read_text(), str(path)))
            for path in sorted(PACKAGE.rglob("*.py"))]


def _layer(rel: Path) -> str:
    """The package module ``rel`` belongs to, or "" for the package root."""
    return "" if rel == Path("__init__.py") else rel.with_suffix("").parts[0]


def _imported_layers(node, rel: Path) -> list:
    """The package modules an import statement names, by layer."""
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    else:
        package = ".".join(("quandlekit",) + rel.parent.parts)
        base = importlib.util.resolve_name(
            "." * node.level + (node.module or ""), package)
        modules = ([base] if node.module
                   else [f"{base}.{alias.name}" for alias in node.names])
    return [m.split(".")[1] for m in modules if m.startswith("quandlekit.")]


def _nested_imports(tree) -> list:
    """Line numbers of the imports inside a function or class body."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
    return sorted({node.lineno
                   for scope in ast.walk(tree) if isinstance(scope, scopes)
                   for node in ast.walk(scope)
                   if isinstance(node, (ast.Import, ast.ImportFrom))})


def test_every_module_has_a_layer():
    layers = {_layer(rel) for rel, _ in _sources()} - {""}
    assert sorted(layers - set(RANK)) == []


def test_no_import_inside_a_function_or_class():
    found = {str(rel): lines for rel, tree in _sources()
             if (lines := _nested_imports(tree))}
    assert found == {}


def test_modules_import_only_earlier_layers():
    found = {}
    for rel, tree in _sources():
        layer = _layer(rel)
        if not layer:
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for target in _imported_layers(node, rel):
                if target != layer and RANK[target] >= RANK[layer]:
                    found.setdefault(str(rel), []).append(
                        (node.lineno, target))
    assert found == {}
