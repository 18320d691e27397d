import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import screenfit


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(screenfit.__all__)) == len(screenfit.__all__)
    for name in screenfit.__all__:
        assert not isinstance(getattr(screenfit, name), types.ModuleType), name


def test_all_lists_every_public_name_but_the_submodules():
    public = {
        name
        for name, value in vars(screenfit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(screenfit.__all__)


def test_import_does_not_load_scipy():
    # in a fresh interpreter: other test modules import scipy themselves.
    # SciPy is a test-only dependency; the package runs on numpy alone.
    src = os.path.dirname(os.path.dirname(screenfit.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = (
        "import sys, screenfit, screenfit.cli; "
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == ""


def _loaded(tree: ast.AST) -> set[str]:
    """Every name a module reads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _defined(tree: ast.Module) -> set[str]:
    """The module-level functions, classes and assigned names of a module."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return names


def _imported(tree: ast.Module) -> set[str]:
    """The names a module binds by import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


def test_src_holds_no_unused_name():
    """Each module-level name of a screenfit module is read in some module
    or exported, and each name a module imports is read in that module."""
    package = Path(screenfit.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    assert len(trees) > 1
    loaded = {stem: _loaded(tree) for stem, tree in trees.items()}
    read_anywhere = set().union(*loaded.values()) | set(screenfit.__all__)
    for stem, tree in trees.items():
        if stem == "__init__":
            continue
        assert sorted(_defined(tree) - read_anywhere) == [], stem
        assert sorted(_imported(tree) - loaded[stem] - {"annotations"}) == [], stem
