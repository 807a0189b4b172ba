"""The package surface: what ``import hmmbandits`` binds, no dead imports, and
no public name that nothing in the package refers to.

Callers reach every name through the submodule that defines it
(``hmmbandits.runner.run_experiment``), so the package object must bind each
submodule; nothing else is re-exported.
"""

import ast
from pathlib import Path

import hmmbandits

SUBMODULES = ("beliefs", "config", "environment", "errors", "evaluation", "hmm",
              "policies", "runner", "spectral")
PACKAGE_DIR = Path(hmmbandits.__file__).parent


def test_import_binds_every_submodule():
    for name in SUBMODULES:
        module = getattr(hmmbandits, name, None)
        assert module is not None, name
        assert module.__name__ == f"hmmbandits.{name}"


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    # __init__ binds the submodules for callers; the test above covers it
    paths = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "__init__.py")
    assert paths
    unused = {p.name: _unused_imports(p.read_text(encoding="utf-8")) for p in paths}
    assert not {name: found for name, found in unused.items() if found}


def _raised_names(source: str) -> set:
    """Names of the exceptions a module raises: ``raise E``, ``raise E(...)``
    and ``raise errors.E(...)``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, (ast.Name, ast.Attribute)):
                names.add(exc.id if isinstance(exc, ast.Name) else exc.attr)
    return names


def test_every_error_class_is_raised():
    # a class of errors.py that nothing raises, nor any subclass of it, is dead
    raised = set().union(*(_raised_names(p.read_text(encoding="utf-8"))
                           for p in PACKAGE_DIR.glob("*.py")))
    classes = {name: cls for name, cls in vars(hmmbandits.errors).items()
               if isinstance(cls, type) and cls.__module__ == "hmmbandits.errors"}
    assert classes
    dead = sorted(name for name, cls in classes.items()
                  if not any(issubclass(classes[r], cls) for r in raised & classes.keys()))
    assert not dead


def _public_definitions(tree: ast.Module):
    """``(qualified name, node)`` of each public top-level function and class
    and each public method of such a class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def _names(nodes) -> set:
    """Names the ``nodes`` use, as ``name`` or ``obj.name``."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in nodes
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_public_name_has_a_caller_in_the_package():
    # what only tests call belongs in tests/; cli.main is the entry point
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE_DIR.glob("*.py"))}
    dead = []
    for module, tree in trees.items():
        elsewhere = set().union(*(_names(ast.walk(other)) for name, other in trees.items()
                                  if name != module))
        for qualname, node in _public_definitions(tree):
            inside = {id(sub) for sub in ast.walk(node)}
            here = _names(sub for sub in ast.walk(tree) if id(sub) not in inside)
            name = qualname.rsplit(".", 1)[-1]
            if f"{module}.{qualname}" != "cli.main" and name not in here | elsewhere:
                dead.append(f"{module}.{qualname}")
    assert not dead


def test_no_settings_field_has_a_second_default():
    # the key table holds each key's one default; the settings classes take it
    from dataclasses import MISSING, fields

    from hmmbandits.config import KEYS, REQUIRED, PolicySettings, RunSettings

    for cls, section in ((PolicySettings, "policy"), (RunSettings, "run")):
        specs = {key.attr: key for key in KEYS if key.section == section}
        assert [f.name for f in fields(cls)] == list(specs)
        for f in fields(cls):
            expected = MISSING if specs[f.name].default is REQUIRED else specs[f.name].default
            assert f.default == expected, f.name
