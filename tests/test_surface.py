"""The package surface: what ``import hmmbandits`` binds, no dead imports, and
no public or private name that nothing in the package refers to.

Callers reach every name through the submodule that defines it
(``hmmbandits.runner.run_experiment``), so the package object binds each
submodule on first access; nothing else is re-exported.
"""

import ast
import os
import subprocess
import sys
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


# what a fresh ``import hmmbandits`` and ``load_config`` must leave unloaded
FRESH_CHILD = """\
import sys
import hmmbandits
from hmmbandits.config import load_config
config = load_config("configs/smoke.ini")
unwanted = [f"hmmbandits.{name}" for name in
            ("runner", "evaluation", "policies", "beliefs", "spectral", "cli")]
unwanted += ["multiprocessing", "concurrent.futures.process"]
print(sorted(name for name in unwanted if name in sys.modules))
run_experiment = hmmbandits.runner.run_experiment
print(hasattr(hmmbandits, "nope"))
from dataclasses import replace
config = replace(config, run=replace(config.run, out=sys.argv[1], workers=1))
print(run_experiment(config, echo=lambda *args: None), "multiprocessing" in sys.modules)
"""


def test_fresh_import_loads_only_what_config_needs(tmp_path):
    # a fresh interpreter: this process has long imported every submodule
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", FRESH_CHILD, str(tmp_path / "out")], cwd=root,
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]", "False", "0 False"]


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


def _private_definitions(tree: ast.Module):
    """``(name, node)`` of each private top-level function, class and constant
    (``_name``, not ``__name__``); class bodies, dataclass fields among them,
    are not scanned."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _names(nodes) -> set:
    """Names the ``nodes`` use, as ``name`` or ``obj.name``."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in nodes
            if isinstance(node, (ast.Name, ast.Attribute))}


def _unreferenced(definitions) -> list:
    """``module.qualname`` of each definition that ``definitions(tree)`` yields
    and that nothing in the package refers to outside the definition itself."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE_DIR.glob("*.py"))}
    dead = []
    for module, tree in trees.items():
        elsewhere = set().union(*(_names(ast.walk(other)) for name, other in trees.items()
                                  if name != module))
        for qualname, node in definitions(tree):
            inside = {id(sub) for sub in ast.walk(node)}
            here = _names(sub for sub in ast.walk(tree) if id(sub) not in inside)
            if qualname.rsplit(".", 1)[-1] not in here | elsewhere:
                dead.append(f"{module}.{qualname}")
    return dead


def test_every_public_name_has_a_caller_in_the_package():
    # what only tests call belongs in tests/; cli.main is the entry point
    assert [name for name in _unreferenced(_public_definitions) if name != "cli.main"] == []


def test_every_private_name_has_a_reference_in_the_package():
    # a private name is the package's own: with no reference it is dead
    assert _unreferenced(_private_definitions) == []


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
