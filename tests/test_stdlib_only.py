"""The runtime and the tools import nothing outside the standard library,
and the runtime not the slow-to-import `dataclasses`; its lower layers
import no engine; each test, source and tool module uses every name it
imports; and each attribute the source stores is read."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import matedrip

SOURCES = sorted(Path(matedrip.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
TOOLS = sorted((Path(__file__).resolve().parent.parent / "tools").glob("*.py"))


def test_runtime_imports_only_the_standard_library():
    # the tools say they are stdlib only, so they are held to it too
    assert SOURCES and TOOLS
    for path in SOURCES + TOOLS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, f"{path.name}: {name}"
                assert path in TOOLS or name.split(".")[0] != "dataclasses", f"{path.name}: {name}"


def test_import_loads_no_code_generation():
    # importing the package is most of a short run's time: it writes and
    # evaluates no code, so neither `dataclasses` nor `inspect` is loaded
    for path in SOURCES:
        called = {node.func.id for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
        assert not called & {"exec", "eval", "compile"}, path.name
    code = "import matedrip, sys; print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SOURCES[0].parent.parent)}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True).stdout.split()
    assert loaded == []


def test_lower_layers_import_no_engine():
    # the multiset algebra, the rules and the register machines sit below
    # the engine core and the two system modules that run on it
    engine = [["matedrip", name] for name in ("engine", "tts", "tp")]
    for name in ("multiset", "rules", "regmach"):
        path = Path(matedrip.__file__).parent / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                package = node.module or ""
                if node.level:
                    package = f"matedrip.{package}".rstrip(".")
                # `from . import tts` names the module among the imported names
                modules = [package, *(f"{package}.{alias.name}" for alias in node.names)]
            else:
                continue
            for module in modules:
                assert module.split(".")[:2] not in engine, f"{name}.py imports {module}"


def _unused_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_test_modules_use_every_name_they_import():
    assert TESTS
    for path in TESTS:
        unused = _unused_imports(path)
        assert not unused, f"{path.name} imports {sorted(unused)} unused"


def test_source_modules_use_every_name_they_import():
    # __init__.py imports its names to re-export them, and tts and tp import
    # apply_mate only as the attribute bench/tracer.py wraps, which no engine
    # calls; the tools are held to it too
    hooks = {"tts.py": {"apply_mate"}, "tp.py": {"apply_mate"}}
    for path in SOURCES + TOOLS:
        if path.name != "__init__.py":
            unused = _unused_imports(path) - hooks.get(path.name, set())
            assert not unused, f"{path.name} imports {sorted(unused)} unused"


def test_source_modules_read_every_attribute_they_store():
    # an attribute stored and never read is dead weight; the dunder methods
    # that `value_class` installs on a class are read by Python itself
    stored, loaded = {}, set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.attr, path.name)
                else:
                    loaded.add(node.attr)
    unread = {name: module for name, module in stored.items()
              if name not in loaded and not name.startswith("__")}
    assert not unread, f"stored and never read: {unread}"
