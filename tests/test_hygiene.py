"""Source hygiene: every name a package module imports is used in it,
every module-level private name is used somewhere in the package, and the
modules import one another only down one layer order.

The package __init__ is exempt from the import check because its imports
are re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "delta_lens"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
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
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_detector_flags_an_unused_import():
    source = ("import math\nfrom dataclasses import dataclass, field\n\n"
              "@dataclass\nclass A:\n    x: int\n")
    assert _unused_imports(source) == ["field (line 2)", "math (line 1)"]


def _top_level_names(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level names starting with one underscore that no statement of
    any module reads, the statement that defines the name excepted."""
    defined, used = {}, set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = _top_level_names(stmt)
            for name in own:
                if name.startswith("_") and not name.startswith("__"):
                    defined[f"{module}.{name} (line {stmt.lineno})"] = name
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read = node.id
                elif isinstance(node, ast.Attribute):
                    read = node.attr
                else:
                    continue
                if read not in own:
                    used.add(read)
    return sorted(label for label, name in defined.items() if name not in used)


def test_no_dead_private_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert _dead_private_names(sources) == []


def test_detector_flags_a_dead_private_name():
    sources = {
        "a": ("_USED = 1\n_DEAD = 2\n_dead_too: int = 3\n\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n"),
        "b": "from a import _USED\n\nprint(_USED)\n",
    }
    assert _dead_private_names(sources) == [
        "a._DEAD (line 2)", "a._dead_too (line 3)", "a._recursive (line 5)"]


# lowest layer first: a module may import only from modules before it
LAYERS = ("errors", "evalcore", "quotient", "critical", "contours", "census",
          "render", "acceptance", "cli")


def _upward_imports(sources: dict[str, str]) -> list[str]:
    """Intra-package imports of each module from its own or a higher layer."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                target = node.module.split(".")[0]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("delta_lens."):
                target = node.module.split(".")[1]
            else:
                continue
            if LAYERS.index(target) >= LAYERS.index(module):
                found.append(f"{module} -> {target} (line {node.lineno})")
    return found


def test_layers_cover_every_module():
    assert sorted(LAYERS) == [p.stem for p in MODULES]


def test_imports_go_down_the_layers():
    assert _upward_imports({p.stem: p.read_text(encoding="utf-8") for p in MODULES}) == []


def test_detector_flags_an_upward_import():
    sources = {"quotient": "from .critical import _sign_change_roots\nfrom .errors import DomainError\n",
               "render": "from delta_lens.quotient import delta5\n",
               "census": "def f():\n    from delta_lens.render import write_ppm\n"}
    assert _upward_imports(sources) == ["quotient -> critical (line 1)", "census -> render (line 2)"]
