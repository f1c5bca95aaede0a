"""Every module-level import under src/xvamild is read in its own module,
and every public function and class there has a reader in the package.

An import that nothing reads still loads its module and misstates what the
module depends on; the tests' reference module ``paper_refs`` is held to
the same rule.  A public name that nothing in the package reads is API
that only tests call: it belongs with those tests.  The benchmark's tracer
wraps some functions by name, and a name it lists counts as read.  The
checks walk each module's syntax tree with the standard library's ``ast``,
so they need no linter.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "xvamild"
TRACER = ROOT / "perfbench" / "tracer.py"
MODULES = sorted(PACKAGE.glob("*.py")) + [ROOT / "tests" / "paper_refs.py"]


def unused_imports(source: str) -> list:
    """Names bound by the module's top-level imports that no expression reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_the_check_finds_an_unread_import():
    source = ("import os\nimport os.path as osp\nfrom dataclasses import dataclass, replace\n"
              "from typing import Optional\n\n@dataclass\nclass A:\n    x: Optional[int]\n\n"
              "def f():\n    replace = 1\n    return osp.join\n")
    assert unused_imports(source) == ["os", "replace"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_module_level_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def module_aliases(tree, modules) -> set:
    """Dotted names under which the tree's imports bind one of ``modules``,
    the package's module names: ``from . import m as a`` binds ``a``,
    ``import xvamild.m`` binds ``xvamild.m``."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "xvamild"):
            if node.module in (None, "xvamild"):
                aliases |= {alias.asname or alias.name for alias in node.names
                            if alias.name in modules}
        elif isinstance(node, ast.Import):
            for alias in node.names:
                package, _, module = alias.name.partition(".")
                if package == "xvamild" and module in modules:
                    aliases.add(alias.asname or alias.name)
    return aliases


def unread_public_names(modules: dict, exempt=()) -> list:
    """Public top-level functions and classes of ``modules`` (module name to
    source) that no module reads: by name, in a from-import, or as an
    attribute of an imported package module (``simulate.f``; an attribute
    of any other object does not count).  A definition does not read its
    own name; a body that calls it does, in its own module too, since the
    CLI's commands and verify's checks are reached only from tables in
    their own modules.  Names in ``exempt`` are skipped."""
    defined, read = set(), set()
    for source in modules.values():
        tree = ast.parse(source)
        defined |= {node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")}
        aliases = module_aliases(tree, modules)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and ast.unparse(node.value) in aliases:
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    return sorted(defined - read - set(exempt))


def traced_functions() -> set:
    """The function names in the tracer's ``FUNCTIONS`` table, read without
    importing the tracer."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["FUNCTIONS"])
    return {attr for _, attr, _ in ast.literal_eval(table)}


def test_the_check_finds_an_unread_public_name():
    modules = {
        "a": ("from .b import used\nfrom . import b\nimport xvamild.c\nimport xvamild.c as cc\n\n"
              "class Report:\n    pass\n\ndef orphan():\n    return Report()\n\n"
              "def traced():\n    pass\n\ndef _private():\n    pass\n\n"
              "y = xvamild.c.dotted, cc.aliased\n"),
        "b": "def used():\n    pass\n\ndef by_attribute():\n    pass\n\nx = a.by_attribute\n",
        "c": ("def dotted():\n    pass\n\ndef aliased():\n    pass\n\n"
              "def on_an_object():\n    pass\n\nz = obj.orphan, obj.on_an_object\n"),
    }
    # b reads a.by_attribute without importing a, so that read does not count
    assert unread_public_names(modules) == ["by_attribute", "on_an_object", "orphan", "traced"]
    assert unread_public_names(modules, exempt={"traced"}) == [
        "by_attribute", "on_an_object", "orphan"]
    modules["b"] = modules["b"].replace("x = a.", "from . import a\nx = a.")
    assert unread_public_names(modules) == ["on_an_object", "orphan", "traced"]


def test_every_public_name_has_a_reader_in_the_package():
    modules = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unread_public_names(modules, exempt=traced_functions()) == []
