"""Every module-level import under src/xvamild is read in its own module.

An import that nothing reads still loads its module and misstates what the
module depends on.  The check walks each module's syntax tree with the
standard library's ``ast``, so it needs no linter.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "xvamild"
MODULES = sorted(PACKAGE.glob("*.py"))


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
