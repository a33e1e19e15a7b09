"""Every name a module of the package imports is used in that module."""
import ast
from pathlib import Path

import pytest

import newsdiv

PACKAGE = Path(newsdiv.__file__).resolve().parent
# Imported names kept unused on purpose, each with its reason.
KEPT = {
    ("metrics.py", "smooth_pair"): "perfbench/child.py wraps metrics.smooth_pair (ROADMAP item 1)",
}


def unused_imports(source: str) -> list[str]:
    """The names bound by the imports of ``source`` that nothing in it reads."""
    tree = ast.parse(source)
    imported = {
        (alias.asname or alias.name).partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


# The package's __init__ imports to re-export: its imports are its API.
@pytest.mark.parametrize("name", sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py"))
def test_module_uses_every_name_it_imports(name):
    unused = [item for item in unused_imports((PACKAGE / name).read_text(encoding="utf-8")) if (name, item) not in KEPT]
    assert unused == [], f"{name} imports names it never uses: {', '.join(unused)}"


def test_the_check_sees_an_unused_name():
    assert unused_imports("import os\nfrom typing import List, Sequence as Seq\nx: Seq = os.sep\n") == ["List"]


def test_every_kept_name_is_still_imported_unused():
    for name, item in KEPT:
        assert item in unused_imports((PACKAGE / name).read_text(encoding="utf-8")), (name, item)
