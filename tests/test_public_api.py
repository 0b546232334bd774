"""The package's public names: every entry of splatgrad.__all__ resolves
and appears once, so a name dropped from the imports but left in
__all__ fails here instead of at a caller's star import; and each is
named in README.md or imported from the package by a test or benchmark
file, so the surface holds only what users and tests call."""

import ast
import re
from collections import Counter
from pathlib import Path

import splatgrad


def test_every_public_name_resolves():
    missing = [name for name in splatgrad.__all__ if not hasattr(splatgrad, name)]
    assert missing == []


def test_every_public_name_appears_once():
    repeated = [name for name, n in Counter(splatgrad.__all__).items() if n > 1]
    assert repeated == []


def _top_level_imports(root):
    """Names the files under tests/ and perfbench/ take from the package
    top level, as `from splatgrad import X` or `splatgrad.X`."""
    used = set()
    for path in sorted(root.glob("tests/**/*.py")) + sorted(root.glob("perfbench/**/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "splatgrad" and not node.level:
                used.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "splatgrad"):
                used.add(node.attr)
    return used


def test_every_public_name_is_used():
    # The public surface holds what users and tests call: a name the
    # README does not document and no test or benchmark file imports from
    # the package belongs in its module only.
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    used = _top_level_imports(root)
    unused = [name for name in splatgrad.__all__
              if name not in used and not re.search(rf"\b{name}\b", readme)]
    assert unused == []
