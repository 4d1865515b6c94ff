"""Guard against public code that nothing in the system calls.

Every module-level public function and class in ``src/repro`` must be
referenced from ``src/``, ``examples/``, ``perfbench/``, ``benchmarks/``
or ``tools/``; a name only the tests use is dead weight.  A reference is
an identifier or attribute, or a word inside a string (docstring
cross-references, quoted annotations, error messages).  Imports and
``__all__`` entries do not count: they re-export a name without calling
it.  A name that is deliberately kept without a caller goes in
``ALLOWED`` with its reason.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLERS = ("src", "examples", "perfbench", "benchmarks", "tools")
WORD = re.compile(r"[A-Za-z_]\w*")

ALLOWED = {
    "from_db10": "the three-line inverse of db10, kept beside it in units",
}


def public_definitions() -> set[str]:
    names = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                names.add(node.name)
    return names


def _is_all(statement: ast.stmt) -> bool:
    """Is ``statement`` a module-level ``__all__`` (re)definition?"""
    targets = getattr(statement, "targets", None) or [
        getattr(statement, "target", None)]
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def referenced_names() -> set[str]:
    names = set()
    for folder in CALLERS:
        for path in (ROOT / folder).rglob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for statement in tree.body:
                if _is_all(statement):
                    continue
                for node in ast.walk(statement):
                    if isinstance(node, ast.Name):
                        names.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        names.add(node.attr)
                    elif (isinstance(node, ast.Constant)
                          and isinstance(node.value, str)):
                        names.update(WORD.findall(node.value))
    return names


def test_every_public_name_has_a_caller():
    uncalled = public_definitions() - referenced_names()
    assert sorted(uncalled) == sorted(ALLOWED)
