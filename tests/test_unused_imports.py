"""No module under ``src/repro`` imports a name it never reads.

A stdlib ``ast`` check, since no linter ships with the toolchain.  A name
counts as read when the module loads it anywhere (a ``Name`` in load
context, which includes the root of an attribute chain), names it inside
a string annotation, or lists it in ``__all__``.  ``import a.b`` binds
``a``, so ``a`` must be read; ``from __future__`` imports are skipped.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _bound_names(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """``(name, line)`` of every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield (alias.asname or alias.name), node.lineno


def _annotations(tree: ast.Module) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                        args.vararg, args.kwarg):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree: ast.Module) -> Set[str]:
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read |= _read_names(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return read


def unused_imports(path: Path) -> List[str]:
    """``path:line name`` for each name *path* imports and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _read_names(tree)
    rel = path.relative_to(SRC.parent)
    return [f"{rel}:{line} {name}" for name, line in _bound_names(tree) if name not in read]


def test_no_unused_imports_under_src():
    found = [hit for path in sorted(SRC.rglob("*.py")) for hit in unused_imports(path)]
    assert not found, "imported and never read:\n" + "\n".join(found)


def test_the_check_sees_reads_in_string_annotations_and_all():
    """The scan's own contract: a name read only in a string annotation or
    listed in ``__all__`` is used; one read nowhere, or only in a string
    that is no annotation, is reported."""
    tree = ast.parse("from __future__ import annotations\n"
                     "from typing import Dict, List, Optional, Set\n"
                     "import os.path\n"
                     "__all__ = ['Dict']\n"
                     "x: 'Optional[int]' = None\n"
                     "def f(y: 'List') -> None:\n"
                     "    return 'Set'\n")
    read = _read_names(tree)
    assert [n for n, _ in _bound_names(tree) if n not in read] == ["Set", "os"]
