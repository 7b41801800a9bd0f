"""Source-lines-of-code measurement for the Figure 4/5 proxies."""

from __future__ import annotations

import ast
import inspect
import textwrap
from typing import Iterable, Set


def _docstring_lines(tree: ast.AST) -> Set[int]:
    """Line numbers occupied by docstrings."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = getattr(node, "body", [])
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                expr = body[0]
                end = getattr(expr, "end_lineno", expr.lineno)
                lines.update(range(expr.lineno, end + 1))
    return lines


def count_sloc(source: str) -> int:
    """Non-blank, non-comment, non-docstring source lines."""
    source = textwrap.dedent(source)
    try:
        tree = ast.parse(source)
    except SyntaxError:
        tree = None
    doc_lines = _docstring_lines(tree) if tree is not None else set()
    count = 0
    for number, line in enumerate(source.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if number in doc_lines:
            continue
        count += 1
    return count


def class_sloc(cls: type) -> int:
    """SLOC of one class definition."""
    return count_sloc(inspect.getsource(cls))


def classes_sloc(classes: Iterable[type]) -> int:
    """Summed SLOC over several classes."""
    return sum(class_sloc(cls) for cls in classes)
