"""The README's Python quick tour runs, and every value it shows in a
comment is the repr of what the expression before it returns."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block() -> str:
    text = README.read_text("utf-8")
    start = text.index("```python\n") + len("```python\n")
    return text[start : text.index("```", start)]


def _shown_value(lines: list[str], stmt: ast.stmt) -> str | None:
    """The comment after an expression statement, on its last line or alone
    on the next one, without the explanation after a dash."""
    last = lines[stmt.end_lineno - 1]
    comment = last[stmt.end_col_offset :].strip()
    if not comment and stmt.end_lineno < len(lines):
        comment = lines[stmt.end_lineno].strip()
    if not comment.startswith("#"):
        return None
    return comment[1:].split(" — ")[0].strip()


def test_readme_quick_tour_shows_what_it_computes():
    source = _python_block()
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr):
            shown = _shown_value(lines, stmt)
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            assert shown is not None, f"line {stmt.lineno} shows no value"
            assert repr(value) == shown, f"line {stmt.lineno}"
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked == 3
