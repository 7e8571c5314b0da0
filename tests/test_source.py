"""Checks on the library's source text."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_source_line_exceeds_120_columns():
    # the line count of src/ is how a simplification is measured; that needs lines that cannot grow to hold more
    files = sorted(SRC.rglob("*.py"))
    assert files
    long = [f"{path.relative_to(SRC)}:{i} ({len(line)})" for path in files
            for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1) if len(line) > 120]
    assert not long, long


def test_every_import_is_used():
    # an import a refactor left behind is dead code; a package's __init__ and a line marked `# noqa: F401` re-export
    files = [path for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"]
    assert files
    unused = []
    for path in files:
        text = path.read_text(encoding="utf-8")
        tree, lines = ast.parse(text), text.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa: F401" not in lines[node.lineno - 1]:
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.relative_to(SRC)}:{alias.lineno} {name}")
    assert not unused, unused
