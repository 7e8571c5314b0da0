"""Checks on the library's source text."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_no_source_line_exceeds_120_columns():
    # the line count of src/ is how a simplification is measured; that needs lines that cannot grow to hold more
    files = sorted(SRC.rglob("*.py"))
    assert files
    long = [f"{path.relative_to(SRC)}:{i} ({len(line)})" for path in files
            for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1) if len(line) > 120]
    assert not long, long
