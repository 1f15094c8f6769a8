import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tensorball"


def test_package_has_no_assert_statements():
    """Invariant checks must be real code: ``python -O`` strips ``assert``."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements in the package: {', '.join(found)}"
