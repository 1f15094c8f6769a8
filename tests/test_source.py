import ast
import os
import re
import subprocess
import sys
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


def test_readme_python_blocks_run(tmp_path):
    """Every ```python block in README.md runs to completion, warnings as errors."""
    text = (PACKAGE.parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert blocks
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    for block in blocks:
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", block],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
        )
        assert proc.returncode == 0, f"README block failed:\n{block}\n{proc.stderr}"


def test_cli_import_leaves_out_scipy_stats():
    """The beta quantile comes from ``scipy.special``, so no run pays for importing ``scipy.stats``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tensorball.cli; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
