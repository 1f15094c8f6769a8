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


def test_scipy_loaded_only_where_an_interval_is_computed(tmp_path):
    """Start-up pays for no scipy module: ``decompose`` and ``bounds`` never load one, and runs with
    Clopper-Pearson intervals load ``scipy.special`` alone, for its beta quantile."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    program = (
        "import sys, tensorball.cli as cli\n"
        "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "print(code, *sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))"
    )
    runs = {
        "import": (),
        "decompose": ("decompose", "--out", str(tmp_path)),
        "bounds": ("bounds", "--out", str(tmp_path)),
        "smallball": ("smallball", "--subspace", "line", "--trials", "1e4", "--out", str(tmp_path)),
    }
    loaded = {}
    for name, argv in runs.items():
        proc = subprocess.run(
            [sys.executable, "-c", program, *argv], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        code, *modules = proc.stdout.splitlines()[-1].split()
        assert code == "0", proc.stdout
        loaded[name] = set(modules)
    assert loaded["import"] == loaded["decompose"] == loaded["bounds"] == set()
    assert "scipy.special" in loaded["smallball"]
    assert not any(m.startswith(("scipy.optimize", "scipy.stats")) for m in loaded["smallball"])
