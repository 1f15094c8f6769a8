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
    Clopper-Pearson intervals load ``scipy.special`` alone, for its beta quantile.  ``smin``'s
    screen and eigenvalues stay in numpy: ``scipy.linalg`` alone adds about 6.5 MB of RSS."""
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
        "smin": ("smin", "--trials", "1e3", "--out", str(tmp_path)),
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
    assert "scipy.special" in loaded["smin"]
    assert not any(m.startswith(("scipy.linalg", "scipy.optimize", "scipy.stats")) for m in loaded["smin"])


def test_cli_start_up_leaves_out_the_gates():
    """Only ``selftest`` imports ``tensorball.gates``, so building the parser never pays for it."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))}
    program = "import sys, tensorball.cli as cli\ncli.build_parser()\nprint('tensorball.gates' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", program], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def _owners(name: str) -> set[str]:
    """``file:function`` of every place in the package that names ``name``, as a name, an attribute or an import."""
    owners = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
            if name not in names:
                continue
            owners.add(f"{path.name}:{_function_of(node, parent)}")
    return owners


def _function_of(node, parent) -> str:
    """Name of the innermost function around ``node``, or ``<module>``; ``parent`` maps each node to its parent."""
    while node is not None and not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        node = parent.get(node)
    return node.name if node else "<module>"


def test_single_precision_lives_in_one_function():
    """Float32 arithmetic happens in the two screens, whose bands account for it: no other function
    names a single- or half-precision type, as a name, an attribute or a dtype string."""
    # ``single`` and ``half`` only as attributes (``np.single``): as plain names they are local variables
    types = ("float32", "float16", "complex64")
    attributes = (*types, "single", "half", "csingle")
    strings = (*attributes, "f4", "<f4", "f2", "<f2", "c8", "<c8")
    owners = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if (
                (isinstance(node, ast.Name) and node.id in types)
                or (isinstance(node, ast.Attribute) and node.attr in attributes)
                or (isinstance(node, ast.Constant) and node.value in strings)
                or (isinstance(node, ast.ImportFrom) and any(alias.name in attributes for alias in node.names))
            ):
                owners.add(f"{path.name}:{_function_of(node, parent)}")
    assert owners == {"montecarlo.py:_screen", "khatri_rao.py:_screen"}


def test_betaincinv_lives_in_one_function():
    """Every exact binomial interval comes from one beta-quantile routine."""
    assert _owners("betaincinv") == {"montecarlo.py:_beta_bounds"}


def test_float_range_fallbacks_stay_gone():
    """The bounds that take sizes refuse n^l or m above 2^1023 through one helper, so no size or ratio of
    sizes is past the float range: ``OverflowError`` is caught for a power of a float alone (a support
    radius, a prefactor, an s_min scale) and by the CLI's refusal, and only the bounds and the bounds
    runner name the helper."""
    assert _owners("OverflowError") == {
        "exact_laws.py:product_uniform_smallball",
        "exact_laws.py:bound_nondeterministic",
        "exact_laws.py:_smin_scale",
        "cli.py:_float_range",
    }
    assert {owner for owner in _owners("_float_sizes") if not owner.startswith("exact_laws.py:")} == {
        "cli.py:<module>",
        "cli.py:_run_bounds",
    }


def _raisers(matches) -> set[str]:
    """``file:function`` of every ``raise`` in the package whose exception, as source text, ``matches``."""
    owners = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None and matches(ast.unparse(node.exc)):
                owners.add(f"{path.name}:{_function_of(node, parent)}")
    return owners


def test_eps_grid_refusal_lives_in_one_function():
    """Every estimator checks its epsilon grid through ``montecarlo._eps_grid``."""
    assert _raisers(lambda exc: "eps_grid must be strictly decreasing" in exc) == {"montecarlo.py:_eps_grid"}


def test_no_function_defines_a_kernel_factory():
    """An estimator builds its per-batch kernel in its own body: no function defines a ``kernel_for``."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "kernel_for"
    ]
    assert found == []


def test_smin_refusals_live_in_one_function():
    """The bound and the experiment take the s_min scale and its two refusals from one function, the only
    one that raises ``HypothesisViolationError`` or refuses ``rho must be > 0``."""
    assert _raisers(lambda exc: "HypothesisViolationError" in exc) == {"exact_laws.py:_smin_scale"}
    assert _raisers(lambda exc: "rho must be > 0" in exc) == {"exact_laws.py:_smin_scale"}


def test_the_size_rule_lives_in_one_function():
    """One function decides what a size is and hands it back as a Python int: only
    ``subspaces._check_sizes`` names ``np.integer`` (or an ``_is_int`` helper), and no module
    re-stores a size of its own with ``int(getattr(self, ...))`` or ``int(self.<size>)``."""
    assert _owners("integer") | _owners("_is_int") == {"subspaces.py:_check_sizes"}
    recasts = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "int" and node.args:
                arg = ast.unparse(node.args[0])
                if arg.startswith(("getattr(self,", "self.")):
                    recasts.append(f"{path.name}:{node.lineno}: int({arg})")
    assert recasts == []


def test_lstsq_lives_in_one_function():
    """Least squares by SVD is gate 1's second route to ``pinv_hs_norm_sq``'s number, so only
    ``projection_distance_sum`` calls it; on the Gram identity the gate would check that identity against
    itself.  ``simultaneous_diagonalize`` solves the normal equations on the Hadamard Gram instead."""
    assert _owners("lstsq") == {"khatri_rao.py:projection_distance_sum"}


def test_array_keeping_and_block_size_live_in_tensor_core():
    """One keeper of reused arrays and one block budget: only ``tensor_core`` subclasses
    ``threading.local`` or names ``_BLOCK_BYTES``, and it has one such subclass."""
    keepers, budget = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and any(
                ast.unparse(base) in ("threading.local", "local") for base in node.bases
            ):
                keepers.append(f"{path.name}:{node.name}")
            names = {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)}
            if isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
            if "_BLOCK_BYTES" in names:
                budget.add(path.name)
    assert keepers == ["tensor_core.py:_Scratch"]
    assert budget == {"tensor_core.py"}


def test_only_distributions_tests_a_law_kind():
    """Per-law facts have one owner: outside ``distributions`` (and ``gates``, which builds its
    gate laws by kind) no comparison and no ``startswith``/``endswith`` call has a ``.kind``
    attribute, a ``KINDS`` string or a prefix of one as an operand."""
    from tensorball.distributions import KINDS

    def is_kind_operand(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(is_kind_operand(elt) for elt in node.elts)
        if isinstance(node, ast.Attribute) and node.attr == "kind":
            return True
        return (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and any(kind.startswith(node.value) for kind in KINDS)
        )

    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name not in ("distributions.py", "gates.py")]
    assert {path.name for path in sources} >= {"cli.py", "montecarlo.py"}
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops
            ):
                operands = [node.left, *node.comparators]
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("startswith", "endswith"):
                operands = [node.func.value, *node.args]
            else:
                continue
            if any(is_kind_operand(operand) for operand in operands):
                found.append(f"{path.name}:{node.lineno}")
    assert found == [], f"law kinds tested outside distributions: {', '.join(found)}"


def test_only_subspaces_tests_a_subspace_spelling():
    """The spelling table has one owner: outside ``subspaces`` no comparison and no
    ``startswith``/``endswith`` call has ``"haar"``, ``"line"`` or ``"file:"`` as an operand."""
    spellings = ("haar", "line", "file:")

    def is_spelling_operand(node):
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(is_spelling_operand(elt) for elt in node.elts)
        return isinstance(node, ast.Constant) and node.value in spellings

    sources = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "subspaces.py"]
    assert {path.name for path in sources} >= {"cli.py", "montecarlo.py"}
    found = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Compare) and any(
                isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops
            ):
                operands = [node.left, *node.comparators]
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in ("startswith", "endswith"):
                operands = [node.func.value, *node.args]
            else:
                continue
            if any(is_spelling_operand(operand) for operand in operands):
                found.append(f"{path.name}:{node.lineno}")
    assert found == [], f"subspace spellings tested outside subspaces: {', '.join(found)}"


def _module_trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def test_seed_sequences_live_in_montecarlo():
    """Every random stream key is built in one module: only ``montecarlo`` names ``SeedSequence``."""
    owners = set()
    for name, tree in _module_trees().items():
        for node in ast.walk(tree):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
            if "SeedSequence" in names:
                owners.add(name)
    assert owners == {"montecarlo.py"}


def test_only_gates_imports_from_cli_and_only_main():
    """The front end sits on top: no library module reads a ``cli`` name, and ``gates`` runs it through ``main``."""
    found = set()
    for name, tree in _module_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("cli", "tensorball.cli"):
                found |= {(name, alias.name) for alias in node.names}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                found |= {(name, alias.name) for alias in node.names if alias.name in ("cli", "tensorball.cli")}
    assert found == {("gates.py", "main")}


def test_front_end_has_one_projection_runner_and_one_exact_column():
    """``cli`` and ``gates`` reach the exact law and the one-row basis only through
    ``exact_smallball`` and ``coordinate_line_subspace``: neither names
    ``product_uniform_smallball``, ``estimate_direction_smallball`` or ``diagonal_direction``."""
    banned = {"product_uniform_smallball", "estimate_direction_smallball", "diagonal_direction"}
    trees = _module_trees()
    found = set()
    for name in ("cli.py", "gates.py"):
        for node in ast.walk(trees[name]):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
            found |= {(name, banned_name) for banned_name in names & banned}
    assert found == set(), f"second exact-column or projection paths: {sorted(found)}"


def test_basis_magic_lives_in_subspaces():
    """The basis-file layout has one owner: only ``subspaces`` spells its magic ``TBSB``."""
    owners = {
        name
        for name, tree in _module_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, (str, bytes))
        and (b"TBSB" if isinstance(node.value, bytes) else "TBSB") in node.value
    }
    assert owners == {"subspaces.py"}


def test_tensor_core_imports_no_file_modules():
    """``tensor_core`` is the contraction layer alone: it imports neither ``os`` nor ``struct``."""
    tree = _module_trees()["tensor_core.py"]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module.split(".")[0])
    assert "math" in imported
    assert not imported & {"os", "struct"}


def test_no_module_builds_a_scratch_holder_at_import():
    """Every ``_Scratch`` belongs to a run or a call: no module builds one when it
    is imported, at module level, in a class body or as a default argument."""
    found, inside = [], set()
    for name, tree in _module_trees().items():
        deferred = {
            id(node)
            for func in ast.walk(tree)
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            for stmt in (func.body if isinstance(func.body, list) else [func.body])
            for node in ast.walk(stmt)
        }
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "_Scratch"):
                continue
            if id(node) in deferred:
                inside.add(name)
            else:
                found.append(f"{name}:{node.lineno}")
    assert "montecarlo.py" in inside
    assert found == [], f"holders built at import: {', '.join(found)}"
