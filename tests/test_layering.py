"""The package's module layout: one module per task family, imports that run
one way, and the benchmark harness's tracer still seeing each layer where
the moved code reads it."""

import ast
import subprocess
import sys
from pathlib import Path

from chordspec import kernels, verifier

PACKAGE = Path(verifier.__file__).parent
ROOT = PACKAGE.parents[1]

# the appendix's data, read only by the module that holds it
APPENDIX_DATA = {"FIXTURES", "fixture_graphs", "template_keys", "threshold_partition",
                 "threshold_quotient_template", "appendix_polynomial"}


def _imported_modules(tree: ast.Module) -> set[str]:
    """The package modules a module imports: ``from .x import ...`` gives x,
    ``from . import x, y`` gives x and y."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
    return names


def _identifiers(tree: ast.Module) -> set[str]:
    """Every name a module binds, reads or imports, attributes included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(filter(None, (node.name, node.asname)))
    return names


def test_verifier_imports_neither_task_module():
    tree = ast.parse((PACKAGE / "verifier.py").read_text())
    assert not _imported_modules(tree) & {"appendix", "properties"}
    for name in ("verify_appendix", "property_suite", "AppendixRun"):
        assert not hasattr(verifier, name), name


def test_only_the_appendix_module_reads_its_data():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "appendix.py":
            named = _identifiers(ast.parse(path.read_text())) & APPENDIX_DATA
            assert not named, (path.name, named)


def _scoped_imports(tree: ast.Module) -> list[tuple[str | None, str]]:
    """(the function it runs in, None at import time, the module) for every
    import of a module and every call of a function named ``_numpy``: an
    absolute import gives its top-level package, ``from . import x`` gives
    x, ``from .x import ...`` gives x, and a ``_numpy`` call gives
    "_numpy()". A class body runs at import time, so it has no scope of its
    own."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                out.extend((scope, alias.name.split(".")[0]) for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                if child.module:
                    out.append((scope, child.module.split(".")[0]))
                else:
                    out.extend((scope, alias.name) for alias in child.names)
            elif isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", getattr(func, "attr", None)) == "_numpy":
                    out.append((scope, "_numpy()"))
            functions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            visit(child, getattr(child, "name", "<lambda>") if isinstance(child, functions)
                  else scope)

    visit(tree, None)
    return out


def test_numpy_and_the_python_twin_load_only_when_called():
    # importing numpy takes about 60 ms and the twin about 10 ms more, while
    # the compiled theorem and corollary at orders up to 7 call neither: the
    # package's one numpy import is spectral's accessor, no module calls it
    # at import time, and no module imports the twin at import time
    found = {path.name: _scoped_imports(ast.parse(path.read_text()))
             for path in sorted(PACKAGE.glob("*.py"))}
    numpy_imports = [(name, scope) for name, imports in found.items()
                     for scope, module in imports if module == "numpy"]
    assert numpy_imports == [("spectral.py", "_numpy")]
    at_import = [(name, module) for name, imports in found.items()
                 for scope, module in imports
                 if scope is None and module in ("_numpy()", "_sweep_py")]
    assert at_import == []


# the perfbench selftest's failing checks, each a `.calls = 0` on a layer its
# workload no longer calls: the compiled kernel's, and the python twin's,
# which calls chords.longest_cycle and chords.max_path_order itself
SELFTEST_FAILURES_PYTHON = [
    "FAIL theorem-n6: kernels.sweep_range.calls = 0",
    "FAIL theorem-n6: spectral.signless_laplacian.calls = 0",
    "FAIL theorem-n6: spectral.charpoly_int_matrix.calls = 0",
    "FAIL theorem-n6: polynomials.compare_largest_roots.calls = 0",
    "FAIL theorem-n6-j2: spectral.signless_laplacian.calls = 0",
    "FAIL theorem-n6-j2: spectral.charpoly_int_matrix.calls = 0",
    "FAIL theorem-n6-j2: polynomials.compare_largest_roots.calls = 0",
    "FAIL appendix-7-22: spectral.q_index.calls = 0",
    "FAIL appendix-7-22: spectral.charpoly_int_matrix.calls = 0",
]
SELFTEST_FAILURES_COMPILED = SELFTEST_FAILURES_PYTHON[:7] + [
    "FAIL properties: chords.longest_cycle.calls = 0",
    "FAIL properties: chords.max_path_order.calls = 0",
] + SELFTEST_FAILURES_PYTHON[7:]


def test_perfbench_selftest_fails_only_the_known_checks():
    # the tracer wraps each layer at every module global bound to it, so a
    # layer that a moved module binds out of its reach reads 0 calls and
    # adds a failure here; the subprocess picks the kernel this one did
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          capture_output=True, text=True, cwd=ROOT, timeout=600)
    failed = [line for line in proc.stdout.splitlines() if line.startswith("FAIL")]
    expected = SELFTEST_FAILURES_COMPILED if kernels.IS_COMPILED else SELFTEST_FAILURES_PYTHON
    assert failed == expected, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{len(expected)} failure(s)", proc.stdout
