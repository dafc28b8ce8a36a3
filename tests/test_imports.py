"""sympy is used only where nothing else can do the job: it isolates roots
in `algebraic` and factors in `poly`, where it also backs the uncalled
`resultant`; composed products go by power sums and cyclotomic
polynomials by exact division.  Every other module reaches it through those two.  numpy is a
test dependency only: no package module imports it, and loading the
command line leaves it unloaded."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "robustlrs"


def _imports(path, top):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(n == top or n.startswith(top + ".") for n in names):
            return True
    return False


def _importers(top):
    return sorted(p.name for p in PACKAGE.glob("*.py") if _imports(p, top))


def test_only_algebraic_and_poly_import_sympy():
    assert _importers("sympy") == ["algebraic.py", "poly.py"]


def test_no_package_module_imports_numpy():
    assert _importers("numpy") == []


def test_cli_import_leaves_numpy_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(PACKAGE.parent) + os.pathsep
                         + env.get("PYTHONPATH", ""))
    code = "import sys, robustlrs.cli; print('numpy' in sys.modules)"
    p = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=env, timeout=120)
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip() == "False"
