"""sympy is used only where nothing else can do the job: root isolation in
`algebraic`, factorization, resultants and cyclotomic polynomials in
`poly`.  Every other module reaches it through those two."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "robustlrs"


def _imports_sympy(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(n == "sympy" or n.startswith("sympy.") for n in names):
            return True
    return False


def test_only_algebraic_and_poly_import_sympy():
    importers = sorted(p.name for p in PACKAGE.glob("*.py") if _imports_sympy(p))
    assert importers == ["algebraic.py", "poly.py"]
