"""Every top-level function and class of the package has a caller, and
every method of a package class is named somewhere.

A top-level name counts as used when it appears, as a whole word,
anywhere in the package, the scripts or the benchmark other than at its
own definition; the benchmark names the functions it traces in strings,
so plain text is searched rather than the syntax tree.  Tests do not
count: a routine that only a test calls belongs in the tests.  Nor does
the package's `__init__.py`: a re-export is not a call.

A method (dunders aside) counts as used when its name appears as an
attribute or a plain name in the syntax tree of the package, the
scripts, the benchmark or the tests; a definition is neither, so a
method that nothing names is dead.

A module-level import of a package module counts as used when the name
it binds appears as a plain name in that module's syntax tree (an
attribute access `math.gcd` names `math`).  `__init__.py` is left out:
its imports are re-exports.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "robustlrs"
SEARCHED = ("src", "scripts", "perfbench")


def _top_level_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))]


def test_no_uncalled_top_level_definitions():
    text = "\n".join(p.read_text(encoding="utf-8") for d in SEARCHED
                     for p in sorted((ROOT / d).rglob("*.py"))
                     if p != PACKAGE / "__init__.py")
    unused = [f"{path.name}:{name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for name in _top_level_names(path)
              if len(re.findall(rf"\b{re.escape(name)}\b", text)) < 2]
    assert not unused


def test_no_unnamed_methods():
    named = set()
    for d in SEARCHED + ("tests",):
        for p in sorted((ROOT / d).rglob("*.py")):
            for node in ast.walk(ast.parse(p.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute):
                    named.add(node.attr)
                elif isinstance(node, ast.Name):
                    named.add(node.id)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            unused += [f"{path.name}:{cls.name}.{fn.name}" for fn in cls.body
                       if isinstance(fn, (ast.FunctionDef,
                                          ast.AsyncFunctionDef))
                       and not (fn.name.startswith("__")
                                and fn.name.endswith("__"))
                       and fn.name not in named]
    assert not unused


def test_no_unused_module_level_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound += [(a.asname or a.name).split(".")[0]
                          for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                bound += [a.asname or a.name for a in node.names]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{name}" for name in bound
                   if name not in used]
    assert not unused
