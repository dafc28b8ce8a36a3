"""Every top-level function and class of the package has a caller.

A name counts as used when it appears, as a whole word, anywhere in the
package, the scripts or the benchmark other than at its own definition;
the benchmark names the functions it traces in strings, so plain text is
searched rather than the syntax tree.  Tests do not count: a routine that
only a test calls belongs in that test.
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
                     for p in sorted((ROOT / d).rglob("*.py")))
    unused = [f"{path.name}:{name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for name in _top_level_names(path)
              if len(re.findall(rf"\b{re.escape(name)}\b", text)) < 2]
    assert not unused
