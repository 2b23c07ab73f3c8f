"""Every public name tsppcong exports has a caller outside the tests.

A name counts as called where it appears as a code token (not in a string
or a comment) in a module of the package, a perfbench script, or a Python
block of README.md.  The name's own def or class line and the import
statements, such as the export in __init__.py, do not count.  An export
that only the tests reach is interface to keep working for no user.
"""

import ast
import inspect
import io
import re
import tokenize
from pathlib import Path

import tsppcong as tc

ROOT = Path(__file__).parent.parent


def called_names(source: str) -> set[str]:
    """The NAME tokens of source, less the name each def or class line
    defines and every name inside an import statement."""
    imports = {
        line
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for line in range(node.lineno, node.end_lineno + 1)
    }
    names, previous = set(), None
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NAME and previous not in ("def", "class") and token.start[0] not in imports:
            names.add(token.string)
        previous = token.string
    return names


def callers() -> set[str]:
    modules = sorted((ROOT / "src" / "tsppcong").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    sources = [path.read_text(encoding="utf-8") for path in modules]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    sources += re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    return set().union(*map(called_names, sources))


def test_called_names_skip_definitions_imports_strings_and_comments():
    source = 'from x import (\n    a,\n    b,\n)\n\n\ndef c(d):\n    """e"""\n    return b(d)  # f\n\n\nclass g:\n    h = "i"\n'
    assert called_names(source) == {"def", "d", "return", "b", "class", "h"}


def test_every_export_has_a_caller_outside_the_tests():
    exports = {name for name, obj in vars(tc).items() if not name.startswith("_") and not inspect.ismodule(obj)}
    assert sorted(exports - callers()) == []
