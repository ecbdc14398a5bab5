"""Every public name in the package has a caller outside the tests.

A public module-level function, class or constant (a name bound by a
top-level assignment), or a public method, of src/naivemat must be
loaded by name somewhere in the package's own
modules (the package's __init__.py aside) or in perfbench/*.py.  The
benchmark's trace worker names the functions it calls as "module.name"
strings (`tr.call("geometry.build_pg", ...)`), so such a string counts as
a use of `name`.  The check matches names, not types: a use of any
attribute called `b` covers every public `b`.
"""

import ast
import re
from pathlib import Path

import naivemat

PACKAGE = Path(naivemat.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"

_DOTTED = re.compile(r"(?:cli|geometry|greedy|nimber|report|verify)\.([A-Za-z]\w*)")


def _assigned_names(node):
    """Names bound by a top-level assignment statement, or none."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _public_definitions():
    """{qualified name: name} of each public function, class, constant and method."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for name in _assigned_names(node):
                if not name.startswith("_"):
                    found[f"{path.stem}.{name}"] = name
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            found[f"{path.stem}.{node.name}"] = node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    found[f"{path.stem}.{node.name}.{item.name}"] = item.name
    return found


def _loaded_names():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += sorted(PERFBENCH.glob("*.py"))
    names = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                match = _DOTTED.fullmatch(node.value)
                if match:
                    names.add(match.group(1))
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    defined, loaded = _public_definitions(), _loaded_names()
    # a scan that found no sources would pass vacuously
    assert "greedy.NaiveMatrixGenerator.next_row" in defined
    assert "cli.EXIT_PASS" in defined
    assert "build_pg" in loaded  # only perfbench's "geometry.build_pg" names it
    assert [qual for qual, name in defined.items() if name not in loaded] == []
