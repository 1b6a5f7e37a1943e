"""Every public function, class and method of the package has a caller.

A name counts as used when one of these refers to it:

* a ``Name`` or ``Attribute`` node in ``src/htsfem`` outside the
  definition itself (the re-exports in ``__init__`` are imports, not
  references);
* a name, attribute or string in ``perfbench/*.py``, whose tracing
  targets name attributes as strings;
* an identifier inside backticks in README.md.

Tests do not count: a function that only its own test calls is
library surface that no command or module uses.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "htsfem"

# public names kept without a caller in the package, with the reason
ALLOWED = {
    "read_native": "reads the mesh file that `htsfem mesh` writes",
    "e_field": "finite-difference oracle for the Jacobian law de_dj",
    "eval_trace": "pointwise interface-trace oracle of the space tests",
}


def _public_definitions():
    """(name, file, first line, last line) of every public top-level
    function and class and every public method."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [node]
            if isinstance(node, ast.ClassDef):
                defs += [m for m in node.body if isinstance(m, ast.FunctionDef)]
            out += [(d.name, path, d.lineno, d.end_lineno)
                    for d in defs if not d.name.startswith("_")]
    return out


def _src_references():
    """name -> [(file, line)] of every Name and Attribute node in src."""
    refs = {}
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None:
                refs.setdefault(name, []).append((path, node.lineno))
    return refs


def _external_references():
    """Names, attributes and strings in perfbench, and the identifiers
    inside README backticks."""
    names = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(re.findall(r"\w+", node.value))
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```(.*?)```", text, re.S)
    inline = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    for span in blocks + inline:
        names.update(re.findall(r"\w+", span))
    return names


def test_every_public_name_has_a_caller():
    refs, external = _src_references(), _external_references()
    definitions = _public_definitions()
    uncalled = sorted(
        name for name, path, first, last in definitions
        if name not in external and name not in ALLOWED
        and not any(p != path or not first <= line <= last
                    for p, line in refs.get(name, [])))
    assert uncalled == []
    assert set(ALLOWED) <= {name for name, *_ in definitions}
