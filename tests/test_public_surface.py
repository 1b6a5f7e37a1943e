"""Every public name, field, meta key and defaulted parameter of the
package has a user.

A public function, class or method counts as used when one of these
refers to it:

* a ``Name`` or ``Attribute`` node in ``src/htsfem`` outside the
  definition itself (the re-exports in ``__init__`` are imports, not
  references);
* a name or attribute in ``perfbench/*.py``, or a string there that is
  a dotted name, as its tracing targets name attributes;
* an identifier inside backticks in README.md.

A class field (a dataclass field, or a ``self.<attr>`` assigned in a
method) counts as used when it is read as an attribute in
``src/htsfem`` outside the statement that assigns it, or named in
perfbench or README as above.  A key written into a space's ``meta``
dict counts as used when ``src/htsfem`` reads it by ``meta["key"]`` or
``meta.get("key")``.  A parameter with a default counts as used when a
call in ``src/htsfem`` or ``perfbench/*.py`` passes it, by keyword or
by position.  A dataclass field with a default counts as used when a
construction of its class in ``src/htsfem`` leaves it out: a default
that every construction overrides is a second copy of a value, such as
one of the configuration schema's defaults.

Every leaf key of the configuration schema counts as used when
``src/htsfem`` reads its name as a string subscript.

Tests do not count: a name, field or setting that only its own test
uses is library surface that no command or module uses.  Names are
matched without types, so the checks are heuristic: a field passes
when any attribute of the same name is read, and a parameter passes
when any function of the same name is called with it.
"""

import ast
import re
from pathlib import Path

from htsfem.config import CONFIG_SCHEMA

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "htsfem"

def _trees(paths):
    return [(path, ast.parse(path.read_text())) for path in sorted(paths)]


def _src_trees():
    return _trees(SRC.glob("*.py"))


def _public_definitions():
    """(name, file, first line, last line) of every public top-level
    function and class and every public method."""
    out = []
    for path, tree in _src_trees():
        for node in tree.body:
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
    for path, tree in _src_trees():
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None:
                refs.setdefault(name, []).append((path, node.lineno))
    return refs


def _external_references():
    """Names, attributes and dotted-name strings in perfbench, and the
    identifiers inside README backticks."""
    names = set()
    for _, tree in _trees((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and re.fullmatch(r"[\w.:]+", node.value)):
                names.update(re.findall(r"\w+", node.value))
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```(.*?)```", text, re.S)
    inline = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    for span in blocks + inline:
        names.update(re.findall(r"\w+", span))
    return names


def test_every_public_name_has_a_caller():
    refs, external = _src_references(), _external_references()
    uncalled = sorted(
        name for name, path, first, last in _public_definitions()
        if name not in external
        and not any(p != path or not first <= line <= last
                    for p, line in refs.get(name, [])))
    assert uncalled == []


# -- fields ----------------------------------------------------------------------


def _class_fields():
    """"Class.attr" of every annotated class-body field and every
    ``self.<attr>`` that a method of a src class assigns."""
    out = set()
    for _, tree in _src_trees():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    out.add(f"{cls.name}.{stmt.target.id}")
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name) and node.value.id == "self"):
                    out.add(f"{cls.name}.{node.attr}")
    return out


def _attribute_reads():
    """Attribute names loaded in src, except those loaded inside the
    statement that assigns the same attribute."""
    reads = set()
    for _, tree in _src_trees():
        skip = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                stored = {t.attr for target in targets for t in ast.walk(target)
                          if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Store)}
                skip |= {id(n) for n in ast.walk(node)
                         if isinstance(n, ast.Attribute) and n.attr in stored}
        reads |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                  and isinstance(n.ctx, ast.Load) and id(n) not in skip}
    return reads


def unread_fields():
    used = _attribute_reads() | _external_references()
    return sorted(f for f in _class_fields() if f.split(".")[1] not in used)


def test_every_field_is_read():
    assert unread_fields() == []


# -- meta keys -------------------------------------------------------------------


def _meta_keys():
    """Keys of the dicts passed as ``meta`` to DofSpace, and keys read
    through ``.meta["key"]`` or ``.meta.get("key")``."""
    written, read = set(), set()
    for _, tree in _src_trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "DofSpace"):
                metas = node.args[5:] + [k.value for k in node.keywords if k.arg == "meta"]
                written |= {k.value for m in metas if isinstance(m, ast.Dict)
                            for k in m.keys if isinstance(k, ast.Constant)}
            elif (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                  and node.value.attr == "meta" and isinstance(node.slice, ast.Constant)):
                (read if isinstance(node.ctx, ast.Load) else written).add(node.slice.value)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "get" and isinstance(node.func.value, ast.Attribute)
                  and node.func.value.attr == "meta" and node.args
                  and isinstance(node.args[0], ast.Constant)):
                read.add(node.args[0].value)
    return written, read


def unread_meta_keys():
    written, read = _meta_keys()
    return sorted(written - read)


def test_every_meta_key_is_read():
    written, _ = _meta_keys()
    assert "sc_tris" in written
    assert unread_meta_keys() == []


# -- parameters ------------------------------------------------------------------


def _defaulted_parameters():
    """(function name, parameter, positional index or None) of every
    parameter with a default of a src function; a method's index does
    not count ``self``, and ``__init__`` is named by its class."""
    out = []
    for _, tree in _src_trees():
        owner = {id(m): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for m in cls.body if isinstance(m, ast.FunctionDef)}
        for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            args = fn.args
            positional = args.posonlyargs + args.args
            skip = 1 if id(fn) in owner and positional and positional[0].arg in ("self", "cls") else 0
            name = owner[id(fn)] if fn.name == "__init__" and id(fn) in owner else fn.name
            first = len(positional) - len(args.defaults)
            out += [(name, a.arg, k - skip)
                    for k, a in enumerate(positional) if k >= first]
            out += [(name, a.arg, None)
                    for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def _calls(trees):
    """Function name -> [(positional count, keywords)] of every call in
    ``trees``; None for a call with a starred argument or ``**``, which
    may pass everything."""
    calls = {}
    for _, tree in trees:
        for node in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
            if name is None:
                continue
            every = (any(isinstance(a, ast.Starred) for a in node.args)
                     or any(k.arg is None for k in node.keywords))
            calls.setdefault(name, []).append(
                None if every else (len(node.args), {k.arg for k in node.keywords}))
    return calls


def unpassed_parameters():
    calls = _calls(_src_trees() + _trees((ROOT / "perfbench").glob("*.py")))
    return sorted(
        f"{fn}.{param}" for fn, param, index in _defaulted_parameters()
        if not any(call is None or param in call[1]
                    or (index is not None and call[0] > index)
                    for call in calls.get(fn, [])))


def test_every_defaulted_parameter_is_passed():
    assert unpassed_parameters() == []


# -- dataclass defaults ----------------------------------------------------------


def _dataclass_defaults():
    """(class, field, positional index) of every field with a default
    of a src dataclass; the index counts the fields before it."""
    out = []
    for _, tree in _src_trees():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            if not any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
                continue
            fields = [s for s in cls.body
                      if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
            out += [(cls.name, f.target.id, k) for k, f in enumerate(fields)
                    if f.value is not None]
    return out


def overridden_defaults():
    """"Class.field" of every dataclass default that no construction in
    src relies on: each passes the field, or there is none."""
    calls = _calls(_src_trees())
    return sorted(
        f"{cls}.{name}" for cls, name, index in _dataclass_defaults()
        if not any(call is None or (name not in call[1] and call[0] <= index)
                   for call in calls.get(cls, [])))


def test_every_dataclass_default_is_relied_on():
    assert ("TimeHistory", "times", 0) in _dataclass_defaults()
    assert overridden_defaults() == []


# -- configuration keys ----------------------------------------------------------


def _schema_leaves(schema, path=()):
    """The dotted path of every leaf key of a configuration schema."""
    out = []
    for key, sub in schema["properties"].items():
        out += (_schema_leaves(sub, path + (key,)) if "properties" in sub
                else [".".join(path + (key,))])
    return out


def unread_config_keys():
    """Leaf keys of CONFIG_SCHEMA whose name src never reads as a string
    subscript, such as ``cfg["material"]["mu_r"]``.  The schema and
    ``config._UNREAD`` hold the keys as literals, not subscripts, so
    they do not count."""
    read = {node.slice.value for _, tree in _src_trees() for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)}
    return sorted(k for k in _schema_leaves(CONFIG_SCHEMA) if k.split(".")[-1] not in read)


def test_every_config_key_is_read():
    assert "material.mu_r" in _schema_leaves(CONFIG_SCHEMA)
    assert unread_config_keys() == []
