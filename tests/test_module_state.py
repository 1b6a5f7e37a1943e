"""No function of the package mutates a module-level name.

State that outlives a call belongs to an object its caller creates
and passes; a module-level name that a function mutates is shared by
every caller in the process, so one run or test can change the next.
A function fails this guard when it declares a name ``global``, or
when, on a name bound at module level and not bound in the function
or a function around it, it assigns an item or a slice or calls one of
the mutating methods below.  Module-level statements themselves may
build a module's constants.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "htsfem"
MUTATORS = {"append", "clear", "update", "extend", "pop", "insert", "setdefault",
            "add", "remove"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _module_names(tree):
    """The names that module-level assignments bind."""
    names = set()
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign))
                   else [])
        for target in targets:
            names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return names


def _own_nodes(fn):
    """The nodes of a function's body, without those of the functions
    and classes defined in it."""
    stack = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))


def _bound(fn):
    """The names a function binds: its parameters and every name it
    stores."""
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    for node in _own_nodes(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
    return names


def _own_mutations(fn, module_names, shadowed):
    """(line, what) of each mutation of a module-level name in the
    body of ``fn``; ``shadowed`` holds the names that ``fn`` and the
    functions around it bind."""
    def module_name(node):
        return (isinstance(node, ast.Name) and node.id in module_names
                and node.id not in shadowed)
    out = []
    for node in _own_nodes(fn):
        if isinstance(node, ast.Global):
            out += [(node.lineno, f"global {name}") for name in node.names]
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(node.lineno, f"{t.value.id}[...] =") for t in targets
                    if isinstance(t, ast.Subscript) and module_name(t.value)]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATORS and module_name(node.func.value)):
            out.append((node.lineno, f"{node.func.value.id}.{node.func.attr}()"))
    return out


def _mutations(node, module_names, shadowed=frozenset()):
    """The mutations of module-level names in every function inside
    ``node``, nested ones included."""
    out = []
    for child in ast.iter_child_nodes(node):
        inner = shadowed
        if isinstance(child, FUNCTIONS):
            inner = shadowed | _bound(child)
            out += _own_mutations(child, module_names, inner)
        out += _mutations(child, module_names, inner)
    return out


def _violations(source):
    tree = ast.parse(source)
    return sorted(_mutations(tree, _module_names(tree)))


def test_no_function_mutates_module_state():
    found = [f"{path.name}:{line}: {what}" for path in sorted(SRC.glob("*.py"))
             for line, what in _violations(path.read_text())]
    assert not found, "functions mutate module-level names:\n" + "\n".join(found)


def test_guard_catches_each_mutation():
    source = '''
CACHE = []
TABLE = {}
COUNT = 0
ROWS = [0, 1]

def by_global():
    global COUNT
    COUNT += 1

def by_item(k):
    TABLE[k] = 1

def by_slice():
    CACHE[:] = [1]

def by_method(k):
    def inner():
        CACHE.append(k)
    TABLE.setdefault(k, 0)
    return inner

class Holder:
    def by_remove(self):
        ROWS.remove(0)

def shadowed(TABLE):
    CACHE = []
    CACHE.append(1)
    TABLE[0] = 1
    return ROWS[0]
'''
    assert [what for _, what in _violations(source)] == [
        "global COUNT", "TABLE[...] =", "CACHE[...] =", "CACHE.append()",
        "TABLE.setdefault()", "ROWS.remove()"]
