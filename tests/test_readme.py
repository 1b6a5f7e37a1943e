"""README.md's code references resolve: its library entry-point import
block runs, and every htsfem.<module>.<name>[.<attribute>] it names
exists.  Its configuration table lists the schema's keys, in order."""

import importlib
import re
from functools import reduce
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _resolves(module, path):
    try:
        reduce(getattr, path.split("."), importlib.import_module(f"htsfem.{module}"))
    except AttributeError:
        return False
    return True


def test_readme_references_resolve():
    text = README.read_text()
    block = re.search(r"## Library entry points\s+```python\n(.*?)```", text, re.S)
    assert block is not None
    exec(compile(block.group(1), str(README), "exec"), {})
    names = sorted(set(re.findall(r"\bhtsfem\.(\w+)\.(\w+(?:\.\w+)*)", text)))
    assert len(names) >= 8
    assert [f"htsfem.{m}.{p}" for m, p in names if not _resolves(m, p)] == []


def _schema_keys(properties, prefix=""):
    for key, sub in properties.items():
        if sub.get("type") == "object":
            yield from _schema_keys(sub["properties"], f"{prefix}{key}.")
        else:
            yield prefix + key


def test_readme_configuration_table_lists_the_schema():
    from htsfem.config import CONFIG_SCHEMA
    rows = re.search(r"\| Key \| Default \| Read by \|\n\|[-|]+\|\n((?:\|.*\n)+)",
                     README.read_text())
    assert rows is not None
    keys = [re.match(r"\| `([\w.]+)` \|", row).group(1) for row in rows.group(1).splitlines()]
    assert keys == list(_schema_keys(CONFIG_SCHEMA["properties"]))
