"""Every name a gsheaf module imports is read somewhere in that module."""

import ast
import pathlib

import gsheaf

SRC = pathlib.Path(gsheaf.__file__).parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read]


def test_scanner_finds_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "b (line 2)", "os (line 1)"]
    assert unused_imports("from __future__ import annotations\n"
                          "import x.y\nx.y.z()\n") == []


def test_no_unused_imports_in_src():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p.read_text(encoding="utf-8"))
             for p in modules}
    assert {k: v for k, v in found.items() if v} == {}
