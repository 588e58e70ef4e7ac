"""Every name a gsheaf module or test file imports is read somewhere in
that file, and every top-level definition is read somewhere in the
package."""

import ast
import pathlib
import re

import gsheaf

SRC = pathlib.Path(gsheaf.__file__).parent
TESTS = pathlib.Path(__file__).resolve().parent


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
    """The package modules and the test files."""
    modules = sorted(p for p in [*SRC.glob("*.py"), *TESTS.glob("*.py")]
                     if p.name != "__init__.py")
    assert any(p.parent == TESTS for p in modules)
    found = {f"{p.parent.name}/{p.name}": unused_imports(
        p.read_text(encoding="utf-8")) for p in modules}
    assert {k: v for k, v in found.items() if v} == {}


# ---------------------------------------------------------------------------
# every top-level definition has a reader

PERFBENCH = TESTS.parent / "perfbench"
# kept without a reader in the package: the *_to_doc serializers, which
# mirror their loaders, and two algebra builders for callers of the package
KEPT = {"matrix_algebra", "group_algebra"}


def unread_definitions(sources: dict, exported, named_outside: str) -> list[str]:
    """module.name of each top-level function or class in sources (module
    name -> text) that no module reads outside its own definition, that
    is not exported, not in named_outside and not kept."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    reads = {}  # name -> set of (module, enclosing top-level definition)
    for mod, tree in trees.items():
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                reads.setdefault(name, set()).add((mod, owner))
    unread = []
    for mod, tree in sorted(trees.items()):
        for top in tree.body:
            if not isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = top.name
            if (reads.get(name, set()) - {(mod, name)} or name in exported
                    or name in KEPT or name.endswith("_to_doc")
                    or re.search(rf"\b{name}\b", named_outside)):
                continue
            unread.append(f"{mod}.{name}")
    return unread


def test_scanner_finds_an_unread_definition():
    sources = {"a": "def f():\n    return f()\n\n\ndef g():\n    pass\n\n\n"
                    "class C:\n    pass\n\n\ndef h_to_doc():\n    pass\n",
               "b": "from a import g\n\n\ndef k():\n    return g()\n"}
    assert unread_definitions(sources, {"C"}, "") == ["a.f", "b.k"]
    assert unread_definitions(sources, set(), "k(x) and f.y") == ["a.C"]


def test_every_definition_in_src_has_a_reader():
    sources = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    named = "\n".join(p.read_text(encoding="utf-8")
                      for p in sorted(PERFBENCH.glob("*.py")))
    assert "gsheaf" in named
    assert unread_definitions(sources, set(gsheaf.__all__), named) == []
