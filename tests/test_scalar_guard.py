"""The canonical rational form is made in one place: only `fields.py`
imports `fractions` or calls `Fraction`."""

import ast
import pathlib

import gsheaf

SRC = pathlib.Path(gsheaf.__file__).parent


def fraction_uses(source: str) -> list[str]:
    """Imports of `fractions` and calls of a name or attribute `Fraction`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [f"import {a.name} (line {node.lineno})" for a in node.names
                      if a.name.split(".")[0] == "fractions"]
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            found.append(f"from fractions import (line {node.lineno})")
        elif isinstance(node, ast.Call):
            fn = node.func
            name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
            if name == "Fraction":
                found.append(f"Fraction() (line {node.lineno})")
    return found


def test_scanner_finds_fraction_uses():
    assert fraction_uses("import fractions\nfractions.Fraction(1, 2)\n") == [
        "import fractions (line 1)", "Fraction() (line 2)"]
    assert fraction_uses("from fractions import Fraction as F\nF(1)\n") == [
        "from fractions import (line 1)"]
    assert fraction_uses("x = 1 / 2\n") == []


def test_only_fields_makes_fractions():
    modules = sorted(SRC.glob("*.py"))
    assert SRC / "fields.py" in modules
    found = {p.name: fraction_uses(p.read_text(encoding="utf-8"))
             for p in modules if p.name != "fields.py"}
    assert {k: v for k, v in found.items() if v} == {}
    assert fraction_uses((SRC / "fields.py").read_text(encoding="utf-8"))
