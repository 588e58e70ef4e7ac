"""No gsheaf module keeps answers in module-level state.

A memo belongs on the object it describes, so it dies with that object.
A module-level table keyed by id(obj) goes wrong once CPython reuses the
id of a freed object, and any module-level memo lets one run or fixture
leak into the next.  The scan flags a module-level dict, list or set
that a function mutates, a function that declares a global, and
functools.lru_cache or functools.cache.

It also flags any import of random: every answer is deterministic, so
the same input gives the same output whatever the seed (criterion 16).
"""

import ast
import pathlib

import gsheaf

SRC = pathlib.Path(gsheaf.__file__).parent

MUTATORS = {"append", "extend", "insert", "add", "update", "setdefault",
            "pop", "popitem", "clear", "remove", "discard"}
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict",
                   "Counter"}
CACHES = {"lru_cache", "cache"}

# Interning, not memoizing: GF(p) hands out one immutable Field per
# order p, keyed by the value p, so an entry can never go stale
# (tests/test_fields.py pins GF(5) is GF(5)).
ALLOWED = {"fields.py: function GF mutates module-level _CACHE"}


def _is_container(node) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                         ast.ListComp, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in CONTAINER_CALLS)


def _module_containers(tree) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and _is_container(node.value):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif (isinstance(node, ast.AnnAssign) and node.value is not None
              and _is_container(node.value)
              and isinstance(node.target, ast.Name)):
            names.add(node.target.id)
    return names


def _mutated(node, containers):
    """The module-level container a statement or call mutates, if any."""
    def root(target):
        while isinstance(target, (ast.Subscript, ast.Attribute)):
            target = target.value
        return target.id if isinstance(target, ast.Name) else None

    targets = []
    if isinstance(node, (ast.Assign, ast.Delete)):
        targets = [t for t in node.targets if isinstance(t, ast.Subscript)]
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target] if isinstance(node.target, ast.Subscript) else []
    elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
          and node.func.attr in MUTATORS):
        targets = [node.func.value]
    for t in targets:
        name = root(t)
        if name in containers:
            return name
    return None


def module_state(source: str, filename: str = "<src>") -> list[str]:
    tree = ast.parse(source)
    containers = _module_containers(tree)
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Import)
                and any(a.name == "random" for a in node.names)
                or isinstance(node, ast.ImportFrom) and node.module == "random"):
            found.append(f"{filename}: imports random")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"{filename}: imports functools.{a.name}"
                      for a in node.names if a.name in CACHES]
        elif (isinstance(node, ast.Attribute) and node.attr in CACHES
              and isinstance(node.value, ast.Name)
              and node.value.id == "functools"):
            found.append(f"{filename}: uses functools.{node.attr}")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            local = {a.arg for a in ast.walk(node.args)
                     if isinstance(a, ast.arg)}
            for inner in ast.walk(node):
                if isinstance(inner, ast.Global):
                    found.append(f"{filename}: function {node.name} declares "
                                 f"global {', '.join(inner.names)}")
                name = _mutated(inner, containers - local)
                if name:
                    found.append(f"{filename}: function {node.name} mutates "
                                 f"module-level {name}")
    return sorted(set(found))


def test_scanner_finds_module_state():
    source = (
        "import functools\n"
        "import random\n"
        "from functools import lru_cache\n"
        "from random import Random\n"
        "MEMO = {}\n"
        "SEEN: list = []\n"
        "TABLE = {1: 2}\n"
        "def remember(A):\n"
        "    MEMO[id(A)] = A\n"
        "    SEEN.append(A)\n"
        "    return TABLE[1]\n"
        "def rebind():\n"
        "    global TABLE\n"
        "    TABLE = {}\n"
        "@functools.cache\n"
        "def cached(x):\n"
        "    return x\n"
        "def local(MEMO):\n"
        "    MEMO[1] = 2\n"
        "    own = {}\n"
        "    own[1] = 2\n")
    assert module_state(source, "m.py") == [
        "m.py: function rebind declares global TABLE",
        "m.py: function remember mutates module-level MEMO",
        "m.py: function remember mutates module-level SEEN",
        "m.py: imports functools.lru_cache",
        "m.py: imports random",
        "m.py: uses functools.cache",
    ]


def test_no_module_level_caches_in_src():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    found = []
    for path in modules:
        found += module_state(path.read_text(encoding="utf-8"), path.name)
    assert set(found) == ALLOWED
