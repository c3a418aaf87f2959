"""Rules the source of ``src/ovtl`` keeps, checked on its text and syntax tree.

Each test reads the files, imports nothing from them, and names every
offending line.  The scipy rule stays a CI step: it needs a fresh
interpreter, which a test in this process cannot give.
"""

import ast
import re
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ovtl"

# definitions with no caller in src/ovtl, each kept for the user it waits for
RESERVED = {
    "exact_p2_operator_norm": "ROADMAP item 4: exact p = 2 constants",
    "config_to_text": "ROADMAP item 6: the [provenance] section echoes the config",
    "pointwise_multiply_test": "ROADMAP item 7: m = 1 of the pseudo-differential operators",
    "riesz_symbol": "ROADMAP item 7: the symbols of the pseudo-differential operators",
    "derivative_symbol": "ROADMAP item 7: the symbols of the pseudo-differential operators",
    "tent_norm": "ROADMAP item 8: the Lusin characterization on the CLI",
    "eigenvalues": "perfbench/run.py --self-test calls PSDAccumulator.eigenvalues",
}


def _sources() -> list:
    return sorted(SRC.glob("*.py"))


def _lines():
    """(path, line number, text) of every line of src/ovtl."""
    for path in _sources():
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            yield path, number, line


def _references(tree) -> Counter:
    """How often each name is used as a Name or as an Attribute under ``tree``."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def test_every_src_definition_has_a_src_caller():
    """Every function, class and non-dunder method of src/ovtl is named (as
    a Name or an Attribute) somewhere in src/ovtl outside its own definition,
    or is in RESERVED.  Blind spot: the check goes by name, so a method whose
    name is also some other attribute (``size``, ``zero``) passes unused."""
    trees = [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in _sources()]
    used = sum((_references(tree) for _, tree in trees), Counter())
    defs = [(path, node) for path, tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]
    unused = [f"{path.name}:{node.lineno}: {node.name}" for path, node in defs
              if node.name not in RESERVED and used[node.name] <= _references(node)[node.name]]
    assert not unused, "\n".join(unused)
    assert not set(RESERVED) - {node.name for _, node in defs}, "a reserved name is gone"


def test_no_eigh_or_svd():
    # the README promises sizes and norms without an SVD, and no root field
    # is formed, so src/ calls neither eigh nor svd
    pattern = re.compile(r"\b(eigh|svd)\(")
    hits = [f"{path.name}:{number}: {line}" for path, number, line in _lines()
            if pattern.search(line)]
    assert not hits, "\n".join(hits)


def test_no_function_level_import():
    # imports inside the package go one way (lattice -> opfield -> spectral
    # -> sqfn -> normsuite -> fmult, generators -> atomics -> fieldio -> cli)
    # and sit at module level, so no import cycle hides inside a function
    pattern = re.compile(r"^\s+(from \S+ import|import \S)")
    hits = [f"{path.name}:{number}: {line}" for path, number, line in _lines()
            if pattern.search(line)]
    assert not hits, "\n".join(hits)


def test_no_unused_import():
    # a deletion must take its imports with it: every name a module imports
    # (bar `from __future__ import annotations` and the package's re-exports
    # in __init__.py) is used as a name in that module
    unused = []
    for path in _sources():
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                unused += [f"{path}:{node.lineno}: {alias.asname or alias.name}"
                           for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in used]
    assert not unused, "\n".join(unused)


def test_text_io_names_its_encoding():
    # a report, config or manifest must not depend on the locale, so every
    # text read and write in src/ names UTF-8
    pattern = re.compile(r"\.(read|write)_text\(")
    hits = [f"{path.name}:{number}: {line}" for path, number, line in _lines()
            if pattern.search(line) and 'encoding="utf-8"' not in line]
    assert not hits, "\n".join(hits)
