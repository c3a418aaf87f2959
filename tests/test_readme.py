"""The README names only what exists."""

import dataclasses
import importlib
import json
import pkgutil
import re
from pathlib import Path

import ovtl

ROOT = Path(__file__).resolve().parents[1]


def _ovtl_namespaces() -> dict:
    """The package, each of its modules and each class they define, by name."""
    names = {"ovtl": ovtl}
    for info in pkgutil.iter_modules(ovtl.__path__):
        module = importlib.import_module(f"ovtl.{info.name}")
        names[info.name] = module
        names.update({name: obj for name, obj in vars(module).items()
                      if isinstance(obj, type) and obj.__module__ == module.__name__})
    return names


def _resolves(obj, parts) -> bool:
    for part in parts:
        if dataclasses.is_dataclass(obj) and part in {f.name for f in dataclasses.fields(obj)}:
            obj = None  # a field with no class-level default: nothing further to resolve
        elif obj is None or not hasattr(obj, part):
            return False
        else:
            obj = getattr(obj, part)
    return True


def test_readme_dotted_names_resolve():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    namespaces = _ovtl_namespaces()
    checked, missing = 0, []
    for dotted in sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", text)) - metrics):
        head, *parts = dotted.split(".")
        if head in namespaces:
            checked += 1
            if not _resolves(namespaces[head], parts):
                missing.append(dotted)
    assert checked >= 10 and not missing, missing
