"""The package root exports what README's Library section documents, and
nothing else.

Every backticked name in that section that some ``pantagruel`` module
defines must be in ``pantagruel.__all__``, and every name in ``__all__``
must be documented there and importable from the root.
"""

from __future__ import annotations

import importlib
import pathlib
import pkgutil
import re
import types

import pantagruel

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _library_section() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.sub(r"^```.*?^```", "", section, flags=re.M | re.S)


def _defined_names() -> set[str]:
    """Public names bound in any module of the package, except modules."""
    names: set[str] = set()
    for info in pkgutil.iter_modules(pantagruel.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"pantagruel.{info.name}")
        names.update(
            name
            for name, value in vars(module).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        )
    return names


def _documented_names() -> set[str]:
    spans = re.findall(r"`([^`\n]+)`", _library_section())
    leading = {m.group() for m in (re.match(r"[A-Za-z_]\w*", s) for s in spans) if m}
    return leading & _defined_names()


def test_all_is_the_documented_surface():
    assert len(set(pantagruel.__all__)) == len(pantagruel.__all__)
    assert sorted(pantagruel.__all__) == sorted(_documented_names())


def test_every_exported_name_imports_from_the_root():
    namespace: dict[str, object] = {}
    exec("from pantagruel import *", namespace)
    assert set(pantagruel.__all__) <= set(namespace)
