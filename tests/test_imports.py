"""A fresh import of the package leaves no earlier copy behind: nothing at
module level, such as a ``typing.Union`` alias in typing's cache, keeps a
replaced copy of a module alive."""

import gc
import importlib
import sys
import weakref

MODULES = ("algebra", "loops", "stars", "gates", "closed", "fuzz", "surface", "words", "cli")


def _ours(name: str) -> bool:
    return name == "loopcalc" or name.startswith("loopcalc.")


def _import_afresh() -> None:
    for name in [n for n in sys.modules if _ours(n)]:
        del sys.modules[name]
    for module in MODULES:
        importlib.import_module(f"loopcalc.{module}")


def test_a_fresh_import_frees_the_previous_copy():
    saved = {name: module for name, module in sys.modules.items() if _ours(name)}
    try:
        _import_afresh()
        first = [
            weakref.ref(sys.modules["loopcalc.loops"].Transit),
            weakref.ref(sys.modules["loopcalc.surface"].GateRef),
        ]
        _import_afresh()
        gc.collect()
        assert [ref() for ref in first] == [None, None]
    finally:
        for name in [n for n in sys.modules if _ours(n)]:
            del sys.modules[name]
        sys.modules.update(saved)
