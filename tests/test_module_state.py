"""The package keeps no mutable state at module level but its one skein memo.

A functools cache is module state too, though the function that holds it is
not a mutable container, so it is looked for on its own.
"""

import importlib
import pkgutil

import knitweave

MUTABLE = (dict, list, set, bytearray)


def _module_globals():
    names = ["knitweave"] + [m.name for m in pkgutil.iter_modules(knitweave.__path__, "knitweave.")]
    assert len(names) > 8
    for module_name in names:
        for name, value in vars(importlib.import_module(module_name)).items():
            # dunders are the import system's (__path__, __builtins__), or __all__
            if not (name.startswith("__") and name.endswith("__")):
                yield f"{module_name}.{name}", value


def test_only_the_skein_memo_and_the_command_table_are_mutable_module_globals():
    found = {name for name, value in _module_globals() if isinstance(value, MUTABLE)}
    assert found == {"knitweave.skein._MEMO", "knitweave.cli._COMMANDS"}


def test_no_module_global_is_a_functools_cache():
    # lru_cache and cache wrappers carry cache_info
    assert [name for name, value in _module_globals() if hasattr(value, "cache_info")] == []
