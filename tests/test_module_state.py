"""The package keeps no mutable state at module level but its one skein memo."""

import importlib
import pkgutil

import knitweave

MUTABLE = (dict, list, set, bytearray)


def test_only_the_skein_memo_and_the_command_table_are_mutable_module_globals():
    found = set()
    names = ["knitweave"] + [m.name for m in pkgutil.iter_modules(knitweave.__path__, "knitweave.")]
    assert len(names) > 8
    for module_name in names:
        for name, value in vars(importlib.import_module(module_name)).items():
            # dunders are the import system's (__path__, __builtins__), or __all__
            if name.startswith("__") and name.endswith("__"):
                continue
            if isinstance(value, MUTABLE):
                found.add(f"{module_name}.{name}")
    assert found == {"knitweave.skein._MEMO", "knitweave.cli._COMMANDS"}
