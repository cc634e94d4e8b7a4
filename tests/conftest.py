"""Suite-wide audit: every framed polynomial the engine produces is checked.

For the whole session ``skein._framed`` and ``knitted.eval_hecke`` are
wrapped on every loaded knitweave module that binds them, so modules imported
later bind the wrappers too. ``_framed`` is the skein evaluation behind both
``homfly_framed`` and every tuple of ``knitted._tuple_sum``, whose innermost
level evaluates each tuple's diagram with it and checks no tuple's
planarity, since its template certified it, so each value is audited once.
The boxes ``eval_hecke`` closes by partial traces reach no skein, so every
``eval_hecke`` value is audited on its own, against the compiled diagram.
Each wrapper asserts, at the moment of computation, that the result respects
the Seifert-circle degree bounds, the v/z parity pattern, and the forced
extreme-coefficient zeros of single-crossing circle pairs. Small diagrams
are also collected (deduplicated) so the acceptance suite can replay them
through the independent naive evaluator.
"""

from __future__ import annotations

import sys

from knitweave import knitted, skein
from knitweave.diagram import (
    PlanarDiagram,
    _arc_table,
    canonical_raw,
    component_count,
    seifert_circles,
)
from knitweave.laurent import LaurentVZ
from knitweave.skein import mfw_check, mp_vanishing

audited_count = 0
small_diagrams: dict[tuple, PlanarDiagram] = {}
_SMALL_LIMIT = 8
_SMALL_CAP = 4000


def _audit(d: PlanarDiagram, h: LaurentVZ) -> None:
    global audited_count
    audited_count += 1
    s, _ = seifert_circles(d)
    c = component_count(d)
    assert mfw_check(h, s), f"MFW bounds violated: s={s}, H={h}"
    assert all((v - (s - 1)) % 2 == 0 for v in h.v_exponents()), (
        f"v-parity violated: s={s}, H={h}"
    )
    assert all((z - (c - 1)) % 2 == 0 for z in h.z_exponents()), (
        f"z-parity violated: c={c}, H={h}"
    )
    plus_zero, minus_zero = mp_vanishing(d)
    if plus_zero:
        assert not h.coeff_of_v(s - 1), f"forced H+ = 0 violated: H={h}"
    if minus_zero:
        assert not h.coeff_of_v(-s + 1), f"forced H- = 0 violated: H={h}"
    if len(d.crossings) <= _SMALL_LIMIT and len(small_diagrams) < _SMALL_CAP:
        key = canonical_raw(d.crossings, d.free_loops, _arc_table(d.crossings))
        small_diagrams.setdefault(key, d)


_real_framed = skein._framed


def _audited_framed(d: PlanarDiagram) -> LaurentVZ:
    value = _real_framed(d)
    _audit(d, value)
    return value


def _rebind(old, new) -> None:
    for name, mod in list(sys.modules.items()):
        if name == "knitweave" or name.startswith("knitweave."):
            for attr, value in list(vars(mod).items()):
                if value is old:
                    setattr(mod, attr, new)


_real_eval_hecke = knitted.eval_hecke


def _audited_eval_hecke(k: knitted.KnittedDiagram) -> LaurentVZ:
    value = _real_eval_hecke(k)
    _audit(knitted.compile_diagram(k), value)
    return value


_WRAPPERS = (
    (_real_framed, _audited_framed),
    (_real_eval_hecke, _audited_eval_hecke),
)


def pytest_configure(config):
    for real, audited in _WRAPPERS:
        _rebind(real, audited)


def pytest_unconfigure(config):
    for real, audited in _WRAPPERS:
        _rebind(audited, real)
