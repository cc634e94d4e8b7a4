"""Framed and unframed HOMFLY evaluation by skein recursion.

The framed polynomial H satisfies H(L+) - H(L-) = z H(L0), picks up v^-1
(resp. v) under a positive (resp. negative) kink, and takes the value
((v^-1 - v)/z)^(k-1) on a crossing-free diagram of k circles. The unframed
invariant is P = v^w H.

Evaluation walks each link component from a base point (the smallest arc id,
components ordered likewise). A diagram is descending when every crossing is
first met on its over-strand; such a diagram is an unlink with framing and
evaluates to v^-w * delta^(c-1). The first violation is resolved through the
skein relation: the switched diagram is the main branch and the oriented
smoothing carries the z weight.

Values are memoized on ``diagram.canonical_raw``: per connected piece, the
least of its encodings walked from each start arc, computed from the
under_in of each crossing of the piece's smallest sign only (no other start
can give the least encoding). The key holds one encoding per piece, so only
a node whose key has several pieces or free loops is split again; split
diagrams factor as the product of their pieces times delta^(pieces-1).

The memo table is module-level state shared by every evaluation in the
process; evaluations run one at a time and are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from knitweave.diagram import (
    PlanarDiagram,
    RawCrossing,
    _link_components,
    _split_components,
    canonical_raw,
    planarity_check,
    seifert_circles,
    seifert_graph,
    writhe,
)
from knitweave.laurent import LaurentVZ, LaurentZ, delta_pow

__all__ = [
    "HomflyResult",
    "homfly",
    "homfly_framed",
    "homfly_unframed",
    "extreme_coeffs",
    "mfw_check",
    "mp_vanishing",
    "add_audit_hook",
    "remove_audit_hook",
    "clear_memo",
]

_MEMO: dict[tuple, LaurentVZ] = {}

# callbacks (diagram, framed_polynomial) fired after each top-level evaluation;
# used by the test suite to audit every polynomial the engine produces
_AUDIT_HOOKS: list[Callable[[PlanarDiagram, LaurentVZ], None]] = []


def add_audit_hook(hook: Callable[[PlanarDiagram, LaurentVZ], None]) -> None:
    _AUDIT_HOOKS.append(hook)


def remove_audit_hook(hook: Callable[[PlanarDiagram, LaurentVZ], None]) -> None:
    _AUDIT_HOOKS.remove(hook)


def clear_memo() -> None:
    _MEMO.clear()


@dataclass(frozen=True)
class HomflyResult:
    """Framed and unframed polynomials with the diagram stats that bound them."""

    framed: LaurentVZ
    unframed: LaurentVZ
    seifert_count: int
    writhe: int


def _first_violation(crossings: tuple[RawCrossing, ...]) -> int | None:
    """Index of the first crossing met on its under-strand, else None.

    The walk visits link components ordered by smallest arc id, starting at
    that arc; within a component it follows orientation through crossings.
    """
    consumer: dict[int, tuple[int, bool]] = {}
    for idx, (_, ui, oi, _uo, _oo) in enumerate(crossings):
        consumer[ui] = (idx, True)
        consumer[oi] = (idx, False)
    unwalked = set(consumer)
    seen: set[int] = set()
    while unwalked:
        base = min(unwalked)
        a = base
        while True:
            unwalked.discard(a)
            idx, under = consumer[a]
            if idx not in seen:
                seen.add(idx)
                if under:
                    return idx
            c = crossings[idx]
            a = c[3] if under else c[4]
            if a == base:
                break
    return None


def _switch(crossings: tuple[RawCrossing, ...], idx: int) -> tuple[RawCrossing, ...]:
    s, ui, oi, uo, oo = crossings[idx]
    switched = (-s, oi, ui, oo, uo)
    return crossings[:idx] + (switched,) + crossings[idx + 1 :]


def _smooth(
    crossings: tuple[RawCrossing, ...], idx: int
) -> tuple[tuple[RawCrossing, ...], int]:
    """Oriented smoothing: splice under_in->over_out and over_in->under_out.

    Returns the remaining crossings and the number of closed circles split
    off by the splice.
    """
    _, ui, oi, uo, oo = crossings[idx]
    relabel: dict[int, int] = {}

    def resolve(a: int) -> int:
        while a in relabel:
            a = relabel[a]
        return a

    loops = 0
    for x, y in ((ui, oo), (oi, uo)):
        x, y = resolve(x), resolve(y)
        if x == y:
            loops += 1
        else:
            relabel[y] = x
    rest = []
    for k, (s, a, b, c, d) in enumerate(crossings):
        if k == idx:
            continue
        rest.append((s, resolve(a), resolve(b), resolve(c), resolve(d)))
    return tuple(rest), loops


_Z_VZ = LaurentVZ.monomial(0, 1)


def _eval(crossings: tuple[RawCrossing, ...], free_loops: int) -> LaurentVZ:
    if not crossings:
        # nonempty crossing-free diagram of k circles
        return delta_pow(free_loops - 1)
    key = canonical_raw(crossings, free_loops)
    cached = _MEMO.get(key)
    if cached is not None:
        return cached

    # the key holds one encoding per connected piece, so a one-piece diagram
    # without free loops needs no second split
    if len(key[0]) > 1 or free_loops:
        comps = _split_components(crossings)
        val = LaurentVZ.one()
        for comp in comps:
            val = val * _eval(comp, 0)
        val = val * delta_pow(len(comps) + free_loops - 1)
    else:
        idx = _first_violation(crossings)
        if idx is None:
            w = sum(c[0] for c in crossings)
            k = _link_components(crossings)
            val = LaurentVZ.monomial(-w, 0) * delta_pow(k - 1)
        else:
            sign = crossings[idx][0]
            switched = _eval(_switch(crossings, idx), 0)
            rest, loops = _smooth(crossings, idx)
            smoothed = _eval(rest, loops)
            if sign > 0:
                val = switched + _Z_VZ * smoothed
            else:
                val = switched - _Z_VZ * smoothed
    _MEMO[key] = val
    return val


def homfly_framed(d: PlanarDiagram) -> LaurentVZ:
    """The framed HOMFLY polynomial H(d)."""
    if not planarity_check(d):
        raise ValueError("diagram is not planar; framed HOMFLY is undefined on it")
    raw, loops = d.raw()
    if not raw and loops == 0:
        raise ValueError("empty diagram has no HOMFLY value")
    value = _eval(raw, loops)
    for hook in _AUDIT_HOOKS:
        hook(d, value)
    return value


def homfly_unframed(d: PlanarDiagram) -> LaurentVZ:
    """P(d) = v^writhe * H(d), invariant under all Reidemeister moves."""
    return LaurentVZ.monomial(writhe(d), 0) * homfly_framed(d)


def homfly(d: PlanarDiagram) -> HomflyResult:
    framed = homfly_framed(d)
    s, _ = seifert_circles(d)
    w = writhe(d)
    return HomflyResult(
        framed=framed,
        unframed=LaurentVZ.monomial(w, 0) * framed,
        seifert_count=s,
        writhe=w,
    )


def extreme_coeffs(h: LaurentVZ, s: int) -> tuple[LaurentZ, LaurentZ]:
    """(H-, H+): the coefficients of v^(-s+1) and v^(s-1). Either may be zero."""
    return h.coeff_of_v(-s + 1), h.coeff_of_v(s - 1)


def mfw_check(h: LaurentVZ, s: int) -> bool:
    """True iff all v-exponents lie in [-s+1, s-1] (vacuous for zero)."""
    return all(-s + 1 <= v <= s - 1 for v in h.v_exponents())


def mp_vanishing(d: PlanarDiagram) -> tuple[bool, bool]:
    """(predicts_plus_zero, predicts_minus_zero).

    A pair of Seifert circles joined by exactly one crossing forces the
    extreme coefficient on that crossing's sign side to vanish.
    """
    g = seifert_graph(d)
    between: dict[tuple[int, int], list[int]] = {}
    for a, b, sign in g.edges:
        between.setdefault((a, b), []).append(sign)
    plus_zero = any(signs == [1] for signs in between.values())
    minus_zero = any(signs == [-1] for signs in between.values())
    return plus_zero, minus_zero
