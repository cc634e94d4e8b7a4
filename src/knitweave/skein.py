"""Framed and unframed HOMFLY evaluation by skein recursion.

The framed polynomial H satisfies H(L+) - H(L-) = z H(L0), picks up v^-1
(resp. v) under a positive (resp. negative) kink, and takes the value
((v^-1 - v)/z)^(k-1) on a crossing-free diagram of k circles. The unframed
invariant is P = v^w H.

Evaluation walks the link components in order of smallest arc id, each from
the base point that meets the fewest of its own crossings first on their
under-strand (the last such base from the smallest arc, on ties). A diagram
is descending when every crossing is first met on its over-strand; such a
diagram is an unlink with framing and evaluates to v^-w * delta^(c-1),
where the violation walk, having found no violation, has walked all c
components. The first violation is resolved through the skein relation: the
switched diagram is the main branch and the oriented smoothing carries the
z weight. Switching keeps every strand's arcs, so each switch lowers the
least violation count by one; on the closure of sigma_1^k the recursion is
k deep.

Values are memoized on ``diagram.canonical_raw``: per connected piece, the
least of the token streams walked from each start arc. A walk emits one
small integer per step: a crossing's sign and entering strand when it is
met first, its rank in meeting order when it is met again, and -3 when a
link component closes. No token names an arc, so the stream fixes the
piece up to relabelling. Only the under_ins of the crossings of the piece's
smallest sign can start the least stream; the first of those walks runs to
the end and finds the piece, and the others race it in lockstep, each
dropped at its first token above the least at that position. The key holds
one stream per piece, so only a node whose key has several pieces or free
loops is split again, keeping its arc labels; split diagrams factor as the
product of their pieces times delta^(pieces-1).

The memo holds kink-free diagrams only. A kink (an R1 curl) is a crossing
with under_out == over_in or over_out == under_in. One routine, ``_remove``,
takes crossings out by splicing: a smoothing removes a crossing by its two
oriented splices, and a kink is a smoothing whose curl is not counted as a
circle, at a factor of v^-sign (a crossing with both equalities leaves one
free loop). ``homfly_framed`` removes the root's kinks before the first
lookup. Below the root only a smoothing can make a kink: switching a
crossing maps the two kink conditions onto each other, splitting into
pieces keeps every arc label, and only a splice joins two arcs, which can
close a strand back onto a crossing next to the smoothed one. So the
routine checks the crossings its splices rename, and removes any kinks, and
those their removal exposes, before the smoothed child's lookup.

The memo table is module-level state shared by every evaluation in the
process; evaluations run one at a time and are deterministic.
"""

from __future__ import annotations

from knitweave.diagram import (
    Crossing,
    PlanarDiagram,
    _arc_table,
    _split_components,
    canonical_raw,
    planarity_check,
    seifert_graph,
    writhe,
)
from knitweave.laurent import LaurentVZ, delta_pow

__all__ = [
    "homfly_framed",
    "homfly_unframed",
    "mfw_check",
    "mp_vanishing",
]

_MEMO: dict[tuple, LaurentVZ] = {}


def _first_violation(crossings: tuple[Crossing, ...]) -> tuple[int | None, int]:
    """First crossing met on its under-strand (or None), and components walked.

    Link components are walked in order of smallest arc id, each following
    orientation through crossings from a base point; a violation is a
    crossing met first on its under-strand. A crossing met in an earlier
    component is never a violation, and one shared with a later component
    is a violation exactly when this component passes under it, whatever
    the base. A self-crossing with passes at positions p1 < p2 of the walk
    from the component's smallest arc is met first at p2 by the bases in
    (p1, p2] and at p1 by the rest, so it is a violation for the bases on
    one side of that interval, chosen by whether p1 is its under pass. One
    walk and one difference-array sweep thus count the violations of every
    base, and the component starts from the last base of least count.

    The recursion ends: the order of the components and the positions of
    their passes depend only on the arcs each strand runs through, which
    ``_switch`` keeps, and a switch leaves every other crossing as it was.
    Switching the returned crossing lowers by one the count of its
    component's chosen base (of every base, if the crossing is shared), so
    the sum over components of the least count falls by at least one at
    every switch. With no violation every component is walked, so the
    count is the diagram's link component count.
    """
    table = _arc_table(crossings)
    unwalked = set(table)
    seen: set[int] = set()
    walked = 0
    while unwalked:
        walked += 1
        start = min(unwalked)
        passes: list[tuple[int, bool]] = []
        a = start
        while True:
            unwalked.discard(a)
            idx, token, a, _ = table[a]
            passes.append((idx, not token & 1))  # an even token enters under
            if a == start:
                break
        # run: violations of base 0; diff[b]: the change from base b - 1 to b
        run = 0
        diff = [0] * (len(passes) + 1)
        first: dict[int, tuple[int, bool]] = {}
        for p, (idx, under) in enumerate(passes):
            if idx in seen:
                continue
            met = first.pop(idx, None)
            if met is None:
                first[idx] = (p, under)
                continue
            p1, under1 = met
            step = -1 if under1 else 1
            run += under1
            diff[p1 + 1] += step
            diff[p + 1] -= step
        # what is left in ``first`` is shared with later components
        run += sum(under for _, under in first.values())
        least, base = run, 0
        for b in range(1, len(passes)):
            run += diff[b]
            if run <= least:
                least, base = run, b
        if least:
            for idx, under in passes[base:] + passes[:base]:
                if idx not in seen:
                    if under:
                        return idx, walked
                    seen.add(idx)
        seen.update(idx for idx, _ in passes)
    return None, walked


def _switch(crossings: tuple[Crossing, ...], idx: int) -> tuple[Crossing, ...]:
    s, ui, oi, uo, oo = crossings[idx]
    switched = (-s, oi, ui, oo, uo)
    return crossings[:idx] + (switched,) + crossings[idx + 1 :]


def _remove(
    crossings: tuple[Crossing, ...], idx: int | None
) -> tuple[tuple[Crossing, ...], int, int]:
    """Smooth crossing ``idx`` out (none at the root), then remove every kink.

    A crossing is removed by its two oriented splices, under_in->over_out
    and over_in->under_out. Each splice keeps the in-arc's name, gives it to
    the port that consumes the dropped out-arc, and closes a circle if that
    port is on the removed crossing itself. A kink is removed the same way,
    but one of its circles is its own curl, which is not counted, and the
    value gains v^-sign. A crossing becomes a kink only when a splice renames
    it, so only renamed crossings are checked again, and removals cascade;
    at the root every crossing is checked. Returns the rest, the circles
    closed, and the writhe w of the removed kinks: the input's value is v^-w
    times that of the rest with the circles as free loops.
    """
    rows = [list(c) for c in crossings]
    consumer: dict[int, tuple[int, int]] = {}
    for k, (_, ui, oi, _uo, _oo) in enumerate(crossings):
        consumer[ui] = (k, 1)
        consumer[oi] = (k, 2)
    removed = [False] * len(rows)
    check = list(range(len(rows))) if idx is None else []

    def splice(k: int) -> int:
        removed[k] = True
        _, ui, oi, uo, oo = rows[k]
        circles = 0
        for keep, drop in ((ui, oo), (oi, uo)):
            j, port = consumer[drop]
            if j == k:
                circles += 1
            else:
                rows[j][port] = keep
                consumer[keep] = (j, port)
                check.append(j)
        return circles

    loops = 0 if idx is None else splice(idx)
    w = 0
    while check:
        k = check.pop()
        s, ui, oi, uo, oo = rows[k]
        if not removed[k] and (uo == oi or oo == ui):
            loops += splice(k) - 1
            w += s
    rest = tuple(tuple(row) for row, gone in zip(rows, removed) if not gone)
    return rest, loops, w


def _eval(crossings: tuple[Crossing, ...], free_loops: int) -> LaurentVZ:
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
        idx, walked = _first_violation(crossings)
        if idx is None:
            w = sum(c[0] for c in crossings)
            val = LaurentVZ.monomial(-w, 0) * delta_pow(walked - 1)
        else:
            switched = _eval(_switch(crossings, idx), 0)
            rest, loops, w = _remove(crossings, idx)
            smoothed = _eval(rest, loops)
            val = switched + LaurentVZ.monomial(-w, 1, crossings[idx][0]) * smoothed
    _MEMO[key] = val
    return val


def homfly_framed(d: PlanarDiagram) -> LaurentVZ:
    """The framed HOMFLY polynomial H(d)."""
    if not planarity_check(d):
        raise ValueError("diagram is not planar; framed HOMFLY is undefined on it")
    if not d.crossings and d.free_loops == 0:
        raise ValueError("empty diagram has no HOMFLY value")
    rest, more, w = _remove(d.crossings, None)
    return LaurentVZ.monomial(-w, 0) * _eval(rest, d.free_loops + more)


def homfly_unframed(d: PlanarDiagram) -> LaurentVZ:
    """P(d) = v^writhe * H(d), invariant under all Reidemeister moves."""
    return LaurentVZ.monomial(writhe(d), 0) * homfly_framed(d)


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
