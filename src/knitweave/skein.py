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
dropped at its first token above the least at that position. A node builds
one in-arc table, ``diagram._arc_table``, for its key, its split and its
violation walk. The key holds one stream per piece, and only a node of
several pieces is split: a walk of the table covers a whole piece, keeping
its arc labels. A node factors as the product of its pieces times
delta^(pieces+free_loops-1).

The memo holds kink-free diagrams only. A kink (an R1 curl) is a crossing
with under_out == over_in or over_out == under_in. One routine, ``_remove``,
takes crossings out by splicing: a smoothing removes a crossing by its two
oriented splices, and a kink is a smoothing whose curl is not counted as a
circle, at a factor of v^-sign (a crossing with both equalities leaves one
free loop). ``_framed``, the evaluation ``homfly_framed`` runs after its
planarity check, reduces the root before the first lookup: it removes kinks
and cancelling bigons until neither is left. A cancelling bigon (an R2
pair) is two crossings of opposite sign, neither a kink, joined by two arcs
with the same strand over at both; the strands run parallel (under_out to
under_in and over_out to over_in) or antiparallel (one arc each way). Each
crossing is spliced straight through, which keeps the writhe; a strand that
closes up is a free loop. At both crossings the two arcs use adjacent
ports, and with opposite signs and one over strand the corners between
them open to the same side of the loop they make (changing either the
signs or the over strand turns them to opposite sides; changing both gives
a twist). So the bigon bounds a face of its piece, inside which only a
split piece can sit, and H factors that out. R2 is then a regular isotopy,
and the framed H does not change. Bigons are removed at the root only,
where random signed box words leave them: below it a switch makes one from
every twist, as on the closure of sigma_1^k, and removing those would
change the recursion of every diagram (ROADMAP item 10). Below the root
only a smoothing can make a kink: switching a crossing maps the two kink
conditions onto each other, splitting into pieces keeps every arc label,
and only a splice joins two arcs, which can close a strand back onto a
crossing next to the smoothed one. So the routine checks the crossings its
splices rename, and removes any kinks, and those their removal exposes,
before the smoothed child's lookup.

The memo table is module-level state shared by every evaluation in the
process; evaluations run one at a time and are deterministic.
"""

from __future__ import annotations

from knitweave.diagram import (
    Crossing,
    PlanarDiagram,
    _arc_table,
    _walk,
    canonical_raw,
    planarity_check,
    seifert_circles,
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


def _first_violation(table: dict[int, tuple[int, int, int, int]]) -> tuple[int | None, int]:
    """First crossing met on its under-strand (or None), and components walked.

    ``table`` is the node's ``diagram._arc_table``, which its key read too.
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
    """Smooth crossing ``idx`` out, or reduce the root (``idx`` None).

    A crossing is removed by splicing each of two in-arcs to an out-arc:
    under_in->over_out and over_in->under_out to smooth it, under_in->
    under_out and over_in->over_out to go straight through. Each splice keeps
    the in-arc's name, gives it to the port that consumes the dropped
    out-arc, and closes a circle if that port is on the removed crossing
    itself. A kink is smoothed, but its curl is not counted as a circle, and
    the value gains v^-sign. At the root both crossings of a cancelling
    bigon go straight through. A splice joins the kept arc's maker to the
    dropped arc's consumer, and a kink or bigon forms only there: a kink when
    the two are one crossing, a bigon seen from the maker. So the consumer is
    checked for a kink again, and at the root the maker for a bigon, once no
    kink is left; removals cascade, and at the root every crossing is
    checked. Returns the rest, the circles closed, and the writhe w of the
    removed kinks: the input's value is v^-w times that of the rest with the
    circles as free loops.
    """
    root = idx is None
    rows = [list(c) for c in crossings]
    consumer: dict[int, tuple[int, int]] = {}
    for k, (_, ui, oi, _uo, _oo) in enumerate(crossings):
        consumer[ui] = (k, 1)
        consumer[oi] = (k, 2)
    removed = [False] * len(rows)
    check = list(range(len(rows))) if root else []
    # a bigon needs both signs; a tuple of a tuple sum, made of positive
    # permutation braids, has one
    pairs = list(check) if root and len({c[0] for c in crossings}) > 1 else []
    # a splice renames in-ports only, so every arc keeps its maker
    maker = {a: k for k, c in enumerate(crossings) for a in c[3:]} if pairs else {}

    def splice(k: int, straight: bool = False) -> int:
        removed[k] = True
        _, ui, oi, uo, oo = rows[k]
        circles = 0
        for keep, drop in ((ui, uo), (oi, oo)) if straight else ((ui, oo), (oi, uo)):
            j, port = consumer[drop]
            if j == k:
                circles += 1
            else:
                rows[j][port] = keep
                consumer[keep] = (j, port)
                check.append(j)
                if maker:
                    pairs.append(maker[keep])
        return circles

    loops = 0 if root else splice(idx)
    w = 0
    while check or pairs:
        if check:
            k = check.pop()
            s, ui, oi, uo, oo = rows[k]
            if not removed[k] and (uo == oi or oo == ui):
                loops += splice(k) - 1
                w += s
            continue
        # every crossing a splice renamed has been checked, so no kink is left
        k = pairs.pop()
        if removed[k]:
            continue
        row = rows[k]
        for r in (1, 2):
            # b takes this strand on in its role (in-port r, out r + 2); the
            # other strand runs into b, or back from b, in its role
            b, port = consumer[row[r + 2]]
            other = rows[b]
            if port == r and other[0] != row[0] and (
                consumer[row[5 - r]] == (b, 3 - r) or other[5 - r] == row[3 - r]
            ):
                loops += splice(k, True) + splice(b, True)
                break
    rest = tuple(tuple(row) for row, gone in zip(rows, removed) if not gone)
    return rest, loops, w


def _eval(crossings: tuple[Crossing, ...], free_loops: int) -> LaurentVZ:
    if not crossings:
        # nonempty crossing-free diagram of k circles
        return delta_pow(free_loops - 1)
    table = _arc_table(crossings)
    key = canonical_raw(crossings, free_loops, table)
    cached = _MEMO.get(key)
    if cached is not None:
        return cached

    # the key holds one stream per connected piece
    pieces = len(key[0])
    if pieces > 1:
        # pieces in order of their first crossing, crossings in input order
        covered: set[int] = set()
        val = delta_pow(pieces + free_loops - 1)
        for idx, c in enumerate(crossings):
            if idx not in covered:
                order: list[int] = []
                for _ in _walk(table, c[1], order):
                    pass
                covered.update(order)
                val = val * _eval(tuple(crossings[j] for j in sorted(order)), 0)
    elif free_loops:
        val = _eval(crossings, 0) * delta_pow(free_loops)
    else:
        idx, walked = _first_violation(table)
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
    return _framed(d)


def _framed(d: PlanarDiagram) -> LaurentVZ:
    """H(d) without the planarity check, for a diagram planar by
    construction, such as each tuple diagram of ``knitted._tuple_sum``."""
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
    extreme coefficient on that crossing's sign side to vanish. The pairs
    are the edges of the signed Seifert graph: a crossing joins the circle
    of its under-strand to that of its over-strand, which differ in any
    planar oriented diagram.
    """
    _, circle = seifert_circles(d)
    between: dict[tuple[int, int], list[int]] = {}
    for c in d.crossings:
        a, b = circle[c.under_in], circle[c.over_in]
        if a == b:
            raise ValueError(
                "crossing joins a Seifert circle to itself; "
                "the diagram cannot be a planar oriented diagram"
            )
        between.setdefault((min(a, b), max(a, b)), []).append(c.sign)
    plus_zero = any(signs == [1] for signs in between.values())
    minus_zero = any(signs == [-1] for signs in between.values())
    return plus_zero, minus_zero
