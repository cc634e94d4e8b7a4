"""A deliberately naive framed-HOMFLY evaluator, used only as an oracle.

Shares nothing with the production path except the skein relation itself:
no memoization, no canonical forms, no split-diagram factoring. Each
component is walked from its smallest arc id, not from the base point of
fewest violations that the production path picks, so the two recursions
switch different crossings. The seed relabels the arcs at the top level,
which moves those base points and hence the crossing at which each branch
happens.
"""

from __future__ import annotations

from random import Random

from knitweave.diagram import PlanarDiagram
from knitweave.laurent import LaurentVZ, delta_pow

_Z = LaurentVZ.monomial(0, 1)


def naive_homfly_framed(d: PlanarDiagram, seed: int = 0) -> LaurentVZ:
    arcs = sorted({a for c in d.crossings for a in c[1:]})
    shuffled = list(arcs)
    Random(seed).shuffle(shuffled)
    relabel = dict(zip(arcs, shuffled))
    raw = tuple(
        (s, relabel[ui], relabel[oi], relabel[uo], relabel[oo])
        for (s, ui, oi, uo, oo) in d.crossings
    )
    return _eval(raw, d.free_loops)


def _eval(crossings, free_loops):
    if not crossings:
        return delta_pow(free_loops - 1)
    violation = _first_violation(crossings)
    if violation is None:
        w = sum(c[0] for c in crossings)
        k = _circle_count(crossings) + free_loops
        return LaurentVZ.monomial(-w, 0) * delta_pow(k - 1)
    sign = crossings[violation][0]
    switched = _eval(_switch(crossings, violation), free_loops)
    rest, loops = _smooth(crossings, violation)
    smoothed = _eval(rest, free_loops + loops)
    return switched + _Z * smoothed if sign > 0 else switched - _Z * smoothed


def _first_violation(crossings):
    consumer = {}
    for idx, (_, ui, oi, _uo, _oo) in enumerate(crossings):
        consumer[ui] = (idx, True)
        consumer[oi] = (idx, False)
    unwalked = set(consumer)
    seen = set()
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


def _circle_count(crossings):
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _, ui, oi, uo, oo in crossings:
        for a, b in ((ui, uo), (oi, oo)):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    return len({find(a) for a in parent})


def _switch(crossings, idx):
    s, ui, oi, uo, oo = crossings[idx]
    return crossings[:idx] + ((-s, oi, ui, oo, uo),) + crossings[idx + 1 :]


def _smooth(crossings, idx):
    _, ui, oi, uo, oo = crossings[idx]
    relabel = {}

    def resolve(a):
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
    rest = tuple(
        (s, resolve(a), resolve(b), resolve(c), resolve(d))
        for k, (s, a, b, c, d) in enumerate(crossings)
        if k != idx
    )
    return rest, loops
