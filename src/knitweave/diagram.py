"""Oriented link diagrams as PD codes.

A crossing is a named 5-tuple (sign, under_in, over_in, under_out, over_out)
of arc identifiers, the same record the skein recursion walks; arcs are
directed, each produced by exactly one out-port and consumed by exactly one
in-port. Crossing-free circles are counted in ``free_loops``. Signs are
carried explicitly rather than inferred from port order, since sign bugs are
the dominant failure mode in skein code; ``PlanarDiagram`` checks every sign
and that the arcs close up when it is built.

The cyclic port order used for face tracing is fixed as
(under_in, over_in, under_out, over_out) counterclockwise at positive
crossings and the mirrored order (under_in, over_out, under_out, over_in) at
negative ones. Switching a crossing's sign permutes roles consistently with
this convention, so the rotation system survives skein moves.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

__all__ = [
    "Crossing",
    "PlanarDiagram",
    "SeifertGraph",
    "PDParseError",
    "OpenDiagramError",
    "seifert_circles",
    "seifert_graph",
    "writhe",
    "component_count",
    "planarity_check",
    "parse_pd",
]


class Crossing(NamedTuple):
    """One crossing, ports named by strand role."""

    sign: int
    under_in: int
    over_in: int
    under_out: int
    over_out: int

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return tuple(self)


class PlanarDiagram:
    """A closed oriented diagram: crossings plus crossing-free circles."""

    __slots__ = ("crossings", "free_loops", "arcs")

    def __init__(self, crossings: Iterable[Crossing], free_loops: int = 0) -> None:
        self.crossings = tuple(crossings)
        self.free_loops = int(free_loops)
        if self.free_loops < 0:
            raise ValueError("free loop count cannot be negative")
        ins: list[int] = []
        outs: list[int] = []
        for c in self.crossings:
            if c.sign not in (1, -1):
                raise ValueError(f"crossing sign must be +1 or -1, got {c.sign}")
            ins += [c.under_in, c.over_in]
            outs += [c.under_out, c.over_out]
        self.arcs = frozenset(ins)
        # both lists hold two arcs per crossing, so equal sets with no arc
        # consumed twice leave none produced twice either
        if len(self.arcs) != len(ins) or self.arcs != set(outs):
            raise OpenDiagramError(self.crossings)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PlanarDiagram)
            and self.crossings == other.crossings
            and self.free_loops == other.free_loops
        )

    def __repr__(self) -> str:
        return f"PlanarDiagram({len(self.crossings)} crossings, {self.free_loops} free loops)"


class OpenDiagramError(ValueError):
    """A PD code that does not close up; ``crossing`` indexes the one at fault."""

    def __init__(self, crossings: Sequence[Crossing]) -> None:
        message, self.crossing = next(_closure_faults(crossings))
        super().__init__(message)


def _closure_faults(crossings: Sequence[Crossing]) -> Iterator[tuple[str, int]]:
    """Each fault as (message, crossing index), searched for only once the
    constructor's set check has failed. Crossing by crossing, an arc consumed
    twice, then one produced twice; then each arc consumed but never produced.
    With no arc met twice, both arc sets have two arcs per crossing, so if
    they differ some arc is consumed but never produced."""
    consumer: dict[int, int] = {}
    producer: dict[int, int] = {}
    for k, c in enumerate(crossings):
        for arc in (c.under_in, c.over_in):
            if arc in consumer:
                yield f"arc {arc} consumed twice", k
            consumer[arc] = k
        for arc in (c.under_out, c.over_out):
            if arc in producer:
                yield f"arc {arc} produced twice", k
            producer[arc] = k
    for arc, k in consumer.items():
        if arc not in producer:
            yield f"arc {arc} is consumed but never produced", k


class SeifertGraph(NamedTuple):
    """Vertices are Seifert circles; one signed edge per crossing."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]  # (circle_a, circle_b, sign), a < b


def _union_find(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Root of each element 0..n-1 after joining every pair.

    Joining (a, b) hangs a's root under b's root, so the roots depend only on
    the order of the pairs; ``knitted.compile_diagram`` names arcs by them.
    """
    parent = list(range(n))
    for a, b in pairs:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
    for x in range(n):
        root = parent[x]
        while parent[root] != root:
            root = parent[root]
        parent[x] = root
    return parent


def seifert_circles(d: PlanarDiagram) -> tuple[int, dict[int, int]]:
    """Orientation-respecting smoothing of every crossing.

    The smoothing joins under_in with over_out and over_in with under_out at
    every crossing (both signs). Returns the circle count, including free
    loops, and the arc -> circle-id assignment, circles numbered 1.. in order
    of their smallest arc.
    """
    arcs = sorted(d.arcs)
    index = {a: i for i, a in enumerate(arcs)}
    roots = _union_find(
        len(arcs),
        (
            (index[a], index[b])
            for c in d.crossings
            for a, b in ((c.under_in, c.over_out), (c.over_in, c.under_out))
        ),
    )
    circle_of_root: dict[int, int] = {}
    assignment = {
        a: circle_of_root.setdefault(r, len(circle_of_root) + 1)
        for a, r in zip(arcs, roots)
    }
    return len(circle_of_root) + d.free_loops, assignment


def seifert_graph(d: PlanarDiagram) -> SeifertGraph:
    """One vertex per Seifert circle, one signed edge per crossing."""
    count, assignment = seifert_circles(d)
    edges = []
    for c in d.crossings:
        a = assignment[c.under_in]
        b = assignment[c.over_in]
        if a == b:
            raise ValueError(
                "crossing joins a Seifert circle to itself; "
                "the diagram cannot be a planar oriented diagram"
            )
        edges.append((min(a, b), max(a, b), c.sign))
    vertices = tuple(range(1, count + 1))  # free loops sit at the top ids
    return SeifertGraph(vertices, tuple(edges))


def writhe(d: PlanarDiagram) -> int:
    return sum(c.sign for c in d.crossings)


def component_count(d: PlanarDiagram) -> int:
    """Link components: orbits of arcs under through-strand continuation."""
    index: dict[int, int] = {}
    pairs = [
        (index.setdefault(a, len(index)), index.setdefault(b, len(index)))
        for c in d.crossings
        for a, b in ((c.under_in, c.under_out), (c.over_in, c.over_out))
    ]
    return len(set(_union_find(len(index), pairs))) + d.free_loops


def _genus_zero(rotations: Sequence[Sequence[int]], partner: Sequence[int]) -> bool:
    """True iff every connected component of a ribbon graph is planar.

    Half-edges are 0..len(partner)-1: ``rotations[v]`` lists those at vertex v
    counterclockwise and ``partner`` pairs them into edges. Faces are the
    orbits of h -> (the half-edge after partner[h] at its vertex). A
    component has V - E + F = 2 - 2g <= 2, so every component has genus 0
    iff V - E + F summed over the graph is twice the number of components.
    """
    after = [0] * len(partner)
    vertex = [0] * len(partner)
    for v, ring in enumerate(rotations):
        for k, h in enumerate(ring):
            after[h] = ring[(k + 1) % len(ring)]
            vertex[h] = v
    roots = _union_find(len(rotations), ((vertex[h], vertex[p]) for h, p in enumerate(partner)))
    faces = 0
    seen = [False] * len(partner)
    for start in range(len(partner)):
        if seen[start]:
            continue
        faces += 1
        h = start
        while not seen[h]:
            seen[h] = True
            h = after[partner[h]]
    return len(rotations) - len(partner) // 2 + faces == 2 * len(set(roots))


def planarity_check(d: PlanarDiagram) -> bool:
    """True iff every connected component embeds in the sphere (genus 0).

    The 4-valent ribbon graph has one vertex per crossing, with the fixed
    cyclic port order, and one edge per arc; half-edge 4i + k is port k of
    crossing i in the order (under_in, over_in, under_out, over_out). Free
    loops are trivially planar.
    """
    produced_at: dict[int, int] = {}
    for i, c in enumerate(d.crossings):
        produced_at[c.under_out] = 4 * i + 2
        produced_at[c.over_out] = 4 * i + 3
    partner = [0] * (4 * len(d.crossings))
    rotations = []
    for i, c in enumerate(d.crossings):
        for h, arc in ((4 * i, c.under_in), (4 * i + 1, c.over_in)):
            partner[h] = produced_at[arc]
            partner[produced_at[arc]] = h
        ports = (0, 1, 2, 3) if c.sign > 0 else (0, 3, 2, 1)
        rotations.append([4 * i + k for k in ports])
    return _genus_zero(rotations, partner)


def _split_components(crossings: Sequence[Crossing]) -> list[tuple[Crossing, ...]]:
    """Connected components of the crossing graph (arcs as adjacency).

    Components come in order of their first crossing, crossings in input order.
    """
    first_at: dict[int, int] = {}
    pairs = []
    for idx, (_, ui, oi, uo, oo) in enumerate(crossings):
        for a in (ui, oi, uo, oo):
            first = first_at.setdefault(a, idx)
            if first != idx:
                pairs.append((first, idx))
    groups: dict[int, list[Crossing]] = {}
    for c, root in zip(crossings, _union_find(len(crossings), pairs)):
        groups.setdefault(root, []).append(c)
    return [tuple(g) for g in groups.values()]


def _arc_table(crossings: Sequence[Crossing]) -> dict[int, tuple[int, int, int, int]]:
    """In-arc -> (crossing index, new-crossing token, next arc, other in-arc)."""
    table = {}
    for idx, (s, ui, oi, uo, oo) in enumerate(crossings):
        table[ui] = (idx, 2 * s, uo, oi)
        table[oi] = (idx, 2 * s + 1, oo, ui)
    return table


def _walk(
    table: Mapping[int, tuple[int, int, int, int]], start: int, order: list[int]
) -> Iterator[int]:
    """Token stream of the connected piece walked from in-arc ``start``.

    ``table`` maps each in-arc to (crossing, new-crossing token, next arc,
    other in-arc); it may cover other pieces too, which the walk never
    reaches. The walk follows orientation and yields one token per step:
    ``2*sign`` on meeting a crossing first by its under_in and ``2*sign+1``
    by its over_in, ``4 + rank`` on meeting it the second time, where rank is
    its place in first-meeting order, and -3, the least token, on closing a
    link component. It then restarts at the other in-arc of the first crossing
    in meeting order that was met only once, and ends when there is none.
    No token names an arc, so the stream fixes the piece up to relabelling.
    The crossings met are appended to ``order`` in first-meeting order.
    """
    # the unwalked in-arc of each crossing met once -> its second-meeting
    # token, in first-meeting order
    once: dict[int, int] = {}
    rank = 4  # the second-meeting token of the next new crossing
    base = a = start
    while True:
        c, new, nxt, other = table[a]
        token = once.pop(a, None)
        if token is None:
            once[other] = rank
            rank += 1
            order.append(c)
            yield new
        else:
            yield token
        a = nxt
        if a == base:
            yield -3
            # every crossing met twice has both out-arcs walked, so with none
            # met once the walk reaches nothing more: the piece is complete
            if not once:
                return
            base = a = next(iter(once))


def canonical_raw(crossings: Sequence[Crossing], free_loops: int) -> tuple:
    """Canonical form: sorted per-piece least token streams plus loop count.

    Each connected piece is keyed by the least of the streams ``_walk`` yields
    from its arcs. A stream opens with ``2*sign`` for a start at an under_in
    and ``2*sign+1`` at an over_in, so the least is reached only from the
    under_in of a crossing of the piece's smallest sign, and only those are
    walked. The first such walk runs to the end and finds the piece. The
    others then race it in lockstep, one token at a time: a walk drops out at
    its first token above the least at that position, and one that goes below
    takes the lead. Every stream of a piece has one token per arc and per
    link component, so the race ends with the piece's stream.
    ``len(key[0])`` is the number of pieces.
    """
    table = _arc_table(crossings)
    covered = [False] * len(crossings)
    streams = []
    for low in (-1, 1):
        for idx, c in enumerate(crossings):
            if c[0] != low or covered[idx]:
                continue
            # Each first walk covers its whole piece, so idx is the first
            # crossing of its piece in sign order: an earlier one would have
            # been walked or covered, and either way idx would be covered now.
            # Negative crossings come first, so idx has its piece's smallest
            # sign, and the walk from its under_in is a candidate walk.
            piece: list[int] = []
            first = list(_walk(table, c[1], piece))
            live: list[Iterator[int]] = [iter(first)]
            for j in piece:
                covered[j] = True
                if j != idx and crossings[j][0] == low:
                    live.append(_walk(table, crossings[j][1], []))
            stream: list[int] = []
            # bounded by the length, since next() on a spent walk would end map()
            while len(live) > 1 and len(stream) < len(first):
                tokens = list(map(next, live))
                least = min(tokens)
                stream.append(least)
                if tokens.count(least) < len(tokens):
                    live = [w for w, t in zip(live, tokens) if t == least]
            stream.extend(live[0])
            streams.append(tuple(stream))
    return (tuple(sorted(streams)), free_loops)


class PDParseError(ValueError):
    """Parse failure with a line/column position."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


_TOKEN = re.compile(
    r"X\s*\[\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*;\s*([+-])\s*\]|O",
    re.ASCII,
)
_SPACE = re.compile(r"\s+", re.ASCII)


def parse_pd(text: str) -> PlanarDiagram:
    """Parse the PD text format: "X[a,b,c,d;+]" per crossing, "O" per circle.

    The bracket lists (under_in, over_in, under_out, over_out). The format is
    ASCII: digits and whitespace outside ASCII are rejected. Whitespace is
    free between tokens. An error names the line and column of the offending
    token, found for that token only, so parsing is linear in the text.
    """

    def where(offset: int) -> tuple[int, int]:
        line = text.count("\n", 0, offset) + 1
        col = offset - (text.rfind("\n", 0, offset) + 1) + 1
        return line, col

    crossings: list[Crossing] = []
    offsets: list[int] = []  # where each crossing's token starts
    free_loops = 0
    i = 0
    while i < len(text):
        space = _SPACE.match(text, i)
        if space:
            i = space.end()
            continue
        m = _TOKEN.match(text, i)
        if not m:
            line, col = where(i)
            raise PDParseError(f"expected 'X[a,b,c,d;+|-]' or 'O', found {text[i]!r}", line, col)
        if m.group(0) == "O":
            free_loops += 1
        else:
            a, b, c, dd = (int(m.group(k)) for k in range(1, 5))
            sign = 1 if m.group(5) == "+" else -1
            crossings.append(Crossing(sign, a, b, c, dd))
            offsets.append(i)
        i = m.end()
    try:
        return PlanarDiagram(crossings, free_loops)
    except OpenDiagramError as exc:
        raise PDParseError(str(exc), *where(offsets[exc.crossing])) from None
