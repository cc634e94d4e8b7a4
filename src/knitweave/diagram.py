"""Oriented link diagrams as PD codes.

A crossing is a record (sign, under_in, over_in, under_out, over_out) of arc
identifiers; arcs are directed, each produced by exactly one out-port and
consumed by exactly one in-port. Crossing-free circles are counted in
``free_loops``. Signs are carried explicitly and validated rather than
inferred from port order: sign bugs are the dominant failure mode in skein
code.

The cyclic port order used for face tracing is fixed as
(under_in, over_in, under_out, over_out) counterclockwise at positive
crossings and the mirrored order (under_in, over_out, under_out, over_in) at
negative ones. Switching a crossing's sign permutes roles consistently with
this convention, so the rotation system survives skein moves.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from knitweave.braid import BraidWord

__all__ = [
    "Crossing",
    "PlanarDiagram",
    "SeifertGraph",
    "PDParseError",
    "braid_closure",
    "seifert_circles",
    "seifert_graph",
    "writhe",
    "component_count",
    "planarity_check",
    "canonical_key",
    "parse_pd",
    "format_pd",
]


@dataclass(frozen=True)
class Crossing:
    """One crossing, ports named by strand role."""

    sign: int
    under_in: int
    over_in: int
    under_out: int
    over_out: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"crossing sign must be +1 or -1, got {self.sign}")

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.sign, self.under_in, self.over_in, self.under_out, self.over_out)


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
            ins += [c.under_in, c.over_in]
            outs += [c.under_out, c.over_out]
        if len(set(ins)) != len(ins):
            raise ValueError("an arc is consumed by more than one in-port")
        if len(set(outs)) != len(outs):
            raise ValueError("an arc is produced by more than one out-port")
        if set(ins) != set(outs):
            stray = set(ins) ^ set(outs)
            raise ValueError(f"diagram is not closed; unmatched arcs {sorted(stray)}")
        self.arcs = frozenset(ins)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PlanarDiagram)
            and self.crossings == other.crossings
            and self.free_loops == other.free_loops
        )

    def __repr__(self) -> str:
        return f"PlanarDiagram({len(self.crossings)} crossings, {self.free_loops} free loops)"

    def raw(self) -> tuple[tuple[tuple[int, int, int, int, int], ...], int]:
        return (tuple(c.as_tuple() for c in self.crossings), self.free_loops)


@dataclass(frozen=True)
class SeifertGraph:
    """Vertices are Seifert circles; one signed edge per crossing."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]  # (circle_a, circle_b, sign), a < b


def braid_closure(word: BraidWord) -> PlanarDiagram:
    """PD code of the standard closure of a braid word."""
    n = word.strands
    cur = list(range(1, n + 1))
    fresh = n
    crossings: list[Crossing] = []
    for g in word.letters:
        i = abs(g)
        a, b = cur[i - 1], cur[i]  # left and right inputs
        p, q = fresh + 1, fresh + 2  # left and right outputs
        fresh += 2
        if g > 0:
            crossings.append(Crossing(1, under_in=b, over_in=a, under_out=p, over_out=q))
        else:
            crossings.append(Crossing(-1, under_in=a, over_in=b, under_out=q, over_out=p))
        cur[i - 1], cur[i] = p, q
    free_loops = 0
    relabel: dict[int, int] = {}
    for j in range(n):
        end, start = cur[j], j + 1
        if end == start:
            free_loops += 1  # untouched strand closes to a circle
        else:
            relabel[end] = start
    if relabel:
        crossings = [
            Crossing(
                c.sign,
                relabel.get(c.under_in, c.under_in),
                relabel.get(c.over_in, c.over_in),
                relabel.get(c.under_out, c.under_out),
                relabel.get(c.over_out, c.over_out),
            )
            for c in crossings
        ]
    return PlanarDiagram(crossings, free_loops)


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
    raw, free_loops = d.raw()
    return _link_components(raw) + free_loops


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


RawCrossing = tuple[int, int, int, int, int]


def _split_components(
    crossings: Sequence[RawCrossing],
) -> list[tuple[RawCrossing, ...]]:
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
    groups: dict[int, list[RawCrossing]] = {}
    for c, root in zip(crossings, _union_find(len(crossings), pairs)):
        groups.setdefault(root, []).append(c)
    return [tuple(g) for g in groups.values()]


def _link_components(crossings: Sequence[RawCrossing]) -> int:
    """Link components of a crossing list: arcs joined through each crossing."""
    index: dict[int, int] = {}
    pairs = [
        (index.setdefault(a, len(index)), index.setdefault(b, len(index)))
        for _, ui, oi, uo, oo in crossings
        for a, b in ((ui, uo), (oi, oo))
    ]
    return len(set(_union_find(len(index), pairs)))


def _encode_from(
    crossings: Sequence[RawCrossing],
    consumer: Mapping[int, tuple[int, bool]],
    start: int,
) -> tuple:
    """Structural encoding of a connected piece walked from a given arc.

    ``consumer`` maps each arc to (crossing index, consumed by under_in). Arcs
    are relabeled 0, 1, ... in discovery order along the oriented walk, so
    ``start`` gets label 0 and the encoding opens with the tuple of its
    consumer. When a link-component walk closes, the next start is the first
    unlabeled arc in crossing-encounter order, scanning ports in the fixed
    role order. The encoding determines the crossing list up to arc
    relabeling.
    """
    label: dict[int, int] = {}
    order: list[int] = []  # crossing indices in first-encounter order
    total_arcs = len(consumer)
    cursor = 0  # crossings of order before this one have every arc labelled
    a = start
    n = 0
    while True:
        label[a] = n
        n += 1
        idx, under = consumer[a]
        c = crossings[idx]
        # a crossing is met first on whichever in-arc is labelled first
        if (c[2] if under else c[1]) not in label:
            order.append(idx)
        a = c[3] if under else c[4]
        if a in label:
            if n == total_arcs:
                break
            # walk closed; restart from the first unlabeled arc in structural
            # order. Labels are never removed, so the scan resumes at cursor.
            while all(x in label for x in crossings[order[cursor]][1:]):
                cursor += 1
            a = next(x for x in crossings[order[cursor]][1:] if x not in label)
    body = []
    for idx in order:
        s, ui, oi, uo, oo = crossings[idx]
        body.append((s, label[ui], label[oi], label[uo], label[oo]))
    return tuple(body)


def _canonical_component(crossings: Sequence[RawCrossing]) -> tuple:
    """Minimal encoding of one connected piece over all its start arcs.

    Only the start arcs that can give the minimum are walked: one per
    crossing of the smallest sign present, so a piece with exactly one
    negative crossing is walked once.
    """
    consumer: dict[int, tuple[int, bool]] = {}
    for idx, (_, ui, oi, _uo, _oo) in enumerate(crossings):
        consumer[ui] = (idx, True)
        consumer[oi] = (idx, False)
    # The start arc gets label 0 and the encoding opens with the tuple of its
    # consumer, (sign, label[ui], label[oi], ...). A start at an under_in
    # gives (s, 0, ...); a start at an over_in gives (s, >=1, 0, ...) because
    # ui != oi. Tuples compare by sign first, so the minimum over all arcs is
    # always reached from the under_in of a crossing of the smallest sign.
    low = min(c[0] for c in crossings)
    return min(_encode_from(crossings, consumer, c[1]) for c in crossings if c[0] == low)


def canonical_raw(
    crossings: Sequence[RawCrossing], free_loops: int
) -> tuple:
    """Canonical form: sorted per-component minimal encodings plus loop count.

    Each connected piece is walked only from the start arcs that can give
    its minimal encoding (see ``_canonical_component``); ``len(key[0])`` is
    the number of pieces.
    """
    comps = _split_components(crossings)
    return (tuple(sorted(_canonical_component(c) for c in comps)), free_loops)


def canonical_key(d: PlanarDiagram) -> tuple:
    """A relabeling-invariant key; equal iff the diagrams are isomorphic."""
    raw, loops = d.raw()
    return canonical_raw(raw, loops)


class PDParseError(ValueError):
    """Parse failure with a line/column position."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


_TOKEN = re.compile(
    r"X\s*\[\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*;\s*([+-])\s*\]|O"
)


def parse_pd(text: str) -> PlanarDiagram:
    """Parse the PD text format: "X[a,b,c,d;+]" per crossing, "O" per circle.

    The bracket lists (under_in, over_in, under_out, over_out). Whitespace is
    free between tokens; invariant violations are reported with the position
    of the offending token.
    """

    def where(offset: int) -> tuple[int, int]:
        line = text.count("\n", 0, offset) + 1
        col = offset - (text.rfind("\n", 0, offset) + 1) + 1
        return line, col

    crossings: list[Crossing] = []
    positions: list[tuple[int, int]] = []
    free_loops = 0
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
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
            positions.append(where(i))
        i = m.end()

    seen_in: dict[int, int] = {}
    seen_out: dict[int, int] = {}
    for k, c in enumerate(crossings):
        for arc in (c.under_in, c.over_in):
            if arc in seen_in:
                line, col = positions[k]
                raise PDParseError(f"arc {arc} consumed twice", line, col)
            seen_in[arc] = k
        for arc in (c.under_out, c.over_out):
            if arc in seen_out:
                line, col = positions[k]
                raise PDParseError(f"arc {arc} produced twice", line, col)
            seen_out[arc] = k
    for arc, k in seen_in.items():
        if arc not in seen_out:
            line, col = positions[k]
            raise PDParseError(f"arc {arc} is consumed but never produced", line, col)
    for arc, k in seen_out.items():
        if arc not in seen_in:
            line, col = positions[k]
            raise PDParseError(f"arc {arc} is produced but never consumed", line, col)
    return PlanarDiagram(crossings, free_loops)


def format_pd(d: PlanarDiagram) -> str:
    parts = [
        f"X[{c.under_in},{c.over_in},{c.under_out},{c.over_out};{'+' if c.sign > 0 else '-'}]"
        for c in d.crossings
    ]
    parts += ["O"] * d.free_loops
    return " ".join(parts)
