"""A brute-force canonical memo key, used only as an oracle.

Encodes every connected piece from every one of its arcs and keeps the
minimum, where ``diagram.canonical_raw`` walks only the start arcs that can
give that minimum.
"""

from __future__ import annotations

from knitweave.diagram import _encode_from, _split_components


def brute_force_canonical(crossings, free_loops: int) -> tuple:
    encodings = []
    for piece in _split_components(crossings):
        consumer = {}
        for idx, (_, ui, oi, _uo, _oo) in enumerate(piece):
            consumer[ui] = (idx, True)
            consumer[oi] = (idx, False)
        encodings.append(min(_encode_from(piece, consumer, a) for a in consumer))
    return (tuple(sorted(encodings)), free_loops)
