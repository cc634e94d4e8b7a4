"""A brute-force canonical memo key, used only as an oracle, and its inverse.

``brute_force_canonical`` walks every connected piece from every one of its
arcs and keeps the least stream, where ``diagram.canonical_raw`` walks only
the start arcs that can give it and drops each walk at its first losing
token. ``decode_piece`` rebuilds a piece from its stream.
"""

from __future__ import annotations

from knitweave.diagram import _arc_table, _split_components, _walk


def brute_force_canonical(crossings, free_loops: int) -> tuple:
    streams = []
    for piece in _split_components(crossings):
        table = _arc_table(piece)
        streams.append(min(tuple(_walk(table, a, [])) for a in table))
    return (tuple(sorted(streams)), free_loops)


def decode_piece(stream) -> tuple:
    """Crossings (sign, under_in, over_in, under_out, over_out) of a stream.

    Arc k is the in-arc of the k-th step that is not a close (-3); it is also
    the out-arc of the step before, and a close sends that out-arc back to
    its component's first arc. Crossings come in first-meeting order.
    """
    rows: list[list] = []
    entered: list[int] = []  # in-port (1 under_in, 2 over_in) of each first meeting
    base = None  # the first arc of the component being walked
    pending = None  # (row, out-port) that the next arc leaves from
    arc = 0
    for t in stream:
        if t == -3:
            row, port = pending
            row[port] = base
            base = pending = None
            continue
        if base is None:
            base = arc
        else:
            row, port = pending
            row[port] = arc
        if t >= 4:
            row, port = rows[t - 4], 3 - entered[t - 4]
        else:
            row, port = [1 if t >= 2 else -1, None, None, None, None], 1 + t % 2
            rows.append(row)
            entered.append(port)
        row[port] = arc
        pending = (row, port + 2)
        arc += 1
    return tuple(tuple(row) for row in rows)
