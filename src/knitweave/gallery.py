"""Bundled sample inputs used by the docs, the tests, and CLI demos."""

from __future__ import annotations

import json
from pathlib import Path

from knitweave.braid import BraidWord
from knitweave.knitted import KnittedDiagram, KnittedTemplate, knitted_to_json

__all__ = ["showcase_knot", "write_showcase_json"]


def showcase_knot() -> KnittedDiagram:
    """A 12-crossing knot knitted from six braid boxes.

    Two 3-strand boxes (0 and 1) sit on a central axis and four 2-strand
    boxes (2..5) hang off them in the four quadrants; seven Seifert circles
    thread the boxes. This is the running example for the full-twist
    formula: its extreme coefficients are 2 + 3z^2 + z^4 on both sides.
    """
    wiring = (
        ((0, 2), (2, 1)),
        ((2, 0), (4, 0)),
        ((4, 1), (1, 2)),
        ((1, 2), (4, 1)),
        ((4, 0), (2, 0)),
        ((2, 1), (0, 2)),
        ((0, 0), (3, 0)),
        ((3, 1), (5, 1)),
        ((5, 0), (1, 0)),
        ((1, 0), (5, 0)),
        ((5, 1), (3, 1)),
        ((3, 0), (0, 0)),
        ((0, 1), (1, 1)),
        ((1, 1), (0, 1)),
    )
    template = KnittedTemplate((3, 3, 2, 2, 2, 2), wiring)
    words = (
        BraidWord(3, (2, 1, 2, 1)),
        BraidWord(3, (2, 2, -1, -1)),
        BraidWord(2, (1,)),
        BraidWord(2, (1,)),
        BraidWord(2, (1,)),
        BraidWord(2, (1,)),
    )
    return KnittedDiagram(template, words)


def write_showcase_json(path: str | Path) -> Path:
    """Write the showcase knot in the knitted JSON format; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(knitted_to_json(showcase_knot()), indent=2) + "\n")
    return path
