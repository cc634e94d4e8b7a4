"""knitweave: exact framed HOMFLY polynomials of braid closures and knitted diagrams.

The package is organized into small, pure layers:

- ``laurent``: exact Laurent polynomials in ``z`` and in ``(v, z)`` over the
  integers, the value ring of every invariant computed here.
- ``braid``: braid words, symmetric-group combinatorics, half- and full-twist
  words.
- ``hecke``: the type-A Hecke algebra over ``Z[z, z^-1]`` with the positive and
  negative permutation-braid bases, and the strand-closing kernel of its
  Markov trace.
- ``diagram``: oriented link diagrams as PD codes, Seifert circles,
  planarity verification.
- ``skein``: framed and unframed HOMFLY evaluation by skein recursion with a
  descending-diagram base case.
- ``knitted``: knitted templates and diagrams, compiled to PD codes (a braid
  closure is the one-box case), full-twist insertion, the Hecke-expansion
  evaluation path (the Markov trace for a closed braid), and the full-twist
  theorem verifier.
- ``cli``: the ``knitweave`` command-line front end.
"""

from knitweave.braid import BraidWord, full_twist_word, half_twist_word
from knitweave.diagram import PlanarDiagram
from knitweave.hecke import HeckeElement, convert, expand_word, top_coeff
from knitweave.knitted import (
    KnittedDiagram,
    KnittedTemplate,
    braid_closure,
    braid_closure_knitted,
    compile_diagram,
    eval_hecke,
    extreme_minus_fast,
    from_bipartite_graph,
    ft,
    verify_theorem,
)
from knitweave.laurent import LaurentVZ, LaurentZ, delta_pow
from knitweave.skein import homfly_framed, homfly_unframed

__all__ = [
    "BraidWord",
    "HeckeElement",
    "KnittedDiagram",
    "KnittedTemplate",
    "LaurentVZ",
    "LaurentZ",
    "PlanarDiagram",
    "braid_closure",
    "braid_closure_knitted",
    "compile_diagram",
    "convert",
    "delta_pow",
    "eval_hecke",
    "expand_word",
    "extreme_minus_fast",
    "from_bipartite_graph",
    "ft",
    "full_twist_word",
    "half_twist_word",
    "homfly_framed",
    "homfly_unframed",
    "top_coeff",
    "verify_theorem",
]
__version__ = "0.1.0"
