"""Knitted templates and diagrams.

A knitted template is a set of braid boxes (only their strand counts matter)
together with a crossing-free wiring: a bijection from box outputs to box
inputs. Filling each box with a braid word gives a knitted diagram; every
crossing of the compiled link diagram lives inside some box.

A template is in the paper's class when:

- the wiring is a perfect matching of outputs to inputs,
- the wiring is realizable in the plane with the boxes as obstacles
  (checked on the ribbon graph whose vertices are boxes with port rotation
  in_0 ... in_{n-1}, out_{n-1} ... out_0 counterclockwise),
- no Seifert circle passes through the same box twice,
- no two Seifert circles share two or more boxes.

The last two conditions are what makes the full-twist formula work: adjacent
strands inside a box lie on distinct circles that meet nowhere else, so a
reduced negative (or positive) permutation braid in a box leaves a
single-crossing circle pair that kills the corresponding extreme coefficient.

Planarity implies the third condition. Fill every box with the identity
word, so that strand p runs straight up from in_p to out_p: the port
rotation puts out_p above in_p, and a planar wiring draws the Seifert
circles as disjoint simple closed curves on the sphere, each passing upward
through every box it meets. Suppose a circle C passes through a box twice,
and take two of its passes, at positions p < q, with no pass of C between
them. The horizontal segment across the box from the first pass to the
second meets only strands of other circles, so its interior misses C. By
the Jordan curve theorem the complement of C has two regions, and the
oriented curve has one of them on its left and the other on its right all
along. Both passes run upward, so the segment leaves the pass at p on its
right side and reaches the pass at q from its left side: it joins the two
regions without meeting C, which is impossible. So the "twice" check never
rejects a planar wiring. The sampler refuses most random wirings by it:
``_shuffles`` at their first same-box wire, ``_repeats_a_box`` the rest, and
``_failures`` reads it off the circles it lists, before the ribbon trace runs.

``validate(boxes, wiring)`` alone decides the class and reports the failed
conditions as data, checking those after the matching on the flat permutation
the sampler draws. ``KnittedTemplate`` raises its report as ``TemplateError``,
so a template that exists is in the class and nothing downstream checks again.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass
from operator import index
from random import Random
from typing import Iterator, NamedTuple, Sequence

from knitweave.braid import (
    BraidWord,
    full_twist_word,
    half_twist_word,
    identity_perm,
    reduced_word,
)
from knitweave.diagram import (
    Crossing,
    PlanarDiagram,
    _genus_zero,
    _union_find,
)
from knitweave.hecke import (
    MAX_TERMS,
    _close_last,
    _expand_vz,
    _flip,
    expand_word,
    top_coeff,
)
from knitweave.laurent import LaurentVZ, LaurentZ, _add_vz, delta_pow
from knitweave.skein import _framed

__all__ = [
    "Endpoint",
    "KnittedTemplate",
    "KnittedDiagram",
    "ValidationReport",
    "TemplateError",
    "TheoremReport",
    "PlaneBipartiteGraph",
    "validate",
    "seifert_count",
    "compile_diagram",
    "ft",
    "eval_hecke",
    "extreme_minus_fast",
    "verify_theorem",
    "from_bipartite_graph",
    "braid_closure_template",
    "braid_closure_knitted",
    "braid_closure",
    "knitted_to_json",
    "knitted_from_json",
    "random_template",
    "random_knitted",
]

# an endpoint is (box index, position); inputs and outputs are kept in
# separate maps so the pair type stays flat
Endpoint = tuple[int, int]


@dataclass(frozen=True)
class KnittedTemplate:
    """Braid boxes plus a wiring bijection from outputs to inputs.

    Construction hands every condition to ``validate``, so a template that
    exists is in the paper's class; one outside it raises ``TemplateError``.
    Strand counts and endpoints are integers: a float or a string raises TypeError.
    """

    boxes: tuple[int, ...]
    wiring: tuple[tuple[Endpoint, Endpoint], ...]  # ((out box, pos), (in box, pos))

    def __post_init__(self) -> None:
        boxes, wiring = _integers(self.boxes, self.wiring)
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "wiring", wiring)
        if not (report := validate(boxes, wiring)).ok:
            raise TemplateError(report)


@dataclass(frozen=True)
class KnittedDiagram:
    """A template with a braid word filled into each box."""

    template: KnittedTemplate
    words: tuple[BraidWord, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "words", tuple(self.words))
        if len(self.words) != len(self.template.boxes):
            raise ValueError("one word per box is required")
        for w, n in zip(self.words, self.template.boxes):
            if w.strands != n:
                raise ValueError(
                    f"word on {w.strands} strands placed in a {n}-strand box"
                )


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple[str, ...] = ()


class TemplateError(ValueError):
    def __init__(self, report: ValidationReport) -> None:
        super().__init__("invalid knitted template: " + "; ".join(report.failures))
        self.report = report


def _integers(
    boxes: Sequence[int], wiring: Sequence[tuple[Endpoint, Endpoint]]
) -> tuple[tuple[int, ...], tuple[tuple[Endpoint, Endpoint], ...]]:
    """Strand counts and the sorted wiring as ints; a float or a string raises TypeError."""
    pairs = (((index(ob), index(op)), (index(ib), index(ip))) for (ob, op), (ib, ip) in wiring)
    return tuple(map(index, boxes)), tuple(sorted(pairs))


def _flat(
    boxes: Sequence[int], wiring: Sequence[tuple[Endpoint, Endpoint]]
) -> tuple[list[int], list[int]]:
    """The wiring as a permutation of flat endpoint indices, and each index's box.

    Position p of box b is index offset[b] + p, as an output and as an input
    alike, so ``nxt[i]`` is the input that output i is wired to and, with
    identity braids, also the output the strand leaves by. The order of the
    wiring pairs does not matter.
    """
    offset = list(itertools.accumulate(boxes, initial=0))
    nxt = [0] * offset[-1]
    for (ob, op), (ib, ip) in wiring:
        nxt[offset[ob] + op] = offset[ib] + ip
    return nxt, [b for b, n in enumerate(boxes) for _ in range(n)]


def _circles(nxt: Sequence[int], box_of: Sequence[int]) -> list[list[int]]:
    """Seifert circles of the wiring: each is the list of boxes it visits.

    The circles are the cycles of the flat permutation ``nxt`` (see
    ``_flat``), numbered by their smallest index.
    """
    seen = bytearray(len(nxt))
    circles: list[list[int]] = []
    for start in range(len(nxt)):
        if seen[start]:
            continue
        visits: list[int] = []
        i = start
        while not seen[i]:
            seen[i] = 1
            i = nxt[i]
            visits.append(box_of[i])
        circles.append(visits)
    return circles


def _repeats_a_box(nxt: Sequence[int], box_of: Sequence[int]) -> bool:
    """Whether a Seifert circle passes through a box twice: each cycle of
    ``nxt`` is walked with a bitmask of the boxes it has met, to the first
    repeat. The sampler asks it only of the tries ``_shuffles`` kept."""
    seen = bytearray(len(nxt))
    for start in range(len(nxt)):
        met = 0
        i = start
        while not seen[i]:
            seen[i] = 1
            i = nxt[i]
            bit = 1 << box_of[i]
            if met & bit:
                return True
            met |= bit
    return False


def _ribbon_planar(boxes: Sequence[int], nxt: Sequence[int]) -> bool:
    """Genus-0 test for the box-and-wire ribbon graph of the wiring ``nxt``.

    Each box is a vertex with counterclockwise port rotation
    (in_0, ..., in_{n-1}, out_{n-1}, ..., out_0); each wire is an edge.
    Input i of ``_flat`` is half-edge i and output i is half-edge len(nxt) + i.
    """
    m = len(nxt)
    partner = [0] * m + list(nxt)
    for i, j in enumerate(nxt):
        partner[j] = m + i
    at = list(itertools.accumulate(boxes, initial=0))
    rotations = [[*range(a, b), *reversed(range(m + a, m + b))] for a, b in zip(at, at[1:])]
    return _genus_zero(rotations, partner)


def _matching_failures(
    boxes: Sequence[int], wiring: Sequence[tuple[Endpoint, Endpoint]]
) -> Iterator[str]:
    """The failure of the first stage, if any: no box, a box of no strand, or
    a wiring that is not a perfect matching of the box outputs to the inputs.

    The count is checked first, so a box of a huge strand count is refused
    without listing its endpoints.
    """
    if not boxes:
        yield "a template needs at least one box"
    elif min(boxes) < 1:
        yield "every box needs at least one strand"
    elif len(wiring) != sum(boxes):
        yield "wiring must use every box output exactly once"
    else:
        # with the count right, a wiring that reaches every endpoint reaches each once
        expected = {(b, p) for b, n in enumerate(boxes) for p in range(n)}
        if {src for src, _ in wiring} != expected:
            yield "wiring must use every box output exactly once"
        elif {dst for _, dst in wiring} != expected:
            yield "wiring must use every box input exactly once"


def _failures(
    boxes: Sequence[int], nxt: Sequence[int], box_of: Sequence[int]
) -> Iterator[str]:
    """Each failed condition after the first stage, lazily and cheapest first.

    ``nxt`` and ``box_of`` are the flat wiring permutation of ``_flat``, as
    the sampler draws it. Almost every random wiring already fails a circle
    check, so the ribbon face trace runs last. One walk lists the circles,
    and each circle's list gives its repeated boxes, which planarity rules
    out (see the module docstring), and its set of boxes. The template is
    checked before the CLI's strand limit, so no step is quadratic in the
    strands of one box: circles that share two boxes are found through the
    pairs of boxes each one meets, not by comparing every pair of circles.
    """
    incidence: list[set[int]] = []
    on_pair: dict[tuple[int, int], list[int]] = {}
    for circle, visits in enumerate(_circles(nxt, box_of)):
        incidence.append(met := set(visits))
        if len(met) < len(visits):
            dups = sorted(b for b, count in Counter(visits).items() if count > 1)
            yield f"circle {circle} passes through box(es) {dups} more than once"
        for pair in itertools.combinations(sorted(met), 2):
            on_pair.setdefault(pair, []).append(circle)
    sharing = {ij for on in on_pair.values() for ij in itertools.combinations(on, 2)}
    for i, j in sorted(sharing):
        yield f"circles {i} and {j} share boxes {sorted(incidence[i] & incidence[j])}"
    if not _ribbon_planar(boxes, nxt):
        yield "wiring is not realizable in the plane around the boxes"


def validate(
    boxes: Sequence[int], wiring: Sequence[tuple[Endpoint, Endpoint]]
) -> ValidationReport:
    """Check all template conditions; failures are data, not exceptions.

    The one decider of the class: ``KnittedTemplate`` raises this report.
    Strand counts and endpoints are integers. No box, a box of no strand, or
    a wiring that is not a perfect matching is the one failure reported; the
    other conditions are checked only past them, on ``_flat``'s permutation.
    """
    boxes, wiring = _integers(boxes, wiring)
    failures = tuple(_matching_failures(boxes, wiring))
    failures = failures or tuple(_failures(boxes, *_flat(boxes, wiring)))
    return ValidationReport(not failures, failures)


def seifert_count(t: KnittedTemplate) -> int:
    """Number of Seifert circles of any diagram on this template."""
    return len(_circles(*_flat(t.boxes, t.wiring)))


def _word_crossings(letters: Sequence[int], cur: list[int], fresh: int) -> list[Crossing]:
    """Crossings of a braid word as plain tuples, one per letter, read from the bottom.

    ``cur`` holds the arc on each strand position and is advanced in place.
    The left and right outputs of the k-th letter are new arcs fresh + 2k
    and fresh + 2k + 1. Letter +i carries the strand at position i over the
    one at i + 1, letter -i carries it under; either way the two swap.
    """
    raw: list[Crossing] = []
    for g in letters:
        i = abs(g)
        left, right = cur[i - 1], cur[i]
        p, q = fresh, fresh + 1
        fresh += 2
        raw.append((1, right, left, p, q) if g > 0 else (-1, left, right, q, p))
        cur[i - 1], cur[i] = p, q
    return raw


class _Fragment(NamedTuple):
    """One box's word as crossings on the template's wire ids.

    On each position the word touches, the first arc is the input wire and
    the last the output wire; the arcs between are fresh, numbered from the
    wire count up, two per letter (``arcs`` in all). ``merges`` pairs the
    input and output wires of each untouched position, in position order.
    """

    crossings: tuple[tuple[int, int, int, int, int], ...]
    merges: tuple[tuple[int, int], ...]
    arcs: int


def _box_wires(t: KnittedTemplate) -> list[tuple[list[int], list[int]]]:
    """Per box, the wire ids into and out of each position; wire i is
    ``t.wiring[i]``."""
    ins = [[0] * n for n in t.boxes]
    outs = [[0] * n for n in t.boxes]
    for w_id, ((ob, op), (ib, ip)) in enumerate(t.wiring):
        outs[ob][op] = w_id
        ins[ib][ip] = w_id
    return list(zip(ins, outs))


def _fragment(
    wires: tuple[list[int], list[int]], letters: Sequence[int], n_wires: int
) -> _Fragment:
    """The fragment of one box: its word's crossings with the wires joined on."""
    ins, outs = wires
    cur = list(ins)
    raw = _word_crossings(letters, cur, n_wires)
    # the last arc on a touched position is the wire it leaves the box on
    last = {a: outs[p] for p, a in enumerate(cur) if a >= n_wires}
    crossings = tuple(
        (s, ui, oi, last.get(uo, uo), last.get(oo, oo)) for s, ui, oi, uo, oo in raw
    )
    merges = tuple((a, outs[p]) for p, a in enumerate(cur) if a < n_wires)
    return _Fragment(crossings, merges, 2 * len(letters))


def _assemble(n_wires: int, fragments: Sequence[_Fragment]) -> PlanarDiagram:
    """The PD code of the boxes' fragments joined along the wires.

    Wires joined through an untouched position are one arc, named by its
    union-find root. Each fragment's fresh arcs are shifted past those of the
    fragments before it, and the wire classes no crossing uses are free loops.
    """
    root = _union_find(n_wires, [m for f in fragments for m in f.merges])
    crossings: list[Crossing] = []
    fresh = n_wires
    for f in fragments:
        label = root + list(range(fresh, fresh + f.arcs))
        crossings += [
            Crossing(s, label[ui], label[oi], label[uo], label[oo])
            for s, ui, oi, uo, oo in f.crossings
        ]
        fresh += f.arcs
    used = {a for c in crossings for a in c[1:]}
    return PlanarDiagram(crossings, len(set(root) - used))


def _tuple_sum(boxes: Sequence[_Box]) -> LaurentVZ:
    """H of the boxes as a sum over the tuples of their basis terms.

    The boxes' wires are renamed 0, 1, ... in the order of their ids, and
    each basis term's reduced word becomes a fragment once. The sum nests
    box by box, in ``itertools.product`` order: each level adds its term's
    coefficient times the sum of the levels inside it, so a tuple costs one
    product, and the innermost assembles the chosen fragments (the boxes
    compiled with those words) and evaluates them by skein. A box of one
    term is a fixed fragment and a factor, so only boxes of two or more
    terms make a level, at most 15 under ``MAX_TERMS``. The tuples share
    only the skein memo, and none is checked for planarity: each has the
    box-and-wire ribbon of a template certified when it was built. Raises
    ValueError before the first tuple if there are more than MAX_TERMS.
    """
    name = {w: i for i, w in enumerate(sorted(w for b in boxes for w in b.ins))}
    n_wires = len(name)
    tuples = math.prod(len(b.terms) for b in boxes)
    if tuples > MAX_TERMS:
        raise ValueError(
            f"tuple sum over {tuples} tuples exceeds the limit of MAX_TERMS = {MAX_TERMS}"
        )
    if not tuples:
        return LaurentVZ()
    chosen: list[_Fragment] = []  # each box's fragment in the tuple at hand
    levels = []  # (box index, [(fragment, coefficient)]) per box of 2+ terms
    factor = {(0, 0): 1}  # the product of the one-term boxes' coefficients
    for i, b in enumerate(boxes):
        wires = [name[w] for w in b.ins], [name[w] for w in b.outs]
        terms = [
            (_fragment(wires, reduced_word(w).letters, n_wires), c)
            for w, c in sorted(b.terms.items())
        ]
        chosen.append(terms[0][0])
        if len(terms) > 1:
            levels.append((i, terms))
        else:
            prod: dict[tuple[int, int], int] = {}
            _add_vz(prod, factor, terms[0][1])
            factor = prod
    return LaurentVZ(factor) * LaurentVZ(_nest(levels, chosen, n_wires, 0))


def _nest(levels: list, chosen: list[_Fragment], n_wires: int, depth: int) -> dict:
    """The sum over the levels from ``depth`` in, the fragments outside as ``chosen``."""
    if depth == len(levels):
        return _framed(_assemble(n_wires, chosen)).terms
    i, terms = levels[depth]
    total: dict[tuple[int, int], int] = {}
    for chosen[i], c in terms:
        _add_vz(total, c, _nest(levels, chosen, n_wires, depth + 1))
    return total


def compile_diagram(k: KnittedDiagram) -> PlanarDiagram:
    """PD code of the knitted diagram: box crossings joined per the wiring.

    Wire i of the sorted wiring is arc i, and wires joined through a box
    position no letter touches take their class's union-find root. Each
    box's word becomes a fragment whose fresh arcs follow the wires, box
    after box, two per letter; then the fragments are assembled.
    """
    t = k.template
    n_wires = len(t.wiring)
    return _assemble(
        n_wires,
        [
            _fragment(wires, word.letters, n_wires)
            for wires, word in zip(_box_wires(t), k.words)
        ],
    )


def ft(k: KnittedDiagram) -> KnittedDiagram:
    """Prefix every box word with the positive full twist on its strands.

    The full twist is central, so the insertion position does not matter.
    """
    words = tuple(
        full_twist_word(w.strands) + w for w in k.words
    )
    return KnittedDiagram(k.template, words)


def eval_hecke(k: KnittedDiagram) -> LaurentVZ:
    """H(k) through the Hecke expansion of every box word.

    Each box word is expanded in the positive permutation-braid basis, with
    coefficients in v and z, and ``_close_ends`` closes every box end wired
    to itself by a partial trace, which needs no diagram and no skein. A
    braid closure, the one-box template, closes completely: that is the
    Markov trace of the closed braid (Morton-Short, J. Algorithms 1990),
    the last strand closed until one is left, whose circle is the last of
    the diagram and counts 1. Any template whose boxes close one after
    another closes completely too. Whatever boxes remain are summed over the
    tuples of their basis terms by ``_tuple_sum``, with the closed scalar
    factored out. Either way the value agrees with evaluating the compiled
    diagram directly, and nothing is kept between calls.

    Raises ValueError when a Hecke expansion, a step of a closure, or the
    count of remaining tuples (the product of the remaining boxes' expansion
    sizes) exceeds ``hecke.MAX_TERMS``; the tuple count is checked before the
    first tuple is evaluated.
    """
    scalar, rest = _close_ends(_expanded(k))
    return scalar * _tuple_sum(rest) if rest else scalar


@dataclass
class _Box:
    """One box of a template under reduction.

    ``ins[p]`` and ``outs[p]`` are the ids of the wires into and out of
    position p; wire i is the template's ``wiring[i]``, and a dropped box has
    none. ``terms`` is the box element in the PPB basis, a map
    {perm: {(v-exponent, z-exponent): coefficient}}: an expanded word's
    coefficients hold v^0 only, and closing a strand brings in other powers.
    """

    ins: list[int]
    outs: list[int]
    terms: dict


def _expanded(k: KnittedDiagram) -> list[_Box]:
    """The boxes of k, each with its word expanded in the PPB basis."""
    return [
        _Box(ins, outs, _expand_vz(identity_perm(word.strands), word.letters, 0))
        for (ins, outs), word in zip(_box_wires(k.template), k.words)
    ]


def _close_ends(boxes: list[_Box]) -> tuple[LaurentVZ, list[_Box]]:
    """Close every box end wired to itself, until nothing changes.

    Returns the closed scalar and the boxes left, in their order; the boxes
    are changed in place. The rules:

    - a box whose output at its last position is wired to its own input
      there gets that strand closed by ``hecke._close_last``;
    - at its first position, by the same kernel conjugated by the flip
      w -> w0 w w0: turning the box over about its vertical axis makes its
      first strand the last and keeps every crossing sign;
    - a box of one strand is an identity carrying a scalar: its two wires
      are joined, which may wire another box's end to itself, and it is
      dropped. If it was wired to itself it is a circle split from the rest,
      which counts delta, but the last circle of the whole diagram counts 1.

    Why a closure is local: in the box rotation (in_0 ... in_(n-1),
    out_(n-1) ... out_0) the pairs in_(n-1)/out_(n-1) and out_0/in_0 are
    cyclically adjacent, so a wire joining either pair bounds an empty
    one-edge face of the planar template. There a positive crossing
    x sigma_(n-1) y, with x and y in H_(n-1), closes to a positive kink, and
    an idle strand to a split circle. Deleting that wire and position, or
    joining the two wires of a one-strand box, keeps the template in the
    class, so nothing is validated again.
    """
    dest = {w: b for b in boxes for w in b.ins}  # the box each wire enters
    left = len(boxes)
    scalar = LaurentVZ.one()
    todo = list(boxes)
    while todo:
        b = todo.pop()
        while len(b.ins) > 1:
            end = next((e for e in (-1, 0) if b.ins[e] == b.outs[e]), None)
            if end is None:
                break
            b.terms = _close_last(b.terms) if end else _flip(_close_last(_flip(b.terms)))
            del b.ins[end], b.outs[end]
        if len(b.ins) != 1:
            continue
        (w_in,), (w_out,) = b.ins, b.outs
        b.ins, b.outs = [], []
        left -= 1
        scalar = scalar * LaurentVZ(b.terms.get((1,), {}))
        if w_in != w_out:
            after = dest[w_out]
            after.ins[after.ins.index(w_out)] = w_in
            dest[w_in] = after
            todo.append(after)
        elif left:
            scalar = scalar * delta_pow(1)
    return scalar, [b for b in boxes if b.ins]


def extreme_minus_fast(k: KnittedDiagram) -> LaurentZ:
    """H- of the diagram by the product formula, without any skein recursion.

    H-(k) equals the product over boxes of the top (longest-element)
    coefficient of the half-twisted box word, times z^(1-s). Only the tuple
    of longest elements survives restriction to the bottom v-degree, because
    every other negative permutation braid leaves a circle pair with a single
    negative crossing inside its box.
    """
    s = seifert_count(k.template)
    prod = LaurentZ.one()
    for word in k.words:
        x = expand_word(half_twist_word(word.strands) + word)
        c = top_coeff(x)
        if not c:
            return LaurentZ.zero()
        prod = prod * c
    return prod.shifted(1 - s)


@dataclass(frozen=True)
class TheoremReport:
    """Outcome of checking H-(D) = (-1)^(s-1) H+(FT D) on one diagram."""

    seifert_count: int
    sign: int
    framed: LaurentVZ
    framed_ft: LaurentVZ
    h_minus: LaurentZ
    h_plus_ft: LaurentZ
    fast_h_minus: LaurentZ
    equality_holds: bool
    fast_matches: bool

    @property
    def passed(self) -> bool:
        return self.equality_holds and self.fast_matches


def _signed_gap(h_minus: LaurentZ, h_plus_ft: LaurentZ, sign: int) -> LaurentZ:
    """H-(D) minus sign times H+(FT D): zero exactly when the equality holds."""
    return h_minus - sign * h_plus_ft


def verify_theorem(k: KnittedDiagram) -> TheoremReport:
    """Full check of the signed full-twist equality on one knitted diagram."""
    s = seifert_count(k.template)
    h = eval_hecke(k)
    h_ft = eval_hecke(ft(k))
    h_minus = h.coeff_of_v(1 - s)
    h_plus_ft = h_ft.coeff_of_v(s - 1)
    sign = -1 if (s - 1) % 2 else 1
    fast = extreme_minus_fast(k)
    return TheoremReport(
        seifert_count=s,
        sign=sign,
        framed=h,
        framed_ft=h_ft,
        h_minus=h_minus,
        h_plus_ft=h_plus_ft,
        fast_h_minus=fast,
        equality_holds=not _signed_gap(h_minus, h_plus_ft, sign),
        fast_matches=(fast == h_minus),
    )


@dataclass(frozen=True)
class PlaneBipartiteGraph:
    """A simple connected bipartite graph with a planar rotation system.

    ``rotations[v]`` lists the indices of the edges incident to vertex v in
    counterclockwise order around v.
    """

    n_vertices: int
    edges: tuple[tuple[int, int], ...]
    rotations: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_vertices", index(self.n_vertices))
        object.__setattr__(self, "edges", tuple(tuple(map(index, e)) for e in self.edges))
        object.__setattr__(self, "rotations", tuple(tuple(map(index, r)) for r in self.rotations))
        if len(self.rotations) != self.n_vertices:
            raise ValueError("one rotation per vertex is required")
        seen = set()
        incident: list[list[int]] = [[] for _ in self.rotations]  # in edge order
        for i, (u, v) in enumerate(self.edges):
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range")
            key = frozenset((u, v))
            if key in seen:
                raise ValueError(f"repeated edge between {u} and {v}")
            seen.add(key)
            incident[u].append(i)
            incident[v].append(i)
        for v, rot in enumerate(self.rotations):
            if sorted(rot) != incident[v]:
                raise ValueError(
                    f"rotation at vertex {v} must permute its incident edges {incident[v]}"
                )

    def bipartition(self) -> tuple[set[int], set[int]]:
        """Two-colour the graph; raises on odd cycles or disconnection.

        Vertex n + v stands for "the colour v does not have", so each edge
        joins each end to the other end's stand-in. An odd cycle through
        vertex 0's component puts 0 and n in one class; otherwise the classes
        of 0 and n are the two parts, and a vertex in neither is unreachable.
        """
        n = self.n_vertices
        root = _union_find(2 * n, [p for u, v in self.edges for p in ((u, v + n), (v, u + n))])
        if n and root[0] == root[n]:
            raise ValueError("graph is not bipartite")
        part0 = {v for v in range(n) if root[v] == root[0]}
        part1 = {v for v in range(n) if root[v] == root[n]}
        if len(part0) + len(part1) != n:
            raise ValueError("graph is not connected")
        return part0, part1


def from_bipartite_graph(g: PlaneBipartiteGraph) -> KnittedTemplate:
    """Reverse Seifert's algorithm on a plane simple bipartite graph.

    One Seifert circle per vertex, one 2-strand box per edge; the circle of a
    part-0 vertex threads its boxes in rotation order and a part-1 circle in
    reversed rotation order, which makes the two strands of every box
    parallel. Crossing signs and orientations stay free: the caller fills the
    boxes with words.
    """
    part0, _part1 = g.bipartition()
    wiring: list[tuple[Endpoint, Endpoint]] = []
    for v, rot in enumerate(g.rotations):
        pos = 0 if v in part0 else 1
        order = rot if v in part0 else tuple(reversed(rot))
        k = len(order)
        for t_idx in range(k):
            src = (order[t_idx], pos)
            dst = (order[(t_idx + 1) % k], pos)
            wiring.append((src, dst))
    return KnittedTemplate(tuple(2 for _ in g.edges), tuple(wiring))


def braid_closure_template(n: int) -> KnittedTemplate:
    """The single-box template whose diagrams are braid closures."""
    return KnittedTemplate((n,), tuple(((0, p), (0, p)) for p in range(n)))


def braid_closure_knitted(word: BraidWord) -> KnittedDiagram:
    return KnittedDiagram(braid_closure_template(word.strands), (word,))


def braid_closure(word: BraidWord) -> PlanarDiagram:
    """PD code of the standard closure of a braid word, compiled from its one-box template."""
    return compile_diagram(braid_closure_knitted(word))


# used with fullmatch: ``$`` would also match before a trailing newline
_ENDPOINT_RE = re.compile(r"b(\d+)\.(in|out)(\d+)", re.ASCII)


def knitted_to_json(k: KnittedDiagram) -> dict:
    return {
        "boxes": [
            {"strands": n, "word": list(w.letters)}
            for n, w in zip(k.template.boxes, k.words)
        ],
        "wiring": [
            [f"b{ob}.out{op}", f"b{ib}.in{ip}"]
            for (ob, op), (ib, ip) in k.template.wiring
        ],
    }


def _parse_endpoint(text: str, kind: str, n_boxes: Sequence[int]) -> Endpoint:
    m = _ENDPOINT_RE.fullmatch(text) if isinstance(text, str) else None
    if not m:
        raise ValueError(f"bad endpoint {text!r}; expected b<i>.{kind}<j>")
    box, k, pos = int(m.group(1)), m.group(2), int(m.group(3))
    if k != kind:
        raise ValueError(f"endpoint {text!r} should be an {kind} endpoint")
    if box >= len(n_boxes):
        raise ValueError(f"endpoint {text!r} names a box that does not exist")
    if pos >= n_boxes[box]:
        raise ValueError(f"endpoint {text!r} exceeds the box's strand count")
    return (box, pos)


def knitted_from_json(obj: dict) -> KnittedDiagram:
    if not isinstance(obj, dict) or "boxes" not in obj or "wiring" not in obj:
        raise ValueError("knitted JSON needs 'boxes' and 'wiring'")
    for field in ("boxes", "wiring"):
        if not isinstance(obj[field], list):
            raise ValueError(f"knitted JSON '{field}' must be a list, got {obj[field]!r}")
    strands: list[int] = []
    words: list[BraidWord] = []
    for i, box in enumerate(obj["boxes"]):
        n = box.get("strands") if isinstance(box, dict) else None
        word = box.get("word", []) if isinstance(box, dict) else None
        # JSON integers only: int() would also take booleans, truncate
        # floats and read strings of other scripts' digits
        if not (type(n) is int and isinstance(word, list) and all(type(g) is int for g in word)):
            raise ValueError(f"box {i}: needs an integer 'strands' and a 'word' list of integers")
        strands.append(n)
        words.append(BraidWord(n, tuple(word)))
    wiring = []
    for pair in obj["wiring"]:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"wiring entry {pair!r} must be a [out, in] pair")
        src = _parse_endpoint(pair[0], "out", strands)
        dst = _parse_endpoint(pair[1], "in", strands)
        wiring.append((src, dst))
    template = KnittedTemplate(tuple(strands), tuple(wiring))  # enforces every condition
    return KnittedDiagram(template, tuple(words))


# wirings random_template tries for each of its 20 box profiles
TEMPLATE_TRIES = 4000


def _shuffles(rng: Random, box_of: Sequence[int]) -> Iterator[list[int] | None]:
    """Copies of ``range(len(box_of))`` shuffled exactly as by ``rng.shuffle``,
    or None for a copy wiring an output i > 0 into another input of its box.

    ``Random.shuffle`` swaps x[i] with x[j] for i = len(x) - 1 down to 1, drawing
    j by ``getrandbits(k)``, k = (i + 1).bit_length(), again while j > i
    (``_randbelow_with_getrandbits``, Python 3.10 to 3.13); this loop makes the
    same calls in turn. After step i, t = x[i] is final: a t != i in the box of i
    takes the circle through output i into that box at t and at i, which
    ``_repeats_a_box`` refuses. Later steps still draw until a word is at most i,
    and how many words that takes never reads the list: same words, same state.
    """
    getrandbits = rng.getrandbits
    order = list(range(len(box_of)))
    steps = [(i, (i + 1).bit_length()) for i in range(len(box_of) - 1, 0, -1)]
    while True:
        targets = order[:]
        for i, k in (rest := iter(steps)):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            targets[i], targets[j] = targets[j], targets[i]
            if (t := targets[i]) != i and box_of[t] == box_of[i]:
                targets = None
                for i, k in rest:  # draws the rest of the words, and ends the loop
                    while getrandbits(k) > i:
                        pass
        yield targets


def random_template(
    rng: Random, max_boxes: int, max_strands: int
) -> tuple[KnittedTemplate, int]:
    """Rejection-sample a valid template; returns it with the try count.

    The box profile is drawn first and wirings are resampled for that fixed
    profile; otherwise hard profiles (valid wirings are rare for three
    3-strand boxes) would be crowded out by easy ones. Each try is drawn by
    ``_shuffles``, which gives most of them up (None, still counted) at their
    first same-box wire; a try kept is refused by ``_repeats_a_box`` or at the
    first failure of ``_failures``, both on the drawn list. Only a try that
    passes becomes a wiring. Raises ValueError if no try succeeds.
    """
    total = 0
    for _ in range(20):
        boxes = tuple(rng.randint(1, max_strands) for _ in range(rng.randint(1, max_boxes)))
        endpoints = [(b, p) for b, n in enumerate(boxes) for p in range(n)]
        box_of = [b for b, _ in endpoints]
        for targets in itertools.islice(_shuffles(rng, box_of), TEMPLATE_TRIES):
            total += 1
            if targets is None or _repeats_a_box(targets, box_of):
                continue
            if next(_failures(boxes, targets, box_of), None) is None:
                wiring = tuple(zip(endpoints, [endpoints[j] for j in targets]))
                return KnittedTemplate(boxes, wiring), total
    raise ValueError(
        f"no valid template found in {total} tries "
        f"(max_boxes={max_boxes}, max_strands={max_strands})"
    )


def random_knitted(
    rng: Random, max_boxes: int, max_strands: int, max_word_len: int
) -> tuple[KnittedDiagram, int]:
    """A random valid knitted diagram plus the rejection-sampling try count."""
    t, tries = random_template(rng, max_boxes, max_strands)
    words = []
    for n in t.boxes:
        if n == 1:
            words.append(BraidWord(1, ()))
            continue
        length = rng.randint(0, max_word_len)
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)
        )
        words.append(BraidWord(n, letters))
    return KnittedDiagram(t, tuple(words)), tries
