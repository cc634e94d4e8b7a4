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

``KnittedTemplate`` checks every condition when it is built, so a template
that exists is in the class and nothing downstream checks again.
``validate(boxes, wiring)`` reports the failed conditions as data, and the
``TemplateError`` the constructor raises carries that report.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from random import Random
from typing import Iterator, Sequence

from knitweave.braid import (
    BraidWord,
    full_twist_word,
    half_twist_word,
    reduced_word,
)
from knitweave.diagram import (
    Crossing,
    PlanarDiagram,
    _genus_zero,
    _union_find,
)
from knitweave.hecke import _add_product, expand_word, top_coeff
from knitweave.laurent import LaurentVZ, LaurentZ
from knitweave.skein import homfly_framed

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

    Construction checks every template condition, so a template that exists
    is in the paper's class; a wiring outside it raises ``TemplateError``.
    """

    boxes: tuple[int, ...]
    wiring: tuple[tuple[Endpoint, Endpoint], ...]  # ((out box, pos), (in box, pos))

    def __post_init__(self) -> None:
        object.__setattr__(self, "boxes", tuple(int(n) for n in self.boxes))
        object.__setattr__(
            self,
            "wiring",
            tuple(
                sorted(
                    ((int(ob), int(op)), (int(ib), int(ip)))
                    for (ob, op), (ib, ip) in self.wiring
                )
            ),
        )
        if not self.boxes:
            raise ValueError("a template needs at least one box")
        if any(n < 1 for n in self.boxes):
            raise ValueError("every box needs at least one strand")
        report = validate(self.boxes, self.wiring)
        if not report.ok:
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


def _circles(wiring: Sequence[tuple[Endpoint, Endpoint]]) -> list[list[int]]:
    """Seifert circles of the wiring: each is the list of boxes it visits.

    With identity braids a strand enters in_p and leaves out_p, so circles
    are the orbits of wiring followed by identity pass-through, numbered by
    their smallest endpoint. The order of the wiring pairs does not matter.
    """
    wmap = dict(wiring)
    seen: set[Endpoint] = set()
    circles: list[list[int]] = []
    for start in sorted(wmap):
        if start in seen:
            continue
        boxes: list[int] = []
        cur = start
        while cur not in seen:
            seen.add(cur)
            cur = wmap[cur]  # identity pass-through to the same position
            boxes.append(cur[0])
        circles.append(boxes)
    return circles


def _ribbon_planar(
    boxes: Sequence[int], wiring: Sequence[tuple[Endpoint, Endpoint]]
) -> bool:
    """Genus-0 test for the box-and-wire ribbon graph.

    Each box is a vertex with counterclockwise port rotation
    (in_0, ..., in_{n-1}, out_{n-1}, ..., out_0); each wire is an edge. Box b
    owns the half-edges start[b] .. start[b + 1] - 1 in that order.
    """
    start = list(itertools.accumulate((2 * n for n in boxes), initial=0))
    partner = [0] * start[-1]
    for (ob, op), (ib, ip) in wiring:
        out_h, in_h = start[ob + 1] - 1 - op, start[ib] + ip
        partner[out_h], partner[in_h] = in_h, out_h
    return _genus_zero([range(a, b) for a, b in zip(start, start[1:])], partner)


def _matching_failures(
    boxes: Sequence[int], wiring: Sequence[tuple[Endpoint, Endpoint]]
) -> Iterator[str]:
    """The failure of the first condition, if any: the wiring is not a perfect
    matching of the box outputs to the box inputs.

    The count is checked first, so a box of a huge strand count is refused
    without listing its endpoints.
    """
    if len(wiring) != sum(boxes):
        yield "wiring must use every box output exactly once"
        return
    # with the count right, a wiring that reaches every endpoint reaches each once
    expected = {(b, p) for b, n in enumerate(boxes) for p in range(n)}
    if {src for src, _ in wiring} != expected:
        yield "wiring must use every box output exactly once"
    elif {dst for _, dst in wiring} != expected:
        yield "wiring must use every box input exactly once"


def _failures(
    boxes: Sequence[int], wiring: Sequence[tuple[Endpoint, Endpoint]]
) -> Iterator[str]:
    """Each failed condition after the matching, lazily and cheapest first.

    ``wiring`` must be a bijection from the box outputs to the box inputs, in
    any order. Almost every random wiring already fails a circle check, so the
    ribbon face trace runs last. The template is checked before the CLI's
    strand limit, so no step is quadratic in the strands of one box: circles
    that share two boxes are found through the pairs of boxes each one meets,
    not by comparing every pair of circles.
    """
    circles = _circles(wiring)
    for i, visits in enumerate(circles):
        met = set(visits)
        if len(met) < len(visits):
            dups = sorted(b for b in met if visits.count(b) > 1)
            yield f"circle {i} passes through box(es) {dups} more than once"
    incidence = [set(visits) for visits in circles]
    on_pair: dict[tuple[int, int], list[int]] = {}
    for i, met in enumerate(incidence):
        for pair in itertools.combinations(sorted(met), 2):
            on_pair.setdefault(pair, []).append(i)
    sharing = {ij for on in on_pair.values() for ij in itertools.combinations(on, 2)}
    for i, j in sorted(sharing):
        yield f"circles {i} and {j} share boxes {sorted(incidence[i] & incidence[j])}"
    if not _ribbon_planar(boxes, wiring):
        yield "wiring is not realizable in the plane around the boxes"


def validate(
    boxes: Sequence[int], wiring: Sequence[tuple[Endpoint, Endpoint]]
) -> ValidationReport:
    """Check all template conditions; failures are data, not exceptions.

    ``boxes`` holds positive strand counts and ``wiring`` any sequence of
    (output, input) endpoint pairs. A wiring that is not a perfect matching
    is reported as that one failure, and the other conditions, which are
    defined on matchings only, are not checked.
    """
    failures = tuple(_matching_failures(boxes, wiring)) or tuple(_failures(boxes, wiring))
    return ValidationReport(not failures, failures)


def seifert_count(t: KnittedTemplate) -> int:
    """Number of Seifert circles of any diagram on this template."""
    return len(_circles(t.wiring))


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


def compile_diagram(k: KnittedDiagram) -> PlanarDiagram:
    """PD code of the knitted diagram: box crossings joined per the wiring."""
    t = k.template
    arc_of_out: dict[Endpoint, int] = {}
    arc_of_in: dict[Endpoint, int] = {}
    for w_id, (src, dst) in enumerate(t.wiring):
        arc_of_out[src] = w_id
        arc_of_in[dst] = w_id

    fresh = len(t.wiring)
    raw: list[Crossing] = []
    merges: list[tuple[int, int]] = []
    for b, word in enumerate(k.words):
        n = t.boxes[b]
        cur = [arc_of_in[(b, p)] for p in range(n)]
        raw += _word_crossings(word.letters, cur, fresh)
        fresh += 2 * len(word.letters)
        for p in range(n):
            merges.append((cur[p], arc_of_out[(b, p)]))

    root = _union_find(fresh, merges)
    port_arcs = {root[a] for (_, ui, oi, uo, oo) in raw for a in (ui, oi, uo, oo)}
    free_loops = len(set(root) - port_arcs)

    crossings = [
        Crossing(s, root[ui], root[oi], root[uo], root[oo])
        for (s, ui, oi, uo, oo) in raw
    ]
    return PlanarDiagram(crossings, free_loops)


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

    Each box word expands in the positive permutation-braid basis; for each
    tuple of basis permutations with nonzero coefficients, the template is
    compiled with the corresponding reduced words and evaluated, and the
    coefficient-weighted values are summed. Agrees with evaluating the
    compiled diagram directly. Keeps nothing between calls: the tuples share
    only the skein memo.
    """
    t = k.template
    # per box: each term's reduced word and z-coefficient map, read once
    expansions = [
        [(reduced_word(w), c.terms) for w, c in sorted(expand_word(word).coeffs.items())]
        for word in k.words
    ]
    total: dict[tuple[int, int], int] = {}
    for combo in itertools.product(*expansions):
        coeff = {0: 1}
        for _, c in combo:
            prod: dict[int, int] = {}
            _add_product(prod, coeff, c)
            coeff = prod
        words = tuple(w for w, _ in combo)
        h = homfly_framed(compile_diagram(KnittedDiagram(t, words)))
        for (v, z), a in h.terms.items():
            for e, b in coeff.items():
                total[v, z + e] = total.get((v, z + e), 0) + a * b
    return LaurentVZ(total)


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
        equality_holds=(h_minus == sign * h_plus_ft),
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
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        object.__setattr__(self, "rotations", tuple(tuple(r) for r in self.rotations))
        if len(self.rotations) != self.n_vertices:
            raise ValueError("one rotation per vertex is required")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range")
            key = frozenset((u, v))
            if key in seen:
                raise ValueError(f"repeated edge between {u} and {v}")
            seen.add(key)
        for v, rot in enumerate(self.rotations):
            incident = sorted(i for i, e in enumerate(self.edges) if v in e)
            if sorted(rot) != incident:
                raise ValueError(
                    f"rotation at vertex {v} must permute its incident edges {incident}"
                )

    def bipartition(self) -> tuple[set[int], set[int]]:
        """Two-color the graph; raises on odd cycles or disconnection."""
        color: dict[int, int] = {0: 0}
        queue = [0]
        adjacency: dict[int, list[int]] = {v: [] for v in range(self.n_vertices)}
        for u, v in self.edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        while queue:
            u = queue.pop()
            for v in adjacency[u]:
                if v not in color:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    raise ValueError("graph is not bipartite")
        if len(color) != self.n_vertices:
            raise ValueError("graph is not connected")
        return (
            {v for v, c in color.items() if c == 0},
            {v for v, c in color.items() if c == 1},
        )


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


def random_template(
    rng: Random, max_boxes: int, max_strands: int
) -> tuple[KnittedTemplate, int]:
    """Rejection-sample a valid template; returns it with the try count.

    The box profile is drawn first and wirings are resampled for that fixed
    profile; otherwise hard profiles (valid wirings are rare for three
    3-strand boxes) would be crowded out by easy ones. Each wiring is checked
    only up to its first failed condition, and a template is built only for
    the wiring kept. Raises ValueError if no try succeeds.
    """
    total = 0
    for _ in range(20):
        boxes = tuple(
            rng.randint(1, max_strands) for _ in range(rng.randint(1, max_boxes))
        )
        endpoints = [(b, p) for b, n in enumerate(boxes) for p in range(n)]
        for _ in range(TEMPLATE_TRIES):
            total += 1
            targets = list(endpoints)
            rng.shuffle(targets)
            wiring = tuple(zip(endpoints, targets))
            if next(_failures(boxes, wiring), None) is None:
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
