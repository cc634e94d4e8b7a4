import collections
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from naive_skein import naive_homfly_framed

from knitweave import knitted
from knitweave.braid import BraidWord, full_twist_word, reduced_word
from knitweave.diagram import Crossing, PlanarDiagram, component_count, planarity_check
from knitweave.gallery import showcase_knot
from knitweave.hecke import MAX_TERMS, expand_word
from knitweave.knitted import (
    KnittedDiagram,
    KnittedTemplate,
    PlaneBipartiteGraph,
    TemplateError,
    braid_closure_knitted,
    braid_closure_template,
    compile_diagram,
    eval_hecke,
    extreme_minus_fast,
    from_bipartite_graph,
    ft,
    knitted_from_json,
    knitted_to_json,
    random_knitted,
    random_template,
    seifert_count,
    validate,
    verify_theorem,
)
from knitweave.laurent import LaurentVZ, LaurentZ, delta_pow
from knitweave.skein import homfly_framed

# the 2-strand closure with its strands crossed over: one circle through the
# box twice, and not planar around it
CROSSED = (((0, 0), (0, 1)), ((0, 1), (0, 0)))

# two 2-strand boxes, out p of each wired to in p of the other: planar, but
# both circles pass through both boxes
CROSSWISE = tuple(((b, p), (1 - b, p)) for b in (0, 1) for p in (0, 1))


def showcase_graph() -> PlaneBipartiteGraph:
    """A plane simple bipartite graph on 6 vertices and 7 edges.

    Reversing Seifert's algorithm on it yields a 7-box knitted template with
    one Seifert circle per vertex.
    """
    edges = ((0, 1), (0, 3), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5))
    rotations = ((0, 1), (2, 0), (4, 3, 2), (5, 1, 3), (6, 4), (5, 6))
    return PlaneBipartiteGraph(6, edges, rotations)


def trefoil_chain(edges: int) -> KnittedDiagram:
    """σ1³ in every box of the template of a path of ``edges`` edges.

    Each box joins two neighbouring circles of the path and nothing else, so
    the diagram is the connected sum of ``edges`` trefoils. The circles of
    the path's two ends pass through one box each, so that box's end is
    wired to itself, and the boxes close one after another with no tuple
    left to sum.
    """
    rotations = tuple(tuple(e for e in (v - 1, v) if 0 <= e < edges) for v in range(edges + 1))
    g = PlaneBipartiteGraph(edges + 1, tuple((v, v + 1) for v in range(edges)), rotations)
    t = from_bipartite_graph(g)
    return KnittedDiagram(t, tuple(BraidWord(2, (1, 1, 1)) for _ in t.boxes))


def cycle_template(edges: int) -> KnittedTemplate:
    """The template of a cycle of ``edges`` edges, an even count: one
    2-strand box per edge.

    The cycle has no leaf, so no box end is wired to itself and nothing
    closes.
    """
    rotations = tuple(((v - 1) % edges, v) for v in range(edges))
    g = PlaneBipartiteGraph(edges, tuple((v, (v + 1) % edges) for v in range(edges)), rotations)
    return from_bipartite_graph(g)


def trefoil_cycle(edges: int) -> KnittedDiagram:
    """σ1³ in every box of ``cycle_template(edges)``: the tuple sum runs over
    all 2^edges tuples."""
    t = cycle_template(edges)
    return KnittedDiagram(t, tuple(BraidWord(2, (1, 1, 1)) for _ in t.boxes))


def test_braid_closure_template_is_valid():
    for n in range(1, 5):
        t = braid_closure_template(n)
        assert validate(t.boxes, t.wiring).ok
        assert seifert_count(t) == n


def test_template_strands_and_endpoints_are_integers_only():
    # int() built the 2-strand closure template from the first three; validate
    # converts as the constructor does, so it raises at the boundary too, where
    # it reported the float count of the fourth as a matching failure and
    # failed inside on the last two
    closure = (((0, 0), (0, 0)), ((0, 1), (0, 1)))
    for boxes, wiring in (
        ((2.7,), (((0, 0.9), (0, 0)), ((0, 1), (0, 1.2)))),
        (("2",), closure),
        ((2,), (((0, "0"), (0, 0)), ((0, 1), (0, 1)))),
        ((2.7,), closure),
        ((2,), (((0, 0.0), (0, 0)), ((0, 1), (0, 1)))),
        (("2",), ()),
    ):
        with pytest.raises(TypeError):
            KnittedTemplate(boxes, wiring)
        with pytest.raises(TypeError):
            validate(boxes, wiring)
    assert KnittedTemplate((2,), closure) == braid_closure_template(2)


def test_crossed_closure_wiring_is_rejected_by_planarity():
    with pytest.raises(TemplateError) as err:
        KnittedTemplate((2,), CROSSED)
    report = err.value.report
    assert not report.ok
    assert any("plane" in f for f in report.failures)


def test_shared_pair_condition_fails():
    with pytest.raises(TemplateError) as err:
        KnittedTemplate((2, 2), CROSSWISE)
    report = err.value.report
    assert report.failures == ("circles 0 and 1 share boxes [0, 1]",)


def test_at_most_once_condition_fails():
    # one 2-strand box wired so a single circle passes through it twice
    with pytest.raises(TemplateError) as err:
        KnittedTemplate((2,), CROSSED)
    assert any("more than once" in f for f in err.value.report.failures)


def test_planarity_implies_no_circle_passes_through_a_box_twice():
    # the module docstring's proof, checked on every box profile and every
    # wiring bijection of at most 6 strands in all; the sampler's early-exit
    # decision refuses exactly the wirings validate reports as "twice"
    wirings = twice = refused = 0
    for total in range(1, 7):
        for cuts in itertools.product((False, True), repeat=total - 1):
            boxes = [1]
            for cut in cuts:
                if cut:
                    boxes.append(1)
                else:
                    boxes[-1] += 1
            ends = [(b, p) for b, n in enumerate(boxes) for p in range(n)]
            for targets in itertools.permutations(ends):
                wiring = tuple(zip(ends, targets))
                wirings += 1
                nxt, box_of = knitted._flat(boxes, wiring)
                passes_twice = any(len(set(v)) < len(v) for v in knitted._circles(nxt, box_of))
                if passes_twice:
                    twice += 1
                    assert not knitted._ribbon_planar(boxes, wiring), (boxes, wiring)
                refuses = knitted._repeats_a_box(nxt, box_of)
                refused += refuses
                reported = any("more than once" in f for f in validate(boxes, wiring).failures)
                assert refuses == reported == passes_twice, (boxes, wiring)
    # 19,488 of them send some circle through a box twice, and none is planar
    assert (wirings, twice, refused) == (25181, 19488, 19488)


@st.composite
def _bijective_wirings(draw):
    """Up to three boxes of up to three strands, wired by a random bijection
    whose pairs come in a random order."""
    boxes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    ends = [(b, p) for b, n in enumerate(boxes) for p in range(n)]
    targets = draw(st.permutations(ends))
    return boxes, tuple(draw(st.permutations(list(zip(ends, targets)))))


@settings(max_examples=300, deadline=None)
@given(_bijective_wirings())
def test_constructor_refuses_exactly_what_the_sampler_rejects(case):
    boxes, wiring = case
    # the sampler refuses a try by the "twice" walk, then by the first
    # failure of _failures, and builds only a try that passes both: the walk
    # refuses nothing the constructor accepts, and the constructor reports
    # what _failures finds
    if (
        not knitted._repeats_a_box(*knitted._flat(boxes, wiring))
        and next(knitted._failures(boxes, wiring), None) is None
    ):
        KnittedTemplate(boxes, wiring)
    else:
        with pytest.raises(TemplateError) as err:
            KnittedTemplate(boxes, wiring)
        assert err.value.report.failures == tuple(knitted._failures(boxes, wiring))


def test_a_template_needs_a_box():
    with pytest.raises(ValueError, match="at least one box"):
        KnittedTemplate((), ())
    # an edgeless graph has a vertex, so a Seifert circle, but no box to carry it
    with pytest.raises(ValueError, match="at least one box"):
        from_bipartite_graph(PlaneBipartiteGraph(1, (), ((),)))


def test_wiring_must_be_a_perfect_matching():
    # validate reports the matching alone: the later conditions are defined
    # on matchings only
    cases = (
        ((((0, 0), (0, 0)), ((0, 0), (0, 1))), "output"),
        ((((0, 0), (0, 0)),), "output"),
        ((((0, 0), (0, 1)), ((0, 1), (0, 1))), "input"),
    )
    for wiring, side in cases:
        failure = f"wiring must use every box {side} exactly once"
        report = validate((2,), wiring)
        assert not report.ok and report.failures == (failure,)
        with pytest.raises(TemplateError, match=failure):
            KnittedTemplate((2,), wiring)


def test_seifert_count_examples():
    assert seifert_count(braid_closure_template(3)) == 3
    t = from_bipartite_graph(showcase_graph())
    assert len(t.boxes) == 7
    assert seifert_count(t) == 6
    # disjoint union of two 2-strand closure templates
    t2 = KnittedTemplate(
        (2, 2),
        (
            ((0, 0), (0, 0)),
            ((0, 1), (0, 1)),
            ((1, 0), (1, 0)),
            ((1, 1), (1, 1)),
        ),
    )
    assert validate(t2.boxes, t2.wiring).ok
    assert seifert_count(t2) == 4


def test_compile_with_empty_words_gives_free_loops():
    k = KnittedDiagram(
        braid_closure_template(3), tuple(BraidWord(3, ()) for _ in range(1))
    )
    d = compile_diagram(k)
    assert len(d.crossings) == 0 and d.free_loops == 3

    sk = showcase_knot()
    empty = KnittedDiagram(
        sk.template, tuple(BraidWord(n, ()) for n in sk.template.boxes)
    )
    d = compile_diagram(empty)
    assert len(d.crossings) == 0
    assert d.free_loops == seifert_count(sk.template) == 7


def _compile_in_one_pass(k: KnittedDiagram) -> PlanarDiagram:
    """The PD code by one union-find over every arc, with no fragments.

    Wire i of the sorted wiring is arc i; each letter makes two fresh arcs,
    box after box, and the last arc on each position is joined to the wire
    leaving it, by hanging the first root under the second.
    """
    t = k.template
    out_wire = {src: i for i, (src, _) in enumerate(t.wiring)}
    in_wire = {dst: i for i, (_, dst) in enumerate(t.wiring)}
    fresh = len(t.wiring)
    raw, joins = [], []
    for b, word in enumerate(k.words):
        cur = [in_wire[b, p] for p in range(t.boxes[b])]
        for g in word.letters:
            left, right = cur[abs(g) - 1], cur[abs(g)]
            p, q = fresh, fresh + 1
            raw.append((1, right, left, p, q) if g > 0 else (-1, left, right, q, p))
            cur[abs(g) - 1], cur[abs(g)] = p, q
            fresh += 2
        joins += [(a, out_wire[b, p]) for p, a in enumerate(cur)]
    parent = list(range(fresh))

    def find(a: int) -> int:
        while parent[a] != a:
            a = parent[a]
        return a

    for a, b in joins:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    crossings = [Crossing(s, *map(find, arcs)) for s, *arcs in raw]
    used = {a for c in crossings for a in c[1:]}
    return PlanarDiagram(crossings, len({find(a) for a in range(fresh)} - used))


def test_compile_diagram_matches_a_one_pass_compiler():
    # assembling per-box fragments names every arc as one union-find over
    # all of them does, crossing for crossing
    rng = Random(4242)
    cases = [showcase_knot(), braid_closure_knitted(BraidWord(1, ()))]
    for _ in range(60):
        k, _ = random_knitted(rng, 4, 3, 6)
        n = rng.randint(2, 5)
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 9))
        )
        cases += [k, ft(k), braid_closure_knitted(BraidWord(n, letters))]
    for k in cases:
        assert compile_diagram(k) == _compile_in_one_pass(k)


def test_showcase_compiles_to_a_planar_knot():
    d = compile_diagram(showcase_knot())
    assert len(d.crossings) == 12
    assert component_count(d) == 1
    assert planarity_check(d)


def test_ft_prefixes_full_twists():
    k = braid_closure_knitted(BraidWord(2, ()))
    assert ft(k).words[0].letters == (1, 1)
    k = braid_closure_knitted(BraidWord(2, (1,)))
    assert ft(k).words[0].letters == (1, 1, 1)
    k = braid_closure_knitted(BraidWord(3, (-1, 2)))
    assert ft(k).words[0].letters == (1, 2, 1, 1, 2, 1, -1, 2)


def test_ft_position_is_immaterial():
    rng = Random(5150)
    for _ in range(10):
        k, _ = random_knitted(rng, 2, 3, 3)
        prefixed = ft(k)
        suffixed = KnittedDiagram(
            k.template,
            tuple(w + full_twist_word(w.strands) for w in k.words),
        )
        assert homfly_framed(compile_diagram(prefixed)) == homfly_framed(
            compile_diagram(suffixed)
        )


def test_eval_hecke_on_trivial_fillings():
    k = KnittedDiagram(
        braid_closure_template(2), (BraidWord(2, ()),)
    )
    assert eval_hecke(k) == delta_pow(1)


def test_eval_hecke_on_two_strand_full_twist():
    k = braid_closure_knitted(BraidWord(2, (1, 1)))
    assert eval_hecke(k) == LaurentVZ(
        {(-1, -1): 1, (1, -1): -1, (-1, 1): 1}
    )


def test_eval_hecke_matches_direct_evaluation():
    rng = Random(90210)
    for _ in range(25):
        k, _ = random_knitted(rng, 3, 3, 4)
        assert eval_hecke(k) == homfly_framed(compile_diagram(k))


def test_each_tuple_diagram_is_the_template_compiled_with_its_words(monkeypatch):
    # the tuple sum assembles fragments built once per box term; each tuple's
    # diagram must be the one compile_diagram builds from the tuple's reduced
    # words, in product order, and planar: the sum checks no tuple, since
    # the template certified their shared box-and-wire ribbon when built.
    # The sum must weight each tuple's value by its terms' coefficients.
    framed = knitted._framed
    seen = []

    def recording(d):
        h = framed(d)
        seen.append((d, h))
        return h

    monkeypatch.setattr(knitted, "_framed", recording)
    rng = Random(1717)
    samples = tuples = 0
    while samples < 40:
        k, _ = random_knitted(rng, 4, 3, 4)
        if len(k.words) < 2:
            continue
        samples += 1
        for side in (k, ft(k)):
            terms = [sorted(expand_word(w).coeffs.items()) for w in side.words]
            seen.clear()
            total = knitted._tuple_sum(knitted._expanded(side))
            combos = list(itertools.product(*terms))
            assert len(seen) == len(combos)
            want = LaurentVZ()
            for (d, h), combo in zip(seen, combos):
                words = tuple(reduced_word(w) for w, _ in combo)
                assert d == compile_diagram(KnittedDiagram(side.template, words))
                assert planarity_check(d)
                weight = LaurentZ.one()
                for _, c in combo:
                    weight = weight * c
                want = want + h * LaurentVZ({(0, e): c for e, c in weight.terms.items()})
            assert total == want
            tuples += len(seen)
    assert tuples > 1000


def test_direct_skein_matches_eval_hecke_on_large_full_twists():
    # the 22- and 27-crossing FT(D) among the first samples of at least 8
    # boxes: knitted diagrams well past the size the other equivalence tests
    # reach, where the choice of crossing to switch sets the skein's cost
    rng = Random(8)
    sizes = []
    while len(sizes) < 3:
        k, _ = random_knitted(rng, 12, 3, 5)
        if len(k.template.boxes) < 8:
            continue
        d = compile_diagram(ft(k))
        sizes.append(len(d.crossings))
        if len(d.crossings) in (22, 27):
            assert homfly_framed(d) == eval_hecke(ft(k))
    assert sizes == [19, 27, 22]


def test_eval_hecke_on_a_chain_is_the_power_of_the_trefoil():
    trefoil = eval_hecke(braid_closure_knitted(BraidWord(2, (1, 1, 1))))
    assert str(trefoil) == "2*v^-1 + v^-1*z^2 - v"
    power = LaurentVZ.one()
    for edges in range(1, 17):
        power = power * trefoil
        if edges in (1, 2, 10, 16):
            assert eval_hecke(trefoil_chain(edges)) == power, edges


def test_eval_hecke_refuses_a_tuple_sum_over_max_terms():
    # 2^16 tuples; the refusal comes before the first one is assembled
    start = time.monotonic()
    with pytest.raises(ValueError, match=f"65536 tuples exceeds the limit of MAX_TERMS = {MAX_TERMS}"):
        eval_hecke(trefoil_cycle(16))
    assert time.monotonic() - start < 5


@st.composite
def trees_and_cycles(draw) -> PlaneBipartiteGraph:
    """A plane bipartite graph of pendant trees and even cycles.

    An even cycle, or a single vertex, with 4-cycles glued on at vertices
    and pendant edges hung anywhere. A glued cycle's two edges, and a
    pendant edge, enter a vertex's rotation next to each other, so the
    rotations stay planar.
    """
    size = draw(st.sampled_from((0, 4, 6)))
    edges = [(v, (v + 1) % size) for v in range(size)]
    rotations = [[(v - 1) % size, v] for v in range(size)] or [[]]
    for _ in range(draw(st.integers(0, 6))):
        v = draw(st.integers(0, len(rotations) - 1))
        at = draw(st.integers(0, len(rotations[v])))
        n, e = len(rotations), len(edges)
        if draw(st.booleans()):  # a pendant edge to a new vertex
            edges.append((v, n))
            rotations[v][at:at] = [e]
            rotations.append([e])
        else:  # a 4-cycle v, n, n + 1, n + 2
            edges += [(v, n), (n, n + 1), (n + 1, n + 2), (n + 2, v)]
            rotations[v][at:at] = [e, e + 3]
            rotations += [[e, e + 1], [e + 1, e + 2], [e + 2, e + 3]]
    if not edges:
        edges, rotations = [(0, 1)], [[0], [0]]
    return PlaneBipartiteGraph(len(rotations), tuple(edges), tuple(map(tuple, rotations)))


def _core_edges(g: PlaneBipartiteGraph) -> int:
    """The number of edges left once edges at a leaf are pruned until none is."""
    edges = set(range(len(g.edges)))
    while True:
        degree = collections.Counter(v for e in edges for v in g.edges[e])
        pruned = {e for e in edges if min(degree[v] for v in g.edges[e]) == 1}
        if not pruned:
            return len(edges)
        edges -= pruned


@settings(max_examples=40, deadline=None)
@given(trees_and_cycles(), st.data())
def test_eval_hecke_closes_the_trees_and_sums_the_cycles(graph, data):
    # a leaf's circle meets one box, which closes that end and then has one
    # strand, so it merges the wires of its other circle and is dropped: the
    # closures prune the graph's leaves, and the boxes left to the tuple sum
    # are the edges that pruning never reaches
    t = from_bipartite_graph(graph)
    words = tuple(
        BraidWord(2, tuple(data.draw(st.lists(st.sampled_from((1, -1)), max_size=3))))
        for _ in t.boxes
    )
    k = KnittedDiagram(t, words)
    _, rest = knitted._close_ends(knitted._expanded(k))
    assert len(rest) == _core_edges(graph)
    assert all(len(b.ins) == 2 for b in rest)
    assert eval_hecke(k) == homfly_framed(compile_diagram(k))


def test_eval_hecke_equals_direct_skein_on_four_glued_four_cycles():
    # a draw of the test above (hypothesis seed 5): four 4-cycles glued on
    # a 6-cycle and onto each other. Its D has 46 crossings, and direct
    # skein on it ran past 90 s until the root reduction, which removes the
    # cancelling pairs of its signed box words and leaves 27
    graph = PlaneBipartiteGraph(
        18,
        (
            (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (4, 6), (6, 7),
            (7, 8), (8, 4), (8, 9), (9, 10), (10, 11), (11, 8), (10, 12),
            (12, 13), (13, 14), (14, 10), (10, 15), (15, 16), (16, 17), (17, 10),
        ),
        (
            (5, 0), (0, 1), (1, 2), (2, 3), (3, 4, 6, 9), (4, 5), (6, 7), (7, 8),
            (8, 10, 13, 9), (10, 11), (11, 14, 17, 18, 21, 12), (12, 13),
            (14, 15), (15, 16), (16, 17), (18, 19), (19, 20), (20, 21),
        ),
    )
    letters = (
        (-1,), (1, -1, -1), (1, 1, 1), (-1, -1, 1), (-1, -1, 1), (-1, -1, -1),
        (-1, -1, -1), (-1,), (1, 1), (), (-1, 1), (1, 1, -1), (1,), (), (1,),
        (1, -1, 1), (1, 1), (1, -1, -1), (-1, -1, -1), (-1, -1, -1), (), (-1, 1, 1),
    )
    k = KnittedDiagram(from_bipartite_graph(graph), tuple(BraidWord(2, w) for w in letters))
    assert eval_hecke(k) == homfly_framed(compile_diagram(k))


def three_strand_leaf(leaf: int) -> KnittedTemplate:
    """Boxes of 3, 2, 2 and 2 strands whose circles make a 4-cycle A, B, D, C.

    The circle at box A's position ``leaf``, its first (0) or its last (2),
    meets no other box, so that position's output is wired to its input and
    no other box end is wired to itself.
    """
    a, b = (1, 2) if leaf == 0 else (0, 1)
    return KnittedTemplate(
        (3, 2, 2, 2),
        (
            ((0, leaf), (0, leaf)),
            ((0, a), (1, 0)),
            ((1, 0), (0, a)),
            ((0, b), (2, 1)),
            ((2, 1), (0, b)),
            ((1, 1), (3, 1)),
            ((3, 1), (1, 1)),
            ((2, 0), (3, 0)),
            ((3, 0), (2, 0)),
        ),
    )


def _letters(strands: int, max_size: int):
    letter = st.integers(1, strands - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    return st.lists(letter, max_size=max_size)


@pytest.mark.parametrize("leaf", (0, 2), ids=("first", "last"))
@settings(max_examples=30, deadline=None)
@given(_letters(3, 5), st.lists(_letters(2, 2), min_size=3, max_size=3))
def test_a_closed_box_stays_in_the_tuple_sum_with_v_weights(leaf, first, others):
    # box A closes one end and keeps two strands, so the tuple sum weights
    # its terms by polynomials in v and z; at the first position the closure
    # goes through the flip, which on three strands is no identity
    t = three_strand_leaf(leaf)
    k = KnittedDiagram(t, (BraidWord(3, tuple(first)),) + tuple(BraidWord(2, tuple(w)) for w in others))
    _, rest = knitted._close_ends(knitted._expanded(k))
    assert [len(b.ins) for b in rest] == [2] * 4
    d = compile_diagram(k)
    assert eval_hecke(k) == homfly_framed(d) == naive_homfly_framed(d)


@pytest.mark.parametrize("leaf", (0, 2), ids=("first", "last"))
@settings(max_examples=20, deadline=None)
@given(_letters(3, 5))
def test_one_term_boxes_stay_in_the_tuple_sum_beside_a_closed_box(leaf, first):
    # the empty 2-strand words expand to one term each, so those boxes are
    # fixed fragments and factors of the sum, and only box A's terms vary
    t = three_strand_leaf(leaf)
    k = KnittedDiagram(t, (BraidWord(3, tuple(first)),) + (BraidWord(2, ()),) * 3)
    _, rest = knitted._close_ends(knitted._expanded(k))
    assert [len(b.ins) for b in rest] == [2] * 4
    assert [len(b.terms) for b in rest[1:]] == [1] * 3
    d = compile_diagram(k)
    assert eval_hecke(k) == homfly_framed(d) == naive_homfly_framed(d)


def test_a_long_cycle_of_one_term_boxes_is_one_tuple():
    # 2,000 boxes with empty words make one tuple of 2,000 circles; a sum
    # that nested one level per box would exceed the recursion limit
    t = cycle_template(2000)
    k = KnittedDiagram(t, tuple(BraidWord(2, ()) for _ in t.boxes))
    assert eval_hecke(k) == delta_pow(1999)


def test_a_split_template_counts_its_last_circle_once():
    # two braid closures side by side: each closes to one circle, and only
    # the last circle of the whole diagram counts 1; the other counts delta
    t = KnittedTemplate((2, 3), tuple(((b, p), (b, p)) for b, n in enumerate((2, 3)) for p in range(n)))
    a, b = BraidWord(2, (1, 1, 1)), BraidWord(3, (1, -2, 1, -2))
    k = KnittedDiagram(t, (a, b))
    split = delta_pow(1) * eval_hecke(braid_closure_knitted(a)) * eval_hecke(braid_closure_knitted(b))
    assert eval_hecke(k) == split == homfly_framed(compile_diagram(k))
    empty = KnittedDiagram(t, (BraidWord(2, ()), BraidWord(3, ())))
    assert eval_hecke(empty) == delta_pow(4)


def test_eval_hecke_rejects_invalid_template():
    # the template is refused when it is built, before eval_hecke can see it
    with pytest.raises(TemplateError):
        eval_hecke(KnittedDiagram(KnittedTemplate((2,), CROSSED), (BraidWord(2, ()),)))


def test_extreme_minus_fast_examples():
    assert extreme_minus_fast(
        braid_closure_knitted(BraidWord(2, ()))
    ) == LaurentZ.term(-1)
    assert extreme_minus_fast(
        braid_closure_knitted(BraidWord(2, (1,)))
    ) == LaurentZ.one()
    assert extreme_minus_fast(
        braid_closure_knitted(BraidWord(1, ()))
    ) == LaurentZ.one()


def test_extreme_minus_fast_matches_full_evaluation():
    rng = Random(31415)
    for _ in range(25):
        k, _ = random_knitted(rng, 3, 3, 4)
        s = seifert_count(k.template)
        h = homfly_framed(compile_diagram(k))
        assert extreme_minus_fast(k) == h.coeff_of_v(1 - s)


def test_verify_theorem_hand_cases():
    r = verify_theorem(braid_closure_knitted(BraidWord(2, ())))
    assert r.seifert_count == 2 and r.sign == -1
    assert r.h_minus == LaurentZ.term(-1)
    assert r.h_plus_ft == LaurentZ.term(-1, -1)
    assert r.passed

    r = verify_theorem(braid_closure_knitted(BraidWord(2, (1,))))
    assert r.h_minus == LaurentZ.one()
    assert r.h_plus_ft == LaurentZ.one() * -1
    assert r.passed


def test_verify_theorem_on_showcase():
    r = verify_theorem(showcase_knot())
    assert r.seifert_count == 7 and r.sign == 1
    expected = LaurentZ({0: 2, 2: 3, 4: 1})
    assert r.h_minus == expected
    assert r.h_plus_ft == expected
    assert r.passed


def test_the_comparison_fails_outside_the_class():
    # the smallest diagram outside the class: the CROSSWISE template, which
    # breaks only the "share" condition, with empty words. Its FT puts two
    # full twists between its two circles, so D is the 2-strand unlink and
    # FT D the closure of sigma_1^4. The comparison verify_theorem makes
    # must fail on that pair, and pass with one full twist, sigma_1^2.
    s = 2
    sign = (-1) ** (s - 1)
    h_minus = eval_hecke(braid_closure_knitted(BraidWord(2, ()))).coeff_of_v(1 - s)
    assert h_minus == LaurentZ.term(-1)
    two_twists = eval_hecke(braid_closure_knitted(BraidWord(2, (1,) * 4)))
    h_plus_ft = two_twists.coeff_of_v(s - 1)
    assert h_plus_ft == LaurentZ({-1: -1, 1: -1})
    assert knitted._signed_gap(h_minus, h_plus_ft, sign) == LaurentZ.term(1, -1)
    one_twist = eval_hecke(braid_closure_knitted(BraidWord(2, (1, 1))))
    assert not knitted._signed_gap(h_minus, one_twist.coeff_of_v(s - 1), sign)


def test_verify_theorem_checks_the_template_once(monkeypatch):
    traced = []
    ribbon_planar = knitted._ribbon_planar

    def counting(boxes, wiring):
        traced.append(wiring)
        return ribbon_planar(boxes, wiring)

    monkeypatch.setattr(knitted, "_ribbon_planar", counting)
    assert verify_theorem(showcase_knot()).passed
    assert len(traced) == 1


def test_theorem_on_random_knitted_diagrams():
    rng = Random(8675309)
    for _ in range(30):
        k, _ = random_knitted(rng, 3, 3, 4)
        r = verify_theorem(k)
        assert r.passed, f"theorem failed on {knitted_to_json(k)}"


def test_theorem_on_braid_closures():
    rng = Random(1234)
    for _ in range(60):
        n = rng.randint(1, 3)
        if n == 1:
            w = BraidWord(1, ())
        else:
            w = BraidWord(
                n,
                tuple(
                    rng.choice((1, -1)) * rng.randint(1, n - 1)
                    for _ in range(rng.randint(0, 5))
                ),
            )
        r = verify_theorem(braid_closure_knitted(w))
        assert r.sign == (-1) ** (n - 1)
        assert r.passed, f"failed on closure of {w.letters} ({n} strands)"


def test_from_bipartite_graph_single_edge():
    g = PlaneBipartiteGraph(2, ((0, 1),), ((0,), (0,)))
    t = from_bipartite_graph(g)
    assert len(t.boxes) == 1 and seifert_count(t) == 2
    assert validate(t.boxes, t.wiring).ok


def test_from_bipartite_graph_four_cycle():
    g = PlaneBipartiteGraph(
        4, ((0, 1), (1, 2), (2, 3), (3, 0)), ((0, 3), (0, 1), (1, 2), (2, 3))
    )
    t = from_bipartite_graph(g)
    assert len(t.boxes) == 4 and seifert_count(t) == 4
    assert validate(t.boxes, t.wiring).ok
    circles = {}
    wmap = dict(t.wiring)
    # every circle should meet exactly two boxes
    seen = set()
    for start in wmap:
        if start in seen:
            continue
        boxes = set()
        cur = start
        while True:
            seen.add(cur)
            nxt = wmap[cur]
            boxes.add(nxt[0])
            cur = nxt
            if cur == start:
                break
        circles[start] = boxes
    assert all(len(b) == 2 for b in circles.values())


def test_from_bipartite_graph_showcase():
    t = from_bipartite_graph(showcase_graph())
    assert validate(t.boxes, t.wiring).ok
    assert len(t.boxes) == 7 and all(n == 2 for n in t.boxes)
    assert seifert_count(t) == 6
    # filling the boxes gives honest knitted diagrams
    words = tuple(BraidWord(2, (1,)) for _ in t.boxes)
    assert planarity_check(compile_diagram(KnittedDiagram(t, words)))


def test_bipartite_graph_input_validation():
    with pytest.raises(ValueError):
        PlaneBipartiteGraph(2, ((0, 0),), ((0,), ()))  # self loop
    with pytest.raises(ValueError):
        PlaneBipartiteGraph(2, ((0, 1), (1, 0)), ((0, 1), (0, 1)))  # repeated edge
    # integers only: a float vertex would index the incident-edge lists
    for n, edges, rotations in (
        (2.0, ((0, 1),), ((0,), (0,))),
        (2, ((0, 1.0),), ((0,), (0,))),
        (2, ((0, 1),), ((0.0,), (0,))),
    ):
        with pytest.raises(TypeError):
            PlaneBipartiteGraph(n, edges, rotations)
    with pytest.raises(ValueError, match=r"^edge \(0, 2\) out of range$"):
        PlaneBipartiteGraph(2, ((0, 2),), ((0,), ()))
    with pytest.raises(ValueError, match=r"^rotation at vertex 1 must permute its incident edges \[0, 1\]$"):
        PlaneBipartiteGraph(3, ((0, 1), (1, 2)), ((0,), (1,), (1,)))
    odd = PlaneBipartiteGraph(
        3, ((0, 1), (1, 2), (2, 0)), ((0, 2), (0, 1), (1, 2))
    )
    with pytest.raises(ValueError, match="graph is not bipartite"):
        odd.bipartition()


def _graph(n: int, edges) -> PlaneBipartiteGraph:
    """A graph with each vertex's edges in index order as its rotation."""
    rotations = tuple(tuple(i for i, e in enumerate(edges) if v in e) for v in range(n))
    return PlaneBipartiteGraph(n, tuple(edges), rotations)


def test_bipartition_names_what_breaks_the_two_colouring():
    # two separate edges
    with pytest.raises(ValueError, match="graph is not connected"):
        _graph(4, ((0, 1), (2, 3))).bipartition()
    # the odd cycle lies outside vertex 0's component, which two-colours
    with pytest.raises(ValueError, match="graph is not connected"):
        _graph(5, ((0, 1), (2, 3), (3, 4), (4, 2))).bipartition()
    # the odd cycle is reachable from vertex 0, and another component exists
    with pytest.raises(ValueError, match="graph is not bipartite"):
        _graph(5, ((0, 1), (1, 2), (2, 0), (3, 4))).bipartition()
    assert _graph(0, ()).bipartition() == (set(), set())
    # the empty graph gives no box, as the one-vertex graph does
    with pytest.raises(ValueError, match="at least one box"):
        from_bipartite_graph(_graph(0, ()))


def _brute_bipartition(n: int, edges) -> tuple[set[int], set[int]] | str:
    """Parts (vertex 0 in the first) or the message, by trying every colouring."""
    component = {0}
    while True:
        grown = component | {v for e in edges if set(e) & component for v in e}
        if grown == component:
            break
        component = grown
    inner = [e for e in edges if e[0] in component]
    colourings = [
        c for c in itertools.product((0, 1), repeat=n)
        if c[0] == 0 and all(c[u] != c[v] for u, v in inner)
    ]
    if not colourings:
        return "graph is not bipartite"
    if len(component) < n:
        return "graph is not connected"
    (c,) = colourings
    return {v for v in range(n) if not c[v]}, {v for v in range(n) if c[v]}


def test_bipartition_matches_every_colouring_tried():
    rng = Random(19)
    seen = set()
    for _ in range(400):
        n = rng.randint(1, 7)
        pairs = list(itertools.combinations(range(n), 2))
        edges = tuple(rng.sample(pairs, rng.randint(0, min(len(pairs), n + 1))))
        expected = _brute_bipartition(n, edges)
        seen.add(expected if isinstance(expected, str) else "parts")
        try:
            got = _graph(n, edges).bipartition()
        except ValueError as exc:
            got = str(exc)
        assert got == expected, (n, edges)
    assert seen == {"parts", "graph is not bipartite", "graph is not connected"}


def test_json_round_trip():
    k = showcase_knot()
    blob = json.dumps(knitted_to_json(k))
    k2 = knitted_from_json(json.loads(blob))
    assert k2 == k


def test_json_rejects_broken_wiring():
    obj = knitted_to_json(braid_closure_knitted(BraidWord(2, (1,))))
    obj["wiring"][0] = ["b0.out0", "b0.in0"]
    obj["wiring"][1] = ["b0.out1", "b0.in0"]  # in0 used twice
    with pytest.raises(ValueError):
        knitted_from_json(obj)
    obj2 = knitted_to_json(braid_closure_knitted(BraidWord(2, (1,))))
    obj2["wiring"][0] = ["b0.out9", "b0.in0"]
    with pytest.raises(ValueError):
        knitted_from_json(obj2)


# numbers stay small here: a huge strand count has its own test, run under a
# memory cap
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-10**6, 10**6)
    | st.floats(-1e6, 1e6)
    | st.sampled_from([float("nan"), float("inf")])
    | st.text(max_size=10),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=20,
)
_JUNK = st.one_of(
    _JSON,
    st.from_regex(r"b-?\d{1,25}\.(in|out|up)\d{1,25}\n?", fullmatch=True),
)


@st.composite
def _knitted_objects(draw):
    """Knitted JSON for a random wiring of 1-3 boxes, often with one part broken."""
    boxes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    ends = [(b, p) for b, n in enumerate(boxes) for p in range(n)]
    ins = draw(st.permutations([f"b{b}.in{p}" for b, p in ends]))
    words = []
    for n in boxes:
        letters = [g for g in (-2, -1, 1, 2) if abs(g) < n]
        words.append(draw(st.lists(st.sampled_from(letters), max_size=3)) if letters else [])
    obj = {
        "boxes": [{"strands": n, "word": word} for n, word in zip(boxes, words)],
        "wiring": [[f"b{b}.out{p}", dst] for (b, p), dst in zip(ends, ins)],
    }
    where = draw(st.sampled_from(["none", "box", "strands", "word", "pair", "endpoint", "field", "all"]))
    junk = draw(_JUNK)
    box = draw(st.integers(0, len(boxes) - 1))
    pair = draw(st.integers(0, len(ends) - 1))
    if where == "box":
        obj["boxes"][box] = junk
    elif where in ("strands", "word"):
        obj["boxes"][box][where] = junk
    elif where == "pair":
        obj["wiring"][pair] = junk
    elif where == "endpoint":
        obj["wiring"][pair][draw(st.integers(0, 1))] = junk
    elif where == "field":
        obj[draw(st.sampled_from(["boxes", "wiring"]))] = junk
    elif where == "all":
        obj = junk
    return obj


@settings(max_examples=200, deadline=None)
@given(_knitted_objects())
def test_knitted_from_json_accepts_or_raises_value_error(obj):
    try:
        k = knitted_from_json(obj)
    except ValueError:  # TemplateError included; the CLI exits 2 on these
        return
    assert knitted_from_json(knitted_to_json(k)) == k


def test_json_rejects_huge_strand_counts_at_once():
    # in a child under a 1 GiB address-space cap, so listing 10**15 endpoints
    # would end in MemoryError rather than take the host's memory
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from knitweave.knitted import knitted_from_json\n"
        "try:\n"
        "    knitted_from_json({'boxes': [{'strands': 10**15, 'word': []}], 'wiring': []})\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(knitted.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.stdout.strip() == (
        "invalid knitted template: wiring must use every box output exactly once"
    ), proc.stderr


# one_of splits the examples between the two profiles; 400 gives the long
# range(m) lists, where the unrolled loop takes its widest words, about 200
@settings(max_examples=400, deadline=None)
@given(
    st.integers(0, 2**64),
    st.one_of(
        st.lists(st.integers(1, 6), min_size=1, max_size=6).map(
            lambda boxes: [b for b, n in enumerate(boxes) for _ in range(n)]
        ),
        # one strand per box: no wire joins two inputs of a box, so nothing is refused
        st.integers(0, 200).map(lambda m: list(range(m))),
    ),
)
def test_the_sampler_shuffles_as_random_shuffle_does(seed, box_of):
    # the unrolled Fisher-Yates must take the same Mersenne Twister words in
    # the same order, also after it gives a try up, or every pinned sample and
    # retry count would move; it gives up exactly the lists that wire some
    # output i > 0 into another input of its own box (output 0, wired by the
    # last swap, is left to _repeats_a_box)
    rng, ref = Random(seed), Random(seed)
    shuffles = knitted._shuffles(rng, box_of)
    for _ in range(2):
        expected = list(range(len(box_of)))
        ref.shuffle(expected)
        same_box = any(t != i and box_of[t] == box_of[i] for i, t in enumerate(expected) if i)
        assert next(shuffles) == (None if same_box else expected)
        assert rng.getstate() == ref.getstate()


def test_random_template_respects_bounds_and_validates():
    rng = Random(2)
    for _ in range(20):
        t, tries = random_template(rng, 3, 3)
        assert 1 <= len(t.boxes) <= 3
        assert all(1 <= n <= 3 for n in t.boxes)
        assert validate(t.boxes, t.wiring).ok
        assert tries >= 1
