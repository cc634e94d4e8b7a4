import time
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from naive_hecke import perm_of_word

from knitweave.braid import BraidWord
from knitweave.diagram import (
    Crossing,
    OpenDiagramError,
    PDParseError,
    PlanarDiagram,
    canonical_raw,
    component_count,
    parse_pd,
    planarity_check,
    seifert_circles,
    writhe,
)
from knitweave.knitted import braid_closure
from knitweave.skein import mp_vanishing


def _random_word(rng: Random, n: int, max_len: int = 8) -> BraidWord:
    if n == 1:
        return BraidWord(1, ())
    return BraidWord(
        n,
        tuple(
            rng.choice((1, -1)) * rng.randint(1, n - 1)
            for _ in range(rng.randint(0, max_len))
        ),
    )


def _cycles(p) -> int:
    seen, count = set(), 0
    for start in range(1, len(p) + 1):
        if start in seen:
            continue
        count += 1
        j = start
        while j not in seen:
            seen.add(j)
            j = p[j - 1]
    return count


def test_free_loop_count_is_an_integer_only():
    # int() truncated 2.9 to 2 free loops
    for bad in (2.9, 2.0, "2"):
        with pytest.raises(TypeError):
            PlanarDiagram((), bad)
    assert PlanarDiagram((), 2) == braid_closure(BraidWord(2, ()))


def test_closure_of_empty_word_is_free_loops():
    d = braid_closure(BraidWord(3, ()))
    assert len(d.crossings) == 0 and d.free_loops == 3
    assert component_count(d) == 3
    assert seifert_circles(d)[0] == 3


def test_closure_of_single_generator():
    d = braid_closure(BraidWord(2, (1,)))
    assert len(d.crossings) == 1
    assert component_count(d) == 1


def test_closure_of_trefoil_word():
    d = braid_closure(BraidWord(2, (1, 1, 1)))
    assert len(d.crossings) == 3
    assert component_count(d) == 1
    assert component_count(braid_closure(BraidWord(2, (1, 1)))) == 2


def test_untouched_strands_become_free_loops():
    d = braid_closure(BraidWord(4, (1,)))
    assert len(d.crossings) == 1 and d.free_loops == 2


def test_seifert_circle_count_is_strand_count():
    rng = Random(8)
    for _ in range(50):
        n = rng.randint(1, 5)
        w = _random_word(rng, n)
        d = braid_closure(w)
        assert seifert_circles(d)[0] == n
        assert writhe(d) == sum(1 if g > 0 else -1 for g in w.letters)


def test_seifert_assignment_partitions_arcs():
    d = braid_closure(BraidWord(3, (1, 2, 1)))
    count, assignment = seifert_circles(d)
    assert count == 3
    assert set(assignment) == set(d.arcs)
    assert set(assignment.values()) == {1, 2, 3}


def _seifert_edges(d: PlanarDiagram) -> list[tuple[int, int, int]]:
    """The signed Seifert graph's edges: one (circle, circle, sign) per crossing."""
    _, circle = seifert_circles(d)
    return [
        (*sorted((circle[c.under_in], circle[c.over_in])), c.sign) for c in d.crossings
    ]


def test_seifert_graph_examples():
    d = braid_closure(BraidWord(2, (1,)))
    assert seifert_circles(d)[0] == 2 and _seifert_edges(d) == [(1, 2, 1)]
    assert mp_vanishing(d) == (True, False)
    d = braid_closure(BraidWord(2, (1, 1)))
    assert _seifert_edges(d) == [(1, 2, 1), (1, 2, 1)]
    assert mp_vanishing(d) == (False, False)
    d = braid_closure(BraidWord(3, (1, -2)))
    assert seifert_circles(d)[0] == 3
    assert sorted(_seifert_edges(d)) == [(1, 2, 1), (2, 3, -1)]
    assert mp_vanishing(d) == (True, True)


def test_seifert_graph_edge_count_matches_crossings():
    # every crossing joins two distinct circles of a braid closure, and
    # mp_vanishing predicts a zero on a sign side exactly when a pair of
    # circles meets at one crossing of that sign
    rng = Random(12)
    for _ in range(30):
        w = _random_word(rng, rng.randint(2, 4))
        d = braid_closure(w)
        edges = _seifert_edges(d)
        assert len(edges) == len(d.crossings)
        assert all(a != b for a, b, _ in edges)
        signs: dict[tuple[int, int], list[int]] = {}
        for a, b, sign in edges:
            signs.setdefault((a, b), []).append(sign)
        assert mp_vanishing(d) == tuple(
            any(s == [side] for s in signs.values()) for side in (1, -1)
        )


def test_a_crossing_that_joins_a_seifert_circle_to_itself_is_refused():
    # both crossings smooth into one circle: the code is not planar
    d = PlanarDiagram([Crossing(1, 0, 1, 2, 3), Crossing(1, 2, 3, 1, 0)])
    assert not planarity_check(d)
    with pytest.raises(ValueError, match="joins a Seifert circle to itself"):
        mp_vanishing(d)


def test_writhe_examples():
    assert writhe(braid_closure(BraidWord(2, ()))) == 0
    assert writhe(braid_closure(BraidWord(2, (1, 1, 1)))) == 3
    assert writhe(braid_closure(BraidWord(2, (1, -1)))) == 0


def test_braid_closures_are_planar():
    rng = Random(55)
    for _ in range(60):
        w = _random_word(rng, rng.randint(1, 5))
        assert planarity_check(braid_closure(w))


def test_virtual_hopf_is_not_planar():
    # two circles crossing transversally exactly once: genus 1
    d = PlanarDiagram([Crossing(1, under_in=1, over_in=2, under_out=1, over_out=2)])
    assert component_count(d) == 2
    assert not planarity_check(d)
    # two crossings joining the same two circles, wired straight through
    d = PlanarDiagram(
        [
            Crossing(1, under_in=1, over_in=2, under_out=3, over_out=4),
            Crossing(1, under_in=3, over_in=4, under_out=1, over_out=2),
        ]
    )
    assert component_count(d) == 2
    assert not planarity_check(d)


def test_disjoint_union_is_planar_per_component():
    a = braid_closure(BraidWord(2, (1, 1)))
    shift = max(a.arcs) + 10
    b = braid_closure(BraidWord(2, (-1, -1)))
    moved = [
        Crossing(
            c.sign,
            c.under_in + shift,
            c.over_in + shift,
            c.under_out + shift,
            c.over_out + shift,
        )
        for c in b.crossings
    ]
    d = PlanarDiagram(list(a.crossings) + moved, 1)
    assert planarity_check(d)
    assert component_count(d) == 5


def test_component_count_matches_permutation_cycles():
    rng = Random(23)
    for _ in range(50):
        n = rng.randint(1, 5)
        w = _random_word(rng, n)
        assert component_count(braid_closure(w)) == _cycles(perm_of_word(w))


def test_closed_diagram_invariant_is_enforced():
    with pytest.raises(ValueError):
        PlanarDiagram([Crossing(1, 1, 2, 3, 4)])
    with pytest.raises(ValueError):
        PlanarDiagram(
            [
                Crossing(1, 1, 2, 1, 2),
                Crossing(1, 3, 3, 3, 3),  # arc 3 consumed twice
            ]
        )


def test_open_diagram_error_names_the_first_fault_and_its_crossing():
    cases = (
        # crossing by crossing: the produced-twice arc of crossing 0 comes
        # before the consumed-twice arc of crossing 1
        ([(1, 2, 3, 3), (1, 5, 6, 7)], "arc 3 produced twice", 0),
        ([(1, 2, 3, 4), (4, 3, 2, 2)], "arc 2 produced twice", 1),
        ([(1, 2, 3, 4), (4, 3, 9, 1)], "arc 2 is consumed but never produced", 0),
        ([(1, 2, 3, 4), (4, 9, 1, 2)], "arc 9 is consumed but never produced", 1),
    )
    for arcs, message, crossing in cases:
        with pytest.raises(OpenDiagramError) as err:
            PlanarDiagram([Crossing(1, *a) for a in arcs])
        assert str(err.value) == message and err.value.crossing == crossing
        with pytest.raises(PDParseError) as err:
            parse_pd("O\n" + "\n".join("  X[%d,%d,%d,%d;+]" % a for a in arcs))
        assert str(err.value) == f"{message} (line {crossing + 2}, column 3)"


def test_sign_is_validated():
    with pytest.raises(ValueError, match="sign"):
        PlanarDiagram([Crossing(2, 1, 2, 1, 2)])


def test_canonical_key_is_relabeling_invariant():
    rng = Random(77)
    for _ in range(30):
        w = _random_word(rng, rng.randint(2, 4), 6)
        d = braid_closure(w)
        arcs = sorted(d.arcs)
        shuffled = list(arcs)
        rng.shuffle(shuffled)
        relabel = dict(zip(arcs, shuffled))
        moved = PlanarDiagram(
            [
                Crossing(
                    c.sign,
                    relabel[c.under_in],
                    relabel[c.over_in],
                    relabel[c.under_out],
                    relabel[c.over_out],
                )
                for c in d.crossings
            ],
            d.free_loops,
        )
        key = canonical_raw(d.crossings, d.free_loops)
        assert canonical_raw(moved.crossings, moved.free_loops) == key
        # the memo key depends on the crossings' values, not on their record type
        assert canonical_raw(tuple(tuple(c) for c in d.crossings), d.free_loops) == key


def test_canonical_key_separates_mirror_diagrams():
    a = braid_closure(BraidWord(2, (1, 1, 1)))
    b = braid_closure(BraidWord(2, (-1, -1, -1)))
    assert canonical_raw(a.crossings, a.free_loops) != canonical_raw(b.crossings, b.free_loops)


def format_pd(d: PlanarDiagram) -> str:
    """PD text that ``parse_pd`` reads back as ``d``."""
    parts = [
        f"X[{c.under_in},{c.over_in},{c.under_out},{c.over_out};{'+' if c.sign > 0 else '-'}]"
        for c in d.crossings
    ]
    return " ".join(parts + ["O"] * d.free_loops)


def test_pd_text_round_trip():
    d = braid_closure(BraidWord(3, (1, -2, 1)))
    text = format_pd(d)
    assert parse_pd(text) == d
    spaced = text.replace(" ", "\n  ")
    assert parse_pd(spaced) == d


def test_pd_parse_reports_position():
    with pytest.raises(PDParseError) as err:
        parse_pd("X[1,2,1,2;+]\nY")
    assert err.value.line == 2 and err.value.column == 1
    with pytest.raises(PDParseError) as err:
        parse_pd("X[1,2,1,2;+] X[1,5,1,5;+]")
    assert err.value.line == 1 and err.value.column == 14
    with pytest.raises(PDParseError):
        parse_pd("X[1,2,3,4;+]")  # not closed


def test_pd_parse_is_linear_in_the_text():
    # T(2,40000) is 1.1 MB of PD text; finding every crossing's line and
    # column up front made parsing quadratic (17 s on a 2-core x86 host)
    d = braid_closure(BraidWord(2, (1,) * 40000))
    text = "\n".join("X[%d,%d,%d,%d;+]" % c.as_tuple()[1:] for c in d.crossings)
    start = time.monotonic()
    assert parse_pd(text) == d
    assert time.monotonic() - start < 5.0


def test_pd_free_loops():
    d = parse_pd("O O X[1,2,1,2;+]")
    assert d.free_loops == 2 and len(d.crossings) == 1


_PD_TOKENS = st.one_of(
    st.builds(
        "X[{},{},{},{};{}]".format,
        *[st.integers(-2, 6)] * 4,
        st.sampled_from("+-"),
    ),
    st.sampled_from(["O", "X", "[", "]", ";", ",", "+", "1", "X[1,2,1,2;", "-0", "\n", "\t", " "]),
    st.text(max_size=3),
)


@st.composite
def _pd_texts(draw):
    """Closed PD texts with 0-4 crossings, some with one junk token inserted."""
    k = draw(st.integers(0, 4))
    ins = draw(st.permutations(range(1, 2 * k + 1)))
    outs = draw(st.permutations(ins))
    tokens = [
        f"X[{ins[2 * j]},{ins[2 * j + 1]},{outs[2 * j]},{outs[2 * j + 1]};{draw(st.sampled_from('+-'))}]"
        for j in range(k)
    ]
    tokens += ["O"] * draw(st.integers(0, 2))
    if draw(st.booleans()):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(_PD_TOKENS))
    return draw(st.sampled_from(" \n")).join(tokens)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(_PD_TOKENS, max_size=8).map(" ".join), _pd_texts()))
def test_parse_pd_accepts_or_raises_value_error(text):
    try:
        d = parse_pd(text)
    except ValueError:  # PDParseError included; the CLI exits 2 on these
        return
    assert parse_pd(format_pd(d)) == d
