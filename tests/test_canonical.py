"""The canonical memo key against a brute-force oracle, its inverse, and its walk count."""

from contextlib import contextmanager
from random import Random

from canonical_oracle import brute_force_canonical, decode_piece
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knitweave import diagram
from knitweave.braid import BraidWord, full_twist_word
from knitweave.diagram import _split_components, canonical_raw
from knitweave.knitted import braid_closure


@st.composite
def closed_crossings(draw, signs=(1, -1), max_crossings=6):
    """Any closed crossing list: planar or not, connected or split, with kinks."""
    n = draw(st.integers(1, max_crossings))
    ins = draw(st.permutations(range(2 * n)))
    outs = draw(st.permutations(range(2 * n)))
    chosen = draw(st.lists(st.sampled_from(signs), min_size=n, max_size=n))
    return tuple(
        (chosen[i], ins[2 * i], ins[2 * i + 1], outs[2 * i], outs[2 * i + 1])
        for i in range(n)
    )


@st.composite
def braid_closures(draw, signs=(1, -1)):
    """Planar diagrams: closures of braid words, knots and multi-component links."""
    n = draw(st.integers(2, 5))
    letters = draw(
        st.lists(
            st.tuples(st.integers(1, n - 1), st.sampled_from(signs)),
            min_size=1,
            max_size=10,
        )
    )
    return braid_closure(BraidWord(n, tuple(g * s for g, s in letters))).crossings


def _disjoint_union(pieces):
    return tuple(
        (s, ui + 100 * j, oi + 100 * j, uo + 100 * j, oo + 100 * j)
        for j, piece in enumerate(pieces)
        for s, ui, oi, uo, oo in piece
    )


_pieces = st.one_of(
    closed_crossings(),
    closed_crossings(signs=(-1,)),
    braid_closures(),
    braid_closures(signs=(-1,)),
)
_unions = st.lists(_pieces, min_size=2, max_size=3).map(_disjoint_union)
# shuffled unions interleave their pieces, and a mixed-sign piece may list a
# positive crossing before its negative ones
diagrams = st.one_of(_pieces, _unions, _unions.flatmap(st.permutations).map(tuple))

# kinks: under_out == under_in (with over_out == over_in on the second
# crossing), a one-crossing curl, and two loops meeting at one crossing
_KINKS = (
    ((1, 0, 1, 0, 2), (-1, 2, 3, 1, 3)),
    ((1, 0, 1, 1, 0),),
    ((-1, 0, 1, 0, 1),),
)

# two interleaved pieces, each listed positive first: sigma1 sigma1^-1 and
# the Hopf link sigma1^2
_INTERLEAVED = tuple(
    _disjoint_union(
        [braid_closure(BraidWord(2, w)).crossings for w in ((1, -1), (1, 1))]
    )[i]
    for i in (0, 2, 1, 3)
)


# the lockstep race of candidate walks: a 12-way tie to the end (T(2,12));
# sigma1^-4 sigma1^8, whose four negative starts race; FT_4; two equal
# pieces; and the closure of sigma2^-2 sigma1 on 3 strands, whose least
# stream closes a component (-3) where the first walk meets a crossing
_RACES = tuple(
    braid_closure(BraidWord(n, w)).crossings
    for n, w in (
        (2, (1,) * 12),
        (2, (-1,) * 4 + (1,) * 8),
        (4, full_twist_word(4).letters),
        (3, (-2, -2, 1)),
    )
)
_TWINS = _disjoint_union([braid_closure(BraidWord(3, (1, -2, 1, -2))).crossings] * 2)


@contextmanager
def counted_walks():
    """Collect the start arc of every ``_walk``."""
    real = diagram._walk
    starts = []

    def counting(table, start, order):
        starts.append(start)
        return real(table, start, order)

    diagram._walk = counting
    try:
        yield starts
    finally:
        diagram._walk = real


@contextmanager
def counted_tokens():
    """Count the tokens every ``_walk`` yields."""
    real = diagram._walk
    count = [0]

    def counting(table, start, order):
        for token in real(table, start, order):
            count[0] += 1
            yield token

    diagram._walk = counting
    try:
        yield count
    finally:
        diagram._walk = real


@settings(max_examples=300, deadline=None)
@given(diagrams, st.integers(0, 3))
@example(_KINKS[0], 0)
@example(_KINKS[1], 2)
@example(_KINKS[2], 1)
@example(_INTERLEAVED, 0)
@example(_RACES[0], 0)
@example(_RACES[1], 0)
@example(_RACES[2], 0)
@example(_RACES[3], 0)
@example(_TWINS, 1)
def test_canonical_raw_matches_all_arcs_minimum(crossings, free_loops):
    assert canonical_raw(crossings, free_loops) == brute_force_canonical(crossings, free_loops)


@settings(max_examples=200, deadline=None)
@given(diagrams)
@example(_RACES[3])
def test_each_stream_decodes_to_a_piece_with_that_stream(crossings):
    # equal streams therefore mean isomorphic pieces
    for stream in canonical_raw(crossings, 0)[0]:
        assert canonical_raw(decode_piece(stream), 0) == ((stream,), 0)


@settings(max_examples=200, deadline=None)
@given(diagrams, st.integers(0, 3), st.randoms(use_true_random=False))
@example(_KINKS[0], 0, Random(1))
def test_canonical_raw_ignores_arc_labels_and_crossing_order(crossings, free_loops, rnd):
    arcs = sorted({a for c in crossings for a in c[1:]})
    relabel = dict(zip(arcs, rnd.sample(range(-500, 500), len(arcs))))
    moved = [
        (s, relabel[ui], relabel[oi], relabel[uo], relabel[oo])
        for s, ui, oi, uo, oo in crossings
    ]
    rnd.shuffle(moved)
    assert canonical_raw(moved, free_loops) == canonical_raw(crossings, free_loops)


def test_one_negative_crossing_is_walked_once():
    raw = braid_closure(BraidWord(3, (1, 2, 1, -2, 1, 2))).crossings
    with counted_walks() as starts:
        key = canonical_raw(raw, 0)
    assert len(key[0]) == 1  # one connected piece
    assert len(starts) == 1


@settings(max_examples=200, deadline=None)
@given(diagrams)
def test_one_walk_per_crossing_of_each_pieces_smallest_sign(crossings):
    expected = 0
    for piece in _split_components(crossings):
        low = min(c[0] for c in piece)
        expected += sum(1 for c in piece if c[0] == low)
    with counted_walks() as starts:
        canonical_raw(crossings, 0)
    assert len(starts) == expected


def test_the_race_drops_a_walk_at_its_first_losing_token():
    # closures of random words, signed and positive: the walks yield 2.4 to
    # 3.3 tokens per key token, where walking every candidate to the end and
    # keeping the least stream yields 39 to 109
    for seed in range(3):
        rng = Random(seed)
        for n, length, signs in ((4, 100, (1, -1)), (4, 100, (1,)), (6, 200, (1, -1))):
            letters = tuple(rng.choice(signs) * rng.randint(1, n - 1) for _ in range(length))
            raw = braid_closure(BraidWord(n, letters)).crossings
            with counted_tokens() as tokens:
                key = canonical_raw(raw, 0)
            assert tokens[0] <= 4 * sum(map(len, key[0])), (seed, n, signs)


def test_keys_of_multi_component_links_are_pinned():
    # literal keys: a changed token or walk-restart rule would rename every
    # memo entry
    hopf = braid_closure(BraidWord(2, (1, 1))).crossings
    assert canonical_raw(hopf, 1) == (((2, 3, -3, 4, 5, -3),), 1)
    chain = braid_closure(BraidWord(3, (1, 1, -2, -2))).crossings
    assert canonical_raw(chain, 0) == (((-2, -1, -3, 4, 2, 3, 5, -3, 6, 7, -3),), 0)
