from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from canonical_oracle import decode_piece
from naive_skein import naive_homfly_framed

from knitweave import skein
from knitweave.braid import BraidWord, full_twist_word
from knitweave.diagram import (
    Crossing,
    PlanarDiagram,
    _arc_table,
    planarity_check,
    seifert_circles,
    writhe,
)
from knitweave.knitted import (
    KnittedDiagram,
    _expanded,
    _tuple_sum,
    braid_closure,
    braid_closure_knitted,
    compile_diagram,
    eval_hecke,
    random_knitted,
    verify_theorem,
)
from knitweave.laurent import LaurentVZ, delta_pow
from knitweave.skein import (
    homfly_framed,
    homfly_unframed,
    mfw_check,
    mp_vanishing,
)

TREFOIL_H = LaurentVZ({(-1, 0): 2, (1, 0): -1, (-1, 2): 1})


def _random_word(rng: Random, n: int, max_len: int = 7) -> BraidWord:
    if n == 1:
        return BraidWord(1, ())
    return BraidWord(
        n,
        tuple(
            rng.choice((1, -1)) * rng.randint(1, n - 1)
            for _ in range(rng.randint(0, max_len))
        ),
    )


def test_unknot_normalization():
    assert homfly_framed(braid_closure(BraidWord(1, ()))) == LaurentVZ.one()


def test_positive_kink_value():
    assert homfly_framed(braid_closure(BraidWord(2, (1,)))) == LaurentVZ.monomial(-1, 0)


def test_negative_kink_value():
    assert homfly_framed(braid_closure(BraidWord(2, (-1,)))) == LaurentVZ.monomial(1, 0)


def test_hopf_link_by_hand():
    expected = delta_pow(1) + LaurentVZ.monomial(-1, 1)
    assert homfly_framed(braid_closure(BraidWord(2, (1, 1)))) == expected


def test_trefoil_by_hand():
    assert homfly_framed(braid_closure(BraidWord(2, (1, 1, 1)))) == TREFOIL_H


def test_unframed_values():
    assert homfly_unframed(braid_closure(BraidWord(2, (1,)))) == LaurentVZ.one()
    assert homfly_unframed(braid_closure(BraidWord(2, (1, 1, 1)))) == LaurentVZ(
        {(2, 0): 2, (4, 0): -1, (2, 2): 1}
    )
    assert homfly_unframed(braid_closure(BraidWord(2, (-1, -1, -1)))) == LaurentVZ(
        {(-2, 0): 2, (-4, 0): -1, (-2, 2): 1}
    )


def test_unlinks():
    for k in range(1, 5):
        d = braid_closure(BraidWord(k, ()))
        assert homfly_framed(d) == delta_pow(k - 1)


def test_homfly_result_invariants():
    d = braid_closure(BraidWord(2, (1, 1, 1)))
    framed = homfly_framed(d)
    assert homfly_unframed(d) == LaurentVZ.monomial(writhe(d), 0) * framed
    assert mfw_check(framed, seifert_circles(d)[0])


def test_mfw_check_examples():
    assert mfw_check(LaurentVZ.one(), 1)
    assert mfw_check(LaurentVZ.monomial(-1, 0), 2)
    assert not mfw_check(LaurentVZ.monomial(2, 0), 2)
    assert mfw_check(LaurentVZ.zero(), 1)


def test_mp_vanishing_examples():
    d = braid_closure(BraidWord(2, (1,)))
    assert mp_vanishing(d) == (True, False)
    assert not homfly_framed(d).coeff_of_v(1)
    assert mp_vanishing(braid_closure(BraidWord(2, (-1,)))) == (False, True)
    assert mp_vanishing(braid_closure(BraidWord(2, (1, 1)))) == (False, False)


def test_rejects_non_planar():
    d = PlanarDiagram(
        [
            Crossing(1, under_in=1, over_in=2, under_out=3, over_out=4),
            Crossing(1, under_in=3, over_in=4, under_out=1, over_out=2),
        ]
    )
    with pytest.raises(ValueError):
        homfly_framed(d)


def test_markov_conjugation_invariance():
    rng = Random(1001)
    for _ in range(40):
        n = rng.randint(2, 4)
        u = _random_word(rng, n, 4)
        v = _random_word(rng, n, 4)
        assert homfly_framed(braid_closure(u + v)) == homfly_framed(
            braid_closure(v + u)
        )


def test_stabilization_scales_by_v():
    rng = Random(1002)
    for _ in range(30):
        n = rng.randint(1, 3)
        w = _random_word(rng, n, 5)
        stabilized = BraidWord(n + 1, w.letters + (n,))
        assert homfly_framed(braid_closure(stabilized)) == LaurentVZ.monomial(
            -1, 0
        ) * homfly_framed(braid_closure(w))


def test_mirror_symmetry_consistency():
    # mirroring the diagram substitutes (v, z) -> (v^-1, -z) in H
    rng = Random(1003)
    for _ in range(25):
        n = rng.randint(2, 4)
        w = _random_word(rng, n, 5)
        mirror = BraidWord(n, tuple(-g for g in w.letters))
        h = homfly_framed(braid_closure(w))
        hm = homfly_framed(braid_closure(mirror))
        flipped = LaurentVZ({(-v, z): -c if z % 2 else c for (v, z), c in h.terms.items()})
        assert hm == flipped


def test_split_diagram_factorization():
    a = braid_closure(BraidWord(2, (1, 1, 1)))
    shift = max(a.arcs) + 5
    moved = [
        Crossing(
            c.sign,
            c.under_in + shift,
            c.over_in + shift,
            c.under_out + shift,
            c.over_out + shift,
        )
        for c in a.crossings
    ]
    d = PlanarDiagram(list(a.crossings) + moved, 0)
    assert homfly_framed(d) == TREFOIL_H * TREFOIL_H * delta_pow(1)


def test_oracle_equivalence_on_random_closures():
    rng = Random(424242)
    for trial in range(40):
        n = rng.randint(1, 4)
        w = _random_word(rng, n, 6)
        d = braid_closure(w)
        if len(d.crossings) > 8:
            continue
        assert naive_homfly_framed(d, seed=trial) == homfly_framed(d), (
            f"oracle mismatch on closure of {w.letters} ({n} strands)"
        )


def test_oracle_equivalence_with_kinks_and_splits():
    d = braid_closure(BraidWord(3, (1, 1, -2)))
    assert naive_homfly_framed(d, seed=9) == homfly_framed(d)
    d = braid_closure(BraidWord(4, (1, 3)))  # split-ish wiring across strands
    assert naive_homfly_framed(d, seed=10) == homfly_framed(d)


def test_evaluation_is_deterministic():
    w = BraidWord(3, (1, -2, 1, -2))
    a = homfly_framed(braid_closure(w))
    b = homfly_framed(braid_closure(w))
    assert a == b and a.to_json_dict() == b.to_json_dict()


def _with_curl(d: PlanarDiagram, sign: int, where: int, under_first: bool) -> PlanarDiagram:
    """d with one R1 curl of the given sign on one of its arcs.

    The curl goes on the arc into port 1 or 2 (``where`` picks which) of a
    crossing; ``under_first`` picks the curl's orientation: the strand passes
    under and comes back over (under_out == over_in) or the reverse (over_out
    == under_in). Without crossings, a free loop becomes a one-crossing curl.
    """
    raw = [list(c.as_tuple()) for c in d.crossings]
    top = max((a for c in raw for a in c[1:]), default=0)
    m, e = top + 1, top + 2
    if not raw:
        return PlanarDiagram([Crossing(sign, m, e, e, m)], d.free_loops - 1)
    row = raw[(where // 2) % len(raw)]
    a, row[1 + where % 2] = row[1 + where % 2], e
    raw.append([sign, a, m, m, e] if under_first else [sign, m, a, e, m])
    return PlanarDiagram([Crossing(*c) for c in raw], d.free_loops)


_CURLS = st.lists(
    st.tuples(st.sampled_from((1, -1)), st.integers(0, 30), st.booleans()), max_size=3
)


@settings(max_examples=60, deadline=None)
@given(
    closure=st.booleans(),
    seed=st.integers(0, 10**6),
    stabilisations=st.lists(st.sampled_from((1, -1)), max_size=2),
    curls=_CURLS,
)
def test_kinks_and_stabilisations_change_only_the_framing(closure, seed, stabilisations, curls):
    rng = Random(seed)
    if closure:
        n = rng.randint(1, 3)
        word = _random_word(rng, n, 5)
        base = braid_closure(word)
        for sign in stabilisations:  # Markov: w on n strands -> w sigma_n^(+-1)
            word = BraidWord(word.strands + 1, word.letters + (sign * word.strands,))
        d = braid_closure(word)
        framing = sum(stabilisations)
    else:
        k, _ = random_knitted(rng, 2, 3, 3)
        base = d = compile_diagram(k)
        framing = 0
    for sign, where, under_first in curls:
        d = _with_curl(d, sign, where, under_first)
        framing += sign
    assert planarity_check(d)
    h = homfly_framed(d)
    assert h == LaurentVZ.monomial(-framing, 0) * homfly_framed(base)
    assert homfly_unframed(d) == homfly_unframed(base)
    if len(d.crossings) <= 9:
        assert naive_homfly_framed(d, seed=seed) == h


# the fewest strands each braid move needs
_MOVE_STRANDS = {"R2": 2, "R3": 3, "far swap": 4}


def _spliced_move(word: BraidWord, kind: str, at: int, pick: int, signs) -> tuple[BraidWord, BraidWord]:
    """Two words that differ by one braid move spliced in before letter ``at``.

    R2 inserts a cancelling pair (j, -j); R3 rewrites j, j+1, j as
    j+1, j, j+1, all of one sign; a far swap exchanges two adjacent letters
    j and j+2. ``at`` and ``pick``, which chooses j, are taken modulo what
    the word and its strands allow, so every draw names a move.
    """
    n, (e, f) = word.strands, signs
    j = 1 + pick % (n - _MOVE_STRANDS[kind] + 1)
    before, after = {
        "R2": ((), (e * j, -e * j)),
        "R3": ((e * j, e * (j + 1), e * j), (e * (j + 1), e * j, e * (j + 1))),
        "far swap": ((e * j, f * (j + 2)), (f * (j + 2), e * j)),
    }[kind]
    at %= len(word.letters) + 1
    head, tail = word.letters[:at], word.letters[at:]
    return BraidWord(n, head + before + tail), BraidWord(n, head + after + tail)


_SIGNS = st.tuples(st.sampled_from((1, -1)), st.sampled_from((1, -1)))


@settings(max_examples=60, deadline=None)
@given(
    strands=st.integers(2, 4),
    letters=st.lists(st.tuples(st.sampled_from((1, -1)), st.integers(0, 2)), max_size=7),
    kind=st.sampled_from(tuple(_MOVE_STRANDS)),
    at=st.integers(0, 7),
    pick=st.integers(0, 2),
    signs=_SIGNS,
)
def test_r2_r3_and_far_swaps_keep_the_closure_value(strands, letters, kind, at, pick, signs):
    # direct skein on the compiled closures, not the Hecke trace: regular
    # isotopy and far commutation keep the framed value; at most 10 letters
    n = max(strands, _MOVE_STRANDS[kind])
    word = BraidWord(n, tuple(e * (1 + g % (n - 1)) for e, g in letters))
    before, after = _spliced_move(word, kind, at, pick, signs)
    assert homfly_framed(braid_closure(before)) == homfly_framed(braid_closure(after))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    box=st.integers(0, 2),
    kind=st.sampled_from(("R2", "R3")),  # a box of at most 3 strands has no far swap
    at=st.integers(0, 4),
    pick=st.integers(0, 1),
    signs=_SIGNS,
)
def test_braid_moves_inside_a_box_keep_the_knitted_value(seed, box, kind, at, pick, signs):
    k, _ = random_knitted(Random(seed), 3, 3, 4)
    fits = [b for b, n in enumerate(k.template.boxes) if n >= _MOVE_STRANDS[kind]]
    assume(fits)
    b = fits[box % len(fits)]
    values = []
    for w in _spliced_move(k.words[b], kind, at, pick, signs):
        words = k.words[:b] + (w,) + k.words[b + 1 :]
        values.append(homfly_framed(compile_diagram(KnittedDiagram(k.template, words))))
    assert values[0] == values[1]


def test_cascading_kinks_reduce_to_a_free_loop_at_the_root():
    # sigma_1 ... sigma_4 closes to an unknot in four kinks: removing the
    # last exposes the one before it
    skein._MEMO.clear()
    d = braid_closure(BraidWord(5, (1, 2, 3, 4)))
    assert homfly_framed(d) == LaurentVZ.monomial(-4, 0)
    assert not skein._MEMO
    d = braid_closure(BraidWord(4, (-1, 2, -3)))
    assert homfly_framed(d) == LaurentVZ.monomial(1, 0)
    assert not skein._MEMO


def test_cancelling_pairs_reduce_to_free_loops_at_the_root():
    # sigma_1 sigma_1^-1 closes to two circles; sigma_2 sigma_2^-1 hides
    # the outer pair of the second word; in the third the kink sigma_2 hides
    # sigma_1 sigma_1^-1; in the last, once the first pair and the kink after
    # it are gone, a pair is left that only the crossing making a renamed
    # arc finds
    for strands, letters, value in (
        (2, (1, -1), delta_pow(1)),
        (3, (1, 2, -2, -1), delta_pow(2)),
        (3, (1, 2, -1), LaurentVZ.monomial(-1, 0) * delta_pow(1)),
        (3, (-1, 1, 2, 1, -2, -2), LaurentVZ.one()),
    ):
        skein._MEMO.clear()
        assert homfly_framed(braid_closure(BraidWord(strands, letters))) == value
        assert not skein._MEMO, letters


def test_pairs_that_bound_no_bigon_face_are_kept():
    # In sigma_1 sigma_1 the over strand changes and the signs agree: a
    # twist. The PD codes, from knitted diagrams the root reduction leaves,
    # each have crossings 2 and 3 joined by two antiparallel arcs at adjacent
    # ports: in the first with one sign and the same strand over at both, in
    # the second with opposite signs and the over strand changing. Neither
    # pair bounds a face, which is what the reduction's argument needs. The
    # first has a positive Hopf link beside it, since a diagram of one sign
    # is not searched for bigons.
    diagrams = [
        braid_closure(BraidWord(2, (1, 1))),
        PlanarDiagram([Crossing(*c) for c in (
            (-1, 1, 2, 9, 8), (-1, 8, 9, 2, 10), (-1, 5, 10, 1, 0),
            (-1, 22, 0, 5, 4), (-1, 4, 23, 21, 20), (-1, 20, 21, 23, 22),
            (1, 31, 30, 32, 33), (1, 33, 32, 30, 31),
        )]),
        PlanarDiagram([Crossing(*c) for c in (
            (-1, 10, 3, 9, 8), (-1, 8, 9, 2, 10), (1, 7, 4, 14, 5),
            (-1, 2, 14, 4, 3), (1, 5, 6, 18, 19), (1, 19, 18, 6, 7),
        )]),
    ]
    for d in diagrams:
        assert planarity_check(d)
        assert skein._remove(d.crossings, None) == (d.crossings, 0, 0)
        assert homfly_framed(d) == naive_homfly_framed(d)


def _value_and_root_key(d: PlanarDiagram) -> tuple[LaurentVZ, tuple | None]:
    """H(d), and the key its reduced root is stored under, the last one
    stored (None when the root reduces to free loops).

    Below the root the recursion follows arc names, and removing one pair of
    sigma^-1 sigma sigma^-1 leaves the other pair's arc names: two roots
    that reduce to one diagram up to relabelling can store different keys
    below it, but not at it.
    """
    skein._MEMO.clear()
    value = homfly_framed(d)
    return value, next(reversed(skein._MEMO), None)


@settings(max_examples=60, deadline=None)
@given(
    strands=st.integers(2, 5),
    letters=st.lists(st.tuples(st.sampled_from((1, -1)), st.integers(0, 3)), max_size=6),
    at=st.integers(0, 6),
    pick=st.integers(0, 3),
    sign=st.sampled_from((1, -1)),
    far=st.lists(st.tuples(st.sampled_from((1, -1)), st.integers(0, 3)), max_size=2),
)
def test_a_cancelling_pair_in_a_closure_changes_nothing(strands, letters, at, pick, sign, far):
    # sigma_j X sigma_j^-1, where X holds letters at least two away from j,
    # is a parallel bigon: X slides out of it
    word = tuple(e * (1 + g % (strands - 1)) for e, g in letters)
    j = 1 + pick % (strands - 1)
    away = [g for g in range(1, strands) if abs(g - j) > 1]
    x = tuple(e * away[g % len(away)] for e, g in far) if away else ()
    at %= len(word) + 1
    before = braid_closure(BraidWord(strands, word[:at] + x + word[at:]))
    after = braid_closure(BraidWord(strands, word[:at] + (sign * j,) + x + (-sign * j,) + word[at:]))
    value, key = _value_and_root_key(after)
    assert (value, key) == _value_and_root_key(before)
    if len(after.crossings) <= 9:
        assert naive_homfly_framed(after, seed=at) == value


# the port order of each sign, counterclockwise (the diagram module docstring)
_CCW = {1: (1, 2, 3, 4), -1: (1, 4, 3, 2)}


def _faces(d: PlanarDiagram) -> list[list[tuple[int, bool]]]:
    """Each face of d as its boundary arcs, with whether the walk around the
    face runs along each arc's orientation.

    The walk follows an arc to the port at its other end and turns to the
    next port counterclockwise there.
    """
    end = {}  # (arc, taken at its in-port) -> (crossing, place in its port order)
    for k, c in enumerate(d.crossings):
        for place, port in enumerate(_CCW[c.sign]):
            end[c[port], port < 3] = (k, place)
    seen: set[tuple[int, int]] = set()
    faces = []
    for dart in end.values():
        face = []
        while dart not in seen:
            seen.add(dart)
            k, place = dart
            port = _CCW[d.crossings[k].sign][place]
            arc, along = d.crossings[k][port], port > 2
            face.append((arc, along))
            k, place = end[arc, along]
            dart = (k, (place + 1) % 4)
        if face:
            faces.append(face)
    return faces


def _with_bigon(d: PlanarDiagram, x: int, y: int, parallel: bool, sign: int) -> PlanarDiagram:
    """d with arc x pushed over arc y: new crossings A, then B along x.

    With ``parallel`` y meets A first, as x does; otherwise B first. A takes
    the given sign and B the other; only the sign that matches the side of y
    that x comes from gives a planar diagram.
    """
    raw = [list(c) for c in d.crossings]
    top = max(a for c in raw for a in c[1:])
    x1, x2, y1, y2 = range(top + 1, top + 5)
    for row in raw:  # x and y now reach their consumers from B, or from A
        row[1:3] = [{x: x2, y: y2}.get(a, a) for a in row[1:3]]
    if parallel:
        raw += [[sign, y, x, y1, x1], [-sign, y1, x1, y2, x2]]
    else:
        raw += [[sign, y1, x, y2, x1], [-sign, y, x1, y1, x2]]
    return PlanarDiagram([Crossing(*c) for c in raw], d.free_loops)


@settings(max_examples=60, deadline=None)
@given(
    closure=st.booleans(),
    seed=st.integers(0, 10**6),
    face=st.integers(0, 50),
    pair=st.tuples(st.integers(0, 50), st.integers(0, 50)),
    sign=st.sampled_from((1, -1)),
)
def test_a_bigon_pushed_across_a_face_changes_nothing(closure, seed, face, pair, sign):
    # two arcs of one face that the walk around it runs along the same way
    # make an antiparallel bigon, and the others a parallel one
    rng = Random(seed)
    if closure:
        base = braid_closure(_random_word(rng, rng.randint(2, 4), 5))
    else:
        base = compile_diagram(random_knitted(rng, 2, 3, 3)[0])
    faces = [sorted(dict(f).items()) for f in _faces(base) if len(dict(f)) > 1]
    assume(faces)
    arcs = faces[face % len(faces)]
    i = pair[0] % len(arcs)
    (x, along_x), (y, along_y) = arcs[i], arcs[(i + 1 + pair[1] % (len(arcs) - 1)) % len(arcs)]
    tries = [_with_bigon(base, x, y, along_x != along_y, s) for s in (sign, -sign)]
    d = next(d for d in tries if planarity_check(d))
    assert _value_and_root_key(d) == _value_and_root_key(base)
    if len(d.crossings) <= 9:
        assert naive_homfly_framed(d, seed=seed) == homfly_framed(base)


def test_memo_holds_no_kinks():
    skein._MEMO.clear()
    rng = Random(2024)
    kinked_roots = 0
    for _ in range(40):
        n = rng.randint(2, 4)
        d = braid_closure(_random_word(rng, n, 14))
        for _ in range(rng.randint(0, 2)):
            d = _with_curl(d, rng.choice((1, -1)), rng.randrange(30), rng.random() < 0.5)
        kinked_roots += any(c[3] == c[2] or c[4] == c[1] for c in d.crossings)
        homfly_framed(d)
    for _ in range(10):
        eval_hecke(random_knitted(rng, 2, 3, 3)[0])
    verify_theorem(random_knitted(Random(7), 2, 3, 3)[0])
    assert kinked_roots >= 10 and len(skein._MEMO) > 100
    for streams, _loops in skein._MEMO:
        for stream in streams:
            for t in decode_piece(stream):
                assert t[3] != t[2] and t[4] != t[1], (stream, t)


def test_memo_sizes_are_pinned():
    # one key per class of pieces up to relabelling: a key that told apart
    # relabellings of one piece, or merged two pieces, would move these, and
    # so would a change to the crossings the recursion switches (the tuple
    # sum on the FT_6 closure leaves 1,650 keys)
    skein._MEMO.clear()
    homfly_framed(braid_closure(BraidWord(2, (1,) * 40)))
    assert len(skein._MEMO) == 439
    ft5 = braid_closure_knitted(full_twist_word(5))
    skein._MEMO.clear()
    _tuple_sum(_expanded(ft5))
    assert len(skein._MEMO) == 109
    # a one-box template closes strand by strand, which runs no skein
    skein._MEMO.clear()
    eval_hecke(ft5)
    assert len(skein._MEMO) == 0


@st.composite
def _split_closures(draw):
    """2-3 closures of words of at most 6 letters on at most 4 strands, as one
    diagram with its crossings shuffled, its arcs relabelled and 0-2 free
    loops added. Returns the diagram, the closures and the added loops."""
    closures = []
    for _ in range(draw(st.integers(2, 3))):
        n = draw(st.integers(1, 4))
        letters = st.sampled_from([g * s for g in range(1, n) for s in (1, -1)])
        word = draw(st.lists(letters, max_size=6)) if n > 1 else []
        closures.append(braid_closure(BraidWord(n, tuple(word))))
    raw = [
        (c.sign, *(a + 1000 * j for a in c[1:]))
        for j, d in enumerate(closures)
        for c in d.crossings
    ]
    rng = draw(st.randoms(use_true_random=False))
    arcs = sorted({a for c in raw for a in c[1:]})
    relabel = dict(zip(arcs, rng.sample(range(-5000, 5000), len(arcs))))
    moved = [Crossing(s, *(relabel[a] for a in ports)) for s, *ports in raw]
    rng.shuffle(moved)
    loops = draw(st.integers(0, 2))
    return PlanarDiagram(moved, loops + sum(d.free_loops for d in closures)), closures, loops


@settings(max_examples=150, deadline=None)
@given(_split_closures())
def test_a_split_diagram_is_the_product_of_its_pieces(drawn):
    d, closures, loops = drawn
    # a cold memo, so the split of the whole diagram is not read from it
    skein._MEMO.clear()
    got = homfly_framed(d)
    expected = delta_pow(len(closures) + loops - 1)
    for closure in closures:
        expected = expected * homfly_framed(closure)
    assert got == expected
    if len(d.crossings) <= 8:
        assert got == naive_homfly_framed(d)


def test_each_keyed_node_builds_one_in_arc_table(monkeypatch):
    calls = {"_arc_table": 0, "canonical_raw": 0}
    for name in calls:

        def counted(*args, real=getattr(skein, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(skein, name, counted)
    ft5 = braid_closure_knitted(full_twist_word(5))
    for run in (
        lambda: homfly_framed(braid_closure(BraidWord(2, (1,) * 40))),
        lambda: _tuple_sum(_expanded(ft5)),
    ):
        skein._MEMO.clear()
        calls.update(dict.fromkeys(calls, 0))
        run()
        assert calls["canonical_raw"] > 0
        assert calls["_arc_table"] == calls["canonical_raw"]


def _least_violations(raw) -> tuple[int, tuple[int | None, int]]:
    """Brute force over every base of every component, by a full walk each.

    Components go by smallest arc id, each walked from its smallest arc to
    list its bases; a crossing met in an earlier component is no violation.
    Returns the summed least count per component, and the first violation
    (or None) and components walked when each component starts from the
    last of its bases of least count.
    """
    step = {}
    for idx, (_, ui, oi, uo, oo) in enumerate(raw):
        step[ui] = (idx, True, uo)
        step[oi] = (idx, False, oo)
    left, seen = set(step), set()
    total, walked, first = 0, 0, None
    while left:
        walked += 1
        arcs = [min(left)]
        while step[arcs[-1]][2] != arcs[0]:
            arcs.append(step[arcs[-1]][2])
        left -= set(arcs)
        counts = []
        for b in range(len(arcs)):
            met, violations = set(seen), []
            for a in arcs[b:] + arcs[:b]:
                idx, under, _ = step[a]
                if idx not in met:
                    met.add(idx)
                    if under:
                        violations.append(idx)
            counts.append(violations)
        least = min(map(len, counts))
        total += least
        chosen = [v for v in counts if len(v) == least][-1]
        if first is None and chosen:
            first = (chosen[0], walked)
        seen.update(step[a][0] for a in arcs)
    return total, first or (None, walked)


@settings(max_examples=80, deadline=None)
@given(closure=st.booleans(), seed=st.integers(0, 10**6))
def test_each_component_starts_from_a_base_of_fewest_violations(closure, seed):
    rng = Random(seed)
    if closure:
        d = braid_closure(_random_word(rng, rng.randint(2, 4), 12))
    else:
        k, _ = random_knitted(rng, 3, 3, 3)
        d = compile_diagram(k)
    raw = d.crossings
    assert len(raw) <= 12
    least, expected = _least_violations(raw)
    while True:
        assert skein._first_violation(_arc_table(raw)) == expected
        idx = expected[0]
        if idx is None:
            assert least == 0
            break
        # switching keeps each strand's arcs, so the least count falls by one
        raw = skein._switch(raw, idx)
        fewer, expected = _least_violations(raw)
        assert fewer == least - 1
        least = fewer
