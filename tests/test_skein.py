from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonical_oracle import decode_piece
from naive_skein import naive_homfly_framed

from knitweave import skein
from knitweave.braid import BraidWord, full_twist_word
from knitweave.diagram import (
    Crossing,
    PlanarDiagram,
    planarity_check,
    seifert_circles,
    writhe,
)
from knitweave.knitted import (
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
        flipped = LaurentVZ(
            {(-v, z): c * ((-1) ** z) for (v, z), c in h.terms.items()}
        )
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


def test_memo_holds_no_kinks():
    skein._MEMO.clear()
    rng = Random(2024)
    kinked_roots = 0
    for _ in range(40):
        n = rng.randint(2, 4)
        d = braid_closure(_random_word(rng, n, 8))
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
    # so would a change to the crossings the recursion switches (FT_6 through
    # eval_hecke leaves 1,650 keys)
    skein._MEMO.clear()
    homfly_framed(braid_closure(BraidWord(2, (1,) * 40)))
    assert len(skein._MEMO) == 439
    skein._MEMO.clear()
    eval_hecke(braid_closure_knitted(full_twist_word(5)))
    assert len(skein._MEMO) == 109


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
        assert skein._first_violation(raw) == expected
        idx = expected[0]
        if idx is None:
            assert least == 0
            break
        # switching keeps each strand's arcs, so the least count falls by one
        raw = skein._switch(raw, idx)
        fewer, expected = _least_violations(raw)
        assert fewer == least - 1
        least = fewer
