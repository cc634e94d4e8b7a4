"""The Markov trace of a closed braid against the other routes to its H.

``eval_hecke`` on ``braid_closure_knitted(word)`` closes the one-box
template strand by strand with ``hecke._close_last``; its value must equal
the tuple sum over the same one-box diagram, direct skein, the naive skein
oracle and the T(2,k) recurrence, and must change under the Markov moves as
the framed H of the closure does.
"""

from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from naive_skein import naive_homfly_framed
from test_hecke import _vz

from knitweave import hecke
from knitweave.braid import BraidWord, full_twist_word
from knitweave.hecke import PPB, HeckeElement
from knitweave.knitted import _expanded, _tuple_sum, braid_closure, braid_closure_knitted, eval_hecke
from knitweave.laurent import LaurentVZ, LaurentZ, delta_pow
from knitweave.skein import homfly_framed

Z = LaurentVZ.monomial(0, 1)


def _letters(n: int):
    return st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))


def _words(n: int, max_len: int = 10):
    if n == 1:
        return st.just(BraidWord(1, ()))
    return st.lists(_letters(n), max_size=max_len).map(lambda ls: BraidWord(n, tuple(ls)))


def _h(word: BraidWord) -> LaurentVZ:
    return eval_hecke(braid_closure_knitted(word))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(_words))
@example(full_twist_word(4))
@example(BraidWord(5, (-4, 3, -2, 1, 4, -3, 2, -1, 3, -4)))
def test_trace_matches_the_tuple_sum_direct_skein_and_the_naive_oracle(word):
    h = _h(word)
    assert h == _tuple_sum(_expanded(braid_closure_knitted(word)))
    d = braid_closure(word)
    assert h == homfly_framed(d)
    assert h == naive_homfly_framed(d)


def test_trace_follows_the_torus_recurrence():
    # switching a crossing of T(2,k) gives T(2,k-2), smoothing it T(2,k-1):
    # H_k = H_(k-2) + z H_(k-1) for every integer k
    h = {k: _h(BraidWord(2, (1 if k > 0 else -1,) * abs(k))) for k in range(-60, 61)}
    assert h[0] == delta_pow(1) and h[1] == LaurentVZ.monomial(-1, 0)
    for k in range(-58, 61):
        assert h[k] == h[k - 2] + Z * h[k - 1], k


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.tuples(_words(n), _words(n, 4))))
def test_conjugation_keeps_h(case):
    word, by = case
    inverse = BraidWord(by.strands, tuple(-g for g in reversed(by.letters)))
    assert _h(by + word + inverse) == _h(word)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(_words), st.sampled_from((1, -1)))
def test_stabilisation_and_an_idle_strand_scale_h(word, sign):
    n = word.strands
    h = _h(word)
    # a positive (negative) kink closes sigma_n^(+-1) on n + 1 strands
    assert _h(BraidWord(n + 1, word.letters + (sign * n,))) == LaurentVZ.monomial(-sign, 0) * h
    assert _h(BraidWord(n + 1, word.letters)) == delta_pow(1) * h


def test_the_trace_holds_each_level_to_max_terms(monkeypatch):
    # 20 terms on 6 strands whose last strand ends at 4, each one strand down
    # v^-1 T_u sigma_4 = v^-1 (T_(s_4 u) + z T_u) with u on one side of s_4
    # and s_4 u on the other: every generator step stays within 24 terms,
    # the 5-strand level holds 40
    monkeypatch.setattr(hecke, "MAX_TERMS", 24)
    ws = [w for w in permutations(range(1, 7)) if w[5] == 4 and w.index(6) < w.index(5)]
    x = HeckeElement(6, PPB, {w: LaurentZ.one() for w in ws[:20]})
    with pytest.raises(ValueError, match="MAX_TERMS = 24"):
        hecke._close_last(_vz(x))
