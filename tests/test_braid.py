from itertools import permutations
from random import Random

import pytest
from naive_hecke import perm_of_word

from knitweave.braid import (
    BraidWord,
    coxeter_length,
    full_twist_word,
    half_twist_word,
    identity_perm,
    longest_element,
    parse_braid_word,
    reduced_word,
)


def test_letter_range_is_enforced():
    with pytest.raises(ValueError):
        BraidWord(2, (2,))
    with pytest.raises(ValueError):
        BraidWord(3, (0,))
    with pytest.raises(ValueError):
        BraidWord(1, (1,))


def test_strands_and_letters_are_integers_only():
    # a float letter was kept as given, and the closure of its word then
    # failed to build; a float strand count was accepted
    for strands, letters in ((2, (1.0,)), (2.5, (1,)), ("2", ()), (3, ("1",))):
        with pytest.raises(TypeError):
            BraidWord(strands, letters)
    w = BraidWord(3, (True, -2))
    assert w == BraidWord(3, (1, -2))
    assert all(type(g) is int for g in w.letters)


def test_perm_of_empty_word():
    assert perm_of_word(BraidWord(3, ())) == (1, 2, 3)


def test_perm_of_involution_squared():
    assert perm_of_word(BraidWord(2, (1, 1))) == (1, 2)


def test_perm_of_half_twist_is_longest_element():
    assert perm_of_word(BraidWord(3, (1, 2, 1))) == (3, 2, 1)


def test_coxeter_length_examples():
    assert coxeter_length(identity_perm(4)) == 0
    assert coxeter_length((3, 2, 1)) == 3
    for n in range(1, 9):
        assert coxeter_length(longest_element(n)) == n * (n - 1) // 2


def test_reduced_word_examples():
    assert reduced_word(identity_perm(3)).letters == ()
    assert reduced_word((2, 1)).letters == (1,)
    assert reduced_word((3, 2, 1)).letters == (1, 2, 1)


def test_reduced_word_round_trip_exhaustive():
    for n in range(1, 6):
        for p in permutations(range(1, n + 1)):
            w = reduced_word(p)
            assert len(w.letters) == coxeter_length(p)
            assert all(g > 0 for g in w.letters)
            assert perm_of_word(w) == p


def test_reduced_word_is_lex_smallest_for_delta3():
    # the two reduced words for the longest element of S3 are 121 and 212
    assert reduced_word((3, 2, 1)).letters == (1, 2, 1)


def test_half_twist_words():
    assert half_twist_word(1).letters == ()
    assert half_twist_word(2).letters == (1,)
    assert half_twist_word(3).letters == (1, 2, 1)
    for n in range(1, 7):
        assert len(half_twist_word(n).letters) == n * (n - 1) // 2
        assert perm_of_word(half_twist_word(n)) == longest_element(n)


def test_full_twist_words():
    assert full_twist_word(1).letters == ()
    assert full_twist_word(2).letters == (1, 1)
    assert full_twist_word(3).letters == (1, 2, 1, 1, 2, 1)
    for n in range(1, 7):
        assert perm_of_word(full_twist_word(n)) == identity_perm(n)


def test_full_twist_commutes_at_perm_level():
    rng = Random(3)
    for _ in range(50):
        n = rng.randint(2, 5)
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(0, 6))
        )
        w = BraidWord(n, letters)
        ftw = full_twist_word(n)
        assert perm_of_word(ftw + w) == perm_of_word(w + ftw)


def test_parse_and_format():
    w = parse_braid_word(" 1, -2 ,1 ", 3)
    assert w.letters == (1, -2, 1)
    assert parse_braid_word("", 4).letters == ()
    with pytest.raises(ValueError):
        parse_braid_word("1,x", 3)
    with pytest.raises(ValueError):
        parse_braid_word("3", 3)
