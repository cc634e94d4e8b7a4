"""Braid words, symmetric-group combinatorics, half- and full-twist words.

Permutations are tuples over {1, ..., n} in one-line notation. A braid word
on n strands is a sequence of nonzero letters g with 1 <= |g| <= n-1, where
letter g stands for the generator sigma_|g| when g > 0 and for its inverse
when g < 0.

The composition convention, shared by every module in this package: the
leftmost letter of a word acts first, so the underlying permutation of a
concatenation u + v is perm(v) after perm(u), and appending a letter i maps
the current permutation w to s_i o w (swap of the values i, i+1).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import index

__all__ = [
    "BraidWord",
    "Perm",
    "identity_perm",
    "longest_element",
    "coxeter_length",
    "reduced_word",
    "half_twist_word",
    "full_twist_word",
    "parse_braid_word",
]

Perm = tuple[int, ...]

_LETTER = re.compile(r"[+-]?[0-9]+")


@dataclass(frozen=True)
class BraidWord:
    """A braid word: strand count plus a sequence of signed generator letters.

    Both are integers: a float or a string raises TypeError.
    """

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "strands", index(self.strands))
        object.__setattr__(self, "letters", tuple(index(g) for g in self.letters))
        if self.strands < 1:
            raise ValueError(f"strand count must be positive, got {self.strands}")
        for g in self.letters:
            if g == 0 or not 1 <= abs(g) <= self.strands - 1:
                raise ValueError(
                    f"letter {g} out of range for {self.strands} strands"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def __add__(self, other: BraidWord) -> BraidWord:
        if self.strands != other.strands:
            raise ValueError("cannot concatenate words on different strand counts")
        return BraidWord(self.strands, self.letters + other.letters)


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def longest_element(n: int) -> Perm:
    """The order-reversing permutation (n, n-1, ..., 1)."""
    return tuple(range(n, 0, -1))


def coxeter_length(p: Perm) -> int:
    """Number of inversions, the crossing count of a permutation braid."""
    n = len(p)
    return sum(1 for a in range(n) for b in range(a + 1, n) if p[a] > p[b])


def reduced_word(p: Perm) -> BraidWord:
    """The lexicographically smallest reduced (all-positive) word for p.

    Greedily emits the smallest i with p(i) > p(i+1); each step strips one
    inversion, so the result has length coxeter_length(p).
    """
    n = len(p)
    images = list(p)
    letters: list[int] = []
    # a descent at position i means p = q o s_i with q one inversion shorter,
    # so i is a valid first letter; emission order is already word order
    while True:
        for i in range(n - 1):
            if images[i] > images[i + 1]:
                letters.append(i + 1)
                images[i], images[i + 1] = images[i + 1], images[i]
                break
        else:
            break
    return BraidWord(n, tuple(letters))


def half_twist_word(n: int) -> BraidWord:
    """Reduced word of the longest element; the positive half twist."""
    if n < 1:
        raise ValueError("strand count must be positive")
    return reduced_word(longest_element(n))


def full_twist_word(n: int) -> BraidWord:
    """Half twist squared; central in the braid group."""
    ht = half_twist_word(n)
    return ht + ht


def parse_braid_word(text: str, strands: int) -> BraidWord:
    """Parse the CLI syntax: comma-separated signed integers, e.g. "1,-2,1".

    Letters are ASCII digits: ``int`` alone would also take other scripts'
    digits and underscores.
    """
    stripped = text.strip()
    if not stripped:
        return BraidWord(strands, ())
    letters = []
    for i, tok in enumerate(stripped.split(",")):
        tok = tok.strip()
        if not _LETTER.fullmatch(tok):
            raise ValueError(f"bad braid letter {tok!r} at position {i}")
        letters.append(int(tok))
    return BraidWord(strands, tuple(letters))
