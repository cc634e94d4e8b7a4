"""Reference Hecke arithmetic: one LaurentZ operation per term and letter.

This is the straightforward form of ``knitweave.hecke``: every generator
letter builds a new ``HeckeElement`` of ``LaurentZ`` coefficients, U_w is the
image of the sign-negated lexicographically smallest reduced word of w, and
PPB -> NPB peels the longest support element, found by a ``max`` over the
whole support, one at a time. Tests compare the package against it, and
build their elements with ``unit``, ``basis_element`` and ``combine``.
"""

from __future__ import annotations

from knitweave.braid import BraidWord, Perm, coxeter_length, identity_perm, reduced_word
from knitweave.hecke import NPB, PPB, HeckeElement
from knitweave.laurent import LaurentZ

_Z = LaurentZ.term(1)


def perm_of_word(word: BraidWord) -> Perm:
    """Underlying permutation; crossing signs are ignored.

    Each letter i swaps the values i, i+1 (s_i o w), starting from the identity.
    """
    w = identity_perm(word.strands)
    for g in word.letters:
        w = _swap_values(w, abs(g))
    return w


def unit(n: int, basis: str = PPB) -> HeckeElement:
    return HeckeElement(n, basis, {identity_perm(n): LaurentZ.one()})


def basis_element(n: int, w: Perm, basis: str = PPB) -> HeckeElement:
    return HeckeElement(n, basis, {tuple(w): LaurentZ.one()})


def combine(n: int, terms) -> HeckeElement:
    """The PPB element sum of coeff * x over the (coeff, x) pairs of ``terms``."""
    out: dict[Perm, LaurentZ] = {}
    for coeff, x in terms:
        if x.strands != n or x.basis != PPB:
            raise ValueError("can only combine PPB elements of H_n")
        for w, c in x.coeffs.items():
            out[w] = out.get(w, LaurentZ.zero()) + c * coeff
    return HeckeElement(n, PPB, out)


def _swap_values(w: Perm, i: int) -> Perm:
    return tuple(i + 1 if x == i else i if x == i + 1 else x for x in w)


def mul_generator(x: HeckeElement, i: int, positive: bool = True) -> HeckeElement:
    out: dict[Perm, LaurentZ] = {}

    def add(w: Perm, c: LaurentZ) -> None:
        out[w] = out.get(w, LaurentZ.zero()) + c

    for w, c in x.coeffs.items():
        length_up = w.index(i) < w.index(i + 1)
        add(_swap_values(w, i), c)
        if length_up and not positive:
            add(w, -(_Z * c))
        elif not length_up and positive:
            add(w, _Z * c)
    return HeckeElement(x.strands, PPB, out)


def expand_word(word: BraidWord) -> HeckeElement:
    x = HeckeElement(word.strands, PPB, {identity_perm(word.strands): LaurentZ.one()})
    for g in word.letters:
        x = mul_generator(x, abs(g), g > 0)
    return x


def multiply(x: HeckeElement, y: HeckeElement) -> HeckeElement:
    if x.strands != y.strands:
        raise ValueError("strand counts differ")
    terms = []
    for w, c in sorted(y.coeffs.items()):
        t = x
        for g in reduced_word(w).letters:
            t = mul_generator(t, g, True)
        terms.append((c, t))
    return combine(x.strands, terms)


def npb_in_ppb(w: Perm) -> HeckeElement:
    pos = reduced_word(w)
    return expand_word(BraidWord(len(w), tuple(-g for g in pos.letters)))


def convert(x: HeckeElement, target: str) -> HeckeElement:
    if x.basis == target:
        return x
    if target == PPB:
        return combine(x.strands, [(c, npb_in_ppb(w)) for w, c in sorted(x.coeffs.items())])
    work = dict(x.coeffs)
    out: dict[Perm, LaurentZ] = {}
    while True:
        support = [w for w, c in work.items() if c]
        if not support:
            break
        w = max(support, key=lambda p: (coxeter_length(p), p))
        c = work[w]
        out[w] = c
        for u, d in npb_in_ppb(w).coeffs.items():
            work[u] = work.get(u, LaurentZ.zero()) - c * d
    return HeckeElement(x.strands, NPB, out)
