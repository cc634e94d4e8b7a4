"""The type-A Hecke algebra H_n over Z[z, z^-1].

H_n is the quotient of the braid-group algebra by sigma_i - sigma_i^-1 = z.
Elements are stored in the positive permutation-braid (PPB) basis {T_w}; the
negative permutation-braid (NPB) basis {U_w} is a view produced by
``convert``. T_w (resp. U_w) is the positive (resp. negative) braid realizing
the permutation w with the fewest crossings; U_w is the image of any
sign-negated reduced word of w. All reduced words of w are joined by braid
moves (Matsumoto's theorem), and the inverses sigma_i^-1 satisfy the same
braid relations, so every choice gives the same element. In particular
U_w = U_{s_i o w} . sigma_i^-1 whenever s_i o w is one crossing shorter.
Take for i the smallest index with i+1 before i in w, and group a sum's
support by it; then Horner's rule over these last letters gives

    sum_w c_w U_w = c_e + sum_i (sum_(w in group i) c_w U_(s_i o w)) . sigma_i^-1,

and each inner sum has the same form. Every level peels one crossing off
each permutation, and no permutation has more than n(n-1)/2 crossings, so
the recursion is at most n(n-1)/2 deep and no U_w is built on its own.

Multiplication follows the package-wide composition convention (see
``braid``): appending a generator letter i sends the index w to s_i o w, with

    T_w . sigma_i = T_{s_i o w}                      if length increases,
    T_w . sigma_i = T_{s_i o w} + z T_w              otherwise,

and sigma_i^-1 = sigma_i - z applied termwise.

One routine changes basis both ways. The map phi: sigma_i -> sigma_i^-1,
z -> -z keeps the relation sigma_i - sigma_i^-1 = z, is its own inverse and
sends T_w to U_w (Jones, Ann. Math. 1987). So the NPB coefficients of x are
the PPB coefficients of phi(x) with z negated, and phi(x) is a sum of U_w.

``_close_last`` closes the last strand of an element. It is the conditional
expectation E: H_n -> H_(n-1) from which the Ocneanu trace is built (Jones,
Ann. Math. 1987), weighted as the framed HOMFLY H:

    E(x) = delta x,    E(x sigma_(n-1) y) = v^-1 x y

for x, y in H_(n-1), with delta = (v^-1 - v)/z: an idle last strand closes
to a circle split from the rest, and sigma_(n-1) to a positive kink. Every
T_w is T_u sigma_(n-1) ... sigma_q with T_u in H_(n-1), so these two rules
and linearity fix E on all of H_n with no appeal to cyclicity.
``closure_trace`` (Morton-Short, J. Algorithms 1990) applies E until one
strand is left, whose circle is the last of the diagram and counts 1.
``knitted.eval_hecke`` applies the same kernel to every box end wired to
itself.

The arithmetic runs on plain maps with no zero terms: generator steps and
basis changes on z-maps {w: {z-exponent: int}}, closures on (v, z)-maps
{w: {(v-exponent, z-exponent): int}}, which ``_lift`` makes from z-maps.
``_add_vz`` is the one (v, z) product. Only ``expand_word`` and
``convert`` build a ``HeckeElement``, once, from the map they end with.
Each generator step, and each strand a closure takes away, refuses a map
of more than ``MAX_TERMS`` terms with a ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from knitweave.braid import (
    BraidWord,
    Perm,
    coxeter_length,
    identity_perm,
    longest_element,
)
from knitweave.laurent import LaurentVZ, LaurentZ

__all__ = [
    "HeckeElement",
    "PPB",
    "NPB",
    "expand_word",
    "convert",
    "closure_trace",
    "top_coeff",
    "render_element",
]

PPB = "PPB"
NPB = "NPB"

# The most terms any intermediate map may hold: 8!, the whole basis of H_8,
# since FT_8 is the largest full twist the engine aims at. Maps grow with
# the permutations a word reaches, not with its length (the NPB form of the
# 12-strand half twist spans all 12! elements), so the limit is checked on
# every generator step.
MAX_TERMS = 40320

# {perm: {z-exponent: coefficient}}, zero coefficients never stored
_Poly = dict[int, int]
_Map = dict[Perm, _Poly]
# a closure's coefficients, {(v-exponent, z-exponent): coefficient}
_VZ = dict[tuple[int, int], int]


@dataclass(frozen=True)
class HeckeElement:
    """An element of H_n: a finite map from permutations to z-polynomials."""

    strands: int
    basis: str
    coeffs: Mapping[Perm, LaurentZ] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.basis not in (PPB, NPB):
            raise ValueError(f"unknown basis tag {self.basis!r}")
        clean = {}
        for w, c in self.coeffs.items():
            if sorted(w) != list(range(1, self.strands + 1)):
                raise ValueError(f"{w} is not a permutation of 1..{self.strands}")
            if c:
                clean[tuple(w)] = c
        object.__setattr__(self, "coeffs", clean)

    def __bool__(self) -> bool:
        return bool(self.coeffs)


def _map_of(x: HeckeElement) -> _Map:
    return {w: c.terms for w, c in x.coeffs.items()}


def _element(n: int, basis: str, m: _Map) -> HeckeElement:
    return HeckeElement(n, basis, {w: LaurentZ(c) for w, c in m.items() if c})


def _step(m: _Map, i: int, positive: bool) -> _Map:
    """m . sigma_i^(+-1) as a new map; m and its polynomials are not changed.

    The z-term of the quadratic relation is a shift of exponents by one. It
    appears on a positive letter that shortens w and, negated, on a negative
    letter that lengthens it; with a negative letter that shortens w the
    z-terms cancel exactly. Raises ValueError if the result has more than
    MAX_TERMS terms.
    """
    sign = 1 if positive else -1
    # The two loops below add a polynomial, or its shift by z, into the map in
    # place: sums, not products. They stay inline because a call per entry
    # costs more than the sum itself: a _step that made a helper call for
    # each entry ran the benchmark's hecke_basis operations in a median
    # 0.51 s against 0.30 s (in-process on a 2-core x86 host, 8 alternating
    # pairs, 0 of 8 faster).
    out: _Map = {}
    for w, c in m.items():
        p, q = w.index(i), w.index(i + 1)
        s = list(w)
        s[p], s[q] = i + 1, i
        sw = tuple(s)
        d = out.get(sw)
        if d is None:
            out[sw] = dict(c)
        else:
            for e, k in c.items():
                v = d.get(e, 0) + k
                if v:
                    d[e] = v
                else:
                    del d[e]
        if (p < q) != positive:
            d = out.get(w)
            if d is None:
                out[w] = {e + 1: sign * k for e, k in c.items()}
            else:
                for e, k in c.items():
                    v = d.get(e + 1, 0) + sign * k
                    if v:
                        d[e + 1] = v
                    else:
                        del d[e + 1]
    _check_size(out)
    return out


def _check_size(m: dict) -> None:
    if len(m) > MAX_TERMS:
        raise ValueError(
            f"Hecke expansion exceeds the limit of MAX_TERMS = {MAX_TERMS} terms"
        )


def expand_word(word: BraidWord) -> HeckeElement:
    """The image of a braid word in H_n, expanded in the PPB basis."""
    m: _Map = {identity_perm(word.strands): {0: 1}}
    for g in word.letters:
        m = _step(m, abs(g), g > 0)
    return _element(word.strands, PPB, m)


def _npb_sum(m: _Map) -> _Map:
    """Sum c_w . U_w over a map {w: c_w}, expanded in the PPB basis.

    This is Horner's rule over last letters (see the module docstring). Every
    step, and the map returned, is held to ``MAX_TERMS``; m is not changed.
    """
    total: _Map = {}
    groups: dict[int, _Map] = {}
    for w, c in m.items():
        i = next((i for i in range(1, len(w)) if w.index(i + 1) < w.index(i)), 0)
        if not i:  # the identity, U_e = T_e
            total[w] = dict(c)
            continue
        s = list(w)
        s[w.index(i)], s[w.index(i + 1)] = i + 1, i
        groups.setdefault(i, {})[tuple(s)] = c
    for i, g in groups.items():
        for v, d in _step(_npb_sum(g), i, False).items():
            acc = total.get(v)
            if acc is None:
                total[v] = d
                continue
            for e, k in d.items():
                k += acc.get(e, 0)
                if k:
                    acc[e] = k
                else:
                    del acc[e]
    _check_size(total)
    return total


def _negate_z(m: _Map) -> _Map:
    """The map with z replaced by -z: odd exponents change sign."""
    return {w: {e: -k if e % 2 else k for e, k in c.items()} for w, c in m.items()}


def convert(x: HeckeElement, target: str) -> HeckeElement:
    """Re-express an element in the target basis.

    NPB -> PPB is the sum of c_w . U_w. For x = sum c_w(z) T_w,
    phi(x) = sum c_w(-z) U_w = sum d_v(z) T_v by that same sum, and since phi
    is its own inverse, x = sum d_v(-z) U_v: PPB -> NPB negates z before the
    sum and again after it.
    """
    if target not in (PPB, NPB):
        raise ValueError(f"unknown basis tag {target!r}")
    if x.basis == target:
        return x
    if target == PPB:
        return _element(x.strands, PPB, _npb_sum(_map_of(x)))
    return _element(x.strands, NPB, _negate_z(_npb_sum(_negate_z(_map_of(x)))))


def _add_vz(acc: _VZ, a: _VZ, b: _VZ) -> None:
    """acc += a * b in v and z, in place, dropping terms that cancel."""
    for (va, za), k1 in a.items():
        for (vb, zb), k2 in b.items():
            key = (va + vb, za + zb)
            v = acc.get(key, 0) + k1 * k2
            if v:
                acc[key] = v
            else:
                del acc[key]


def _close_last(level: dict[Perm, _VZ]) -> dict[Perm, _VZ]:
    """Close the last strand of sum c_w T_w, a map {w: coefficient in v and z}.

    This is the conditional expectation E: H_n -> H_(n-1) from which the
    trace is built (Jones, Ann. Math. 1987), weighted as the framed H: n >= 2
    strands in, n - 1 out. Say the strand that starts at position n ends at
    q (w[n-1] = q), and u is w with that strand taken out, the others in
    their order. Then T_w = T_u sigma_(n-1) sigma_(n-2) ... sigma_q, and the
    product is reduced: the strand from n crosses once each strand that ends
    to the right of q and no other.

    - q = n: the strand is idle and closes to a circle split from the rest,
      so E(T_w) = delta T_u.
    - q < n: E(x sigma_(n-1) y) = v^-1 x y for x, y in H_(n-1), since the
      closed strand makes a positive kink; so E(T_w) is v^-1 times
      T_u sigma_(n-2) ... sigma_q, expanded by generator steps.

    Each generator step, and the map returned, is held to ``MAX_TERMS``.
    """
    below: dict[Perm, _VZ] = {}
    for w, coeff in level.items():
        n, q = len(w), w[-1]
        u = tuple(x - (x > q) for x in w[:-1])
        if q == n:  # delta = (v^-1 - v)/z
            _add_vz(below.setdefault(u, {}), coeff, {(-1, -1): 1, (1, -1): -1})
            continue
        m: _Map = {u: {0: 1}}
        for i in range(n - 2, q - 1, -1):
            m = _step(m, i, True)
        for y, c in m.items():  # times v^-1, for the kink
            _add_vz(below.setdefault(y, {}), coeff, {(-1, e): k for e, k in c.items()})
    below = {y: d for y, d in below.items() if d}
    _check_size(below)
    return below


def _flip(level: dict[Perm, _VZ]) -> dict[Perm, _VZ]:
    """The map under T_w -> T_(w0 w w0), position i -> n + 1 - i.

    Turning a box over about its vertical axis is a rotation of space, so it
    sends sigma_i to sigma_(n-i) and keeps every crossing sign; the last
    strand of the turned box is the first strand of the box.
    """
    return {tuple(len(w) + 1 - x for x in reversed(w)): c for w, c in level.items()}


def _lift(m: _Map) -> dict[Perm, _VZ]:
    """A map of z-polynomials as a map of v^0-polynomials in v and z."""
    return {w: {(0, e): k for e, k in c.items()} for w, c in m.items()}


def closure_trace(x: HeckeElement) -> LaurentVZ:
    """The framed H of the closure of x = sum c_w T_w: sum c_w tr(T_w).

    An element held in the NPB basis is converted first. ``_close_last``
    closes one strand at a time until one is left; that strand closes to the
    last circle of the diagram, which counts 1, so the trace is the
    coefficient of the identity on one strand. Nothing is kept between calls.
    """
    level = _lift(_map_of(convert(x, PPB)))
    for _ in range(x.strands - 1):
        level = _close_last(level)
    return LaurentVZ(level.get((1,), {}))


def top_coeff(x: HeckeElement) -> LaurentZ:
    """Coefficient of the longest element in whichever basis x is held."""
    return x.coeffs.get(longest_element(x.strands), LaurentZ.zero())


def render_element(x: HeckeElement) -> str:
    """One line per basis permutation, sorted by Coxeter length then lex."""
    if not x.coeffs:
        return "0"
    lines = []
    for w in sorted(x.coeffs, key=lambda p: (coxeter_length(p), p)):
        lines.append(f"{','.join(map(str, w))} : {x.coeffs[w]}")
    return "\n".join(lines)
