"""The type-A Hecke algebra H_n over Z[z, z^-1].

H_n is the quotient of the braid-group algebra by sigma_i - sigma_i^-1 = z.
Elements are stored in the positive permutation-braid (PPB) basis {T_w}; the
negative permutation-braid (NPB) basis {U_w} is a view produced by
``convert``. T_w (resp. U_w) is the positive (resp. negative) braid realizing
the permutation w with the fewest crossings; U_w is the image of any
sign-negated reduced word of w. All reduced words of w are joined by braid
moves (Matsumoto's theorem), and the inverses sigma_i^-1 satisfy the same
braid relations, so every choice gives the same element. In particular
U_w = U_{s_i o w} . sigma_i^-1 whenever s_i o w is one crossing shorter,
which builds each U_w from a shorter one in a single generator step.

Multiplication follows the package-wide composition convention (see
``braid``): appending a generator letter i sends the index w to s_i o w, with

    T_w . sigma_i = T_{s_i o w}                      if length increases,
    T_w . sigma_i = T_{s_i o w} + z T_w              otherwise,

and sigma_i^-1 = sigma_i - z applied termwise.

One routine changes basis both ways. The map phi: sigma_i -> sigma_i^-1,
z -> -z keeps the relation sigma_i - sigma_i^-1 = z, is its own inverse and
sends T_w to U_w (Jones, Ann. Math. 1987). So the NPB coefficients of x are
the PPB coefficients of phi(x) with z negated, and phi(x) is a sum of U_w.

``closure_trace`` is the Ocneanu trace of H_n (Jones, Ann. Math. 1987;
Morton-Short, J. Algorithms 1990), normalised as the framed HOMFLY H of the
closure:

    tr(1_n) = delta^(n-1),    tr(x sigma_(n-1) y) = v^-1 tr(x y)

for x, y in H_(n-1), with delta = (v^-1 - v)/z and tr(1_1) = 1. The first
rule counts the circles of n closed idle strands, the second the positive
kink that closes sigma_(n-1); with tr(xy) = tr(yx) and linearity they fix
tr on all of H_n.

The arithmetic runs on plain maps {w: {z-exponent: int}} with no zero terms;
only ``expand_word`` and ``convert`` build a ``HeckeElement``, once, from the
map they end with. Each generator step, and each strand the trace takes
away, refuses a map of more than ``MAX_TERMS`` terms with a ValueError.
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
# the trace's coefficients, {(v-exponent, z-exponent): coefficient}
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


def _add_product(acc: _Poly, a: _Poly, b: _Poly) -> None:
    """acc += a * b, in place, dropping terms that cancel."""
    for e1, k1 in a.items():
        for e2, k2 in b.items():
            e = e1 + e2
            v = acc.get(e, 0) + k1 * k2
            if v:
                acc[e] = v
            else:
                del acc[e]


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
    # costs more than the sum itself: a _step that called _add_product for
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

    Each U_w comes from a shorter U by one sigma_i^-1 step: walk down
    w -> s_i o w, taking the smallest i with i+1 before i in w, until a U
    already built in this call or the identity, then step back up. The built
    U maps live only for this call.
    """
    built: dict[Perm, _Map] = {}
    total: _Map = {}
    for w, c in m.items():
        chain: list[tuple[Perm, int]] = []
        p = w
        u = built.get(p)
        while u is None:
            i = next((i for i in range(1, len(p)) if p.index(i + 1) < p.index(i)), 0)
            if not i:  # the identity
                u = built[p] = {p: {0: 1}}
                break
            chain.append((p, i))
            s = list(p)
            s[p.index(i)], s[p.index(i + 1)] = i + 1, i
            p = tuple(s)
            u = built.get(p)
        for p, i in reversed(chain):
            u = built[p] = _step(u, i, False)
        for v, d in u.items():
            _add_product(total.setdefault(v, {}), c, d)
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


def _add_shifted(acc: _VZ, a: _VZ, b: _Poly, dv: int) -> None:
    """acc += v^dv * a * b, in place, dropping terms that cancel."""
    for (va, za), k1 in a.items():
        for e, k2 in b.items():
            key = (va + dv, za + e)
            v = acc.get(key, 0) + k1 * k2
            if v:
                acc[key] = v
            else:
                del acc[key]


def closure_trace(x: HeckeElement) -> LaurentVZ:
    """The framed H of the closure of x = sum c_w T_w: sum c_w tr(T_w).

    An element held in the NPB basis is converted first. The trace is
    linear, so x is taken down one strand at a time as a map
    {w: coefficient in v and z}. On n strands, say the strand that ends at
    position n starts at position p (w[p-1] = n), and u is w with n
    dropped, the other strands in their order:

    - p = n: that strand closes to a circle beside the rest, and
      tr(T_w) = delta tr(T_u).
    - p < n: T_w = T_A sigma_(n-1) T_u with A = sigma_p ... sigma_(n-2).
      The product is reduced, since the strand from p crosses once each
      strand that starts to its right and no other. So
      tr(T_w) = v^-1 tr(T_A T_u) = v^-1 tr(T_u T_A), and T_u T_A is
      expanded by generator steps.

    On one strand only the identity is left, whose trace is 1. Nothing is
    kept between calls.
    """
    level: dict[Perm, _VZ] = {
        w: {(0, e): k for e, k in c.items()} for w, c in _map_of(convert(x, PPB)).items()
    }
    for n in range(x.strands, 1, -1):
        below: dict[Perm, _VZ] = {}
        for w, coeff in level.items():
            p = w.index(n) + 1
            u = w[: p - 1] + w[p:]
            if p == n:  # delta = v^-1 z^-1 - v z^-1
                d = below.setdefault(u, {})
                _add_shifted(d, coeff, {-1: 1}, -1)
                _add_shifted(d, coeff, {-1: -1}, 1)
                continue
            m: _Map = {u: {0: 1}}
            for i in range(p, n - 1):
                m = _step(m, i, True)
            for y, c in m.items():
                _add_shifted(below.setdefault(y, {}), coeff, c, -1)
        level = {y: d for y, d in below.items() if d}
        _check_size(level)
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
