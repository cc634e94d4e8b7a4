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
``knitted.eval_hecke`` applies it to every box end wired to itself, so a
braid closure, the one-box template, gets its Markov trace there.

Generator steps and basis changes run on packed maps {w: int}: each
z-polynomial sum_e c_e z^e is stored as the one integer sum_e c_e 2^(B e),
its value at z = 2^B (Kronecker substitution), with the exponents offset so
that none is negative. Packing is a ring map, so adding two polynomials is
adding two ints and multiplying by z is a shift by B bits; a generator step
costs two int additions per term. The digits are balanced (signed), and
an int decodes to exactly one polynomial whose coefficients all lie
strictly between -2^(B-1) and 2^(B-1): its constant term is the int's
residue mod 2^B taken in that range, and the int less that term is the
rest times 2^B. So the width B is fixed from a bound on the coefficients
that the computation reaches:

- an expansion of L letters: a generator step sends c T_w to at most two
  terms of coefficient +-c, so the absolute values of all coefficients sum
  to at most 2^L, and B = L + 2 is wide enough;
- a basis change: each U_w is a product of l(w) <= n(n-1)/2 inverse
  generators, so its coefficients sum in absolute value to at most
  2^(n(n-1)/2), and B = bits(sum of the input's |c|) + n(n-1)/2 + 2.

Every intermediate polynomial obeys the same bound, so an int is 0 only
when its polynomial is, and the steps drop such terms. Closures run on
plain (v, z)-maps {w: {(v-exponent, z-exponent): int}}, and multiply them
by ``laurent._add_vz``. ``_expand_vz`` decodes an expansion straight into
such a map, once, for the kink words of ``_close_last`` and for the box
words of ``knitted.eval_hecke``. Only ``expand_word`` and ``convert`` build
a ``HeckeElement``, once, from the map they end with. Each generator step,
and each strand a closure takes away, refuses a map of more than
``MAX_TERMS`` terms with a ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from knitweave.braid import (
    BraidWord,
    Perm,
    coxeter_length,
    identity_perm,
    longest_element,
)
from knitweave.laurent import LaurentZ, _add_vz, delta_pow

__all__ = [
    "HeckeElement",
    "PPB",
    "NPB",
    "expand_word",
    "convert",
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
# {perm: z-polynomial packed into an int} (see the module docstring), no zeros
_Packed = dict[Perm, int]
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


def _pack(m: _Map, width: int, low: int) -> _Packed:
    """Each polynomial of m times z^-low, at z = 2^width."""
    return {w: sum(k << width * (e - low) for e, k in c.items()) for w, c in m.items()}


def _unpack(c: int, width: int, low: int) -> _Poly:
    """The polynomial that ``_pack`` stores as c at this width and offset.

    The lowest digit is the balanced residue of c mod 2^width, and taking it
    off leaves a multiple of 2^width; the digits below c's lowest set bit
    are 0 and are skipped at once. A loop over the digits costs less here
    than slicing ``to_bytes``, whose fixed cost per call dominates the short
    coefficients that closures decode.
    """
    out: _Poly = {}
    if not c:
        return out
    half, mask = 1 << (width - 1), (1 << width) - 1
    e = ((c & -c).bit_length() - 1) // width
    c >>= e * width
    e += low
    while c:
        k = c & mask
        if k >= half:
            k -= mask + 1
        if k:
            out[e] = k
        c = (c - k) >> width
        e += 1
    return out


def _step(m: _Packed, i: int, positive: bool, width: int) -> _Packed:
    """m . sigma_i^(+-1) as a new packed map; m is not changed.

    The z-term of the quadratic relation is a shift by ``width`` bits. It
    appears on a positive letter that shortens w and, negated, on a negative
    letter that lengthens it; with a negative letter that shortens w the
    z-terms cancel exactly. Terms that cancel are dropped. Raises ValueError
    if the result has more than MAX_TERMS terms.
    """
    out: _Packed = {}
    for w, c in m.items():
        p, q = w.index(i), w.index(i + 1)
        s = list(w)
        s[p], s[q] = i + 1, i
        sw = tuple(s)
        k = out.get(sw, 0) + c
        if k:
            out[sw] = k
        else:
            del out[sw]
        if (p < q) != positive:
            k = out.get(w, 0) + (c << width if positive else -c << width)
            if k:
                out[w] = k
            else:
                del out[w]
    _check_size(out)
    return out


def _check_size(m: dict) -> None:
    if len(m) > MAX_TERMS:
        raise ValueError(
            f"Hecke expansion exceeds the limit of MAX_TERMS = {MAX_TERMS} terms"
        )


def _expand(w: Perm, letters: Sequence[int]) -> tuple[_Packed, int]:
    """T_w times the signed generator letters, packed, and the width it uses.

    The exponents of z start at 0 and only grow, so the offset is 0, and L
    letters need the width L + 2 (see the module docstring).
    """
    width = len(letters) + 2
    m: _Packed = {w: 1}
    for g in letters:
        m = _step(m, abs(g), g > 0, width)
    return m, width


def _expand_vz(w: Perm, letters: Sequence[int], v: int) -> dict[Perm, _VZ]:
    """T_w times the signed generator letters, as a (v, z)-map at v-exponent v.

    Each packed int is dropped as it is decoded, so the packed and the
    decoded expansion are never both held whole. Terms of one z-exponent
    share one key tuple: a decoded map can hold all n! basis terms, and a
    tuple per term would take more memory than the coefficients do.
    """
    m, width = _expand(w, letters)
    keys: dict[int, tuple[int, int]] = {}
    return {
        y: {keys.setdefault(e, (v, e)): k for e, k in _unpack(m.pop(y), width, 0).items()}
        for y in list(m)
    }


def expand_word(word: BraidWord) -> HeckeElement:
    """The image of a braid word in H_n, expanded in the PPB basis."""
    m, width = _expand(identity_perm(word.strands), word.letters)
    # each packed int is dropped as it is decoded, so the packed and the
    # decoded expansion are never both held whole
    coeffs = {w: LaurentZ(_unpack(m.pop(w), width, 0)) for w in list(m)}
    return HeckeElement(word.strands, PPB, coeffs)


def _horner(m: _Packed, width: int) -> _Packed:
    """Sum c_w . U_w over a packed map {w: c_w}, expanded in the PPB basis.

    This is Horner's rule over last letters (see the module docstring). Every
    step, and the map returned, is held to ``MAX_TERMS``; m is not changed.
    """
    total: _Packed = {}
    groups: dict[int, _Packed] = {}
    for w, c in m.items():
        i = next((i for i in range(1, len(w)) if w.index(i + 1) < w.index(i)), 0)
        if not i:  # the identity, U_e = T_e
            total[w] = c
            continue
        s = list(w)
        s[w.index(i)], s[w.index(i + 1)] = i + 1, i
        groups.setdefault(i, {})[tuple(s)] = c
    for i, g in groups.items():
        for v, d in _step(_horner(g, width), i, False, width).items():
            d += total.get(v, 0)
            if d:
                total[v] = d
            else:
                del total[v]
    _check_size(total)
    return total


def _npb_sum(m: _Map) -> _Map:
    """Sum c_w . U_w over a map {w: c_w}, expanded in the PPB basis.

    The polynomials are packed once, at the width the module docstring
    bounds, summed by ``_horner`` and unpacked once; m is not changed.
    """
    if not m:
        return {}
    n = len(next(iter(m)))
    low = min(e for c in m.values() for e in c)
    norm = sum(abs(k) for c in m.values() for k in c.values())
    width = norm.bit_length() + n * (n - 1) // 2 + 2
    total = _horner(_pack(m, width, low), width)
    return {w: _unpack(c, width, low) for w, c in total.items()}


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
    delta = delta_pow(1).terms
    for w, coeff in level.items():
        n, q = len(w), w[-1]
        u = tuple(x - (x > q) for x in w[:-1])
        if q == n:
            _add_vz(below.setdefault(u, {}), coeff, delta)
            continue
        # times v^-1, for the kink
        for y, kink in _expand_vz(u, range(n - 2, q - 1, -1), -1).items():
            _add_vz(below.setdefault(y, {}), coeff, kink)
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
