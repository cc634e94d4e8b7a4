from itertools import permutations
from math import factorial
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import naive_hecke as naive
from naive_hecke import basis_element, combine, unit

from knitweave import hecke
from knitweave.braid import (
    BraidWord,
    full_twist_word,
    half_twist_word,
    longest_element,
    reduced_word,
)
from knitweave.hecke import (
    NPB,
    PPB,
    HeckeElement,
    convert,
    expand_word,
    render_element,
    top_coeff,
)
from knitweave.knitted import _expanded, braid_closure_knitted, eval_hecke, random_knitted
from knitweave.laurent import LaurentZ

Z = LaurentZ.term(1)
ONE = LaurentZ.one()


def _random_word(rng: Random, n: int, max_len: int = 8) -> BraidWord:
    return BraidWord(
        n,
        tuple(
            rng.choice((1, -1)) * rng.randint(1, n - 1)
            for _ in range(rng.randint(0, max_len))
        ),
    )


def _random_element(rng: Random, n: int) -> HeckeElement:
    terms = []
    for _ in range(rng.randint(1, 3)):
        coeff = LaurentZ(
            {rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(rng.randint(1, 3))}
        )
        terms.append((coeff, expand_word(_random_word(rng, n, 6))))
    return combine(n, terms)


def _packed_step(m: dict, i: int, positive: bool) -> dict:
    """One of the kernel's generator steps, on a {w: {z-exponent: int}} map
    packed at width 8 and unpacked after."""
    out = hecke._step(hecke._pack(m, 8, 0), i, positive, 8)
    return {w: hecke._unpack(c, 8, 0) for w, c in out.items()}


def test_unit_times_generator():
    assert _packed_step({(1, 2): {0: 1}}, 1, True) == {(2, 1): {0: 1}}


def test_quadratic_relation():
    assert _packed_step({(2, 1): {0: 1}}, 1, True) == {(1, 2): {0: 1}, (2, 1): {1: 1}}


def test_generator_inverse_cancels():
    assert _packed_step({(2, 1): {0: 1}}, 1, False) == {(1, 2): {0: 1}}


def test_generator_index_out_of_range():
    # the word refuses the letter, so no generator step ever sees it
    with pytest.raises(ValueError):
        expand_word(BraidWord(2, (2,)))


def test_expand_empty_word():
    assert expand_word(BraidWord(3, ())) == unit(3)


def test_expand_negative_generator():
    x = expand_word(BraidWord(2, (-1,)))
    assert x.coeffs == {(2, 1): ONE, (1, 2): -Z}


def test_expand_two_strand_full_twist():
    x = expand_word(BraidWord(2, (1, 1)))
    assert x.coeffs == {(1, 2): ONE, (2, 1): Z}


def test_convert_identity_element():
    x = convert(unit(2), NPB)
    assert x.basis == NPB and x.coeffs == {(1, 2): ONE}


def test_convert_single_ppb_generator():
    x = convert(basis_element(2, (2, 1)), NPB)
    assert x.coeffs == {(2, 1): ONE, (1, 2): Z}


def test_convert_full_twist():
    x = convert(expand_word(BraidWord(2, (1, 1))), NPB)
    assert x.coeffs == {(1, 2): ONE + Z * Z, (2, 1): Z}


def test_top_coeff_examples():
    assert top_coeff(unit(2)) == LaurentZ.zero()
    assert top_coeff(expand_word(BraidWord(2, (1, 1)))) == Z
    assert top_coeff(expand_word(half_twist_word(3))) == ONE


def test_half_twist_is_single_basis_braid():
    for n in range(1, 5):
        x = expand_word(half_twist_word(n))
        assert x.coeffs == {longest_element(n): ONE}


def test_elements_are_equal_exactly_when_strands_basis_and_coefficients_are():
    x = expand_word(BraidWord(3, (1, -2, 1)))
    same = HeckeElement(3, PPB, dict(x.coeffs))
    assert x == same and not x != same
    w = next(iter(x.coeffs))
    others = (
        HeckeElement(3, NPB, x.coeffs),
        HeckeElement(3, PPB, {**x.coeffs, w: x.coeffs[w] + ONE}),
        unit(2),
    )
    for y in others:
        assert x != y and not x == y
    assert x != x.coeffs and unit(1) != 1
    # an element is mutable underneath: its coefficients are a dict
    with pytest.raises(TypeError):
        hash(x)


# the product is the naive reference's; the tests below use it as an oracle
def test_multiply_examples():
    x = expand_word(BraidWord(2, (1,)))
    assert naive.multiply(unit(2), x) == x
    assert naive.multiply(x, expand_word(BraidWord(2, (-1,)))) == unit(2)
    assert naive.multiply(x, x) == expand_word(BraidWord(2, (1, 1)))


def test_multiply_rejects_strand_mismatch():
    with pytest.raises(ValueError):
        naive.multiply(unit(2), unit(3))


def test_identity_coefficient_of_a_basis_product_is_the_symmetrising_trace():
    # tau(T_x T_y) = 1 when y = x^-1 and 0 otherwise, for the trace tau that
    # reads the identity coefficient, in the normalisation T_s^2 = 1 + z T_s
    pairs = 0
    for n in range(1, 5):
        e = tuple(range(1, n + 1))
        for x in permutations(e):
            inverse = tuple(sorted(e, key=lambda i: x[i - 1]))
            for y in permutations(e):
                product = naive.multiply(basis_element(n, x), basis_element(n, y))
                want = ONE if y == inverse else LaurentZ.zero()
                assert product.coeffs.get(e, LaurentZ.zero()) == want, (x, y)
                pairs += 1
    assert pairs == 617


def test_expansion_is_a_homomorphism():
    rng = Random(2024)
    for _ in range(60):
        n = rng.randint(2, 4)
        u, v = _random_word(rng, n), _random_word(rng, n)
        assert expand_word(u + v) == naive.multiply(expand_word(u), expand_word(v))


def test_basis_round_trip():
    rng = Random(17)
    for _ in range(40):
        n = rng.randint(2, 4)
        x = _random_element(rng, n)
        assert convert(convert(x, NPB), PPB) == x


def test_top_coefficient_agrees_across_bases():
    rng = Random(31337)
    for _ in range(60):
        n = rng.randint(2, 4)
        x = _random_element(rng, n)
        assert top_coeff(x) == top_coeff(convert(x, NPB))


def test_half_twist_maps_npbs_to_single_ppbs():
    for n in (2, 3, 4):
        ht = expand_word(half_twist_word(n))
        images = set()
        for p in permutations(range(1, n + 1)):
            u_in_ppb = convert(basis_element(n, p, NPB), PPB)
            prod = naive.multiply(ht, u_in_ppb)
            assert len(prod.coeffs) == 1
            ((w, c),) = prod.coeffs.items()
            assert c == ONE
            images.add(w)
        assert len(images) == len(list(permutations(range(1, n + 1))))


def test_full_twist_is_central():
    rng = Random(404)
    for _ in range(30):
        n = rng.randint(2, 4)
        ftn = expand_word(full_twist_word(n))
        x = _random_element(rng, n)
        assert naive.multiply(ftn, x) == naive.multiply(x, ftn)


def test_render_element_order():
    # lines sorted by coxeter length, then lexicographic one-line notation
    x = HeckeElement(
        3,
        PPB,
        {(3, 2, 1): ONE, (1, 2, 3): Z, (2, 1, 3): ONE, (1, 3, 2): -Z},
    )
    assert render_element(x).splitlines() == [
        "1,2,3 : z",
        "1,3,2 : -z",
        "2,1,3 : 1",
        "3,2,1 : 1",
    ]


def test_zero_element_renders_as_zero():
    assert render_element(HeckeElement(2, PPB, {})) == "0"


def _words(n: int, max_size: int = 8):
    letters = st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i)))
    return st.lists(letters, max_size=max_size).map(lambda ls: BraidWord(n, tuple(ls)))


_POLYS = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=3).map(LaurentZ)


@st.composite
def _cases(draw):
    n = draw(st.integers(2, 5))
    words = draw(st.lists(_words(n), min_size=2, max_size=3))
    polys = draw(st.lists(_POLYS, min_size=len(words), max_size=len(words)))
    return words, polys


# 6-strand permutation braids: T_w in the NPB basis spans the Bruhat interval
# below w, 100 and 296 elements here, so both directions of convert recurse
# through many groups of last letters
@settings(max_examples=80, deadline=None)
@given(_cases())
@example(([reduced_word((3, 5, 1, 6, 2, 4)), BraidWord(6, (1, -2, 3, -4, 5))], [ONE, Z]))
@example(([reduced_word((4, 6, 2, 5, 1, 3)), reduced_word((2, 1, 4, 3, 6, 5))], [Z, -ONE]))
@example(([BraidWord(6, (-1, -3, -5)), reduced_word((2, 1, 4, 3, 6, 5))], [LaurentZ({-1: 2, 1: -1}), ONE]))
def test_kernel_matches_the_naive_reference(case):
    words, polys = case
    n = words[0].strands
    x, y = expand_word(words[0]), expand_word(words[1])
    assert x == naive.expand_word(words[0]) and y == naive.expand_word(words[1])
    elem = combine(n, [(c, naive.expand_word(w)) for w, c in zip(words, polys)])
    assert convert(elem, NPB) == naive.convert(elem, NPB)
    as_npb = HeckeElement(n, NPB, elem.coeffs)
    assert convert(as_npb, PPB) == naive.convert(as_npb, PPB)


def test_npb_basis_is_the_negated_reduced_word_image():
    for n in range(1, 7):
        for w in permutations(range(1, n + 1)):
            negated = BraidWord(n, tuple(-g for g in reduced_word(w).letters))
            assert convert(basis_element(n, w, NPB), PPB) == expand_word(negated), w
    for x in (expand_word(half_twist_word(5)), expand_word(full_twist_word(5))):
        y = convert(x, NPB)
        for _ in range(2):
            # returned values are the caller's: changing them changes no later result
            to_npb, to_ppb = convert(x, NPB), convert(y, PPB)
            assert to_npb == y and to_ppb == x
            to_npb.coeffs.clear()
            to_ppb.coeffs.clear()


# sigma_i -> sigma_i^-1, z -> -z sends T_w to U_w, so the NPB coefficients of a
# word's image are the PPB coefficients of the letter-negated word with z
# negated; the right side uses expand_word alone
@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5).flatmap(_words))
@example(full_twist_word(5))
@example(full_twist_word(6))
def test_npb_coefficients_are_the_z_negated_image_of_the_inverse_letters(word):
    inverted = expand_word(BraidWord(word.strands, tuple(-g for g in word.letters)))
    z_negated = {
        w: LaurentZ({e: -k if e % 2 else k for e, k in c.terms.items()})
        for w, c in inverted.coeffs.items()
    }
    assert convert(expand_word(word), NPB).coeffs == z_negated


# convert cannot see a _negate_z that flips the even powers instead: that map
# is minus this one, and the two signs cancel around the linear sum
def test_negate_z_flips_the_sign_of_odd_powers_only():
    m = {(2, 1): {-1: 1, 0: 2, 1: 3, 2: 4}}
    assert hecke._negate_z(m) == {(2, 1): {-1: -1, 0: 2, 1: -3, 2: 4}}


# a coefficient of absolute value 2^(B-1) - 1 is the largest that width B holds
@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 80).flatmap(
        lambda width: st.tuples(
            st.just(width),
            st.dictionaries(
                st.integers(-6, 6),
                st.sampled_from((1 - 2 ** (width - 1), 2 ** (width - 1) - 1, 0))
                | st.integers(1 - 2 ** (width - 1), 2 ** (width - 1) - 1),
                max_size=8,
            ),
        )
    )
)
@example((2, {-6: 1, -5: -1, 0: 0, 6: -1}))
@example((64, {-3: -(2**63) + 1, 2: 2**63 - 1}))
def test_pack_and_unpack_round_trip_at_the_edge_of_the_width(case):
    width, poly = case
    low = min(poly, default=0)
    c = {e: k for e, k in poly.items() if k}
    (packed,) = hecke._pack({(1,): c}, width, low).values()
    assert (packed == 0) == (not c)
    assert hecke._unpack(packed, width, low) == c


def test_sigma_power_follows_the_quadratic_recurrence_past_64_bits():
    # T^k = f_(k-1) + f_k T with f_0 = 0, f_1 = 1, f_(k+1) = z f_k + f_(k-1)
    f = [LaurentZ.zero(), ONE]
    for _ in range(120):
        f.append(Z * f[-1] + f[-2])
    x = expand_word(BraidWord(2, (1,) * 120))
    assert x.coeffs == {(1, 2): f[119], (2, 1): f[120]}
    assert max(abs(k) for k in f[120].terms.values()) > 2**63


@pytest.mark.parametrize("n", (2, 3, 4))
def test_convert_exactly_with_negative_exponents_and_huge_coefficients(n):
    rng = Random(n)
    huge = 2**64 + 12345
    terms = []
    for _ in range(3):
        coeff = LaurentZ({-5: huge * rng.choice((1, -1)), 0: rng.randint(-3, 3), 3: 3 * huge})
        terms.append((coeff, naive.expand_word(_random_word(rng, n, 6))))
    elem = combine(n, terms)
    assert any(c.coeff(-5) for c in elem.coeffs.values())
    assert max(abs(k) for c in elem.coeffs.values() for k in c.terms.values()) > 2**63
    assert convert(elem, NPB) == naive.convert(elem, NPB)
    as_npb = HeckeElement(n, NPB, elem.coeffs)
    assert convert(as_npb, PPB) == naive.convert(as_npb, PPB)


# a term that cancels is dropped where it cancels, so no step or level of the
# basis change carries it on and counts it against MAX_TERMS
@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: _words(n, 20)))
@example(BraidWord(2, (1, -1, 1, -1)))
def test_no_step_or_basis_change_level_keeps_a_zero_term(word):
    steps, levels = [], []
    step, horner = hecke._step, hecke._horner

    def record_step(*args):
        steps.append(step(*args))
        return steps[-1]

    def record_level(*args):
        levels.append(horner(*args))
        return levels[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hecke, "_step", record_step)
        mp.setattr(hecke, "_horner", record_level)
        x = expand_word(word)
        convert(x, NPB)
        convert(HeckeElement(word.strands, NPB, x.coeffs), PPB)
    assert len(steps) >= len(word.letters) and levels
    assert all(all(m.values()) for m in steps + levels)


def test_every_generator_step_is_held_to_max_terms(monkeypatch):
    assert hecke.MAX_TERMS == factorial(8)  # the whole basis of H_8
    monkeypatch.setattr(hecke, "MAX_TERMS", 24)
    # U_w0 on 4 strands spans all 4! = 24 basis elements: exactly at the limit
    w0 = longest_element(4)
    assert len(convert(basis_element(4, w0, NPB), PPB).coeffs) == 24
    assert len(convert(basis_element(4, w0), NPB).coeffs) == 24
    w0 = longest_element(5)
    negative_half_twist = BraidWord(5, tuple(-g for g in half_twist_word(5).letters))
    refused = (
        lambda: expand_word(negative_half_twist),
        lambda: convert(basis_element(5, w0, NPB), PPB),
        lambda: convert(basis_element(5, w0), NPB),
        lambda: eval_hecke(braid_closure_knitted(negative_half_twist)),
    )
    for call in refused:
        with pytest.raises(ValueError, match="MAX_TERMS = 24"):
            call()


def _vz(x: HeckeElement) -> dict:
    """The element as a closure's map {w: {(v-exponent, z-exponent): int}}."""
    return {w: {(0, e): k for e, k in c.terms.items()} for w, c in x.coeffs.items()}


@st.composite
def _sandwiches(draw):
    n = draw(st.integers(2, 5))
    # a and b on the first n - 1 strands
    inner = st.lists(st.integers(1, n - 2).flatmap(lambda i: st.sampled_from((i, -i))), max_size=3)
    a, b = (tuple(draw(inner)) if n > 2 else () for _ in range(2))
    return n, draw(_words(n)), a, b


@settings(max_examples=80, deadline=None)
@given(_sandwiches())
def test_closing_the_last_strand_is_the_conditional_expectation(case):
    # E(a x b) = a E(x) b for a, b in H_(n-1), with E(1) = delta and
    # E(sigma_(n-1)) = v^-1 (pinned below): these fix E on all of H_n, which
    # H_(n-1) and H_(n-1) sigma_(n-1) H_(n-1) span. Both sides multiply by
    # the naive reference, E(x) one v-degree at a time.
    n, x, a, b = case
    a_n, b_n = (naive.expand_word(BraidWord(n, w)) for w in (a, b))
    lhs = hecke._close_last(_vz(naive.multiply(naive.multiply(a_n, naive.expand_word(x)), b_n)))
    a_1, b_1 = (naive.expand_word(BraidWord(n - 1, w)) for w in (a, b))
    closed = hecke._close_last(_vz(naive.expand_word(x)))
    rhs: dict = {}
    for dv in {dv for c in closed.values() for dv, _ in c}:
        part = {w: LaurentZ({e: k for (d, e), k in c.items() if d == dv}) for w, c in closed.items()}
        product = naive.multiply(naive.multiply(a_1, HeckeElement(n - 1, PPB, part)), b_1)
        for w, c in product.coeffs.items():
            rhs.setdefault(w, {}).update({(dv, e): k for e, k in c.terms.items()})
    assert lhs == rhs


def test_closing_the_last_strand_of_the_unit_and_of_the_last_generator():
    delta = {(-1, -1): 1, (1, -1): -1}
    assert hecke._close_last(_vz(unit(3))) == {(1, 2): delta}
    assert hecke._close_last(_vz(expand_word(BraidWord(3, (2,))))) == {(1, 2): {(-1, 0): 1}}


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5).flatmap(_words))
def test_the_flip_turns_sigma_i_into_sigma_n_minus_i(word):
    n = word.strands
    turned = BraidWord(n, tuple((n - abs(g)) * (1 if g > 0 else -1) for g in word.letters))
    assert hecke._flip(_vz(expand_word(word))) == _vz(expand_word(turned))


@st.composite
def _knitted(draw):
    """A braid closure on 1-5 strands, or a random template of up to 4 boxes."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 5))
        return braid_closure_knitted(draw(_words(n)) if n > 1 else BraidWord(1, ()))
    return random_knitted(Random(draw(st.integers(0, 2**16))), 4, 4, 6)[0]


@settings(max_examples=60, deadline=None)
@given(_knitted())
@example(braid_closure_knitted(BraidWord(1, ())))
@example(braid_closure_knitted(BraidWord(4, ())))
def test_each_box_decodes_to_its_expansion_at_v0(k):
    # eval_hecke decodes each box word straight from the packed kernel; the
    # public route decodes it into a HeckeElement, which _vz lifts
    boxes = _expanded(k)
    assert [b.terms for b in boxes] == [_vz(expand_word(w)) for w in k.words]
    for b in boxes:  # terms of one z-exponent share one key tuple
        keys: dict = {}
        assert all(keys.setdefault(key, key) is key for c in b.terms.values() for key in c)
