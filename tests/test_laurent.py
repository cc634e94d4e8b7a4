import json
from math import comb
from random import Random

import pytest

from knitweave.laurent import LaurentVZ, LaurentZ, delta_pow


def test_additive_identity():
    p = LaurentVZ({(-1, -1): 1, (1, -1): -1})
    assert p + LaurentVZ.zero() == p


def test_cancellation_gives_zero():
    v = LaurentVZ.monomial(1, 0)
    assert v + (-v) == LaurentVZ.zero()
    assert not (v - v)


def test_disjoint_supports_merge():
    a = LaurentVZ.monomial(-1, 0, 2)
    b = LaurentVZ.monomial(-1, 2)
    assert (a + b).terms == {(-1, 0): 2, (-1, 2): 1}


def test_monomial_scaling():
    delta = LaurentVZ({(-1, -1): 1, (1, -1): -1})
    z = LaurentVZ.monomial(0, 1)
    assert (delta * z).terms == {(-1, 0): 1, (1, 0): -1}


def test_square_of_delta_by_hand():
    delta = LaurentVZ({(-1, -1): 1, (1, -1): -1})
    assert (delta * delta).terms == {(-2, -2): 1, (0, -2): -2, (2, -2): 1}


def test_multiplication_by_zero_absorbs():
    p = LaurentVZ({(3, -2): 7, (-4, 0): -1})
    assert p * LaurentVZ.zero() == LaurentVZ.zero()


def test_coeff_of_v_reads_unlink_value():
    assert delta_pow(1).coeff_of_v(-1) == LaurentZ.term(-1)


def test_coeff_of_v_on_trefoil_value():
    h = LaurentVZ({(-1, 0): 2, (1, 0): -1, (-1, 2): 1})
    assert h.coeff_of_v(1) == LaurentZ({0: -1})


def test_coeff_of_v_absent_exponent():
    p = LaurentVZ({(1, 0): 1})
    assert p.coeff_of_v(3) == LaurentZ.zero()


def test_delta_pow_base_cases():
    assert delta_pow(0) == LaurentVZ.one()
    assert delta_pow(1) == LaurentVZ({(-1, -1): 1, (1, -1): -1})
    assert delta_pow(2) == LaurentVZ({(-2, -2): 1, (0, -2): -2, (2, -2): 1})


def test_delta_pow_matches_the_binomial_sum():
    for k in range(61):
        expected = LaurentVZ({(2 * j - k, -k): (-1) ** j * comb(k, j) for j in range(k + 1)})
        assert delta_pow(k) == expected


def test_delta_pow_rejects_negative():
    with pytest.raises(ValueError):
        delta_pow(-1)


def _random_poly(rng: Random) -> LaurentVZ:
    return LaurentVZ(
        {
            (rng.randint(-4, 4), rng.randint(-4, 4)): rng.randint(-5, 5)
            for _ in range(rng.randint(0, 6))
        }
    )


def test_ring_axioms_on_random_inputs():
    rng = Random(20240811)
    for _ in range(200):
        a, b, c = _random_poly(rng), _random_poly(rng), _random_poly(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_arithmetic_stores_no_zero_coefficient():
    # results skip the constructor's checks, so each operation drops its own
    # zero terms; a stored zero would make equal polynomials compare unequal
    v, z = LaurentVZ.monomial(1, 0), LaurentVZ.monomial(0, 1)
    cases = [(v + z) * (v - z), (v + z) + (-v), v - v, (v + z) * 0, 0 * v, (v - z) * -3]
    rng = Random(99)
    for _ in range(100):
        a, b = _random_poly(rng), _random_poly(rng)
        cases += [a * b, a + b, a - a, a * rng.randint(-2, 2), -a]
    x = LaurentZ({0: 1, 1: 1})
    y = LaurentZ({0: 1, 1: -1})
    cases += [x * y, x + (-x), x * 0, y * -2, (x - y).shifted(-3), x * y - LaurentZ({0: 1})]
    assert (v + z) * (v - z) == LaurentVZ({(2, 0): 1, (0, 2): -1})
    assert x * y == LaurentZ({0: 1, 2: -1}) and not x * 0 and not (v + z) * 0
    for p in cases:
        assert 0 not in p.terms.values(), p
        assert p == type(p)(p.terms)


def test_delta_pow_is_multiplicative():
    rng = Random(7)
    for _ in range(30):
        a, b = rng.randint(0, 6), rng.randint(0, 6)
        assert delta_pow(a) * delta_pow(b) == delta_pow(a + b)


def test_coeff_of_v_is_linear():
    rng = Random(99)
    for _ in range(100):
        a, b = _random_poly(rng), _random_poly(rng)
        k = rng.randint(-4, 4)
        assert (a + b).coeff_of_v(k) == a.coeff_of_v(k) + b.coeff_of_v(k)


def test_json_round_trip_is_canonical():
    rng = Random(5)
    for _ in range(50):
        p = _random_poly(rng)
        blob = json.dumps(p.to_json_dict())
        q = LaurentVZ.from_json_dict(json.loads(blob))
        assert q == p
        assert q.to_json_dict() == p.to_json_dict()


def test_json_keeps_big_integers_exact():
    big = 11655 * 10**30 + 7747
    p = LaurentVZ.monomial(-6, 8, big)
    q = LaurentVZ.from_json_dict(p.to_json_dict())
    assert q.coeff(-6, 8) == big


def test_json_terms_are_sorted_canonically():
    p = LaurentVZ({(1, 0): 1, (-1, 2): 2, (-1, 0): 3})
    terms = p.to_json_dict()["terms"]
    assert [(t["v"], t["z"]) for t in terms] == [(-1, 0), (-1, 2), (1, 0)]


def test_json_rejects_malformed_terms():
    with pytest.raises(ValueError):
        LaurentVZ.from_json_dict({"terms": [{"v": 0.5, "z": 0, "c": "1"}]})
    with pytest.raises(ValueError):
        LaurentVZ.from_json_dict({"nope": []})
    with pytest.raises(ValueError):
        LaurentVZ.from_json_dict({"terms": [{"v": 0, "z": 0, "c": "1"}, {"v": 0, "z": 0, "c": "2"}]})
    # JSON integers only, and coefficient strings in ASCII decimal
    for term in (
        {"v": True, "z": 0, "c": "1"},
        {"v": 0, "z": False, "c": "1"},
        {"v": 0, "z": 0, "c": True},
        {"v": 0, "z": 0, "c": 1.0},
        {"v": 0, "z": 0, "c": "\u0661"},
        {"v": 0, "z": 0, "c": " 1_0 "},
        {"v": 0, "z": 0, "c": "10 "},
        {"v": 0, "z": 0, "c": "+1"},
        {"v": 0, "z": 0, "c": ""},
    ):
        with pytest.raises(ValueError):
            LaurentVZ.from_json_dict({"terms": [term]})
    assert LaurentVZ.from_json_dict({"terms": [{"v": -1, "z": 2, "c": "-10"}]}) == (
        LaurentVZ.monomial(-1, 2, -10)
    )


class _Index:
    """An integer type that is not an int, as a numpy integer is."""

    def __init__(self, k):
        self.k = k

    def __index__(self):
        return self.k


def test_constructors_take_integers_only():
    # a float coefficient was truncated (0.5 stored a zero term that printed
    # "-0"), and a float exponent rounded (z^1.7 became z)
    for bad in ({(0, 0): 0.5}, {(0, 0.0): 1}, {(1.7, 0): 2}):
        with pytest.raises(TypeError):
            LaurentVZ(bad)
    for bad in ({0: 0.5}, {1.7: 2}, {0: 1.0}):
        with pytest.raises(TypeError):
            LaurentZ(bad)
    vz = LaurentVZ({(_Index(1), True): _Index(3), (0, 0): _Index(0), (2, 2): False})
    assert vz == LaurentVZ.monomial(1, 1, 3)
    assert all(type(x) is int for (v, z), c in vz.terms.items() for x in (v, z, c))
    z = LaurentZ({_Index(-2): True, 5: _Index(0)})
    assert z == LaurentZ.term(-2)
    assert all(type(x) is int for e, c in z.terms.items() for x in (e, c))


def test_laurent_z_shift_and_embed():
    p = LaurentZ({0: 2, 2: 1})
    assert p.shifted(-6).terms == {-6: 2, -4: 1}
