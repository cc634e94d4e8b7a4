"""Exact Laurent polynomials in ``z`` and in ``(v, z)`` over the integers.

Coefficients are Python ints, so arithmetic is exact at any size (full-twist
evaluations routinely produce five-digit coefficients). Values are immutable
by convention and canonical: zero coefficients are never stored, so equal
polynomials always carry identical term maps. The constructors store any
integer (anything with ``__index__``) as an int, and refuse a float. The
arithmetic drops its own zero terms and stores its results through
``_wrap``, which checks nothing: the terms of a clean polynomial are ints
already.

``_add_vz`` is the (v, z) product kernel: it adds a product of two plain
term maps into a third, in place. ``LaurentVZ.__mul__`` runs on it, and so
do the Hecke closures and the knitted tuple sum, which keep their (v, z)
coefficients as plain maps.

The canonical term order used for serialization and rendering is ascending
v-exponent, then ascending z-exponent.
"""

from __future__ import annotations

import re
from operator import index
from typing import Mapping, TypeVar

__all__ = ["LaurentZ", "LaurentVZ", "delta_pow"]

_DECIMAL = re.compile(r"-?[0-9]+")
_L = TypeVar("_L", bound="_Laurent")


def _add_vz(acc: dict, a: Mapping, b: Mapping) -> None:
    """acc += a * b on (v-exponent, z-exponent) term maps, in place,
    dropping terms that cancel."""
    for (va, za), k1 in a.items():
        for (vb, zb), k2 in b.items():
            key = (va + vb, za + zb)
            v = acc.get(key, 0) + k1 * k2
            if v:
                acc[key] = v
            else:
                del acc[key]


def _fmt_power(var: str, exp: int) -> str:
    if exp == 0:
        return ""
    if exp == 1:
        return var
    return f"{var}^{exp}"


def _fmt_terms(parts: list[tuple[int, str]]) -> str:
    """Join (coefficient, monomial-string) pairs into a signed sum."""
    if not parts:
        return "0"
    chunks: list[str] = []
    for coeff, mono in parts:
        mag = abs(coeff)
        body = mono if (mag == 1 and mono) else (f"{mag}*{mono}" if mono else str(mag))
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(chunks)


class _Laurent:
    """Arithmetic shared by both classes; each has its own keys and ``__mul__``."""

    __slots__ = ("_terms",)

    @classmethod
    def zero(cls: type[_L]) -> _L:
        return cls()

    @classmethod
    def _wrap(cls: type[_L], terms: dict) -> _L:
        """A polynomial holding ``terms`` itself: int keys and values, no zeros."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    @property
    def terms(self) -> dict:
        """A copy of the exponent -> coefficient map (zero terms absent)."""
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, type(self)) and self._terms == other._terms

    def __neg__(self: _L) -> _L:
        return self._wrap({k: -c for k, c in self._terms.items()})

    def __add__(self: _L, other: _L) -> _L:
        out = dict(self._terms)
        for k, c in other._terms.items():
            c += out.get(k, 0)
            if c:
                out[k] = c
            else:
                del out[k]
        return self._wrap(out)

    def __sub__(self: _L, other: _L) -> _L:
        return self + (-other)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._terms!r})"


class LaurentZ(_Laurent):
    """A Laurent polynomial in ``z`` with integer coefficients."""

    __slots__ = ()

    def __init__(self, terms: Mapping[int, int] | None = None) -> None:
        self._terms = {index(e): k for e, c in (terms or {}).items() if (k := index(c))}

    @classmethod
    def one(cls) -> LaurentZ:
        return cls({0: 1})

    @classmethod
    def term(cls, exponent: int, coefficient: int = 1) -> LaurentZ:
        return cls({exponent: coefficient})

    def coeff(self, exponent: int) -> int:
        return self._terms.get(exponent, 0)

    def shifted(self, k: int) -> LaurentZ:
        """Multiply by ``z^k``."""
        return LaurentZ._wrap({e + k: c for e, c in self._terms.items()})

    def __mul__(self, other: LaurentZ | int) -> LaurentZ:
        if isinstance(other, int):
            return LaurentZ._wrap({e: c * other for e, c in self._terms.items()} if other else {})
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentZ._wrap({e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __str__(self) -> str:
        return _fmt_terms([(c, _fmt_power("z", e)) for e, c in sorted(self._terms.items())])


class LaurentVZ(_Laurent):
    """A Laurent polynomial in ``v`` and ``z`` with integer coefficients."""

    __slots__ = ()

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None) -> None:
        self._terms = {
            (index(v), index(z)): k for (v, z), c in (terms or {}).items() if (k := index(c))
        }

    @classmethod
    def one(cls) -> LaurentVZ:
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, v_exp: int, z_exp: int, coefficient: int = 1) -> LaurentVZ:
        return cls({(v_exp, z_exp): coefficient})

    def coeff(self, v_exp: int, z_exp: int) -> int:
        return self._terms.get((v_exp, z_exp), 0)

    def coeff_of_v(self, k: int) -> LaurentZ:
        """The polynomial in ``z`` multiplying ``v^k``; zero if absent."""
        return LaurentZ({z: c for (v, z), c in self._terms.items() if v == k})

    def v_exponents(self) -> set[int]:
        return {v for v, _ in self._terms}

    def z_exponents(self) -> set[int]:
        return {z for _, z in self._terms}

    def __mul__(self, other: LaurentVZ | int) -> LaurentVZ:
        if isinstance(other, int):
            return LaurentVZ._wrap({k: c * other for k, c in self._terms.items()} if other else {})
        out: dict[tuple[int, int], int] = {}
        _add_vz(out, self._terms, other._terms)
        return LaurentVZ._wrap(out)

    __rmul__ = __mul__

    def sorted_terms(self) -> list[tuple[int, int, int]]:
        """Terms as (v-exp, z-exp, coeff) in the canonical order."""
        return [(v, z, c) for (v, z), c in sorted(self._terms.items())]

    def to_json_dict(self) -> dict:
        """Canonical JSON form with coefficients as decimal strings."""
        return {"terms": [{"v": v, "z": z, "c": str(c)} for v, z, c in self.sorted_terms()]}

    @classmethod
    def from_json_dict(cls, obj: dict) -> LaurentVZ:
        if not isinstance(obj, dict) or "terms" not in obj or not isinstance(obj["terms"], list):
            raise ValueError("polynomial JSON must be an object with a 'terms' list")
        out: dict[tuple[int, int], int] = {}
        for i, t in enumerate(obj["terms"]):
            try:
                v, z, c = t["v"], t["z"], t["c"]
            except (TypeError, KeyError) as exc:
                raise ValueError(f"term {i}: expected keys 'v', 'z', 'c'") from exc
            # JSON integers only (bool is an int subclass); int() would also
            # read other scripts' digits, underscores and padding in strings
            if type(v) is not int or type(z) is not int:
                raise ValueError(f"term {i}: exponents must be integers")
            if not (type(c) is int or (type(c) is str and _DECIMAL.fullmatch(c))):
                raise ValueError(f"term {i}: coefficient must be a decimal string")
            key = (v, z)
            if key in out:
                raise ValueError(f"term {i}: duplicate exponent pair {key}")
            out[key] = int(c)
        return cls(out)

    def __str__(self) -> str:
        parts = []
        for v, z, c in self.sorted_terms():
            mono = "*".join(p for p in (_fmt_power("v", v), _fmt_power("z", z)) if p)
            parts.append((c, mono))
        return _fmt_terms(parts)


def delta_pow(k: int) -> LaurentVZ:
    """``((v^-1 - v)/z)^k``, the value of a (k+1)-circle trivial diagram.

    Expanding the binomial gives sum_j (-1)^j C(k, j) v^(2j-k) z^(-k).
    """
    if k < 0:
        raise ValueError("delta_pow requires a nonnegative exponent")
    terms: dict[tuple[int, int], int] = {}
    c = 1  # (-1)^j C(k, j), each from the last by C(k, j+1) = C(k, j)(k-j)/(j+1)
    for j in range(k + 1):
        terms[2 * j - k, -k] = c
        c = -c * (k - j) // (j + 1)
    return LaurentVZ(terms)
