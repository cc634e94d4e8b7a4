"""Exact Laurent polynomials in ``z`` and in ``(v, z)`` over the integers.

Coefficients are Python ints, so arithmetic is exact at any size (full-twist
evaluations routinely produce five-digit coefficients). Values are immutable
by convention and canonical: zero coefficients are never stored, so equal
polynomials always carry identical term maps.

The canonical term order used for serialization and rendering is ascending
v-exponent, then ascending z-exponent.
"""

from __future__ import annotations

import re
from typing import Mapping, TypeVar

__all__ = ["LaurentZ", "LaurentVZ", "delta_pow"]

_DECIMAL = re.compile(r"-?[0-9]+")
_L = TypeVar("_L", bound="_Laurent")


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

    @property
    def terms(self) -> dict:
        """A copy of the exponent -> coefficient map (zero terms absent)."""
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, type(self)) and self._terms == other._terms

    def __neg__(self: _L) -> _L:
        return type(self)({k: -c for k, c in self._terms.items()})

    def __add__(self: _L, other: _L) -> _L:
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, 0) + c
        return type(self)(out)

    def __sub__(self: _L, other: _L) -> _L:
        return self + (-other)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._terms!r})"


class LaurentZ(_Laurent):
    """A Laurent polynomial in ``z`` with integer coefficients."""

    __slots__ = ()

    def __init__(self, terms: Mapping[int, int] | None = None) -> None:
        self._terms = {int(e): int(c) for e, c in (terms or {}).items() if c}

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
        return LaurentZ({e + k: c for e, c in self._terms.items()})

    def __mul__(self, other: LaurentZ | int) -> LaurentZ:
        if isinstance(other, int):
            return LaurentZ({e: c * other for e, c in self._terms.items()})
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentZ(out)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return _fmt_terms([(c, _fmt_power("z", e)) for e, c in sorted(self._terms.items())])


class LaurentVZ(_Laurent):
    """A Laurent polynomial in ``v`` and ``z`` with integer coefficients."""

    __slots__ = ()

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None) -> None:
        self._terms = {(int(v), int(z)): int(c) for (v, z), c in (terms or {}).items() if c}

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
            return LaurentVZ({k: c * other for k, c in self._terms.items()})
        out: dict[tuple[int, int], int] = {}
        for (v1, z1), c1 in self._terms.items():
            for (v2, z2), c2 in other._terms.items():
                k = (v1 + v2, z1 + z2)
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentVZ(out)

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
