"""Exact polynomial and truncated power-series arithmetic over rationals.

Three value types cover everything the invariant pipeline needs:

* ``IntLaurent`` -- Laurent polynomials with integer exponents (Kauffman
  bracket values in A, Conway polynomials in z).
* ``HalfLaurent`` -- Laurent polynomials with half-integer exponents,
  stored as integer numbers of halves (Jones-type values in t^(1/2)).
* ``TruncSeries`` -- Taylor expansions in u = t - 1, truncated at a fixed
  order, used to extract derivatives at t = 1 and (after reparametrising
  by u = e^h - 1) at h = 0.

Laurent coefficients are ``int``: every polynomial the pipeline builds
(bracket, Jones, Conway, the alternating sublink sum) has integer
coefficients.  Series coefficients are ``fractions.Fraction``.  Nothing
here ever rounds.  Values are immutable, so everything in this module is
safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import SingularSeriesError, TruncationError

RationalLike = Union[int, Fraction]


def _fr(x: RationalLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Laurent:
    """Shared implementation of single-variable Laurent polynomials with
    integer coefficients.

    ``terms`` maps exponent -> coefficient, stored as a sorted tuple of
    pairs with no zero coefficients.  Subclasses fix the interpretation of
    the exponent (integers vs. half-integers counted in halves).
    """

    terms: tuple[tuple[int, int], ...] = ()

    @classmethod
    def from_dict(cls, d: Mapping[int, int]):
        return cls(tuple(sorted((e, c) for e, c in d.items() if c != 0)))

    @classmethod
    def monomial(cls, exponent: int, coeff: int = 1):
        return cls.from_dict({exponent: coeff})

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls.from_dict({0: 1})

    def as_dict(self) -> dict[int, int]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exponent: int) -> int:
        for e, c in self.terms:
            if e == exponent:
                return c
        return 0

    def __add__(self, other):
        d = self.as_dict()
        for e, c in other.terms:
            d[e] = d.get(e, 0) + c
        return type(self).from_dict(d)

    def __sub__(self, other):
        d = self.as_dict()
        for e, c in other.terms:
            d[e] = d.get(e, 0) - c
        return type(self).from_dict(d)

    def __neg__(self):
        return type(self)(tuple((e, -c) for e, c in self.terms))

    def __mul__(self, other):
        d: dict[int, int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                d[e] = d.get(e, 0) + c1 * c2
        return type(self).from_dict(d)

    def shift(self, exponent: int):
        """Multiply by the monomial with the given exponent."""
        return type(self)(tuple((e + exponent, c) for e, c in self.terms))

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers of Laurent polynomials are not defined here")
        result = type(self).one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


class IntLaurent(_Laurent):
    """Laurent polynomial with integer exponents."""


class HalfLaurent(_Laurent):
    """Laurent polynomial whose exponents are half-integers, stored in halves.

    The key ``h`` represents the monomial x^(h/2); keeping the doubled
    exponent as an integer keeps arithmetic exact and orderable.
    """


def format_rational(x: RationalLike) -> str:
    x = _fr(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _format_exponent_halves(h: int) -> str:
    if h % 2 == 0:
        return str(h // 2)
    return f"({h}/2)"


def format_laurent(p: _Laurent, variable: str) -> str:
    """Canonical ascending-exponent text form, e.g. ``-t^-4 + t^-3 + t^-1``."""
    if p.is_zero():
        return "0"
    halves = isinstance(p, HalfLaurent)
    parts: list[str] = []
    for e, c in p.terms:
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            exp_txt = _format_exponent_halves(e) if halves else str(e)
            coeff_txt = "" if mag == 1 else f"{mag}*"
            body = f"{coeff_txt}{variable}^{exp_txt}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# Truncated power series in u = t - 1
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TruncSeries:
    """Truncated Taylor series with exact rational coefficients.

    ``coeffs[k]`` multiplies u^k; the tuple always has length ``order + 1``
    and arithmetic never reads beyond the truncation order.
    """

    order: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("truncation order must be non-negative")
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient count must equal order + 1")

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[RationalLike], order: int) -> "TruncSeries":
        cs = [_fr(c) for c in coeffs][: order + 1]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        return cls(order, tuple(cs))

    @classmethod
    def constant(cls, value: RationalLike, order: int) -> "TruncSeries":
        return cls.from_coeffs([value], order)

    @classmethod
    def zero(cls, order: int) -> "TruncSeries":
        return cls.constant(0, order)

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls.constant(1, order)

    def coeff(self, k: int) -> Fraction:
        if k > self.order:
            raise TruncationError(k, self.order)
        return self.coeffs[k]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check_order(self, other: "TruncSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"mismatched truncation orders {self.order} != {other.order}"
            )

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_order(other)
        return TruncSeries(
            self.order, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_order(other)
        return TruncSeries(
            self.order, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self.order, tuple(-c for c in self.coeffs))

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._check_order(other)
        n = self.order
        out = [Fraction(0)] * (n + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return TruncSeries(n, tuple(out))

    def scale(self, k: RationalLike) -> "TruncSeries":
        k = _fr(k)
        return TruncSeries(self.order, tuple(c * k for c in self.coeffs))

    def invert(self) -> "TruncSeries":
        """Multiplicative inverse up to the truncation order.

        Raises ``SingularSeriesError`` when the constant term vanishes.
        """
        a0 = self.coeffs[0]
        if a0 == 0:
            raise SingularSeriesError("cannot invert a series with zero constant term")
        n = self.order
        inv = [Fraction(0)] * (n + 1)
        inv[0] = Fraction(1) / a0
        for k in range(1, n + 1):
            acc = Fraction(0)
            for j in range(1, k + 1):
                acc += self.coeffs[j] * inv[k - j]
            inv[k] = -acc / a0
        return TruncSeries(n, tuple(inv))

    def __pow__(self, n: int) -> "TruncSeries":
        if n < 0:
            return (self ** (-n)).invert()
        result = TruncSeries.one(self.order)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


def laurent_to_series(p: HalfLaurent, order: int) -> TruncSeries:
    """Expand a half-exponent Laurent polynomial about t = 1 (u = t - 1).

    A term c t^(h/2) adds c h(h-2)...(h-2k+2) to the integer sum k, which
    is divided by 2^k k! once, at the end: the u^k coefficient is
    Σ c C(h/2, k).
    """
    sums = [0] * (order + 1)
    for halves, c in p.terms:
        for k in range(order + 1):
            sums[k] += c
            c *= halves - 2 * k
    return TruncSeries(order, tuple(Fraction(s, 2**k * math.factorial(k))
                                    for k, s in enumerate(sums)))


def compose_exp_minus_one(s: TruncSeries) -> TruncSeries:
    """Reparametrise a series in u = t - 1 by u = e^h - 1.

    The result is a series in h of the same truncation order; its h^i
    coefficient times i! is the i-th h-derivative at h = 0.
    """
    n = s.order
    e_minus_one = TruncSeries.from_coeffs(
        [0] + [Fraction(1, math.factorial(k)) for k in range(1, n + 1)], n
    )
    out = TruncSeries.constant(s.coeffs[0], n)
    power = TruncSeries.one(n)
    for k in range(1, n + 1):
        power = power * e_minus_one
        out = out + power.scale(s.coeffs[k])
    return out
