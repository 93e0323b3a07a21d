"""Exact Laurent polynomials in the half-integer powers of u.

Every character value in this package lives in the ring Q[u^(1/2), u^(-1/2)].
To avoid a fractional exponent type, exponents are stored as plain integers
counting u^(1/2) units: exponent 2 means u, exponent -1 means u^(-1/2).
Coefficient rule: no zero term is stored, and an integral coefficient is a
Python int, so Hecke traces (in Z[u^(1/2), u^(-1/2)]) never touch Fraction; a
Fraction appears only where a division creates one, such as exact division or
a pairing's 2^(-f).  The constructor is the one place that applies the rule:
sums and products build through it.  No floating point anywhere.

The bar involution swaps u^(1/2) with -u^(-1/2); on the stored encoding it
sends the term (k, c) to (-k, c * (-1)**k).

Terms are kept in the order they were built; every output (terms, repr,
str, the JSON form) sorts by exponent, and the hash is taken over the set of
terms, so it does not depend on their order either.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

__all__ = [
    "HalfLaurent",
    "ZERO",
    "ONE",
    "U",
    "half_power",
    "u_power",
    "hl_exact_div",
    "frac_str",
]


def frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


class HalfLaurent:
    """Immutable Laurent polynomial in u^(1/2) over Q.

    Internally a dict {halfexp: coefficient} with no zero coefficients.  The
    constructor takes int exponents and int or Fraction coefficients only
    (anything else, bool and float included, is a TypeError) and applies the
    coefficient rule; sum and product build through it, so int coefficients
    stay int and other values are exact Fractions.  A scalar multiplies
    (an int or a Fraction, not a bool) but never adds: x + 1 and 1 + x are
    TypeErrors, and x + 1 * ONE is the sum.
    Instances hash and compare by that dict, regardless of its order, so
    memo tables and test assertions can treat them as plain values.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, object] | Iterable[tuple[int, object]] = ()):
        items = terms.items() if hasattr(terms, "items") else terms
        acc: dict[int, int | Fraction] = {}
        for k, c in items:
            if type(k) is not int:
                raise TypeError(f"exponent must be an int, got {k!r}")
            if type(c) is not int and not isinstance(c, Fraction):
                raise TypeError(f"coefficient must be an int or a Fraction, got {c!r}")
            s = acc.get(k, 0) + c  # the coefficient rule, for every term
            if s:
                acc[k] = s if type(s) is int or s.denominator != 1 else s.numerator
            else:
                acc.pop(k, None)
        self._terms = acc

    # -- ring structure -------------------------------------------------

    def __add__(self, other: "HalfLaurent") -> "HalfLaurent":
        if type(other) is not HalfLaurent:  # no scalar sum, in either order
            return NotImplemented
        return HalfLaurent([*self._terms.items(), *other._terms.items()])

    def __neg__(self) -> "HalfLaurent":
        return _from_clean({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "HalfLaurent") -> "HalfLaurent":
        return self + (-other)

    def __mul__(self, other) -> "HalfLaurent":
        if type(other) is HalfLaurent:
            pairs = other._terms.items()
        elif type(other) is bool or not isinstance(other, (int, Fraction)):
            return NotImplemented
        else:  # a scalar is the constant polynomial
            pairs = ((0, other),)
        return HalfLaurent((k1 + k2, c1 * c2) for k1, c1 in self._terms.items() for k2, c2 in pairs)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "HalfLaurent":
        if type(n) is not int:
            raise TypeError(f"power must be an int, got {n!r}")
        if n < 0:
            raise ValueError("negative powers are not defined here; divide explicitly")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, HalfLaurent) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- inspection ------------------------------------------------------

    @property
    def terms(self) -> dict[int, int | Fraction]:
        return dict(sorted(self._terms.items()))

    def is_zero(self) -> bool:
        return not self._terms

    def eval_one(self) -> int | Fraction:
        """Substitute u^(1/2) = 1, i.e. sum the coefficients."""
        return sum(self._terms.values())

    def bar(self) -> "HalfLaurent":
        """The involution u^(1/2) -> -u^(-1/2)."""
        return _from_clean({-k: c if k % 2 == 0 else -c for k, c in self._terms.items()})

    def __repr__(self) -> str:
        return f"HalfLaurent({self.terms!r})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for k in sorted(self._terms, reverse=True):
            c = self._terms[k]
            if k == 0:
                mono = ""
            elif k == 2:
                mono = "u"
            elif k % 2 == 0:
                mono = f"u^{k // 2}"
            elif abs(k) == 1:
                mono = "u^1/2" if k == 1 else "u^-1/2"
            else:
                mono = f"u^{{{k}/2}}"
            if mono and c == 1:
                coeff = ""
            elif mono and c == -1:
                coeff = "-"
            else:
                coeff = str(c) + ("*" if mono else "")
            bits.append(coeff + mono if mono or coeff else str(c))
        out = " + ".join(bits).replace("+ -", "- ")
        return out

    # -- JSON wire format --------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "terms": [
                {"halfexp": k, "num": c.numerator, "den": c.denominator}
                for k, c in sorted(self._terms.items())
            ]
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "HalfLaurent":
        return cls((t["halfexp"], Fraction(t["num"], t["den"])) for t in obj["terms"])


def _from_clean(terms: dict[int, int | Fraction]) -> HalfLaurent:
    # Internal fast path: terms has exact nonzero coefficients and is handed over.
    out = HalfLaurent.__new__(HalfLaurent)
    out._terms = terms
    return out


def half_power(halfexp: int, coeff=1) -> HalfLaurent:
    """coeff * u^(halfexp/2)."""
    return HalfLaurent([(halfexp, coeff)])


def u_power(exp: int, coeff=1) -> HalfLaurent:
    """coeff * u^exp."""
    return half_power(2 * exp, coeff)


ZERO = HalfLaurent()
ONE = half_power(0)
#: U = u^(1/2) - u^(-1/2), the ubiquitous strip-component factor.
U = HalfLaurent([(1, 1), (-1, -1)])


def hl_exact_div(num: HalfLaurent, den: HalfLaurent) -> HalfLaurent:
    """Exact quotient num / den in Q[u^(1/2), u^(-1/2)].

    Plain long division by the leading term.  Laurent units make every
    monomial invertible, so the division succeeds iff den divides num; a
    nonzero remainder raises ValueError rather than returning an
    approximation.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return ZERO
    den_terms = den.terms
    lead = max(den_terms)
    lead_coeff = den_terms[lead]
    # If den divides num exactly, the quotient's exponents all lie at or
    # above min(num) - min(den); needing anything lower proves inexactness.
    floor = min(num.terms) - min(den_terms)
    quot: dict[int, int | Fraction] = {}
    rem = num
    while not rem.is_zero():
        rt = rem.terms
        rlead = max(rt)
        k = rlead - lead
        if k < floor:
            raise ValueError("not divisible")
        c = Fraction(rt[rlead], lead_coeff)
        quot[k] = c
        rem = rem - half_power(k, c) * den
    return HalfLaurent(quot)
