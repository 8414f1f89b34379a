"""Exact truncated formal power series in q^(1/2).

Exponents are stored as doubled integers (``exp2``), so q^(3/2) lives at
exp2 = 3 and q^2 at exp2 = 4; this keeps all indexing integral.  A series
carries an exclusive truncation bound ``order2`` in the same units: terms
with exp2 >= order2 are unknown, not zero.

Coefficients come from a pluggable commutative ring.  The rationals are
provided here (``QQ``); the graded characteristic-class ring plugs in the
same small protocol (``zero``, ``one``, ``coerce``, ``series_mul``,
``coeff_to_obj``) from its own module.  Only ``QQ`` also has ``invert``,
which ``HalfQSeries.inverse`` and division need: no series over the graded
ring is inverted.  A q-series of characteristic forms is always a series
over that ring: the Witten bundles' virtual characters and the
theta-quotient root products alike.  No floating point is used anywhere in
this module.

Series products have integer numerators: ``HalfQSeries.__mul__`` fixes the
result's ``order2`` and hands both coefficient dicts to the ring's
``series_mul`` kernel.  A kernel clears each operand to integers over one
common denominator (``integer_numerators``), convolves the integers, and
builds one coefficient per output exponent, so no rational is formed per
pair of terms.  ``QQ``'s kernel is here; the graded ring's multiplies the
p-monomials of every pair of q-terms in the same integer loop.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class RingMismatchError(ValueError):
    """Operands live over different coefficient rings."""


class TruncationError(ValueError):
    """A coefficient beyond the truncation order was requested or needed."""


def integer_numerators(parts: list) -> tuple:
    """Dicts of Fractions over one common denominator: (integer dicts, den)."""
    den = lcm(*[c.denominator for part in parts for c in part.values()])
    return [
        {k: c.numerator * (den // c.denominator) for k, c in part.items()} for part in parts
    ], den


class RationalRing:
    """Coefficient ring of arbitrary-precision rationals."""

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def coerce(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, (int, str)):
            return Fraction(value)
        raise RingMismatchError(f"cannot coerce {value!r} into Q")

    def invert(self, value: Fraction) -> Fraction:
        if not value:
            raise ZeroDivisionError("constant term is zero, series not invertible")
        return Fraction(1) / value

    def series_mul(self, a: dict, b: dict, order2: int) -> dict:
        """exp2 -> coefficient product of two series, exponents below order2."""
        if not a or not b:
            return {}
        (a,), den_a = integer_numerators([a])
        (b,), den_b = integer_numerators([b])
        acc = [0] * order2
        right = sorted(b.items())
        for e1, n1 in a.items():
            for e2, n2 in right:
                e = e1 + e2
                if e >= order2:
                    break
                acc[e] += n1 * n2
        den = den_a * den_b
        return {e: Fraction(n, den) for e, n in enumerate(acc) if n}

    def coeff_to_obj(self, value: Fraction) -> str:
        return str(value)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalRing)

    def __hash__(self) -> int:
        return hash("RationalRing")

    def __repr__(self) -> str:
        return "QQ"


QQ = RationalRing()


def _exp_str(exp2: int) -> str:
    if exp2 == 0:
        return "1"
    if exp2 == 2:
        return "q"
    if exp2 % 2 == 0:
        return f"q^{exp2 // 2}"
    return f"q^({exp2}/2)"


def series_text(terms) -> str:
    """`c0 + q^(1/2) + (c)*q + ...` from (exp2, coefficient text) pairs; "0" if none."""
    parts = []
    for exp2, coef in terms:
        if exp2 == 0:
            parts.append(coef)
        elif coef == "1":
            parts.append(_exp_str(exp2))
        else:
            parts.append(f"({coef})*{_exp_str(exp2)}")
    return " + ".join(parts) or "0"


def power(base, k: int, one):
    """base**k by square-and-multiply, starting from the ring's `one`."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("only non-negative integer powers are supported")
    result = one
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


class HalfQSeries:
    """Sparse truncated series sum_k c_k q^(k/2) over a coefficient ring.

    Stored coefficients are nonzero (canonical form) and all have
    exp2 < order2.  Values are immutable; every operation returns a new
    series.  Addition requires identical rings; the result order is the
    minimum of the operand orders, and products keep every coefficient
    that is exactly determined by the operands' known windows.
    """

    __slots__ = ("ring", "_coeffs", "order2")

    def __init__(self, ring, coeffs: dict, order2: int):
        if order2 < 0:
            raise ValueError("order2 must be non-negative")
        clean = {}
        for exp2, c in coeffs.items():
            if exp2 < 0:
                raise ValueError("negative exponents are not supported")
            if exp2 >= order2:
                continue
            if c:
                clean[exp2] = c
        self.ring = ring
        self._coeffs = clean
        self.order2 = order2

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring, order2: int) -> "HalfQSeries":
        return cls(ring, {}, order2)

    @classmethod
    def one(cls, ring, order2: int) -> "HalfQSeries":
        return cls(ring, {0: ring.one}, order2)

    @classmethod
    def from_terms(cls, ring, terms, order2: int) -> "HalfQSeries":
        coeffs = {}
        for exp2, c in terms:
            c = ring.coerce(c)
            if exp2 in coeffs:
                coeffs[exp2] = coeffs[exp2] + c
            else:
                coeffs[exp2] = c
        return cls(ring, coeffs, order2)

    # -- inspection --------------------------------------------------------

    def coefficient(self, exp2: int):
        if exp2 >= self.order2:
            raise TruncationError(
                f"coefficient at exp2={exp2} beyond truncation order2={self.order2}"
            )
        return self._coeffs.get(exp2, self.ring.zero)

    def items(self):
        """(exp2, coefficient) pairs in increasing exponent order."""
        return sorted(self._coeffs.items())

    @property
    def val2(self) -> int:
        """Valuation in doubled units (order2 for the zero series)."""
        return min(self._coeffs) if self._coeffs else self.order2

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HalfQSeries):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.order2 == other.order2
            and self._coeffs == other._coeffs
        )

    __hash__ = None

    # -- arithmetic --------------------------------------------------------

    def _check_ring(self, other: "HalfQSeries"):
        if self.ring != other.ring:
            raise RingMismatchError(
                f"coefficient rings differ: {self.ring!r} vs {other.ring!r}"
            )

    def __add__(self, other):
        if not isinstance(other, HalfQSeries):
            return self + HalfQSeries(self.ring, {0: self.ring.coerce(other)}, self.order2)
        self._check_ring(other)
        order2 = min(self.order2, other.order2)
        coeffs = dict(self._coeffs)
        for exp2, c in other._coeffs.items():
            coeffs[exp2] = coeffs[exp2] + c if exp2 in coeffs else c
        return HalfQSeries(self.ring, coeffs, order2)

    __radd__ = __add__

    def __neg__(self):
        return HalfQSeries(self.ring, {e: -c for e, c in self._coeffs.items()}, self.order2)

    def __sub__(self, other):
        return self + (-other if isinstance(other, HalfQSeries) else -self.ring.coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, HalfQSeries):
            scalar = self.ring.coerce(other)
            return HalfQSeries(
                self.ring, {e: c * scalar for e, c in self._coeffs.items()}, self.order2
            )
        self._check_ring(other)
        # Unknown terms of self start at self.order2; against other's lowest
        # term they pollute exponents from self.order2 + other.val2 on.
        order2 = min(self.order2 + other.val2, other.order2 + self.val2)
        return HalfQSeries(
            self.ring, self.ring.series_mul(self._coeffs, other._coeffs, order2), order2
        )

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, HalfQSeries):
            return self * other.inverse()
        scalar = self.ring.coerce(other)
        return self * self.ring.invert(scalar)

    def __pow__(self, k: int):
        return power(self, k, HalfQSeries.one(self.ring, self.order2))

    def inverse(self) -> "HalfQSeries":
        """Multiplicative inverse; requires an invertible constant term."""
        c0 = self._coeffs.get(0)
        if c0 is None:
            raise ZeroDivisionError("series has no constant term, not invertible")
        c0_inv = self.ring.invert(c0)
        inv = {0: c0_inv}
        for e in range(1, self.order2):
            acc = None
            for e1, c1 in self._coeffs.items():
                if 0 < e1 <= e and (e - e1) in inv:
                    term = c1 * inv[e - e1]
                    acc = term if acc is None else acc + term
            if acc is not None and acc:
                inv[e] = -(c0_inv * acc)
        return HalfQSeries(self.ring, inv, self.order2)

    # -- reshaping ---------------------------------------------------------

    def truncate(self, order2: int) -> "HalfQSeries":
        if order2 > self.order2:
            raise TruncationError("cannot extend a series past its computed order")
        return HalfQSeries(self.ring, self._coeffs, order2)

    def shifted(self, delta2: int) -> "HalfQSeries":
        """Multiply by the exact monomial q^(delta2/2)."""
        if delta2 < 0:
            raise ValueError("negative exponents are not supported")
        return HalfQSeries(
            self.ring,
            {e + delta2: c for e, c in self._coeffs.items()},
            self.order2 + delta2,
        )

    def map_coefficients(self, fn, ring) -> "HalfQSeries":
        """New series over `ring` with fn applied to each coefficient."""
        return HalfQSeries(ring, {e: fn(c) for e, c in self._coeffs.items()}, self.order2)

    def lift_to(self, ring) -> "HalfQSeries":
        """Reinterpret rational coefficients inside a larger ring."""
        return self.map_coefficients(lambda c: ring.one * c, ring)

    # -- presentation ------------------------------------------------------

    def __repr__(self) -> str:
        body = series_text((exp2, str(c)) for exp2, c in self.items())
        return f"{body} + O({_exp_str(self.order2)})"

    def to_obj(self) -> list:
        """Ordered JSON-ready form: [{"exp2": int, "coef": ...}, ...]."""
        return [
            {"exp2": exp2, "coef": self.ring.coeff_to_obj(c)} for exp2, c in self.items()
        ]
