"""Truncated graded ring of characteristic forms in the Pontryagin basis.

The vertical bundle of a fiber bundle with fiber dimension d is modeled on
formal Chern roots: the complexified root multiset is {+-x_1, ..., +-x_n}
(n = floor(d/2)) plus a zero root when d is odd.  Pontryagin classes are
the elementary symmetric polynomials in the x_j^2; a ``GradedClass`` is a
sparse rational polynomial in p_1..p_n truncated at a fixed top form
degree (p_i has form degree 4i).

Products and sums of a univariate series over all roots are computed via
even power sums and Newton's identities rather than by expanding in the
roots themselves: log prod f(x_j) = sum log f(x_j) is a series in
s_2, s_4, ..., which keeps nine root pairs cheap.  The same pipeline runs
over any coefficient ring (rationals here; q-series elsewhere), which is
what the theta-quotient product route relies on.

Every ring product goes through one weight-graded kernel
(``_graded_product``, after the weight grading of Hirzebruch, Berger and
Jung, *Manifolds and Modular Forms*):

- **Weight buckets.** Each operand monomial's weight is memoised.  The right
  operand is bucketed by weight, so a left monomial of weight w1 visits only
  the buckets whose weight keeps the product inside the requested window;
  pairs above the truncation are never formed.  Monomials travel through
  the loop as integer codes (exponents as base-(top weight + 1) digits), so
  a monomial product is one integer addition.
- **Integer numerators.** When both operands carry ``Fraction``
  coefficients, each is cleared to integers over its common denominator
  once; the loop multiplies and accumulates integers, and one ``Fraction``
  is built per output monomial.  Any other coefficient ring (the q-series
  values of the theta-quotient route) runs the same loop with its own
  arithmetic.
- **Degree-only products.** ``GradedClass.mul_degree`` restricts the window
  to a single weight, so ``(a * b).degree_component(d)`` is computed without
  forming the rest of the product.

The kernel's output is already clean (trimmed, in range, nonzero), so it is
wrapped into a ``GradedClass`` without another normalisation pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .qseries import TruncationError, power


@dataclass(frozen=True)
class RootProfile:
    """Chern-root model of a fiber: dimension plus form-degree truncation."""

    fiber_dim: int
    max_form_degree: int

    def __post_init__(self):
        if self.fiber_dim < 1:
            raise ValueError("fiber_dim must be positive")
        if self.max_form_degree < 0 or self.max_form_degree % 2:
            raise ValueError("max_form_degree must be a non-negative even integer")

    @property
    def n_pairs(self) -> int:
        return self.fiber_dim // 2

    @property
    def has_zero_root(self) -> bool:
        return self.fiber_dim % 2 == 1

    @property
    def max_weight(self) -> int:
        """Top p-monomial weight kept (form degree = 4 * weight)."""
        return self.max_form_degree // 4


@lru_cache(maxsize=None)
def monomial_weight(mon: tuple) -> int:
    return sum((i + 1) * a for i, a in enumerate(mon))


def _trim(mon: tuple) -> tuple:
    k = len(mon)
    while k and mon[k - 1] == 0:
        k -= 1
    return tuple(mon[:k])


def _grlex_key(mon: tuple):
    return (monomial_weight(mon), mon)


@lru_cache(maxsize=None)
def _mon_code(mon: tuple, base: int) -> int:
    """Exponents as base-`base` digits: codes add when monomials multiply."""
    code = 0
    for a in reversed(mon):
        code = code * base + a
    return code


@lru_cache(maxsize=None)
def _code_mon(code: int, base: int) -> tuple:
    """Trimmed exponent tuple of a monomial code."""
    mon = []
    while code:
        code, a = divmod(code, base)
        mon.append(a)
    return tuple(mon)


def _graded_product(a: dict, b: dict, w_lo: int, w_hi: int) -> dict:
    """Monomial-dict product keeping only weights w_lo..w_hi.

    The one multiplication kernel of the ring: `a` and `b` map trimmed
    p-monomials to coefficients of any ring.  Returns a dict of trimmed
    monomials with nonzero coefficients.  Every exponent of a kept product
    is at most w_hi, so base-(w_hi + 1) codes never carry.
    """
    if not a or not b:
        return {}
    exact = all(type(c) is Fraction for c in a.values()) and all(
        type(c) is Fraction for c in b.values()
    )
    if exact:
        den_a = lcm(*[c.denominator for c in a.values()])
        den_b = lcm(*[c.denominator for c in b.values()])
        a = {m: c.numerator * (den_a // c.denominator) for m, c in a.items()}
        b = {m: c.numerator * (den_b // c.denominator) for m, c in b.items()}
    base = w_hi + 1
    buckets = [[] for _ in range(w_hi + 1)]  # right operand by weight
    for m, c in b.items():
        w = monomial_weight(m)
        if w <= w_hi:
            buckets[w].append((_mon_code(m, base), c))
    acc = {}
    for m1, c1 in a.items():
        w1 = monomial_weight(m1)
        if w1 > w_hi:
            continue
        k1 = _mon_code(m1, base)
        for bucket in buckets[max(w_lo - w1, 0) : w_hi - w1 + 1]:
            for k2, c2 in bucket:
                k = k1 + k2
                prod = c1 * c2
                acc[k] = acc[k] + prod if k in acc else prod
    if exact:
        den = den_a * den_b
        return {_code_mon(k, base): Fraction(n, den) for k, n in acc.items() if n}
    return {_code_mon(k, base): c for k, c in acc.items() if c}


class GradedClass:
    """Element of the truncated Pontryagin-class ring of a RootProfile."""

    __slots__ = ("profile", "_comp")

    def __init__(self, profile: RootProfile, components: dict):
        comp = {}
        w_max = profile.max_weight
        n = profile.n_pairs
        for mon, c in components.items():
            mon = _trim(tuple(mon))
            if len(mon) > n:
                continue  # p_i = 0 for i > n_pairs in the root model
            if monomial_weight(mon) > w_max:
                continue
            c = Fraction(c)
            if c:
                comp[mon] = comp[mon] + c if mon in comp else c
        self.profile = profile
        self._comp = {m: c for m, c in comp.items() if c}

    @classmethod
    def _wrap(cls, profile: RootProfile, comp: dict) -> "GradedClass":
        """Adopt a clean dict: trimmed monomials in range, nonzero Fractions."""
        obj = object.__new__(cls)
        obj.profile = profile
        obj._comp = comp
        return obj

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, profile: RootProfile) -> "GradedClass":
        return cls(profile, {})

    @classmethod
    def one(cls, profile: RootProfile) -> "GradedClass":
        return cls(profile, {(): Fraction(1)})

    @classmethod
    def constant(cls, profile: RootProfile, value) -> "GradedClass":
        return cls(profile, {(): Fraction(value)})

    @classmethod
    def p(cls, profile: RootProfile, i: int, coeff=1) -> "GradedClass":
        """coeff * p_i."""
        if i < 1:
            raise ValueError("Pontryagin class index must be >= 1")
        mon = tuple([0] * (i - 1) + [1])
        return cls(profile, {mon: Fraction(coeff)})

    # -- inspection --------------------------------------------------------

    def items(self):
        return sorted(self._comp.items(), key=lambda kv: _grlex_key(kv[0]))

    def coefficient(self, mon: tuple) -> Fraction:
        return self._comp.get(_trim(tuple(mon)), Fraction(0))

    def constant_term(self) -> Fraction:
        return self._comp.get((), Fraction(0))

    def _degree_weight(self, d: int):
        """p-weight of form degree d, or None when d is not a multiple of 4."""
        if d % 2:
            raise ValueError("form degrees are even")
        if d > self.profile.max_form_degree:
            raise TruncationError(
                f"degree {d} exceeds truncation {self.profile.max_form_degree}"
            )
        return None if d % 4 else d // 4

    def degree_component(self, d: int) -> "GradedClass":
        """Homogeneous form-degree-d part (d even)."""
        w = self._degree_weight(d)
        if w is None:
            return GradedClass.zero(self.profile)
        return GradedClass._wrap(
            self.profile,
            {m: c for m, c in self._comp.items() if monomial_weight(m) == w},
        )

    def positive_part(self) -> "GradedClass":
        return GradedClass._wrap(self.profile, {m: c for m, c in self._comp.items() if m})

    def __bool__(self) -> bool:
        return bool(self._comp)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedClass):
            return NotImplemented
        return self.profile == other.profile and self._comp == other._comp

    __hash__ = None

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "GradedClass"):
        if self.profile != other.profile:
            raise ValueError("operands live over different root profiles")

    def __add__(self, other):
        if not isinstance(other, GradedClass):
            other = GradedClass.constant(self.profile, other)
        self._check(other)
        comp = dict(self._comp)
        for m, c in other._comp.items():
            if m in comp:
                c = comp[m] + c
                if not c:
                    del comp[m]
                    continue
            comp[m] = c
        return GradedClass._wrap(self.profile, comp)

    __radd__ = __add__

    def __neg__(self):
        return GradedClass._wrap(self.profile, {m: -c for m, c in self._comp.items()})

    def __sub__(self, other):
        if not isinstance(other, GradedClass):
            other = GradedClass.constant(self.profile, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, GradedClass):
            scalar = Fraction(other)
            if not scalar:
                return GradedClass.zero(self.profile)
            return GradedClass._wrap(
                self.profile, {m: c * scalar for m, c in self._comp.items()}
            )
        self._check(other)
        return GradedClass._wrap(
            self.profile,
            _graded_product(self._comp, other._comp, 0, self.profile.max_weight),
        )

    def mul_degree(self, other: "GradedClass", d: int) -> "GradedClass":
        """(self * other).degree_component(d) without forming the other degrees."""
        self._check(other)
        w = self._degree_weight(d)
        if w is None:
            return GradedClass.zero(self.profile)
        return GradedClass._wrap(self.profile, _graded_product(self._comp, other._comp, w, w))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int):
        return power(self, k, GradedClass.one(self.profile))

    def inverse(self) -> "GradedClass":
        c0 = self.constant_term()
        if not c0:
            raise ZeroDivisionError("constant term is zero, class not invertible")
        u = self.positive_part() * (Fraction(1) / c0)
        result = GradedClass.one(self.profile)
        term = GradedClass.one(self.profile)
        for _ in range(self.profile.max_weight):
            term = term * (-u)
            if not term:
                break
            result = result + term
        return result * (Fraction(1) / c0)

    # -- presentation ------------------------------------------------------

    @staticmethod
    def _mon_str(mon: tuple) -> str:
        if not mon:
            return "1"
        return "*".join(
            f"p{i + 1}" if a == 1 else f"p{i + 1}^{a}" for i, a in enumerate(mon) if a
        )

    def __repr__(self) -> str:
        if not self._comp:
            return "0"
        parts = []
        for mon, c in self.items():
            if not mon:
                parts.append(str(c))
            elif c == 1:
                parts.append(self._mon_str(mon))
            else:
                parts.append(f"({c})*{self._mon_str(mon)}")
        return " + ".join(parts)

    def to_obj(self) -> list:
        return [
            {"monomial": list(m), "coef": str(c)} for m, c in self.items()
        ]

    @classmethod
    def from_obj(cls, profile: RootProfile, obj: list) -> "GradedClass":
        return cls(
            profile,
            {tuple(entry["monomial"]): Fraction(entry["coef"]) for entry in obj},
        )


class GradedRing:
    """Coefficient-ring adapter so HalfQSeries can carry GradedClass values."""

    def __init__(self, profile: RootProfile):
        self.profile = profile

    @property
    def zero(self) -> GradedClass:
        return GradedClass.zero(self.profile)

    @property
    def one(self) -> GradedClass:
        return GradedClass.one(self.profile)

    def coerce(self, value) -> GradedClass:
        if isinstance(value, GradedClass):
            if value.profile != self.profile:
                raise ValueError("graded class has a different root profile")
            return value
        return GradedClass.constant(self.profile, Fraction(value))

    def invert(self, value: GradedClass) -> GradedClass:
        return value.inverse()

    def coeff_to_obj(self, value: GradedClass) -> list:
        return value.to_obj()

    def coeff_from_obj(self, obj) -> GradedClass:
        return GradedClass.from_obj(self.profile, obj)

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedRing) and self.profile == other.profile

    def __hash__(self) -> int:
        return hash(("GradedRing", self.profile))

    def __repr__(self) -> str:
        return f"GradedRing({self.profile.fiber_dim}, deg<={self.profile.max_form_degree})"


# -- univariate x-series helpers (dense lists, generic coefficients) --------


def invert_scalar(c):
    """Multiplicative inverse for any supported coefficient type."""
    if isinstance(c, Fraction):
        if not c:
            raise ZeroDivisionError("cannot invert zero")
        return Fraction(1) / c
    return c.inverse()


def xseries_mul(a: list, b: list, n: int) -> list:
    """Product of dense x-series, truncated to degree < n."""
    zero = a[0] * 0
    out = [zero] * n
    for i, ai in enumerate(a):
        if i >= n or not ai:
            continue
        for j, bj in enumerate(b):
            if i + j >= n:
                break
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out


def xseries_inverse(a: list, n: int) -> list:
    """Reciprocal of a dense x-series with invertible constant term."""
    c0_inv = invert_scalar(a[0])
    zero = a[0] * 0
    out = [zero] * n
    out[0] = c0_inv
    for k in range(1, n):
        acc = zero
        for i in range(1, min(k, len(a) - 1) + 1):
            if i < len(a) and a[i]:
                acc = acc + a[i] * out[k - i]
        out[k] = -(c0_inv * acc)
    return out


def even_part(f: list) -> list:
    """u-coefficients of an even series (u = x^2); rejects odd terms."""
    for i in range(1, len(f), 2):
        if f[i]:
            raise ValueError("series is not even in x")
    return f[0::2]


@lru_cache(maxsize=None)
def power_sums(profile: RootProfile, k_max: int) -> tuple:
    """(S_1, ..., S_k_max) with S_k = sum_j x_j^(2k) in the p-basis.

    Newton's identities over y_j = x_j^2: the elementary symmetric e_i(y)
    are the Pontryagin classes, zero beyond n_pairs.
    """
    n = profile.n_pairs
    out = []
    for k in range(1, k_max + 1):
        s = GradedClass.zero(profile)
        for i in range(1, min(k - 1, n) + 1):
            sign = 1 if i % 2 == 1 else -1
            s = s + GradedClass.p(profile, i, sign) * out[k - i - 1]
        if k <= n:
            sign = 1 if k % 2 == 1 else -1
            s = s + GradedClass.p(profile, k, sign * k)
        out.append(s)
    return tuple(out)


def elementary_from_power_sums(psums: list, k_max: int, one):
    """e_0..e_k_max from power sums N_1..N_k_max (Newton, any ring).

    e_k = (1/k) * sum_{i=1..k} (-1)^(i-1) e_(k-i) N_i.
    """
    es = [one]
    for k in range(1, k_max + 1):
        acc = None
        for i in range(1, k + 1):
            term = es[k - i] * psums[i - 1]
            if i % 2 == 0:
                term = -term
            acc = term if acc is None else acc + term
        es.append(acc * Fraction(1, k))
    return es


def product_over_root_pairs(
    u_coeffs: list, profile: RootProfile, one, include_zero_root: bool = True
) -> dict:
    """prod over root pairs of f(x_j), times f(0) for a zero root.

    `u_coeffs` are the coefficients of the even series f in u = x^2 (so
    u_coeffs[k] multiplies x^(2k)), over any coefficient ring containing
    `one`.  Returns a p-monomial -> coefficient dict truncated at the
    profile's weight.  Computed as f(0)^r * exp(sum_j log(f/f(0))(x_j)).
    """
    w_max = profile.max_weight
    if len(u_coeffs) < w_max + 1:
        raise ValueError("insufficient input truncation for the requested form degree")
    f0 = u_coeffs[0]
    if not f0:
        raise ValueError("series must have a nonzero constant term")
    f0_inv = invert_scalar(f0)
    zero = one * 0
    # u-series of f/f0 - 1 (zero constant term)
    g = [zero] + [c * f0_inv for c in u_coeffs[1 : w_max + 1]]
    # log(1 + g) as a u-series up to weight w_max
    log_u = [zero] * (w_max + 1)
    gpow = g
    for j in range(1, w_max + 1):
        sign = Fraction(1, j) if j % 2 == 1 else Fraction(-1, j)
        for k in range(j, w_max + 1):
            if gpow[k]:
                log_u[k] = log_u[k] + gpow[k] * sign
        if j < w_max:
            gpow = xseries_mul(gpow, g, w_max + 1)
    # sum over pairs: substitute u -> power sums
    psums = power_sums(profile, w_max)
    acc: dict = {}
    for k in range(1, w_max + 1):
        hk = log_u[k]
        if not hk:
            continue
        for mon, c in psums[k - 1].items():
            term = hk * c
            acc[mon] = acc[mon] + term if mon in acc else term
    acc = {m: c for m, c in acc.items() if c}
    # exponentiate (nilpotent: positive weights only)
    result = {(): one}
    term = {(): one}
    for j in range(1, w_max + 1):
        term = _graded_product(term, acc, 0, w_max)
        if not term:
            break
        inv_fact = Fraction(1, factorial(j))
        for m, c in term.items():
            add = c * inv_fact
            result[m] = result[m] + add if m in result else add
    # overall constant: one factor f0 per pair, plus one for a zero root
    exponent = profile.n_pairs + (1 if include_zero_root and profile.has_zero_root else 0)
    scale = f0**exponent
    scaled = {}
    for m, c in result.items():
        cs = c * scale
        if cs:
            scaled[m] = cs
    return scaled


def product_over_roots(
    f: list, profile: RootProfile, include_zero_root: bool = True
) -> GradedClass:
    """prod over the root multiset of an even rational series f(x)."""
    if len(f) < 2 * profile.max_weight + 1:
        raise ValueError("insufficient input truncation for the requested form degree")
    u_coeffs = [Fraction(c) for c in even_part(list(f))]
    comp = product_over_root_pairs(u_coeffs, profile, Fraction(1), include_zero_root)
    return GradedClass(profile, comp)


def sum_over_roots(g: list, profile: RootProfile) -> GradedClass:
    """sum over the root multiset of a rational series g(x).

    Odd powers cancel between +-x_j; the zero root contributes g(0).
    """
    if len(g) < 2 * profile.max_weight + 1:
        raise ValueError("insufficient input truncation for the requested form degree")
    rank = 2 * profile.n_pairs + (1 if profile.has_zero_root else 0)
    result = GradedClass.constant(profile, Fraction(g[0]) * rank)
    psums = power_sums(profile, profile.max_weight)
    for k in range(1, profile.max_weight + 1):
        c = Fraction(g[2 * k]) if 2 * k < len(g) else Fraction(0)
        if c:
            result = result + psums[k - 1] * (2 * c)
    return result


def eval_at_roots(cls: GradedClass, values: list) -> Fraction:
    """Substitute p_i = e_i(values^2) and evaluate exactly."""
    n = cls.profile.n_pairs
    if len(values) != n:
        raise ValueError(f"expected {n} root values, got {len(values)}")
    squares = [Fraction(v) ** 2 for v in values]
    # elementary symmetric polynomials of the squares
    e = [Fraction(1)] + [Fraction(0)] * n
    for y in squares:
        for i in range(n, 0, -1):
            e[i] = e[i] + y * e[i - 1]
    total = Fraction(0)
    for mon, c in cls._comp.items():
        term = c
        for i, a in enumerate(mon):
            if a:
                term = term * e[i + 1] ** a
        total += term
    return total
