"""Truncated graded ring of characteristic forms in the Pontryagin basis.

The vertical bundle of a fiber bundle with fiber dimension d is modeled on
formal Chern roots: the complexified root multiset is {+-x_1, ..., +-x_n}
(n = floor(d/2)) plus a zero root when d is odd.  Pontryagin classes are
the elementary symmetric polynomials in the x_j^2; a ``GradedClass`` is a
sparse rational polynomial in p_1..p_n truncated at a fixed top form
degree (p_i has form degree 4i).

Products and sums over all roots of an even per-root factor are computed
via the even power sums S_k = sum_j x_j^(2k), not in the roots themselves.
A product takes the factor f as its pair log: f0 = f(0) and
log(f/f0) = sum_k L_k u^k in u = x^2, with rational or rational q-series
L_k.  The callers write these logs in closed form (``genera`` for the
A-roof and the L-class, ``witten`` for the reduced Lambda_t and S_t factors
of the Witten bundles, ``anomaly`` for the theta quotients), so no series
in x is formed and no series is inverted.  A product over root pairs is
then f0^r exp(sum_k L_k S_k), with r the number of pairs plus one for a
zero root; its weight-v part is the
cycle-index sum over the partitions lambda of v (Macdonald, *Symmetric
Functions and Hall Polynomials*, I.2)

    f0^r * sum_(lambda |- v) prod_k L_k^(m_k) / m_k! * S^lambda,

with m_k the number of parts k of lambda and S^lambda = prod_i S_(lambda_i).
``power_sum_products`` memoises S^lambda per (profile, v) as an integer
p-monomial dict (Newton's S_k are integral in the p_i).  The L_k are
rational q-series, cleared to integers once per call; each partition's
coefficient is an integer q-series over its own denominator, one
convolution from a shorter partition's.  A partition whose shorter prefix
is already zero below the truncation (L_k of a factor at t = q^(e/2) starts
at q^(e/2), so long partitions of a late factor leave the window) gets no
convolution and no row.  For each q-power the S^lambda are
summed over the partitions' common denominator: no class product, no
exponential, no ``Fraction`` per monomial.
``pair_log`` is the reference log of an f given by its u-coefficients,
which tests compare the closed forms against.  It takes the log in one
pass: with g = f/f0, u g' = g (u log g)' gives
k L_k = k g_k - sum_(0<j<k) j L_j g_(k-j), O(w^2) products.

Every ring product goes through one weight-graded kernel
(``_graded_product``, after the weight grading of Hirzebruch, Berger and
Jung, *Manifolds and Modular Forms*):

- **Coded operands.** Each monomial's weight and code are memoised.  The left
  operand is coded once per product, as (weight, code, numerator) triples;
  the right operand is a list of (code, numerator) pairs sorted by weight,
  so a left monomial of weight w1 visits one slice of it, the weights that
  keep the product inside the requested window; pairs above the truncation
  are never formed.  A code writes a monomial's exponents as base-(top
  weight + 1) digits, so a monomial product is one integer addition.
  ``_accumulate`` is the one loop over such operands.
- **Integer numerators.** A class is integer numerators over one
  denominator in lowest terms, so equal classes compare equal.  The loop
  multiplies numerators, the denominators multiply, and one gcd reduces the
  result; a ``Fraction`` is built only to read a coefficient.
- **Degree-only products.** ``GradedClass.mul_degree`` restricts the window
  to a single weight, so ``(a * b).degree_component(d)`` is computed without
  forming the rest of the product.
- **Bigraded series kernel.** A q-series over ``GradedRing`` (the Witten
  bundles) is multiplied by ``GradedRing.series_mul``.  Each operand series
  is put over the lcm of its classes' denominators and each of its classes
  is coded once; for each output exponent the same loop accumulates the
  integer products of every pair of q-terms.  No ``GradedClass`` product or
  sum is formed per pair of q-terms.

Kernel output is clean (trimmed, in range, nonzero), so ``_wrap`` adopts it
after one gcd.  Integrality is checked, not asserted: ArithmeticError on
power sums with a denominator and on a denominator <= 0 in ``_wrap``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .qseries import FrozenRecord, HalfQSeries, TruncationError, convolve, integer_numerators, power


class RootProfile(FrozenRecord):
    """Chern-root model of a fiber: dimension plus form-degree truncation; keys every memo."""

    def __init__(self, fiber_dim: int, max_form_degree: int):
        if fiber_dim < 1:
            raise ValueError("fiber_dim must be positive")
        if max_form_degree < 0 or max_form_degree % 2:
            raise ValueError("max_form_degree must be a non-negative even integer")
        self.__dict__.update(fiber_dim=fiber_dim, max_form_degree=max_form_degree)

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
def _weight_code(mon: tuple, base: int) -> tuple:
    """(weight, code): the exponents as base-`base` digits, so codes add when monomials multiply."""
    code = 0
    for a in reversed(mon):
        code = code * base + a
    return monomial_weight(mon), code


@lru_cache(maxsize=None)
def _code_mon(code: int, base: int) -> tuple:
    """Trimmed exponent tuple of a monomial code."""
    mon = []
    while code:
        code, a = divmod(code, base)
        mon.append(a)
    return tuple(mon)


def _by_weight(b: dict, base: int, w_hi: int) -> tuple:
    """The right operand: (code, coefficient) pairs sorted by weight, and each weight's start."""
    buckets = [[] for _ in range(w_hi + 1)]
    for m, c in b.items():
        w, k = _weight_code(m, base)
        if w <= w_hi:
            buckets[w].append((k, c))
    pairs, start = [], [0]
    for bucket in buckets:
        pairs += bucket
        start.append(len(pairs))
    return pairs, start


def _coded(a: dict, base: int, w_hi: int) -> list:
    """The left operand as (weight, code, numerator) triples of weight <= w_hi."""
    out = []
    for m, c in a.items():
        w, k = _weight_code(m, base)
        if w <= w_hi:
            out.append((w, k, c))
    return out


def _accumulate(acc: dict, left: list, right: tuple, w_lo: int, w_hi: int):
    """acc[code] += every product of the coded `left` with the right pairs of weight w_lo..w_hi."""
    pairs, start = right
    for w1, k1, c1 in left:
        for k2, c2 in pairs[start[w_lo - w1] if w_lo > w1 else 0 : start[w_hi - w1 + 1]]:
            k = k1 + k2
            prod = c1 * c2
            acc[k] = acc[k] + prod if k in acc else prod


def _reduced(num: dict, den: int) -> tuple:
    """(num, den) with their common gcd divided out."""
    g = gcd(den, *num.values())
    return ({k: n // g for k, n in num.items()}, den // g) if g != 1 else (num, den)


def _graded_product(a: dict, b: dict, w_lo: int, w_hi: int) -> dict:
    """Integer monomial-dict product keeping only weights w_lo..w_hi.

    The one multiplication kernel of the ring: `a` and `b` map trimmed
    p-monomials to integer numerators.  Returns a dict of trimmed monomials
    with nonzero integers.  Every exponent of a kept product is at most
    w_hi, so base-(w_hi + 1) codes never carry.
    """
    if not a or not b:
        return {}
    base = w_hi + 1
    acc = {}
    _accumulate(acc, _coded(a, base, w_hi), _by_weight(b, base, w_hi), w_lo, w_hi)
    return {_code_mon(k, base): n for k, n in acc.items() if n}


class GradedClass:
    """Element of the truncated Pontryagin-class ring of a RootProfile.

    Integer numerators `_num` over one denominator `_den`, in lowest terms.
    """

    __slots__ = ("profile", "_num", "_den")

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
        (num,), den = integer_numerators([comp])
        self.profile = profile
        self._num = {m: c for m, c in num.items() if c}
        self._den = den

    @classmethod
    def _wrap(cls, profile: RootProfile, num: dict, den: int = 1) -> "GradedClass":
        """Adopt nonzero numerators of trimmed in-range monomials over den > 0, reduced."""
        if den <= 0:
            raise ArithmeticError(f"class denominator must be positive, got {den}")
        if den != 1:
            num, den = _reduced(num, den)
        obj = object.__new__(cls)
        obj.profile = profile
        obj._num = num
        obj._den = den
        return obj

    def _scaled(self, den: int) -> dict:
        """The numerators over `den`, a multiple of the class's denominator."""
        k = den // self._den
        return self._num if k == 1 else {m: c * k for m, c in self._num.items()}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, profile: RootProfile) -> "GradedClass":
        return cls._wrap(profile, {})

    @classmethod
    def one(cls, profile: RootProfile) -> "GradedClass":
        return cls._wrap(profile, {(): 1})

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
        den = self._den
        return [(m, Fraction(self._num[m], den)) for m in sorted(self._num, key=_grlex_key)]

    def coefficient(self, mon: tuple) -> Fraction:
        return Fraction(self._num.get(_trim(tuple(mon)), 0), self._den)

    def constant_term(self) -> Fraction:
        return Fraction(self._num.get((), 0), self._den)

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
        num = {m: c for m, c in self._num.items() if monomial_weight(m) == w}
        return GradedClass._wrap(self.profile, num, self._den)

    def positive_part(self) -> "GradedClass":
        num = {m: c for m, c in self._num.items() if m}
        return GradedClass._wrap(self.profile, num, self._den)

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedClass):
            return NotImplemented
        return self.profile == other.profile and (self._den, self._num) == (other._den, other._num)

    __hash__ = None

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "GradedClass"):
        if self.profile != other.profile:
            raise ValueError("operands live over different root profiles")

    def __add__(self, other):
        if not isinstance(other, GradedClass):
            other = GradedClass.constant(self.profile, other)
        self._check(other)
        den = lcm(self._den, other._den)
        num = dict(self._scaled(den))
        for m, c in other._scaled(den).items():
            if m in num:
                c += num[m]
                if not c:
                    del num[m]
                    continue
            num[m] = c
        return GradedClass._wrap(self.profile, num, den)

    __radd__ = __add__

    def __neg__(self):
        return GradedClass._wrap(self.profile, {m: -c for m, c in self._num.items()}, self._den)

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
            n = scalar.numerator
            num = {m: c * n for m, c in self._num.items()}
            return GradedClass._wrap(self.profile, num, self._den * scalar.denominator)
        self._check(other)
        num = _graded_product(self._num, other._num, 0, self.profile.max_weight)
        return GradedClass._wrap(self.profile, num, self._den * other._den)

    def mul_degree(self, other: "GradedClass", d: int) -> "GradedClass":
        """(self * other).degree_component(d) without forming the other degrees."""
        self._check(other)
        w = self._degree_weight(d)
        if w is None:
            return GradedClass.zero(self.profile)
        num = _graded_product(self._num, other._num, w, w)
        return GradedClass._wrap(self.profile, num, self._den * other._den)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int):
        return power(self, k, GradedClass.one(self.profile))

    # -- presentation ------------------------------------------------------

    @staticmethod
    def _mon_str(mon: tuple) -> str:
        if not mon:
            return "1"
        return "*".join(
            f"p{i + 1}" if a == 1 else f"p{i + 1}^{a}" for i, a in enumerate(mon) if a
        )

    def __repr__(self) -> str:
        if not self._num:
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

    def series_mul(self, a: dict, b: dict, order2: int) -> dict:
        """exp2 -> GradedClass product of two series: the bigraded kernel.

        Each operand series is put over the lcm of its classes' denominators
        (a class is rescaled only when its own differs) and each class is
        coded once, as in `_graded_product`; integers are accumulated one
        output exponent at a time, and each output class is wrapped with one
        gcd.  Returns nonzero classes for exp2 < order2.
        """
        if not a or not b:
            return {}
        w_hi = self.profile.max_weight
        base = w_hi + 1
        den_a, den_b = (lcm(*[c._den for c in x.values()]) for x in (a, b))
        left = [(e, _coded(c._scaled(den_a), base, w_hi)) for e, c in a.items()]
        right = {e: _by_weight(c._scaled(den_b), base, w_hi) for e, c in b.items()}
        den = den_a * den_b
        out = {}
        for e in range(order2):
            acc = {}
            for e1, part in left:
                other = right.get(e - e1)
                if other is not None:
                    _accumulate(acc, part, other, 0, w_hi)
            num = {_code_mon(k, base): n for k, n in acc.items() if n}
            if num:
                out[e] = GradedClass._wrap(self.profile, num, den)
        return out

    def coeff_to_obj(self, value: GradedClass) -> list:
        return value.to_obj()

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedRing) and self.profile == other.profile

    def __hash__(self) -> int:
        return hash(("GradedRing", self.profile))

    def __repr__(self) -> str:
        return f"GradedRing({self.profile.fiber_dim}, deg<={self.profile.max_form_degree})"


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


@lru_cache(maxsize=None)
def power_sum_products(profile: RootProfile, weight: int) -> tuple:
    """((lambda, S^lambda), ...) over the partitions lambda of `weight`.

    lambda is a non-increasing tuple of parts and S^lambda = prod_i
    S_(lambda_i) an integer p-monomial dict (module doc).
    """
    if weight > profile.max_weight:
        raise ValueError(f"weight {weight} exceeds the profile's weight {profile.max_weight}")
    if not weight:
        return (((), {(): 1}),)
    psums = power_sums(profile, profile.max_weight)
    if any(s._den != 1 for s in psums):
        raise ArithmeticError("power sums must have integer coefficients in the p_i")
    out = []
    for k in range(weight, 0, -1):
        for rest, s in power_sum_products(profile, weight - k):
            if rest[:1] <= (k,):  # parts stay non-increasing
                # the profile's code base, shared with its other products' memos
                prod = _graded_product(psums[k - 1]._num, s, weight, profile.max_weight)
                out.append(((k,) + rest, prod))
    return tuple(out)


def pair_log(u_coeffs: list) -> tuple:
    """(f0, (L_1, ..., L_w)): f's constant term and log(f/f0) = sum_k L_k u^k.

    `u_coeffs` are the coefficients of an even series f in u = x^2, rationals
    or rational q-series, and w = len(u_coeffs) - 1.  One pass (module doc).
    """
    f0 = u_coeffs[0]
    g = [c / f0 for c in u_coeffs]
    # kept as M_k = k L_k: M_k = k g_k - sum_(0<j<k) M_j g_(k-j)
    m_log = [None] * len(g)
    for k in range(1, len(g)):
        m_log[k] = g[k] * k - sum(m_log[j] * g[k - j] for j in range(1, k))
    return f0, tuple(m / k for k, m in enumerate(m_log[1:], 1))


def product_over_root_pairs(
    f0: HalfQSeries, logs: list, profile: RootProfile, weights=None
) -> HalfQSeries:
    """prod over root pairs of f(x_j), times f(0) for a zero root.

    f is given by its pair log (``pair_log``): the rational q-series f0 and
    L_1..L_w with log(f/f0) = sum_k L_k u^k.  Returns the parts of weight in
    `weights` (default all, 0..max_weight) as a q-series over
    ``GradedRing(profile)``: the partition sum of the module doc.
    """
    w_max = profile.max_weight
    if len(logs) < w_max:
        raise ValueError("insufficient input truncation for the requested form degree")
    order2 = min(s.order2 for s in (f0, *logs[:w_max]))
    # q-series below are exp2 -> integer numerator over a denominator
    logs, l_den = integer_numerators([dict(s.items()) for s in logs[:w_max]])
    exponent = profile.n_pairs + (1 if profile.has_zero_root else 0)
    (f0_num,), f0_den = integer_numerators([dict((f0**exponent).truncate(order2).items())])
    coeffs = {(): (f0_num, f0_den)}

    def coefficient(parts):
        """f0^r prod_k L_k^(m_k) / m_k!, one integer convolution per appended part; None if zero."""
        if parts not in coeffs:
            k = parts[-1]
            prefix = coefficient(parts[:-1])
            num = convolve(prefix[0], logs[k - 1], order2) if prefix else None
            coeffs[parts] = _reduced(num, prefix[1] * l_den * parts.count(k)) if num else None
        return coeffs[parts]

    rows = [
        (c, s)
        for v in (range(w_max + 1) if weights is None else weights)
        for parts, s in power_sum_products(profile, v)
        if s and (c := coefficient(parts))
    ]
    den = lcm(*[d for (_, d), _ in rows])
    rows = [({e: n * (den // d) for e, n in num.items()}, s) for (num, d), s in rows]
    out = {}
    for e in range(order2):
        acc = {}
        for num, s in rows:
            n = num.get(e)
            if n:
                for mon, s_coef in s.items():
                    acc[mon] = acc[mon] + n * s_coef if mon in acc else n * s_coef
        out[e] = GradedClass._wrap(profile, {mon: n for mon, n in acc.items() if n}, den)
    return HalfQSeries(GradedRing(profile), out, order2)


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
        c = Fraction(g[2 * k])
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
    for mon, c in cls.items():
        term = c
        for i, a in enumerate(mon):
            if a:
                term = term * e[i + 1] ** a
        total += term
    return total
