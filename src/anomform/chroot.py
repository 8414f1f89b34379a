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
rational q-series; each partition's coefficient is one ``QQ`` series
product from a shorter partition's.  For each q-power the coefficients are
cleared to one denominator, the integer S^lambda accumulated, and one
``Fraction`` built per (exp2, monomial): no class product, no exponential.
``pair_log`` is the reference log of an f given by its u-coefficients,
which tests compare the closed forms against.  It takes the log in one
pass: with g = f/f0, u g' = g (u log g)' gives
k L_k = k g_k - sum_(0<j<k) j L_j g_(k-j), O(w^2) products.

Every ring product goes through one weight-graded kernel
(``_graded_product``, after the weight grading of Hirzebruch, Berger and
Jung, *Manifolds and Modular Forms*):

- **Weight buckets.** Each operand monomial's weight is memoised.  The right
  operand is bucketed by weight, so a left monomial of weight w1 visits only
  the buckets whose weight keeps the product inside the requested window;
  pairs above the truncation are never formed.  Monomials travel through
  the loop as integer codes (exponents as base-(top weight + 1) digits), so
  a monomial product is one integer addition.
- **Integer numerators.** Coefficients are ``Fraction``s; each operand is
  cleared to integers over its common denominator once, the loop
  multiplies and accumulates integers, and one ``Fraction`` is built per
  output monomial.
- **Degree-only products.** ``GradedClass.mul_degree`` restricts the window
  to a single weight, so ``(a * b).degree_component(d)`` is computed without
  forming the rest of the product.
- **Bigraded series kernel.** A q-series over ``GradedRing`` (the Witten
  bundles) is multiplied by ``GradedRing.series_mul``.  Each operand series
  is cleared to integers over one denominator; for each output exponent the
  same buckets, codes and loop accumulate the integer products of every pair
  of q-terms, and one ``Fraction`` is built per output (exp2, monomial).  No
  ``GradedClass`` product or sum is formed per pair of q-terms.

The output of the kernels and the partition sum is already clean (trimmed,
in range, nonzero), so it is wrapped into a ``GradedClass`` as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .qseries import QQ, HalfQSeries, TruncationError, integer_numerators, power


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


def _weight_buckets(b: dict, base: int, w_hi: int) -> list:
    """The right operand as code -> coefficient dicts, one bucket per weight."""
    buckets = [{} for _ in range(w_hi + 1)]
    for m, c in b.items():
        w = monomial_weight(m)
        if w <= w_hi:
            buckets[w][_mon_code(m, base)] = c
    return buckets


def _accumulate(acc: dict, a: dict, buckets: list, base: int, w_lo: int, w_hi: int):
    """acc[code] += every product of `a` with the buckets of weight w_lo..w_hi."""
    for m1, c1 in a.items():
        w1 = monomial_weight(m1)
        if w1 > w_hi:
            continue
        k1 = _mon_code(m1, base)
        for bucket in buckets[max(w_lo - w1, 0) : w_hi - w1 + 1]:
            for k2, c2 in bucket.items():
                k = k1 + k2
                prod = c1 * c2
                acc[k] = acc[k] + prod if k in acc else prod


def _graded_product(a: dict, b: dict, w_lo: int, w_hi: int) -> dict:
    """Monomial-dict product keeping only weights w_lo..w_hi.

    The one multiplication kernel of the ring: `a` and `b` map trimmed
    p-monomials to coefficients of any ring.  Returns a dict of trimmed
    monomials with nonzero coefficients.  Every exponent of a kept product
    is at most w_hi, so base-(w_hi + 1) codes never carry.
    """
    if not a or not b:
        return {}
    (a,), den_a = integer_numerators([a])
    (b,), den_b = integer_numerators([b])
    base = w_hi + 1
    acc = {}
    _accumulate(acc, a, _weight_buckets(b, base, w_hi), base, w_lo, w_hi)
    den = den_a * den_b
    return {_code_mon(k, base): Fraction(n, den) for k, n in acc.items() if n}


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

        Each operand series is cleared to integers over one denominator;
        integers are accumulated one output exponent at a time with
        `_graded_product`'s buckets and codes, and one Fraction is built per
        output (exp2, monomial).  Returns nonzero classes for exp2 < order2.
        """
        if not a or not b:
            return {}
        w_hi = self.profile.max_weight
        base = w_hi + 1
        a_parts, den_a = integer_numerators([c._comp for c in a.values()])
        b_parts, den_b = integer_numerators([c._comp for c in b.values()])
        left = list(zip(a, a_parts))
        right = {e: _weight_buckets(p, base, w_hi) for e, p in zip(b, b_parts)}
        den = den_a * den_b
        out = {}
        for e in range(order2):
            acc = {}
            for e1, part in left:
                buckets = right.get(e - e1)
                if buckets is not None:
                    _accumulate(acc, part, buckets, base, 0, w_hi)
            comp = {_code_mon(k, base): Fraction(n, den) for k, n in acc.items() if n}
            if comp:
                out[e] = GradedClass._wrap(self.profile, comp)
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
    out = []
    for k in range(weight, 0, -1):
        for rest, s in power_sum_products(profile, weight - k):
            if rest[:1] <= (k,):  # parts stay non-increasing
                # the profile's code base, shared with its other products' memos
                prod = _graded_product(psums[k - 1]._comp, s, weight, profile.max_weight)
                out.append(((k,) + rest, {m: c.numerator for m, c in prod.items()}))
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
    logs = [dict(s.items()) for s in logs[:w_max]]
    exponent = profile.n_pairs + (1 if profile.has_zero_root else 0)
    coeffs = {(): dict((f0**exponent).truncate(order2).items())}

    def coefficient(parts):
        """f0^r prod_k L_k^(m_k) / m_k!: one series product per appended part."""
        if parts not in coeffs:
            k = parts[-1]
            prod = QQ.series_mul(coefficient(parts[:-1]), logs[k - 1], order2)
            m_k = parts.count(k)
            coeffs[parts] = {e: c / m_k for e, c in prod.items()} if m_k > 1 else prod
        return coeffs[parts]

    rows = [
        (coefficient(parts), s)
        for v in (range(w_max + 1) if weights is None else weights)
        for parts, s in power_sum_products(profile, v)
        if s
    ]
    out = {}
    for e in range(order2):
        column = {i: c[e] for i, (c, _) in enumerate(rows) if e in c}
        if not column:
            continue
        (column,), den = integer_numerators([column])
        acc = {}
        for i, n in column.items():
            for mon, s_coef in rows[i][1].items():
                acc[mon] = acc[mon] + n * s_coef if mon in acc else n * s_coef
        comp = {mon: Fraction(n, den) for mon, n in acc.items() if n}
        if comp:
            out[e] = GradedClass._wrap(profile, comp)
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
    for mon, c in cls._comp.items():
        term = c
        for i, a in enumerate(mon):
            if a:
                term = term * e[i + 1] ** a
        total += term
    return total
